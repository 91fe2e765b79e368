"""Critical escape probability: per-component probabilities and their norms.

Under the stationary Gaussian law of the linearized output, each line's phase
gap is Gaussian with mean equal to its synchronous value and variance from the
Lyapunov solve, and each node frequency is mean-zero Gaussian.  The escape
probability of a component is the stationary probability of leaving its
critical interval: (-pi/2, pi/2) for line gaps, (-eps, eps) for frequencies.
The metric is the infinity norm of the stacked escape-probability vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linearize import (
    LinearizedModel,
    SpectralReduction,
    VarianceReport,
    build_linearization,
    solve_lyapunov,
    spectral_reduce,
)
from .network import Network, network_from_arrays
from .powerflow import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SynchronousState,
    solve_synchronous_state,
)

#: default frequency tolerance (rad/s)
DEFAULT_EPS = 0.02

HALF_PI = math.pi / 2.0
_SQRT2 = math.sqrt(2.0)


def escape_prob_line(mean: float, sigma: float) -> float:
    """P(|X| >= pi/2) for X ~ N(mean, sigma^2), with |mean| < pi/2.

    Evaluated as a sum of two complementary-error-function tails, which is
    exact and cancellation-free for means inside the interval.  ``sigma == 0``
    returns 0 (the mean is strictly inside the interval).
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if abs(mean) >= HALF_PI:
        raise ValueError(f"mean {mean!r} outside the open interval (-pi/2, pi/2)")
    if sigma == 0.0:
        return 0.0
    upper = (HALF_PI - mean) / (sigma * _SQRT2)
    lower = (HALF_PI + mean) / (sigma * _SQRT2)
    return 0.5 * (math.erfc(upper) + math.erfc(lower))


def escape_prob_freq(sigma: float, eps: float) -> float:
    """P(|X| >= eps) for mean-zero X ~ N(0, sigma^2); 0 when sigma == 0."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if sigma == 0.0:
        return 0.0
    return math.erfc(eps / (sigma * _SQRT2))


@dataclass(frozen=True)
class CrepReport:
    """Escape probabilities per line and node with their infinity norms.

    ``argmax_line`` and ``argmax_node`` are 1-based; ties resolve to the
    lowest index.  ``argmax_line`` is None for networks without lines.
    """

    f_delta: np.ndarray
    f_omega: np.ndarray
    phi: float
    phi_delta: float
    phi_omega: float
    argmax_line: int | None
    argmax_node: int
    epsilon: float


def crep_from_moments(
    y_delta_star: np.ndarray,
    sigma2_delta: np.ndarray,
    sigma2_omega: np.ndarray,
    eps: float,
) -> CrepReport:
    """Assemble a report from synchronous line gaps and stationary variances."""
    f_delta = np.array(
        [
            escape_prob_line(float(mean), math.sqrt(float(var)))
            for mean, var in zip(y_delta_star, sigma2_delta)
        ]
    )
    f_omega = np.array([escape_prob_freq(math.sqrt(float(var)), eps) for var in sigma2_omega])
    if f_delta.size:
        argmax_line = int(np.argmax(f_delta))
        phi_delta = float(f_delta[argmax_line])
        argmax_line += 1
    else:
        argmax_line = None
        phi_delta = 0.0
    argmax_node = int(np.argmax(f_omega))
    phi_omega = float(f_omega[argmax_node])
    return CrepReport(
        f_delta=f_delta,
        f_omega=f_omega,
        phi=max(phi_delta, phi_omega),
        phi_delta=phi_delta,
        phi_omega=phi_omega,
        argmax_line=argmax_line,
        argmax_node=argmax_node + 1,
        epsilon=eps,
    )


@dataclass(frozen=True)
class Analysis:
    """The metric pipeline of one network, each stage computed on first read.

    ``state`` -> ``model`` -> ``reduction`` -> ``variance`` -> ``report``:
    power flow, linearization, spectral reduction, Lyapunov solve and escape
    probabilities.  Reading a stage runs the stages it depends on, once; a
    stage's errors (see :func:`crep`) surface on the read that runs it.
    """

    net: Network
    eps: float = DEFAULT_EPS
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    @cached_property
    def state(self) -> SynchronousState:
        return solve_synchronous_state(self.net, tol=self.tol, max_iter=self.max_iter)

    @cached_property
    def model(self) -> LinearizedModel:
        return build_linearization(self.net, self.state)

    @cached_property
    def reduction(self) -> SpectralReduction:
        return spectral_reduce(self.model, self.net)

    @cached_property
    def variance(self) -> VarianceReport:
        return solve_lyapunov(self.reduction)

    @cached_property
    def report(self) -> CrepReport:
        return crep_from_moments(
            self.state.output_phase_diffs,
            self.variance.sigma2_delta,
            self.variance.sigma2_omega,
            self.eps,
        )


def crep(
    net: Network,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CrepReport:
    """Full metric pipeline: power flow, linearization, variance, escape norms.

    Propagates the power-flow and degeneracy errors, which signal that the
    metric is undefined because the synchronous state does not exist or is
    marginally stable.
    """
    return Analysis(net, eps, tol, max_iter).report


class SmibClosedForm(NamedTuple):
    sigma2_delta: float
    sigma2_omega: float
    f_delta: float


def smib_analytic(
    inertia: float, damping: float, capacity: float, power: float, noise: float
) -> SmibClosedForm:
    """Closed-form single-machine/infinite-bus moments and escape probability.

    For a single machine with inertia M, damping D, noise b tied to an
    infinite bus through capacity K and loaded with 0 <= P < K, the stationary
    variances are ``b^2 / (2 D sqrt(K^2 - P^2))`` for the phase gap and
    ``b^2 / (2 M D)`` for the frequency, around the mean gap ``arcsin(P/K)``.
    Serves as the oracle for the full network pipeline.
    """
    if inertia <= 0.0 or damping <= 0.0 or capacity <= 0.0:
        raise ValueError("inertia, damping and capacity must be > 0")
    if noise < 0.0:
        raise ValueError("noise must be >= 0")
    if not 0.0 <= power < capacity:
        raise ValueError("power must satisfy 0 <= power < capacity")
    stiffness = math.sqrt(capacity**2 - power**2)
    sigma2_delta = noise**2 / (2.0 * damping * stiffness)
    sigma2_omega = noise**2 / (2.0 * inertia * damping)
    mean = math.asin(power / capacity)
    return SmibClosedForm(
        sigma2_delta=sigma2_delta,
        sigma2_omega=sigma2_omega,
        f_delta=escape_prob_line(mean, math.sqrt(sigma2_delta)),
    )


def smib_network(
    inertia: float,
    damping: float,
    capacity: float,
    power: float,
    noise: float,
    bus_scale: float = 1e12,
) -> Network:
    """Two-node embedding of the single-machine/infinite-bus model.

    Node 1 is the machine; node 2 approximates the infinite bus with inertia
    and damping ``bus_scale`` times larger and no noise.  The embedding error
    of the stationary moments relative to :func:`smib_analytic` is of order
    ``1 / bus_scale``.
    """
    return network_from_arrays(
        power=[power, -power],
        inertia=[inertia, inertia * bus_scale],
        damping=[damping, damping * bus_scale],
        noise=[noise, 0.0],
        lines=[(1, 2, capacity)],
    )
