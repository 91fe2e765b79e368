"""Critical escape probability: per-component probabilities and their norms.

Under the stationary Gaussian law of the linearized output, each line's phase
gap is Gaussian with mean equal to its synchronous value and its stationary
variance, and each node frequency is mean-zero Gaussian.  The escape
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
from scipy.special import erfc

from .errors import (
    METRIC_UNDEFINED, ConfigError, CrepError, SynchronousStateError, require_real,
)
from .linearize import VarianceReport, variance_report, variance_stack
from .network import Network, network_from_arrays
from .powerflow import HALF_PI, SynchronousState, solve_state_stack, solve_synchronous_state

#: default half-width eps of the critical frequency interval (rad/s)
DEFAULT_EPS = 0.02

_SQRT2 = math.sqrt(2.0)


def _check_eps(eps: float) -> None:
    """Raise :class:`ConfigError` unless ``eps`` is a finite real > 0."""
    require_real(eps, "eps")
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"eps must be finite and > 0, got {eps!r}")


def escape_prob_line(mean: float, sigma: float) -> float:
    """P(|X| >= pi/2) for X ~ N(mean, sigma^2), with |mean| < pi/2.

    Evaluated as a sum of two complementary-error-function tails, which is
    exact and cancellation-free for means inside the interval.  ``sigma == 0``
    returns 0 (the mean is strictly inside the interval).
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not abs(mean) < HALF_PI:
        raise ValueError(f"mean {mean!r} outside the open interval (-pi/2, pi/2)")
    if sigma == 0.0:
        return 0.0
    upper = (HALF_PI - mean) / (sigma * _SQRT2)
    lower = (HALF_PI + mean) / (sigma * _SQRT2)
    return float(0.5 * (erfc(upper) + erfc(lower)))


def escape_prob_freq(sigma: float, eps: float) -> float:
    """P(|X| >= eps) for mean-zero X ~ N(0, sigma^2); 0 when sigma == 0.

    Raises :class:`ConfigError` unless ``eps`` is finite and > 0.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    _check_eps(eps)
    if sigma == 0.0:
        return 0.0
    return float(erfc(eps / (sigma * _SQRT2)))


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
    """Assemble a report from synchronous line gaps and stationary variances.

    The probabilities are :func:`escape_probabilities` on a stack of one,
    which raises as documented there.
    """
    (f_delta,), (f_omega,) = escape_probabilities(
        np.asarray(y_delta_star, dtype=float)[None],
        np.asarray(sigma2_delta, dtype=float)[None],
        np.asarray(sigma2_omega, dtype=float)[None],
        eps,
    )
    line = int(np.argmax(f_delta)) if f_delta.size else None
    node = int(np.argmax(f_omega))
    phi_delta = 0.0 if line is None else float(f_delta[line])
    phi_omega = float(f_omega[node])
    return CrepReport(
        f_delta=f_delta,
        f_omega=f_omega,
        phi=max(phi_delta, phi_omega),
        phi_delta=phi_delta,
        phi_omega=phi_omega,
        argmax_line=None if line is None else line + 1,
        argmax_node=node + 1,
        epsilon=eps,
    )


def escape_probabilities(
    y_delta_star: np.ndarray,
    sigma2_delta: np.ndarray,
    sigma2_omega: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Escape probabilities (B, m) of the line gaps and (B, n) of the node
    frequencies of a stack of moments, one row per network.

    The arguments are (B, m), (B, m) and (B, n) arrays.  Each probability is
    the one :func:`escape_prob_line` or :func:`escape_prob_freq` gives for
    its entry: one ``scipy.special.erfc`` call evaluates every tail of the
    stack, element by element as those functions do, so row j has the bits
    of :func:`crep_from_moments` on row j alone; a zero variance puts the
    argument of each tail at +inf, where ``erfc`` is exactly 0.  Raises
    ValueError where those functions would: a variance that is not finite and
    >= 0, a mean gap outside (-pi/2, pi/2) or NaN, or an ``eps`` that is not
    finite and > 0 (:class:`ConfigError`).
    """
    for name, variance in (("sigma2_delta", sigma2_delta), ("sigma2_omega", sigma2_omega)):
        bad = ~((variance >= 0.0) & (variance < math.inf))
        if bad.any():
            raise ValueError(f"{name} must be finite and >= 0, got {float(variance[bad][0])!r}")
    outside = ~(np.abs(y_delta_star) < HALF_PI)
    if outside.any():
        raise ValueError(
            f"mean {float(y_delta_star[outside][0])!r} outside the open interval (-pi/2, pi/2)"
        )
    _check_eps(eps)
    m = y_delta_star.shape[1]
    scale_delta = np.sqrt(sigma2_delta) * _SQRT2
    with np.errstate(divide="ignore"):
        args = np.concatenate((
            (HALF_PI - y_delta_star) / scale_delta,
            (HALF_PI + y_delta_star) / scale_delta,
            eps / (np.sqrt(sigma2_omega) * _SQRT2),
        ), axis=1)
    tails = erfc(args)
    return 0.5 * (tails[:, :m] + tails[:, m:2 * m]), tails[:, 2 * m:]


@dataclass(frozen=True)
class Analysis:
    """The metric pipeline of one network, each stage computed on first read.

    ``state`` -> ``variance`` -> ``report``: power flow, invariant variance
    and escape probabilities, by :func:`~crep.powerflow.solve_synchronous_state`,
    :func:`~crep.linearize.variance_report` and :func:`crep_from_moments`.
    Reading a stage runs the stages it depends on, once.  A stage that fails
    with a :data:`~crep.errors.METRIC_UNDEFINED` error (see :func:`crep`)
    keeps it: every read of it or of a later stage raises that error again,
    with a fresh traceback, and computes nothing.  An ``eps`` that is not
    finite and > 0 raises :class:`ConfigError` at once.

    ``variance`` is the closed form where the damping ratio d_i / m_i is the
    same at every node, the Lyapunov solve otherwise.  Each stage is the
    array core of :func:`stage_arrays` run on a stack of one, so a network
    analysed alone and in a stack gives the same bits.
    """

    net: Network
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        _check_eps(self.eps)

    @cached_property
    def state(self) -> SynchronousState:
        return self._kept(solve_synchronous_state, self.net)

    @cached_property
    def variance(self) -> VarianceReport:
        return self._kept(variance_report, self.net, self.state)

    @cached_property
    def report(self) -> CrepReport:
        variance = self.variance
        return self._kept(crep_from_moments, self.state.output_phase_diffs,
                          variance.sigma2_delta, variance.sigma2_omega, self.eps)

    def _kept(self, stage, *args):
        """``stage(*args)``, unless this analysis keeps an error; raise the kept error."""
        error = self.__dict__.get("_error")
        if error is None:
            try:
                return stage(*args)
            except METRIC_UNDEFINED as exc:
                self.__dict__["_error"] = error = exc
        # a kept error is raised once per read, so drop the last traceback
        raise error.with_traceback(None)


#: the stages of an analysis, in order
_STAGES = ("state", "variance", "report")


def stage_arrays(
    topology: Network,
    rows: dict[str, np.ndarray],
    eps: float,
    through: str = "report",
    state: SynchronousState | SynchronousStateError | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray], list[CrepError | None]]:
    """The stages through ``through`` of a stack of parameter rows, as arrays.

    ``rows`` maps each of ``power``, ``inertia``, ``damping``, ``noise`` and
    ``capacity`` to its (B, n) or (B, m) rows on ``topology``'s lines;
    broadcast views are fine.  The stages are those of :class:`Analysis` on
    the networks of the rows, with their bits, but no per-row object is
    built: :func:`~crep.powerflow.solve_state_stack`,
    :func:`~crep.linearize.variance_stack` and
    :func:`escape_probabilities` run once each on the rows that still hold
    no error.  ``state``, if given, is the power flow's outcome for every
    row (a state, or its error), taken without solving: it must be that of
    the rows' injections and capacities, since the state does not depend on
    inertia or damping.

    Returns ``(live, stages, errors)``: per row None or its
    :data:`~crep.errors.METRIC_UNDEFINED` error, the indices ``live`` of the
    rows without one, and those rows' stacked stage arrays: ``phase`` and
    ``gaps`` (the state), ``sigma2_delta`` and ``sigma2_omega`` (the
    variances), ``f_delta`` and ``f_omega`` (the escape probabilities), as
    far as ``through``.  Raises :class:`ConfigError` for a bad ``eps`` and
    ValueError for an unknown ``through``.
    """
    _check_eps(eps)
    last = _STAGES.index(through)
    count, n, m = len(rows["capacity"]), topology.n, topology.m
    if state is None:
        phase, gaps, _, errors = solve_state_stack(topology, rows["power"], rows["capacity"])
    else:
        solved = isinstance(state, SynchronousState)
        phase = np.broadcast_to(state.phase if solved else 0.0, (count, n))
        gaps = np.broadcast_to(state.output_phase_diffs if solved else 0.0, (count, m))
        errors = [None if solved else state] * count
    live = np.flatnonzero([error is None for error in errors])
    stages = {"phase": phase[live], "gaps": gaps[live]}
    if last == 0 or not live.size:
        return live, stages, errors
    (_, _, variances, _), failed = variance_stack(
        topology, rows["capacity"][live], stages["gaps"],
        *(rows[name][live] for name in ("inertia", "damping", "noise")))
    stages.update(sigma2_delta=variances[:, :m], sigma2_omega=variances[:, m:])
    kept = [i for i, error in enumerate(failed) if error is None]
    if len(kept) < live.size:
        for j, error in zip(live.tolist(), failed):
            errors[j] = error
        live = live[kept]
        stages = {name: stage[kept] for name, stage in stages.items()}
    if last == 1 or not live.size:
        return live, stages, errors
    stages["f_delta"], stages["f_omega"] = escape_probabilities(
        stages["gaps"], stages["sigma2_delta"], stages["sigma2_omega"], eps)
    return live, stages, errors


def crep(net: Network, eps: float = DEFAULT_EPS) -> CrepReport:
    """Full metric pipeline: power flow, linearization, variance, escape norms.

    Propagates the errors of :data:`~crep.errors.METRIC_UNDEFINED`, which
    signal that the metric is undefined because the synchronous state does
    not exist or the reduced system is degenerate.
    """
    return Analysis(net, eps).report


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
    Serves as the oracle for the full network pipeline.  Raises ValueError
    naming the first argument that is not finite, or that is out of range.
    """
    arguments = {"inertia": inertia, "damping": damping, "capacity": capacity,
                 "power": power, "noise": noise}
    for name, value in arguments.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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
