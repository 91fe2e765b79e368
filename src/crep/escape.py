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
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erfc

from .linearize import VarianceReport, variances
from .errors import ConfigError, CrepError, require_real
from .network import Network, network_from_arrays
from .powerflow import HALF_PI, SynchronousState, solve_synchronous_states

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
    """Assemble a report from synchronous line gaps and stationary variances."""
    (report,) = crep_reports(
        np.asarray(y_delta_star, dtype=float)[None],
        np.asarray(sigma2_delta, dtype=float)[None],
        np.asarray(sigma2_omega, dtype=float)[None],
        eps,
    )
    return report


def crep_reports(
    y_delta_star: np.ndarray,
    sigma2_delta: np.ndarray,
    sigma2_omega: np.ndarray,
    eps: float,
) -> list[CrepReport]:
    """Reports of a stack of moments, one row per network.

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
    f_delta, f_omega = 0.5 * (tails[:, :m] + tails[:, m:2 * m]), tails[:, 2 * m:]
    argmax_lines = np.argmax(f_delta, axis=1).tolist() if m else [None] * len(f_omega)
    argmax_nodes = np.argmax(f_omega, axis=1).tolist()
    reports = []
    for j, (line, node) in enumerate(zip(argmax_lines, argmax_nodes)):
        phi_delta = 0.0 if line is None else float(f_delta[j, line])
        phi_omega = float(f_omega[j, node])
        reports.append(CrepReport(
            f_delta=f_delta[j],
            f_omega=f_omega[j],
            phi=max(phi_delta, phi_omega),
            phi_delta=phi_delta,
            phi_omega=phi_omega,
            argmax_line=None if line is None else line + 1,
            argmax_node=node + 1,
            epsilon=eps,
        ))
    return reports


@dataclass(frozen=True)
class Analysis:
    """The metric pipeline of one network, each stage computed on first read.

    ``state`` -> ``variance`` -> ``report``: power flow, invariant variance
    and escape probabilities.  Reading a stage runs the stages it depends
    on, once.  A stage that fails (see :func:`crep`) keeps its error: every
    read of it or of a later stage raises that error again, with a fresh
    traceback, and computes nothing.  An ``eps`` that is not finite and > 0
    raises :class:`ConfigError` at once.

    ``variance`` is :func:`~crep.linearize.variances` at the state: the
    closed form where the damping ratio d_i / m_i is the same at every node,
    the Lyapunov solve otherwise.  Each stage is the stacked stage of
    :func:`run_stages` run on a stack of one, so a network analysed alone
    and in a stack gives the same bits.

    ``solved_state``, if given, is taken as the outcome of the power flow
    without solving it: a state fills ``state``, a
    :class:`~crep.errors.SynchronousStateError` is kept as its error.  It must
    be the outcome for a network with the same injections, lines and
    capacities; the state does not depend on inertia or damping.
    """

    net: Network
    eps: float = DEFAULT_EPS
    solved_state: InitVar[SynchronousState | CrepError | None] = None

    def __post_init__(self, solved_state):
        _check_eps(self.eps)
        if solved_state is not None:
            # fills the cache that the ``state`` cached_property reads first,
            # or the error entry that run_stages keeps beside the stages
            failed = isinstance(solved_state, CrepError)
            self.__dict__["_error" if failed else "state"] = solved_state

    @cached_property
    def state(self) -> SynchronousState:
        return self._run_through("state")

    @cached_property
    def variance(self) -> VarianceReport:
        return self._run_through("variance")

    @cached_property
    def report(self) -> CrepReport:
        return self._run_through("report")

    def _run_through(self, stage: str):
        """Fill the stages up to ``stage`` as a stack of one; raise its error."""
        (error,) = run_stages([self], stage)
        if error is not None:
            # a kept error is raised once per read, so drop the last traceback
            raise error.with_traceback(None)
        return self.__dict__[stage]


#: the stages of an analysis in order, each one stacked call over the rows
#: that need it: the power flow, the variances at the states, the escape
#: probabilities of the moments
_STAGES = (
    ("state", lambda rows: solve_synchronous_states([a.net for a in rows])),
    ("variance", lambda rows: variances([a.net for a in rows], [a.state for a in rows])),
    ("report", lambda rows: crep_reports(
        np.array([a.state.output_phase_diffs for a in rows]),
        np.array([a.variance.sigma2_delta for a in rows]),
        np.array([a.variance.sigma2_omega for a in rows]),
        rows[0].eps,
    )),
)


def run_stages(analyses: Sequence[Analysis], through: str = "report") -> list[CrepError | None]:
    """Fill the stages of a stack of analyses, in order, up to ``through``.

    The stages are ``state``, ``variance`` and ``report``.  Each stage runs
    once over the rows that still need it and hold no error, as one call:
    :func:`~crep.powerflow.solve_synchronous_states`,
    :func:`~crep.linearize.variances`, :func:`crep_reports`.  A row keeps
    the :data:`~crep.errors.METRIC_UNDEFINED` error of its network in its
    analysis.  Returns per analysis None where its stages are filled, and
    its kept error otherwise; reading the filled stages runs nothing, and
    gives the bits the analysis computes alone.  Raises ValueError unless
    the analyses share their node count, line ends and ``eps``, or for an
    unknown ``through``.
    """
    _check_stack(analyses)
    last = [stage for stage, _ in _STAGES].index(through)
    for stage, compute in _STAGES[:last + 1]:
        rows = [a for a in analyses if stage not in a.__dict__ and "_error" not in a.__dict__]
        if rows:
            for a, result in zip(rows, compute(rows)):
                a.__dict__["_error" if isinstance(result, CrepError) else stage] = result
    return [None if through in a.__dict__ else a.__dict__["_error"] for a in analyses]


def _check_stack(analyses: Sequence[Analysis]) -> None:
    """Raise ValueError unless the analyses share node count, line ends and eps.

    A derived network shares its base's line-end arrays, so a stack of
    candidates passes with one identity test per array.
    """
    if not analyses:
        return
    top = analyses[0]
    n, ends_from, ends_to = top.net.n, top.net.line_from, top.net.line_to
    for a in analyses:
        if a.eps != top.eps:
            raise ValueError("the analyses of one stack must share eps")
        net = a.net
        if net.n != n or not (net.line_from is ends_from and net.line_to is ends_to
                              or np.array_equal(net.line_from, ends_from)
                              and np.array_equal(net.line_to, ends_to)):
            raise ValueError("the networks of one stack must share node count and line ends")


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
