"""Baseline stability metrics and the capacity-change (Braess) comparator.

Collects the classic indicators used to judge a parameter change: linear
stability (slowest nonzero decay rate of the Jacobian), squared H2 norm of
the reduced noise-to-output map, phase cohesiveness, Kuramoto-style order
parameter, plus the escape-probability report.  ``braess_compare`` evaluates
all of them before and after adding a line or re-rating one, flagging the
metrics under which added capacity hurts.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .errors import CrepError, DegenerateSystemError
from .escape import DEFAULT_EPS, Analysis, CrepReport
from .hitting import HittingTimeEstimate, SimConfig, estimate_hitting_time
from .linearize import ZERO_EIG_TOL, LinearizedModel
from .network import Network
from .powerflow import SynchronousState

#: relative difference below which a metric counts as unchanged
_UNCHANGED_RTOL = 1e-12


@dataclass(frozen=True)
class MetricsBundle:
    """One network's stability indicators at its synchronous state."""

    min_re_mu: float
    h2_squared: float
    trace_q_delta: float
    trace_q_omega: float
    cohesiveness: float
    gamma: float
    gamma_reference: float
    centroid_magnitude: float
    crep: CrepReport


def linear_stability(model: LinearizedModel) -> float:
    """Smallest |Re| over the nonzero eigenvalues of the full Jacobian.

    Eigenvalues with magnitude below ``ZERO_EIG_TOL`` times max(1, largest
    magnitude) are treated as the structural zero mode; finding more than one
    of them raises :class:`DegenerateSystemError`.
    """
    eigvals = np.linalg.eigvals(model.sys_matrix)
    zero_tol = ZERO_EIG_TOL * max(1.0, float(np.max(np.abs(eigvals))))
    nonzero = eigvals[np.abs(eigvals) > zero_tol]
    n_zero = eigvals.size - nonzero.size
    if n_zero > 1:
        raise DegenerateSystemError(
            f"{n_zero} eigenvalues below {zero_tol:.1e}; expected at most the "
            "structural zero mode"
        )
    return float(np.min(np.abs(nonzero.real)))


def gramian_h2_squared(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                       via: str = "controllability") -> float:
    """Squared H2 norm of a stable (A, B, C) triple through either Gramian.

    ``via='controllability'`` solves A Qc + Qc A^T + B B^T = 0 and returns
    tr(C Qc C^T); ``via='observability'`` solves A^T Qo + Qo A + C^T C = 0 and
    returns tr(B^T Qo B).  The two routes agree for any Hurwitz A.
    """
    if via == "controllability":
        q = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.T)
        return float(np.trace(c @ q @ c.T))
    if via == "observability":
        q = scipy.linalg.solve_continuous_lyapunov(a.T, -c.T @ c)
        return float(np.trace(b.T @ q @ b))
    raise ValueError(f"via must be 'controllability' or 'observability', got {via!r}")


def order_parameter(state: SynchronousState) -> float:
    """Small-angle order parameter 1 - ||phase - mean||^2 / n.

    The quadratic surrogate is gauge dependent; mean-centering picks the gauge
    that maximizes it.  See :func:`order_parameter_reference` for the value in
    the solver's reference gauge and :func:`centroid_magnitude` for the exact
    circular-centroid magnitude.
    """
    centered = state.phase - np.mean(state.phase)
    return 1.0 - float(np.dot(centered, centered)) / state.phase.size


def order_parameter_reference(state: SynchronousState) -> float:
    """Small-angle order parameter evaluated in the reference gauge (node 1 at 0)."""
    return 1.0 - float(np.dot(state.phase, state.phase)) / state.phase.size


def centroid_magnitude(state: SynchronousState) -> float:
    """Magnitude of the phase centroid on the unit circle (exact definition)."""
    return abs(sum(cmath.exp(1j * p) for p in state.phase)) / state.phase.size


def phase_cohesiveness(state: SynchronousState) -> float:
    """Infinity norm of the synchronous line phase gaps (0 without lines)."""
    if state.output_phase_diffs.size == 0:
        return 0.0
    return float(np.max(np.abs(state.output_phase_diffs)))


def metrics_bundle(net: Network, eps: float = DEFAULT_EPS) -> MetricsBundle:
    """Compute every metric of :class:`MetricsBundle` for one network."""
    return _bundle(Analysis(net, eps))


def _bundle(analysis: Analysis) -> MetricsBundle:
    """The metrics of an analysis.

    Reads ``report`` first, so a failing pipeline stage raises its own error
    before :func:`linear_stability` runs.
    """
    report = analysis.report
    variance, state = analysis.variance, analysis.state
    return MetricsBundle(
        min_re_mu=linear_stability(analysis.model),
        h2_squared=float(np.trace(variance.q_y)),
        trace_q_delta=float(np.sum(variance.sigma2_delta)),
        trace_q_omega=float(np.sum(variance.sigma2_omega)),
        cohesiveness=phase_cohesiveness(state),
        gamma=order_parameter(state),
        gamma_reference=order_parameter_reference(state),
        centroid_magnitude=centroid_magnitude(state),
        crep=report,
    )


@dataclass(frozen=True)
class AddLine:
    """Add a new line between two node ids."""

    from_node: int
    to_node: int
    capacity: float


@dataclass(frozen=True)
class SetCapacity:
    """Re-rate an existing line (1-based index) to a new capacity."""

    line_index: int
    capacity: float


LineChange = Union[AddLine, SetCapacity]


@dataclass(frozen=True)
class BraessScenario:
    base: Network
    change: LineChange


@dataclass(frozen=True)
class BraessVerdict:
    """Before/after metric table with per-metric improvement verdicts.

    ``verdicts`` maps metric name to 'improves', 'degrades' or 'unchanged'.
    ``paradox_metrics`` lists the metrics that degrade although the change
    added capacity.
    """

    before: MetricsBundle
    after: MetricsBundle
    hitting_before: HittingTimeEstimate | None
    hitting_after: HittingTimeEstimate | None
    verdicts: dict[str, str]
    paradox_metrics: tuple[str, ...]
    capacity_added: bool


#: metric name -> +1 if larger is better, -1 if smaller is better
_DIRECTIONS = {
    "hitting_time": +1,
    "f_delta_norm": -1,
    "min_re_mu": +1,
    "gamma": +1,
}


def apply_change(net: Network, change: LineChange) -> Network:
    if isinstance(change, AddLine):
        return net.with_added_line(change.from_node, change.to_node, change.capacity)
    if isinstance(change, SetCapacity):
        return net.with_line_capacity(change.line_index, change.capacity)
    raise TypeError(f"unsupported change {change!r}")


def _adds_capacity(net: Network, change: LineChange) -> bool:
    if isinstance(change, AddLine):
        return True
    return change.capacity > float(net.capacity[change.line_index - 1])


def _verdict(name: str, before: float, after: float) -> str:
    scale = max(abs(before), abs(after), 1e-300)
    if abs(after - before) <= _UNCHANGED_RTOL * scale:
        return "unchanged"
    improved = (after > before) == (_DIRECTIONS[name] > 0)
    return "improves" if improved else "degrades"


def braess_compare(
    scenario: BraessScenario,
    eps: float = DEFAULT_EPS,
    sim: SimConfig | None = None,
    n_workers: int = 1,
) -> BraessVerdict:
    """Evaluate the metric table before and after a capacity change.

    Hitting times are estimated only when ``sim`` is given.  State-existence
    errors are re-raised with a label saying which side (base or modified)
    failed.
    """
    modified = apply_change(scenario.base, scenario.change)
    try:
        before = metrics_bundle(scenario.base, eps=eps)
    except CrepError as exc:
        raise type(exc)(f"base network: {exc}") from exc
    try:
        after = metrics_bundle(modified, eps=eps)
    except CrepError as exc:
        raise type(exc)(f"modified network: {exc}") from exc

    hit_before = hit_after = None
    if sim is not None:
        try:
            hit_before = estimate_hitting_time(scenario.base, sim, n_workers=n_workers)
        except CrepError as exc:
            raise type(exc)(f"base network: {exc}") from exc
        try:
            hit_after = estimate_hitting_time(modified, sim, n_workers=n_workers)
        except CrepError as exc:
            raise type(exc)(f"modified network: {exc}") from exc

    verdicts = {
        "f_delta_norm": _verdict("f_delta_norm", before.crep.phi_delta, after.crep.phi_delta),
        "min_re_mu": _verdict("min_re_mu", before.min_re_mu, after.min_re_mu),
        "gamma": _verdict("gamma", before.gamma, after.gamma),
    }
    if hit_before is not None and hit_after is not None:
        verdicts["hitting_time"] = _verdict("hitting_time", hit_before.mean, hit_after.mean)

    added = _adds_capacity(scenario.base, scenario.change)
    paradox = tuple(name for name, v in verdicts.items() if added and v == "degrades")
    return BraessVerdict(
        before=before,
        after=after,
        hitting_before=hit_before,
        hitting_after=hit_after,
        verdicts=verdicts,
        paradox_metrics=paradox,
        capacity_added=added,
    )
