"""Baseline stability metrics and the capacity-change (Braess) comparator.

Collects the classic indicators used to judge a parameter change: linear
stability (slowest nonzero decay rate of the Jacobian), squared H2 norm of
the reduced noise-to-output map, phase cohesiveness, Kuramoto-style order
parameter, plus the escape-probability report.  ``braess_compare`` takes a
network and the network after a line change (an added line, a re-rated one,
or any other) and evaluates all of them on both, flagging the metrics under
which added capacity hurts.  Whether the change added capacity is read off
the two networks: the modified one keeps every line of the base, in order
and with its ends, at no lower capacity, and adds a line or raises one.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import METRIC_UNDEFINED, AllCensoredError, DegenerateSystemError
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

    The reference definition of ``min_re_mu``, from dense ``eigvals`` of the
    2n Jacobian.  The analysis pipeline does not call it: it reads
    :attr:`VarianceReport.min_re_mu` off the Schur form of the Lyapunov solve.

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
    return float(order_parameters(state.phase[None])[0])


def order_parameters(phase: np.ndarray) -> np.ndarray:
    """:func:`order_parameter` of each row of a (B, n) stack of phases."""
    centered = phase - np.mean(phase, axis=1, keepdims=True)
    # one np.dot per row keeps each row's bits; a stacked product may round differently
    return np.array([1.0 - float(np.dot(row, row)) / row.size for row in centered])


def order_parameter_reference(state: SynchronousState) -> float:
    """Small-angle order parameter evaluated in the reference gauge (node 1 at 0)."""
    return 1.0 - float(np.dot(state.phase, state.phase)) / state.phase.size


def centroid_magnitude(state: SynchronousState) -> float:
    """Magnitude of the phase centroid on the unit circle (exact definition)."""
    return abs(sum(cmath.exp(1j * p) for p in state.phase)) / state.phase.size


def phase_cohesiveness(state: SynchronousState) -> float:
    """Infinity norm of the synchronous line phase gaps (0 without lines)."""
    return float(cohesiveness(state.output_phase_diffs[None])[0])


def cohesiveness(gaps: np.ndarray) -> np.ndarray:
    """:func:`phase_cohesiveness` of each row of a (B, m) stack of line gaps."""
    return np.abs(gaps).max(axis=1, initial=0.0)


def metrics_bundle(net: Network, eps: float = DEFAULT_EPS) -> MetricsBundle:
    """Compute every metric of :class:`MetricsBundle` for one network."""
    return _bundle(Analysis(net, eps))


def _bundle(analysis: Analysis) -> MetricsBundle:
    """The metrics of an analysis.

    Every metric comes from the analysis's cached stages; ``min_re_mu`` is
    the one the Lyapunov solve reads off its Schur form, so no second
    eigen-factorization of the Jacobian runs.
    """
    report = analysis.report
    variance, state = analysis.variance, analysis.state
    return MetricsBundle(
        min_re_mu=variance.min_re_mu,
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


def _adds_capacity(base: Network, modified: Network) -> bool:
    """Whether ``modified`` is ``base`` with capacity added and none taken away.

    True when the first ``base.m`` lines of ``modified`` join ``base``'s line
    ends in order, none of them has a lower capacity there, and ``modified``
    has more lines or one of them has a higher capacity.
    """
    if not np.array_equal(modified.line_ends[:2 * base.m], base.line_ends):
        return False
    kept = modified.capacity[:base.m]
    return bool(np.all(kept >= base.capacity)
                and (modified.m > base.m or np.any(kept > base.capacity)))


def _verdict(name: str, before: float, after: float) -> str:
    scale = max(abs(before), abs(after), 1e-300)
    if abs(after - before) <= _UNCHANGED_RTOL * scale:
        return "unchanged"
    improved = (after > before) == (_DIRECTIONS[name] > 0)
    return "improves" if improved else "degrades"


def _labelled(side: str, net: Network, stage, *args, **kwargs):
    """``stage(net, ...)``, with a network error's message prefixed by ``side``."""
    try:
        return stage(net, *args, **kwargs)
    except METRIC_UNDEFINED + (AllCensoredError,) as exc:
        raise type(exc)(f"{side} network: {exc}") from exc


def braess_compare(
    base: Network,
    modified: Network,
    eps: float = DEFAULT_EPS,
    sim: SimConfig | None = None,
    n_workers: int = 1,
) -> BraessVerdict:
    """Evaluate the metric table of a network before and after a line change.

    ``modified`` is ``base`` after the change, for instance
    ``base.with_added_line(...)`` or ``base.with_line_capacity(...)``; any
    two networks can be compared.  The change counts as adding capacity when
    ``modified`` keeps ``base``'s lines, in order and with the same ends,
    lowers none of their capacities, and adds a line or raises a capacity.
    Only then are degrading metrics listed as paradoxes.

    Hitting times are estimated only when ``sim`` is given.  An error that
    a network itself causes (no metric, or every trajectory censored) is
    re-raised with a label saying which side (base or modified) failed; a bad
    setting is raised as it is.
    """
    before = _labelled("base", base, metrics_bundle, eps=eps)
    after = _labelled("modified", modified, metrics_bundle, eps=eps)
    hit_before = hit_after = None
    if sim is not None:
        hit_before = _labelled("base", base, estimate_hitting_time, sim, n_workers)
        hit_after = _labelled("modified", modified, estimate_hitting_time, sim, n_workers)

    verdicts = {
        "f_delta_norm": _verdict("f_delta_norm", before.crep.phi_delta, after.crep.phi_delta),
        "min_re_mu": _verdict("min_re_mu", before.min_re_mu, after.min_re_mu),
        "gamma": _verdict("gamma", before.gamma, after.gamma),
    }
    if hit_before is not None and hit_after is not None:
        verdicts["hitting_time"] = _verdict("hitting_time", hit_before.mean, hit_after.mean)

    added = _adds_capacity(base, modified)
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
