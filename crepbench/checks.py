"""Checks of crep's outputs against the reference computations.

Each function takes outputs and reference values and returns a list of
problems, empty when the outputs pass.  The tolerances are fixed here, before
any run: they allow for roundoff between two correct computations, not for a
changed result.
"""
from __future__ import annotations

import math

import numpy as np

import reference

#: max-norm power mismatch of a synchronous state (crep solves to 1e-10)
MISMATCH_TOL = 1e-9
#: relative agreement of two stationary-variance solves
VARIANCE_RTOL = 1e-8
#: relative agreement of a search's objective with its recomputation
OBJECTIVE_RTOL = 1e-8
#: relative agreement of values computed from the same solve
SAME_SOLVE_RTOL = 1e-10
#: sum of a decision vector against its budget
BUDGET_TOL = 1e-9
#: slack on the escape-probability bounds, for the erfc evaluations
BOUND_RTOL = 1e-9


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


# -- hitting-ring5 ---------------------------------------------------------------


def estimate_counts(est, n_samples: int, m: int, n: int) -> list[str]:
    """Trajectory counts and exit histograms add up."""
    problems = []
    if est.n_exited + est.n_censored != n_samples:
        problems.append(
            f"n_exited {est.n_exited} + n_censored {est.n_censored} != samples {n_samples}"
        )
    lines = np.asarray(est.exit_line_histogram)
    nodes = np.asarray(est.exit_node_histogram)
    if lines.shape != (m,) or nodes.shape != (n,):
        problems.append(f"histogram shapes {lines.shape}, {nodes.shape} != ({m},), ({n},)")
    elif int(lines.sum() + nodes.sum()) != est.n_exited:
        problems.append(
            f"histograms sum to {int(lines.sum() + nodes.sum())}, n_exited is {est.n_exited}"
        )
    if not (math.isfinite(est.mean) and est.mean > 0.0):
        problems.append(f"mean exit time {est.mean!r} is not a positive number")
    return problems


def trajectories(program: list, replay: list, dt: float, m: int) -> list[str]:
    """crep's (exit_time, exit_line, exit_node) per trajectory match the replay.

    ``replay`` holds the reference stepper's (exit_step, component) pairs;
    lines are 1-based in crep's outcome and components 0-based in the replay.
    """
    problems = []
    for index, ((time, line, node), (step, comp)) in enumerate(zip(program, replay)):
        if step == 0:
            expected = (None, None, None)
        elif comp < m:
            expected = (float(step) * dt, comp + 1, None)
        else:
            expected = (float(step) * dt, None, comp - m + 1)
        if (time, line, node) != expected:
            problems.append(
                f"trajectory {index}: crep gives {(time, line, node)}, "
                f"the reference stepper {expected}"
            )
    if len(program) != len(replay):
        problems.append(f"{len(program)} trajectories against {len(replay)} replays")
    return problems


def optimized_exits_later(base, optimized) -> list[str]:
    """The optimized network's 95 % interval lies above the base network's."""
    low = optimized.mean - optimized.half_width
    high = base.mean + base.half_width
    if not low > high:
        return [
            f"optimized mean exit {optimized.mean:.4f} +- {optimized.half_width:.4f} s "
            f"does not lie above base {base.mean:.4f} +- {base.half_width:.4f} s"
        ]
    return []


# -- sweep-grid -----------------------------------------------------------------


def power_flow(grid: reference.Grid, phase: np.ndarray, cohesiveness: float) -> list[str]:
    """The state solves the power flow inside the security domain.

    ``cohesiveness`` is the bundle's largest line gap, which must be this
    state's.
    """
    problems = []
    residual = float(np.max(np.abs(reference.mismatch(grid, phase))))
    if not residual <= MISMATCH_TOL:
        problems.append(f"power mismatch {residual:.3e} > {MISMATCH_TOL:.0e}")
    widest = float(np.max(np.abs(phase[grid.line_from] - phase[grid.line_to])))
    if not widest < reference.HALF_PI:
        problems.append(f"line gap {widest:.6f} is not below pi/2")
    if _rel(widest, cohesiveness) > SAME_SOLVE_RTOL:
        problems.append(f"bundle cohesiveness {cohesiveness!r} != widest gap {widest!r}")
    return problems


def escape_bounds(f_delta, gaps, resistance, eta_min: float, eta_max: float) -> list[str]:
    """Each f_delta[k] lies between the escape probabilities at (eta/2) * R_k.

    With b_i^2 = eta * d_i at every node the gap variance is exactly
    (eta / 2) * R_k; the Lyapunov solution grows with the noise, so mixed
    ratios put it between the bounds of the smallest and largest ratio.
    """
    f_delta = np.asarray(f_delta, dtype=float)
    low = reference.escape_line(gaps, 0.5 * eta_min * resistance)
    high = reference.escape_line(gaps, 0.5 * eta_max * resistance)
    bad = np.flatnonzero(
        (f_delta < low * (1.0 - BOUND_RTOL)) | (f_delta > high * (1.0 + BOUND_RTOL))
    )
    return [
        f"line {k + 1}: f_delta {f_delta[k]:.6e} outside [{low[k]:.6e}, {high[k]:.6e}]"
        for k in bad[:5]
    ]


def variances(sigma2_delta, sigma2_omega, ref_delta, ref_omega) -> list[str]:
    """Variances from crep's Lyapunov solve match the reference solve."""
    problems = []
    for label, got, want in (
        ("sigma2_delta", sigma2_delta, ref_delta),
        ("sigma2_omega", sigma2_omega, ref_omega),
    ):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            problems.append(f"{label}: shape {got.shape} != {want.shape}")
            continue
        err = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
        worst = int(np.argmax(err))
        if not err[worst] <= VARIANCE_RTOL:
            problems.append(
                f"{label}[{worst}] = {got[worst]!r}, reference {want[worst]!r} "
                f"(relative error {err[worst]:.2e})"
            )
    return problems


def bundle_traces(trace_q_delta, trace_q_omega, sigma2_delta, sigma2_omega) -> list[str]:
    """The bundle's variance traces are the sums of the solved variances."""
    problems = []
    for label, got, parts in (
        ("trace_q_delta", trace_q_delta, sigma2_delta),
        ("trace_q_omega", trace_q_omega, sigma2_omega),
    ):
        want = float(np.sum(parts))
        if _rel(float(got), want) > SAME_SOLVE_RTOL:
            problems.append(f"bundle {label} {got!r} != sum of variances {want!r}")
    return problems


# -- optimize-ring5 --------------------------------------------------------------


def search(result, lower, upper, budget: float, uniform_value: float,
           reference_value: float) -> list[str]:
    """A search result is feasible, monotone, no worse than its start, and true."""
    problems = []
    theta = np.asarray(result.theta, dtype=float)
    if np.any(theta < lower) or np.any(theta > upper):
        problems.append(f"theta {theta.tolist()} leaves the box")
    if not abs(float(theta.sum()) - budget) <= BUDGET_TOL:
        problems.append(f"theta sums to {float(theta.sum())!r}, budget {budget!r}")
    best = [value for _, value in result.history]
    if any(later > earlier for earlier, later in zip(best, best[1:])):
        problems.append(f"best-so-far history is not monotone: {best}")
    final = result.objective_final
    if final > result.objective_initial:
        problems.append(f"objective_final {final!r} > objective_initial "
                        f"{result.objective_initial!r}")
    if final > uniform_value * (1.0 + OBJECTIVE_RTOL):
        problems.append(f"objective_final {final!r} > uniform allocation's {uniform_value!r}")
    if _rel(final, reference_value) > OBJECTIVE_RTOL:
        problems.append(f"objective_final {final!r} != recomputed {reference_value!r}")
    return problems


def crep_beats_variance(phi_delta_crep: float, phi_delta_trace: float) -> list[str]:
    """Minimizing CREP reaches a lower phi_delta than minimizing the variance trace."""
    if not phi_delta_crep < phi_delta_trace:
        return [
            f"phi_delta {phi_delta_crep:.6e} of the crep_phi_delta optimum is not below "
            f"{phi_delta_trace:.6e} of the trace_q_delta optimum"
        ]
    return []
