"""Synchronous-state (power-flow) solver restricted to the security domain.

Solves ``P_i = sum_j l_ij sin(delta_i - delta_j)`` for the phase vector by
damped Newton iteration on the reduced system, which leaves out node 1:
every step moves the other phases only, so node 1 keeps the phase 0 it
starts at.  Inside the security domain (every line phase gap strictly below
pi/2) the reduced Jacobian is positive definite and the solution, when it
exists, is unique.  The iteration stops at
:func:`~crep.network.balance_tolerance`, the bound on every network's imbalance.

Each Newton step is damped by halving until the max-norm mismatch decreases.
The full step solves J s = -F, so it is a descent direction; when all
``_MAX_HALVINGS`` trial steps still fail to lower the mismatch, J is
numerically singular along the path, which is the saddle-node of a network
without an admissible state.  The solver then raises :class:`NoConvergence`
at once instead of spending its remaining iterations on vanishing steps.

:func:`solve_state_stack` solves a stack of parameter rows on one
network's lines, as in an optimizer generation, and
:func:`solve_synchronous_state` is its stack of one.  The Newton systems of
all running rows are one batched solve, and the halvings of every row whose
full step failed are one tensor of trial phases; an iteration whose full
steps all lowered their mismatch tries no halving, and one that follows a
pass on which no full step did tries the full steps with the halvings.  Arrays hold one row of
nodes (or lines) per network, the Jacobians are assembled in the
(B, n-1, n-1) layout the solve reads, and every row keeps its own
iteration, stopping rule and verdict, with the arithmetic of a network
solved alone: a row's state and error are the same bits at any stack size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfDomain, SynchronousStateError
from .network import Network, balance_tolerance

MAX_ITER = 50
#: strictness margin of the security-domain check
DOMAIN_MARGIN = 1e-12
HALF_PI = math.pi / 2.0
_MAX_HALVINGS = 30
#: step scales of the full step and its halvings: 1, 2**-1 .. 2**-29
_SCALES = 0.5 ** np.arange(_MAX_HALVINGS)
_HALVINGS = _SCALES[1:]


@dataclass(frozen=True)
class SynchronousState:
    """Equilibrium phases (node 1's is 0: no Newton step moves it) and line phase gaps."""

    phase: np.ndarray              # (n,)
    output_phase_diffs: np.ndarray  # (m,) incidence^T @ phase
    residual: float                # max-norm power mismatch


#: signs of a line's flow at its from and to end (``Network.line_ends``)
_END_SIGNS = np.array([1.0, -1.0])


def _row_positions(positions: np.ndarray, count: int, size: int) -> np.ndarray:
    """Flat positions of ``positions`` in each row of a (count, size) array;
    those of the first R rows lead, so they serve any smaller stack."""
    return (np.arange(count)[:, None] * size + positions).ravel()


def _add_at(terms: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """(R, size) sums of the (R, k) ``terms`` at their :func:`_row_positions`
    ``index``: each entry adds its terms in order, starting from 0, as a
    product with a sparse incidence does."""
    count = len(terms)
    return np.bincount(index[:terms.size], terms.ravel(), count * size).reshape(count, size)


def _mismatch(net: Network, power: np.ndarray, end_capacity: np.ndarray,
              phase: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Injections less line flows at ``phase``, and the line gaps there.

    Arrays are rows of nodes (or lines) with leading stack axes;
    ``end_capacity`` holds each line's capacity at its from end and, negated,
    at its to end, so its product with the gap's sine is the signed flow
    there, bit for bit.  Each node adds its lines' signed flows in line order
    (``index``: the :func:`_row_positions` of ``net.line_ends``), and the
    sum is subtracted from its injection, so a row rounds as it would alone.
    """
    gaps = phase.take(net.line_from, axis=-1) - phase.take(net.line_to, axis=-1)
    terms = end_capacity * np.sin(gaps).repeat(2, axis=-1)
    sums = np.bincount(index[:terms.size], terms.ravel(), phase.size)
    return power - sums.reshape(phase.shape), gaps


def laplacians(weights: np.ndarray, net: Network) -> np.ndarray:
    """(R, n, n) Laplacians of ``net``'s lines with weight ``weights[j, k]`` on
    line k of row j; each diagonal entry adds its lines' weights in line order."""
    count, n = len(weights), net.n
    lines, signs, positions = net.laplacian_index[0]
    terms = weights.take(lines, axis=1) * signs
    return _add_at(terms, _row_positions(positions, count, n * n), n * n).reshape(count, n, n)


def _jacobians(net: Network, entry_capacity: np.ndarray, gaps: np.ndarray,
               index: np.ndarray) -> np.ndarray:
    """Newton Jacobians (R, n-1, n-1) at line ``gaps``: :func:`laplacians` of
    the weights capacity * cos(gap) without node 1's row and column, built in
    that layout from ``entry_capacity``, each row's capacity times the sign
    of each grounded entry of ``net.laplacian_index`` (at ``index``)."""
    count, size = len(gaps), net.n - 1
    terms = entry_capacity * np.cos(gaps).take(net.laplacian_index[1][0], axis=1)
    return _add_at(terms, index, size * size).reshape(count, size, size)


def _singular_rows(jac: np.ndarray, rhs: np.ndarray):
    """Newton steps of the rows of a stack in which some Jacobian is singular.

    Returns the steps (zero where singular) and per row None or the
    :class:`NoConvergence` of its singular Jacobian.
    """
    steps = np.zeros_like(rhs)
    errors: list = [None] * len(rhs)
    for j in range(len(rhs)):
        try:
            steps[j] = np.linalg.solve(jac[j], rhs[j])
        except np.linalg.LinAlgError as exc:
            errors[j] = NoConvergence("singular Jacobian during Newton iteration")
            errors[j].__cause__ = exc
    return steps, errors


def _domain_errors(gaps: np.ndarray) -> list:
    """Per converged row of line ``gaps``, None or its :class:`OutOfDomain` error.

    A row with a line gap outside the security domain gets the error.
    """
    diffs = np.abs(gaps)
    errors: list = [None] * len(gaps)
    if np.maximum.reduce(diffs, axis=None, initial=0.0) < HALF_PI - DOMAIN_MARGIN:
        return errors
    outside = diffs.max(axis=1, initial=0.0) >= HALF_PI - DOMAIN_MARGIN
    for j in np.flatnonzero(outside):
        worst = int(np.argmax(diffs[j]))
        errors[j] = OutOfDomain(
            f"converged state leaves the security domain on line {worst + 1} "
            f"(|gap| = {diffs[j, worst]:.6f} >= pi/2)"
        )
    return errors


@np.errstate(invalid="ignore", over="ignore")  # a diverging row's NaN norm fails its tests
def solve_state_stack(
    topology: Network, power: np.ndarray, capacity: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[SynchronousStateError | None]]:
    """Synchronous states of a stack of parameter rows on ``topology``'s lines.

    ``power`` (B, n) and ``capacity`` (B, m) hold one network per row; the
    rows share ``topology``'s node count and line ends, and may be broadcast
    views.  Returns the stacked phases (B, n), line gaps (B, m) and
    residuals (B,), and per row None or the :class:`SynchronousStateError`
    that :func:`solve_synchronous_state` raises for that network alone, with
    the same bits and message; the arrays of a failed row are not defined.
    """
    count, n, m = len(power), topology.n, topology.m
    out_phase, out_gaps = np.zeros((count, n)), np.zeros((count, m))
    out_residual = np.zeros(count)
    errors: list = [None] * count
    rows = np.arange(count)
    tol = balance_tolerance(power)  # each row sums alone, as in a stack of one
    end_capacity = (capacity[..., None] * _END_SIGNS).reshape(count, 2 * m)
    lines, signs, positions = topology.laplacian_index[1]
    entry_capacity = capacity.take(lines, axis=1) * signs
    # the flat positions of the stack's node sums and Jacobian entries; those
    # of a larger stack of trials are built when it first occurs
    node_index = _row_positions(topology.line_ends, count, n)
    jac_index = _row_positions(positions, count, (n - 1) ** 2)
    # at phase 0 every flow is capacity * sin(+0.0) = +0.0 and every node sum
    # 0.0 + ... = +0.0, so the mismatch is the injections, bit for bit
    phase, gaps, mism = np.zeros((count, n)), np.zeros((count, m)), power
    norm = np.maximum.reduce(np.abs(mism), axis=1)

    def retire(leaving, verdicts):
        """Record the errors of the rows in the mask ``leaving``; drop them."""
        nonlocal rows, power, end_capacity, entry_capacity, phase, mism, gaps, norm, tol
        for row, verdict in zip(rows[leaving].tolist(), verdicts):
            errors[row] = verdict
        keep = (~leaving).nonzero()[0]  # take is faster than a boolean mask here
        rows = rows[keep]
        if rows.size:  # an emptied stack ends the iteration, so its arrays are not read
            norm, tol = norm[keep], tol[keep]
            power, end_capacity, entry_capacity, phase, mism, gaps = (
                a.take(keep, axis=0)
                for a in (power, end_capacity, entry_capacity, phase, mism, gaps))

    def trials(pick, scales):
        """Per row of ``pick`` the first of its trials phase + scale * step that
        lowers its mismatch (else the first), its scale's index and whether one does."""
        nonlocal node_index
        tried = phase[pick, None].repeat(scales.size, axis=1)
        tried[..., 1:] += scales[:, None] * step[pick, None]
        if node_index.size < tried.size // n * 2 * m:
            node_index = _row_positions(topology.line_ends, tried.size // n, n)
        tried_mism, tried_gaps = _mismatch(
            topology, power[pick, None], end_capacity[pick, None], tried, node_index)
        tried_norm = np.maximum.reduce(np.abs(tried_mism), axis=-1)
        lower = tried_norm < norm[pick, None]
        at = np.arange(len(lower)), lower.argmax(axis=1)
        return (tried[at], tried_mism[at], tried_gaps[at], tried_norm[at], at[1],
                np.logical_or.reduce(lower, axis=1))

    # every pass retires its converged rows, and the pass after the last
    # iteration fails the rest; a pass that empties the stack ends the loop
    joint = False
    for iteration in range(1, MAX_ITER + 2):
        done = norm <= tol
        landing = np.count_nonzero(done)
        if landing == count:  # the whole stack converged on this pass: its state is the result
            return phase, gaps, norm, _domain_errors(gaps)
        if landing:
            # no step moves node 1, so its phase is the 0 it starts at
            landed = rows[done]
            out_phase[landed], out_gaps[landed] = phase[done], gaps[done]
            out_residual[landed] = norm[done]
            retire(done, _domain_errors(gaps[done]))
            if not rows.size:
                break
        if iteration > MAX_ITER:
            retire(np.ones(rows.size, dtype=bool), [
                NoConvergence(
                    f"power flow did not converge in {MAX_ITER} iterations "
                    f"(residual {residual:.3e} > tol {row_tol:.3e})"
                )
                for residual, row_tol in zip(norm, tol)
            ])
            break
        jac = _jacobians(topology, entry_capacity, gaps, jac_index)
        try:
            step = np.linalg.solve(jac, mism[:, 1:, None])[..., 0]
        except np.linalg.LinAlgError:
            step, singular = _singular_rows(jac, mism[:, 1:])
            failed = np.array([error is not None for error in singular])
            step = step[~failed]
            retire(failed, [error for error in singular if error is not None])
            if not rows.size:
                break

        # damp: each row takes its first trial that lowers its mismatch; the
        # halvings follow a failed full step, or join it after a pass on which
        # no full step helped
        before = norm  # a stalled row reports its residual before the step
        failed = None  # the rows that no trial improved
        if joint:
            phase, mism, gaps, norm, scale, found = trials(slice(None), _SCALES)
            joint = not np.count_nonzero(found & (scale == 0))
            if np.count_nonzero(found) < found.size:
                failed = ~found
        else:
            trial = phase.copy()
            trial[:, 1:] += step
            trial_mism, trial_gaps = _mismatch(topology, power, end_capacity, trial, node_index)
            trial_norm = np.maximum.reduce(np.abs(trial_mism), axis=1)
            lowered = trial_norm < norm
            kept = np.count_nonzero(lowered)
            if kept < lowered.size:
                retry = (~lowered).nonzero()[0]
                pick = slice(None) if not kept else retry  # no gathers when every row retries
                (trial[pick], trial_mism[pick], trial_gaps[pick], trial_norm[pick],
                 _, found) = trials(pick, _HALVINGS)
                if np.count_nonzero(found) < retry.size:
                    failed = np.zeros(rows.size, dtype=bool)
                    failed[retry[~found]] = True
            joint = not kept
            phase, mism, gaps, norm = trial, trial_mism, trial_gaps, trial_norm
        if failed is not None:
            retire(failed, [
                NoConvergence(
                    f"no damped Newton step reduced the mismatch at iteration {iteration} "
                    f"(residual {residual:.3e} > tol {row_tol:.3e})"
                )
                for residual, row_tol in zip(before[failed], tol[failed])
            ])
            if not rows.size:
                break
    return out_phase, out_gaps, out_residual, errors


def solve_synchronous_state(net: Network) -> SynchronousState:
    """Find the in-domain synchronous state of ``net``: :func:`solve_state_stack`
    on a stack of one.

    Raises :class:`NoConvergence` when no halving of a Newton step lowers
    the mismatch (the message names the iteration, the residual and the
    tolerance) or when the iteration does not reach its tolerance (see
    :func:`~crep.network.balance_tolerance`) within ``MAX_ITER`` steps, and
    :class:`OutOfDomain` when the converged phases put some line gap outside
    (-pi/2, pi/2).  Either error means no admissible synchronous state was
    found for these parameters.
    """
    phase, gaps, residual, (error,) = solve_state_stack(net, net.power[None], net.capacity[None])
    if error is not None:
        raise error
    phase.flags.writeable = gaps.flags.writeable = False
    return SynchronousState(phase[0], gaps[0], float(residual[0]))
