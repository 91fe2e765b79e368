"""Synchronous-state (power-flow) solver restricted to the security domain.

Solves ``P_i = sum_j l_ij sin(delta_i - delta_j)`` for the phase vector by
damped Newton iteration on the reduced system, which leaves out node 1:
every step moves the other phases only, so node 1 keeps the phase 0 it
starts at.  Inside the security domain (every line phase gap strictly below
pi/2) the reduced Jacobian is positive definite and the solution, when it
exists, is unique.

Each Newton step is damped by halving until the max-norm mismatch decreases.
The full step solves J s = -F, so it is a descent direction; when all
``_MAX_HALVINGS`` trial steps still fail to lower the mismatch, J is
numerically singular along the path, which is the saddle-node of a network
without an admissible state.  The solver then raises :class:`NoConvergence`
at once instead of spending its remaining iterations on vanishing steps.

One solver runs a stack of networks that share their node count and line
ends, as in an optimizer generation: the Newton systems of all running rows
are one batched solve, and the halvings of every row whose full step failed
are one tensor of trial phases.  Arrays are node- (or line-) major with the
stack on the trailing axis, and every row keeps its own iteration, stopping
rule and verdict, with the arithmetic of a network solved alone: a row's
state and error are the same bits at any stack size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergence, OutOfDomain, SynchronousStateError
from .network import Network

#: max-norm power mismatch at which the Newton iteration stops, unless the
#: injections are so large that roundoff alone leaves more: a row's tolerance is
#: max(TOL, TOL_SCALE * machine epsilon * sum |P_i|), which stays TOL while
#: sum |P_i| is below about 7000
TOL = 1e-10
TOL_SCALE = 64
MAX_ITER = 50
#: strictness margin of the security-domain check
DOMAIN_MARGIN = 1e-12
HALF_PI = math.pi / 2.0
_EPS = float(np.finfo(float).eps)
_MAX_HALVINGS = 30
#: step scales of the halvings after a failed full step: 2**-1 .. 2**-29
_HALVINGS = 0.5 ** np.arange(1, _MAX_HALVINGS)


@dataclass(frozen=True)
class SynchronousState:
    """Equilibrium phases (node 1's is 0: no Newton step moves it) and line phase gaps."""

    phase: np.ndarray              # (n,)
    output_phase_diffs: np.ndarray  # (m,) incidence^T @ phase
    residual: float                # max-norm power mismatch


def _mismatch(net: Network, power: np.ndarray, capacity: np.ndarray,
              phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Injections less line flows at ``phase``, and the line gaps there.

    ``net`` gives the line ends; arrays are node- (line-) major with
    trailing stack axes.  The flows reach the nodes through one product with
    ``net.incidence``, as in the trajectory kernel: each node adds its lines'
    signed flows in line order, starting from 0, and the sum is subtracted
    from its injection, so a row rounds as it would alone.
    """
    gaps = phase.take(net.line_from, axis=0) - phase.take(net.line_to, axis=0)
    flow = capacity * np.sin(gaps)
    # the stack axes fold into columns; reshape(m, -1) fails for m = 0
    columns = flow.reshape(net.m, math.prod(flow.shape[1:]))
    return power - (net.incidence @ columns).reshape(phase.shape), gaps


def _laplacian(weights: np.ndarray, net: Network) -> np.ndarray:
    """Laplacian of ``net``'s lines with weight ``weights[k]`` on line k.

    Trailing axes of ``weights`` are a stack.  Off-diagonal entries are
    assigned (lines are unique); each diagonal entry sums its lines' weights
    in line order.
    """
    lap = np.zeros((net.n, net.n) + weights.shape[1:])
    negated = -weights
    lap[net.line_from, net.line_to] = negated
    lap[net.line_to, net.line_from] = negated
    np.add.at(lap, (net.line_ends, net.line_ends), weights.repeat(2, axis=0))
    return lap


def _singular_rows(jac: np.ndarray, rhs: np.ndarray):
    """Newton steps of the rows of a stack in which some Jacobian is singular.

    Returns the steps (zero where singular) and per row None or the
    :class:`NoConvergence` of its singular Jacobian.
    """
    steps = np.zeros_like(rhs)
    errors: list = [None] * rhs.shape[1]
    for j in range(rhs.shape[1]):
        try:
            steps[:, j] = np.linalg.solve(jac[..., j], rhs[:, j])
        except np.linalg.LinAlgError as exc:
            errors[j] = NoConvergence("singular Jacobian during Newton iteration")
            errors[j].__cause__ = exc
    return steps, errors


def _domain_errors(gaps: np.ndarray) -> list:
    """Per converged column of line ``gaps``, None or its :class:`OutOfDomain` error.

    A column with a line gap outside the security domain gets the error.
    """
    diffs = np.abs(gaps)
    outside = np.max(diffs, axis=0, initial=0.0) >= HALF_PI - DOMAIN_MARGIN
    errors: list = [None] * gaps.shape[1]
    for j in np.flatnonzero(outside):
        worst = int(np.argmax(diffs[:, j]))
        errors[j] = OutOfDomain(
            f"converged state leaves the security domain on line {worst + 1} "
            f"(|gap| = {diffs[worst, j]:.6f} >= pi/2)"
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
    count = len(power)
    out_phase, out_gaps = np.zeros((count, topology.n)), np.zeros((count, topology.m))
    out_residual = np.zeros(count)
    errors: list = [None] * count
    rows = np.arange(count)
    # TOL_SCALE * eps is a power of 2, so scaling each term first is exact and
    # cannot overflow; each row sums alone, as in a stack of one
    tol = np.maximum(TOL, np.abs(power * (TOL_SCALE * _EPS)).sum(axis=1))
    power, capacity = power.T, capacity.T
    phase = np.zeros(power.shape)
    mism, gaps = _mismatch(topology, power, capacity, phase)
    norm = np.abs(mism).max(axis=0)

    def retire(leaving, verdicts):
        """Record the errors of the rows in the mask ``leaving``; drop them."""
        nonlocal rows, power, capacity, phase, mism, gaps, norm, tol
        for row, verdict in zip(rows[leaving].tolist(), verdicts):
            errors[row] = verdict
        keep = (~leaving).nonzero()[0]  # take is faster than a boolean mask here
        rows, norm, tol = rows[keep], norm[keep], tol[keep]
        power, capacity, phase, mism, gaps = (
            a.take(keep, axis=1) for a in (power, capacity, phase, mism, gaps)
        )

    # every pass retires its converged rows; the pass after the last
    # iteration also fails the rest
    for iteration in range(1, MAX_ITER + 2):
        done = norm <= tol
        if done.any():
            # no step moves node 1, so its phase is the 0 it starts at
            landed = rows[done]
            out_phase[landed], out_gaps[landed] = phase[:, done].T, gaps[:, done].T
            out_residual[landed] = norm[done]
            retire(done, _domain_errors(gaps[:, done]))
        if iteration > MAX_ITER:
            retire(np.ones(rows.size, dtype=bool), [
                NoConvergence(
                    f"power flow did not converge in {MAX_ITER} iterations "
                    f"(residual {residual:.3e} > tol {row_tol:.3e})"
                )
                for residual, row_tol in zip(norm, tol)
            ])
        if not rows.size:
            break
        jac = _laplacian(capacity * np.cos(gaps), topology)[1:, 1:]
        try:
            step = np.linalg.solve(jac.transpose(2, 0, 1), mism[1:].T[..., None])[..., 0].T
        except np.linalg.LinAlgError:
            # should every row fail, the rest of the pass runs on no columns
            step, singular = _singular_rows(jac, mism[1:])
            failed = np.array([error is not None for error in singular])
            step = step[:, ~failed]
            retire(failed, [error for error in singular if error is not None])

        # damp: the full step, then for rows it did not improve every halving
        # at once; each row takes its first trial that lowers its mismatch
        trial = phase.copy()
        trial[1:] += step
        trial_mism, trial_gaps = _mismatch(topology, power, capacity, trial)
        trial_norm = np.abs(trial_mism).max(axis=0)
        retry = (~(trial_norm < norm)).nonzero()[0]
        stalled = np.zeros(rows.size, dtype=bool)
        if retry.size:
            tried = np.repeat(phase[:, None, retry], _HALVINGS.size, axis=1)
            tried[1:] += _HALVINGS[:, None] * step[:, None, retry]
            tried_mism, tried_gaps = _mismatch(
                topology, power[:, None, retry], capacity[:, None, retry], tried
            )
            tried_norm = np.abs(tried_mism).max(axis=0)
            lower = tried_norm < norm[retry]
            found = lower.any(axis=0)
            cols = np.flatnonzero(found)
            halving = np.argmax(lower[:, cols], axis=0)
            take = retry[cols]
            trial[:, take] = tried[:, halving, cols]
            trial_mism[:, take] = tried_mism[:, halving, cols]
            trial_gaps[:, take] = tried_gaps[:, halving, cols]
            trial_norm[take] = tried_norm[halving, cols]
            stalled[retry[~found]] = True
        before = norm  # a stalled row reports its residual before the step
        phase, mism, gaps, norm = trial, trial_mism, trial_gaps, trial_norm
        if stalled.any():
            retire(stalled, [
                NoConvergence(
                    f"no damped Newton step reduced the mismatch at iteration {iteration} "
                    f"(residual {residual:.3e} > tol {row_tol:.3e})"
                )
                for residual, row_tol in zip(before[stalled], tol[stalled])
            ])
    return out_phase, out_gaps, out_residual, errors


def solve_synchronous_states(
    nets: Sequence[Network],
) -> list[SynchronousState | SynchronousStateError]:
    """Synchronous states of a stack of networks with one node count and line set.

    :func:`solve_state_stack` on the networks' arrays: per network in order,
    its state or its error.  The networks may differ in every parameter but
    their line ends.
    """
    phase, gaps, residual, errors = solve_state_stack(
        nets[0], np.array([net.power for net in nets]), np.array([net.capacity for net in nets])
    )
    phase.flags.writeable = gaps.flags.writeable = False
    return [
        error if error is not None else SynchronousState(phase[j], gaps[j], float(residual[j]))
        for j, error in enumerate(errors)
    ]


def solve_synchronous_state(net: Network) -> SynchronousState:
    """Find the in-domain synchronous state of ``net``: a stack of one.

    Raises :class:`NoConvergence` when no halving of a Newton step lowers
    the mismatch (the message names the iteration, the residual and the
    tolerance) or when the iteration does not reach its tolerance (see
    :data:`TOL`) within ``MAX_ITER`` steps, and
    :class:`OutOfDomain` when the converged phases put some line gap outside
    (-pi/2, pi/2).  Either error means no admissible synchronous state was
    found for these parameters.
    """
    (result,) = solve_synchronous_states([net])
    if isinstance(result, SynchronousStateError):
        raise result
    return result
