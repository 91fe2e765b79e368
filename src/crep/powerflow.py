"""Synchronous-state (power-flow) solver restricted to the security domain.

Solves ``P_i = sum_j l_ij sin(delta_i - delta_j)`` for the phase vector with
node 1 as reference, by damped Newton iteration on the reduced system.  Inside
the security domain (every line phase gap strictly below pi/2) the reduced
Jacobian is positive definite and the solution, when it exists, is unique.

Each Newton step is damped by halving until the max-norm mismatch decreases.
The full step solves J s = -F, so it is a descent direction; when all
``_MAX_HALVINGS`` trial steps still fail to lower the mismatch, J is
numerically singular along the path, which is the saddle-node of a network
without an admissible state.  The solver then raises :class:`NoConvergence`
at once instead of spending its remaining iterations on vanishing steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfDomain
from .network import Network

#: max-norm power mismatch at which the Newton iteration stops
TOL = 1e-10
MAX_ITER = 50
#: strictness margin of the security-domain check
DOMAIN_MARGIN = 1e-12
HALF_PI = math.pi / 2.0
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class SynchronousState:
    """Equilibrium phases (reference node pinned to 0) and line phase gaps."""

    phase: np.ndarray              # (n,)
    output_phase_diffs: np.ndarray  # (m,) incidence^T @ phase
    residual: float                # max-norm power mismatch


def _mismatch(net: Network, phase: np.ndarray) -> np.ndarray:
    diffs = phase[net.line_from] - phase[net.line_to]
    flow = net.capacity * np.sin(diffs)
    out = net.power.copy()
    np.subtract.at(out, net.line_from, flow)
    np.add.at(out, net.line_to, flow)
    return out


def _cos_laplacian(net: Network, gaps: np.ndarray) -> np.ndarray:
    """Laplacian with weights l_k cos(gap_k) on line k.

    Off-diagonal entries are assigned (lines are unique); each diagonal entry
    sums its lines' weights in line order.
    """
    weights = net.capacity * np.cos(gaps)
    lap = np.zeros((net.n, net.n))
    lap[net.line_from, net.line_to] = -weights
    lap[net.line_to, net.line_from] = -weights
    ends = np.column_stack((net.line_from, net.line_to)).ravel()
    np.add.at(lap, (ends, ends), np.repeat(weights, 2))
    return lap


def solve_synchronous_state(net: Network) -> SynchronousState:
    """Find the in-domain synchronous state of ``net``.

    Raises :class:`NoConvergence` when no halving of a Newton step lowers
    the mismatch (the message names the iteration and the residual) or when
    the iteration does not reach ``TOL`` within ``MAX_ITER`` steps, and
    :class:`OutOfDomain` when the converged phases put some line gap outside
    (-pi/2, pi/2).  Either error means no admissible synchronous state was
    found for these parameters.
    """
    n = net.n
    phase = np.zeros(n)
    mism = _mismatch(net, phase)
    norm = float(np.max(np.abs(mism)))

    for iteration in range(1, MAX_ITER + 1):
        if norm <= TOL:
            break
        jac = _cos_laplacian(net, phase[net.line_from] - phase[net.line_to])[1:, 1:]
        try:
            step = np.linalg.solve(jac, mism[1:])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Jacobian during Newton iteration") from exc
        # damp: halve the step until the mismatch norm decreases
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = phase.copy()
            trial[1:] += scale * step
            trial_mism = _mismatch(net, trial)
            trial_norm = float(np.max(np.abs(trial_mism)))
            if trial_norm < norm:
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                f"no damped Newton step reduced the mismatch at iteration {iteration} "
                f"(residual {norm:.3e} > tol {TOL:.3e})"
            )
        phase, mism, norm = trial, trial_mism, trial_norm
    else:
        if norm > TOL:
            raise NoConvergence(
                f"power flow did not converge in {MAX_ITER} iterations "
                f"(residual {norm:.3e} > tol {TOL:.3e})"
            )

    diffs = phase[net.line_from] - phase[net.line_to]
    if net.m and float(np.max(np.abs(diffs))) >= HALF_PI - DOMAIN_MARGIN:
        worst = int(np.argmax(np.abs(diffs)))
        raise OutOfDomain(
            f"converged state leaves the security domain on line {worst + 1} "
            f"(|gap| = {abs(diffs[worst]):.6f} >= pi/2)"
        )
    phase = phase - phase[0]  # gauge: reference node at exactly 0
    phase.flags.writeable = False
    diffs = phase[net.line_from] - phase[net.line_to]
    diffs.flags.writeable = False
    return SynchronousState(phase=phase, output_phase_diffs=diffs, residual=norm)


def synchronous_output(state: SynchronousState, net: Network) -> np.ndarray:
    """Expected output vector: m line phase gaps followed by n zero frequencies."""
    return np.concatenate([state.output_phase_diffs, np.zeros(net.n)])
