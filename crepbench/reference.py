"""Reference computations for the benchmark's checks, written from the model.

Nothing here imports crep.  Each function recomputes one of crep's outputs by
another route, from the network's parameter arrays:

* ``exit_step`` -- a plain-Python Euler-Maruyama stepper on the splitmix64 /
  Box-Muller stream, to be compared step for step with the trajectory kernel;
* ``power_flow`` and ``mismatch`` -- Newton's method on the reduced power-flow
  equations, and the residual of any phase vector;
* ``cos_laplacian`` and ``effective_resistances`` -- the cosine-weighted
  Laplacian at a state and each line's effective resistance from its
  pseudo-inverse;
* ``stationary_variances`` -- the Lyapunov solve in grounded phase-difference
  coordinates (node 1 as reference), not in crep's eigenbasis;
* ``escape_line`` -- line escape probabilities from ``scipy.special.erfc``.

A network is passed as a ``Grid``: plain arrays, 0-based line ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

HALF_PI = math.pi / 2.0

_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class Grid:
    """Parameter arrays of one network; ``line_from``/``line_to`` are 0-based."""

    power: np.ndarray
    inertia: np.ndarray
    damping: np.ndarray
    noise: np.ndarray
    line_from: np.ndarray
    line_to: np.ndarray
    capacity: np.ndarray

    @property
    def n(self) -> int:
        return self.power.shape[0]

    @property
    def m(self) -> int:
        return self.capacity.shape[0]


# -- trajectories --------------------------------------------------------------


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _normals(master_seed: int, index: int):
    """Endless Gaussian draws of trajectory ``index``'s splitmix64 stream."""
    state = _mix((master_seed + (index + 1) * _GOLD) & _MASK64)
    while True:
        state = (state + _GOLD) & _MASK64
        x1 = _mix(state)
        state = (state + _GOLD) & _MASK64
        x2 = _mix(state)
        u1 = ((x1 >> 11) + 1) * 2.0**-53
        u2 = (x2 >> 11) * 2.0**-53
        yield math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def exit_step(
    grid: Grid,
    phase0,
    dt: float,
    n_steps: int,
    eps: float,
    exit_mode: str,
    master_seed: int,
    index: int,
) -> tuple[int, int]:
    """(1-based exit step, 0-based component) of one trajectory; (0, -1) if censored.

    Components are lines first, then nodes.  The arithmetic follows the
    kernel's contract term by term, so the result must match exactly.
    """
    n, m = grid.n, grid.m
    check_phase = exit_mode in ("phase_only", "both")
    check_freq = exit_mode in ("freq_only", "both")
    ends = [(int(a), int(b)) for a, b in zip(grid.line_from, grid.line_to)]
    cap = [float(c) for c in grid.capacity]
    power = [float(p) for p in grid.power]
    damping = [float(d) for d in grid.damping]
    drift = [dt * (1.0 / float(mi)) for mi in grid.inertia]
    kick = [(float(b) / float(mi)) * math.sqrt(dt) for b, mi in zip(grid.noise, grid.inertia)]
    draws = _normals(master_seed, index)
    delta = [float(v) for v in phase0]
    omega = [0.0] * n
    for s in range(1, n_steps + 1):
        coup = [0.0] * n
        for k, (a, b) in enumerate(ends):
            flow = cap[k] * math.sin(delta[a] - delta[b])
            coup[a] += flow
            coup[b] -= flow
        for i in range(n):
            delta[i] = delta[i] + omega[i] * dt
            omega[i] = (
                omega[i]
                + drift[i] * (power[i] - damping[i] * omega[i] - coup[i])
                + kick[i] * next(draws)
            )
        if check_phase:
            for k, (a, b) in enumerate(ends):
                if abs(delta[a] - delta[b]) >= HALF_PI:
                    return s, k
        if check_freq:
            for i in range(n):
                if abs(omega[i]) >= eps:
                    return s, m + i
    return 0, -1


# -- synchronous state ---------------------------------------------------------


def cos_laplacian(grid: Grid, phase: np.ndarray) -> np.ndarray:
    """Laplacian with line weights ``capacity * cos(gap)`` at ``phase``."""
    weights = grid.capacity * np.cos(phase[grid.line_from] - phase[grid.line_to])
    inc = np.zeros((grid.n, grid.m))
    inc[grid.line_from, np.arange(grid.m)] = 1.0
    inc[grid.line_to, np.arange(grid.m)] = -1.0
    return (inc * weights) @ inc.T


def mismatch(grid: Grid, phase: np.ndarray) -> np.ndarray:
    """Power mismatch ``P_i - sum_j l_ij sin(phase_i - phase_j)`` per node."""
    flow = grid.capacity * np.sin(phase[grid.line_from] - phase[grid.line_to])
    return (
        grid.power
        - np.bincount(grid.line_from, flow, minlength=grid.n)
        + np.bincount(grid.line_to, flow, minlength=grid.n)
    )


def power_flow(grid: Grid, tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """In-domain synchronous phases (node 1 at 0) by damped Newton from zero.

    Raises ``ValueError`` when no in-domain state is found: the iteration
    runs out of steps, or no step length lowers the mismatch.
    """
    phase = np.zeros(grid.n)
    res = mismatch(grid, phase)
    for _ in range(max_iter):
        norm = np.max(np.abs(res))
        if norm <= tol:
            break
        step = np.linalg.solve(cos_laplacian(grid, phase)[1:, 1:], res[1:])
        for halvings in range(30):
            trial = phase.copy()
            trial[1:] += 0.5**halvings * step
            trial_res = mismatch(grid, trial)
            if np.max(np.abs(trial_res)) < norm:
                break
        else:
            raise ValueError("power flow stalled")
        phase, res = trial, trial_res
    else:
        raise ValueError("power flow did not converge")
    gaps = phase[grid.line_from] - phase[grid.line_to]
    if np.max(np.abs(gaps)) >= HALF_PI:
        raise ValueError("power flow left the security domain")
    return phase


def effective_resistances(grid: Grid, phase: np.ndarray) -> np.ndarray:
    """Each line's effective resistance in the cosine-weighted network."""
    pinv = np.linalg.pinv(cos_laplacian(grid, phase), hermitian=True)
    a, b = grid.line_from, grid.line_to
    return pinv[a, a] + pinv[b, b] - 2.0 * pinv[a, b]


# -- stationary variances ------------------------------------------------------


def stationary_variances(grid: Grid, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(line phase-gap variances, node frequency variances) of the linearization.

    The state is ``(delta_2 - delta_1, ..., delta_n - delta_1, omega_1..omega_n)``;
    in these 2n-1 coordinates the drift matrix is Hurwitz for a connected
    network inside the security domain, so the Lyapunov equation has a unique
    solution without deflating any mode.
    """
    n = grid.n
    lap = cos_laplacian(grid, phase)
    inv_m = 1.0 / grid.inertia
    size = 2 * n - 1
    a = np.zeros((size, size))
    # d(delta_{i+1} - delta_1) = omega_{i+1} - omega_1; omega_j sits at n - 1 + j
    a[np.arange(n - 1), n + np.arange(n - 1)] = 1.0
    a[: n - 1, n - 1] = -1.0
    a[n - 1:, : n - 1] = -inv_m[:, None] * lap[:, 1:]
    a[n - 1:, n - 1:] = -np.diag(inv_m * grid.damping)
    b = np.zeros((size, n))
    b[n - 1:, :] = np.diag(inv_m * grid.noise)
    q = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.T)
    q = 0.5 * (q + q.T)

    grounded = np.zeros((grid.m, n - 1))
    for k in range(grid.m):
        for end, sign in ((grid.line_from[k], 1.0), (grid.line_to[k], -1.0)):
            if end > 0:
                grounded[k, end - 1] += sign
    sigma2_delta = np.einsum("ki,ij,kj->k", grounded, q[: n - 1, : n - 1], grounded)
    sigma2_omega = np.diag(q)[n - 1:].copy()
    return sigma2_delta, sigma2_omega


# -- escape probabilities ------------------------------------------------------


def escape_line(mean, sigma2) -> np.ndarray:
    """P(|X| >= pi/2) for X ~ N(mean, sigma2), elementwise; 0 where sigma2 == 0."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.asarray(sigma2, dtype=float))
    with np.errstate(divide="ignore"):
        upper = (HALF_PI - mean) / (sigma * math.sqrt(2.0))
        lower = (HALF_PI + mean) / (sigma * math.sqrt(2.0))
    return 0.5 * (scipy.special.erfc(upper) + scipy.special.erfc(lower))

