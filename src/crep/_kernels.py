"""Euler-Maruyama trajectory kernel, vectorized over trajectories with numpy.

The kernel integrates the nonlinear stochastic swing dynamics for a block of
trajectories and reports, per trajectory, the first step at which a monitored
component left its critical interval.  Each trajectory owns a splitmix64
stream seeded from ``(master_seed, trajectory_index)`` and draws one Gaussian
increment per node per step via Box-Muller, so results are independent of how
trajectories are grouped into batches or scheduled onto workers.

All running trajectories of a batch are stepped as rows of one array, and
each row is dropped as soon as it exits, so a step costs work only for the
rows still running.  A step's ``2n`` uniforms come from one broadcast add,
since value ``k`` of a stream after ``state`` is ``mix(state + k * GOLD)``.
Exit steps and components are bit-identical for any batch split.
"""
from __future__ import annotations

import math

import numpy as np

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_ONE = np.uint64(1)
_INV53 = 2.0**-53
_TWO_PI = 6.283185307179586
_HALF_PI = 1.5707963267948966


def _mix_vec(z):
    """splitmix64 output function on a uint64 array."""
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def _stream_seeds_vec(master, lo, hi):
    idx = np.arange(lo, hi, dtype=np.uint64)
    return _mix_vec(master + (idx + _ONE) * _GOLD)


def _draw_offsets(count):
    """Stream offsets ``k * GOLD`` for ``k = 1..2*count``: one step's draws."""
    return np.arange(1, 2 * count + 1, dtype=np.uint64) * _GOLD


def _normals_vec(states, offsets):
    """Next ``len(offsets) // 2`` Gaussians of each stream, shape (rows, count).

    Stream value ``k`` after ``state`` is ``mix(state + k * GOLD)``, so all of
    a step's draws come from one broadcast add; ``states`` is then advanced in
    place past them.  Pairs are consumed in order: (x1, x2) of draw ``i`` are
    values ``2i + 1`` and ``2i + 2``.
    """
    x = _mix_vec(states[:, None] + offsets)
    states += offsets[-1]
    u1 = ((x[:, 0::2] >> _SH11) + _ONE).astype(np.float64) * _INV53
    u2 = (x[:, 1::2] >> _SH11).astype(np.float64) * _INV53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def simulate_chunk(
    lo: int,
    hi: int,
    master_seed: int,
    phase0: np.ndarray,
    n_steps: int,
    dt: float,
    power: np.ndarray,
    inv_inertia: np.ndarray,
    damping: np.ndarray,
    noise_over_m: np.ndarray,
    line_from: np.ndarray,
    line_to: np.ndarray,
    capacity: np.ndarray,
    check_phase: bool,
    check_freq: bool,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate trajectories ``lo..hi-1``; return (exit_step, exit_component).

    ``master_seed`` must lie in ``[0, 2**64)``.  ``exit_step`` is the 1-based
    step of the first violation (0 when the trajectory is censored at the
    horizon); ``exit_component`` is the 0-based concatenated output index
    (lines first, then nodes; -1 when censored).
    """
    n = phase0.shape[0]
    m = line_from.shape[0]
    batch = hi - lo
    sqrt_dt = math.sqrt(dt)
    states = _stream_seeds_vec(np.uint64(master_seed), lo, hi)
    delta = np.tile(phase0, (batch, 1))
    omega = np.zeros((batch, n))
    exit_step = np.zeros(batch, dtype=np.int64)
    exit_comp = np.full(batch, -1, dtype=np.int64)
    # ``live`` maps the rows of the state arrays to their batch positions;
    # rows that exit are dropped, so every step advances running rows only.
    live = np.arange(batch)
    offsets = _draw_offsets(n)
    drift = dt * inv_inertia
    kick = noise_over_m * sqrt_dt
    for s in range(1, n_steps + 1):
        coup = np.zeros_like(delta)
        flow = capacity * np.sin(delta[:, line_from] - delta[:, line_to])
        for k in range(m):
            coup[:, line_from[k]] += flow[:, k]
            coup[:, line_to[k]] -= flow[:, k]
        delta = delta + omega * dt
        z = _normals_vec(states, offsets)
        omega = omega + drift * (power - damping * omega - coup) + kick * z
        viol = np.zeros((live.shape[0], m + n), dtype=bool)
        if check_phase:
            viol[:, :m] = np.abs(delta[:, line_from] - delta[:, line_to]) >= _HALF_PI
        if check_freq:
            viol[:, m:] = np.abs(omega) >= eps
        hit = viol.any(axis=1)
        if hit.any():
            exited = live[hit]
            exit_step[exited] = s
            exit_comp[exited] = np.argmax(viol[hit], axis=1)
            keep = ~hit
            live = live[keep]
            if live.shape[0] == 0:
                break
            states = states[keep]
            delta = delta[keep]
            omega = omega[keep]
    return exit_step, exit_comp
