"""Euler-Maruyama trajectory kernel, vectorized over trajectories with numpy.

The kernel integrates the nonlinear stochastic swing dynamics for a block of
trajectories and reports, per trajectory, the first step at which a monitored
component left its critical interval.  Each trajectory owns a splitmix64
stream seeded from ``(master_seed, trajectory_index)`` and draws one Gaussian
increment per node per step via Box-Muller, so results are independent of how
trajectories are grouped into batches or scheduled onto workers.

The state is node-major: one array holds, row after row, the phases of the n
nodes, the gaps of the m lines and the frequencies of the n nodes, with one
column per running trajectory.  A line's gap is then a difference of two
contiguous rows, per-node coefficients broadcast as columns, and the
components a step checks for exits are one contiguous block of rows.  Each
step computes the line gaps once: the gaps checked for exits at step s are
the ones the coupling of step s+1 needs.  The coupling is one sparse product
with the signed node-line incidence matrix ``Network.incidence``, whose
sorted CSR indices make every node add its lines' flows in line order from 0,
with the rounding of a per-line loop.  A column is dropped as soon as its trajectory exits, so a step
costs work only for the trajectories still running.

Since value ``k`` of a stream after ``state`` is ``mix(state + k * GOLD)``,
the uniforms of several steps come from one broadcast add.  A batch of ``r``
trajectories draws its Gaussians ``block = max(1, _BLOCK_CELLS // (n * r))``
steps at a time: one add, one Box-Muller pass and one scaling by the noise
per block.  On small batches a step's own draw cost nearly as much as the
rest of the step: on ring5 with 8 running trajectories (409 steps per block)
a step takes about 18 us, against 31 us drawing step by step, on 2 cores.
Rows that exit take the unread rest of their block with them, so each exited
trajectory wastes up to ``block - 1`` steps of draws, and so does the last
block of a batch, which may reach past the horizon.  Large grids get
``block == 1`` and draw step by step.
Exit steps and components are bit-identical for any batch split.
"""
from __future__ import annotations

import math

import numpy as np

from .network import Network

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
#: Gaussians x trajectories a batch draws at once: a block holds this many
#: float64 draws and twice as many uint64 stream values
_BLOCK_CELLS = 1 << 14


def _mix_inplace(z):
    """splitmix64 output function, overwriting the uint64 array ``z``."""
    z ^= z >> _SH30
    z *= _MIX1
    z ^= z >> _SH27
    z *= _MIX2
    z ^= z >> _SH31


def _stream_seeds_vec(master, lo, hi):
    z = master + (np.arange(lo, hi, dtype=np.uint64) + _ONE) * _GOLD
    _mix_inplace(z)
    return z


def _draw_offsets(count):
    """Stream offsets of the next ``count`` draws, as a (2 * count, 1) column.

    The offset of stream value ``k`` is ``k * GOLD``.  Draw ``i`` uses values
    ``2i + 1`` and ``2i + 2``; the column holds all the first values, then all
    the second ones, so each half of a block's draws is contiguous.
    """
    k = np.arange(1, 2 * count + 1, dtype=np.uint64).reshape(count, 2).T
    return (k * _GOLD).reshape(2 * count, 1)


def _normals_vec(states, offsets):
    """Next ``len(offsets) // 2`` Gaussians of each stream, shape (count, rows).

    All of a block's draws come from one broadcast add of ``offsets`` (from
    ``_draw_offsets``) to ``states``; ``states`` is then advanced in place past
    them.  Draw ``i`` of a stream is Box-Muller on its values ``2i + 1`` and
    ``2i + 2``.
    """
    count = offsets.shape[0] // 2
    x = offsets + states
    _mix_inplace(x)
    states += offsets[-1, 0]
    x >>= _SH11
    # z >> 11 < 2**53, so adding 1.0 after the conversion is exact
    f = x.astype(np.float64)
    u1, u2 = f[:count], f[count:]
    u1 += 1.0
    u1 *= _INV53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    # _INV53 is a power of 2, so this is (u2 * _INV53) * _TWO_PI bit for bit
    u2 *= _TWO_PI * _INV53
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def simulate_chunk(
    lo: int,
    hi: int,
    net: Network,
    phase0: np.ndarray,
    limit: np.ndarray,
    master_seed: int,
    n_steps: int,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate trajectories ``lo..hi-1`` of ``net``; return (exit_step, exit_component).

    Trajectories start at the phases ``phase0`` at rest.  ``limit`` holds one
    exit limit per output component, the m line gaps then the n node
    frequencies: a component exits once its magnitude reaches its limit, and
    an infinite limit leaves it unmonitored.  ``master_seed`` must lie in
    ``[0, 2**64)``.  ``exit_step`` is the 1-based step of the first violation
    (0 when the trajectory is censored at the horizon); ``exit_component`` is
    the 0-based output index (-1 when censored).
    """
    n, m = net.n, net.m
    line_from, line_to = net.line_from, net.line_to
    batch = hi - lo
    states = _stream_seeds_vec(np.uint64(master_seed), lo, hi)
    # rows: phases (n), line gaps (m), frequencies (n); one column per trajectory
    x = np.zeros((2 * n + m, batch))
    delta, gaps, omega = x[:n], x[n:n + m], x[n + m:]
    delta[:] = phase0[:, None]
    np.subtract(delta[line_from], delta[line_to], out=gaps)
    # the checked rows: from the first finite limit to the last
    finite = np.flatnonzero(np.isfinite(limit))
    first, last = (int(finite[0]), int(finite[-1]) + 1) if finite.size else (0, 0)
    watched = slice(n + first, n + last)
    limit = limit[first:last, None]
    exit_step = np.zeros(batch, dtype=np.int64)
    exit_comp = np.full(batch, -1, dtype=np.int64)
    # ``live`` maps the columns of ``x`` to their batch positions; columns
    # that exit are dropped, so every step advances running trajectories only.
    live = np.arange(batch)
    incidence = net.incidence
    # the scaled increments of the next steps, z[j] for the next one
    block = max(1, _BLOCK_CELLS // (n * batch))
    offsets = _draw_offsets(n * block)
    z, j = np.empty((0, n, batch)), 0
    cap = net.capacity[:, None]
    drift = (dt * (1.0 / net.inertia))[:, None]
    kick = (net.noise / net.inertia * math.sqrt(dt))[:, None]
    power = net.power[:, None]
    damping = net.damping[:, None]
    for s in range(1, n_steps + 1):
        flow = np.sin(gaps)
        flow *= cap
        coup = incidence @ flow
        delta += omega * dt
        if j == z.shape[0]:
            z = None  # free the consumed block before drawing the next
            z = _normals_vec(states, offsets).reshape(-1, n, live.shape[0])
            z *= kick
            j = 0
        acc = damping * omega
        np.subtract(power, acc, out=acc)
        acc -= coup
        acc *= drift
        omega += acc
        omega += z[j]
        j += 1
        np.subtract(delta[line_from], delta[line_to], out=gaps)
        viol = np.abs(x[watched]) >= limit
        if viol.any():
            hit = viol.any(axis=0)
            exited = live[hit]
            exit_step[exited] = s
            exit_comp[exited] = first + np.argmax(viol[:, hit], axis=0)
            keep = ~hit
            live = live[keep]
            if live.shape[0] == 0:
                break
            states = states[keep]
            if j < z.shape[0]:
                z = np.compress(keep, z[j:], axis=2)
                j = 0
            x = np.compress(keep, x, axis=1)
            delta, gaps, omega = x[:n], x[n:n + m], x[n + m:]
    return exit_step, exit_comp
