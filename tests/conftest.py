"""Shared fixtures and independent reference implementations for the tests."""
import math
from fractions import Fraction

import numpy as np
import pytest

import crep

MASK64 = (1 << 64) - 1
GOLD = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def random_connected_network(rng, n_min=2, n_max=8, extra_edge_prob=0.4,
                             noise_range=(0.05, 0.5), power_scale=0.25):
    """Random connected network that admits an in-domain synchronous state.

    Builds a random attachment tree plus optional chords, balanced random
    injections and heterogeneous machine parameters; halves the injections
    until the power flow solves in-domain.
    """
    n = int(rng.integers(n_min, n_max + 1))
    edges = []
    for i in range(2, n + 1):
        edges.append((int(rng.integers(1, i)), i))
    pairs = {frozenset(e) for e in edges}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if frozenset((a, b)) not in pairs and rng.random() < extra_edge_prob / n:
                edges.append((a, b))
                pairs.add(frozenset((a, b)))
    caps = rng.uniform(1.0, 3.0, len(edges))
    lines = [(a, b, float(c)) for (a, b), c in zip(edges, caps)]
    power = rng.normal(0.0, power_scale, n)
    power -= power.mean()
    inertia = rng.uniform(0.5, 2.0, n)
    damping = rng.uniform(0.5, 2.0, n)
    noise = rng.uniform(*noise_range, n)
    for _ in range(8):
        net = crep.network_from_arrays(power, inertia, damping, noise, lines)
        try:
            crep.solve_synchronous_state(net)
            return net
        except crep.SynchronousStateError:
            power = power * 0.5
    raise RuntimeError("could not build an admissible random network")


def stagewise_pipeline(net, eps=crep.DEFAULT_EPS):
    """The metric pipeline written out one stage function at a time.

    Returns (state, model, variance, report): the reference that every entry
    point built on ``crep.Analysis`` must reproduce exactly.
    """
    state = crep.solve_synchronous_state(net)
    model = crep.build_linearization(net, state)
    variance = crep.solve_lyapunov(crep.spectral_reduce(model, net))
    report = crep.crep_from_moments(
        state.output_phase_diffs, variance.sigma2_delta, variance.sigma2_omega, eps
    )
    return state, model, variance, report


def reference_synchronous_state(net, tol=1e-10, max_iter=50, max_halvings=30):
    """Damped Newton power flow that accepts a failed line search.

    When no halving lowers the mismatch, the last, 2**-(max_halvings-1)-scaled
    trial is taken anyway and the iteration runs on to ``max_iter``.  Where
    this loop converges, ``crep.solve_synchronous_state`` (which stops at the
    first failed line search) must return the same bits.  The mismatch adds
    the line flows at the nodes in a per-line loop, as ``reference_chunk``
    does.  Returns (phase, output_phase_diffs, residual); raises
    ``crep.SynchronousStateError`` when no admissible state is found.
    """
    def mismatch(phase):
        flow = net.capacity * np.sin(phase[net.line_from] - phase[net.line_to])
        coup = np.zeros(net.n)
        for k in range(net.m):
            coup[net.line_from[k]] += flow[k]
            coup[net.line_to[k]] -= flow[k]
        return net.power - coup

    def jacobian(phase):
        weights = net.capacity * np.cos(phase[net.line_from] - phase[net.line_to])
        lap = np.zeros((net.n, net.n))
        lap[net.line_from, net.line_to] = -weights
        lap[net.line_to, net.line_from] = -weights
        ends = np.column_stack((net.line_from, net.line_to)).ravel()
        np.add.at(lap, (ends, ends), np.repeat(weights, 2))
        return lap[1:, 1:]

    phase = np.zeros(net.n)
    mism = mismatch(phase)
    norm = float(np.max(np.abs(mism)))
    for _ in range(max_iter):
        if norm <= tol:
            break
        try:
            step = np.linalg.solve(jacobian(phase), mism[1:])
        except np.linalg.LinAlgError as exc:
            raise crep.NoConvergence("singular Jacobian") from exc
        scale = 1.0
        for _ in range(max_halvings):
            trial = phase.copy()
            trial[1:] += scale * step
            trial_mism = mismatch(trial)
            trial_norm = float(np.max(np.abs(trial_mism)))
            if trial_norm < norm:
                break
            scale *= 0.5
        phase, mism, norm = trial, trial_mism, trial_norm
    else:
        if norm > tol:
            raise crep.NoConvergence("no convergence")
    diffs = phase[net.line_from] - phase[net.line_to]
    if net.m and float(np.max(np.abs(diffs))) >= math.pi / 2 - 1e-12:
        raise crep.OutOfDomain("out of domain")
    phase = phase - phase[0]
    return phase, phase[net.line_from] - phase[net.line_to], norm


def exact_projection(x, lower, upper, budget):
    """The budget-box projection in rational arithmetic, as a list of Fractions.

    S(tau) = sum(clip(x - tau, lower, upper)) is piecewise linear with kinks
    at x - upper and x - lower; a bisection over the sorted kinks finds the
    segment where S crosses the budget, and on it tau is exact.  A budget at
    or beyond either end of the box-sum range returns that corner.
    """
    x, lower, upper = ([Fraction(float(v)) for v in a] for a in (x, lower, upper))
    budget = Fraction(float(budget))

    def clipped(tau):
        return [min(max(xi - tau, lo), up) for xi, lo, up in zip(x, lower, upper)]

    if budget <= sum(lower):
        return lower
    if budget >= sum(upper):
        return upper
    kinks = sorted([xi - up for xi, up in zip(x, upper)]
                   + [xi - lo for xi, lo in zip(x, lower)])
    lo, hi = 0, len(kinks) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(clipped(kinks[mid])) > budget:
            lo = mid
        else:
            hi = mid
    s_lo, s_hi = sum(clipped(kinks[lo])), sum(clipped(kinks[hi]))
    tau = kinks[lo] + (s_lo - budget) * (kinks[hi] - kinks[lo]) / (s_lo - s_hi)
    return clipped(tau)


def two_node_net(p=1.0, cap=2.0, inertia=(1.0, 1.0), damping=(1.0, 1.0),
                 noise=(0.0, 0.0)):
    return crep.network_from_arrays(
        [p, -p], list(inertia), list(damping), list(noise), [(1, 2, cap)]
    )


def ring5_net(b=(0.98, 0.14, 0.14, 0.14, 0.98), caps=(1.0,) * 5, damping=0.8):
    lines = [(1, 2, caps[0]), (2, 3, caps[1]), (3, 4, caps[2]),
             (4, 5, caps[3]), (5, 1, caps[4])]
    return crep.network_from_arrays(
        [0.9, -0.3, 0.2, -0.5, -0.3], [1.0] * 5, [damping] * 5, list(b), lines
    )


@pytest.fixture
def tmp_network_file(tmp_path):
    def write(doc, name="net.json"):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


# -- pure-python reference stepper (independent of the kernel code) -----------


def _mix(z):
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def reference_normals(master_seed, index, count):
    """Gaussian draws of trajectory ``index``'s stream, via python integers."""
    state = _mix((master_seed + (index + 1) * GOLD) & MASK64)
    out = []
    for _ in range(count):
        state = (state + GOLD) & MASK64
        x1 = _mix(state)
        state = (state + GOLD) & MASK64
        x2 = _mix(state)
        u1 = ((x1 >> 11) + 1) * 2.0**-53
        u2 = (x2 >> 11) * 2.0**-53
        out.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    return out


def reference_trajectory(net, state, cfg, index, record_path=False):
    """Plain-python Euler-Maruyama stepper mirroring the kernel contract.

    Returns (exit_step, exit_comp, path) where path is the list of post-step
    (delta, omega) copies when ``record_path`` is set.
    """
    n, m = net.n, net.m
    check_phase = cfg.exit_mode in ("phase_only", "both")
    check_freq = cfg.exit_mode in ("freq_only", "both")
    sqrt_dt = math.sqrt(cfg.dt)
    draws = iter(reference_normals(cfg.master_seed, index, cfg.n_steps * n))
    delta = [float(v) for v in state.phase]
    omega = [0.0] * n
    path = []
    for s in range(1, cfg.n_steps + 1):
        coup = [0.0] * n
        for k in range(m):
            a, b = int(net.line_from[k]), int(net.line_to[k])
            flow = float(net.capacity[k]) * math.sin(delta[a] - delta[b])
            coup[a] += flow
            coup[b] -= flow
        for i in range(n):
            delta[i] = delta[i] + omega[i] * cfg.dt
            z = next(draws)
            inv_m = 1.0 / float(net.inertia[i])
            noise_over_m = float(net.noise[i]) / float(net.inertia[i])
            omega[i] = (
                omega[i]
                + (cfg.dt * inv_m)
                * (float(net.power[i]) - float(net.damping[i]) * omega[i] - coup[i])
                + (noise_over_m * sqrt_dt) * z
            )
        if record_path:
            path.append((list(delta), list(omega)))
        comp = -1
        if check_phase:
            for k in range(m):
                a, b = int(net.line_from[k]), int(net.line_to[k])
                if abs(delta[a] - delta[b]) >= math.pi / 2:
                    comp = k
                    break
        if comp < 0 and check_freq:
            for i in range(n):
                if abs(omega[i]) >= cfg.eps:
                    comp = m + i
                    break
        if comp >= 0:
            return s, comp, path
    return 0, -1, path


def random_meshed_network(rng, n, n_lines, max_degree=7, noise_range=(0.3, 1.0)):
    """Random connected network whose node degrees reach ``max_degree``.

    Node 1 is joined to ``max_degree`` others, the remaining nodes hang off a
    random tree, and random chords follow up to ``n_lines`` lines, no node
    exceeding ``max_degree``.  Lines are shuffled and randomly oriented, so a
    node adds the flows of its lines with mixed signs, interleaved with other
    nodes' lines.  Injections are halved until the power flow solves.
    """
    degree = np.zeros(n, dtype=int)
    pairs = []

    def join(a, b):
        pairs.append((a, b))
        degree[a] += 1
        degree[b] += 1

    for b in range(1, max_degree + 1):
        join(0, b)
    for b in range(max_degree + 1, n):
        open_nodes = np.flatnonzero(degree[:b] < max_degree)
        join(int(rng.choice(open_nodes)), b)
    taken = {frozenset(p) for p in pairs}
    for _ in range(50 * n_lines):
        if len(pairs) >= n_lines:
            break
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b and frozenset((a, b)) not in taken and max(degree[a], degree[b]) < max_degree:
            taken.add(frozenset((a, b)))
            join(a, b)
    lines = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    lines = [lines[k] for k in rng.permutation(len(lines))]
    caps = rng.uniform(1.0, 3.0, len(lines))
    power = rng.uniform(-1.0, 1.0, n)
    power -= power.mean()
    inertia = rng.uniform(0.5, 2.0, n)
    damping = rng.uniform(0.5, 1.5, n)
    noise = rng.uniform(*noise_range, n)
    for _ in range(8):
        net = crep.network_from_arrays(
            power, inertia, damping, noise,
            [(a + 1, b + 1, float(c)) for (a, b), c in zip(lines, caps)],
        )
        try:
            crep.solve_synchronous_state(net)
            return net
        except crep.SynchronousStateError:
            power = power * 0.5
    raise RuntimeError("could not build an admissible meshed network")


# -- row-major reference kernel (the per-line loop, independent of _kernels) ---


def _mix_rows(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def reference_chunk(lo, hi, net, phase0, limit, master_seed, n_steps, dt):
    """Trajectories ``lo..hi-1`` stepped row-major, the coupling a per-line loop.

    Takes ``_kernels.simulate_chunk``'s arguments and returns its
    (exit_step, exit_comp).  Each node adds its lines' flows in line order,
    one line at a time, so exits pin the kernel's accumulation order on nodes
    of any degree.
    """
    n, m, batch = net.n, net.m, hi - lo
    line_from, line_to, capacity = net.line_from, net.line_to, net.capacity
    gold = np.uint64(GOLD)
    with np.errstate(over="ignore"):
        idx = np.arange(lo, hi, dtype=np.uint64)
        states = _mix_rows(np.uint64(master_seed) + (idx + np.uint64(1)) * gold)
        offsets = np.arange(1, 2 * n + 1, dtype=np.uint64) * gold
    delta = np.tile(phase0, (batch, 1))
    omega = np.zeros((batch, n))
    exit_step = np.zeros(batch, dtype=np.int64)
    exit_comp = np.full(batch, -1, dtype=np.int64)
    live = np.arange(batch)
    drift = dt * (1.0 / net.inertia)
    kick = net.noise / net.inertia * math.sqrt(dt)
    for s in range(1, n_steps + 1):
        coup = np.zeros_like(delta)
        flow = capacity * np.sin(delta[:, line_from] - delta[:, line_to])
        for k in range(m):
            coup[:, line_from[k]] += flow[:, k]
            coup[:, line_to[k]] -= flow[:, k]
        delta = delta + omega * dt
        x = _mix_rows(states[:, None] + offsets)
        states += offsets[-1]
        u1 = ((x[:, 0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (x[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        omega = omega + drift * (net.power - net.damping * omega - coup) + kick * z
        output = np.hstack((delta[:, line_from] - delta[:, line_to], omega))
        viol = np.abs(output) >= limit
        hit = viol.any(axis=1)
        if hit.any():
            exited = live[hit]
            exit_step[exited] = s
            exit_comp[exited] = np.argmax(viol[hit], axis=1)
            keep = ~hit
            live = live[keep]
            if live.shape[0] == 0:
                break
            states, delta, omega = states[keep], delta[keep], omega[keep]
    return exit_step, exit_comp
