"""Shared fixtures and independent reference implementations for the tests."""
import math

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
