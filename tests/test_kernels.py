import numpy as np
import pytest

import crep
from crep import _kernels
from crep.hitting import exit_limits

from conftest import (
    GOLD,
    MASK64,
    _mix,
    random_meshed_network,
    reference_chunk,
    reference_normals,
    reference_trajectory,
    ring5_net,
    two_node_net,
)

# first outputs of the splitmix64 stream started at state 1234567
SPLITMIX_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
)


def test_splitmix_reference_vector():
    state = 1234567
    outs = []
    for _ in range(4):
        state = (state + GOLD) & MASK64
        outs.append(_mix(state))
    assert tuple(outs) == SPLITMIX_1234567


def test_vectorized_stream_matches_python_integers():
    with np.errstate(over="ignore"):
        seeds = _kernels._stream_seeds_vec(np.uint64(99), 0, 8)
    expected = [_mix((99 + (k + 1) * GOLD) & MASK64) for k in range(8)]
    assert [int(s) for s in seeds] == expected


def test_vectorized_normals_match_python_reference():
    # two steps of three draws each: the batched draw must consume the stream
    # in order and leave the state past the draws it used
    with np.errstate(over="ignore"):
        states = _kernels._stream_seeds_vec(np.uint64(5), 3, 4)
        offsets = _kernels._draw_offsets(3)
        drawn = [float(v) for _ in range(2)
                 for v in _kernels._normals_vec(states, offsets)[:, 0]]
    expected = reference_normals(5, 3, 6)
    assert drawn == pytest.approx(expected, rel=1e-12)


def _chunk_args(net, cfg):
    """``simulate_chunk``'s arguments after ``lo, hi`` for a run of ``cfg`` on ``net``."""
    return dict(net=net, phase0=crep.solve_synchronous_state(net).phase,
                limit=exit_limits(net, cfg), master_seed=cfg.master_seed,
                n_steps=cfg.n_steps, dt=cfg.dt)


def _chunk(net, cfg, lo, hi):
    return _kernels.simulate_chunk(lo, hi, **_chunk_args(net, cfg))


def _chunk_and_reference(net, cfg, lo, hi):
    """(exit_step, exit_comp) lists of the kernel and of ``reference_chunk``."""
    args = _chunk_args(net, cfg)
    return ([a.tolist() for a in _kernels.simulate_chunk(lo, hi, **args)],
            [a.tolist() for a in reference_chunk(lo, hi, **args)])


def test_chunk_boundaries_do_not_matter():
    net = two_node_net(p=0.5, noise=(0.6, 0.4))
    cfg = crep.SimConfig(dt=1e-3, t_max=10.0, n_samples=16, eps=0.4,
                         master_seed=9, exit_mode="both")
    whole = _chunk(net, cfg, 0, 16)
    first = _chunk(net, cfg, 0, 7)
    second = _chunk(net, cfg, 7, 16)
    assert np.array_equal(whole[0], np.concatenate([first[0], second[0]]))
    assert np.array_equal(whole[1], np.concatenate([first[1], second[1]]))


def test_kernel_matches_pure_python_reference():
    net = ring5_net(b=(0.5, 0.3, 0.2, 0.3, 0.5))
    cfg = crep.SimConfig(dt=1e-2, t_max=5.0, n_samples=12, eps=0.35,
                         master_seed=77, exit_mode="both")
    state = crep.solve_synchronous_state(net)
    steps, comps = _chunk(net, cfg, 0, 12)
    for idx in range(12):
        ref_step, ref_comp, _ = reference_trajectory(net, state, cfg, idx)
        assert steps[idx] == ref_step
        assert comps[idx] == ref_comp


@pytest.mark.parametrize("case", ["ou_freq_only", "ring5_both"])
def test_compacting_kernel_matches_reference_with_staggered_exits(case):
    # rows leave the batch at different steps and some run to the horizon, so
    # the kernel drops rows mid-batch and must still report each one in place
    if case == "ou_freq_only":  # the single-node shape of criterion 07
        net = crep.network_from_arrays([0.0], [1.0], [0.25], [1.0], [])
        cfg = crep.SimConfig(dt=1e-2, t_max=1.5, n_samples=24, eps=1.0,
                             master_seed=7, exit_mode="freq_only")
    else:
        net = ring5_net(b=(0.5, 0.3, 0.2, 0.3, 0.5))
        cfg = crep.SimConfig(dt=1e-2, t_max=1.0, n_samples=24, eps=0.45,
                             master_seed=11, exit_mode="both")
    state = crep.solve_synchronous_state(net)
    lo, hi = 40, 64
    steps, comps = _chunk(net, cfg, lo, hi)
    ref = [reference_trajectory(net, state, cfg, idx)[:2] for idx in range(lo, hi)]
    assert steps.tolist() == [r[0] for r in ref]
    assert comps.tolist() == [r[1] for r in ref]
    exited = [r[0] for r in ref if r[0] > 0]
    assert len(set(exited)) > 1
    assert 0 < len(exited) < hi - lo


def test_coupling_product_adds_each_nodes_lines_in_line_order():
    # three or more flows summed in another order round differently, so only
    # the per-line loop's order gives these bits on nodes of degree up to 7
    rng = np.random.default_rng(21)
    net = random_meshed_network(rng, n=14, n_lines=24)
    assert np.bincount(np.concatenate((net.line_from, net.line_to))).max() == 7
    flow = rng.normal(size=(net.m, 9)) * 10.0 ** rng.integers(-3, 4, size=(net.m, 1))
    loop = np.zeros((net.n, 9))
    for k in range(net.m):
        loop[net.line_from[k]] += flow[k]
        loop[net.line_to[k]] -= flow[k]
    coup = net.incidence @ flow
    assert np.array_equal(coup, loop)


def _meshed_case(seed, exit_mode):
    rng = np.random.default_rng(seed)
    net = random_meshed_network(rng, n=int(rng.integers(9, 15)),
                                n_lines=int(rng.integers(14, 24)), noise_range=(0.6, 1.4))
    eps = 0.5 if exit_mode == "phase_only" else 2.4
    cfg = crep.SimConfig(dt=1e-2, t_max=4.0, n_samples=40, eps=eps,
                         master_seed=seed, exit_mode=exit_mode)
    return net, cfg


@pytest.mark.parametrize("exit_mode", ["phase_only", "freq_only", "both"])
@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_kernel_matches_row_major_loop_on_meshed_networks(seed, exit_mode):
    # nodes of degree up to 7 with mixed line orientations, rows leaving at
    # staggered steps and some censored at the horizon
    net, cfg = _meshed_case(seed, exit_mode)
    (steps, comps), reference = _chunk_and_reference(net, cfg, 5, 45)
    assert [steps, comps] == reference
    exited = [s for s in steps if s > 0]
    assert len(set(exited)) > 1
    assert 0 < len(exited) < 40


@pytest.mark.parametrize("exit_mode", ["phase_only", "freq_only", "both"])
def test_meshed_kernel_matches_pure_python_reference(exit_mode):
    net, cfg = _meshed_case(2, exit_mode)
    state = crep.solve_synchronous_state(net)
    steps, comps = _chunk(net, cfg, 5, 13)
    for idx in range(5, 13):
        ref_step, ref_comp, _ = reference_trajectory(net, state, cfg, idx)
        assert (steps[idx - 5], comps[idx - 5]) == (ref_step, ref_comp)


def test_kernel_matches_row_major_loop_on_a_200_node_grid():
    net = random_meshed_network(np.random.default_rng(8), n=200, n_lines=300,
                                noise_range=(0.4, 1.2))
    cfg = crep.SimConfig(dt=1e-2, t_max=2.0, n_samples=48, eps=2.6,
                         master_seed=3, exit_mode="both")
    (steps, comps), reference = _chunk_and_reference(net, cfg, 0, 48)
    assert [steps, comps] == reference
    # some rows censored, and exits on lines as well as on nodes
    assert -1 in comps and 0 < np.count_nonzero(steps) < 48
    assert min(c for c in comps if c >= 0) < net.m <= max(comps)


def test_exit_limits_of_each_mode():
    net = ring5_net()
    expected = {
        "phase_only": [np.pi / 2] * 5 + [np.inf] * 5,
        "freq_only": [np.inf] * 5 + [0.3] * 5,
        "both": [np.pi / 2] * 5 + [0.3] * 5,
    }
    for mode, limit in expected.items():
        cfg = crep.SimConfig(eps=0.3, exit_mode=mode)
        assert exit_limits(net, cfg).tolist() == limit


def test_kernel_matches_row_major_loop_with_per_component_limits():
    # a limit vector no exit mode gives: unequal node limits, and the first
    # line, which some row reaches, unmonitored, so the checked rows start past it
    net, cfg = _meshed_case(2, "both")
    args = _chunk_args(net, cfg)
    limit = args["limit"]
    limit[net.m:] = np.random.default_rng(31).uniform(1.8, 3.2, net.n)
    assert 0 in _kernels.simulate_chunk(5, 45, **args)[1].tolist()
    limit[0] = np.inf
    steps, comps = (a.tolist() for a in _kernels.simulate_chunk(5, 45, **args))
    assert [steps, comps] == [a.tolist() for a in reference_chunk(5, 45, **args)]
    exited = [c for c in comps if c >= 0]
    assert 0 not in exited
    assert min(exited) < net.m <= max(exited)
    assert len(set(s for s in steps if s > 0)) > 1 and len(exited) < 40


def _block_case(case, exit_mode):
    """(net, cfg, block) of a 40-row batch whose rows exit on the first and on
    the last step of some block, some mid-block and some at no step."""
    if case == "meshed":
        return (*_meshed_case(2, exit_mode), 6)
    eps = {"phase_only": 0.5, "freq_only": 1.2, "both": 1.4}[exit_mode]
    cfg = crep.SimConfig(dt=1e-2, t_max=2.5, n_samples=40, eps=eps,
                         master_seed=11, exit_mode=exit_mode)
    return ring5_net(caps=(0.7,) * 5), cfg, 4


@pytest.mark.parametrize("exit_mode", ["phase_only", "freq_only", "both"])
@pytest.mark.parametrize("case", ["ring5", "meshed"])
def test_block_draws_match_row_major_loop(monkeypatch, case, exit_mode):
    # a few steps' draws per block: rows that exit leave unread draws that the
    # rows still running must not shift, and the last block passes the horizon
    net, cfg, block = _block_case(case, exit_mode)
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block * net.n * 40)
    assert cfg.n_steps % block != 0
    (steps, comps), reference = _chunk_and_reference(net, cfg, 5, 45)
    assert [steps, comps] == reference
    exited = [s for s in steps if s > 0]
    assert any(s % block == 1 for s in exited) and any(s % block == 0 for s in exited)
    assert any(s % block not in (0, 1) for s in exited)
    assert 0 < len(exited) < 40


def test_block_length_does_not_change_the_bits(monkeypatch):
    # 80, 11 (16 for the last 5 rows) and 2 steps per block
    net, cfg, _ = _block_case("ring5", "both")
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 2 * net.n * 40)
    runs = []
    for size in (1, 7, 40):
        parts = [_chunk(net, cfg, lo, min(lo + size, 40)) for lo in range(0, 40, size)]
        runs.append([np.concatenate([p[k] for p in parts]).tolist() for k in (0, 1)])
    assert runs[0] == runs[1] == runs[2]
    assert 0 in runs[0][0] and len(set(runs[0][0])) > 2
