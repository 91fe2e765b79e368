import numpy as np
import pytest

import crep
from crep import _kernels

from conftest import (
    GOLD,
    MASK64,
    _mix,
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
                 for v in _kernels._normals_vec(states, offsets)[0]]
    expected = reference_normals(5, 3, 6)
    assert drawn == pytest.approx(expected, rel=1e-12)


def _chunk(net, cfg, lo, hi):
    state = crep.solve_synchronous_state(net)
    from crep.hitting import _kernel_args

    args = _kernel_args(net, state, cfg)
    return _kernels.simulate_chunk(lo, hi, **args)


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
