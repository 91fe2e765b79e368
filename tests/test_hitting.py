import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from crep import _kernels, hitting
from crep import (
    AllCensoredError,
    ConfigError,
    SimConfig,
    estimate_hitting_time,
    network_from_arrays,
    simulate_trajectory,
    solve_synchronous_state,
)

from conftest import reference_trajectory, ring5_net, two_node_net


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1.0, t_max=0.5)
    with pytest.raises(ValueError):
        SimConfig(n_samples=0)
    with pytest.raises(ValueError):
        SimConfig(exit_mode="sideways")


@pytest.mark.parametrize("field, value", [
    ("n_samples", 10.5),
    ("n_samples", True),
    ("master_seed", 1.5),
    ("master_seed", True),
    ("master_seed", -1),
    ("master_seed", 2**64),
])
def test_config_rejects_bad_sample_count_and_seed(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


def test_config_caps_the_sample_count():
    assert SimConfig(n_samples=hitting.MAX_SAMPLES).n_samples == hitting.MAX_SAMPLES
    with pytest.raises(ConfigError, match=f"at most MAX_SAMPLES = {hitting.MAX_SAMPLES}"):
        SimConfig(n_samples=hitting.MAX_SAMPLES + 1)


def test_a_run_holds_at_most_26_bytes_per_trajectory():
    # 2**22 one-step ring5 trajectories that all exit: at this count the
    # aggregation, not a kernel batch, sets the peak.  Each batch lands in
    # the two int64 result arrays, and the aggregation scales and picks the
    # exit steps without an int64 copy of them
    samples = 1 << 22
    cfg = SimConfig(dt=1e-3, t_max=1e-3, n_samples=samples, eps=0.0, exit_mode="freq_only")
    tracemalloc.start()
    try:
        estimate = estimate_hitting_time(ring5_net(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.n_exited == samples
    assert 16 * samples < peak <= 26 * samples


def test_largest_seed_runs_and_negative_index_is_rejected():
    net = two_node_net(p=0.0, noise=(0.3, 0.3))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_samples=1, eps=0.0,
                    master_seed=2**64 - 1, exit_mode="freq_only")
    assert simulate_trajectory(net, state, cfg, 0).exit_time == pytest.approx(cfg.dt)
    with pytest.raises(ValueError, match="trajectory_index"):
        simulate_trajectory(net, state, cfg, -1)


def test_largest_trajectory_index_runs_and_the_next_is_rejected():
    net = two_node_net(p=0.0, noise=(0.3, 0.3))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_samples=1, eps=0.0, exit_mode="freq_only")
    assert simulate_trajectory(net, state, cfg, 2**64 - 1).exit_time == pytest.approx(cfg.dt)
    with pytest.raises(ConfigError, match="trajectory_index must be < 2\\*\\*64"):
        simulate_trajectory(net, state, cfg, 2**64)


@pytest.mark.parametrize("n_workers", [0, -1, 1.5])
def test_worker_count_must_be_a_positive_int(n_workers):
    cfg = SimConfig(t_max=1.0, n_samples=2)
    with pytest.raises(ConfigError, match="n_workers"):
        estimate_hitting_time(two_node_net(noise=(0.2, 0.2)), cfg, n_workers=n_workers)


def test_config_rejects_a_step_count_past_int64():
    assert SimConfig(dt=1.0, t_max=2.0**62).n_steps == 2**62
    # 1 / 1e-310 overflows to inf
    for dt, t_max in [(1e-310, 1.0), (1.0, 2.0**63)]:
        with pytest.raises(ConfigError, match="t_max / dt must be < 2\\*\\*63"):
            SimConfig(dt=dt, t_max=t_max)


@pytest.mark.parametrize("field", ["dt", "t_max", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field", ["dt", "t_max", "eps"])
@pytest.mark.parametrize("value", ["1", None, True])
def test_config_rejects_non_real_values(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be a real number"):
        SimConfig(**{field: value})


def test_zero_noise_trajectory_is_censored():
    net = two_node_net(p=0.5, noise=(0.0, 0.0))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-2, t_max=1.0, n_samples=1, eps=0.1)
    outcome = simulate_trajectory(net, state, cfg, 0)
    assert outcome.censored
    assert outcome.exit_line is None and outcome.exit_node is None


def test_zero_noise_estimate_raises_all_censored():
    net = two_node_net(p=0.5, noise=(0.0, 0.0))
    cfg = SimConfig(dt=1e-2, t_max=1.0, n_samples=16, eps=0.1)
    with pytest.raises(AllCensoredError):
        estimate_hitting_time(net, cfg)


def test_phase_exits_on_a_network_without_lines_are_all_censored():
    # every exit limit is inf, so the kernel checks no row
    net = network_from_arrays([0.0], [1.0], [0.25], [1.0], [])
    cfg = SimConfig(dt=1e-2, t_max=1.0, n_samples=4, eps=0.0, exit_mode="phase_only")
    with pytest.raises(AllCensoredError, match="all 4 censored"):
        estimate_hitting_time(net, cfg)


def test_zero_eps_exits_at_first_step():
    net = two_node_net(p=0.0, noise=(0.3, 0.3))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_samples=1, eps=0.0, exit_mode="freq_only")
    outcome = simulate_trajectory(net, state, cfg, 0)
    assert outcome.exit_time == pytest.approx(cfg.dt)
    assert outcome.exit_node is not None


def test_a_single_exit_has_no_half_width():
    net = two_node_net(p=0.0, noise=(0.3, 0.3))
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_samples=1, eps=0.0, exit_mode="freq_only")
    estimate = estimate_hitting_time(net, cfg)
    assert estimate.n_exited == 1 and estimate.mean == cfg.dt
    assert math.isnan(estimate.half_width)


def test_estimate_is_deterministic_across_runs_and_workers():
    net = ring5_net()
    cfg = SimConfig(dt=1e-3, t_max=25.0, n_samples=300, eps=0.02,
                    master_seed=5, exit_mode="phase_only")
    a = estimate_hitting_time(net, cfg, n_workers=1)
    b = estimate_hitting_time(net, cfg, n_workers=4)
    c = estimate_hitting_time(net, cfg, n_workers=3)
    for other in (b, c):
        assert a.mean == other.mean
        assert a.half_width == other.half_width
        assert a.n_exited == other.n_exited
        assert np.array_equal(a.exit_line_histogram, other.exit_line_histogram)
        assert np.array_equal(a.exit_node_histogram, other.exit_node_histogram)


def ou_net():
    """The one-node network of criterion 07."""
    return network_from_arrays([0.0], [1.0], [0.25], [1.0], [])


def instant_exits(n_samples, t_max=1.0):
    """A config whose every trajectory exits at its first step, so a run costs little."""
    return SimConfig(dt=1e-3, t_max=t_max, n_samples=n_samples, eps=0.0, exit_mode="freq_only")


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool with a recorder of the worker counts asked for.

    It runs each batch in the calling process when it is submitted.
    """
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(hitting, "ProcessPoolExecutor", Recorder)
    return sizes


@pytest.fixture
def kernel_pids(monkeypatch, tmp_path):
    """A reader of the process id of every kernel batch run so far.

    Worker processes are forked, so they inherit the recording kernel and
    append to the same file.
    """
    log = tmp_path / "kernel-pids"
    log.touch()
    simulate_chunk = _kernels.simulate_chunk

    def recorded(*args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return simulate_chunk(*args, **kwargs)

    monkeypatch.setattr(_kernels, "simulate_chunk", recorded)
    return lambda: [int(pid) for pid in log.read_text().split()]


@pytest.mark.parametrize("net, n_samples, t_max, n_workers, workers", [
    (ring5_net(), 6, 3.0, 2, 0),  # crepbench's tracer test
    (ring5_net(), 1000, 20.0, 2, 1),  # crepbench's hitting-ring5
    (ou_net(), 10_000, 1000.0, 4, 1),  # criterion 07: 10^6 steps
    (ring5_net(), 2000, 120.0, 4, 1),  # criterion 09
], ids=["crepbench-tracer", "hitting-ring5", "criterion-07", "criterion-09"])
def test_only_runs_that_pay_for_a_worker_process_start_one(
    monkeypatch, pools, kernel_pids, net, n_samples, t_max, n_workers, workers
):
    monkeypatch.setattr(hitting, "_usable_cpus", lambda: 2)
    estimate_hitting_time(net, instant_exits(n_samples, t_max), n_workers=n_workers)
    assert pools == ([workers] if workers else [])
    assert kernel_pids() == [os.getpid()] * 2


@pytest.mark.parametrize("multiple, offset, procs", [
    (2, -1, 1), (2, 0, 2), (3, -1, 2), (3, 0, 3),
])
def test_processes_grow_with_rows_times_nodes_times_steps(
    monkeypatch, pools, multiple, offset, procs
):
    # a process per whole _PROCESS_WORK of rows x nodes x steps
    monkeypatch.setattr(hitting, "_usable_cpus", lambda: 64)
    net = two_node_net(noise=(0.2, 0.2))
    cfg = instant_exits(1, t_max=1.024)
    per_row = net.n * cfg.n_steps
    assert hitting._PROCESS_WORK % per_row == 0
    n_samples = multiple * hitting._PROCESS_WORK // per_row + offset
    estimate_hitting_time(net, replace(cfg, n_samples=n_samples), n_workers=8)
    assert pools == ([procs - 1] if procs > 1 else [])


def test_processes_and_batches_are_capped_at_usable_cpus(monkeypatch, pools, kernel_pids):
    monkeypatch.setattr(hitting, "_usable_cpus", lambda: 3)
    net = two_node_net(noise=(0.2, 0.2))
    estimate_hitting_time(net, instant_exits(1 << 14), n_workers=10**6)
    assert pools == [2] and len(kernel_pids()) == 3


def test_a_huge_worker_count_asks_for_no_more_processes_than_cpus(pools, kernel_pids):
    cpus = hitting._usable_cpus()
    assert 1 <= cpus <= os.cpu_count()
    net = two_node_net(noise=(0.2, 0.2))
    estimate_hitting_time(net, instant_exits(1 << 14), n_workers=10**6)
    assert pools == ([cpus - 1] if cpus > 1 else []) and len(kernel_pids()) == cpus


def test_pooled_estimate_is_bit_identical_to_one_process_and_any_split(
    monkeypatch, kernel_pids
):
    net = ring5_net()
    cfg = SimConfig(dt=1e-2, t_max=5.0, n_samples=4000, eps=0.02,
                    master_seed=5, exit_mode="phase_only")
    assert cfg.n_samples * net.n * cfg.n_steps >= 2 * hitting._PROCESS_WORK
    monkeypatch.setattr(hitting, "_usable_cpus", lambda: 2)
    sizes = []
    executor = hitting.ProcessPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return executor(max_workers)

    monkeypatch.setattr(hitting, "ProcessPoolExecutor", pool)
    pooled = estimate_hitting_time(net, cfg, n_workers=2)
    assert sizes == [1]
    pids = kernel_pids()
    assert len(pids) == 2 and os.getpid() in pids and len(set(pids)) == 2

    single = estimate_hitting_time(net, cfg, n_workers=1)
    # 7 batches: 3 in the calling process, 4 in its worker
    monkeypatch.setattr(hitting, "_BATCH_CELLS", 3000)
    split = estimate_hitting_time(net, cfg, n_workers=2)
    assert sizes == [1, 1]
    pids = kernel_pids()
    assert len(pids) == 2 + 1 + 7 and pids.count(os.getpid()) == 1 + 1 + 3
    assert 0 < pooled.n_exited < cfg.n_samples
    for other in (single, split):
        assert pickle.dumps(other) == pickle.dumps(pooled)


def test_no_worker_process_outlives_an_estimate_even_when_its_batch_raises(monkeypatch):
    monkeypatch.setattr(hitting, "_usable_cpus", lambda: 2)
    net = ring5_net()
    cfg = instant_exits(400, t_max=200.0)
    assert cfg.n_samples * net.n * cfg.n_steps >= 2 * hitting._PROCESS_WORK
    assert estimate_hitting_time(net, cfg, n_workers=2).n_exited == cfg.n_samples
    assert multiprocessing.active_children() == []

    caller, simulate_chunk = os.getpid(), _kernels.simulate_chunk

    def failing_in_workers(*args, **kwargs):
        if os.getpid() != caller:
            raise RuntimeError("worker batch failed")
        return simulate_chunk(*args, **kwargs)

    monkeypatch.setattr(_kernels, "simulate_chunk", failing_in_workers)
    with pytest.raises(RuntimeError, match="worker batch failed"):
        estimate_hitting_time(net, cfg, n_workers=2)
    assert multiprocessing.active_children() == []


def _estimate_into(queue, net, cfg):
    queue.put(pickle.dumps(estimate_hitting_time(net, cfg, n_workers=2)))


def test_a_daemonic_caller_runs_every_batch_itself(monkeypatch):
    # a daemonic process may not start children
    monkeypatch.setattr(hitting, "_usable_cpus", lambda: 2)
    net = ring5_net()
    cfg = SimConfig(dt=1e-2, t_max=5.0, n_samples=400, eps=0.02,
                    master_seed=5, exit_mode="phase_only")
    assert cfg.n_samples * net.n * cfg.n_steps >= 2 * hitting._PROCESS_WORK
    queue = multiprocessing.Queue()
    daemon = multiprocessing.Process(target=_estimate_into, args=(queue, net, cfg), daemon=True)
    daemon.start()
    result = queue.get(timeout=60)
    daemon.join(timeout=60)
    assert not daemon.is_alive() and daemon.exitcode == 0
    assert result == pickle.dumps(estimate_hitting_time(net, cfg, n_workers=1))


_START_METHOD_RUN = """
import multiprocessing, pickle, sys
from crep import SimConfig, estimate_hitting_time, hitting
from conftest import ring5_net

multiprocessing.set_start_method(sys.argv[1])
hitting._usable_cpus = lambda: 2
sizes, executor = [], hitting.ProcessPoolExecutor
hitting.ProcessPoolExecutor = lambda max_workers: sizes.append(max_workers) or executor(max_workers)
net = ring5_net()
cfg = SimConfig(dt=1e-2, t_max=5.0, n_samples=400, eps=0.02, master_seed=5,
                exit_mode="phase_only")
assert cfg.n_samples * net.n * cfg.n_steps >= 2 * hitting._PROCESS_WORK
pooled = estimate_hitting_time(net, cfg, n_workers=2)
assert sizes == [1], sizes
assert pickle.dumps(pooled) == pickle.dumps(estimate_hitting_time(net, cfg, n_workers=1))
print(pooled.n_exited)
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pooled_estimate_is_bit_identical_under_forkserver_and_spawn(method):
    # workers that import crep afresh, not forked from the caller, return
    # the bits of one process; Python 3.14 starts pools by forkserver on Linux
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    src = os.path.dirname(os.path.dirname(hitting.__file__))
    tests = os.path.dirname(__file__)
    path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", _START_METHOD_RUN, method],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert 0 < int(run.stdout) < 400


def test_estimate_counts_and_histograms_consistent():
    net = ring5_net()
    cfg = SimConfig(dt=1e-3, t_max=4.0, n_samples=120, eps=0.02,
                    master_seed=6, exit_mode="phase_only")
    est = estimate_hitting_time(net, cfg)
    assert est.n_exited + est.n_censored == cfg.n_samples
    assert est.exit_line_histogram.sum() + est.exit_node_histogram.sum() == est.n_exited
    # phase_only never attributes exits to nodes
    assert est.exit_node_histogram.sum() == 0
    assert est.half_width >= 0.0


def test_censoring_aware_mean_and_censored_fraction():
    # by hand from the exit steps of the same seeded trajectories
    net = ring5_net()
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-3, t_max=3.0, n_samples=60, eps=0.02,
                    master_seed=8, exit_mode="phase_only")
    est = estimate_hitting_time(net, cfg)
    outcomes = [simulate_trajectory(net, state, cfg, i) for i in range(cfg.n_samples)]
    exits = [o.exit_time for o in outcomes if not o.censored]
    n_censored = cfg.n_samples - len(exits)
    assert 0 < n_censored < cfg.n_samples and est.n_censored == n_censored
    assert est.censored_fraction == n_censored / cfg.n_samples
    horizon = cfg.n_steps * cfg.dt
    assert est.mean_mle == pytest.approx(
        (math.fsum(exits) + n_censored * horizon) / len(exits), rel=1e-12
    )
    assert est.mean_mle > est.mean


def test_censoring_aware_mean_equals_mean_without_censoring():
    net = ring5_net()
    cfg = SimConfig(dt=1e-3, t_max=200.0, n_samples=40, eps=0.02,
                    master_seed=9, exit_mode="phase_only")
    est = estimate_hitting_time(net, cfg)
    assert est.n_censored == 0 and est.censored_fraction == 0.0
    assert est.mean_mle == est.mean


def test_exit_state_validity_against_reference_path():
    net = ring5_net(b=(0.6, 0.3, 0.2, 0.3, 0.6))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-2, t_max=4.0, n_samples=1, eps=0.3,
                    master_seed=17, exit_mode="both")
    for idx in range(6):
        step, comp, path = reference_trajectory(net, state, cfg, idx, record_path=True)
        outcome = simulate_trajectory(net, state, cfg, idx)
        if step == 0:
            assert outcome.censored
            continue
        assert outcome.exit_time == pytest.approx(step * cfg.dt)

        def violated(entry):
            delta, omega = entry
            gaps = [
                abs(delta[a] - delta[b])
                for a, b in zip(net.line_from, net.line_to)
            ]
            return any(g >= math.pi / 2 for g in gaps) or any(
                abs(w) >= cfg.eps for w in omega
            )

        assert violated(path[step - 1])
        if step >= 2:
            assert not violated(path[step - 2])


def test_exit_mode_pathwise_consistency():
    net = ring5_net(b=(0.7, 0.3, 0.2, 0.3, 0.7))
    state = solve_synchronous_state(net)

    def exit_step(mode, idx, eps):
        cfg = SimConfig(dt=1e-2, t_max=6.0, n_samples=1, eps=eps,
                        master_seed=2024, exit_mode=mode)
        outcome = simulate_trajectory(net, state, cfg, idx)
        return math.inf if outcome.censored else outcome.exit_time

    for idx in range(10):
        both = exit_step("both", idx, 0.55)
        phase = exit_step("phase_only", idx, 0.55)
        freq = exit_step("freq_only", idx, 0.55)
        assert both == min(phase, freq)


def test_doubling_noise_shortens_exit_times():
    base = ring5_net()
    louder = base.with_arrays(noise=base.noise * 2.0)
    cfg = SimConfig(dt=1e-3, t_max=40.0, n_samples=400, eps=0.02,
                    master_seed=31, exit_mode="phase_only")
    slow = estimate_hitting_time(base, cfg)
    fast = estimate_hitting_time(louder, cfg)
    assert fast.mean + fast.half_width < slow.mean - slow.half_width


def test_trajectory_indices_give_independent_streams():
    net = two_node_net(p=0.4, noise=(0.5, 0.5))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-3, t_max=20.0, n_samples=1, eps=0.05, exit_mode="freq_only")
    times = {simulate_trajectory(net, state, cfg, k).exit_time for k in range(8)}
    assert len(times) > 1
