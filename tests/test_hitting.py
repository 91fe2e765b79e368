import math

import numpy as np
import pytest

from crep import (
    AllCensoredError,
    SimConfig,
    estimate_hitting_time,
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


@pytest.mark.parametrize("field", ["dt", "t_max", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
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


def test_zero_eps_exits_at_first_step():
    net = two_node_net(p=0.0, noise=(0.3, 0.3))
    state = solve_synchronous_state(net)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_samples=1, eps=0.0, exit_mode="freq_only")
    outcome = simulate_trajectory(net, state, cfg, 0)
    assert outcome.exit_time == pytest.approx(cfg.dt)
    assert outcome.exit_node is not None


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
