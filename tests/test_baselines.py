import math

import numpy as np
import pytest

import crep
from crep import (
    AddLine,
    BraessScenario,
    DegenerateSystemError,
    SetCapacity,
    SimConfig,
    braess_compare,
    gramian_h2_squared,
    linear_stability,
    metrics_bundle,
    network_from_arrays,
    order_parameter,
)
from crep.baselines import order_parameter_reference, phase_cohesiveness
from crep.linearize import LinearizedModel
from crep.powerflow import SynchronousState

from conftest import random_connected_network, two_node_net


def _model_from_sys(a):
    a = np.asarray(a, dtype=float)
    k = a.shape[0] // 2
    return LinearizedModel(laplacian=np.zeros((k, k)), sys_matrix=a)


def _state(phase, line_from=(), line_to=()):
    phase = np.asarray(phase, dtype=float)
    lf = np.asarray(line_from, dtype=int)
    lt = np.asarray(line_to, dtype=int)
    return SynchronousState(
        phase=phase,
        output_phase_diffs=phase[lf] - phase[lt] if lf.size else np.zeros(0),
        residual=0.0,
    )


def test_linear_stability_underdamped_scalar_mode():
    # stiffness 4, inertia 2, damping 3: mu = -0.75 +/- 1.199i
    model = _model_from_sys([[0.0, 1.0], [-4.0 / 2.0, -3.0 / 2.0]])
    assert linear_stability(model) == pytest.approx(0.75, rel=1e-12)
    mu = np.linalg.eigvals(model.sys_matrix)
    assert sorted(np.round(mu.imag, 4)) == [-1.199, 1.199]


def test_linear_stability_critically_damped_mode():
    # damping^2 == 4 * stiffness * inertia: double real eigenvalue at -D/(2M)
    model = _model_from_sys([[0.0, 1.0], [-4.0, -4.0]])
    assert linear_stability(model) == pytest.approx(2.0, rel=1e-9)


def test_linear_stability_two_node_network():
    net = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 2.0)])
    state = crep.solve_synchronous_state(net)
    model = crep.build_linearization(net, state)
    assert linear_stability(model) == pytest.approx(0.5, rel=1e-9)


def test_linear_stability_ignores_zero_mode_of_stiff_network():
    # the same network with capacity 2e8: the computed zero mode (~3e-9) is
    # roundoff relative to |mu| ~ 2e4 and must not count as a decay rate
    net = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 2e8)])
    state = crep.solve_synchronous_state(net)
    model = crep.build_linearization(net, state)
    assert linear_stability(model) == pytest.approx(0.5, rel=1e-9)


def test_linear_stability_rejects_extra_zero_modes():
    with pytest.raises(DegenerateSystemError):
        linear_stability(_model_from_sys(np.zeros((2, 2))))


def test_linear_stability_positive_on_random_networks():
    rng = np.random.default_rng(33)
    for _ in range(6):
        net = random_connected_network(rng)
        state = crep.solve_synchronous_state(net)
        model = crep.build_linearization(net, state)
        assert linear_stability(model) > 0.0


def test_h2_scalar_system():
    a = np.array([[-1.0]])
    b = np.array([[1.0]])
    c = np.array([[1.0]])
    assert gramian_h2_squared(a, b, c, via="controllability") == pytest.approx(0.5, rel=1e-12)
    assert gramian_h2_squared(a, b, c, via="observability") == pytest.approx(0.5, rel=1e-12)


def test_h2_gramian_routes_agree_on_random_triples():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        c = rng.normal(size=(int(rng.integers(1, 4)), n))
        via_c = gramian_h2_squared(a, b, c, via="controllability")
        via_o = gramian_h2_squared(a, b, c, via="observability")
        assert math.isclose(via_c, via_o, rel_tol=1e-9, abs_tol=1e-9)


def test_h2_matches_smib_trace():
    # variances 1/24 and 1/12: squared norm of the identity-output map is 0.125
    a = np.array([[0.0, 1.0], [-2.0, -1.5]])
    b = np.array([[0.0], [0.5]])
    assert gramian_h2_squared(a, b, np.eye(2)) == pytest.approx(0.125, rel=1e-12)


def test_order_parameter_values():
    assert order_parameter(_state([0.0, 0.0, 0.0])) == 1.0
    assert order_parameter(_state([0.1, -0.1])) == pytest.approx(0.99, rel=1e-12)
    rng = np.random.default_rng(36)
    for _ in range(5):
        state = _state(rng.normal(0, 0.4, 6))
        gamma = order_parameter(state)
        assert gamma <= 1.0
        # centering maximizes the quadratic surrogate over gauge shifts
        assert gamma >= order_parameter_reference(state) - 1e-15


def test_cohesiveness_two_node():
    net = two_node_net(p=1.0, cap=2.0)
    state = crep.solve_synchronous_state(net)
    assert phase_cohesiveness(state) == pytest.approx(math.asin(0.5), abs=1e-12)


def test_braess_noop_is_unchanged_across_the_board():
    net = two_node_net(p=1.0, cap=2.0, noise=(0.3, 0.2))
    scenario = BraessScenario(net, SetCapacity(1, 2.0))
    sim = SimConfig(dt=1e-3, t_max=10.0, n_samples=60, eps=0.05,
                    master_seed=8, exit_mode="both")
    verdict = braess_compare(scenario, sim=sim)
    assert set(verdict.verdicts) == {"f_delta_norm", "min_re_mu", "gamma", "hitting_time"}
    assert all(v == "unchanged" for v in verdict.verdicts.values())
    assert verdict.paradox_metrics == ()
    assert not verdict.capacity_added


def test_braess_capacity_increase_improves_phase_escape():
    # SMIB closed form: the gap variance b^2/(2 D sqrt(l^2 - P^2)) falls in l
    net = two_node_net(p=1.0, cap=2.0, noise=(0.3, 0.2))
    verdict = braess_compare(BraessScenario(net, SetCapacity(1, 3.0)))
    assert verdict.verdicts["f_delta_norm"] == "improves"
    assert verdict.capacity_added


def test_braess_triangle_closure_emits_full_table():
    net = network_from_arrays(
        [0.6, -0.2, -0.4], [1.0] * 3, [0.8] * 3, [0.4, 0.3, 0.2],
        [(1, 2, 1.5), (2, 3, 1.5)],
    )
    sim = SimConfig(dt=1e-3, t_max=15.0, n_samples=80, eps=0.5,
                    master_seed=12, exit_mode="both")
    verdict = braess_compare(BraessScenario(net, AddLine(3, 1, 1.0)), sim=sim)
    assert set(verdict.verdicts) == {"f_delta_norm", "min_re_mu", "gamma", "hitting_time"}
    assert verdict.hitting_before is not None and verdict.hitting_after is not None
    assert verdict.after.crep.f_delta.shape == (3,)


def test_braess_metrics_can_disagree():
    # adding line (1,4) to this ring raises the worst line escape probability
    # while the order parameter improves
    power = [0.113, 0.412, -0.6528, 0.295, -0.1672]
    noise = [0.1466, 0.5247, 0.3478, 0.2148, 0.2825]
    ring = [(i, i % 5 + 1, 1.0) for i in range(1, 6)]
    net = network_from_arrays(power, [1.0] * 5, [0.7] * 5, noise, ring)
    verdict = braess_compare(BraessScenario(net, AddLine(1, 4, 1.0)))
    assert verdict.verdicts["f_delta_norm"] == "degrades"
    assert verdict.verdicts["gamma"] == "improves"
    assert "f_delta_norm" in verdict.paradox_metrics


def test_braess_labels_failing_side():
    overloaded = two_node_net(p=1.9, cap=2.0, noise=(0.1, 0.1))
    scenario = BraessScenario(overloaded, SetCapacity(1, 1.0))
    with pytest.raises(crep.SynchronousStateError, match="modified"):
        braess_compare(scenario)


def test_metrics_bundle_fields_consistent():
    rng = np.random.default_rng(37)
    net = random_connected_network(rng)
    bundle = metrics_bundle(net)
    assert bundle.h2_squared == pytest.approx(
        bundle.trace_q_delta + bundle.trace_q_omega, rel=1e-9
    )
    assert 0.0 <= bundle.crep.phi <= 1.0
    assert bundle.min_re_mu > 0.0
    assert bundle.centroid_magnitude <= 1.0
