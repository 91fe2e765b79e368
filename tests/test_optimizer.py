import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import crep
from crep import (
    DecisionSpec,
    InfeasibleSpecError,
    NoFeasiblePointError,
    ObjectiveKind,
    SearchConfig,
    apply_decision,
    evaluate_objective,
    min_max_sigma_equivalence_check,
    network_from_arrays,
    optimize,
    project_to_budget_box,
)

from conftest import random_connected_network, ring5_net, stagewise_pipeline, two_node_net


def _projection_oracle(x, lower, upper, budget):
    """Independent QP solve of the projection via SLSQP."""
    res = scipy.optimize.minimize(
        lambda t: 0.5 * np.sum((t - x) ** 2),
        np.clip(x, lower, upper),
        jac=lambda t: t - x,
        bounds=list(zip(lower, upper)),
        constraints=[{"type": "eq", "fun": lambda t: t.sum() - budget}],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    assert res.success
    return res.x


def test_projection_against_qp_oracle():
    rng = np.random.default_rng(50)
    for _ in range(12):
        k = int(rng.integers(2, 7))
        lower = rng.uniform(0.0, 1.0, k)
        upper = lower + rng.uniform(0.2, 2.0, k)
        budget = float(rng.uniform(lower.sum(), upper.sum()))
        x = rng.normal(0.0, 2.0, k)
        theta = project_to_budget_box(x, lower, upper, budget)
        oracle = _projection_oracle(x, lower, upper, budget)
        assert np.allclose(theta, oracle, atol=5e-7)
        assert abs(theta.sum() - budget) <= 1e-9
        assert np.all(theta >= lower) and np.all(theta <= upper)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_projection_feasibility_property(data):
    k = data.draw(st.integers(2, 6))
    lower = np.array(data.draw(st.lists(
        st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    widths = np.array(data.draw(st.lists(
        st.floats(0.01, 3.0), min_size=k, max_size=k)))
    upper = lower + widths
    frac = data.draw(st.floats(0.0, 1.0))
    budget = float(lower.sum() + frac * (upper.sum() - lower.sum()))
    x = np.array(data.draw(st.lists(
        st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    theta = project_to_budget_box(x, lower, upper, budget)
    assert np.all(theta >= lower) and np.all(theta <= upper)
    assert abs(theta.sum() - budget) <= 1e-9


def test_projection_is_identity_on_feasible_points():
    lower = np.array([0.0, 0.0, 0.0])
    upper = np.array([2.0, 2.0, 2.0])
    x = np.array([0.5, 1.0, 1.5])
    theta = project_to_budget_box(x, lower, upper, 3.0)
    assert np.allclose(theta, x, atol=1e-12)


def test_spec_validation():
    with pytest.raises(InfeasibleSpecError):
        DecisionSpec("capacity", (1,), 1.0, np.array([0.0]), np.array([1.0]))
    with pytest.raises(InfeasibleSpecError):
        DecisionSpec("inertia", (), 1.0, np.zeros(0), np.zeros(0))
    with pytest.raises(InfeasibleSpecError):
        DecisionSpec("inertia", (1, 1), 2.0, np.ones(2), np.ones(2) * 2)
    with pytest.raises(InfeasibleSpecError):
        DecisionSpec("inertia", (1,), 5.0, np.array([1.0]), np.array([2.0]))
    with pytest.raises(InfeasibleSpecError):
        DecisionSpec("inertia", (1,), 1.5, np.array([2.0]), np.array([1.0]))


def test_spec_network_validation():
    net = ring5_net()
    with pytest.raises(InfeasibleSpecError, match="out of range"):
        spec = DecisionSpec("line_capacity", (6,), 1.0,
                            np.array([0.5]), np.array([2.0]))
        crep.optimizer.validate_spec(net, spec)
    with pytest.raises(InfeasibleSpecError, match="generator"):
        spec = DecisionSpec("generation", (2,), -0.3,
                            np.array([-1.0]), np.array([1.0]))
        crep.optimizer.validate_spec(net, spec)
    with pytest.raises(InfeasibleSpecError, match="balance"):
        spec = DecisionSpec("generation", (1, 3), 2.0,
                            np.zeros(2), np.full(2, 2.0))
        crep.optimizer.validate_spec(net, spec)
    with pytest.raises(InfeasibleSpecError, match="> 0"):
        spec = DecisionSpec("damping", (1,), 1.0,
                            np.array([0.0]), np.array([2.0]))
        crep.optimizer.validate_spec(net, spec)


def test_evaluate_objective_values():
    quiet = network_from_arrays([0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.0] * 2,
                                [(1, 2, 2.0)])
    assert evaluate_objective(quiet, ObjectiveKind.crep_phi) == 0.0

    zero = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2,
                               [(1, 2, 2.0)])
    assert evaluate_objective(zero, ObjectiveKind.order_parameter) == 1.0

    arcsin_net = two_node_net(p=1.0, cap=2.0)
    assert evaluate_objective(arcsin_net, ObjectiveKind.phase_cohesiveness) == (
        pytest.approx(math.asin(0.5), abs=1e-12)
    )


def test_evaluate_objective_variance_kinds():
    net = ring5_net()
    state = crep.solve_synchronous_state(net)
    var = crep.solve_lyapunov(
        crep.spectral_reduce(crep.build_linearization(net, state), net)
    )
    assert evaluate_objective(net, ObjectiveKind.trace_q_delta) == pytest.approx(
        float(np.sum(var.sigma2_delta)), rel=1e-12
    )
    assert evaluate_objective(net, ObjectiveKind.trace_q_omega) == pytest.approx(
        float(np.sum(var.sigma2_omega)), rel=1e-12
    )
    assert evaluate_objective(net, ObjectiveKind.max_sigma2_omega) == pytest.approx(
        float(np.max(var.sigma2_omega)), rel=1e-12
    )


def test_every_objective_reproduces_the_stagewise_pipeline():
    rng = np.random.default_rng(38)
    for _ in range(6):
        net = random_connected_network(rng)
        state, _, variance, report = stagewise_pipeline(net)
        expected = {
            ObjectiveKind.crep_phi: report.phi,
            ObjectiveKind.crep_phi_delta: report.phi_delta,
            ObjectiveKind.crep_phi_omega: report.phi_omega,
            ObjectiveKind.trace_q_delta: float(np.sum(variance.sigma2_delta)),
            ObjectiveKind.trace_q_omega: float(np.sum(variance.sigma2_omega)),
            ObjectiveKind.max_sigma2_omega: float(np.max(variance.sigma2_omega)),
            ObjectiveKind.phase_cohesiveness: crep.phase_cohesiveness(state),
            ObjectiveKind.order_parameter: crep.order_parameter(state),
        }
        assert set(expected) == set(ObjectiveKind)
        for kind, value in expected.items():
            assert evaluate_objective(net, kind) == value, kind


def test_state_only_objectives_never_linearize():
    # a marginally stable state: the state exists, its reduction does not
    degenerate = two_node_net(p=0.0, cap=1e-14, noise=(0.1, 0.1))
    with pytest.raises(crep.DegenerateSystemError):
        crep.Analysis(degenerate).reduction
    assert evaluate_objective(degenerate, ObjectiveKind.phase_cohesiveness) == 0.0
    assert evaluate_objective(degenerate, ObjectiveKind.order_parameter) == 1.0
    assert evaluate_objective(degenerate, ObjectiveKind.trace_q_delta) == math.inf


def test_variance_objectives_never_compute_escape_probabilities(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("escape probabilities computed")

    monkeypatch.setattr(crep.escape, "crep_from_moments", forbidden)
    net = ring5_net()
    for kind in (ObjectiveKind.trace_q_delta, ObjectiveKind.trace_q_omega,
                 ObjectiveKind.max_sigma2_omega):
        assert math.isfinite(evaluate_objective(net, kind))


def test_maximizing_order_parameter_over_generation():
    net = network_from_arrays(
        [0.8, 0.2, -1.0], [1.0] * 3, [1.0] * 3, [0.2, 0.2, 0.2],
        [(1, 3, 2.0), (2, 3, 2.0)],
    )
    spec = DecisionSpec("generation", (1, 2), 1.0, np.zeros(2), np.ones(2))
    result = optimize(net, spec, ObjectiveKind.order_parameter,
                      search=SearchConfig(seed=3, max_evals=500))
    # symmetric lines: the split that evens out the phases maximizes gamma
    assert np.allclose(result.theta, [0.5, 0.5], atol=1e-5)
    assert result.objective_final >= result.objective_initial
    bests = [v for _, v in result.history]
    assert all(b >= a - 1e-15 for a, b in zip(bests, bests[1:]))


def test_evaluate_objective_penalty_encoding():
    overloaded = two_node_net(p=3.0, cap=2.0, noise=(0.1, 0.1))
    assert evaluate_objective(overloaded, ObjectiveKind.crep_phi) == 1.0
    assert evaluate_objective(overloaded, ObjectiveKind.trace_q_delta) == math.inf
    assert evaluate_objective(overloaded, ObjectiveKind.order_parameter) == math.inf


def test_state_only_objectives_rejected_for_machine_parameters():
    net = ring5_net()
    spec = DecisionSpec("inertia", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    with pytest.raises(InfeasibleSpecError):
        optimize(net, spec, ObjectiveKind.order_parameter)
    with pytest.raises(InfeasibleSpecError):
        optimize(net, spec, ObjectiveKind.phase_cohesiveness)


def test_state_only_objectives_constant_in_machine_parameters():
    net = ring5_net()
    spec = DecisionSpec("inertia", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    rng = np.random.default_rng(51)
    values_gamma, values_coh = set(), set()
    for _ in range(5):
        theta = project_to_budget_box(
            rng.uniform(spec.lower, spec.upper), spec.lower, spec.upper, spec.budget
        )
        candidate = apply_decision(net, spec, theta)
        values_gamma.add(evaluate_objective(candidate, ObjectiveKind.order_parameter))
        values_coh.add(evaluate_objective(candidate, ObjectiveKind.phase_cohesiveness))
    assert len(values_gamma) == 1
    assert len(values_coh) == 1


def test_degenerate_box_single_evaluation():
    net = ring5_net()
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                        np.ones(5), np.ones(5))
    result = optimize(net, spec, ObjectiveKind.crep_phi_delta)
    assert result.evaluations == 1
    assert np.array_equal(result.theta, np.ones(5))
    assert result.objective_final == result.objective_initial


def test_symmetric_generation_split():
    net = network_from_arrays(
        [0.5, 0.5, -1.0], [1.0] * 3, [1.0] * 3, [0.2, 0.2, 0.2],
        [(1, 3, 2.0), (2, 3, 2.0)],
    )
    spec = DecisionSpec("generation", (1, 2), 1.0, np.zeros(2), np.ones(2))
    result = optimize(net, spec, ObjectiveKind.crep_phi_delta,
                      search=SearchConfig(seed=2, max_evals=600))
    assert np.allclose(result.theta, [0.5, 0.5], atol=1e-6)


def test_optimize_capacity_dominates_uniform_start():
    net = ring5_net()
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    uniform_value = evaluate_objective(net, ObjectiveKind.crep_phi_delta)
    result = optimize(net, spec, ObjectiveKind.crep_phi_delta,
                      search=SearchConfig(seed=1, max_evals=800))
    assert result.objective_final <= uniform_value
    assert result.objective_final <= result.objective_initial
    assert result.feasible
    assert abs(result.theta.sum() - 5.0) <= 1e-9
    assert np.all(result.theta >= 0.2) and np.all(result.theta <= 3.0)
    bests = [v for _, v in result.history]
    assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))


def test_optimize_is_deterministic():
    net = ring5_net()
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    cfg = SearchConfig(seed=9, max_evals=300)
    r1 = optimize(net, spec, ObjectiveKind.crep_phi_omega, search=cfg)
    r2 = optimize(net, spec, ObjectiveKind.crep_phi_omega, search=cfg)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.objective_final == r2.objective_final
    assert r1.history == r2.history


def test_no_feasible_point_error():
    net = two_node_net(p=1.0, cap=2.0, noise=(0.1, 0.1))
    # every reachable capacity is below the transferred power
    spec = DecisionSpec("line_capacity", (1,), 0.8,
                        np.array([0.5]), np.array([0.9]))
    with pytest.raises(NoFeasiblePointError):
        optimize(net, spec, ObjectiveKind.crep_phi_delta,
                 search=SearchConfig(seed=0, max_evals=60))


def test_min_max_sigma_equivalence_on_ring():
    net = ring5_net(b=(0.7, 0.1, 0.1, 0.1, 0.7))
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    assert min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0)


def test_min_max_sigma_equivalence_single_noise_source():
    net = two_node_net(p=0.5, cap=2.0, noise=(0.4, 0.0))
    spec = DecisionSpec("damping", (1, 2), 2.0,
                        np.full(2, 0.5), np.full(2, 1.5))
    assert min_max_sigma_equivalence_check(net, spec, n_samples=10, seed=1)


def test_componentwise_variance_ordering_matches_escape_ordering():
    # direct check of the monotone map on a hand-built dominated pair
    net = ring5_net()
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    strong = apply_decision(net, spec, np.full(5, 0.8))
    weak = apply_decision(net, spec, np.array([1.52, 0.62, 0.62, 0.62, 0.62]))

    def moments(candidate):
        state = crep.solve_synchronous_state(candidate)
        var = crep.solve_lyapunov(
            crep.spectral_reduce(crep.build_linearization(candidate, state), candidate)
        )
        f = np.array([
            crep.escape_prob_freq(math.sqrt(v), 0.02) for v in var.sigma2_omega
        ])
        return var.sigma2_omega, f

    sig_a, f_a = moments(strong)
    sig_b, f_b = moments(weak)
    assert np.max(sig_a) != np.max(sig_b)
    assert (np.max(f_a) < np.max(f_b)) == (np.max(sig_a) < np.max(sig_b))
