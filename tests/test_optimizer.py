import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

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

from conftest import (
    exact_projection,
    random_connected_network,
    ring5_net,
    stagewise_pipeline,
    two_node_net,
)


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
    # KKT certificate: one tau with x - theta = tau on the free components,
    # x - lower <= tau at the lower bound and x - upper >= tau at the upper
    at_lower, at_upper = theta <= lower, theta >= upper
    free = ~(at_lower | at_upper)
    shift = x - theta
    tau_min = max(shift[free].max(initial=-np.inf), (x - lower)[at_lower].max(initial=-np.inf))
    tau_max = min(shift[free].min(initial=np.inf), (x - upper)[at_upper].min(initial=np.inf))
    scale = max(1.0, np.abs(x).max(), np.abs(lower).max(), np.abs(upper).max())
    assert tau_min <= tau_max + 1e-12 * scale


def test_projection_is_identity_on_feasible_points():
    lower = np.array([0.0, 0.0, 0.0])
    upper = np.array([2.0, 2.0, 2.0])
    x = np.array([0.5, 1.0, 1.5])
    theta = project_to_budget_box(x, lower, upper, 3.0)
    assert np.allclose(theta, x, atol=1e-12)


def _assert_near_exact(x, lower, upper, budget):
    """The projection is within 64 ulps of the data scale of the exact one."""
    theta = project_to_budget_box(x, lower, upper, budget)
    exact = exact_projection(x, lower, upper, budget)
    error = max(abs(Fraction(t) - e) for t, e in zip(theta.tolist(), exact))
    scale = max(1.0, np.abs(x).max(), np.abs(lower).max(), np.abs(upper).max())
    assert error <= 64 * np.finfo(float).eps * scale, (x, lower, upper, budget)


def test_projection_whose_box_sums_overflow_meets_the_budget():
    # sum(upper) and S at the upper kinks are inf: tau is measured from the
    # kink below the budget, where S is finite
    x = np.ones(5)
    lower, upper = np.full(5, 2e305), np.full(5, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = project_to_budget_box(x, lower, upper, 1e308)
        _assert_near_exact(x, lower, upper, 1e308)
        _assert_near_exact(np.array([1e308, 1.0, -1e308]), np.zeros(3),
                           np.full(3, 1.5e308), 6e307)
    assert theta.sum() == pytest.approx(1e308, rel=1e-14)


def test_projection_matches_the_exact_rational_projection():
    rng = np.random.default_rng(51)
    for trial in range(600):
        k = int(rng.integers(2, 40))
        lower = rng.uniform(-1.0, 1.0, k)
        upper = lower + rng.uniform(0.0, 3.0, k)
        budget = float(
            (lower.sum(), upper.sum())[trial % 2] if trial < 40
            else rng.uniform(lower.sum(), upper.sum())
        )
        x = rng.normal(0.0, 2.0, k) * 10.0 ** rng.uniform(-3.0, 2.0)
        _assert_near_exact(x, lower, upper, budget)


def test_projection_with_the_budget_on_a_flat_segment():
    # between two kinks every component sits at a bound, so S is flat there;
    # the roundoff of x - kink can bracket a budget equal to S on that segment
    rng = np.random.default_rng(53)
    for _ in range(200):
        lower = rng.uniform(-1.0, 1.0, 3)
        upper = lower + rng.uniform(0.1, 2.0, 3)
        x = rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(0.0, 4.0, 3)
        kinks = np.sort(np.concatenate((x - upper, x - lower)))
        corners = np.clip(x - 0.5 * (kinks[1:] + kinks[:-1])[:, None], lower, upper)
        flat = np.all((corners == lower) | (corners == upper), axis=1)
        for budget in corners[flat].sum(axis=1):
            if lower.sum() < budget < upper.sum():
                _assert_near_exact(x, lower, upper, budget)


def test_projection_returns_the_corners_exactly():
    rng = np.random.default_rng(52)
    tol = crep.optimizer.BUDGET_TOL
    for _ in range(1000):
        k = int(rng.integers(1, 30))
        lower = rng.uniform(-1.0, 1.0, k)
        upper = lower + rng.uniform(0.0, 3.0, k) * (rng.random(k) < 0.9)
        x = rng.normal(0.0, 2.0, k) * 10.0 ** rng.uniform(-3.0, 2.0)
        low, high = float(lower.sum()), float(upper.sum())
        for budget, corner in ((low, lower), (low - tol * rng.random(), lower),
                               (high, upper), (high + tol * rng.random(), upper)):
            theta = project_to_budget_box(x, lower, upper, budget)
            assert theta.tobytes() == corner.tobytes()


def test_projection_accepts_list_bounds():
    theta = crep.project_to_budget_box([0.5, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    assert np.allclose(theta, [0.25, 0.75], atol=1e-15)
    assert theta.sum() == 1.0


@pytest.mark.parametrize("budget", [0.5 - 2e-9, 3.0 + 2e-9])
def test_projection_rejects_a_budget_outside_the_box(budget):
    # the box sums range over [0.5, 3.0]; BUDGET_TOL is 1e-9
    with pytest.raises(InfeasibleSpecError, match="^budget outside the box sum range$"):
        project_to_budget_box([0.5, 1.0], [0.0, 0.5], [1.0, 2.0], budget)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 40, 200])
def test_projection_of_a_stack_is_the_projection_of_each_row(d):
    rng = np.random.default_rng(54 + d)
    tol = crep.optimizer.BUDGET_TOL
    lower = rng.uniform(-1.0, 1.0, d)
    upper = lower + rng.uniform(0.0, 3.0, d) * (rng.random(d) < 0.9)
    x = rng.normal(0.0, 2.0, (25, d)) * 10.0 ** rng.uniform(-3.0, 2.0, (25, 1))
    x[1] = x[0]
    x[2] = np.clip(x[2], lower, upper)
    low, high = float(lower.sum()), float(upper.sum())
    # the budgets at and beyond both box ends return the corners
    budgets = [low, low - 0.5 * tol, high, high + 0.5 * tol,
               *(low + f * (high - low) for f in (1e-12, 0.3, 0.5, 0.9, 1 - 1e-12))]
    # and boxes whose sums overflow, where tau is measured from the upper kink
    huge = rng.choice([1e308, -1e308, 1.0, 3e307], size=(25, d))
    cases = [(x, lower, upper, budget) for budget in budgets]
    cases.append((huge, np.full(d, 2e305), np.full(d, 1e308), 1e308))
    cases.append((huge, np.zeros(d), np.full(d, 1.5e308), 6e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points, low_box, high_box, budget in cases:
            stack = project_to_budget_box(points, low_box, high_box, budget)
            rows = [project_to_budget_box(row, low_box, high_box, budget) for row in points]
            assert stack.shape == points.shape
            assert stack.tobytes() == np.array(rows).tobytes(), budget


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
    with pytest.raises(InfeasibleSpecError, match="^lower/upper must have one entry per index$"):
        DecisionSpec("inertia", (1, 2), 2.0, np.ones(3), np.full(2, 2.0))
    with pytest.raises(InfeasibleSpecError, match="^lower/upper must have one entry per index$"):
        DecisionSpec("inertia", (1, 2), 2.0, np.ones(2), np.full(1, 2.0))


@pytest.mark.parametrize(
    "field, lower, upper, budget",
    [
        ("upper", [0.0, 0.0], [math.inf, 2.0], 1.0),
        ("lower", [-math.inf, 0.0], [1.0, 2.0], 1.0),
        ("lower", [math.nan, 0.0], [1.0, 2.0], 1.0),
        ("budget", [0.0, 0.0], [2.0, 2.0], math.nan),
    ],
    ids=["inf-upper", "minus-inf-lower", "nan-lower", "nan-budget"],
)
def test_spec_rejects_non_finite_bounds_and_budget(field, lower, upper, budget):
    with pytest.raises(InfeasibleSpecError, match=f"^{field} must be finite$"):
        DecisionSpec("generation", (1, 2), budget, lower, upper)


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


@pytest.mark.parametrize("field, value", [
    ("indices", (1.7, 2)), ("indices", (True, 2)), ("indices", ("3", 2)),
    ("indices", (math.nan, 2)), ("indices", (None, 2)),
    ("budget", "3.0"), ("budget", None), ("budget", True),
    ("lower", ["a", 1.0]), ("upper", [None, 2.0]),
], ids=["fraction", "bool", "str", "nan", "none", "budget-str", "budget-none", "budget-bool",
        "lower-str", "upper-none"])
def test_spec_rejects_indices_budget_and_bounds_that_are_not_numbers(field, value):
    # a fractional or bool index must not be read as the line it truncates to
    spec = {"variable": "line_capacity", "indices": (1, 2), "budget": 3.0,
            "lower": [1.0, 1.0], "upper": [2.0, 2.0]}
    with pytest.raises(InfeasibleSpecError, match=f"^{field} must be (integers|numeric), got "):
        DecisionSpec(**{**spec, field: value})


@pytest.mark.parametrize("off", [5e-10, -5e-10])
def test_a_generation_budget_beyond_the_balance_tolerance_is_rejected_before_any_search(
    monkeypatch, off
):
    # ring5's loads need 1.1 of generation; a budget off by 5 TOL leaves every
    # candidate an imbalance its power flow cannot meet, so none is scored
    def scored(*args):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(crep.optimizer, "stage_arrays", scored)
    spec = DecisionSpec("generation", (1, 3), 1.1 + off, np.zeros(2), np.full(2, 2.0))
    with pytest.raises(InfeasibleSpecError, match="does not balance the fixed injections"):
        optimize(ring5_net(), spec, ObjectiveKind.crep_phi_delta)
    # a budget off by half TOL balances
    within = DecisionSpec("generation", (1, 3), 1.1 + off / 10, np.zeros(2), np.full(2, 2.0))
    crep.optimizer.validate_spec(ring5_net(), within)


@pytest.mark.parametrize("variable,index,kind", [
    ("line_capacity", 0, "line"), ("line_capacity", 6, "line"), ("inertia", 7, "node"),
    ("damping", -1, "node"),
])
def test_apply_decision_rejects_an_index_out_of_range(variable, index, kind):
    # index 0 would wrap to the last line, 7 past the end raise an IndexError
    spec = DecisionSpec(variable, (index,), 2.0, [1.0], [3.0])
    with pytest.raises(InfeasibleSpecError, match=f"^{kind} index out of range$"):
        apply_decision(ring5_net(), spec, [2.0])


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
        crep.Analysis(degenerate).variance
    assert evaluate_objective(degenerate, ObjectiveKind.phase_cohesiveness) == 0.0
    assert evaluate_objective(degenerate, ObjectiveKind.order_parameter) == 1.0
    assert evaluate_objective(degenerate, ObjectiveKind.trace_q_delta) == math.inf


def test_variance_objectives_never_compute_escape_probabilities(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("escape probabilities computed")

    monkeypatch.setattr(crep.escape, "escape_probabilities", forbidden)
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
    # 75 initial members, ten deferred generations (the last one of 50 trials),
    # then the polish
    assert result.evaluations == 800 + crep.optimizer.POLISH_MAX_EVALS
    assert [g for g, _ in result.history] == list(range(12))
    assert result.objective_final == evaluate_objective(
        apply_decision(net, spec, result.theta), ObjectiveKind.crep_phi_delta
    )
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


@pytest.mark.parametrize("variable", ["inertia", "damping"])
def test_machine_parameter_searches_solve_the_power_flow_once(monkeypatch, variable):
    solves = []
    solve = crep.escape.solve_synchronous_state
    monkeypatch.setattr(crep.escape, "solve_synchronous_state",
                        lambda net: solves.append(net) or solve(net))
    # the power flow of a stack of candidates runs on their arrays
    solve_stack = crep.escape.solve_state_stack
    monkeypatch.setattr(crep.escape, "solve_state_stack",
                        lambda net, *rows: solves.append("stack") or solve_stack(net, *rows))
    net = ring5_net()
    spec = DecisionSpec(variable, tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    result = optimize(net, spec, ObjectiveKind.crep_phi,
                      search=SearchConfig(seed=4, max_evals=150))
    assert result.evaluations >= 150 and len(solves) == 1
    assert min_max_sigma_equivalence_check(net, spec, n_samples=20) and len(solves) == 2
    # the shared state gives the bits of a fresh pipeline
    candidate = apply_decision(net, spec, result.theta)
    assert result.objective_final == evaluate_objective(candidate, ObjectiveKind.crep_phi)
    # a network without a state stays infeasible for every candidate, which
    # inherits the error of the base's one power flow
    overloaded = two_node_net(p=3.0, cap=2.0, noise=(0.1, 0.1))
    spec = DecisionSpec(variable, (1, 2), 2.0, np.full(2, 0.5), np.full(2, 1.5))
    del solves[:]
    with pytest.raises(NoFeasiblePointError):
        optimize(overloaded, spec, ObjectiveKind.crep_phi,
                 search=SearchConfig(seed=0, max_evals=30))
    assert solves == [overloaded]
    theta = np.array([0.7, 1.3])
    base = crep.Analysis(overloaded)
    _, _, (error,) = crep.optimizer._candidate_stages(base, spec, [theta], "report")
    with pytest.raises(crep.SynchronousStateError) as alone:
        crep.Analysis(apply_decision(overloaded, spec, theta)).report
    assert type(error) is type(alone.value) and str(error) == str(alone.value)


def test_searches_in_small_stacks_give_the_results_of_whole_generations(monkeypatch):
    # a cap of three ring5 rows ((2n + m)^2 + 29n = 370 cells each) splits
    # every generation of 75 into slices; rows are independent, so neither the
    # search nor the sampled check moves by a bit
    net = ring5_net()
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    search = SearchConfig(seed=3, max_evals=300)

    def run():
        return (optimize(net, spec, ObjectiveKind.crep_phi_delta, search=search),
                min_max_sigma_equivalence_check(net, spec, n_samples=40))

    whole, whole_check = run()
    sizes = []
    solve_state_stack = crep.escape.solve_state_stack
    monkeypatch.setattr(crep.escape, "solve_state_stack",
                        lambda net, power, capacity: sizes.append(len(capacity))
                        or solve_state_stack(net, power, capacity))
    monkeypatch.setattr(crep.escape, "_STACK_CELLS", 3 * 370 + 10)
    split, split_check = run()
    assert max(sizes) == 3 and sizes.count(3) > 100
    assert split.theta.tobytes() == whole.theta.tobytes()
    assert split.history == whole.history and split.evaluations == whole.evaluations
    assert split.objective_final == whole.objective_final
    assert split_check == whole_check


def _mixed(net):
    """``net`` with node 1's damping at 1.3: its d/m is no longer uniform."""
    damping = net.damping.copy()
    damping[0] = 1.3
    return net.with_arrays(damping=damping)


def _parity_cases(variable):
    """(network, spec, thetas) stacks of ring5 candidates for ``variable``.

    Between them the rows of each variable meet a Newton iteration that
    stalls (NoConvergence), a converged state outside the security domain
    (OutOfDomain), the closed-form variances and the Lyapunov solve.
    """
    ring = ring5_net()
    weak = ring5_net(caps=(0.5,) * 5)
    if variable == "generation":
        spec = DecisionSpec("generation", (1, 3), 1.1, np.zeros(2), np.full(2, 1.1))
        thetas = np.array([[0.0, 1.1], [0.25, 0.85], [0.95, 0.15], [0.5, 0.6]])
        return [(net, spec, thetas) for net in (weak, _mixed(weak))]
    if variable == "line_capacity":
        spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                            np.full(5, 0.05), np.full(5, 3.0))
        thetas = np.array([
            [1.817805256484719, 0.7346390844898462, 0.059640174498202955, 0.05, 2.337915484527232],
            [1.493353608692845, 0.5903001942367467, 0.9527395106263614, 0.40441838054656376,
             1.5591883058974823],
            [0.1595941045649668, 2.187787844719583, 1.2387206235222386, 0.5255601008727029,
             0.8883373263205102],
            [1.0] * 5,
        ])
        return [(net, spec, thetas) for net in (ring, _mixed(ring))]
    # the machine variables inherit the base's power flow: a state, a stall
    # or a state outside the domain
    outside = weak.with_arrays(power=np.array([0.95, -0.3, 0.15, -0.5, -0.3]))
    bases = (ring, ring5_net(caps=(0.4,) * 5), outside)
    if variable == "inertia":
        spec = DecisionSpec("inertia", tuple(range(1, 6)), 5.0, np.full(5, 0.2), np.full(5, 3.0))
        thetas = np.array([[1.0] * 5, [0.6, 1.4, 1.0, 0.8, 1.2]])
    else:
        spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0, np.full(5, 0.4), np.full(5, 2.0))
        thetas = np.array([[0.8] * 5, [0.6, 1.2, 0.8, 0.7, 0.7]])
    return [(net, spec, thetas) for net in bases]


@pytest.mark.parametrize("variable", crep.optimizer.DECISION_VARIABLES)
def test_stacked_scores_are_those_of_each_candidate_alone(variable):
    # every allowed objective of every candidate row, scored in one stack,
    # has the bits of evaluate_objective on the candidate's own network, and
    # every failed row the error, type and message, of its own analysis
    seen = set()
    for net, spec, thetas in _parity_cases(variable):
        base = crep.Analysis(net)
        for kind in ObjectiveKind:
            objective = crep.optimizer._OBJECTIVES[kind]
            if objective.stage == "state" and variable in ("inertia", "damping"):
                continue
            naturals, errors = crep.optimizer._candidate_values(base, spec, thetas, objective)
            assert len(naturals) == len(errors) == len(thetas)
            for theta, natural, error in zip(thetas, naturals.tolist(), errors):
                candidate = apply_decision(net, spec, theta)
                assert natural.hex() == evaluate_objective(candidate, kind).hex(), (kind, theta)
                try:
                    getattr(crep.Analysis(candidate), objective.stage)
                    alone = None
                except crep.CrepError as exc:
                    alone = exc
                assert type(error) is type(alone) and str(error) == str(alone), (kind, theta)
                uniform = np.all(candidate.damping / candidate.inertia == 0.8)
                seen.add(type(error).__name__ if error else
                         "closed form" if uniform else "lyapunov")
    assert seen == {"NoConvergence", "OutOfDomain", "closed form", "lyapunov"}


#: ring5 searches at seed 1 and max_evals 300, recorded before candidates
#: were scored as array stacks: theta's bytes, then the initial and final
#: objective, the evaluations and the history, floats as float.hex
_PINNED_SEARCHES = {
    ("line_capacity", 5.0, 0.2, 3.0, "crep_phi_delta"): (
        "257fe5d1b1e0f03f9a9999999999c93ff9d6d914ca34db3fe23c3a1f8bf2f13f844d3bab2e960140",
        "0x1.af76393da3128p-5", "0x1.507ec0b6e15b6p-9", 500,
        ["0x1.4bd221817ebdap-7", "0x1.096b1a28a944cp-7", "0x1.096b1a28a944cp-7",
         "0x1.a4a6a869ff782p-8", "0x1.507ec0b6e15b6p-9"]),
    ("line_capacity", 5.0, 0.2, 3.0, "trace_q_delta"): (
        "c21ad7c27fdfee3f920a5553074ae03ff70e486722b0e33f17df88602824f03fca06bde0026ffe3f",
        "0x1.13cbe8deb1e3bp+0", "0x1.d6e81adf35a8ep-1", 500,
        ["0x1.e9695a425f388p-1", "0x1.d9a975be279bcp-1", "0x1.d9a975be279bcp-1",
         "0x1.d9a975be279bcp-1", "0x1.d6e81adf35a8ep-1"]),
    ("damping", 4.0, 0.4, 2.0, "crep_phi"): (
        "9ed5d938ee7ef63f9a9999999999d93f9a9999999999d93f9a9999999999d93f30f7f293de4df63f",
        "0x1.f402ac9dd852dp-1", "0x1.f12ee35f4b35dp-1", 500,
        ["0x1.f20a1c7c3c078p-1", "0x1.f1a615fbdaefbp-1", "0x1.f1a615fbdaefbp-1",
         "0x1.f17f97d8f8e07p-1", "0x1.f12ee35f4b35dp-1"]),
}


@pytest.mark.parametrize("case", _PINNED_SEARCHES, ids=lambda case: f"{case[0]}-{case[-1]}")
def test_searches_keep_their_recorded_bits(case):
    variable, budget, low, high, kind = case
    theta, initial, final, evaluations, history = _PINNED_SEARCHES[case]
    spec = DecisionSpec(variable, tuple(range(1, 6)), budget, np.full(5, low), np.full(5, high))
    result = optimize(ring5_net(), spec, ObjectiveKind(kind),
                      search=SearchConfig(seed=1, max_evals=300))
    assert result.theta.tobytes().hex() == theta
    assert (result.objective_initial.hex(), result.objective_final.hex()) == (initial, final)
    assert result.evaluations == evaluations
    assert result.history == tuple(enumerate(float.fromhex(value) for value in history))


def test_no_feasible_point_error():
    net = two_node_net(p=1.0, cap=2.0, noise=(0.1, 0.1))
    # every reachable capacity is below the transferred power
    spec = DecisionSpec("line_capacity", (1,), 0.8,
                        np.array([0.5]), np.array([0.9]))
    with pytest.raises(NoFeasiblePointError):
        optimize(net, spec, ObjectiveKind.crep_phi_delta,
                 search=SearchConfig(seed=0, max_evals=60))


def test_bad_eps_is_a_config_error_not_an_infeasible_search():
    # ConfigError is a CrepError; the penalty catch must not turn it into a
    # search without a feasible point
    net = ring5_net()
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    with pytest.raises(crep.ConfigError, match="eps"):
        optimize(net, spec, ObjectiveKind.crep_phi_delta, eps=math.nan,
                 search=SearchConfig(seed=0, max_evals=60))
    with pytest.raises(crep.ConfigError, match="eps"):
        evaluate_objective(net, ObjectiveKind.crep_phi, eps=math.nan)
    with pytest.raises(crep.ConfigError, match="eps"):
        min_max_sigma_equivalence_check(net, spec, n_samples=2, eps=math.inf)


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("seed", 1.5), ("seed", True),
    ("max_evals", 0), ("max_evals", -5), ("max_evals", 10.0),
    ("polish", "no"), ("polish", 0), ("polish", None),
])
def test_search_config_rejects_bad_seed_and_budget(field, value):
    with pytest.raises(crep.ConfigError, match=field):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("entry", ["optimize", "evaluate_objective"])
def test_an_unknown_objective_is_a_config_error_naming_the_kinds(entry):
    net = ring5_net()
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    call = {"optimize": lambda: optimize(net, spec, "bogus"),
            "evaluate_objective": lambda: evaluate_objective(net, "bogus")}[entry]
    with pytest.raises(crep.ConfigError, match="objective must be one of") as info:
        call()
    assert isinstance(info.value, ValueError) and "'bogus'" in str(info.value)
    assert all(kind.value in str(info.value) for kind in ObjectiveKind)


def test_min_max_sigma_equivalence_on_ring():
    net = ring5_net(b=(0.7, 0.1, 0.1, 0.1, 0.7))
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    assert min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0)


def test_min_max_sigma_equivalence_reads_only_the_variance_stage(monkeypatch):
    # criterion 06's spec; the check reads sigma^2_omega alone
    net = ring5_net(b=(0.7, 0.1, 0.1, 0.1, 0.7))
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    unpatched = min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0)

    def refuse(*args):
        raise AssertionError("the check filled the report stage")

    monkeypatch.setattr(crep.escape, "escape_probabilities", refuse)
    assert min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0) == unpatched


@pytest.mark.parametrize("field,value", [
    ("n_samples", 0), ("n_samples", -3), ("n_samples", True), ("n_samples", 2.5),
    ("seed", -1),
])
def test_min_max_sigma_equivalence_rejects_bad_sample_count_and_seed(field, value):
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    with pytest.raises(crep.ConfigError, match=field):
        min_max_sigma_equivalence_check(ring5_net(), spec, **{field: value})


def test_min_max_sigma_equivalence_without_a_sampled_state_is_no_feasible_point():
    # every capacity split of 0.5 is too weak for ring5's flows
    net = ring5_net()
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 0.5,
                        np.full(5, 0.05), np.full(5, 0.2))
    with pytest.raises(NoFeasiblePointError):
        optimize(net, spec, ObjectiveKind.crep_phi_delta,
                 search=SearchConfig(seed=0, max_evals=60))
    with pytest.raises(NoFeasiblePointError):
        min_max_sigma_equivalence_check(net, spec, n_samples=20)


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


#: a fixed, seeded max-type objective: the largest of |A x - b| over its rows
_MAX_ROWS = np.random.default_rng(60).normal(size=(7, 6))
_MAX_RHS = np.random.default_rng(61).normal(size=7)

#: Nelder-Mead test problems in 2-6 dimensions: (objective, start); the
#: plateau objective gives tied values, as infeasible candidates' penalties do
_NM_PROBLEMS = {
    "quadratic-2": (lambda x: float((x[0] - 1.0) ** 2 + 10.0 * (x[1] + 0.5) ** 2 + x[0] * x[1]),
                    [0.3, 0.0]),
    "rosenbrock-3": (lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                            + (1.0 - x[:-1]) ** 2)), [-1.2, 1.0, 0.5]),
    "max-2": (lambda x: float(np.max(np.abs(_MAX_ROWS[:, :2] @ x - _MAX_RHS))), [2.0, -1.0]),
    "max-5": (lambda x: float(np.max(np.abs(_MAX_ROWS[:, :5] @ x - _MAX_RHS))),
              [0.5, 0.0, -0.3, 1.0, 0.2]),
    "plateau-6": (lambda x: min(1.0, float(np.sum((x - 0.3) ** 2))),
                  [0.9, 0.1, 0.0, 0.4, 0.7, 1.2]),
    "max-6": (lambda x: float(np.max(np.abs(_MAX_ROWS @ x - _MAX_RHS))), np.full(6, 0.25)),
    # Rastrigin's function: its ripples reject outside contractions
    "rastrigin-3": (lambda x: float(30.0 + np.sum(x ** 2 - 10.0 * np.cos(2.0 * np.pi * x))),
                    [2.3, -1.7, 0.9]),
}


def _scipy_nelder_mead_calls(f, x0, maxfev):
    calls = []

    def logged(x):
        value = f(x)
        calls.append((x.tobytes(), value))
        return value

    scipy.optimize.minimize(logged, np.array(x0, dtype=float), method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-14})
    return calls


def _stacked_nelder_mead_calls(f, x0, maxfev):
    """Committed (stack, row, point, value) in order, and the size of every scored stack."""
    committed, stacks = [], []

    def score(points):
        stacks.append(len(points))
        return [(len(stacks) - 1, row, p.tobytes(), f(p)) for row, p in enumerate(points)]

    def commit(outcome):
        committed.append(outcome)
        return outcome[3]

    crep.optimizer._nelder_mead(score, commit, np.array(x0, dtype=float), maxfev)
    return committed, stacks


def _cut_kinds(committed, stacks, n):
    """Per kind of step, the first maxfev that stops inside such a step.

    The first stack is the initial simplex, a stack of four is an iteration
    (n is never 4 here) and any other stack a shrink.
    """
    cuts = {}
    for i, (stack, row, _, _) in enumerate(committed[:-1]):
        next_stack, next_row = committed[i + 1][:2]
        if stack == 0 or next_stack != stack:
            continue
        if stacks[stack] != 4:
            kind = "shrink"
        else:
            kind = "expansion" if next_row == 1 else "contraction"
        cuts.setdefault(kind, i + 1)
    return cuts


def _outside_contraction_shrinks(committed, stacks):
    """How many iterations reject their outside contraction and shrink.

    Such an iteration commits its reflection and outside contraction (rows 0
    and 2 of its stack of four), and a shrink is the next stack scored.
    """
    rows = {}
    for stack, row, _, _ in committed:
        rows.setdefault(stack, []).append(row)
    return sum(rows[stack] == [0, 2] and stack + 1 < len(stacks) and stacks[stack + 1] != 4
               for stack in rows if stack and stacks[stack] == 4)


def test_nelder_mead_commits_the_points_scipy_evaluates():
    # every stop, also one inside an expansion, a contraction or a shrink,
    # commits the points scipy evaluates, in its order and with its bits
    seen, converged, outside_shrinks = set(), 0, 0
    for f, x0 in _NM_PROBLEMS.values():
        n = len(x0)
        full, stacks = _stacked_nelder_mead_calls(f, x0, 4000)
        converged += len(full) < 4000
        outside_shrinks += _outside_contraction_shrinks(full, stacks)
        cuts = _cut_kinds(full, stacks, n)
        seen.update(cuts)
        assert set(stacks[1:]) <= {4, n}
        for maxfev in {1, n, n + 1, n + 2, 4000, *cuts.values()}:
            committed, _ = _stacked_nelder_mead_calls(f, x0, maxfev)
            assert [(point, value) for _, _, point, value in committed] == \
                _scipy_nelder_mead_calls(f, x0, maxfev), maxfev
            assert len(committed) == min(maxfev, len(full))
    assert seen == {"expansion", "contraction", "shrink"}
    assert converged  # some runs stop at the tolerance test, not at maxfev
    assert outside_shrinks  # some iteration shrinks after its outside contraction


def _scipy_polish(score, commit, x0, maxfev):
    """The polish as scipy runs it: one point at a time, each scored and committed."""
    scipy.optimize.minimize(lambda x: commit(score(x[None])[0]), x0, method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-14})


@pytest.mark.parametrize("variable,budget,low,kind", [
    ("line_capacity", 5.0, 0.2, ObjectiveKind.crep_phi_delta),
    ("line_capacity", 2.6, 0.05, ObjectiveKind.trace_q_delta),
    ("damping", 4.0, 0.4, ObjectiveKind.crep_phi),
], ids=["capacity", "capacity-infeasible", "damping"])
def test_stacked_polish_gives_the_search_of_one_point_at_a_time(
        monkeypatch, variable, budget, low, kind):
    # speculative rows the polish scores but never commits move neither the
    # evaluation count nor the best point
    net = ring5_net()
    spec = DecisionSpec(variable, tuple(range(1, 6)), budget, np.full(5, low), np.full(5, 2.0))
    search = SearchConfig(seed=5, max_evals=200)
    rows = []
    stage_arrays = crep.optimizer.stage_arrays
    monkeypatch.setattr(crep.optimizer, "stage_arrays",
                        lambda net, stack, *args: rows.append(len(stack["capacity"]))
                        or stage_arrays(net, stack, *args))
    stacked = optimize(net, spec, kind, search=search)
    assert sum(rows) > stacked.evaluations
    monkeypatch.setattr(crep.optimizer, "_nelder_mead", _scipy_polish)
    single = optimize(net, spec, kind, search=search)
    assert stacked.theta.tobytes() == single.theta.tobytes()
    assert stacked.evaluations == single.evaluations == 200 + crep.optimizer.POLISH_MAX_EVALS
    assert stacked.history == single.history
    assert (stacked.objective_initial, stacked.objective_final) == \
        (single.objective_initial, single.objective_final)


def test_importing_crep_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(crep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, crep, crep.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _huge_capacity_spec(lower, upper=1e308):
    # ring5's variances overflow at a capacity total of 1e308, while its
    # power flow solves; crep optimize sets the lower bound 2e305
    return DecisionSpec("line_capacity", tuple(range(1, 6)), 1e308,
                        np.full(5, lower), np.full(5, upper))


def test_no_feasible_point_names_the_first_failure_past_the_state():
    net = ring5_net()
    named = "failed with LyapunovSolveError: "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoFeasiblePointError, match=re.escape(
                "no evaluated candidate was feasible; the first with a state " + named)):
            optimize(net, _huge_capacity_spec(2e305), ObjectiveKind.crep_phi_delta,
                     search=SearchConfig(max_evals=40))
        with pytest.raises(NoFeasiblePointError, match=re.escape(
                "the single feasible point " + named)):
            optimize(net, _huge_capacity_spec(2e307, 2e307), ObjectiveKind.trace_q_delta)
        with pytest.raises(NoFeasiblePointError, match=re.escape(
                "no sampled candidate was feasible; the first with a state " + named)):
            min_max_sigma_equivalence_check(net, _huge_capacity_spec(2e305), n_samples=10)
    # a candidate without a state keeps the message of a missing state
    with pytest.raises(NoFeasiblePointError, match="^no evaluated candidate admitted an "
                       "in-domain synchronous state$"):
        optimize(net, DecisionSpec("line_capacity", tuple(range(1, 6)), 0.5,
                                   np.full(5, 0.05), np.full(5, 0.2)),
                 ObjectiveKind.trace_q_delta, search=SearchConfig(max_evals=40))


@pytest.mark.parametrize("scale", [3e6, 1e7, 3e7, 1e8])
def test_generation_searches_of_a_scaled_ring5_return_a_result(scale):
    # ring5 with injections and capacities x scale: the budget balances the
    # loads, and every candidate's injections, only to roundoff of their size
    net = ring5_net()
    net = net.with_arrays(power=net.power * scale, capacity=net.capacity * scale)
    budget = 1.1 * scale
    spec = DecisionSpec("generation", (1, 3), budget, np.zeros(2), np.full(2, budget))
    result = optimize(net, spec, ObjectiveKind.crep_phi, search=SearchConfig(seed=1, max_evals=600))
    assert result.feasible and result.evaluations >= 600
    assert result.theta.sum() == pytest.approx(budget, rel=1e-14)
