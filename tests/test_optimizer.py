import math
import re
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

    monkeypatch.setattr(crep.escape, "crep_reports", forbidden)
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
    solve = crep.escape.solve_synchronous_states
    monkeypatch.setattr(crep.escape, "solve_synchronous_states",
                        lambda nets: solves.extend(nets) or solve(nets))
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
    ((inherited, error),) = crep.optimizer._analysed_candidates(base, spec, [theta], "report")
    with pytest.raises(crep.SynchronousStateError) as alone:
        crep.Analysis(apply_decision(overloaded, spec, theta)).report
    assert type(error) is type(alone.value) and str(error) == str(alone.value)
    with pytest.raises(type(error), match=re.escape(str(alone.value))):
        inherited.report


def test_searches_in_small_stacks_give_the_results_of_whole_generations(monkeypatch):
    # a cap of three ring5 rows ((2n + m)^2 + 29n = 370 cells each) splits
    # every generation of 75 into stacks; rows are independent, so neither the
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
    run_stages = crep.optimizer.run_stages
    monkeypatch.setattr(crep.optimizer, "run_stages",
                        lambda analyses, through: sizes.append(len(analyses))
                        or run_stages(analyses, through))
    monkeypatch.setattr(crep.optimizer, "_STACK_CELLS", 3 * 370 + 10)
    split, split_check = run()
    assert max(sizes) == 3 and sizes.count(3) > 100
    assert split.theta.tobytes() == whole.theta.tobytes()
    assert split.history == whole.history and split.evaluations == whole.evaluations
    assert split.objective_final == whole.objective_final
    assert split_check == whole_check


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
