import math
import sys
import traceback
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import crep
from crep import (
    crep as crep_metric,
    escape_prob_freq,
    escape_prob_line,
    network_from_arrays,
    smib_analytic,
    smib_network,
)

from conftest import random_connected_network, ring5_net, stagewise_pipeline

HALF_PI = math.pi / 2

# frozen from the standard normal CDF: P(|Z| > 1) and P(|Z| > 2)
P_BEYOND_1 = 0.31731050786291415
P_BEYOND_2 = 0.04550026389635842


def test_escape_prob_line_centered_one_sigma():
    value = escape_prob_line(0.0, HALF_PI)
    assert value == pytest.approx(P_BEYOND_1, abs=1e-15)
    # independent oracle: normal CDF difference
    oracle = 1.0 - (norm.cdf(1.0) - norm.cdf(-1.0))
    assert value == pytest.approx(oracle, abs=1e-14)


def test_escape_prob_line_zero_sigma():
    assert escape_prob_line(0.0, 0.0) == 0.0
    assert escape_prob_line(1.2, 0.0) == 0.0


def test_escape_prob_line_large_sigma_saturates():
    assert escape_prob_line(0.0, 1e3) > 0.99


def test_escape_prob_line_shifted_mean_oracle():
    mean, sigma = 0.8, 0.4
    oracle = 1.0 - (norm.cdf((HALF_PI - mean) / sigma) - norm.cdf((-HALF_PI - mean) / sigma))
    assert escape_prob_line(mean, sigma) == pytest.approx(oracle, rel=1e-12)


def test_escape_prob_line_domain_error():
    with pytest.raises(ValueError):
        escape_prob_line(HALF_PI, 1.0)
    with pytest.raises(ValueError):
        escape_prob_line(-2.0, 1.0)
    with pytest.raises(ValueError):
        escape_prob_line(0.0, -1.0)


def test_escape_prob_freq_oracle_values():
    assert escape_prob_freq(0.01, 0.02) == pytest.approx(P_BEYOND_2, abs=1e-15)
    assert escape_prob_freq(0.5, 0.5) == pytest.approx(P_BEYOND_1, abs=1e-15)
    assert escape_prob_freq(0.0, 0.02) == 0.0


def test_escape_prob_freq_domain_error():
    with pytest.raises(ValueError):
        escape_prob_freq(0.1, 0.0)
    with pytest.raises(ValueError):
        escape_prob_freq(-0.1, 0.1)

@pytest.mark.parametrize("function,args,message", [
    (escape_prob_line, (0.3, math.nan), "sigma must be finite and >= 0, got nan"),
    (escape_prob_line, (0.3, math.inf), "sigma must be finite and >= 0, got inf"),
    (escape_prob_line, (math.nan, 0.1), "mean nan outside"),
    (escape_prob_freq, (math.nan, 0.02), "sigma must be finite and >= 0, got nan"),
    (escape_prob_freq, (math.inf, 0.02), "sigma must be finite and >= 0, got inf"),
    (crep.crep_from_moments, ([0.3], [math.nan], [0.01], 0.02),
     "sigma2_delta must be finite and >= 0, got nan"),
    (crep.crep_from_moments, ([0.3], [math.inf], [0.01], 0.02),
     "sigma2_delta must be finite and >= 0, got inf"),
    (crep.crep_from_moments, ([0.3], [0.01], [math.nan], 0.02),
     "sigma2_omega must be finite and >= 0, got nan"),
    (crep.crep_from_moments, ([0.3], [0.01], [math.inf], 0.02),
     "sigma2_omega must be finite and >= 0, got inf"),
    (crep.crep_from_moments, ([math.nan], [0.01], [0.01], 0.02), "mean nan outside"),
], ids=lambda value: getattr(value, "__name__", None))
def test_non_finite_moments_are_rejected(function, args, message):
    # a NaN variance used to give phi = NaN, or to be dropped from phi
    with pytest.raises(ValueError, match=message):
        function(*args)


@given(
    sigma=st.floats(1e-3, 10.0),
    bump=st.floats(1e-6, 1.0),
    mean=st.floats(-1.5, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_escape_prob_line_monotone_in_sigma(sigma, bump, mean):
    low = escape_prob_line(mean, sigma)
    high = escape_prob_line(mean, sigma + bump)
    assert high >= low
    if low > 0.0 and high < 1.0:  # strict except at the underflow/saturation ends
        assert high > low


@given(
    mean=st.floats(0.0, 1.5),
    bump=st.floats(1e-6, 0.05),
    sigma=st.floats(0.05, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_escape_prob_line_monotone_in_absolute_mean(mean, bump, sigma):
    if mean + bump >= HALF_PI:
        bump = HALF_PI - mean - 1e-9
    if bump <= 0:
        return
    low = escape_prob_line(mean, sigma)
    high = escape_prob_line(mean + bump, sigma)
    assert high >= low
    assert escape_prob_line(-mean, sigma) == pytest.approx(low, rel=1e-12)


@given(
    sigma=st.floats(1e-3, 5.0),
    bump=st.floats(1e-6, 1.0),
    eps=st.floats(1e-3, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_escape_prob_freq_monotone(sigma, bump, eps):
    base = escape_prob_freq(sigma, eps)
    wider = escape_prob_freq(sigma + bump, eps)
    tighter = escape_prob_freq(sigma, eps + bump)
    assert wider >= base >= tighter
    if base > 0.0 and wider < 1.0:
        assert wider > base
    if tighter > 0.0:
        assert tighter < base


def test_crep_zero_noise_gives_zero_metric():
    net = network_from_arrays(
        [0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.0] * 2, [(1, 2, 2.0)]
    )
    report = crep_metric(net)
    assert report.phi == 0.0
    assert report.phi_delta == 0.0
    assert report.phi_omega == 0.0


def test_crep_matches_smib_composition():
    M, D, K, P, b = 2.0, 3.0, 5.0, 3.0, 1.0
    closed = smib_analytic(M, D, K, P, b)
    report = crep_metric(smib_network(M, D, K, P, b), eps=0.5)
    expected_f_delta = escape_prob_line(math.asin(P / K), math.sqrt(closed.sigma2_delta))
    expected_f_omega = escape_prob_freq(math.sqrt(closed.sigma2_omega), 0.5)
    assert report.f_delta[0] == pytest.approx(expected_f_delta, rel=1e-6)
    assert report.f_omega[0] == pytest.approx(expected_f_omega, rel=1e-8)
    assert closed.f_delta == pytest.approx(expected_f_delta, rel=1e-15)


def test_crep_noise_swap_symmetry():
    lines = [(1, 2, 2.0)]
    a = network_from_arrays([0.4, -0.4], [1.0] * 2, [1.0] * 2, [0.3, 0.1], lines)
    b = network_from_arrays([0.4, -0.4], [1.0] * 2, [1.0] * 2, [0.1, 0.3], lines)
    assert crep_metric(a).phi == pytest.approx(crep_metric(b).phi, rel=1e-12)


def test_stacked_escape_probabilities_are_the_scalar_ones():
    rng = np.random.default_rng(42)
    means = rng.uniform(-1.5, 1.5, (6, 7))
    var_delta = rng.uniform(0.0, 2.0, (6, 7)) * (rng.random((6, 7)) < 0.8)
    var_omega = rng.uniform(0.0, 1e-3, (6, 4)) * (rng.random((6, 4)) < 0.8)
    f_delta, f_omega = crep.escape.escape_probabilities(means, var_delta, var_omega, 0.02)
    for row in range(6):
        for k in range(7):
            sigma = math.sqrt(float(var_delta[row, k]))
            assert f_delta[row, k] == escape_prob_line(float(means[row, k]), sigma)
        for i in range(4):
            sigma = math.sqrt(float(var_omega[row, i]))
            assert f_omega[row, i] == escape_prob_freq(sigma, 0.02)


def test_crep_argmax_tie_breaks_to_lowest_index():
    report = crep.crep_from_moments(
        np.array([0.3, 0.3]), np.array([0.01, 0.01]), np.array([0.004, 0.001]), 0.02
    )
    assert report.f_delta[0] == report.f_delta[1]
    assert report.argmax_line == 1
    assert report.argmax_node == 1


def test_crep_symmetric_star_has_symmetric_escape():
    net = network_from_arrays(
        [-0.4, 0.2, 0.2], [1.0] * 3, [1.0] * 3, [0.2, 0.2, 0.2],
        [(1, 2, 1.0), (1, 3, 1.0)],
    )
    report = crep_metric(net)
    assert report.f_delta[0] == pytest.approx(report.f_delta[1], rel=1e-10)


def test_crep_entries_within_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_connected_network(rng)
        report = crep_metric(net)
        assert np.all(report.f_delta >= 0.0) and np.all(report.f_delta <= 1.0)
        assert np.all(report.f_omega >= 0.0) and np.all(report.f_omega <= 1.0)
        assert 0.0 <= report.phi <= 1.0
        assert report.phi == max(report.phi_delta, report.phi_omega)
        assert report.phi_delta == report.f_delta[report.argmax_line - 1]
        assert report.phi_omega == report.f_omega[report.argmax_node - 1]


def test_crep_single_node_network():
    net = network_from_arrays([0.0], [1.0], [0.5], [0.3], [])
    report = crep_metric(net, eps=0.2)
    assert report.f_delta.size == 0
    assert report.argmax_line is None
    assert report.phi_delta == 0.0
    # single machine: frequency variance is noise^2 / (2 m d)
    expected = escape_prob_freq(math.sqrt(0.3**2 / (2 * 0.5)), 0.2)
    assert report.phi_omega == pytest.approx(expected, rel=1e-9)
    assert report.phi == report.phi_omega


def test_crep_propagates_state_errors():
    overloaded = network_from_arrays(
        [3.0, -3.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 2.0)]
    )
    with pytest.raises(crep.SynchronousStateError):
        crep_metric(overloaded)


def assert_reports_identical(report, expected):
    for field in fields(expected):
        value, want = getattr(report, field.name), getattr(expected, field.name)
        assert np.array_equal(value, want), field.name


@pytest.mark.parametrize("eps", [crep.DEFAULT_EPS, 0.05])
def test_every_entry_point_reproduces_the_stagewise_pipeline(eps):
    rng = np.random.default_rng(36)
    for _ in range(8):
        net = random_connected_network(rng)
        state, model, variance, expected = stagewise_pipeline(net, eps)
        analysis = crep.Analysis(net, eps)
        bundle = crep.metrics_bundle(net, eps)
        for report in (crep_metric(net, eps), analysis.report, bundle.crep):
            assert_reports_identical(report, expected)
        assert np.array_equal(analysis.variance.q_y, variance.q_y)
        assert bundle.min_re_mu == variance.min_re_mu
        assert bundle.h2_squared == float(np.trace(variance.q_y))
        assert bundle.trace_q_delta == float(np.sum(variance.sigma2_delta))
        assert bundle.trace_q_omega == float(np.sum(variance.sigma2_omega))
        assert bundle.cohesiveness == crep.phase_cohesiveness(state)


UNIFORM_DAMPING, MIXED_DAMPING = (0.8,) * 5, (0.8, 0.9, 0.7, 1.0, 0.6)


@pytest.mark.parametrize("dampings", [[UNIFORM_DAMPING], [MIXED_DAMPING],
                                      [UNIFORM_DAMPING, MIXED_DAMPING]],
                         ids=["uniform-ratio", "mixed-ratio", "interleaved"])
def test_a_stack_gives_the_bits_of_its_rows_alone(dampings):
    # one DE generation of ring5 line capacities, about a third of them
    # without a state; uniform damping takes the closed form, mixed the Schur
    # path, and the interleaved rows alternate them, so one stack's shared
    # reduction is split between the two solvers
    nets = [ring5_net().with_arrays(damping=np.array(damping)) for damping in dampings]
    spec = crep.DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                             np.full(5, 0.2), np.full(5, 3.0))
    rng = np.random.default_rng(40)
    thetas = [crep.project_to_budget_box(x, spec.lower, spec.upper, spec.budget)
              for x in rng.uniform(0.2, 3.0, (75, 5))]
    stack = [crep.apply_decision(nets[j % len(nets)], spec, t) for j, t in enumerate(thetas)]
    rows = {name: np.array([getattr(net, name) for net in stack])
            for name in ("power", "inertia", "damping", "noise", "capacity")}
    live, stages, errors = crep.escape.stage_arrays(stack[0], rows, crep.DEFAULT_EPS)
    infeasible = 0
    for j, (net, error) in enumerate(zip(stack, errors)):
        alone = crep.Analysis(net)
        try:
            alone.report
        except crep.CrepError as exc:
            assert type(error) is type(exc) and str(error) == str(exc)
            assert j not in live
            infeasible += 1
            continue
        assert error is None
        (row,) = np.flatnonzero(live == j)
        for name, want in (("phase", alone.state.phase),
                           ("gaps", alone.state.output_phase_diffs),
                           ("sigma2_delta", alone.variance.sigma2_delta),
                           ("sigma2_omega", alone.variance.sigma2_omega),
                           ("f_delta", alone.report.f_delta),
                           ("f_omega", alone.report.f_omega)):
            assert stages[name][row].tobytes() == want.tobytes(), name
    assert 10 < infeasible < 65


def test_analysis_runs_each_stage_once(monkeypatch):
    analysis = crep.Analysis(random_connected_network(np.random.default_rng(37)))
    assert analysis.report is analysis.report
    # a failed stage keeps its error: the power flow of a network without a
    # state runs once, and every read raises its error with a fresh traceback
    solves = []
    solve = crep.escape.solve_synchronous_state
    monkeypatch.setattr(crep.escape, "solve_synchronous_state",
                        lambda net: solves.append(1) or solve(net))
    failed = crep.Analysis(ring5_net(caps=(0.01,) * 5))
    raised = []
    for _ in range(3):
        with pytest.raises(crep.SynchronousStateError) as info:
            failed.report
        raised.append((type(info.value), str(info.value),
                       len(traceback.extract_tb(info.value.__traceback__))))
    assert solves == [1] and raised == [raised[0]] * 3
    with pytest.raises(raised[0][0], match="no damped Newton step"):
        failed.state
    assert solves == [1]


def test_each_stage_runs_once_in_the_read_order_of_analyze(monkeypatch):
    # crep analyze reads state, then variance, then the bundle's report,
    # variance and state; each stage's core runs once, on its first read
    calls = []
    for module, name in ((crep.powerflow, "solve_state_stack"),
                         (crep.linearize, "variance_stack"),
                         (crep.escape, "escape_probabilities")):
        core = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, core=core, name=name: calls.append(name) or core(*args))
    mixed = ring5_net().with_arrays(damping=np.array(MIXED_DAMPING))
    analysis = crep.Analysis(mixed)
    analysis.state
    assert calls == ["solve_state_stack"]
    analysis.variance
    assert calls == ["solve_state_stack", "variance_stack"]
    for _ in range(2):
        analysis.report, analysis.variance, analysis.state
    assert calls == ["solve_state_stack", "variance_stack", "escape_probabilities"]
    # a failed variance stage keeps its error; the state before it still reads
    noisy = crep.Analysis(mixed.with_arrays(noise=mixed.noise * 1e160))
    del calls[:]
    with pytest.raises(crep.LyapunovSolveError, match="Lyapunov residual nan") as info:
        noisy.variance
    state = noisy.state
    assert state is noisy.state and state.residual <= crep.powerflow.TOL
    for stage in ("report", "variance"):
        with pytest.raises(crep.LyapunovSolveError) as again:
            getattr(noisy, stage)
        assert again.value is info.value
    assert calls == ["solve_state_stack", "variance_stack"]


@pytest.mark.parametrize("damping", [UNIFORM_DAMPING, MIXED_DAMPING],
                         ids=["uniform-ratio", "mixed-ratio"])
def test_the_pipeline_never_builds_the_jacobian(monkeypatch, damping):
    # both variance solvers read the spectral reduction of the Laplacian;
    # the 2n x 2n system matrix of build_linearization is for callers only
    original = crep.build_linearization

    def forbidden(*args, **kwargs):
        raise AssertionError("build_linearization called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crep" and getattr(module, "build_linearization",
                                                    None) is original:
            monkeypatch.setattr(module, "build_linearization", forbidden)
    net = ring5_net().with_arrays(damping=np.array(damping))
    crep_metric(net)
    crep.metrics_bundle(net)
    for kind in crep.ObjectiveKind:
        crep.evaluate_objective(net, kind)
    spec = crep.DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                             np.full(5, 0.2), np.full(5, 3.0))
    result = crep.optimize(net, spec, crep.ObjectiveKind.crep_phi_delta,
                           search=crep.SearchConfig(seed=0, max_evals=150))
    assert result.feasible


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.02])
def test_eps_outside_the_open_half_line_is_a_config_error(eps):
    net = random_connected_network(np.random.default_rng(38))
    with pytest.raises(crep.ConfigError, match="eps must be finite and > 0"):
        crep_metric(net, eps=eps)
    with pytest.raises(ValueError):
        crep.Analysis(net, eps)
    # the moment-level functions apply the same rule: a NaN eps used to give
    # phi == phi_delta with a NaN phi_omega
    with pytest.raises(crep.ConfigError, match="eps must be finite and > 0"):
        escape_prob_freq(0.1, eps)
    with pytest.raises(crep.ConfigError, match="eps must be finite and > 0"):
        crep.crep_from_moments(np.array([0.3]), np.array([0.01]), np.array([0.004]), eps)
    with pytest.raises(crep.ConfigError, match="eps must be finite and > 0"):
        crep.escape.escape_probabilities(np.zeros((2, 1)), np.ones((2, 1)), np.ones((2, 3)), eps)


@pytest.mark.parametrize("eps", ["0.1", None, True])
def test_non_real_eps_is_a_config_error(eps):
    net = random_connected_network(np.random.default_rng(38))
    with pytest.raises(crep.ConfigError, match="eps must be a real number"):
        crep_metric(net, eps=eps)
    with pytest.raises(crep.ConfigError, match="eps must be a real number"):
        crep.Analysis(net, eps)


def test_smib_analytic_values():
    closed = smib_analytic(2.0, 3.0, 5.0, 3.0, 1.0)
    assert closed.sigma2_delta == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert closed.sigma2_omega == pytest.approx(1.0 / 12.0, rel=1e-15)


@pytest.mark.parametrize("name", ["inertia", "damping", "capacity", "power", "noise"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_smib_analytic_rejects_a_non_finite_argument(name, value):
    arguments = {"inertia": 2.0, "damping": 3.0, "capacity": 5.0, "power": 3.0, "noise": 1.0}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        smib_analytic(**{**arguments, name: value})


def test_smib_analytic_no_load_case():
    b, D, K = 0.7, 1.3, 2.0
    closed = smib_analytic(1.0, D, K, 0.0, b)
    assert closed.sigma2_delta == pytest.approx(b**2 / (2 * D * K), rel=1e-15)
    assert closed.f_delta == pytest.approx(
        escape_prob_line(0.0, math.sqrt(b**2 / (2 * D * K))), rel=1e-15
    )


def test_smib_analytic_saturates_near_capacity():
    # D*K small enough that the gap variance blows past the interval width
    closed = smib_analytic(2.0, 0.2, 0.2, 0.9999 * 0.2, 1.0)
    assert closed.f_delta > 0.9


def test_smib_analytic_domain_errors():
    with pytest.raises(ValueError):
        smib_analytic(1.0, 1.0, 1.0, 1.0, 1.0)  # P == K
    with pytest.raises(ValueError):
        smib_analytic(1.0, 1.0, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        smib_analytic(0.0, 1.0, 1.0, 0.5, 1.0)


def test_smib_f_delta_monotone_toward_capacity():
    # shrinking capacity toward the load drives the escape probability to one
    caps = np.linspace(2.0, 1.0 + 1e-4, 50)
    values = [smib_analytic(1.0, 0.1, float(k), 1.0, 1.0).f_delta for k in caps]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9


def test_smib_f_delta_independent_of_inertia():
    values = {smib_analytic(m, 1.1, 2.0, 1.0, 0.4).f_delta for m in (0.5, 1.0, 7.0)}
    assert len(values) == 1


def test_pipeline_matches_analytic_oracle_across_parameters():
    rng = np.random.default_rng(22)
    for _ in range(5):
        K = rng.uniform(0.5, 4.0)
        P = rng.uniform(0.0, 0.9 * K)
        M = rng.uniform(0.5, 3.0)
        D = rng.uniform(0.4, 2.0)
        b = rng.uniform(0.2, 1.5)
        closed = smib_analytic(M, D, K, P, b)
        net = smib_network(M, D, K, P, b)
        state = crep.solve_synchronous_state(net)
        var = crep.solve_lyapunov(
            crep.spectral_reduce(crep.build_linearization(net, state), net)
        )
        assert var.sigma2_delta[0] == pytest.approx(closed.sigma2_delta, rel=1e-8)
        assert var.sigma2_omega[0] == pytest.approx(closed.sigma2_omega, rel=1e-8)


def test_smib_oracle_against_literal_one_dof_solve():
    # literal 2x2 Lyapunov solve of the single-machine linear SDE
    import scipy.linalg

    M, D, K, P, b = 1.7, 0.9, 3.0, 1.2, 0.8
    stiffness = math.sqrt(K**2 - P**2)
    a = np.array([[0.0, 1.0], [-stiffness / M, -D / M]])
    g = np.array([[0.0], [b / M]])
    q = scipy.linalg.solve_continuous_lyapunov(a, -g @ g.T)
    closed = smib_analytic(M, D, K, P, b)
    assert q[0, 0] == pytest.approx(closed.sigma2_delta, rel=1e-12)
    assert q[1, 1] == pytest.approx(closed.sigma2_omega, rel=1e-12)
