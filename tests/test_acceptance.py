"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and measured numbers).
"""
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.special import erf

import crep
from crep import (
    DecisionSpec,
    ObjectiveKind,
    SearchConfig,
    SimConfig,
    apply_decision,
    estimate_hitting_time,
    evaluate_objective,
    gramian_h2_squared,
    min_max_sigma_equivalence_check,
    network_from_arrays,
    optimize,
    smib_analytic,
    smib_network,
)
from crep.baselines import braess_compare
from crep.cli import main as cli_main

from conftest import random_connected_network, ring5_net


def _pipeline_variance(net):
    state = crep.solve_synchronous_state(net)
    model = crep.build_linearization(net, state)
    reduction = crep.spectral_reduce(model, net)
    return state, reduction, crep.solve_lyapunov(reduction)


def test_criterion_01_smib_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(20):
        K = rng.uniform(0.5, 5.0)
        P = rng.uniform(0.0, 0.95 * K)
        M = rng.uniform(0.5, 3.0)
        D = rng.uniform(0.3, 3.0)
        b = rng.uniform(0.2, 2.0)
        closed = smib_analytic(M, D, K, P, b)
        _, _, variance = _pipeline_variance(smib_network(M, D, K, P, b))
        assert variance.sigma2_delta[0] == pytest.approx(closed.sigma2_delta, rel=1e-8)
        assert variance.sigma2_omega[0] == pytest.approx(closed.sigma2_omega, rel=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 (SMIB oracle equivalence, 20 draws, {elapsed:.2f}s): PASS")


def test_criterion_02_noise_damping_ratio_bounds():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    for i in range(20):
        net = random_connected_network(rng, n_min=2, n_max=8)
        if i % 4 == 0:  # equality case: uniform noise-to-damping ratio
            eta = float(rng.uniform(0.02, 0.3))
            net = net.with_arrays(noise=np.sqrt(eta * net.damping))
        _, reduction, variance = _pipeline_variance(net)
        q_delta = variance.q_y[: net.m, : net.m]

        inv_sqrt_m = 1.0 / np.sqrt(net.inertia)
        uhat = reduction.eigenvectors[:, 1:]
        mid = uhat @ np.diag(1.0 / reduction.eigenvalues[1:]) @ uhat.T
        s = net.incidence.toarray().T @ (
            inv_sqrt_m[:, None] * mid * inv_sqrt_m[None, :]
        ) @ net.incidence.toarray()

        ratios = net.noise**2 / net.damping
        eta_low, eta_high = float(ratios.min()), float(ratios.max())
        tol = 1e-9 * np.linalg.norm(s, 2)
        assert np.linalg.eigvalsh(q_delta - 0.5 * eta_low * s).min() >= -tol
        assert np.linalg.eigvalsh(0.5 * eta_high * s - q_delta).min() >= -tol
        if eta_low == eta_high:
            assert np.max(np.abs(q_delta - 0.5 * eta_low * s)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 (covariance bounds, 20 networks, {elapsed:.2f}s): PASS")


def test_criterion_03_quadrature_equivalence():
    rng = np.random.default_rng(103)
    nets = [
        network_from_arrays([0.5, -0.5], [1.0, 1.4], [0.9, 1.1], [0.3, 0.2],
                            [(1, 2, 2.0)]),
        network_from_arrays([0.4, -0.1, -0.3], [1.0, 1.5, 0.8], [0.9, 1.2, 0.6],
                            [0.3, 0.2, 0.4], [(1, 2, 1.5), (2, 3, 1.2)]),
        random_connected_network(rng, n_min=3, n_max=3),
    ]
    for net in nets:
        _, reduction, variance = _pipeline_variance(net)
        a2 = reduction.reduced_sys
        w = reduction.reduced_input @ reduction.reduced_input.T
        horizon = 10.0 / float(np.min(np.abs(np.linalg.eigvals(a2).real)))

        def integrand(t):
            e = scipy.linalg.expm(a2 * t)
            return (e @ w @ e.T).ravel()

        integral, _ = scipy.integrate.quad_vec(integrand, 0.0, horizon, epsabs=1e-10)
        assert np.max(np.abs(integral.reshape(a2.shape) - variance.q_x)) < 1e-6
    print("ACCEPTANCE 3 (Lyapunov vs quadrature, n <= 3): PASS")


def test_criterion_04_gramian_identity():
    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        c = rng.normal(size=(int(rng.integers(1, 4)), n))
        via_c = gramian_h2_squared(a, b, c, via="controllability")
        via_o = gramian_h2_squared(a, b, c, via="observability")
        assert math.isclose(via_c, via_o, rel_tol=1e-9, abs_tol=1e-9)
    print("ACCEPTANCE 4 (Gramian trace identity, 20 triples): PASS")


def test_criterion_05_smib_trends():
    M, D, K, b = 2.0, 0.2, 0.2, 1.0
    start = time.perf_counter()

    ratios = np.linspace(0.0, 0.9999, 300)
    along_p = np.array([smib_analytic(M, D, K, r * K, b).f_delta for r in ratios])
    assert np.all(np.diff(along_p) > 0.0)
    assert along_p[-1] > 0.9

    caps = np.linspace(1.05, 3.0, 200)
    along_k = np.array([smib_analytic(M, 0.5, k, 1.0, 0.6).f_delta for k in caps])
    assert np.all(np.diff(along_k) < 0.0)

    dampings = np.linspace(0.1, 3.0, 200)
    along_d = np.array([smib_analytic(M, d, 2.0, 1.0, 0.6).f_delta for d in dampings])
    assert np.all(np.diff(along_d) < 0.0)

    inertias = np.linspace(0.1, 10.0, 200)
    along_m = np.array([smib_analytic(m, 0.5, 2.0, 1.0, 0.6).f_delta for m in inertias])
    assert np.max(np.abs(along_m - along_m[0])) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 5 (SMIB trends, {elapsed:.2f}s): PASS")


def test_criterion_06_escape_variance_ordering_equivalence():
    net = ring5_net(b=(0.7, 0.1, 0.1, 0.1, 0.7))
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    assert min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0)
    print("ACCEPTANCE 6 (escape/variance ordering, 50 draws): PASS")


def test_escape_and_variance_orderings_part_once_the_frequency_tails_underflow():
    # criterion 06's spec on a network whose node 2 carries most of the noise
    net = ring5_net(b=(0.1, 0.9, 0.1, 0.1, 0.1))
    spec = DecisionSpec("damping", tuple(range(1, 6)), 4.0,
                        np.full(5, 0.4), np.full(5, 2.0))
    assert min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0, eps=0.02)
    assert min_max_sigma_equivalence_check(net, spec, n_samples=50, seed=0, eps=20.0)
    # at eps 20 every frequency tail of a damped-up node 2 is 0, so the
    # argmax of f_omega falls to node 1 while that of sigma^2 stays at node 2;
    # the check ranks such tails by their logarithms
    analysis = crep.Analysis(apply_decision(net, spec, np.array([0.6, 1.2, 0.8, 0.7, 0.7])), 20.0)
    assert not analysis.report.f_omega.any()
    assert np.argmax(analysis.report.f_omega) == 0
    assert np.argmax(analysis.variance.sigma2_omega) == 1


def test_criterion_07_ou_exit_time_oracle():
    inertia, damping, noise, eps = 1.0, 0.25, 1.0, 1.0
    rate, diffusion = damping / inertia, noise / inertia

    def integrand(x):
        return math.exp(rate * x * x / diffusion**2) * erf(
            math.sqrt(rate) * x / diffusion
        )

    integral, _ = scipy.integrate.quad(integrand, 0.0, eps, epsabs=1e-13)
    oracle = math.sqrt(math.pi) / (diffusion * math.sqrt(rate)) * integral

    net = network_from_arrays([0.0], [inertia], [damping], [noise], [])
    warm = SimConfig(dt=1e-4, t_max=1e-2, n_samples=2, eps=eps,
                     master_seed=1, exit_mode="freq_only")
    try:  # compile the kernel outside the timed section
        estimate_hitting_time(net, warm)
    except crep.AllCensoredError:
        pass

    cfg = SimConfig(dt=1e-4, t_max=100.0, n_samples=10_000, eps=eps,
                    master_seed=7, exit_mode="freq_only")
    start = time.perf_counter()
    estimate = estimate_hitting_time(net, cfg, n_workers=4)
    elapsed = time.perf_counter() - start
    rel = abs(estimate.mean - oracle) / oracle
    assert rel < 0.05
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 7 (OU oracle {oracle:.4f} vs MC {estimate.mean:.4f}, "
        f"rel {rel:.3f}, {elapsed:.1f}s): PASS"
    )


def test_criterion_08_byte_identical_reports(tmp_path):
    netfile = str(tmp_path / "ring.json")
    crep.save_network(ring5_net(), netfile)
    payloads = []
    for name, workers in (("w1.json", "1"), ("w4.json", "4")):
        out = str(tmp_path / name)
        code = cli_main([
            "hitting-time", netfile, "--samples", "400", "--tmax", "25",
            "--seed", "3", "--exit-mode", "phase_only",
            "--workers", workers, "--out", out,
        ])
        assert code == 0
        payloads.append(open(out, "rb").read())
    assert payloads[0] == payloads[1]
    print("ACCEPTANCE 8 (byte-identical across worker counts): PASS")


def test_criterion_09_optimization_raises_hitting_time():
    net = ring5_net()  # heterogeneous noise, uniform capacities
    spec = DecisionSpec("line_capacity", tuple(range(1, 6)), 5.0,
                        np.full(5, 0.2), np.full(5, 3.0))
    uniform_phi = evaluate_objective(net, ObjectiveKind.crep_phi_delta)
    result = optimize(net, spec, ObjectiveKind.crep_phi_delta,
                      search=SearchConfig(seed=1, max_evals=1200))
    assert result.objective_final <= uniform_phi

    optimized = apply_decision(net, spec, result.theta)
    sim = SimConfig(dt=1e-3, t_max=120.0, n_samples=2000, eps=0.02,
                    master_seed=11, exit_mode="phase_only")
    before = estimate_hitting_time(net, sim, n_workers=4)
    after = estimate_hitting_time(optimized, sim, n_workers=4)
    assert after.mean - after.half_width > before.mean + before.half_width
    print(
        f"ACCEPTANCE 9 (phi {uniform_phi:.3g}->{result.objective_final:.3g}, "
        f"mean exit {before.mean:.1f}->{after.mean:.1f}s, disjoint CIs): PASS"
    )


def test_criterion_10_braess_machinery():
    net = network_from_arrays(
        [0.6, -0.2, -0.4], [1.0] * 3, [0.8] * 3, [0.4, 0.3, 0.2],
        [(1, 2, 1.5), (2, 3, 1.5)],
    )
    sim = SimConfig(dt=1e-3, t_max=15.0, n_samples=100, eps=0.5,
                    master_seed=4, exit_mode="both")
    closure = braess_compare(net, net.with_added_line(3, 1, 1.0), sim=sim)
    assert set(closure.verdicts) == {
        "f_delta_norm", "min_re_mu", "gamma", "hitting_time"
    }
    for bundle in (closure.before, closure.after):
        assert math.isfinite(bundle.min_re_mu)
        assert math.isfinite(bundle.gamma)
        assert math.isfinite(bundle.crep.phi_delta)
    assert closure.hitting_before is not None and closure.hitting_after is not None

    noop = braess_compare(net, net.with_line_capacity(1, 1.5), sim=sim)
    assert all(v == "unchanged" for v in noop.verdicts.values())
    print("ACCEPTANCE 10 (four-metric table, no-op unchanged): PASS")
