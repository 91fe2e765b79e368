import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from crep import (
    DegenerateSystemError,
    crep,
    SpectralReduction,
    build_linearization,
    network_from_arrays,
    smib_analytic,
    smib_network,
    solve_lyapunov,
    solve_synchronous_state,
    spectral_reduce,
)

from crep.powerflow import _cos_laplacian

from conftest import random_connected_network, ring5_net, two_node_net


def pipeline(net):
    state = solve_synchronous_state(net)
    model = build_linearization(net, state)
    reduction = spectral_reduce(model, net)
    return state, model, reduction


def ratio_bound_matrix(net, reduction):
    """C^T M^{-1/2} Uhat diag(1/lambda) Uhat^T M^{-1/2} C from the reduction."""
    inv_sqrt_m = 1.0 / np.sqrt(net.inertia)
    uhat = reduction.eigenvectors[:, 1:]
    mid = uhat @ np.diag(1.0 / reduction.eigenvalues[1:]) @ uhat.T
    weighted = inv_sqrt_m[:, None] * mid * inv_sqrt_m[None, :]
    c = net.incidence_array
    return c.T @ weighted @ c


def test_laplacian_two_node_zero_state():
    net = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.0] * 2, [(1, 2, 2.0)])
    _, model, _ = pipeline(net)
    assert np.allclose(model.laplacian, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-15)


def test_laplacian_smib_effective_stiffness():
    # K = 5, P = 3: the linearized line weight is K cos(asin(P/K)) = 4
    net = smib_network(2.0, 3.0, 5.0, 3.0, 1.0)
    _, model, _ = pipeline(net)
    assert model.laplacian[0, 0] == pytest.approx(4.0, rel=1e-12)
    assert model.laplacian[0, 1] == pytest.approx(-4.0, rel=1e-12)


def test_laplacian_vanishes_near_domain_boundary():
    from crep.powerflow import SynchronousState

    gap = math.pi / 2 - 1e-8
    net = two_node_net(p=2.0 * math.sin(gap), cap=2.0)
    state = SynchronousState(
        phase=np.array([0.0, -gap]),
        output_phase_diffs=np.array([gap]),
        residual=0.0,
    )
    model = build_linearization(net, state)
    assert abs(model.laplacian[0, 1]) < 1e-7


def _loop_laplacian(net, gaps):
    lap = np.zeros((net.n, net.n))
    for k in range(net.m):
        a, b = net.line_from[k], net.line_to[k]
        w = net.capacity[k] * np.cos(gaps[k])
        lap[a, b] -= w
        lap[b, a] -= w
        lap[a, a] += w
        lap[b, b] += w
    return lap


def test_cos_laplacian_matches_per_line_loop_bitwise():
    rng = np.random.default_rng(15)
    for _ in range(40):
        net = random_connected_network(rng, n_max=12, extra_edge_prob=2.0)
        flip = rng.random(net.m) < 0.5
        lines = [
            (line.to_node, line.from_node, line.capacity) if f
            else (line.from_node, line.to_node, line.capacity)
            for line, f in zip(net.lines, flip)
        ]
        flipped = network_from_arrays(
            net.power, net.inertia, net.damping, net.noise, lines
        )
        for case in (net, flipped):
            gaps = rng.uniform(-3.0, 3.0, case.m)
            assert np.array_equal(_cos_laplacian(case, gaps), _loop_laplacian(case, gaps))
            state = solve_synchronous_state(case)
            assert np.array_equal(
                build_linearization(case, state).laplacian,
                _loop_laplacian(case, state.output_phase_diffs),
            )


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_stiff_network_variances_match_gibbs_oracle(scale):
    # b_i^2 / d_i = eta for all i: the stationary law is Gibbs, so the
    # frequency variances are eta / (2 m_i) and the gap variances eta / 2
    # times the effective resistances of the cos-weighted graph
    eta = 0.05
    base = ring5_net()
    net = base.with_arrays(noise=np.sqrt(eta * base.damping), capacity=base.capacity * scale)
    state = solve_synchronous_state(net)
    report = solve_lyapunov(spectral_reduce(build_linearization(net, state), net))
    c = net.incidence_array
    lap = c @ np.diag(net.capacity * np.cos(state.output_phase_diffs)) @ c.T
    resistance = np.diag(c.T @ np.linalg.pinv(lap) @ c)
    assert np.allclose(report.sigma2_omega, eta / (2.0 * net.inertia), rtol=1e-8, atol=0)
    assert np.allclose(report.sigma2_delta, 0.5 * eta * resistance, rtol=1e-8, atol=0)
    assert 0.0 < crep(net).phi < 1.0


def test_system_matrix_block_structure():
    rng = np.random.default_rng(2)
    net = random_connected_network(rng)
    state, model, _ = pipeline(net)
    n = net.n
    a = model.sys_matrix
    assert np.array_equal(a[:n, :n], np.zeros((n, n)))
    assert np.array_equal(a[:n, n:], np.eye(n))
    assert np.allclose(a[n:, :n], -(1.0 / net.inertia)[:, None] * model.laplacian)
    assert np.allclose(np.diag(a[n:, n:]), -net.damping / net.inertia)
    assert np.allclose(model.laplacian.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(model.laplacian, model.laplacian.T, atol=1e-15)


def test_spectrum_two_node():
    net = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 2.0)])
    _, _, reduction = pipeline(net)
    assert np.allclose(reduction.eigenvalues, [0.0, 4.0], atol=1e-12)
    # uniform inertia: kernel vector is the normalized all-ones vector
    assert np.allclose(reduction.eigenvectors[:, 0], np.full(2, 1 / math.sqrt(2)), atol=1e-12)


def test_spectrum_complete_triangle():
    net = network_from_arrays(
        [0.0] * 3, [1.0] * 3, [1.0] * 3, [0.1] * 3,
        [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)],
    )
    _, _, reduction = pipeline(net)
    assert np.allclose(reduction.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_kernel_vector_scales_with_sqrt_inertia():
    rng = np.random.default_rng(3)
    net = random_connected_network(rng)
    _, _, reduction = pipeline(net)
    expected = np.sqrt(net.inertia)
    expected /= np.linalg.norm(expected)
    u1 = reduction.eigenvectors[:, 0]
    assert np.allclose(np.abs(u1), expected, atol=1e-8)


def test_eigendecomposition_reconstructs_scaled_laplacian():
    rng = np.random.default_rng(5)
    for _ in range(5):
        net = random_connected_network(rng)
        _, model, reduction = pipeline(net)
        inv_sqrt_m = 1.0 / np.sqrt(net.inertia)
        sym = inv_sqrt_m[:, None] * model.laplacian * inv_sqrt_m[None, :]
        u, lam = reduction.eigenvectors, reduction.eigenvalues
        assert np.max(np.abs(u.T @ sym @ u - np.diag(lam))) < 1e-10
        assert np.max(np.abs(u.T @ u - np.eye(net.n))) < 1e-12


def test_eigenvector_sign_determinism():
    rng = np.random.default_rng(6)
    net = random_connected_network(rng)
    _, model, r1 = pipeline(net)
    r2 = spectral_reduce(model, net)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
    first_rows = [
        col[np.flatnonzero(np.abs(col) > 1e-12)[0]] for col in r1.eigenvectors.T
    ]
    assert all(v > 0 for v in first_rows)


def test_marginally_stable_network_is_degenerate():
    net = two_node_net(p=0.0, cap=1e-14, noise=(0.1, 0.1))
    state = solve_synchronous_state(net)
    model = build_linearization(net, state)
    with pytest.raises(DegenerateSystemError):
        spectral_reduce(model, net)


def test_reduced_dimensions_and_hurwitz():
    rng = np.random.default_rng(8)
    net = random_connected_network(rng)
    _, _, reduction = pipeline(net)
    n, m = net.n, net.m
    assert reduction.reduced_sys.shape == (2 * n - 1, 2 * n - 1)
    assert reduction.reduced_input.shape == (2 * n - 1, n)
    assert reduction.reduced_output.shape == (m + n, 2 * n - 1)
    assert np.max(np.linalg.eigvals(reduction.reduced_sys).real) < 0.0


def test_scalar_lyapunov_solve():
    reduction = SpectralReduction(
        eigenvalues=np.array([0.0]),
        eigenvectors=np.eye(1),
        reduced_sys=np.array([[-1.0]]),
        reduced_input=np.array([[math.sqrt(2.0)]]),
        reduced_output=np.array([[1.0]]),
    )
    report = solve_lyapunov(reduction)
    assert report.q_x[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert report.sigma2_omega[0] == pytest.approx(1.0, rel=1e-14)
    assert report.sigma2_delta.size == 0


def test_smib_variances_match_closed_form():
    closed = smib_analytic(2.0, 3.0, 5.0, 3.0, 1.0)
    assert closed.sigma2_delta == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert closed.sigma2_omega == pytest.approx(1.0 / 12.0, rel=1e-15)
    net = smib_network(2.0, 3.0, 5.0, 3.0, 1.0)
    _, _, reduction = pipeline(net)
    report = solve_lyapunov(reduction)
    assert report.sigma2_delta[0] == pytest.approx(closed.sigma2_delta, rel=1e-8)
    assert report.sigma2_omega[0] == pytest.approx(closed.sigma2_omega, rel=1e-8)


def test_uniform_noise_damping_ratio_equality_case():
    # b_i^2 / d_i identical: the phase-gap covariance equals (eta/2) S exactly
    rng = np.random.default_rng(9)
    eta = 0.09
    for _ in range(5):
        net = random_connected_network(rng)
        net = net.with_arrays(
            inertia=np.ones(net.n), noise=np.sqrt(eta * net.damping)
        )
        _, _, reduction = pipeline(net)
        report = solve_lyapunov(reduction)
        q_delta = report.q_y[: net.m, : net.m]
        s = ratio_bound_matrix(net, reduction)
        assert np.max(np.abs(q_delta - 0.5 * eta * s)) < 1e-9


def test_noise_damping_ratio_bounds():
    rng = np.random.default_rng(10)
    for _ in range(5):
        net = random_connected_network(rng)
        _, _, reduction = pipeline(net)
        report = solve_lyapunov(reduction)
        q_delta = report.q_y[: net.m, : net.m]
        s = ratio_bound_matrix(net, reduction)
        ratios = net.noise**2 / net.damping
        eta_low, eta_high = ratios.min(), ratios.max()
        tol = 1e-9 * np.linalg.norm(s, 2)
        assert np.linalg.eigvalsh(q_delta - 0.5 * eta_low * s).min() >= -tol
        assert np.linalg.eigvalsh(0.5 * eta_high * s - q_delta).min() >= -tol


def test_covariance_matches_quadrature_on_small_instance():
    net = network_from_arrays(
        [0.4, -0.1, -0.3], [1.0, 1.5, 0.8], [0.9, 1.2, 0.6], [0.3, 0.2, 0.4],
        [(1, 2, 1.5), (2, 3, 1.2)],
    )
    _, _, reduction = pipeline(net)
    report = solve_lyapunov(reduction)
    a2 = reduction.reduced_sys
    w = reduction.reduced_input @ reduction.reduced_input.T
    horizon = 10.0 / np.min(np.abs(np.linalg.eigvals(a2).real))

    def integrand(t):
        e = scipy.linalg.expm(a2 * t)
        return (e @ w @ e.T).ravel()

    integral, _ = scipy.integrate.quad_vec(integrand, 0.0, horizon, epsabs=1e-10)
    assert np.max(np.abs(integral.reshape(a2.shape) - report.q_x)) < 1e-6


def test_line_variance_diagonal_formula_uniform_inertia():
    # unit inertia: S_kk = sum_q (u_{i,q+1} - u_{j,q+1})^2 / lambda_{q+1}
    rng = np.random.default_rng(13)
    net = random_connected_network(rng)
    net = net.with_arrays(inertia=np.ones(net.n))
    _, _, reduction = pipeline(net)
    s = ratio_bound_matrix(net, reduction)
    u, lam = reduction.eigenvectors, reduction.eigenvalues
    for k in range(net.m):
        i, j = net.line_from[k], net.line_to[k]
        expected = sum(
            (u[i, q] - u[j, q]) ** 2 / lam[q] for q in range(1, net.n)
        )
        assert s[k, k] == pytest.approx(expected, rel=1e-10)


def test_lyapunov_residual_certified_on_random_networks():
    rng = np.random.default_rng(14)
    for _ in range(8):
        net = random_connected_network(rng)
        _, _, reduction = pipeline(net)
        report = solve_lyapunov(reduction)
        a2 = reduction.reduced_sys
        w = reduction.reduced_input @ reduction.reduced_input.T
        residual = np.max(np.abs(a2 @ report.q_x + report.q_x @ a2.T + w))
        assert residual <= 1e-8 * np.max(np.abs(w))
        assert np.all(np.diag(report.q_y) >= 0.0)
        assert np.allclose(report.q_y, reduction.reduced_output @ report.q_x
                           @ reduction.reduced_output.T, atol=1e-12)
