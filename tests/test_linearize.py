import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import crep as crep_package
from crep import (
    DegenerateSystemError,
    LyapunovSolveError,
    crep,
    SpectralReduction,
    build_linearization,
    linear_stability,
    network_from_arrays,
    smib_analytic,
    smib_network,
    solve_lyapunov,
    solve_synchronous_state,
    spectral_reduce,
)

from crep.linearize import (
    LYAP_RESIDUAL_TOL,
    _LYAP_LEAF,
    VarianceReport,
    _output_covariances,
    _triangular_lyapunov,
    cos_laplacians,
    modal_variances,
    output_variances,
    reduce_stack,
    uniform_damping_ratios,
    variance_stack,
)
from crep.powerflow import SynchronousState

from conftest import random_connected_network, ring5_net, two_node_net


def rows(nets, name):
    """The ``name`` arrays of networks that share their line ends, stacked."""
    return np.array([getattr(net, name) for net in nets])


def reduced(nets, states):
    """reduce_stack of networks that share their line ends, at their states."""
    gaps = np.array([state.output_phase_diffs for state in states])
    laplacians = cos_laplacians(nets[0], rows(nets, "capacity"), gaps)
    return reduce_stack(laplacians, rows(nets, "inertia"), rows(nets, "noise"), nets[0])


def stacked_variances(nets):
    """variance_stack of networks that share their line ends, at their states."""
    gaps = np.array([solve_synchronous_state(net).output_phase_diffs for net in nets])
    return variance_stack(nets[0], rows(nets, "capacity"), gaps,
                          *(rows(nets, name) for name in ("inertia", "damping", "noise")))


def assert_row_has_the_bits_of(stack, j, variance):
    """Row j of variance_stack's arrays holds the fields of ``variance``."""
    q_x, q_y, diag, min_re_mu = stack
    m = variance.sigma2_delta.size
    row = {"q_x": q_x[j], "q_y": q_y[j], "sigma2_delta": diag[j, :m],
           "sigma2_omega": diag[j, m:], "min_re_mu": min_re_mu[j]}
    for field in fields(variance):
        assert np.asarray(row[field.name]).tobytes() == \
            np.asarray(getattr(variance, field.name)).tobytes(), field.name


def damping_ratio(net):
    """uniform_damping_ratios of one network."""
    return uniform_damping_ratios(net.damping[None], net.inertia[None])


def closed_form(net, state):
    """The report of modal_variances for one network at its state."""
    (eigvals, _, b2, c2), _ = reduced([net], [state])
    q_x, min_re_mu, overflowed = modal_variances(eigvals, b2, damping_ratio(net))
    q_y = _output_covariances(q_x, c2)
    assert not overflowed.any() and np.isfinite(q_y).all()
    diag = output_variances(q_y)[0]
    return VarianceReport(q_x[0], q_y[0], diag[:net.m], diag[net.m:], float(min_re_mu[0]))


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
    c = net.incidence.toarray()
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
            (b + 1, a + 1, c) if f else (a + 1, b + 1, c)
            for a, b, c, f in zip(net.line_from, net.line_to, net.capacity, flip)
        ]
        flipped = network_from_arrays(
            net.power, net.inertia, net.damping, net.noise, lines
        )
        for case in (net, flipped):
            gaps = rng.uniform(-3.0, 3.0, case.m)
            assert np.array_equal(cos_laplacians(case, case.capacity[None], gaps[None])[0],
                                  _loop_laplacian(case, gaps))
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
    c = net.incidence.toarray()
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


def test_reduced_output_gaps_match_dense_incidence_product_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(60):
        net = random_connected_network(rng, n_max=12, extra_edge_prob=2.0)
        flip = rng.random(net.m) < 0.5
        net = network_from_arrays(
            net.power, net.inertia, net.damping, net.noise,
            [(b + 1, a + 1, c) if f else (a + 1, b + 1, c)
             for a, b, c, f in zip(net.line_from, net.line_to, net.capacity, flip)],
        )
        _, _, reduction = pipeline(net)
        scaled = (1.0 / np.sqrt(net.inertia))[:, None] * reduction.eigenvectors
        dense = net.incidence.toarray().T @ scaled
        assert np.array_equal(reduction.reduced_output[: net.m, : net.n - 1], dense[:, 1:])


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


@pytest.fixture(scope="module")
def solved_networks():
    """(model, reduction, report) of 40 seeded random networks and one of 200 nodes."""
    rng = np.random.default_rng(41)
    nets = [random_connected_network(rng) for _ in range(40)]
    nets.append(random_connected_network(np.random.default_rng(5), n_min=200, n_max=200))
    out = []
    for net in nets:
        _, model, reduction = pipeline(net)
        out.append((model, reduction, solve_lyapunov(reduction)))
    assert out[-1][1].eigenvalues.size == 200
    return out


def test_lyapunov_solve_matches_scipy_bitwise(solved_networks):
    # up to _LYAP_LEAF the triangular stage is one trsyl call, scipy's sequence;
    # above it the recursive blocks sum in another order
    assert all(r.reduced_sys.shape[0] <= _LYAP_LEAF for _, r, _ in solved_networks[:40])
    for _, reduction, report in solved_networks:
        a2 = reduction.reduced_sys
        forcing = reduction.reduced_input @ reduction.reduced_input.T
        q_x = scipy.linalg.solve_continuous_lyapunov(a2, -forcing)
        q_x = 0.5 * (q_x + q_x.T)
        if a2.shape[0] <= _LYAP_LEAF:
            assert np.array_equal(report.q_x, q_x)
        else:
            assert np.max(np.abs(report.q_x - q_x)) <= 1e-13 * np.max(np.abs(q_x))
            residual = np.max(np.abs(a2 @ report.q_x + report.q_x @ a2.T + forcing))
            assert residual <= LYAP_RESIDUAL_TOL * np.max(np.abs(forcing))


def test_min_re_mu_matches_linear_stability(solved_networks):
    for model, _, report in solved_networks:
        assert report.min_re_mu == pytest.approx(linear_stability(model), rel=1e-12)


@pytest.mark.parametrize("cap", [2.0, 2e7], ids=["two-node", "two-node-cap-2e7"])
def test_min_re_mu_of_two_node_network(cap):
    net = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, cap)])
    _, model, reduction = pipeline(net)
    report = solve_lyapunov(reduction)
    assert report.min_re_mu == pytest.approx(0.5, rel=1e-12)
    assert report.min_re_mu == pytest.approx(linear_stability(model), rel=1e-12)
    assert report.sigma2_omega == pytest.approx([0.005, 0.005], rel=1e-9)


@pytest.mark.parametrize("net", [
    smib_network(2.0, 3.0, 5e8, 3e8, 1.0),
    network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 2e8)]),
], ids=["smib-5e8", "two-node-cap-2e8"])
def test_stiff_network_raises_instead_of_perturbing(net):
    # trsyl perturbs a near-zero eigenvalue-pair sum here; the perturbed
    # solutions had SMIB sigma2_omega 0 (closed form 1/12) and two-node
    # sigma2_omega 0.00236 (closed form 0.005)
    _, _, reduction = pipeline(net)
    with pytest.raises(LyapunovSolveError, match="eigenvalue pair"):
        solve_lyapunov(reduction)


def _quasi_triangular(n, cut, seed):
    """Real Schur factor R of a seeded stable n x n matrix whose complex pairs
    make 2x2 blocks; ``cut`` says whether one straddles the middle row n // 2."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
        r, _ = scipy.linalg.schur(a, output="real")
        if (r[n // 2, n // 2 - 1] != 0.0) == cut:
            return r, rng


@pytest.mark.parametrize("cut", [False, True], ids=["between-blocks", "midpoint-in-2x2"])
@pytest.mark.parametrize("n", [_LYAP_LEAF - 1, _LYAP_LEAF, _LYAP_LEAF + 1,
                               2 * _LYAP_LEAF + 1, 3 * _LYAP_LEAF])
def test_triangular_lyapunov_matches_scipy(n, cut):
    r, rng = _quasi_triangular(n, cut, seed=n)
    c = rng.standard_normal((n, n // 2))
    f = -(c @ c.T)
    y = _triangular_lyapunov(r, f)
    reference = scipy.linalg.solve_continuous_lyapunov(r, f)
    assert np.max(np.abs(y - reference)) <= 1e-13 * np.max(np.abs(reference))
    residual = np.max(np.abs(r @ y + y @ r.T - f))
    assert residual <= LYAP_RESIDUAL_TOL * np.max(np.abs(f))


def test_eigenvalue_pair_across_the_first_split_raises():
    # mu_0 + mu_{n-1} = 0: only the Sylvester block coupling the two halves
    # of R contains that pair, each half's own Lyapunov equation is regular
    n = _LYAP_LEAF + 1
    rng = np.random.default_rng(18)
    r = np.triu(0.1 * rng.standard_normal((n, n)), 1)
    r[np.diag_indices(n)] = np.linspace(-3.0, -2.0, n)
    r[0, 0], r[-1, -1] = -1.0, 1.0
    reduction = SpectralReduction(
        eigenvalues=np.zeros(n), eigenvectors=np.eye(n), reduced_sys=r,
        reduced_input=rng.standard_normal((n, 3)), reduced_output=np.eye(n),
    )
    with pytest.raises(LyapunovSolveError, match="eigenvalue pair"):
        solve_lyapunov(reduction)


def test_a_scaled_trsyl_solution_raises(monkeypatch):
    # trsyl returns X with A X + X B^T = scale C; a scale below 1 guards overflow
    lapack_trsyl = crep_package.linearize._trsyl

    def scaled_trsyl(*args, **kwargs):
        x, _, info = lapack_trsyl(*args, **kwargs)
        return x, 0.5, info

    monkeypatch.setattr(crep_package.linearize, "_trsyl", scaled_trsyl)
    _, _, reduction = pipeline(ring5_net())
    with pytest.raises(LyapunovSolveError, match="to avoid overflow"):
        solve_lyapunov(reduction)


def _uniform_ratio_network(rng, trial):
    """Seeded random network whose d_i / m_i is exactly the same at every node."""
    net = random_connected_network(rng, n_max=10, extra_edge_prob=1.0)
    if trial % 2:
        return net.with_arrays(damping=2.0 ** int(rng.integers(-2, 2)) * net.inertia)
    inertia = float(rng.uniform(0.5, 2.0))
    return net.with_arrays(inertia=np.full(net.n, inertia),
                           damping=np.full(net.n, inertia * rng.uniform(0.2, 2.0)))


def _zero_injection_ring(n):
    """Ring of n equal lines without injections: every nonzero eigenvalue of
    its Laplacian but the largest (even n) is double."""
    lines = [(i + 1, (i + 1) % n + 1, 1.5) for i in range(n)]
    return network_from_arrays([0.0] * n, [2.0] * n, [1.0] * n, [0.1] * n, lines)


def test_uniform_damping_ratio_closed_form_matches_the_lyapunov_solve():
    rng = np.random.default_rng(16)
    # within the rings' double eigenvalues the eigensolver picks the basis of q_x
    rings = [_zero_injection_ring(n) for n in (5, 8, 64)]
    for net in [_uniform_ratio_network(rng, trial) for trial in range(60)] + rings:
        state = solve_synchronous_state(net)
        reference = solve_lyapunov(spectral_reduce(build_linearization(net, state), net))
        modal = closed_form(net, state)
        for field in ("sigma2_delta", "sigma2_omega", "min_re_mu"):
            np.testing.assert_allclose(getattr(modal, field), getattr(reference, field),
                                       rtol=1e-12, atol=0, err_msg=field)
        assert np.trace(modal.q_y) == pytest.approx(np.trace(reference.q_y), rel=1e-12)
        scale = np.max(np.abs(reference.q_x))
        assert np.max(np.abs(modal.q_x - reference.q_x)) <= 1e-12 * scale
        # the pipeline takes the closed form for these networks
        variance = crep_package.Analysis(net).variance
        assert np.array_equal(variance.q_y, modal.q_y)
        assert variance.min_re_mu == modal.min_re_mu


@pytest.mark.parametrize("n", [2, 5, 30, 120])
def test_a_reduced_stack_gives_the_bits_of_its_rows_alone(n):
    # past n = 25 LAPACK's syevd diagonalizes by divide and conquer
    net = random_connected_network(np.random.default_rng(17 + n), n_min=n, n_max=n)
    nets = [net.with_arrays(capacity=scale * net.capacity) for scale in (1.0, 1.7, 3.1)]
    states = [solve_synchronous_state(row) for row in nets]
    reduction, errors = reduced(nets, states)
    assert errors == [None] * 3
    for j, (row, state) in enumerate(zip(nets, states)):
        alone, _ = reduced([row], [state])
        for name, stacked, single in zip(("eigvals", "vectors", "b2", "c2"), reduction, alone):
            assert stacked[j].tobytes() == single[0].tobytes(), name


def test_closed_form_answers_a_stiff_network_the_lyapunov_solve_rejects():
    # two-node network, capacity 2e8, uniform ratio: trsyl would perturb it,
    # the closed form gives the exact frequency variances b^2 / (2 m d)
    net = network_from_arrays([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 2e8)])
    state = solve_synchronous_state(net)
    with pytest.raises(LyapunovSolveError):
        solve_lyapunov(spectral_reduce(build_linearization(net, state), net))
    modal = closed_form(net, state)
    assert modal.sigma2_omega == pytest.approx([0.005, 0.005], rel=1e-9)
    assert modal.min_re_mu == pytest.approx(0.5, rel=1e-12)


def test_closed_form_rejects_a_marginally_stable_state():
    net = two_node_net(p=0.0, cap=1e-14, noise=(0.1, 0.1))
    assert not np.isnan(damping_ratio(net)[0])
    with pytest.raises(DegenerateSystemError, match="marginally stable"):
        crep_package.Analysis(net).variance


def _ring5_with_total_capacity(total):
    """demo/ring5 (d/m = 0.8 at every node) with its capacities scaled to ``total``."""
    net = ring5_net()
    return net.with_arrays(capacity=net.capacity * (total / float(net.capacity.sum())))


def _mixed_damping(net):
    damping = net.damping.copy()
    damping[0] = 1.3
    return net.with_arrays(damping=damping)


@pytest.mark.parametrize("total", [1e308, 1.7e308])
def test_capacities_that_overflow_the_closed_form_raise(total):
    # at 1e308 a denominator overflows to inf, which makes p and sigma2_omega
    # wrong without a NaN; at 1.7e308 the variances are NaN
    net = _ring5_with_total_capacity(total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_synchronous_state(net)
        with pytest.raises(LyapunovSolveError, match="closed-form covariance overflows"):
            crep_package.Analysis(net).variance


@pytest.mark.parametrize("total", [1e32, 1e40, 1e100])
def test_the_closed_form_keeps_double_eigenvalues_coupled_at_huge_capacities(total):
    # ring5 grows mirror-symmetric (nodes 1-5, 2-4) as its capacities grow,
    # and its nonzero modal eigenvalues pair up; eigh splits each pair by
    # roundoff, which squared would outgrow 2 gamma^2 (lambda_i + lambda_j)
    reference = crep_package.Analysis(_ring5_with_total_capacity(1e20)).variance
    sigma2 = crep_package.Analysis(_ring5_with_total_capacity(total)).variance.sigma2_omega
    assert sigma2 == pytest.approx(sigma2[::-1], rel=1e-12)
    assert sigma2 == pytest.approx(reference.sigma2_omega, rel=1e-12)


def test_noise_that_overflows_the_closed_form_raises():
    net = ring5_net().with_arrays(noise=ring5_net().noise * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LyapunovSolveError, match="closed-form covariance overflows"):
            crep_package.Analysis(net).variance


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_noise_that_overflows_the_lyapunov_solve_raises():
    # B2 B2^T overflows, so the residual is NaN, which fails its test
    net = _mixed_damping(ring5_net().with_arrays(noise=ring5_net().noise * 1e160))
    assert np.isnan(damping_ratio(net)[0])
    with pytest.raises(LyapunovSolveError, match="Lyapunov residual nan"):
        crep_package.Analysis(net).variance


def test_noise_that_overflows_the_lyapunov_solve_raises_without_a_warning():
    noisy = _mixed_damping(ring5_net().with_arrays(noise=ring5_net().noise * 1e160))
    nets = (ring5_net(), _mixed_damping(ring5_net()))
    alone = [crep_package.Analysis(net).variance for net in nets]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LyapunovSolveError, match="Lyapunov residual nan"):
            crep_package.Analysis(noisy).variance
        stack, errors = stacked_variances([noisy, *nets])
    assert isinstance(errors[0], LyapunovSolveError) and errors[1:] == [None, None]
    for j, variance in enumerate(alone, start=1):
        assert_row_has_the_bits_of(stack, j, variance)


@pytest.mark.parametrize("mixed", [False, True], ids=["closed-form", "lyapunov"])
def test_a_laplacian_beyond_the_float_range_raises(mixed):
    # node 2's diagonal entry, 1.5e308, doubles past the float range when the
    # mass-scaled Laplacian is symmetrized; eigh of it is NaN, or raises
    # LinAlgError for the whole stack
    net = ring5_net(caps=(1e308, 5e307, 1.0, 1.0, 1.0))
    net = _mixed_damping(net) if mixed else net
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_synchronous_state(net)
        with pytest.raises(LyapunovSolveError, match="Laplacian overflows"):
            crep_package.Analysis(net).variance


def test_an_overflowing_row_leaves_its_stack_unchanged():
    ring5 = ring5_net()
    alone = crep_package.Analysis(ring5).variance
    nets = (_ring5_with_total_capacity(1e308), ring5,
            ring5_net(caps=(1e308, 5e307, 1.0, 1.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack, errors = stacked_variances(nets)
    assert isinstance(errors[0], LyapunovSolveError)
    assert errors[1] is None
    assert isinstance(errors[2], LyapunovSolveError)
    assert_row_has_the_bits_of(stack, 1, alone)
