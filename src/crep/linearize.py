"""Linearized stochastic model, spectral reduction and invariant variance.

The swing dynamics linearized at the synchronous state form a degenerate
2n-dimensional linear SDE whose state covariance does not settle, but whose
output (line phase gaps and node frequencies) does.  Transforming with the
orthogonal eigenbasis of ``M^{-1/2} L_c M^{-1/2}`` isolates the structural
zero mode in the first coordinate; dropping that coordinate leaves a Hurwitz
(2n-1)-dimensional system.  :func:`reduce_stack` computes that reduction
for a stack of networks at once, as arrays, and both variance solvers read
them: when the damping ratio d_i / m_i is the same at every node the modes
decouple in pairs and :func:`modal_variances` gives the stationary
covariances in closed form; otherwise the row's reduced system matrix A2
(:func:`_reduced_sys`) goes to a Lyapunov solve, whose real Schur form
also gives the slowest decay rate min |Re mu|.  Its triangular stage
splits the Schur factor recursively between 2x2 blocks and solves the
blocks mostly in matrix products; LAPACK ``trsyl`` solves each block of
at most :data:`_LYAP_LEAF` rows, so smaller systems keep scipy's sequence
of calls.  :func:`variance_stack`, the variance stage of the analysis
pipeline, reduces a stack of parameter rows and runs each row on its
solver; :func:`variance_report` runs it on a stack of one network.  The
reference chain :func:`build_linearization`, :func:`spectral_reduce`,
:func:`solve_lyapunov` gives one network's bits through objects the
pipeline never builds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateSystemError, LyapunovSolveError
from .network import Network
from .powerflow import SynchronousState, laplacians

#: eigenvalues below this times max(1, largest eigenvalue magnitude) are
#: treated as the structural zero mode
ZERO_EIG_TOL = 1e-10
#: modal eigenvalues whose gap is at most this times n eps lambda_max are one
#: cluster in the closed form (see modal_variances).  LAPACK bounds the error
#: of each eigenvalue eigh computes by p(n) eps ||A||_2, with p(n) a modestly
#: growing function of n (LAPACK Users' Guide, sec. 4.7.1), and ||A||_2 is
#: lambda_max here; with p(n) = 8n, a gap within twice that bound may be
#: roundoff between copies of one eigenvalue.  Eigh splits ring5's double
#: eigenvalues at huge capacities by at most 1.02 eps lambda_max; at its own
#: capacities their nearest pair lies 7e13 eps lambda_max apart
_CLUSTER_TOL = 16
_EPS = float(np.finfo(float).eps)
#: relative ceiling on ||A2 Q + Q A2^T + B2 B2^T||_max
LYAP_RESIDUAL_TOL = 1e-8
#: order at and below which LAPACK trsyl solves a block of the triangular
#: Lyapunov stage; larger blocks split recursively (see _triangular_lyapunov).
#: On 2 cores with BLAS on one thread the stage took 12-13 ms at 64 and
#: 15-17 ms at 32 on a 200-node grid (order 399), 58-62 ms at 64 and 60-63 ms
#: at 32 on a 400-node one (order 799), against 65-67 ms and 685-750 ms for
#: one trsyl call
_LYAP_LEAF = 64
#: LAPACK's real quasi-triangular Sylvester solver (level-2 Bartels-Stewart)
_trsyl = scipy.linalg.lapack.dtrsyl


@dataclass(frozen=True)
class LinearizedModel:
    """System matrix and cosine-weighted Laplacian at a synchronous state."""

    laplacian: np.ndarray   # (n, n) weights l_ij cos(gap_ij)
    sys_matrix: np.ndarray  # (2n, 2n)


@dataclass(frozen=True)
class SpectralReduction:
    """Eigenbasis of M^{-1/2} L_c M^{-1/2} and the deflated (2n-1) system."""

    eigenvalues: np.ndarray    # (n,) ascending, eigenvalues[0] == 0
    eigenvectors: np.ndarray   # (n, n) orthogonal columns
    reduced_sys: np.ndarray    # (2n-1, 2n-1)
    reduced_input: np.ndarray  # (2n-1, n)
    reduced_output: np.ndarray  # (m+n, 2n-1)


@dataclass(frozen=True)
class VarianceReport:
    """Stationary covariances of the reduced state and of the output."""

    q_x: np.ndarray           # (2n-1, 2n-1)
    q_y: np.ndarray           # (m+n, m+n)
    sigma2_delta: np.ndarray  # (m,) per-line phase-gap variances
    sigma2_omega: np.ndarray  # (n,) per-node frequency variances
    #: smallest |Re mu| over the spectrum of A2, read off the diagonal of the
    #: real Schur form the solve factors; A2's spectrum is the full
    #: Jacobian's less its structural zero mode
    min_re_mu: float


def build_linearization(net: Network, state: SynchronousState) -> LinearizedModel:
    """Assemble the system matrix A and the cosine-weighted Laplacian at ``state``."""
    n = net.n
    lap = cos_laplacians(net, net.capacity[None], state.output_phase_diffs[None])[0]
    inv_m = 1.0 / net.inertia
    sys_matrix = np.zeros((2 * n, 2 * n))
    sys_matrix[:n, n:] = np.eye(n)
    sys_matrix[n:, :n] = -inv_m[:, None] * lap
    sys_matrix[n:, n:] = -np.diag(inv_m * net.damping)
    return LinearizedModel(lap, sys_matrix)


def _deflate(eigvals: np.ndarray) -> list[DegenerateSystemError | None]:
    """Set the structural zero mode of each row of ``eigvals`` to 0, in place.

    Returns per row None, or the :class:`DegenerateSystemError` of a row in
    which no eigenvalue is numerically zero, or in which the second smallest
    one is too (marginally stable state, variance undefined).
    """
    zero_tol = ZERO_EIG_TOL * np.maximum(1.0, eigvals[:, -1])
    missing = eigvals[:, 0] > zero_tol
    marginal = eigvals[:, 1] <= zero_tol if eigvals.shape[1] > 1 else missing & False
    errors: list = [None] * len(eigvals)
    degenerate = missing | marginal
    if np.count_nonzero(degenerate):
        for j in np.flatnonzero(degenerate):
            errors[j] = DegenerateSystemError(
                f"no structural zero mode found (smallest eigenvalue {eigvals[j, 0]:.3e})"
                if missing[j] else
                f"second smallest eigenvalue {eigvals[j, 1]:.3e} is numerically zero; "
                "the synchronous state is marginally stable"
            )
    eigvals[:, 0] = 0.0
    return errors


def cos_laplacians(topology: Network, capacity: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """(B, n, n) cosine-weighted Laplacians: weight l_k cos(gap_k) on line k of row j.

    ``capacity`` and ``gaps`` are (B, m) rows on ``topology``'s lines.
    """
    return laplacians(capacity * np.cos(gaps), topology)


def reduce_stack(
    laplacians: np.ndarray, inertia: np.ndarray, noise: np.ndarray, topology: Network
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
           list[DegenerateSystemError | LyapunovSolveError | None]]:
    """Diagonalize the mass-scaled Laplacians of a stack and deflate their zero modes.

    ``laplacians`` holds each row's cosine-weighted Laplacian (see
    :func:`cos_laplacians`), ``inertia`` and ``noise`` its (B, n) node rows;
    the rows share ``topology``'s line ends.  One batched ``np.linalg.eigh``
    diagonalizes the whole stack, one matrix per LAPACK call, so each row
    has the bits it has in a stack of one.  Returns the stacked reduction
    ``(eigvals, vectors, b2, c2)``: the (B, n) ascending eigenvalues with
    ``eigvals[:, 0] == 0``, the (B, n, n) orthogonal eigenvectors, the
    (B, 2n-1, n) reduced noise inputs and the (B, m+n, 2n-1) output maps,
    the fields of :class:`SpectralReduction` but A2, which depends on the
    damping (see :func:`_reduced_sys`).  Also returns, per row, None or its
    :class:`DegenerateSystemError` (see :func:`_deflate`), or a
    :class:`LyapunovSolveError` where the mass-scaled Laplacian has an entry
    beyond the float range; such a row is no input of either variance solver.
    """
    n, m = topology.n, topology.m
    count = len(laplacians)
    inv_sqrt_m = 1.0 / np.sqrt(inertia)
    with np.errstate(over="ignore"):
        mass_scaled = inv_sqrt_m[:, :, None] * laplacians * inv_sqrt_m[:, None, :]
        sym = 0.5 * (mass_scaled + mass_scaled.transpose(0, 2, 1))
    # eigh would raise for the whole stack on a row beyond the float range;
    # such a row is an error, and its zeroed matrix is not read
    overflow = ()
    if not np.logical_and.reduce(np.isfinite(sym), axis=None):
        overflow = (~np.isfinite(sym).all(axis=(1, 2))).nonzero()[0]
        sym[overflow] = 0.0
    eigvals, vectors = np.linalg.eigh(sym)
    del sym  # held to the return, it adds 1 MB to sweep-grid's peak RSS
    errors = _deflate(eigvals)
    for j in overflow:
        errors[j] = LyapunovSolveError(
            "the mass-scaled Laplacian overflows double precision; no variance is defined"
        )
    # flip each eigenvector so that its first non-negligible entry is positive
    first = (np.abs(vectors) > 1e-12).argmax(axis=1)
    lead = vectors[np.arange(count)[:, None], first, np.arange(n)]
    vectors = vectors * np.copysign(1.0, lead)[:, None, :]

    b2 = np.zeros((count, 2 * n - 1, n))
    b2[:, n - 1:, :] = vectors.transpose(0, 2, 1) * (inv_sqrt_m * noise)[:, None, :]
    # output map of the deflated state: line gaps, then node frequencies
    scaled = inv_sqrt_m[:, :, None] * vectors
    c2 = np.zeros((count, m + n, 2 * n - 1))
    c2[:, :m, :n - 1] = (scaled.take(topology.line_from, axis=1)
                         - scaled.take(topology.line_to, axis=1))[:, :, 1:]
    c2[:, m:, n - 1:] = scaled
    return (eigvals, vectors, b2, c2), errors


def _reduced_sys(eigvals: np.ndarray, vectors: np.ndarray, damping: np.ndarray,
                 inertia: np.ndarray) -> np.ndarray:
    """Reduced system matrix A2 of one row of :func:`reduce_stack`'s ``eigvals``
    and ``vectors``, at its node ``damping`` and ``inertia``."""
    n = eigvals.size
    # [[0, I], [-diag(eigvals), -U^T diag(d/m) U]] less the zero mode's position
    a2 = np.zeros((2 * n - 1, 2 * n - 1))
    a2[:n - 1, n:] = np.eye(n - 1)
    a2[n - 1:, :n - 1] = -np.diag(eigvals)[:, 1:]
    a2[n - 1:, n - 1:] = -(vectors.T @ ((damping / inertia)[:, None] * vectors))
    return a2


def spectral_reduce(model: LinearizedModel, net: Network) -> SpectralReduction:
    """Diagonalize the mass-scaled Laplacian and deflate the zero mode.

    :func:`reduce_stack` on a stack of one, with the reduced system matrix.
    Raises the :class:`DegenerateSystemError` of a marginally stable state.
    """
    ((eigvals,), (vectors,), (b2,), (c2,)), (error,) = reduce_stack(
        model.laplacian[None], net.inertia[None], net.noise[None], net
    )
    if error is not None:
        raise error
    a2 = _reduced_sys(eigvals, vectors, net.damping, net.inertia)
    return SpectralReduction(eigvals, vectors, a2, b2, c2)


def solve_lyapunov(reduction: SpectralReduction) -> VarianceReport:
    """Stationary covariance of the reduced system and of the output.

    Solves ``A2 Q + Q A2^T + B2 B2^T = 0`` by the Bartels-Stewart method:
    one real Schur form ``A2 = U R U^T`` turns it into the quasi-triangular
    equation ``R Y + Y R^T = F`` with ``F = -U^T B2 B2^T U`` and
    ``Q = U Y U^T``.  :func:`_triangular_lyapunov` solves that equation by
    recursive blocking, almost entirely in matrix products; blocks of at
    most :data:`_LYAP_LEAF` rows go to LAPACK ``trsyl``, so a system of at
    most that order takes ``scipy.linalg.solve_continuous_lyapunov``'s
    sequence of calls and its bits.  The residual is validated against
    :data:`LYAP_RESIDUAL_TOL`.  The diagonal of ``R`` holds Re mu of every
    eigenvalue of A2 (a complex pair's real part on both entries of its 2x2
    block), so the same factorization gives ``min_re_mu``.

    Raises :class:`LyapunovSolveError` when a ``trsyl`` block had to perturb
    A2 because an eigenvalue pair sums to about zero (stiff networks), when
    it reports an illegal argument or scales its solution down to avoid
    overflow, or when the residual exceeds its bound.
    """
    q_x, min_re_mu = _reduced_covariance(reduction.reduced_sys, reduction.reduced_input)
    q_y = _output_covariances(q_x[None], reduction.reduced_output[None])
    return _first_report(q_x[None], q_y, output_variances(q_y), [min_re_mu])


def _reduced_covariance(a2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, float]:
    """The covariance Q of the reduced state with system matrix ``a2`` and noise
    input ``b2``, and min |Re mu|, by :func:`solve_lyapunov`'s method; raises
    its :class:`LyapunovSolveError`."""
    r, u = scipy.linalg.schur(a2, output="real")
    # noise beyond the float range overflows here; the residual test below
    # rejects the NaN that follows, with the error in place of the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = b2 @ b2.T
        f = u.T.dot((-forcing).dot(u))
    y = _triangular_lyapunov(r, f)
    min_re_mu = float(np.min(np.abs(np.diag(r))))
    q_x = u.dot(y).dot(u.T)
    del r, u, f, y  # release the factorization before the (m+n)^2 products
    q_x = 0.5 * (q_x + q_x.T)

    # q_x is exactly symmetric, so (A2 Q)^T is Q A2^T
    g = a2 @ q_x
    residual = float(np.max(np.abs(g + g.T + forcing)))
    scale = float(np.max(np.abs(forcing)))
    # a NaN residual fails the test too
    if not residual <= LYAP_RESIDUAL_TOL * max(scale, np.finfo(float).tiny):
        raise LyapunovSolveError(
            f"Lyapunov residual {residual:.3e} exceeds {LYAP_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )
    return q_x, min_re_mu


def _split(r: np.ndarray) -> int:
    """Index near the middle of quasi-triangular ``r`` that cuts no 2x2 block."""
    k = r.shape[0] // 2
    return k + 1 if r[k, k - 1] != 0.0 else k


def _triangular_lyapunov(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Y with ``R Y + Y R^T = F``, for quasi-upper-triangular R and symmetric F.

    Recursive blocked solve (Jonsson & Kagstrom 2002): with R split as
    [[R11, R12], [0, R22]] between its 2x2 blocks, Y22 solves the Lyapunov
    equation of R22, Y12 the Sylvester equation
    ``R11 Y12 + Y12 R22^T = F12 - R12 Y22`` and Y11 the Lyapunov equation
    of R11 with ``F11 - T - T^T``, ``T = R12 Y12^T``; Y21 is Y12^T, and
    F21 is not read.
    """
    n = r.shape[0]
    if n <= _LYAP_LEAF:
        return _triangular_sylvester(r, r, f)
    k = _split(r)
    r11, r12, r22 = r[:k, :k], r[:k, k:], r[k:, k:]
    y = np.empty_like(f)
    y[k:, k:] = y22 = _triangular_lyapunov(r22, f[k:, k:])
    y[:k, k:] = y12 = _triangular_sylvester(r11, r22, f[:k, k:] - r12 @ y22)
    y[k:, :k] = y12.T
    t = r12 @ y12.T
    y[:k, :k] = _triangular_lyapunov(r11, f[:k, :k] - t - t.T)
    return y


def _triangular_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with ``A X + X B^T = C``, for quasi-upper-triangular A and B.

    Splits the larger of A and B between its 2x2 blocks, as
    :func:`_triangular_lyapunov` splits R; at most :data:`_LYAP_LEAF` rows
    each, LAPACK ``trsyl`` solves the equation.
    """
    m, n = c.shape
    if max(m, n) <= _LYAP_LEAF:
        x, scale, info = _trsyl(a, b, c, tranb="T")
        if info < 0:
            raise LyapunovSolveError(f"LAPACK trsyl rejected argument {-info}")
        if info == 1:
            raise LyapunovSolveError(
                "A2 has an eigenvalue pair whose sum is numerically zero; trsyl "
                "would perturb it and return an inaccurate covariance"
            )
        if scale != 1.0:
            # X solves A X + X B^T = scale C; blocks of different scales do not combine
            raise LyapunovSolveError(
                f"LAPACK trsyl scaled a block of the solution by {scale:.3e} to avoid overflow"
            )
        return x
    x = np.empty_like(c)
    if m >= n:
        k = _split(a)
        x[k:] = x2 = _triangular_sylvester(a[k:, k:], b, c[k:])
        x[:k] = _triangular_sylvester(a[:k, :k], b, c[:k] - a[:k, k:] @ x2)
    else:
        k = _split(b)
        x[:, k:] = x2 = _triangular_sylvester(a, b[k:, k:], c[:, k:])
        x[:, :k] = _triangular_sylvester(a, b[:k, :k], c[:, :k] - x2 @ b[:k, k:].T)
    return x


def _output_covariances(q_x: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Output covariances C2 Q C2^T, symmetrized, of a stack of reduced-state
    covariances ``q_x`` and output maps ``c2``, one network per leading index."""
    q_y = c2 @ q_x @ c2.transpose(0, 2, 1)
    return 0.5 * (q_y + q_y.transpose(0, 2, 1))


def output_variances(q_y: np.ndarray) -> np.ndarray:
    """Per row of a stack of output covariances its variances: the diagonal,
    the m line gaps then the n node frequencies, with roundoff-negative
    entries clamped to 0."""
    return np.maximum(q_y.diagonal(0, -2, -1), 0.0)


def _first_report(q_x: np.ndarray, q_y: np.ndarray, diag: np.ndarray,
                  min_re_mu) -> VarianceReport:
    """The report of the first row of stacked covariances, their
    :func:`output_variances` ``diag`` and decay rates."""
    m = q_y.shape[-1] - (q_x.shape[-1] + 1) // 2
    return VarianceReport(q_x[0], q_y[0], diag[0, :m], diag[0, m:], float(min_re_mu[0]))


@np.errstate(over="ignore")
def uniform_damping_ratios(damping: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """Per row of (B, n) ``damping`` and ``inertia``, gamma where d_i / m_i is
    the same number gamma at every node, else NaN.

    A ratio beyond the float range is inf, without a warning: its row fails
    later, where its mass scaling or its 2 gamma is not finite.
    """
    ratio = damping / inertia
    return np.where(np.logical_and.reduce(ratio == ratio[:, :1], axis=1), ratio[:, 0], np.nan)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # checked at the end
def modal_variances(
    eigvals: np.ndarray, b2: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary covariances, in closed form, of networks with a uniform damping ratio.

    ``eigvals`` and ``b2`` are the (B, n) eigenvalues and (B, 2n-1, n)
    reduced noise inputs that :func:`reduce_stack` gives for networks whose
    every row has its structural zero mode (no
    :class:`DegenerateSystemError`), and ``gamma`` holds each network's ratio
    d_i / m_i, the same at all of its nodes (see
    :func:`uniform_damping_ratios`).  The modal damping term is then
    gamma I, so in the eigenbasis (lambda, U) of M^{-1/2} L_c M^{-1/2}
    each pair of modes decouples (Poolla, Bolognani & Dorfler 2017).  With
    S = U^T diag(b^2/m) U the modal forcing (the velocity rows of B2 B2^T),
    the covariances of the mode positions (P), of position and velocity (X)
    and of the velocities (V) are, for modes i, j >= 1 and the zero mode 0
    (which has a velocity only)::

        P_ij = 2 gamma S_ij / (2 gamma^2 (lambda_i + lambda_j) + (lambda_i - lambda_j)^2)
        X_ij = (lambda_i - lambda_j) P_ij / (2 gamma)
        V_ij = (lambda_i + lambda_j) P_ij / 2
        V_0j = gamma S_0j / (2 gamma^2 + lambda_j),  X_j0 = V_j0 / gamma,
        V_00 = S_00 / (2 gamma)

    and mode j decays at |Re mu| = gamma / 2 when 4 lambda_j > gamma^2,
    else lambda_j / (gamma / 2 + sqrt(gamma^2 / 4 - lambda_j)); the zero mode
    at gamma.  A row's result does not depend on the stack.  Returns the
    stacked covariances of the reduced state, in the coordinates of
    :func:`solve_lyapunov`'s eigenbasis, each row's min |Re mu|, and the
    mask of the rows where huge capacities or noise overflow the formulas:
    2 gamma, a term 2 gamma^2 (lambda_i + lambda_j) or an entry of the
    covariance is not finite (:func:`variance_stack` fails these rows, and
    those whose output covariance is not finite).  A denominator made
    infinite by (lambda_i - lambda_j)^2 alone is allowed: its quotients are
    then 0 where their true values are negligible beside the row's diagonal
    (ring5 reaches it at a capacity total near 3e154).  Eigenvalues within :data:`_CLUSTER_TOL` n eps lambda_max of
    each other count as one: their gap is set to 0, the degenerate limit,
    since eigh's roundoff in it, squared, would outgrow 2 gamma^2
    (lambda_i + lambda_j) from lambda near 1e32 gamma^2 on and decouple
    modes that symmetry couples.
    """
    n = eigvals.shape[1]
    forcing = b2[:, n - 1:, :]
    s = forcing @ forcing.transpose(0, 2, 1)
    s = 0.5 * (s + s.transpose(0, 2, 1))
    g = gamma[:, None, None]
    twice = 2.0 * g
    li, lj = eigvals[:, 1:, None], eigvals[:, None, 1:]
    total, gap = li + lj, li - lj
    cluster = _CLUSTER_TOL * n * _EPS * eigvals[:, -1, None, None]
    gap[np.abs(gap) <= cluster] = 0.0
    damped = twice * g * total
    p = twice * s[:, 1:, 1:] / (damped + gap * gap)
    q_x = np.empty((len(eigvals), 2 * n - 1, 2 * n - 1))
    v = q_x[:, n - 1:, n - 1:]
    v[:, 1:, 1:] = 0.5 * total * p
    v[:, 0, 1:] = gamma[:, None] * s[:, 0, 1:] / (2.0 * gamma[:, None] ** 2 + eigvals[:, 1:])
    v[:, 1:, 0] = v[:, 0, 1:]
    v[:, 0, 0] = s[:, 0, 0] / twice[:, 0, 0]
    q_x[:, : n - 1, : n - 1] = p
    q_x[:, : n - 1, n:] = gap * p / twice
    q_x[:, : n - 1, n - 1] = v[:, 1:, 0] / gamma[:, None]
    q_x[:, n - 1:, : n - 1] = q_x[:, : n - 1, n - 1:].transpose(0, 2, 1)

    half = 0.5 * gamma[:, None]
    slack = half * half - eigvals[:, 1:]
    rates = np.where(
        slack < 0.0, half, eigvals[:, 1:] / (half + np.sqrt(np.maximum(slack, 0.0)))
    )
    min_re_mu = np.minimum(gamma, np.minimum.reduce(rates, axis=1, initial=np.inf))
    # 2 gamma^2 + lambda_j overflows only where 2 gamma^2 (lambda_j + lambda_j) does
    overflowed = ~(
        np.isfinite(twice[:, 0, 0]) & np.logical_and.reduce(np.isfinite(damped), axis=(1, 2))
        & np.logical_and.reduce(np.isfinite(q_x), axis=(1, 2))
    )
    return q_x, min_re_mu, overflowed


def variance_stack(
    topology: Network, capacity: np.ndarray, gaps: np.ndarray,
    inertia: np.ndarray, damping: np.ndarray, noise: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], list[DegenerateSystemError | LyapunovSolveError | None]]:
    """Variance stage of a stack of parameter rows on ``topology``'s lines at their line gaps.

    ``capacity`` and ``gaps`` are (B, m) rows, the node arrays (B, n) rows;
    any may be a broadcast view.  The stack is reduced once
    (:func:`reduce_stack`).  Its rows with a uniform damping ratio run as one
    stack of :func:`modal_variances`, the others one at a time the Schur
    solve of :func:`solve_lyapunov` on their A2 (:func:`_reduced_sys`).
    Returns the stacked
    (q_x, q_y, variances, min_re_mu), ``variances`` being
    :func:`output_variances` of q_y, and per row None or its error; the
    entries of a failed row are not defined.
    """
    count, n = len(gaps), topology.n
    (eigvals, vectors, b2, c2), errors = reduce_stack(
        cos_laplacians(topology, capacity, gaps), inertia, noise, topology)
    gamma = uniform_damping_ratios(damping, inertia)
    mixed = [math.isnan(ratio) for ratio in gamma.tolist()]
    rows = [j for j, error in enumerate(errors) if error is None]
    modal = [j for j in rows if not mixed[j]]
    solved = {}
    for j in rows:
        if mixed[j]:
            try:
                solved[j] = _reduced_covariance(
                    _reduced_sys(eigvals[j], vectors[j], damping[j], inertia[j]), b2[j])
            except LyapunovSolveError as exc:
                errors[j] = exc
    if len(modal) == count:
        q_x, min_re_mu, overflowed = modal_variances(eigvals, b2, gamma)
    else:
        # allocated after the Schur solves, so that their peak holds no stack
        q_x, min_re_mu = np.zeros((count, 2 * n - 1, 2 * n - 1)), np.zeros(count)
        overflowed = np.zeros(count, dtype=bool)
        if modal:
            q_x[modal], min_re_mu[modal], overflowed[modal] = modal_variances(
                eigvals[modal], b2[modal], gamma[modal])
        for j in list(solved):
            q_x[j], min_re_mu[j] = solved.pop(j)
    # a closed form whose output covariance overflows is an error below
    with np.errstate(over="ignore", invalid="ignore"):
        q_y = _output_covariances(q_x, c2)
    if np.count_nonzero(overflowed) or not np.logical_and.reduce(np.isfinite(q_y), axis=None):
        overflowed |= ~np.isfinite(q_y).all(axis=(1, 2))
        for j in modal:
            if overflowed[j]:
                errors[j] = LyapunovSolveError(
                    "the closed-form covariance overflows: a denominator or an entry "
                    "is not finite in double precision"
                )
    return (q_x, q_y, output_variances(q_y), min_re_mu), errors


def variance_report(net: Network, state: SynchronousState) -> VarianceReport:
    """Variance stage of ``net`` at ``state``: :func:`variance_stack` on a stack of one.

    Raises the row's :class:`DegenerateSystemError` or :class:`LyapunovSolveError`.
    """
    stack, (error,) = variance_stack(
        net, net.capacity[None], state.output_phase_diffs[None],
        net.inertia[None], net.damping[None], net.noise[None])
    if error is not None:
        raise error
    return _first_report(*stack)
