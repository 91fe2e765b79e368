"""Linearized stochastic model, spectral reduction and invariant variance.

The swing dynamics linearized at the synchronous state form a degenerate
2n-dimensional linear SDE whose state covariance does not settle, but whose
output (line phase gaps and node frequencies) does.  Transforming with the
orthogonal eigenbasis of ``M^{-1/2} L_c M^{-1/2}`` isolates the structural
zero mode in the first coordinate; dropping that coordinate leaves a Hurwitz
(2n-1)-dimensional system.  :func:`reduce_stack` computes that reduction
for a stack of networks at once, and both variance solvers read it: when
the damping ratio d_i / m_i is the same at every node the modes decouple in
pairs and :func:`modal_variances` gives the stationary covariances in closed
form; otherwise :func:`solve_lyapunov` solves the Lyapunov equation of the
reduced system, whose real Schur form also gives the slowest decay rate
min |Re mu|.  Its triangular stage splits the Schur factor recursively
between 2x2 blocks and solves the blocks mostly in matrix products; LAPACK
``trsyl`` solves each block of at most :data:`_LYAP_LEAF` rows, so smaller
systems keep scipy's sequence of calls.  :func:`variances`, the variance
stage of the analysis pipeline, reduces a stack and runs each row on its
solver.  :func:`spectral_reduce` is the same reduction on a stack of one
network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DegenerateSystemError, LyapunovSolveError
from .network import Network
from .powerflow import SynchronousState, _laplacian

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
class StackedReduction:
    """Spectral reductions of a stack of networks, one row each: the fields of
    :class:`SpectralReduction` but the reduced system matrix, which depends
    on the damping and only the Schur path builds (:meth:`spectral_reduction`)."""

    eigenvalues: np.ndarray     # (B, n) ascending, eigenvalues[:, 0] == 0
    eigenvectors: np.ndarray    # (B, n, n) orthogonal columns
    reduced_input: np.ndarray   # (B, 2n-1, n)
    reduced_output: np.ndarray  # (B, m+n, 2n-1)

    def spectral_reduction(self, j: int, net: Network) -> SpectralReduction:
        """Row j with the reduced system matrix A2 of ``net``, the network of the row."""
        n = net.n
        eigvals, vectors = self.eigenvalues[j], self.eigenvectors[j]
        # [[0, I], [-diag(eigvals), -U^T diag(d/m) U]] less the zero mode's position
        a2 = np.zeros((2 * n - 1, 2 * n - 1))
        a2[:n - 1, n:] = np.eye(n - 1)
        a2[n - 1:, :n - 1] = -np.diag(eigvals)[:, 1:]
        a2[n - 1:, n - 1:] = -(vectors.T @ ((net.damping / net.inertia)[:, None] * vectors))
        return SpectralReduction(
            eigenvalues=eigvals,
            eigenvectors=vectors,
            reduced_sys=a2,
            reduced_input=self.reduced_input[j],
            reduced_output=self.reduced_output[j],
        )


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
    lap = cos_laplacians([net], [state])[0]
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
    if (missing | marginal).any():
        for j in np.flatnonzero(missing | marginal):
            errors[j] = DegenerateSystemError(
                f"no structural zero mode found (smallest eigenvalue {eigvals[j, 0]:.3e})"
                if missing[j] else
                f"second smallest eigenvalue {eigvals[j, 1]:.3e} is numerically zero; "
                "the synchronous state is marginally stable"
            )
    eigvals[:, 0] = 0.0
    return errors


def cos_laplacians(nets: Sequence[Network], states: Sequence[SynchronousState]) -> np.ndarray:
    """(B, n, n) cosine-weighted Laplacians: weight l_k cos(gap_k) on line k of row j.

    The gaps are those of ``states[j]``; the networks share their line ends.
    """
    gaps = np.array([state.output_phase_diffs for state in states])
    weights = np.array([net.capacity for net in nets]) * np.cos(gaps)
    return _laplacian(weights.T, nets[0]).transpose(2, 0, 1)


def reduce_stack(
    laplacians: np.ndarray, nets: Sequence[Network]
) -> tuple[StackedReduction, list[DegenerateSystemError | LyapunovSolveError | None]]:
    """Diagonalize the mass-scaled Laplacians of a stack and deflate their zero modes.

    ``laplacians`` holds each network's cosine-weighted Laplacian (see
    :func:`cos_laplacians`); the networks share their node count and line
    ends.  One batched ``np.linalg.eigh`` diagonalizes the whole stack, one
    matrix per LAPACK call, so each row has the bits it has in a stack of
    one.  Returns the reduction and, per row, None or its
    :class:`DegenerateSystemError` (see :func:`_deflate`), or a
    :class:`LyapunovSolveError` where the mass-scaled Laplacian has an entry
    beyond the float range; such a row is no input of either variance solver.
    """
    net = nets[0]
    n, m = net.n, net.m
    inv_sqrt_m = 1.0 / np.sqrt([row.inertia for row in nets])
    noise = np.array([row.noise for row in nets])
    with np.errstate(over="ignore"):
        mass_scaled = inv_sqrt_m[:, :, None] * laplacians * inv_sqrt_m[:, None, :]
        sym = 0.5 * (mass_scaled + np.swapaxes(mass_scaled, -1, -2))
    # eigh would raise for the whole stack on a row beyond the float range;
    # such a row is an error, and its zeroed matrix is not read
    overflow = ~np.isfinite(sym).all(axis=(1, 2))
    sym[overflow] = 0.0
    eigvals, vectors = np.linalg.eigh(sym)
    del sym  # held to the return, it adds 1 MB to sweep-grid's peak RSS
    errors = _deflate(eigvals)
    for j in overflow.nonzero()[0]:
        errors[j] = LyapunovSolveError(
            "the mass-scaled Laplacian overflows double precision; no variance is defined"
        )
    # flip each eigenvector so that its first non-negligible entry is positive;
    # the first large entry of a column is the one whose running count is 1
    large = np.abs(vectors) > 1e-12
    first = large & (large.cumsum(axis=-2) == 1)
    flip = (first & (vectors < 0.0)).any(axis=-2, keepdims=True)
    vectors = np.where(flip, -vectors, vectors)

    b2 = np.zeros((len(nets), 2 * n - 1, n))
    b2[:, n - 1:, :] = np.swapaxes(vectors, -1, -2) * (inv_sqrt_m * noise)[:, None, :]
    # output map of the deflated state: line gaps, then node frequencies
    scaled = inv_sqrt_m[:, :, None] * vectors
    c2 = np.zeros((len(nets), m + n, 2 * n - 1))
    c2[:, :m, :n - 1] = scaled[:, net.line_from, 1:] - scaled[:, net.line_to, 1:]
    c2[:, m:, n - 1:] = scaled
    return StackedReduction(eigenvalues=eigvals, eigenvectors=vectors,
                            reduced_input=b2, reduced_output=c2), errors


def spectral_reduce(model: LinearizedModel, net: Network) -> SpectralReduction:
    """Diagonalize the mass-scaled Laplacian and deflate the zero mode.

    :func:`reduce_stack` on a stack of one, with the reduced system matrix.
    Raises the :class:`DegenerateSystemError` of a marginally stable state.
    """
    reduction, (error,) = reduce_stack(model.laplacian[None], [net])
    if error is not None:
        raise error
    return reduction.spectral_reduction(0, net)


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
    a2 = reduction.reduced_sys
    r, u = scipy.linalg.schur(a2, output="real")
    # noise beyond the float range overflows here; the residual test below
    # rejects the NaN that follows, with the error in place of the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = reduction.reduced_input @ reduction.reduced_input.T
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

    (report,) = _output_variances(q_x[None], reduction.reduced_output[None], [min_re_mu])
    return report


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


def _output_variances(q_x: np.ndarray, c2: np.ndarray, min_re_mu) -> list[VarianceReport]:
    """Reports of a stack of reduced-state covariances seen through their output maps.

    ``q_x`` and ``c2`` carry one network per leading index, ``min_re_mu``
    one number each.
    """
    q_y = c2 @ q_x @ np.swapaxes(c2, -1, -2)
    q_y = 0.5 * (q_y + np.swapaxes(q_y, -1, -2))
    m = c2.shape[-2] - (c2.shape[-1] + 1) // 2
    # clamp roundoff-negative variances
    diag = np.maximum(np.diagonal(q_y, axis1=-2, axis2=-1), 0.0)
    return [
        VarianceReport(q_x[j], q_y[j], diag[j, :m], diag[j, m:], float(min_re_mu[j]))
        for j in range(q_x.shape[0])
    ]


def uniform_damping_ratios(nets: Sequence[Network]) -> np.ndarray:
    """Per network, gamma where d_i / m_i is the same number gamma at every
    node, else NaN; the networks share their node count."""
    ratio = np.array([net.damping for net in nets]) / np.array([net.inertia for net in nets])
    return np.where((ratio == ratio[:, :1]).all(axis=1), ratio[:, 0], np.nan)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # checked at the end
def modal_variances(
    reduction: StackedReduction, gamma: np.ndarray
) -> list[VarianceReport | LyapunovSolveError]:
    """Stationary variances, in closed form, of networks with a uniform damping ratio.

    ``reduction`` is the :func:`reduce_stack` reduction of networks whose
    every row has its structural zero mode (no :class:`DegenerateSystemError`),
    and ``gamma`` holds each network's ratio d_i / m_i, the same at all of
    its nodes (see :func:`uniform_damping_ratios`).  The modal damping term is
    then gamma I, so in the eigenbasis (lambda, U) of M^{-1/2} L_c M^{-1/2}
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
    at gamma.  A row's result does not depend on the stack.  Returns, per
    network, its report: the fields of :func:`solve_lyapunov`'s, in the
    coordinates of the same eigenbasis; or a :class:`LyapunovSolveError`
    where huge capacities or noise overflow the formulas: 2 gamma, a term
    2 gamma^2 (lambda_i + lambda_j) or an entry of its covariances is not
    finite.  A denominator made infinite by (lambda_i - lambda_j)^2 alone is
    allowed: its quotients are then 0 where their true values are negligible
    beside the row's diagonal (ring5 reaches it at a capacity total near
    3e154).  Eigenvalues within :data:`_CLUSTER_TOL` n eps lambda_max of
    each other count as one: their gap is set to 0, the degenerate limit,
    since eigh's roundoff in it, squared, would outgrow 2 gamma^2
    (lambda_i + lambda_j) from lambda near 1e32 gamma^2 on and decouple
    modes that symmetry couples.
    """
    lam = reduction.eigenvalues
    n = lam.shape[1]
    forcing = reduction.reduced_input[:, n - 1:, :]
    s = forcing @ np.swapaxes(forcing, -1, -2)
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    g = gamma[:, None, None]
    li, lj = lam[:, 1:, None], lam[:, None, 1:]
    total, gap = li + lj, li - lj
    cluster = _CLUSTER_TOL * n * np.finfo(float).eps * lam[:, -1, None, None]
    gap[np.abs(gap) <= cluster] = 0.0
    damped = 2.0 * g * g * total
    p = 2.0 * g * s[:, 1:, 1:] / (damped + gap * gap)
    v = np.empty_like(s)
    v[:, 1:, 1:] = 0.5 * total * p
    v[:, 0, 1:] = gamma[:, None] * s[:, 0, 1:] / (2.0 * gamma[:, None] ** 2 + lam[:, 1:])
    v[:, 1:, 0] = v[:, 0, 1:]
    v[:, 0, 0] = s[:, 0, 0] / (2.0 * gamma)
    q_x = np.empty((len(lam), 2 * n - 1, 2 * n - 1))
    q_x[:, : n - 1, : n - 1] = p
    q_x[:, : n - 1, n:] = gap * p / (2.0 * g)
    q_x[:, : n - 1, n - 1] = v[:, 1:, 0] / gamma[:, None]
    q_x[:, n - 1:, : n - 1] = np.swapaxes(q_x[:, : n - 1, n - 1:], -1, -2)
    q_x[:, n - 1:, n - 1:] = v

    half = 0.5 * gamma[:, None]
    slack = half * half - lam[:, 1:]
    rates = np.where(
        slack < 0.0, half, lam[:, 1:] / (half + np.sqrt(np.maximum(slack, 0.0)))
    )
    min_re_mu = np.minimum(gamma, rates.min(axis=1, initial=np.inf))
    reports = _output_variances(q_x, reduction.reduced_output, min_re_mu)
    # 2 gamma^2 + lambda_j overflows only where 2 gamma^2 (lambda_j + lambda_j) does
    finite = (
        np.isfinite(2.0 * gamma) & np.isfinite(damped).all(axis=(1, 2))
        & np.isfinite(q_x).all(axis=(1, 2))
    ).tolist()
    return [
        report if ok and np.isfinite(report.q_y).all() else LyapunovSolveError(
            "the closed-form covariance overflows: a denominator or an entry "
            "is not finite in double precision"
        )
        for ok, report in zip(finite, reports)
    ]


def variances(
    nets: Sequence[Network], states: Sequence[SynchronousState]
) -> list[VarianceReport | DegenerateSystemError | LyapunovSolveError]:
    """Variance stage of a stack of networks, which share their line ends, at their states.

    The stack is reduced once (:func:`reduce_stack`).  Its rows with a uniform
    damping ratio run as one stack of :func:`modal_variances`, the others
    :func:`solve_lyapunov` one at a time.  Returns per network its report or
    the error of its row.
    """
    reduction, results = reduce_stack(cos_laplacians(nets, states), nets)
    gamma = uniform_damping_ratios(nets)
    rows = [j for j, error in enumerate(results) if error is None]
    modal = [j for j in rows if not math.isnan(gamma[j])]
    for j in rows:
        if math.isnan(gamma[j]):
            try:
                results[j] = solve_lyapunov(reduction.spectral_reduction(j, nets[j]))
            except LyapunovSolveError as exc:
                results[j] = exc
    if modal:
        if len(modal) < len(nets):
            reduction = StackedReduction(*(getattr(reduction, f.name)[modal]
                                           for f in fields(reduction)))
        solved = modal_variances(reduction, gamma[modal])
        for j, result in zip(modal, solved):
            results[j] = result
    return results
