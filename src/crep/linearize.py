"""Linearized stochastic model, spectral reduction and invariant variance.

The swing dynamics linearized at the synchronous state form a degenerate
2n-dimensional linear SDE whose state covariance does not settle, but whose
output (line phase gaps and node frequencies) does.  Transforming with the
orthogonal eigenbasis of ``M^{-1/2} L_c M^{-1/2}`` isolates the structural
zero mode in the first coordinate; dropping that coordinate leaves a Hurwitz
(2n-1)-dimensional system whose Lyapunov equation yields the stationary
output covariance; the real Schur form that solves it also gives the
slowest decay rate min |Re mu|.  When the damping ratio d_i / m_i is the
same at every node the modes decouple in pairs, and
:func:`modal_variances` gives the same report in closed form, for a stack
of networks at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DegenerateSystemError, LyapunovSolveError
from .network import Network
from .powerflow import SynchronousState, _cos_laplacian, _laplacian

#: eigenvalues below this times max(1, largest eigenvalue magnitude) are
#: treated as the structural zero mode
ZERO_EIG_TOL = 1e-10
#: relative ceiling on ||A2 Q + Q A2^T + B2 B2^T||_max
LYAP_RESIDUAL_TOL = 1e-8


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
    lap = _cos_laplacian(net, state.output_phase_diffs)
    inv_m = 1.0 / net.inertia
    sys_matrix = np.zeros((2 * n, 2 * n))
    sys_matrix[:n, n:] = np.eye(n)
    sys_matrix[n:, :n] = -inv_m[:, None] * lap
    sys_matrix[n:, n:] = -np.diag(inv_m * net.damping)
    return LinearizedModel(lap, sys_matrix)


_SYEVR, _SYEVR_LWORK = scipy.linalg.get_lapack_funcs(("syevr", "syevr_lwork"), dtype=float)


def _eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of each matrix of a symmetric stack.

    Every matrix goes through the LAPACK call of ``scipy.linalg.eigh`` (``syevr``
    on the lower triangle, with the workspace its query returns) and gets its
    bits, so the closed form and the Schur path share one eigenbasis, within
    a repeated eigenvalue too.  Raises ``LinAlgError`` where ``eigh`` would.
    """
    n = sym.shape[-1]
    work, iwork, info = _SYEVR_LWORK(n, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"syevr workspace query failed: {info}")
    eigvals, vectors = np.empty(sym.shape[:-1]), np.empty(sym.shape)
    for j, matrix in enumerate(sym):
        w, v, _, _, info = _SYEVR(matrix, lower=1, lwork=int(work), liwork=int(iwork))
        if info:
            raise np.linalg.LinAlgError(f"syevr failed to converge: {info}")
        eigvals[j], vectors[j] = w, v
    return eigvals, vectors


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive.

    ``vectors`` is one (n, n) basis or a stack of them.
    """
    large = np.abs(vectors) > 1e-12
    # the first large entry of a column is the one whose running count is 1
    first = large & (large.cumsum(axis=-2) == 1)
    flip = (first & (vectors < 0.0)).any(axis=-2, keepdims=True)
    return np.where(flip, -vectors, vectors)


def _mass_scaled(laplacian: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """M^{-1/2} L M^{-1/2}, symmetrized; one network or a stack of them."""
    inv_sqrt_m = 1.0 / np.sqrt(inertia)
    sym = inv_sqrt_m[..., :, None] * laplacian * inv_sqrt_m[..., None, :]
    return 0.5 * (sym + np.swapaxes(sym, -1, -2))


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


def _reduced_output(scaled_vectors: np.ndarray, line_from: np.ndarray,
                    line_to: np.ndarray) -> np.ndarray:
    """Output map (line gaps, then node frequencies) of the deflated state.

    ``scaled_vectors`` is M^{-1/2} U for one network or a stack of them.
    """
    n, m = scaled_vectors.shape[-1], line_from.size
    c_e = np.zeros(scaled_vectors.shape[:-2] + (m + n, 2 * n))
    c_e[..., :m, :n] = scaled_vectors[..., line_from, :] - scaled_vectors[..., line_to, :]
    c_e[..., m:, n:] = scaled_vectors
    return c_e[..., 1:]


def spectral_reduce(model: LinearizedModel, net: Network) -> SpectralReduction:
    """Diagonalize the mass-scaled Laplacian and deflate the zero mode.

    Raises :class:`DegenerateSystemError` when the second smallest eigenvalue
    is numerically zero (marginally stable state, variance undefined).
    """
    n = net.n
    eigvals, vectors = _eigh(_mass_scaled(model.laplacian, net.inertia)[None])
    (error,) = _deflate(eigvals)
    if error is not None:
        raise error
    eigvals = eigvals[0]
    vectors = _fix_signs(vectors[0])
    inv_sqrt_m = 1.0 / np.sqrt(net.inertia)

    damping_term = vectors.T @ ((net.damping / net.inertia)[:, None] * vectors)
    a_e = np.zeros((2 * n, 2 * n))
    a_e[:n, n:] = np.eye(n)
    a_e[n:, :n] = -np.diag(eigvals)
    a_e[n:, n:] = -damping_term

    b_e = np.zeros((2 * n, n))
    b_e[n:, :] = vectors.T * (inv_sqrt_m * net.noise)[None, :]

    return SpectralReduction(
        eigenvalues=eigvals,
        eigenvectors=vectors,
        reduced_sys=a_e[1:, 1:],
        reduced_input=b_e[1:, :],
        reduced_output=_reduced_output(
            inv_sqrt_m[:, None] * vectors, net.line_from, net.line_to
        ),
    )


def solve_lyapunov(reduction: SpectralReduction) -> VarianceReport:
    """Stationary covariance of the reduced system and of the output.

    Solves ``A2 Q + Q A2^T + B2 B2^T = 0`` by the Bartels-Stewart method on
    one real Schur form ``A2 = U R U^T``, the same sequence of calls as
    ``scipy.linalg.solve_continuous_lyapunov``, and validates the residual
    against :data:`LYAP_RESIDUAL_TOL`.  The diagonal of ``R`` holds Re mu of
    every eigenvalue of A2 (a complex pair's real part on both entries of
    its 2x2 block), so the same factorization gives ``min_re_mu``.

    Raises :class:`LyapunovSolveError` when LAPACK ``trsyl`` had to perturb
    A2 because an eigenvalue pair sums to about zero (stiff networks), when
    it reports an illegal argument, or when the residual exceeds its bound.
    """
    a2 = reduction.reduced_sys
    forcing = reduction.reduced_input @ reduction.reduced_input.T
    r, u = scipy.linalg.schur(a2, output="real")
    f = u.T.dot((-forcing).dot(u))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (r, f))
    y, y_scale, info = trsyl(r, r, f, tranb="T")
    if info < 0:
        raise LyapunovSolveError(f"LAPACK trsyl rejected argument {-info}")
    if info == 1:
        raise LyapunovSolveError(
            "A2 has an eigenvalue pair whose sum is numerically zero; trsyl "
            "would perturb it and return an inaccurate covariance"
        )
    min_re_mu = float(np.min(np.abs(np.diag(r))))
    y *= y_scale
    q_x = u.dot(y).dot(u.T)
    del r, u, f, y  # release the factorization before the (m+n)^2 products
    q_x = 0.5 * (q_x + q_x.T)

    residual = float(np.max(np.abs(a2 @ q_x + q_x @ a2.T + forcing)))
    scale = float(np.max(np.abs(forcing)))
    if residual > LYAP_RESIDUAL_TOL * max(scale, np.finfo(float).tiny):
        raise LyapunovSolveError(
            f"Lyapunov residual {residual:.3e} exceeds {LYAP_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )

    (report,) = _output_variances(q_x[None], reduction.reduced_output[None], [min_re_mu])
    return report


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


def modal_variances(
    nets: Sequence[Network], states: Sequence[SynchronousState], gamma: np.ndarray
) -> list[VarianceReport | DegenerateSystemError]:
    """Stationary variances, in closed form, of networks with a uniform damping ratio.

    ``gamma`` holds each network's ratio d_i / m_i, the same at all of its
    nodes (see :func:`uniform_damping_ratios`).  The modal damping term is
    then gamma I, so in the eigenbasis (lambda, U) of M^{-1/2} L_c M^{-1/2}
    each pair of modes decouples (Poolla, Bolognani & Dorfler 2017).  With
    S = U^T diag(b^2/m) U the modal forcing, the covariances of the mode
    positions (P), of position and velocity (X) and of the velocities (V)
    are, for modes i, j >= 1 and the zero mode 0 (which has a velocity
    only)::

        P_ij = 2 gamma S_ij / (2 gamma^2 (lambda_i + lambda_j) + (lambda_i - lambda_j)^2)
        X_ij = (lambda_i - lambda_j) P_ij / (2 gamma)
        V_ij = (lambda_i + lambda_j) P_ij / 2
        V_0j = gamma S_0j / (2 gamma^2 + lambda_j),  X_j0 = V_j0 / gamma,
        V_00 = S_00 / (2 gamma)

    and mode j decays at |Re mu| = gamma / 2 when 4 lambda_j > gamma^2,
    else lambda_j / (gamma / 2 + sqrt(gamma^2 / 4 - lambda_j)); the zero mode
    at gamma.  The networks share their node count and line ends, and a
    row's result does not depend on the stack.  Returns, per network, its
    report (the fields of :func:`solve_lyapunov`'s, in the coordinates of
    the same eigenbasis) or the :class:`DegenerateSystemError` that
    :func:`spectral_reduce` would raise.
    """
    n, line_from, line_to = nets[0].n, nets[0].line_from, nets[0].line_to
    inertia = np.array([net.inertia for net in nets])
    noise = np.array([net.noise for net in nets])
    gaps = np.array([state.output_phase_diffs for state in states])
    weights = (np.array([net.capacity for net in nets]) * np.cos(gaps)).T
    laplacian = _laplacian(weights, nets[0]).transpose(2, 0, 1)
    lam, vectors = _eigh(_mass_scaled(laplacian, inertia))

    results = _deflate(lam)
    valid = [j for j, error in enumerate(results) if error is None]
    if not valid:
        return results
    if len(valid) < len(nets):
        gamma, lam, inertia, noise = gamma[valid], lam[valid], inertia[valid], noise[valid]
        vectors = vectors[valid]
    vectors = _fix_signs(vectors)
    inv_sqrt_m = 1.0 / np.sqrt(inertia)

    forcing = np.swapaxes(vectors, -1, -2) * (inv_sqrt_m * noise)[:, None, :]
    s = forcing @ np.swapaxes(forcing, -1, -2)
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    g = gamma[:, None, None]
    li, lj = lam[:, 1:, None], lam[:, None, 1:]
    total, gap = li + lj, li - lj
    p = 2.0 * g * s[:, 1:, 1:] / (2.0 * g * g * total + gap * gap)
    v = np.empty_like(s)
    v[:, 1:, 1:] = 0.5 * total * p
    v[:, 0, 1:] = gamma[:, None] * s[:, 0, 1:] / (2.0 * gamma[:, None] ** 2 + lam[:, 1:])
    v[:, 1:, 0] = v[:, 0, 1:]
    v[:, 0, 0] = s[:, 0, 0] / (2.0 * gamma)
    q_x = np.empty((len(valid), 2 * n - 1, 2 * n - 1))
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

    c2 = _reduced_output(inv_sqrt_m[:, :, None] * vectors, line_from, line_to)
    for j, report in zip(valid, _output_variances(q_x, c2, min_re_mu)):
        results[j] = report
    return results
