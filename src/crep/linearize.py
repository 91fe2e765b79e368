"""Linearized stochastic model, spectral reduction and invariant variance.

The swing dynamics linearized at the synchronous state form a degenerate
2n-dimensional linear SDE whose state covariance does not settle, but whose
output (line phase gaps and node frequencies) does.  Transforming with the
orthogonal eigenbasis of ``M^{-1/2} L_c M^{-1/2}`` isolates the structural
zero mode in the first coordinate; dropping that coordinate leaves a Hurwitz
(2n-1)-dimensional system whose Lyapunov equation yields the stationary
output covariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateSystemError, LyapunovSolveError
from .network import Network
from .powerflow import SynchronousState, _cos_laplacian

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


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
    return out


def spectral_reduce(model: LinearizedModel, net: Network) -> SpectralReduction:
    """Diagonalize the mass-scaled Laplacian and deflate the zero mode.

    Raises :class:`DegenerateSystemError` when the second smallest eigenvalue
    is numerically zero (marginally stable state, variance undefined).
    """
    n, m = net.n, net.m
    inv_sqrt_m = 1.0 / np.sqrt(net.inertia)
    sym = inv_sqrt_m[:, None] * model.laplacian * inv_sqrt_m[None, :]
    sym = 0.5 * (sym + sym.T)
    eigvals, vectors = scipy.linalg.eigh(sym)
    zero_tol = ZERO_EIG_TOL * max(1.0, float(eigvals[-1]))
    if eigvals[0] > zero_tol:
        raise DegenerateSystemError(
            f"no structural zero mode found (smallest eigenvalue {eigvals[0]:.3e})"
        )
    eigvals = eigvals.copy()
    eigvals[0] = 0.0
    if n >= 2 and eigvals[1] <= zero_tol:
        raise DegenerateSystemError(
            f"second smallest eigenvalue {eigvals[1]:.3e} is numerically zero; "
            "the synchronous state is marginally stable"
        )
    vectors = _fix_signs(vectors)

    damping_term = vectors.T @ ((net.damping / net.inertia)[:, None] * vectors)
    a_e = np.zeros((2 * n, 2 * n))
    a_e[:n, n:] = np.eye(n)
    a_e[n:, :n] = -np.diag(eigvals)
    a_e[n:, n:] = -damping_term

    b_e = np.zeros((2 * n, n))
    b_e[n:, :] = vectors.T * (inv_sqrt_m * net.noise)[None, :]

    scaled_vectors = inv_sqrt_m[:, None] * vectors
    c_e = np.zeros((m + n, 2 * n))
    c_e[:m, :n] = net.incidence_array.T @ scaled_vectors
    c_e[m:, n:] = scaled_vectors

    return SpectralReduction(
        eigenvalues=eigvals,
        eigenvectors=vectors,
        reduced_sys=a_e[1:, 1:],
        reduced_input=b_e[1:, :],
        reduced_output=c_e[:, 1:],
    )


def solve_lyapunov(reduction: SpectralReduction) -> VarianceReport:
    """Stationary covariance of the reduced system and of the output.

    Solves ``A2 Q + Q A2^T + B2 B2^T = 0`` by the Schur (Bartels-Stewart)
    method and validates the residual against :data:`LYAP_RESIDUAL_TOL`.
    """
    a2 = reduction.reduced_sys
    forcing = reduction.reduced_input @ reduction.reduced_input.T
    q_x = scipy.linalg.solve_continuous_lyapunov(a2, -forcing)
    q_x = 0.5 * (q_x + q_x.T)

    residual = float(np.max(np.abs(a2 @ q_x + q_x @ a2.T + forcing)))
    scale = float(np.max(np.abs(forcing)))
    if residual > LYAP_RESIDUAL_TOL * max(scale, np.finfo(float).tiny):
        raise LyapunovSolveError(
            f"Lyapunov residual {residual:.3e} exceeds {LYAP_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )

    c2 = reduction.reduced_output
    q_y = c2 @ q_x @ c2.T
    q_y = 0.5 * (q_y + q_y.T)
    m = c2.shape[0] - reduction.eigenvalues.shape[0]
    diag = np.maximum(np.diag(q_y), 0.0)  # clamp roundoff-negative variances
    return VarianceReport(
        q_x=q_x,
        q_y=q_y,
        sigma2_delta=diag[:m],
        sigma2_omega=diag[m:],
    )
