"""Closed-form low-rank self-representation on the embedded point set.

The Gram matrix of embedded subspaces, G_ij = tr[(Xj^T Xi)(Xi^T Xj)], turns
the nuclear-norm-penalized reconstruction problem

    min_Z (1/2) ||Z G^{1/2} - G^{1/2}||_F^2 + lam ||Z||_*

into a spectral shrinkage: with G = U diag(sigma) U^T the minimizer is
Z = U diag(f(sigma)) U^T where f(sigma) = 1 - lam/sigma when sigma > lam and
0 otherwise.  (Without the 1/2 the same rule would need lam/(2 sigma); the
reported objective carries the 1/2 so the shrinkage rule is its exact
minimizer.)  The same rule solves the kernelized variant for any PSD Gram
matrix; glrr-f is the kernelized solve with the projection kernel.  Every
Gram matrix is a ``KernelMatrix``, whose stored eigendecomposition the solve
reads; ``build_delta`` is the projection kernel's ``gram``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .kernels import KernelMatrix, KernelSpec, _spectrum, gram
from .manifold import GrassmannPoint

EIG_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class LowRankCoefficients:
    """N x N representation matrix; entry (j, i) weights point j in rebuilding point i."""

    Z: np.ndarray


@dataclass(frozen=True)
class ClosedFormReport:
    """Spectrum-level account of one closed-form solve.

    ``objective_value`` is the solved objective evaluated via traces,
    (1/2)[tr(G) - 2 tr(ZG) + tr(ZGZ^T)] + lam ||Z||_*; ``residual_sq`` is
    the unhalved fit term ||Z G^{1/2} - G^{1/2}||_F^2 (equal to the
    embedded-space reconstruction error when G is the point Gram matrix)
    and ``nuclear_norm`` the penalty term.
    """

    lam: float
    eigenvalues_sigma: np.ndarray
    kept_count: int
    objective_value: float
    residual_sq: float
    nuclear_norm: float


def build_delta(points: list[GrassmannPoint]) -> KernelMatrix:
    """Gram matrix of the embedded points: the projection-kernel KernelMatrix."""
    return gram(points, KernelSpec(kind="projection"))


def glrr_f_solve(G, lam: float) -> tuple[LowRankCoefficients, ClosedFormReport]:
    """Spectral-shrinkage minimizer of the square-root-space objective.

    ``G`` may be a KernelMatrix (whose stored eigendecomposition is reused)
    or a plain symmetric PSD array (assumed already clamped).
    Eigenvalues below 1e-12 of the largest are treated as zero before the
    shrinkage rule is applied.
    """
    lam = float(lam)
    if not (0.0 < lam < np.inf):
        raise InvalidConfigError(f"lambda must be positive and finite, got {lam}")
    eig = _spectrum(G)
    sigma = eig.eigenvalues
    U = eig.eigenvectors

    cutoff = EIG_ZERO_RTOL * max(sigma[0], 0.0)
    effective = np.where(sigma > cutoff, sigma, 0.0)
    shrunk = np.where(effective > lam, 1.0 - lam / np.where(effective > lam, effective, 1.0), 0.0)
    kept = int(np.sum(shrunk > 0.0))
    Z = (U * shrunk) @ U.T
    Z = (Z + Z.T) / 2.0

    # All traces diagonalize in U: tr(ZG) = sum f_i sigma_i, etc.
    residual_sq = float(np.sum(sigma) - 2.0 * np.sum(shrunk * sigma) + np.sum(shrunk**2 * sigma))
    nuclear = float(np.sum(shrunk))
    report = ClosedFormReport(
        lam=lam,
        eigenvalues_sigma=sigma,
        kept_count=kept,
        objective_value=0.5 * residual_sq + lam * nuclear,
        residual_sq=residual_sq,
        nuclear_norm=nuclear,
    )
    Z.setflags(write=False)
    return LowRankCoefficients(Z=Z), report
