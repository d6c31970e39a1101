"""Closed-form low-rank self-representation on the embedded point set.

The Gram matrix of embedded subspaces, G_ij = tr[(Xj^T Xi)(Xi^T Xj)], turns
the nuclear-norm-penalized reconstruction problem

    min_Z (1/2) ||Z G^{1/2} - G^{1/2}||_F^2 + lam ||Z||_*

into a spectral shrinkage: with G = U diag(sigma) U^T the minimizer is
Z = U diag(f(sigma)) U^T where f(sigma) = 1 - lam/sigma when sigma > lam and
0 otherwise.  (Without the 1/2 the same rule would need lam/(2 sigma); the
reported objective carries the 1/2 so the shrinkage rule is its exact
minimizer.)  The same rule solves the kernelized variant for any PSD Gram
matrix; glrr-f is the kernelized solve with the projection kernel.  Z is
formed from the r eigenpairs ``psd_clamp`` keeps, which a ``KernelMatrix``
stores; ``build_delta`` is the projection kernel's ``gram``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .kernels import KernelMatrix, KernelSpec, _spectrum, gram
from .manifold import GrassmannPoint


@dataclass(frozen=True)
class LowRankCoefficients:
    """N x N representation matrix; entry (j, i) weights point j in rebuilding point i."""

    Z: np.ndarray


@dataclass(frozen=True)
class ClosedFormReport:
    """Spectrum-level account of one closed-form solve.

    ``kept_count`` is the rank of Z, the number of eigenvalues above lam.
    ``objective_value`` is the solved objective evaluated via traces,
    (1/2)[tr(G) - 2 tr(ZG) + tr(ZGZ^T)] + lam ||Z||_*, whose fit term is
    ||Z G^{1/2} - G^{1/2}||_F^2 (the embedded-space reconstruction error when
    G is the point Gram matrix).
    """

    kept_count: int
    objective_value: float


def build_delta(points: list[GrassmannPoint]) -> KernelMatrix:
    """Gram matrix of the embedded points: the projection-kernel KernelMatrix."""
    return gram(points, KernelSpec(kind="projection"))


def glrr_f_solve(G, lam: float) -> tuple[LowRankCoefficients, ClosedFormReport]:
    """Spectral-shrinkage minimizer of the square-root-space objective.

    ``G`` may be a KernelMatrix, whose stored eigenpairs are reused, or a
    symmetric array, which ``psd_clamp`` repairs first.  Either way sigma
    holds only the r eigenvalues above N eps sigma_max, and Z is rebuilt
    from their r eigenvectors.
    """
    lam = float(lam)
    if not (0.0 < lam < np.inf):
        raise InvalidConfigError(f"lambda must be positive and finite, got {lam}")
    eig = _spectrum(G)
    sigma = eig.eigenvalues
    shrunk = np.where(sigma > lam, 1.0 - lam / np.where(sigma > lam, sigma, 1.0), 0.0)
    kept = int(np.sum(shrunk > 0.0))
    Z = eig.rebuild(shrunk)

    # All traces diagonalize in the eigenbasis: tr(G) - 2 tr(ZG) + tr(ZGZ^T) is
    # sum sigma_i (1 - f_i)^2, summed without the three large terms that cancel
    residual_sq = float(np.sum(sigma * (1.0 - shrunk) ** 2))
    report = ClosedFormReport(kept_count=kept,
                              objective_value=0.5 * residual_sq + lam * float(np.sum(shrunk)))
    Z.setflags(write=False)
    return LowRankCoefficients(Z=Z), report
