"""Orthonormal-basis subspaces, their embedding, and the one spectral seam.

A data object is a p-dimensional subspace of R^d held as a d x p orthonormal
basis, compared through the projection embedding X -> X X^T, so everything
downstream depends only on the span.  Every N x N eigendecomposition, of a
Gram matrix or of the ncut Laplacian, is ``sym_eig``; ``SymEig.rebuild``
forms V f(w) V^T from one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RankDeficientError

ORTHONORMAL_TOL = 1e-10
SYMMETRY_TOL = 1e-8
RANK_RTOL = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    M = np.asarray(values, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InvalidInputError(f"{name} must be 2-D with positive shape, got {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return M


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def rebuild(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V^T for these eigenvectors V, made exactly symmetric as (M + M^T)/2."""
        M = (self.eigenvectors * values) @ self.eigenvectors.T
        return (M + M.T) / 2.0


@dataclass(frozen=True)
class GrassmannPoint:
    """A p-dimensional subspace of R^d as an immutable d x p orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        B = as_matrix(self.basis, "basis")
        d, p = B.shape
        if p > d:
            raise InvalidInputError(f"subspace dimension {p} exceeds ambient dimension {d}")
        gram = B.T @ B
        if np.max(np.abs(gram - np.eye(p))) > ORTHONORMAL_TOL:
            raise InvalidInputError("basis columns are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", _frozen(B))

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def p(self) -> int:
        return self.basis.shape[1]


def canonical_signs(U: np.ndarray) -> np.ndarray:
    """+-1 per column that makes each column's largest-magnitude entry positive.

    argmax takes the lowest index on ties, so repeated runs agree bit-for-bit;
    multiplying by +-1.0 is exact.
    """
    top = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    return np.where(top < 0.0, -1.0, 1.0)


def sym_eig(A) -> SymEig:
    """Eigendecomposition of a (nearly) symmetric matrix, descending order.

    Asymmetry up to 1e-8 of the largest entry, both in max norm, is tolerated
    and symmetrized away, so the outcome does not depend on A's scale;
    anything larger is rejected.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"matrix must be square, got {A.shape}")
    if np.max(np.abs(A - A.T)) > SYMMETRY_TOL * np.max(np.abs(A)):
        raise InvalidInputError("matrix asymmetry exceeds 1e-8 of its largest entry")
    sym = (A + A.T) / 2.0
    w, V = np.linalg.eigh(sym)
    return SymEig(eigenvalues=_frozen(w[::-1]), eigenvectors=_frozen(V[:, ::-1]))


def orthonormalize(M, p: int) -> GrassmannPoint:
    """First p left singular vectors of M as a Grassmann point.

    Raises RankDeficientError when fewer than p singular values exceed
    1e-12 times the largest.
    """
    M = as_matrix(M, "M")
    d, q = M.shape
    if p < 1 or p > min(d, q):
        raise InvalidInputError(f"p={p} must lie in [1, min{M.shape}]")
    U, S, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(S > RANK_RTOL * S[0]))
    if rank < p:
        raise RankDeficientError(
            f"numerical rank {rank} is below requested dimension {p}", achieved_rank=rank
        )
    return GrassmannPoint(basis=(U * canonical_signs(U))[:, :p])


def project_embed(X: GrassmannPoint) -> np.ndarray:
    """Symmetric idempotent d x d projector X X^T onto span(X)."""
    return X.basis @ X.basis.T


def check_same_shape(X1: GrassmannPoint, X2: GrassmannPoint) -> None:
    if X1.d != X2.d or X1.p != X2.p:
        raise InvalidInputError(
            f"points live on different manifolds: ({X1.p},{X1.d}) vs ({X2.p},{X2.d})"
        )
