"""Positive-semidefinite similarity functions between subspaces.

Four kernels are provided: the projection kernel ||X1^T X2||_F^2, the
canonical-correlation kernels (largest or summed principal-angle cosine),
and an affine blend of the summed-cosine and projection kernels.  Gram
matrices are assembled row by row from one GEMM per row, symmetric by
construction, and repaired to PSD by eigenvalue truncation when needed, with
the repair magnitude recorded.  The eigendecomposition taken for the repair
is all a ``KernelMatrix`` keeps, and all either solver reads: ``_spectrum``
is where they, and ``kernel_sqrt``, get it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .manifold import GrassmannPoint, SymEig, check_same_shape, sym_eig
from .parallel import ordered_map, system_cpus, worker_count

KERNEL_KINDS = ("projection", "cc-max", "cc-sum", "ccp")

PSD_RTOL = 1e-8
# point pairs each Gram-row thread must have to pay for starting it
GRAM_PAIRS_PER_THREAD = 1 << 14


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selection; ``alpha`` is the blend weight and only legal for ccp."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "ccp":
            a = 0.5 if self.alpha is None else float(self.alpha)
            if not (0.0 < a < 1.0):
                raise InvalidConfigError(f"ccp blend weight must be in (0,1), got {a}")
            object.__setattr__(self, "alpha", a)
        else:
            object.__setattr__(self, "alpha", None)


@dataclass(frozen=True)
class KernelMatrix:
    """N x N Gram matrix held as its post-repair eigendecomposition, and the repair magnitude."""

    eig: SymEig
    clamp_magnitude: float = 0.0

    @property
    def values(self) -> np.ndarray:
        """The matrix itself, rebuilt from ``eig`` on each read; no solver reads it."""
        return self.eig.rebuild(self.eig.eigenvalues)


def principal_angle_cosines(X1: GrassmannPoint, X2: GrassmannPoint) -> np.ndarray:
    """Singular values of X1^T X2 clipped to [0, 1]: read-only principal-angle cosines."""
    check_same_shape(X1, X2)
    s = np.linalg.svd(X1.basis.T @ X2.basis, compute_uv=False)
    out = np.clip(s, 0.0, 1.0)
    out.setflags(write=False)
    return out


def psd_clamp(K) -> tuple[SymEig, float]:
    """Truncate negative eigenvalues to zero; the Frobenius-nearest PSD matrix.

    Returns the repaired matrix's eigendecomposition, which its ``rebuild``
    turns back into the matrix, and the magnitude of the most negative
    pre-clamp eigenvalue (0.0 when no repair was needed).  Inputs whose
    smallest eigenvalue is within -1e-8 of the largest keep ``sym_eig(K)``.
    """
    eig = sym_eig(K)
    w = eig.eigenvalues
    if w[-1] >= -PSD_RTOL * max(w[0], 0.0):
        return eig, 0.0
    kept = np.maximum(w, 0.0)
    kept.setflags(write=False)
    return SymEig(eigenvalues=kept, eigenvectors=eig.eigenvectors), float(-w[-1])


def _kernel_row(cross: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel values from an (m, p, p) stack of cross products X_i^T X_j."""
    if spec.kind == "projection":
        return np.sum(cross * cross, axis=(1, 2))
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    if spec.kind == "cc-max":
        return cos[:, 0]
    if spec.kind == "cc-sum":
        return cos.sum(axis=1)
    return spec.alpha * cos.sum(axis=1) + (1.0 - spec.alpha) * np.sum(cross * cross, axis=(1, 2))


def assemble_gram(points: list[GrassmannPoint], spec: KernelSpec) -> np.ndarray:
    """Unrepaired kernel Gram matrix, one GEMM per row, exactly symmetric.

    Row i multiplies X_i^T by the stacked bases [X_i ... X_N], views the
    product as an (N - i, p, p) stack of cross products, and mirrors the
    resulting kernel values into column i.  Memory stays O(N d p + N^2).
    The cc kernels deal rows round-robin into ``gram_workers(N)`` stripes,
    which ``ordered_map`` runs on that many threads while the caller waits;
    row i and column i are written by row i alone, so the values do not
    depend on the count.  The projection kernel is one stripe, on the
    calling thread.
    """
    n = len(points)
    if n < 2:
        raise InvalidInputError(f"need at least 2 points, got {n}")
    for q in points[1:]:
        check_same_shape(points[0], q)
    p = points[0].p
    stacked = np.concatenate([q.basis for q in points], axis=1)
    K = np.empty((n, n))

    def fill(first: int, step: int) -> None:
        for i in range(first, n, step):
            cross = points[i].basis.T @ stacked[:, i * p :]
            K[i, i:] = K[i:, i] = _kernel_row(cross.reshape(p, n - i, p).transpose(1, 0, 2), spec)

    workers = 1 if spec.kind == "projection" else gram_workers(n)
    for _ in ordered_map(fill, [(t, workers) for t in range(workers)], workers):
        pass
    return K


def gram_workers(n: int) -> int:
    """``worker_count`` for an n-point cc Gram matrix here: ``GRAM_PAIRS_PER_THREAD`` pairs each."""
    return worker_count(system_cpus(), os.environ, n, n * (n + 1) // 2, GRAM_PAIRS_PER_THREAD)


def gram(points: list[GrassmannPoint], spec: KernelSpec) -> KernelMatrix:
    """Kernel Gram matrix over a point set: ``psd_clamp`` of ``assemble_gram``, no N x N copy."""
    return KernelMatrix(*psd_clamp(assemble_gram(points, spec)))


def _spectrum(G) -> SymEig:
    """The eigendecomposition a KernelMatrix carries, or ``sym_eig`` of a symmetric array."""
    return G.eig if isinstance(G, KernelMatrix) else sym_eig(G)


def kernel_sqrt(K) -> np.ndarray:
    """Symmetric PSD square root U D^{1/2} U^T of a (post-clamp) kernel matrix, by ``rebuild``."""
    eig = _spectrum(K)
    return eig.rebuild(np.sqrt(np.maximum(eig.eigenvalues, 0.0)))
