"""Positive-semidefinite similarity functions between subspaces.

Four kernels are provided: the projection kernel ||X1^T X2||_F^2, the
canonical-correlation kernels (largest or summed principal-angle cosine),
and an affine blend of the summed-cosine and projection kernels.  Gram
matrices are assembled row by row from one GEMM per row, symmetric by
construction, and repaired to PSD by keeping only the eigenpairs of their
numerical range, with the repair magnitude recorded.  Those r <= N eigenpairs,
``psd_clamp``'s ``KernelMatrix``, are all either solver reads: ``_spectrum``
is where they, and ``kernel_sqrt``, get them, for a plain array too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .manifold import GrassmannPoint, _frozen, _symmetrize, check_same_shape, sym_eig
from .parallel import ordered_map, system_cpus, worker_count

KERNEL_KINDS = ("projection", "cc-max", "cc-sum", "ccp")

PSD_RTOL = 1e-8
# point pairs each Gram-row thread must have to pay for starting it
GRAM_PAIRS_PER_THREAD = 1 << 14


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selection and ccp's blend weight ``alpha``, 0.5 when None.

    ``alpha`` is checked to lie in (0, 1) for every kind and kept for ccp only.
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidConfigError(f"unknown kernel kind {self.kind!r}")
        a = 0.5 if self.alpha is None else float(self.alpha)
        if not (0.0 < a < 1.0):
            raise InvalidConfigError(f"ccp blend weight must be in (0,1), got {a}")
        object.__setattr__(self, "alpha", a if self.kind == "ccp" else None)


@dataclass(frozen=True)
class KernelMatrix:
    """N x N Gram matrix held as ``psd_clamp``'s N x r eigenpairs, and the repair magnitude."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamp_magnitude: float = 0.0

    def rebuild(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V^T for these eigenvectors V, made exactly symmetric as (M + M^T)/2."""
        return _symmetrize((self.eigenvectors * values) @ self.eigenvectors.T)

    @property
    def values(self) -> np.ndarray:
        """The matrix itself, rebuilt from the eigenpairs on each read; no solver reads it."""
        return self.rebuild(self.eigenvalues)


def psd_clamp(K) -> KernelMatrix:
    """K's eigenpairs above N eps max(lambda_max, 0) and the repair magnitude, as a KernelMatrix.

    The threshold is numpy ``matrix_rank``'s.  ``sym_eig``'s order is
    ascending, so the r pairs kept are its last r, still ascending; their
    eigenvectors are a read-only N x r copy, which frees the N - r dropped.
    The magnitude is the most negative eigenvalue's when it is below
    -1e-8 lambda_max, else 0.0.
    """
    w, V = sym_eig(K)
    top = max(w[-1], 0.0)
    drop = w.size - int(np.count_nonzero(w > w.size * np.finfo(np.float64).eps * top))
    magnitude = float(-w[0]) if w[0] < -PSD_RTOL * top else 0.0
    return KernelMatrix(w[drop:], _frozen(V[:, drop:]), magnitude)


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
    return psd_clamp(assemble_gram(points, spec))


def _spectrum(G) -> KernelMatrix:
    """G itself when it is a KernelMatrix, else ``psd_clamp`` of the symmetric array G."""
    return G if isinstance(G, KernelMatrix) else psd_clamp(G)


def kernel_sqrt(K) -> np.ndarray:
    """Symmetric PSD square root U D^{1/2} U^T over the kept eigenpairs, by ``rebuild``."""
    G = _spectrum(K)
    return G.rebuild(np.sqrt(G.eigenvalues))
