"""From a coefficient matrix to cluster labels: affinity, spectral embedding, k-means.

The affinity is the symmetrized absolute coefficient matrix (|Z| + |Z^T|)/2.
Clustering follows the Ng-Jordan-Weiss recipe: eigenvectors of the symmetric
normalized Laplacian, row-normalized, then k-means.

Determinism and permutation equivariance are taken seriously: k-means
canonicalizes the row order (lexicographic) before any seeded sampling and
maps labels back afterwards, so permuting the input points permutes the
output labels identically under the same seed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .admm import AdmmConfig, admm_solve
from .closed_form import LowRankCoefficients, build_delta, glrr_f_solve
from .errors import InvalidConfigError, InvalidInputError
from .kernels import KernelSpec, gram
from .manifold import GrassmannPoint, as_matrix, canonical_signs
from .rng import SplitMix64

METHODS = ("glrr-f", "glrr-21", "kglrr")


@dataclass(frozen=True)
class NcutConfig:
    n_clusters: int
    restarts: int = 20
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise InvalidConfigError(f"need at least 2 clusters, got {self.n_clusters}")
        if self.restarts < 1:
            raise InvalidConfigError("restarts must be >= 1")
        if self.max_iters < 1:
            raise InvalidConfigError("k-means max_iters must be >= 1")


@dataclass(frozen=True)
class ClusterLabels:
    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise InvalidInputError("labels must be 1-D")
        if lab.size < self.n_clusters:
            raise InvalidInputError("fewer points than clusters")
        if lab.size and (lab.min() < 0 or lab.max() >= self.n_clusters):
            raise InvalidInputError("label out of range")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)


def affinity_from_Z(Z) -> np.ndarray:
    """Symmetric nonnegative affinity (|Z| + |Z^T|)/2."""
    M = Z.Z if isinstance(Z, LowRankCoefficients) else as_matrix(Z, "Z")
    if M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"Z must be square, got {M.shape}")
    # IEEE addition commutes, so W_ij and W_ji are the same sum: W is exactly symmetric
    A = np.abs(M)
    return (A + A.T) / 2.0


def _kmeanspp_init(rows: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """Seeded k-means++ over rows already in canonical order."""
    n = rows.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = min(int(rng.unit() * n), n - 1)
    d2 = np.sum((rows - rows[chosen[0]]) ** 2, axis=1)
    for t in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all mass on already-chosen coordinates: take the lowest unused index
            used = set(chosen[:t].tolist())
            nxt = next(i for i in range(n) if i not in used)
            chosen[t] = nxt
        else:
            u = rng.unit() * total
            cum = np.cumsum(d2)
            chosen[t] = min(int(np.searchsorted(cum, u, side="right")), n - 1)
        d2 = np.minimum(d2, np.sum((rows - rows[chosen[t]]) ** 2, axis=1))
    return rows[chosen].copy()


def _lloyd(rows: np.ndarray, centers: np.ndarray, max_iters: int) -> tuple[np.ndarray, float]:
    n, k = rows.shape[0], centers.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        dist = np.sum((rows[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(dist, axis=1)
        # empty-cluster repair: reseed on the farthest point from its center
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            point_d = dist[np.arange(n), labels].copy()
            for j in np.flatnonzero(counts == 0):
                far = int(np.argmax(point_d))
                centers[j] = rows[far]
                labels[far] = j
                point_d[far] = -1.0
        # np.add.at sums each cluster's rows in row order, as members.mean(axis=0)
        # does for rows of two or more columns; a cluster left empty keeps its center
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, rows)
        counts = np.bincount(labels, minlength=k)[:, None]
        new_centers = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    inertia = float(np.sum((rows - centers[labels]) ** 2))
    return labels, inertia


def kmeans(
    rows,
    n_clusters: int,
    restarts: int = 20,
    max_iters: int = 300,
    seed: int = 0,
) -> ClusterLabels:
    """Best-of-restarts Lloyd's algorithm with order-independent k-means++ seeding.

    Rows are sorted lexicographically before sampling and labels are mapped
    back, so the result is equivariant under permutations of the input rows.
    Restart ties are broken by restart index.
    """
    rows = as_matrix(rows, "rows")
    n = rows.shape[0]
    if not (1 <= n_clusters <= n):
        raise InvalidConfigError(f"cannot split {n} points into {n_clusters} clusters")
    if restarts < 1:
        raise InvalidConfigError("restarts must be >= 1")
    if max_iters < 1:  # zero Lloyd steps would leave every point in cluster 0
        raise InvalidConfigError("k-means max_iters must be >= 1")
    order = np.lexsort(rows.T[::-1])
    canon = rows[order]

    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        rng = SplitMix64.substream(seed, r)
        centers = _kmeanspp_init(canon, n_clusters, rng)
        labels, inertia = _lloyd(canon, centers, max_iters)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia

    out = np.empty(n, dtype=np.int64)
    out[order] = best_labels
    return ClusterLabels(labels=out, n_clusters=n_clusters)


def ncut(W, cfg: NcutConfig) -> ClusterLabels:
    """Normalized-cuts labels from the symmetric normalized Laplacian.

    Eigenvectors of the ``cfg.n_clusters`` smallest eigenvalues of
    L = I - D^{-1/2} W D^{-1/2} (zero-degree rows get D^{-1/2} = 0), sign
    canonicalized and row normalized, then seeded k-means.
    """
    W = as_matrix(W, "W")
    n = W.shape[0]
    if W.shape[0] != W.shape[1]:
        raise InvalidInputError(f"affinity must be square, got {W.shape}")

    degree = W.sum(axis=1)
    inv_sqrt = np.where(degree > 0.0, 1.0 / np.sqrt(np.where(degree > 0.0, degree, 1.0)), 0.0)
    L = np.eye(n) - (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    eigvals, eigvecs = np.linalg.eigh((L + L.T) / 2.0)
    emb = eigvecs[:, : cfg.n_clusters]
    emb = emb * canonical_signs(emb)

    norms = np.linalg.norm(emb, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    emb = emb / safe[:, None]

    return kmeans(emb, cfg.n_clusters, cfg.restarts, cfg.max_iters, cfg.seed)


def cluster_sweep(
    points: list[GrassmannPoint],
    method: str,
    ncut_cfg: NcutConfig,
    lambdas: Iterable[float],
    kernel_spec: KernelSpec | None = None,
    admm_cfg: AdmmConfig | None = None,
) -> Iterator[tuple[ClusterLabels, LowRankCoefficients, dict]]:
    """Solver -> affinity -> normalized cuts for each lambda, from one Gram matrix.

    ``method`` selects the solver: ``glrr-21`` (ADMM with slice-wise l2/l1
    error on ``build_delta``'s Gram matrix, ``admm_cfg`` with its lambda
    replaced per run), ``kglrr`` (closed form on the kernel Gram matrix of
    ``kernel_spec``), or ``glrr-f``, which is ``kglrr`` with the projection
    kernel (``kernel_spec`` ignored).  The Gram matrix, and for the closed
    forms its eigendecomposition, is built once; each lambda then yields
    ``(labels, coeffs, diagnostics)`` as soon as it is solved.
    """
    if method not in METHODS:
        raise InvalidConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "glrr-f":
        kernel_spec = KernelSpec(kind="projection")
    elif method == "kglrr" and kernel_spec is None:
        raise InvalidConfigError("kglrr requires a kernel spec")
    n, k = len(points), ncut_cfg.n_clusters
    if k > n:  # before the Gram matrix and any solve
        raise InvalidConfigError(f"cannot split {n} points into {k} clusters")

    G = build_delta(points) if method == "glrr-21" else gram(points, kernel_spec)
    for lam in lambdas:
        if method == "glrr-21":
            cfg = AdmmConfig(lam=lam) if admm_cfg is None else replace(admm_cfg, lam=lam)
            coeffs, _ecoef, report = admm_solve(G, cfg)
            s = report.z_singular_values
            rank_z = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))
            lam, iterations, converged, clamp = cfg.lam, report.iterations, report.converged, 0.0
        else:
            coeffs, report = glrr_f_solve(G, lam)
            lam, iterations, converged = report.lam, 0, True
            clamp, rank_z = report.clamp_magnitude, report.kept_count
        labels = ncut(affinity_from_Z(coeffs), ncut_cfg)
        yield labels, coeffs, dict(
            method=method,
            lam=lam,
            solver_report=report,
            iterations=iterations,
            converged=converged,
            clamp_magnitude=clamp,
            rank_z=rank_z,
        )


def cluster_pipeline(
    points: list[GrassmannPoint],
    method: str,
    ncut_cfg: NcutConfig,
    lam: float | None = None,
    kernel_spec: KernelSpec | None = None,
    admm_cfg: AdmmConfig | None = None,
) -> tuple[ClusterLabels, LowRankCoefficients, dict]:
    """``cluster_sweep`` over the single lambda ``lam``; for glrr-21 ``admm_cfg.lam`` wins."""
    if method == "glrr-21" and admm_cfg is not None:
        lam = admm_cfg.lam
    if lam is None and method in METHODS:
        raise InvalidConfigError(f"{method} requires lambda (or, for glrr-21, an ADMM config)")
    return next(cluster_sweep(points, method, ncut_cfg, [lam], kernel_spec, admm_cfg))
