"""From a coefficient matrix to cluster labels: affinity, spectral embedding, k-means.

The affinity is the symmetrized absolute coefficient matrix (|Z| + |Z^T|)/2.
Clustering follows the Ng-Jordan-Weiss recipe: eigenvectors of the symmetric
normalized Laplacian, row-normalized, then k-means.

Determinism and permutation equivariance are taken seriously: k-means
canonicalizes the row order (lexicographic) before any seeded sampling and
maps labels back afterwards, so permuting the input points permutes the
output labels identically under the same seed.

k-means runs all its restarts together as array computations: k-means++
seeding over a (restarts, n) distance array, then Lloyd steps that assign
every restart still moving from one GEMM.  Restart r draws from its own
``SplitMix64.substream(seed, r)`` in the order a lone run would, a restart
is frozen once its centres repeat exactly, and the lowest inertia wins, ties
going to the lowest restart index.  The labels are those of running each
restart on its own with direct squared differences (the oracle in
``tests/test_clustering.py``): seeding uses direct differences, and an
assignment the GEMM's rounding could flip is redone with them.  Reruns with
the same BLAS thread count are byte-identical.

``cluster_sweep`` hands its lambda values to ``parallel.ordered_map``, which
solves several at once, on threads, when the BLAS thread count leaves CPUs
idle (``sweep_workers``), and still yields them in order; every lambda's
result is the one a serial sweep gives.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .admm import AdmmConfig, admm_solve
from .closed_form import LowRankCoefficients, glrr_f_solve
from .errors import InvalidConfigError, InvalidInputError
from .kernels import KernelSpec, gram
from .manifold import GrassmannPoint, as_matrix, canonical_signs, sym_eig
from .parallel import ordered_map, page_bytes, system_cpus, worker_count
from .rng import substream_states, units

METHODS = ("glrr-f", "glrr-21", "kglrr")
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# the N x N float64 temporaries one lambda in flight may hold: tracemalloc peaks
# were 5.8 N^2 doubles (glrr-f, N=500) and 13 N^2 (glrr-21, N=200), plus margin
SWEEP_BYTES_PER_N2 = 16 * 8
# the N x N Gram matrix and its eigenvectors, which exist together only while the
# matrix is decomposed (tracemalloc peak 4.0 N^2 doubles at N=1000); every method
# then holds the eigenvectors alone for the whole run
GRAM_BYTES_PER_N2 = 2 * 8
# k-means' (restarts, N, k) batch arrays: tracemalloc peaks were 3.9-6.5 times one
# such float64 array over five shapes, so three of them stay a lower bound
KMEANS_BYTES_PER_ENTRY = 3 * 8


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
        lab = np.array(self.labels, dtype=np.int64)  # a copy: the caller's array stays writeable
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


def _kmeanspp_batch(canon: np.ndarray, k: int, restarts: int, seed: int) -> np.ndarray:
    """Seeded k-means++ for every restart at once: (restarts, k) indices into ``canon``.

    Restart r draws from ``SplitMix64.substream(seed, r)`` in the order a lone
    run would.  Squared distances are direct differences, so a row equal to a
    chosen one is exactly 0 away and a restart whose remaining mass is 0
    takes its lowest unused index.
    """
    n = canon.shape[0]
    states = substream_states(seed, restarts)
    chosen = np.empty((restarts, k), dtype=np.int64)
    chosen[:, 0] = np.minimum((units(states) * n).astype(np.int64), n - 1)
    diff = canon - canon[chosen[:, :1]]  # (restarts, n, m), reused for every pick
    d2 = np.sum(np.square(diff, out=diff), axis=2)
    for t in range(1, k):
        totals = d2.sum(axis=1)
        draw = totals > 0.0
        drawing = states[draw]
        u = units(drawing) * totals[draw]
        states[draw] = drawing
        # the count of cumulative masses <= u is searchsorted(side="right") of a nondecreasing row
        picks = np.count_nonzero(np.cumsum(d2[draw], axis=1) <= u[:, None], axis=1)
        chosen[draw, t] = np.minimum(picks, n - 1)
        for r in np.flatnonzero(~draw):
            # all mass on already-chosen coordinates: take the lowest unused index
            used = set(chosen[r, :t].tolist())
            chosen[r, t] = next(i for i in range(n) if i not in used)
        np.subtract(canon, canon[chosen[:, t : t + 1]], out=diff)
        np.minimum(d2, np.sum(np.square(diff, out=diff), axis=2), out=d2)
    return chosen


def _nearest_centers(canon: np.ndarray, canon_t: np.ndarray, sq_norms: np.ndarray,
                     centers: np.ndarray) -> np.ndarray:
    """(restarts, n) index of each row's nearest centre, as argmin over direct differences.

    One GEMM gives ||c||^2 - 2 c.x + ||x||^2 for every restart's centres.
    That value and the direct sum of squared differences each lie within
    (m + 2) eps/2 (||x|| + max ||c||)^2 of the true distance, so the two
    forms pick the same centre where the runner-up is more than
    8 (m + 4) eps (||x|| + max ||c||)^2 above the minimum, four times the gap
    their errors could close.  Every other row, exact ties included, is
    redone with direct differences and numpy's argmin, which takes the
    lowest index.
    """
    restarts, k, m = centers.shape
    c_sq = np.sum(centers**2, axis=2)
    dist = centers.reshape(restarts * k, m) @ canon_t
    dist *= -2.0
    dist += c_sq.reshape(-1, 1)
    dist += sq_norms
    dist = dist.reshape(restarts, k, -1)
    gap = (np.sqrt(sq_norms) + np.sqrt(c_sq.max(axis=1))[:, None]) ** 2
    gap *= 8 * (m + 4) * _EPS
    gap += 8 * (m + 4) * _TINY  # underflow in either form
    near = dist <= (dist.min(axis=1) + gap)[:, None, :]
    labels = np.argmax(near, axis=1)
    r, i = np.nonzero(np.count_nonzero(near, axis=1) != 1)
    if r.size:
        direct = np.sum((canon[i, None, :] - centers[r]) ** 2, axis=2)
        labels[r, i] = np.argmin(direct, axis=1)
    return labels


def _repair_empty(canon: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> None:
    """Reseed each empty cluster on the row farthest from its centre, in place."""
    counts = np.bincount(labels, minlength=centers.shape[0])
    point_d = np.sum((canon - centers[labels]) ** 2, axis=1)
    for j in np.flatnonzero(counts == 0):
        far = int(np.argmax(point_d))
        centers[j] = canon[far]
        labels[far] = j
        point_d[far] = -1.0


def _lloyd_batch(canon: np.ndarray, centers: np.ndarray,
                 max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from (restarts, k, m) ``centers``: labels and inertia per restart.

    A restart is frozen once a step leaves its centres exactly as they were,
    or after ``max_iters`` steps, while the others carry on, so each
    restart's result is the one a run of its own would give.
    """
    restarts, k, m = centers.shape
    canon_t = np.ascontiguousarray(canon.T)
    sq_norms = np.sum(canon**2, axis=1)
    labels = np.zeros((restarts, canon.shape[0]), dtype=np.int64)
    active = np.arange(restarts)
    for _ in range(max_iters):
        cur = centers[active]
        lab = _nearest_centers(canon, canon_t, sq_norms, cur)
        cell = lab + (np.arange(active.size) * k)[:, None]  # (restart, cluster) bin
        counts = np.bincount(cell.ravel(), minlength=cur.shape[0] * k).reshape(-1, k, 1)
        for a in np.flatnonzero(np.any(counts == 0, axis=(1, 2))):
            _repair_empty(canon, cur[a], lab[a])
            cell[a] = lab[a] + a * k
            counts[a, :, 0] = np.bincount(lab[a], minlength=k)
        # bincount adds each bin's weights in row order, as np.add.at does;
        # with the column as outermost bin index one call sums every restart
        col_cell = (cell.ravel() + counts.size * np.arange(m)[:, None]).ravel()
        weights = np.tile(canon_t, active.size).ravel()
        sums = np.bincount(col_cell, weights=weights, minlength=counts.size * m)
        sums = sums.reshape(m, -1, k).transpose(1, 2, 0)
        # a cluster left empty by the repair keeps its centre
        new = np.where(counts > 0, sums / np.maximum(counts, 1), cur)
        moved = np.any(new != cur, axis=(1, 2))
        centers[active] = new
        labels[active] = lab
        active = active[moved]
        if not active.size:
            break
    cell = labels + (np.arange(restarts) * k)[:, None]
    resid = canon - np.take(centers.reshape(-1, m), cell, axis=0)
    return labels, np.sum((resid**2).reshape(restarts, -1), axis=1)


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
    All restarts run together; restart ties are broken by restart index.
    """
    rows = as_matrix(rows, "rows")
    n = rows.shape[0]
    if not (1 <= n_clusters <= n):
        raise InvalidConfigError(f"cannot split {n} points into {n_clusters} clusters")
    if restarts < 1:
        raise InvalidConfigError("restarts must be >= 1")
    if max_iters < 1:  # zero Lloyd steps would leave every point in cluster 0
        raise InvalidConfigError("k-means max_iters must be >= 1")
    # a squared distance is at most 4 m max|x|^2, and seeding and the inertia
    # sum n of them; past float64's range every distance is inf or nan
    if np.max(np.abs(rows)) > np.sqrt(np.finfo(np.float64).max / (4 * n * rows.shape[1])):
        raise InvalidInputError("k-means rows too large: squared distances overflow float64")
    order = np.lexsort(rows.T[::-1])
    canon = rows[order]

    chosen = _kmeanspp_batch(canon, n_clusters, restarts, seed)
    labels, inertia = _lloyd_batch(canon, canon[chosen], max_iters)

    out = np.empty(n, dtype=np.int64)
    out[order] = labels[int(np.argmin(inertia))]
    return ClusterLabels(labels=out, n_clusters=n_clusters)


def ncut(W, cfg: NcutConfig) -> ClusterLabels:
    """Normalized-cuts labels from the symmetric normalized Laplacian.

    ``sym_eig``'s eigenvectors of the ``cfg.n_clusters`` smallest eigenvalues
    of L = I - D^{-1/2} W D^{-1/2} (zero-degree rows get D^{-1/2} = 0; the
    last columns, reversed), sign canonicalized and row normalized, then k-means.
    An L asymmetric by more than 1e-8 of its largest entry is refused, as ``sym_eig``
    refuses it.
    """
    W = as_matrix(W, "W")
    n = W.shape[0]
    if W.shape[0] != W.shape[1]:
        raise InvalidInputError(f"affinity must be square, got {W.shape}")

    degree = W.sum(axis=1)
    inv_sqrt = np.where(degree > 0.0, 1.0 / np.sqrt(np.where(degree > 0.0, degree, 1.0)), 0.0)
    L = np.eye(n) - (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    emb = sym_eig(L).eigenvectors[:, ::-1][:, : cfg.n_clusters]
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

    ``method`` selects the solver: ``kglrr`` (closed form on the kernel Gram
    matrix of ``kernel_spec``), ``glrr-f``, which is ``kglrr`` with the
    projection kernel, or ``glrr-21`` (ADMM with slice-wise l2/l1 error on
    the projection kernel's Gram matrix, ``admm_cfg`` with its lambda
    replaced per run); ``kernel_spec`` is read for kglrr only.  The Gram
    matrix and its eigendecomposition are built once; each lambda then
    yields ``(labels, coeffs, diagnostics)``, in the order of ``lambdas``.

    ``parallel.ordered_map`` solves up to ``sweep_workers`` lambda values at
    once on threads; numpy's LAPACK, GEMM and ufunc calls release the GIL, so
    a one-thread BLAS leaves the other CPUs to them.  Each lambda runs the
    same arithmetic as it would alone, so the results do not depend on the
    count.  A lambda's exception is raised at its turn; closing the generator
    cancels the lambda values not yet started and joins the running ones.
    """
    if method not in METHODS:
        raise InvalidConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if method != "kglrr":
        kernel_spec = KernelSpec(kind="projection")
    elif kernel_spec is None:
        raise InvalidConfigError("kglrr requires a kernel spec")
    n, k = len(points), ncut_cfg.n_clusters
    if k > n:  # before the Gram matrix and any solve
        raise InvalidConfigError(f"cannot split {n} points into {k} clusters")

    G = gram(points, kernel_spec)
    jobs = [(G, method, lam, ncut_cfg, admm_cfg) for lam in lambdas]
    yield from ordered_map(_solve_lambda, jobs, _system_workers(len(jobs), n))


def _solve_lambda(G, method: str, lam: float, ncut_cfg: NcutConfig,
                  admm_cfg: AdmmConfig | None) -> tuple[ClusterLabels, LowRankCoefficients, dict]:
    """One lambda of ``cluster_sweep``: solve on the shared, read-only G, then affinity and ncut."""
    if method == "glrr-21":
        cfg = AdmmConfig(lam=lam) if admm_cfg is None else replace(admm_cfg, lam=lam)
        coeffs, _ecoef, report = admm_solve(G, cfg)
        s = report.z_singular_values
        rank_z = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))
        lam, iterations, converged = cfg.lam, report.iterations, report.converged
    else:
        coeffs, report = glrr_f_solve(G, lam)
        lam, iterations, converged, rank_z = report.lam, 0, True, report.kept_count
    labels = ncut(affinity_from_Z(coeffs), ncut_cfg)
    return labels, coeffs, dict(
        method=method,
        lam=lam,
        solver_report=report,
        iterations=iterations,
        converged=converged,
        clamp_magnitude=G.clamp_magnitude,
        rank_z=rank_z,
    )


def sweep_workers(n_lambdas: int, n: int, cpus: int, environ, free_bytes: int | None) -> int:
    """How many lambda values ``cluster_sweep`` solves at once.

    ``parallel.worker_count`` over ``n_lambdas`` items, further capped by
    memory: each lambda in flight is allowed ``SWEEP_BYTES_PER_N2`` bytes per
    N^2 and all of them together half of ``free_bytes``; an unknown
    ``free_bytes`` allows one.  Never less than 1.
    """
    memory_cap = 0 if free_bytes is None else free_bytes // (2 * SWEEP_BYTES_PER_N2 * n * n)
    return max(1, min(worker_count(cpus, environ, n_lambdas), memory_cap))


def _system_workers(n_lambdas: int, n: int) -> int:
    """``sweep_workers`` from this process's CPU affinity, environment and free pages."""
    return sweep_workers(n_lambdas, n, system_cpus(), os.environ,
                         page_bytes("SC_AVPHYS_PAGES"))


def check_memory(n: int, phys_bytes: int | None, restarts: int = 0, clusters: int = 0) -> None:
    """Refuse ``n`` points whose Gram matrix, or k-means batch, alone exceeds ``phys_bytes``.

    ``GRAM_BYTES_PER_N2`` bytes per N^2, and ``KMEANS_BYTES_PER_ENTRY`` per
    entry of ``restarts`` x N x ``clusters`` (at most N of them), are lower
    bounds on a run's peak, so no run that fits is refused; an unknown
    ``phys_bytes`` refuses none.
    """
    kmeans_bytes = KMEANS_BYTES_PER_ENTRY * restarts * n * min(clusters, n)
    for need, what in ((GRAM_BYTES_PER_N2 * n * n, "the Gram matrix and its eigenvectors"),
                       (kmeans_bytes, f"{restarts} k-means restarts of {clusters} clusters")):
        if phys_bytes is not None and need > phys_bytes:
            raise InvalidInputError(f"N={n} points need at least {need} bytes for {what}; "
                                    f"physical memory is {phys_bytes} bytes")


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
