import dataclasses
import itertools
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasslrr import (
    AdmmConfig,
    admm_solve,
    ClusterLabels,
    InvalidConfigError,
    InvalidInputError,
    KernelSpec,
    LowRankCoefficients,
    NcutConfig,
    SynthSpec,
    accuracy,
    affinity_from_Z,
    build_delta,
    cluster_pipeline,
    cluster_sweep,
    glrr_f_solve,
    gram,
    kmeans,
    ncut,
    orthonormalize,
    synth_union,
)
from grasslrr import clustering, parallel
from grasslrr.rng import SplitMix64

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def brute_force_min_ncut(W):
    """Exhaustive minimum 2-way normalized cut (the oracle for ncut)."""
    n = W.shape[0]
    degree = W.sum(axis=1)
    best_obj, best = np.inf, None
    for bits in itertools.product([0, 1], repeat=n):
        side = np.array(bits, dtype=bool)
        if side.all() or not side.any():
            continue
        cut = W[np.ix_(side, ~side)].sum()
        va, vb = degree[side].sum(), degree[~side].sum()
        if va <= 0.0 or vb <= 0.0:
            continue
        obj = cut * (1.0 / va + 1.0 / vb)
        if obj < best_obj - 1e-12:
            best_obj, best = obj, side.copy()
    return best_obj, best


def same_partition(a, b, n_clusters):
    pred = ClusterLabels(labels=np.asarray(a), n_clusters=n_clusters)
    truth = ClusterLabels(labels=np.asarray(b), n_clusters=n_clusters)
    return accuracy(pred, truth).accuracy == 1.0


class TestAffinity:
    def test_symmetric_input_gives_abs(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((5, 5))
        Z = (Z + Z.T) / 2.0
        np.testing.assert_allclose(affinity_from_Z(Z), np.abs(Z), atol=1e-15)

    def test_zero(self):
        assert np.max(np.abs(affinity_from_Z(np.zeros((4, 4))))) == 0.0

    def test_forced_arithmetic(self):
        W = affinity_from_Z(np.array([[0.0, 1.0], [-3.0, 0.0]]))
        np.testing.assert_allclose(W, [[0.0, 2.0], [2.0, 0.0]], atol=0.0)

    def test_exactly_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(1)
        W = affinity_from_Z(rng.standard_normal((7, 7)))
        assert np.array_equal(W, W.T)
        assert np.all(W >= 0.0)

    def test_entries_near_the_float64_limit(self):
        W = affinity_from_Z(np.array([[1.5e308, 0.0], [0.0, 1.0]]))
        assert W.tolist() == [[1.5e308, 0.0], [0.0, 1.0]]

    def test_accepts_coefficients(self):
        rng = np.random.default_rng(2)
        Z = LowRankCoefficients(Z=rng.standard_normal((4, 4)))
        assert affinity_from_Z(Z).shape == (4, 4)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match=r"Z must be square, got \(2, 3\)"):
            affinity_from_Z(np.ones((2, 3)))


class TestKmeans:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([rng.normal(0.0, 0.1, (8, 2)), rng.normal(5.0, 0.1, (8, 2))])
        labels = kmeans(rows, 2, seed=0).labels
        assert same_partition(labels, [0] * 8 + [1] * 8, 2)

    def test_one_cluster_per_point(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((6, 2))
        out = kmeans(rows, 6, seed=0)
        assert sorted(out.labels.tolist()) == list(range(6))
        centers_inertia = sum(
            np.sum((rows[i] - rows[i]) ** 2) for i in range(6)
        )
        assert centers_inertia == 0.0

    def test_beats_random_assignments(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((20, 2))
        labels = kmeans(rows, 3, seed=1).labels
        centers = np.stack([rows[labels == j].mean(axis=0) for j in range(3)])
        inertia = float(np.sum((rows - centers[labels]) ** 2))
        for _ in range(1000):
            rand = rng.integers(0, 3, 20)
            if len(np.unique(rand)) < 3:
                continue
            c = np.stack([rows[rand == j].mean(axis=0) for j in range(3)])
            assert inertia <= float(np.sum((rows - c[rand]) ** 2)) + 1e-9

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((30, 3))
        perm = rng.permutation(30)
        base = kmeans(rows, 4, seed=9).labels
        permuted = kmeans(rows[perm], 4, seed=9).labels
        assert np.array_equal(permuted, base[perm])

    def test_identical_points_deterministic(self):
        rows = np.ones((6, 2))
        a = kmeans(rows, 3, seed=5).labels
        b = kmeans(rows, 3, seed=5).labels
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 3

    def test_too_many_clusters(self):
        with pytest.raises(InvalidConfigError):
            kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("n_clusters", [0, -1])
    def test_nonpositive_cluster_count_rejected(self, n_clusters):
        with pytest.raises(InvalidConfigError, match="clusters"):
            kmeans(np.eye(4), n_clusters)

    @pytest.mark.parametrize("settings", [
        {"n_clusters": 1}, {"restarts": 0}, {"max_iters": 0}, {"max_iters": -1},
    ])
    def test_rejects_bad_settings(self, settings):
        # zero Lloyd steps used to put every point in cluster 0
        args = {"n_clusters": 2, **settings}
        with pytest.raises(InvalidConfigError):
            NcutConfig(**args)
        if args["n_clusters"] >= 2:
            with pytest.raises(InvalidConfigError):
                kmeans(np.eye(4), **args)

    def test_rows_whose_distances_overflow_rejected(self):
        # squared distances of rows near 1e200 are inf: the labels were
        # meaningless and numpy warned of overflow
        rows = np.array([[1e200, 0.0], [-1e200, 1.0], [3e199, 2.0], [0.0, -1e200]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError, match="overflow"):
                kmeans(rows, 2)
        assert caught == []
        # at 1e150 every distance and sum is finite, and the split is the unscaled one
        labels = kmeans(rows * 1e-50, 2).labels
        assert np.array_equal(labels, kmeans(rows * 1e-200, 2).labels)
        assert len(set(labels.tolist())) == 2


def kmeanspp_init(rows, k, rng):
    """Seeded k-means++ over rows already in canonical order, one restart."""
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


def lloyd(rows, centers, max_iters):
    """Lloyd's algorithm for one restart: labels and inertia."""
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
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, rows)
        counts = np.bincount(labels, minlength=k)[:, None]
        new_centers = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    inertia = float(np.sum((rows - centers[labels]) ** 2))
    return labels, inertia


def oracle_kmeans(rows, n_clusters, restarts=20, max_iters=300, seed=0):
    """The restarts one after another, each a plain loop: the oracle for kmeans."""
    order = np.lexsort(rows.T[::-1])
    canon = rows[order]
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        centers = kmeanspp_init(canon, n_clusters, SplitMix64.substream(seed, r))
        labels, inertia = lloyd(canon, centers, max_iters)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    out = np.empty(rows.shape[0], dtype=np.int64)
    out[order] = best_labels
    return out


@st.composite
def kmeans_inputs(draw):
    """(rows, n_clusters, restarts, max_iters, seed), rows often repeated, n_clusters often n."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 12))
    distinct = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["normal", "grid", "unit", "scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":  # small integers: exact ties between centres
        base = rng.integers(-2, 3, (distinct, m)).astype(np.float64)
    else:
        base = rng.standard_normal((distinct, m))
        if kind == "unit":  # row-normalized, as ncut hands them over
            base /= np.linalg.norm(base, axis=1, keepdims=True)
        elif kind == "scaled":
            base *= 10.0 ** draw(st.integers(-150, 150))
    rows = base[rng.integers(0, distinct, n)]
    n_clusters = draw(st.one_of(st.just(n), st.integers(1, n)))
    restarts = draw(st.integers(1, 5))
    max_iters = draw(st.sampled_from([1, 2, 3, 300]))
    return rows, n_clusters, restarts, max_iters, draw(st.integers(0, 2**64 - 1))


class TestKmeansRestartsBatched:
    """All restarts run as one array computation; each must match its own plain loop."""

    @PROPERTY
    @given(kmeans_inputs())
    def test_matches_per_restart_oracle(self, case):
        rows, *args = case
        assert np.array_equal(kmeans(rows, *args).labels, oracle_kmeans(rows, *args))

    @pytest.mark.parametrize("clusters, noise", [(3, 0.1), (6, 0.3), (10, 0.45)])
    def test_matches_oracle_on_spectral_rows(self, clusters, noise, monkeypatch):
        # ncut's own rows, 20 restarts of which some converge long before others
        rng = np.random.default_rng(clusters)
        blocks = np.repeat(np.arange(clusters), 20)
        W = rng.uniform(0.0, noise, (blocks.size, blocks.size))
        W = (W + W.T) / 2.0 + 0.5 * (blocks[:, None] == blocks[None, :])
        np.fill_diagonal(W, 0.0)
        seen = []
        real = clustering.kmeans

        def capture(rows, *args):
            seen.append((rows, args))
            return real(rows, *args)

        monkeypatch.setattr(clustering, "kmeans", capture)
        labels = ncut(W, NcutConfig(n_clusters=clusters, seed=clusters)).labels
        [(rows, args)] = seen
        assert args == (clusters, 20, 300, clusters)
        assert np.array_equal(labels, oracle_kmeans(rows, *args))

    @pytest.mark.parametrize("s, d", [
        (5.115549075960075e-156, 7.602434297316864e-161),
        (8.1170194965339e-156, 1.7232485418915265e-161),
    ])
    def test_subnormal_distances_follow_direct_differences(self, s, d):
        # squared distances of about 1e-320 are subnormal: the GEMM form's
        # error there is absolute, so the tie gap needs more than eps terms
        canon = np.array([[s]])
        centers = np.array([[[s + d], [s - d]]])
        labels = clustering._nearest_centers(canon, canon.T.copy(), canon[:, 0] ** 2, centers)
        direct = np.sum((canon[:, None, :] - centers[0]) ** 2, axis=2)
        assert labels.tolist() == [[int(np.argmin(direct))]]

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63, 2**64 - 3, 2**70 + 5])
    def test_seeding_reads_each_restarts_substream(self, seed):
        # four copies each of five distinct rows: a restart that picks all five
        # has no mass left and takes its sixth centre without a draw
        base = np.random.default_rng(3).standard_normal((5, 2))
        rows = np.repeat(base, 4, axis=0)
        canon = rows[np.lexsort(rows.T[::-1])]
        k, restarts = 7, 40
        chosen = clustering._kmeanspp_batch(canon, k, restarts, seed)
        for r in range(restarts):
            want = kmeanspp_init(canon, k, SplitMix64.substream(seed, r))
            assert np.array_equal(canon[chosen[r]], want)
        assert np.array_equal(kmeans(rows, 5, restarts, seed=-1).labels,
                              kmeans(rows, 5, restarts, seed=2**64 - 1).labels)

    @PROPERTY
    @given(kmeans_inputs(), st.integers(0, 2**32 - 1))
    def test_permutation_equivariant_with_duplicated_rows(self, case, perm_seed):
        rows, *args = case
        perm = np.random.default_rng(perm_seed).permutation(rows.shape[0])
        base = kmeans(rows, *args).labels
        permuted = kmeans(rows[perm], *args).labels

        def row_label_pairs(r, labels):
            return sorted(zip(map(tuple, r.tolist()), labels.tolist()))

        # copies of one row may trade labels among themselves, nothing more
        assert row_label_pairs(rows[perm], permuted) == row_label_pairs(rows, base)
        if np.unique(rows, axis=0).shape[0] == rows.shape[0]:
            assert np.array_equal(permuted, base[perm])

    @settings(PROPERTY, max_examples=40)
    @given(st.integers(1, 16), st.integers(1, 12), st.data())
    def test_identical_points_deterministic(self, n, m, data):
        rows = np.full((n, m), data.draw(st.floats(-1e100, 1e100, allow_nan=False)))
        n_clusters = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**64 - 1))
        first = kmeans(rows, n_clusters, seed=seed).labels
        assert np.array_equal(kmeans(rows, n_clusters, seed=seed).labels, first)
        assert np.array_equal(first, oracle_kmeans(rows, n_clusters, seed=seed))


class TestNcut:
    def test_exact_two_blocks(self):
        W = np.zeros((9, 9))
        W[:5, :5] = 1.0
        W[5:, 5:] = 1.0
        np.fill_diagonal(W, 0.0)
        labels = ncut(W, NcutConfig(n_clusters=2, seed=0)).labels
        assert same_partition(labels, [0] * 5 + [1] * 4, 2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        blocks = np.repeat([0, 1], 6)
        A = rng.uniform(0.05, 0.3, (12, 12))
        A = (A + A.T) / 2.0
        A += 0.8 * (blocks[:, None] == blocks[None, :])
        np.fill_diagonal(A, 0.0)
        perm = rng.permutation(12)
        cfg = NcutConfig(n_clusters=2, seed=4)
        base = ncut(A, cfg).labels
        permuted = ncut(A[np.ix_(perm, perm)], cfg).labels
        assert np.array_equal(permuted, base[perm])

    def test_matches_exhaustive_min_cut(self):
        blocks = np.array([0, 0, 0, 1, 1, 1])
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            A = rng.uniform(0.0, 1.0, (6, 6))
            W = (A + A.T) / 2.0
            W += 0.5 * (blocks[:, None] == blocks[None, :])
            np.fill_diagonal(W, 0.0)
            _, best_side = brute_force_min_ncut(W)
            labels = ncut(W, NcutConfig(n_clusters=2, seed=seed)).labels
            assert same_partition(labels, best_side.astype(int), 2)

    def test_block_recovery_up_to_four(self):
        rng = np.random.default_rng(8)
        for C in (2, 3, 4):
            sizes = [5] * C
            n = sum(sizes)
            labels_true = np.repeat(np.arange(C), 5)
            W = 0.05 * rng.uniform(0.0, 1.0, (n, n))
            W = (W + W.T) / 2.0
            W[labels_true[:, None] == labels_true[None, :]] = 1.0
            np.fill_diagonal(W, 0.0)
            labels = ncut(W, NcutConfig(n_clusters=C, seed=C)).labels
            assert same_partition(labels, labels_true, C)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(9)
        blocks = np.repeat([0, 1, 2], 5)
        A = rng.uniform(0.05, 0.3, (15, 15))
        A = (A + A.T) / 2.0
        A += 0.9 * (blocks[:, None] == blocks[None, :])
        np.fill_diagonal(A, 0.0)
        cfg = NcutConfig(n_clusters=3, seed=1)
        base = ncut(A, cfg).labels
        for c in (0.1, 10.0):
            scaled = ncut(c * A, cfg).labels
            assert same_partition(scaled, base, 3)

    def test_zero_degree_rows_tolerated(self):
        W = np.zeros((6, 6))
        W[:3, :3] = 1.0
        np.fill_diagonal(W, 0.0)  # rows 3..5 fully disconnected
        labels = ncut(W, NcutConfig(n_clusters=2, seed=0)).labels
        assert labels.shape == (6,)

    def test_too_many_clusters(self):
        with pytest.raises(InvalidConfigError):
            ncut(np.ones((3, 3)), NcutConfig(n_clusters=4))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match=r"affinity must be square, got \(3, 4\)"):
            ncut(np.ones((3, 4)), NcutConfig(n_clusters=2))

    def test_laplacian_goes_through_sym_eig(self, monkeypatch):
        # the one spectral seam: ncut's only eigendecomposition is manifold.sym_eig's eigh
        seam, solver = [], []
        real_seam, real_eigh = clustering.sym_eig, np.linalg.eigh
        monkeypatch.setattr(clustering, "sym_eig", lambda A: seam.append(A) or real_seam(A))
        monkeypatch.setattr(np.linalg, "eigh", lambda A: solver.append(A) or real_eigh(A))
        W = np.zeros((9, 9))
        W[:5, :5] = 1.0
        W[5:, 5:] = 1.0
        np.fill_diagonal(W, 0.0)
        labels = ncut(W, NcutConfig(n_clusters=2, seed=0)).labels
        assert same_partition(labels, [0] * 5 + [1] * 4, 2)
        assert len(seam) == 1 and len(solver) == 1


def two_cluster_points(seed=0, per_cluster=5):
    spec = SynthSpec(
        n_clusters=2, per_cluster=per_cluster, d=12, p=2, noise_sigma=0.01, seed=seed
    )
    return synth_union(spec)


class TestClusterPipeline:
    def test_glrr_f_recovers_clean_clusters(self):
        points, truth_labels = two_cluster_points()
        truth = ClusterLabels(labels=truth_labels, n_clusters=2)
        labels, coeffs, diag = cluster_pipeline(
            points, "glrr-f", NcutConfig(n_clusters=2, seed=0), lam=0.5
        )
        assert accuracy(labels, truth).accuracy == 1.0
        assert diag["method"] == "glrr-f"
        assert diag["rank_z"] >= 1

    def test_kglrr_projection_matches_glrr_f(self):
        points, _ = two_cluster_points(seed=1)
        cfg = NcutConfig(n_clusters=2, seed=3)
        labels_f, Zf, _ = cluster_pipeline(points, "glrr-f", cfg, lam=0.5)
        labels_k, Zk, diag_k = cluster_pipeline(
            points, "kglrr", cfg, lam=0.5, kernel_spec=KernelSpec(kind="projection")
        )
        assert np.array_equal(labels_f.labels, labels_k.labels)
        assert np.max(np.abs(Zf.Z - Zk.Z)) <= 1e-10
        assert diag_k["clamp_magnitude"] == 0.0

    def test_glrr_21_on_clean_fixture(self):
        points, truth_labels = two_cluster_points(seed=2)
        truth = ClusterLabels(labels=truth_labels, n_clusters=2)
        labels, _, diag = cluster_pipeline(
            points, "glrr-21", NcutConfig(n_clusters=2, seed=0), lam=1.0,
            admm_cfg=AdmmConfig(lam=1.0),
        )
        assert diag["converged"]
        assert diag["iterations"] > 0
        assert accuracy(labels, truth).accuracy == 1.0

    def test_glrr_21_rank_matches_fresh_svd(self):
        points, _ = two_cluster_points(seed=2)
        for cfg in (AdmmConfig(lam=1.0), AdmmConfig(lam=0.5, max_iters=5)):
            _, coeffs, diag = cluster_pipeline(
                points, "glrr-21", NcutConfig(n_clusters=2, seed=0), lam=cfg.lam, admm_cfg=cfg
            )
            s = np.linalg.svd(coeffs.Z, compute_uv=False)
            assert diag["rank_z"] == int(np.sum(s > 1e-10 * s[0]))
            assert diag["rank_z"] >= 1

    def test_deterministic_end_to_end(self):
        points, _ = two_cluster_points(seed=3)
        cfg = NcutConfig(n_clusters=2, seed=11)
        labels1, Z1, _ = cluster_pipeline(points, "glrr-f", cfg, lam=0.5)
        labels2, Z2, _ = cluster_pipeline(points, "glrr-f", cfg, lam=0.5)
        assert np.array_equal(labels1.labels, labels2.labels)
        assert np.array_equal(Z1.Z, Z2.Z)

    def test_unknown_method(self):
        points, _ = two_cluster_points(seed=4)
        with pytest.raises(InvalidConfigError):
            cluster_pipeline(points, "glrr-x", NcutConfig(n_clusters=2), lam=0.5)

    def test_missing_params(self):
        points, _ = two_cluster_points(seed=5)
        with pytest.raises(TypeError):  # lam is required for every method
            cluster_pipeline(points, "glrr-f", NcutConfig(n_clusters=2))
        with pytest.raises(InvalidConfigError):
            cluster_pipeline(points, "kglrr", NcutConfig(n_clusters=2), lam=0.5)


def assert_bit_identical(a, b):
    """Recursive exact equality over dataclasses, dicts, sequences and arrays."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_bit_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_bit_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bit_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert type(a) is type(b) and a == b


SWEEP_CASES = [
    ("glrr-f", {}),
    ("kglrr", {"kernel_spec": KernelSpec(kind="cc-sum")}),
    ("glrr-21", {"admm_cfg": AdmmConfig(lam=1.0, max_iters=40)}),
]


class TestClusterSweep:
    @pytest.mark.parametrize("method, kwargs", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_matches_separate_pipeline_calls(self, method, kwargs):
        points, _ = two_cluster_points(seed=6, per_cluster=6)
        cfg = NcutConfig(n_clusters=2, seed=5)
        lambdas = [0.05, 0.5, 2.0]
        swept = list(cluster_sweep(points, method, cfg, lambdas, **kwargs))
        assert len(swept) == len(lambdas)
        for lam, result in zip(lambdas, swept):
            # lam replaces admm_cfg's lambda in a single solve too
            assert_bit_identical(result, cluster_pipeline(points, method, cfg, lam=lam, **kwargs))
            assert result[2]["lam"] == lam

    @pytest.mark.parametrize("method, kwargs", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_each_lambda_matches_a_fresh_gram_solve(self, method, kwargs):
        # the shared Gram matrix must come out of every solve untouched
        points, _ = two_cluster_points(seed=7, per_cluster=6)
        lambdas = [2.0, 0.05, 0.5]
        swept = cluster_sweep(points, method, NcutConfig(n_clusters=2), lambdas, **kwargs)
        for lam, (_, coeffs, _) in zip(lambdas, swept):
            if method == "glrr-21":
                cfg = dataclasses.replace(kwargs["admm_cfg"], lam=lam)
                fresh = admm_solve(build_delta(points), cfg)[0]
            else:
                spec = kwargs.get("kernel_spec", KernelSpec(kind="projection"))
                fresh = glrr_f_solve(gram(points, spec), lam)[0]
            assert np.array_equal(coeffs.Z, fresh.Z)

    def test_unknown_method_and_missing_kernel_rejected(self):
        points, _ = two_cluster_points(seed=8)
        for method, kwargs in (("glrr-x", {}), ("kglrr", {})):
            with pytest.raises(InvalidConfigError):
                next(cluster_sweep(points, method, NcutConfig(n_clusters=2), [0.5], **kwargs))


def force_workers(monkeypatch, count):
    """Make every ``cluster_sweep`` solve ``count`` lambda values at once."""
    monkeypatch.setattr(clustering, "_system_workers", lambda n_lambdas, n: count)


class TestConcurrentSweep:
    """Several lambda values in flight give the serial sweep's results, in order."""

    @pytest.mark.parametrize("method, kwargs", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    @settings(derandomize=True, deadline=None, database=None, max_examples=6)
    @given(lambdas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0, 2.0, 5.0]),
                            min_size=1, max_size=5))
    def test_any_worker_count_matches_serial(self, method, kwargs, lambdas):
        points, _ = two_cluster_points(seed=6, per_cluster=6)
        cfg = NcutConfig(n_clusters=2, seed=5)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' Python steps finely
        try:
            for count in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    force_workers(mp, count)
                    runs.append(list(cluster_sweep(points, method, cfg, lambdas, **kwargs)))
        finally:
            sys.setswitchinterval(interval)
        assert [diag["lam"] for _, _, diag in runs[0]] == lambdas
        for run in runs[1:]:
            assert_bit_identical(run, runs[0])

    def test_error_raised_at_its_turn(self, monkeypatch):
        points, _ = two_cluster_points(seed=6, per_cluster=6)
        real = clustering.glrr_f_solve
        solver_threads = set()

        def flaky(G, lam):
            solver_threads.add(threading.get_ident())
            if lam == 0.5:
                raise InvalidInputError("lambda 0.5 fails")
            if lam == 0.2:
                time.sleep(0.2)  # still running when 0.5 has failed
            return real(G, lam)

        monkeypatch.setattr(clustering, "glrr_f_solve", flaky)
        force_workers(monkeypatch, 2)
        before = threading.active_count()
        sweep = cluster_sweep(points, "glrr-f", NcutConfig(n_clusters=2), [0.05, 0.2, 0.5, 2.0])
        yielded = []
        with pytest.raises(InvalidInputError, match="lambda 0.5 fails"):
            for _, _, diag in sweep:
                yielded.append(diag["lam"])
        assert yielded == [0.05, 0.2]
        assert list(sweep) == []  # 2.0 is never yielded
        sweep.close()
        assert threading.active_count() == before
        assert solver_threads and threading.get_ident() not in solver_threads

    def test_close_joins_the_running_lambdas(self, monkeypatch):
        points, _ = two_cluster_points(seed=6, per_cluster=6)
        force_workers(monkeypatch, 2)
        before = threading.active_count()
        sweep = cluster_sweep(points, "glrr-f", NcutConfig(n_clusters=2), [0.05, 0.2, 0.5, 2.0])
        next(sweep)
        assert threading.active_count() > before
        sweep.close()
        assert threading.active_count() == before


GiB = 1 << 30


class TestSweepWorkers:
    """The worker rule: CPUs left idle by the BLAS, capped by lambda count and free memory."""

    @pytest.mark.parametrize("n_lambdas, cpus, environ, expected", [
        (3, 4, {}, 1),
        (3, 4, {"OPENBLAS_NUM_THREADS": "1"}, 3),
        (4, 4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
        (8, 4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
        (3, 4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        (3, 4, {"MKL_NUM_THREADS": "2"}, 2),
        (4, 4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (3, 4, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        (3, 4, {"OPENBLAS_NUM_THREADS": "x"}, 1),
        (3, 4, {"OPENBLAS_NUM_THREADS": "0"}, 1),
        (3, 4, {"OPENBLAS_NUM_THREADS": "-1"}, 1),
        (3, 4, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 2),
        (3, 4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 3),
        (1, 4, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ], ids=["unset", "one-thread", "every-cpu", "more-lambdas-than-cpus", "largest-wins",
            "mkl", "two-threads", "more-threads-than-cpus", "non-numeric", "zero", "negative",
            "invalid-beside-valid", "zero-beside-valid", "one-lambda"])
    def test_rule(self, n_lambdas, cpus, environ, expected):
        assert clustering.sweep_workers(n_lambdas, 500, cpus, environ, 8 * GiB) == expected

    def test_free_memory_caps_the_count(self):
        one = {"OPENBLAS_NUM_THREADS": "1"}
        per_lambda = 16 * 8 * 500 * 500  # bytes allowed per lambda in flight at N = 500
        assert clustering.sweep_workers(4, 500, 4, one, 2 * 3 * per_lambda) == 3
        assert clustering.sweep_workers(4, 500, 4, one, 2 * 3 * per_lambda - 1) == 2
        assert clustering.sweep_workers(4, 20000, 4, one, 8 * GiB) == 1
        assert clustering.sweep_workers(4, 500, 4, one, None) == 1


class TestCheckMemory:
    """The memory floor: the N x N Gram matrix and its eigenvectors against physical memory."""

    def test_floor(self):
        need = 3 * 8 * 500 * 500
        clustering.check_memory(500, need)
        with pytest.raises(InvalidInputError) as err:
            clustering.check_memory(500, need - 1)
        assert str(err.value) == (
            f"N=500 points need at least {need} bytes for the Gram matrix and its "
            f"eigenvectors; physical memory is {need - 1} bytes"
        )
        with pytest.raises(InvalidInputError, match="N=40000 points need at least 38400000000"):
            clustering.check_memory(40000, 32 * GiB)
        clustering.check_memory(40000, 36 * GiB)
        clustering.check_memory(0, 0)
        clustering.check_memory(10**9, None)  # sysconf lacks the names: nothing is refused

    def test_page_probe(self, monkeypatch):
        pages = {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(parallel.os, "sysconf", pages.__getitem__)
        assert parallel.page_bytes("SC_PHYS_PAGES") == 4096 * 1000

        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(parallel.os, "sysconf", unknown)
        assert parallel.page_bytes("SC_PHYS_PAGES") is None
        monkeypatch.delattr(parallel.os, "sysconf")
        assert parallel.page_bytes("SC_AVPHYS_PAGES") is None


class TestClusterLabelsType:
    def test_validation(self):
        with pytest.raises(Exception):
            ClusterLabels(labels=np.array([0, 1, 3]), n_clusters=3)
        with pytest.raises(Exception):
            ClusterLabels(labels=np.array([0, -1]), n_clusters=2)
        ok = ClusterLabels(labels=np.array([0, 1, 2]), n_clusters=3)
        assert ok.n_clusters == 3

    def test_freezes_a_copy_of_the_callers_array(self):
        a = np.array([0, 1, 1], dtype=np.int64)
        c = ClusterLabels(labels=a, n_clusters=2)
        assert a.flags.writeable
        assert c.labels is not a
        assert not c.labels.flags.writeable
        a[0] = 1
        assert c.labels.tolist() == [0, 1, 1]
