import dataclasses
import itertools

import numpy as np
import pytest

from grasslrr import (
    AdmmConfig,
    admm_solve,
    ClusterLabels,
    InvalidConfigError,
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

    def test_accepts_coefficients(self):
        rng = np.random.default_rng(2)
        Z = LowRankCoefficients(Z=rng.standard_normal((4, 4)))
        assert affinity_from_Z(Z).shape == (4, 4)


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
            points, "glrr-21", NcutConfig(n_clusters=2, seed=0), admm_cfg=AdmmConfig(lam=1.0)
        )
        assert diag["converged"]
        assert diag["iterations"] > 0
        assert accuracy(labels, truth).accuracy == 1.0

    def test_glrr_21_rank_matches_fresh_svd(self):
        points, _ = two_cluster_points(seed=2)
        for cfg in (AdmmConfig(lam=1.0), AdmmConfig(lam=0.5, max_iters=5)):
            _, coeffs, diag = cluster_pipeline(
                points, "glrr-21", NcutConfig(n_clusters=2, seed=0), admm_cfg=cfg
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
        with pytest.raises(InvalidConfigError):
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
            single = dict(kwargs)
            if method == "glrr-21":
                single["admm_cfg"] = dataclasses.replace(kwargs["admm_cfg"], lam=lam)
            assert_bit_identical(result, cluster_pipeline(points, method, cfg, lam=lam, **single))
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


class TestClusterLabelsType:
    def test_validation(self):
        with pytest.raises(Exception):
            ClusterLabels(labels=np.array([0, 1, 3]), n_clusters=3)
        with pytest.raises(Exception):
            ClusterLabels(labels=np.array([0, -1]), n_clusters=2)
        ok = ClusterLabels(labels=np.array([0, 1, 2]), n_clusters=3)
        assert ok.n_clusters == 3
