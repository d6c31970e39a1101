import numpy as np
import pytest

from grasslrr import (
    InvalidConfigError,
    InvalidInputError,
    KernelSpec,
    NcutConfig,
    build_delta,
    cluster_pipeline,
    glrr_f_solve,
    gram,
    kernel_sqrt,
    orthonormalize,
    project_embed,
)
from grasslrr.kernels import assemble_gram, psd_clamp


def random_point(rng, d, p):
    return orthonormalize(rng.standard_normal((d, p)), p)


def random_psd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T


def objective_dense(Z, G, lam):
    """Solved objective evaluated without the trace shortcuts."""
    sq = kernel_sqrt(G)
    fit = np.linalg.norm(Z @ sq - sq) ** 2
    nuc = np.sum(np.linalg.svd(Z, compute_uv=False))
    return 0.5 * fit + lam * nuc


def oracle_svt(M, tau):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def prox_gradient_minimum(G, lam, tol=1e-9, max_iters=200000):
    """Independent first-order route to the same minimum (ISTA on the objective)."""
    n = G.shape[0]
    L = float(np.linalg.eigvalsh(G)[-1])
    Z = np.zeros((n, n))
    for _ in range(max_iters):
        Z_new = oracle_svt(Z - (Z @ G - G) / L, lam / L)
        gap = L * np.linalg.norm(Z - Z_new)
        Z = Z_new
        if gap <= tol:
            break
    return objective_dense(Z, G, lam)


class TestBuildDelta:
    def test_diagonal_is_p(self):
        rng = np.random.default_rng(0)
        points = [random_point(rng, 9, 3) for _ in range(5)]
        delta = build_delta(points)
        np.testing.assert_allclose(np.diag(delta.values), 3.0 * np.ones(5), atol=1e-10)

    def test_orthogonal_points(self):
        points = [orthonormalize(np.eye(12)[:, 3 * i : 3 * i + 3], 3) for i in range(4)]
        delta = build_delta(points)
        np.testing.assert_allclose(delta.values, 3.0 * np.eye(4), atol=1e-12)

    def test_matches_vectorization_oracle(self):
        # Gram of vec(X_i X_i^T): the embedded-space inner products
        rng = np.random.default_rng(1)
        points = [random_point(rng, 8, 2) for _ in range(6)]
        delta = build_delta(points)
        vecs = np.stack([project_embed(X).reshape(-1) for X in points])
        oracle = vecs @ vecs.T
        assert np.max(np.abs(delta.values - oracle)) <= 1e-12

    def test_psd(self):
        rng = np.random.default_rng(2)
        points = [random_point(rng, 10, 3) for _ in range(7)]
        w = np.linalg.eigvalsh(build_delta(points).values)
        assert w[0] >= -1e-8 * w[-1]

    def test_rejects_mismatched_points(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInputError):
            build_delta([random_point(rng, 8, 2), random_point(rng, 8, 3)])
        with pytest.raises(InvalidInputError):
            build_delta([random_point(rng, 8, 2)])


class TestGlrrFSolve:
    def test_huge_lambda_gives_zero(self):
        rng = np.random.default_rng(4)
        G = random_psd(rng, 6)
        lam = float(np.linalg.eigvalsh(G)[-1]) * 1.5
        Z, report = glrr_f_solve(G, lam)
        assert np.max(np.abs(Z.Z)) == 0.0
        assert report.kept_count == 0

    def test_eigenvalue_beyond_float64_range_rejected(self):
        # an inf eigenvalue used to leave no eigenpair kept and Z = 0 as if solved
        with pytest.raises(InvalidInputError, match="eigenvalue beyond float64 range"):
            glrr_f_solve(np.array([[1.5e308, -1.7e308], [-1.7e308, 1.0]]), 0.1)

    def test_scaled_identity(self):
        c, lam = 4.0, 1.0
        Z, report = glrr_f_solve(c * np.eye(5), lam)
        np.testing.assert_allclose(Z.Z, (1.0 - lam / c) * np.eye(5), atol=1e-10)
        assert report.kept_count == 5

    def test_matches_prox_gradient_oracle(self):
        rng = np.random.default_rng(5)
        G = random_psd(rng, 8)
        lam = 0.5 * float(np.linalg.eigvalsh(G)[-1])
        Z, report = glrr_f_solve(G, lam)
        oracle = prox_gradient_minimum(G, lam)
        assert report.objective_value <= oracle + 1e-6

    def test_report_matches_dense_objective(self):
        rng = np.random.default_rng(6)
        G = random_psd(rng, 7)
        lam = 0.3 * float(np.linalg.eigvalsh(G)[-1])
        Z, report = glrr_f_solve(G, lam)
        assert abs(report.objective_value - objective_dense(Z.Z, G, lam)) <= 1e-8

    def test_eigenvalue_rule_exact(self):
        rng = np.random.default_rng(7)
        G = random_psd(rng, 9)
        lam = 0.4 * float(np.linalg.eigvalsh(G)[-1])
        Z, _ = glrr_f_solve(G, lam)
        sigma = psd_clamp(G).eigenvalues
        expected = np.where(sigma > lam, 1.0 - lam / np.where(sigma > lam, sigma, 1.0), 0.0)
        actual = np.linalg.eigvalsh(Z.Z)[::-1]
        np.testing.assert_allclose(actual, np.sort(expected)[::-1], atol=1e-10)
        assert np.array_equal(Z.Z, Z.Z.T)

    def test_z_is_rebuild_of_the_shrunk_spectrum(self):
        rng = np.random.default_rng(8)
        G = gram([random_point(rng, 6, 2) for _ in range(9)], KernelSpec(kind="projection"))
        sigma = G.eigenvalues
        lam = 0.4 * float(sigma[-1])
        Z, _ = glrr_f_solve(G, lam)
        eff = np.where(sigma > 1e-12 * sigma[-1], sigma, 0.0)
        shrunk = np.where(eff > lam, 1.0 - lam / np.where(eff > lam, eff, 1.0), 0.0)
        assert Z.Z.tobytes() == G.rebuild(shrunk).tobytes()

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(8)
        G = random_psd(rng, 8)
        sigma_max = float(np.linalg.eigvalsh(G)[-1])
        prev_rank, prev_eigs = None, None
        for lam in (0.05 * sigma_max, 0.2 * sigma_max, 0.6 * sigma_max):
            Z, report = glrr_f_solve(G, lam)
            eigs = np.linalg.eigvalsh(Z.Z)[::-1]
            if prev_rank is not None:
                assert report.kept_count <= prev_rank
                assert np.all(eigs <= prev_eigs + 1e-12)
            prev_rank, prev_eigs = report.kept_count, eigs

    def test_optimality_certificate(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            G = random_psd(rng, n)
            lam = float(np.linalg.eigvalsh(G)[-1]) * rng.uniform(0.1, 0.9)
            Z, report = glrr_f_solve(G, lam)
            base = objective_dense(Z.Z, G, lam)
            P = rng.standard_normal((n, n))
            P = (P + P.T) / 2.0
            P *= 1e-3 / np.linalg.norm(P)
            assert objective_dense(Z.Z + P, G, lam) >= base - 1e-9

    def test_scale_covariance(self):
        rng = np.random.default_rng(10)
        G = random_psd(rng, 6)
        lam = 0.3 * float(np.linalg.eigvalsh(G)[-1])
        Z1, _ = glrr_f_solve(G, lam)
        for c in (0.5, 8.0):
            Z2, _ = glrr_f_solve(c * G, c * lam)
            assert np.max(np.abs(Z1.Z - Z2.Z)) <= 1e-10

    def test_tiny_eigenvalues_guarded(self):
        # rank-1 G with tiny lambda: numerically-zero eigenvalues must not blow up
        v = np.array([1.0, 2.0, 3.0])
        G = np.outer(v, v)
        Z, report = glrr_f_solve(G, 1e-9)
        assert report.kept_count == 1
        assert np.isfinite(Z.Z).all()

    def test_entries_near_the_float64_limit(self):
        # both eigenvalues are finite, though the trace overflows
        G = np.array([[1.5e308, 1e307], [1e307, 1e308]])
        Z, report = glrr_f_solve(G, 1.0)
        assert report.kept_count == 2
        np.testing.assert_allclose(Z.Z, np.eye(2), atol=1e-15)
        assert np.isfinite(report.objective_value)

    def test_plain_array_is_repaired(self):
        # an indefinite array is solved on psd_clamp's spectrum, as its KernelMatrix is
        rng = np.random.default_rng(14)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        K = gram(points, KernelSpec(kind="cc-sum"))
        raw = assemble_gram(points, KernelSpec(kind="cc-sum"))
        assert K.clamp_magnitude > 0.0
        Zk, rep_k = glrr_f_solve(K, 0.3)
        Zr, rep_r = glrr_f_solve(raw, 0.3)
        kept = psd_clamp(raw).eigenvalues
        assert np.all(kept > 0.0)
        assert kept.tobytes() == K.eigenvalues.tobytes()
        assert Zr.Z.tobytes() == Zk.Z.tobytes()
        assert rep_r == rep_k

    def test_rejects_bad_lambda(self):
        with pytest.raises(InvalidConfigError):
            glrr_f_solve(np.eye(3), 0.0)
        with pytest.raises(InvalidConfigError):
            glrr_f_solve(np.eye(3), -1.0)

    def test_rejects_non_finite_lambda(self):
        # an infinite lambda would shrink every eigenvalue to zero and "solve" with Z = 0
        for lam in (np.inf, np.nan):
            with pytest.raises(InvalidConfigError, match="finite"):
                glrr_f_solve(np.eye(3), lam)


class TestKglrrSolve:
    def test_projection_path_equals_direct(self):
        rng = np.random.default_rng(11)
        points = [random_point(rng, 8, 2) for _ in range(6)]
        Zk, _ = glrr_f_solve(gram(points, KernelSpec(kind="projection")), 0.7)
        Zd, _ = glrr_f_solve(build_delta(points), 0.7)
        assert np.max(np.abs(Zk.Z - Zd.Z)) <= 1e-10

    def test_identical_points_rank_one(self):
        rng = np.random.default_rng(12)
        X = random_point(rng, 7, 3)
        n, k_self = 5, 3.0
        lam = 0.5
        Z, report = glrr_f_solve(gram([X] * n, KernelSpec(kind="projection")), lam)
        expected = (1.0 - lam / (n * k_self)) * np.full((n, n), 1.0 / n)
        np.testing.assert_allclose(Z.Z, expected, atol=1e-8)
        assert report.kept_count == 1

    def test_one_eigendecomposition_per_solve(self, monkeypatch):
        import grasslrr.kernels

        calls = []
        real = grasslrr.kernels.sym_eig

        def counting(A):
            calls.append(A.shape)
            return real(A)

        monkeypatch.setattr(grasslrr.kernels, "sym_eig", counting)
        rng = np.random.default_rng(15)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        for kind in ("projection", "cc-sum"):
            calls.clear()
            glrr_f_solve(gram(points, KernelSpec(kind=kind)), 0.5)
            assert calls == [(9, 9)]

    def test_repaired_solve_matches_fresh_eigendecomposition(self):
        # the stored post-repair spectrum gives the Z a second eigh of the repaired matrix gives
        rng = np.random.default_rng(16)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        for kind in ("cc-max", "cc-sum", "ccp"):
            spec = KernelSpec(kind=kind, alpha=0.5 if kind == "ccp" else None)
            K = gram(points, spec)
            assert K.clamp_magnitude > 0.0
            Zk, rep_k = glrr_f_solve(K, 0.3)
            Zf, rep_f = glrr_f_solve(np.array(K.values), 0.3)
            assert np.max(np.abs(Zk.Z - Zf.Z)) <= 1e-10
            assert rep_k.kept_count == rep_f.kept_count
            _, Zs, diag = cluster_pipeline(points, "kglrr", NcutConfig(n_clusters=2), lam=0.3,
                                           kernel_spec=spec)
            assert np.array_equal(Zs.Z, Zk.Z)
            assert diag["clamp_magnitude"] == K.clamp_magnitude > 0.0

    def test_ccp_solution_spectrum(self):
        rng = np.random.default_rng(13)
        points = [random_point(rng, 9, 3) for _ in range(6)]
        Z, _ = glrr_f_solve(gram(points, KernelSpec(kind="ccp", alpha=0.5)), 0.5)
        eigs = np.linalg.eigvalsh((Z.Z + Z.Z.T) / 2.0)
        assert np.all(eigs >= -1e-10)
        assert np.all(eigs < 1.0)
        assert np.max(np.abs(Z.Z - Z.Z.T)) <= 1e-12


class TestObjectiveReconciliation:
    def test_embedded_objective_equals_residual_sq(self):
        # the dense embedded-space reconstruction error is the unhalved fit term
        # the reported objective halves (identically equal on the Gram path)
        rng = np.random.default_rng(14)
        points = [random_point(rng, 7, 2) for _ in range(5)]
        delta = build_delta(points)
        Z, report = glrr_f_solve(delta, 0.5)
        B = np.stack([project_embed(X) for X in points])
        recon = np.einsum("ji,jab->iab", Z.Z, B)
        dense_fit = float(np.sum((B - recon) ** 2))
        nuclear = float(np.sum(np.linalg.svd(Z.Z, compute_uv=False)))
        assert abs(report.objective_value - (0.5 * dense_fit + 0.5 * nuclear)) <= 1e-8
