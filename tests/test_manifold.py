import numpy as np
import pytest

from grasslrr import (
    GrassmannPoint,
    InvalidInputError,
    RankDeficientError,
    glrr_f_solve,
    orthonormalize,
    project_embed,
    sym_eig,
)
from oracles import grassmann_distance, thin_svd


def random_point(rng, d, p):
    return orthonormalize(rng.standard_normal((d, p)), p)


class TestThinSvd:
    def test_identity(self):
        svd = thin_svd(np.eye(3))
        np.testing.assert_allclose(svd.S, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        svd = thin_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(svd.S, [3.0, 2.0, 1.0], atol=1e-12)

    def test_singular_values_match_eigen_oracle(self):
        # independent oracle: eigenvalues of M^T M under a symmetric eigensolver
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3))
        svd = thin_svd(M)
        expected = np.sqrt(np.maximum(np.linalg.eigvalsh(M.T @ M)[::-1], 0.0))
        np.testing.assert_allclose(svd.S, expected, atol=1e-8)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((7, 4))
        svd = thin_svd(M)
        recon = svd.U @ np.diag(svd.S) @ svd.V.T
        assert np.linalg.norm(recon - M) <= 1e-8 * np.linalg.norm(M)
        np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(4), atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 3))
        svd = thin_svd(M)
        for k in range(3):
            col = svd.U[:, k]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_descending_order(self):
        rng = np.random.default_rng(6)
        svd = thin_svd(rng.standard_normal((8, 5)))
        assert np.all(np.diff(svd.S) <= 0.0)
        assert np.all(svd.S >= 0.0)

    def test_non_finite_rejected(self):
        M = np.eye(3)
        M[1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            thin_svd(M)


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(4))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(4), atol=1e-12)

    def test_diagonal(self):
        eig = sym_eig(np.diag([5.0, -2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [5.0, -2.0], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6))
        A = (A + A.T) / 2.0
        eig = sym_eig(A)
        assert abs(np.trace(A) - np.sum(eig.eigenvalues)) <= 1e-10

    def test_eigenpairs(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((5, 5))
        A = (A + A.T) / 2.0
        eig = sym_eig(A)
        V = eig.eigenvectors
        np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-10)
        scale = np.linalg.norm(A)
        for i in range(5):
            resid = A @ V[:, i] - eig.eigenvalues[i] * V[:, i]
            assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_asymmetry_rejected(self):
        A = np.eye(3)
        A[0, 1] = 1e-6
        with pytest.raises(InvalidInputError):
            sym_eig(A)

    def test_small_asymmetry_symmetrized(self):
        A = np.eye(3)
        A[0, 1] = 5e-9
        eig = sym_eig(A)
        assert np.isfinite(eig.eigenvalues).all()

    def test_asymmetry_tolerance_scales_with_the_matrix(self):
        # one ulp of asymmetry in a Gram matrix of entries near 1e12 is 4.9e-4 in
        # absolute terms, but only 6.4e-17 of the largest entry
        rng = np.random.default_rng(12)
        B = rng.standard_normal((6, 4))
        G = (B @ B.T) * 1e12
        G[0, 1] = np.nextafter(G[0, 1], np.inf)
        assert np.max(np.abs(G - G.T)) > 1e-8
        assert np.max(np.abs(G - G.T)) <= 1e-15 * np.max(np.abs(G))
        assert np.isfinite(sym_eig(G).eigenvalues).all()
        Z, _ = glrr_f_solve(G, 0.5)
        assert np.isfinite(Z.Z).all()

    def test_asymmetry_rejected_at_any_scale(self):
        # one entry 0.1% off is 2.2e-4 of the largest entry, even though every
        # entry, and so the absolute asymmetry (3.0e-15), is far below 1e-8
        rng = np.random.default_rng(13)
        B = rng.standard_normal((6, 4))
        G = (B @ B.T) * 1e-12
        G[0, 1] *= 1.001
        assert np.max(np.abs(G - G.T)) > 1e-5 * np.max(np.abs(G))
        with pytest.raises(InvalidInputError, match="1e-8 of its largest entry"):
            sym_eig(G)

    def test_rebuild_is_the_reconstruction_it_replaced(self):
        # the PSD repair, the kernel square root and the closed-form Z are rebuilds, so
        # rebuild must give the bytes of (V * f) @ V.T symmetrized as (M + M.T) / 2
        rng = np.random.default_rng(11)
        A = rng.standard_normal((9, 9))
        eig = sym_eig(A + A.T)
        w, V = eig.eigenvalues, eig.eigenvectors
        assert w[-1] < 0.0  # indefinite, so the clamp repairs
        clamped = np.maximum(w, 0.0)
        shrunk = np.where(w > 0.5, 1.0 - 0.5 / np.where(w > 0.5, w, 1.0), 0.0)
        for values in (clamped, np.sqrt(clamped), shrunk, w):
            M = (V * values) @ V.T
            rebuilt = eig.rebuild(values)
            assert rebuilt.tobytes() == ((M + M.T) / 2.0).tobytes()
            assert np.array_equal(rebuilt, rebuilt.T)
        np.testing.assert_allclose(eig.rebuild(w), A + A.T, atol=1e-12)


class TestOrthonormalize:
    def test_identity_first_vectors(self):
        point = orthonormalize(np.eye(4), 2)
        np.testing.assert_allclose(np.abs(point.basis), np.eye(4)[:, :2], atol=1e-12)

    def test_orthonormal_input_preserves_span(self):
        rng = np.random.default_rng(9)
        M = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        point = orthonormalize(M, 3)
        diff = point.basis @ point.basis.T - M @ M.T
        assert np.linalg.norm(diff) <= 1e-8

    def test_span_matches_svd_oracle(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((10, 6))
        point = orthonormalize(M, 3)
        np.testing.assert_allclose(point.basis.T @ point.basis, np.eye(3), atol=1e-10)
        U = np.linalg.svd(M, full_matrices=False)[0][:, :3]
        assert np.linalg.norm(point.basis @ point.basis.T - U @ U.T) <= 1e-8
        # the basis is the sign-canonical SVD's leading columns, bit for bit
        assert np.array_equal(point.basis, thin_svd(M).U[:, :3])

    def test_rank_deficiency_reports_rank(self):
        M = np.zeros((5, 3))
        M[:, 0] = 1.0
        M[:, 1] = 2.0  # parallel to column 0
        with pytest.raises(RankDeficientError) as err:
            orthonormalize(M, 2)
        assert err.value.achieved_rank == 1

    def test_bad_p(self):
        with pytest.raises(InvalidInputError):
            orthonormalize(np.eye(3), 4)


class TestProjectEmbed:
    def test_standard_basis(self):
        point = GrassmannPoint(basis=np.eye(5)[:, :2])
        expected = np.zeros((5, 5))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(project_embed(point), expected, atol=1e-12)

    def test_trace_is_p(self):
        rng = np.random.default_rng(11)
        point = random_point(rng, 9, 4)
        assert abs(np.trace(project_embed(point)) - 4.0) <= 1e-10

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(12)
        point = random_point(rng, 6, 2)
        oracle = np.outer(point.basis[:, 0], point.basis[:, 0]) + np.outer(
            point.basis[:, 1], point.basis[:, 1]
        )
        np.testing.assert_allclose(project_embed(point), oracle, atol=1e-12)

    def test_idempotent_psd_binary_spectrum(self):
        rng = np.random.default_rng(13)
        point = random_point(rng, 8, 3)
        P = project_embed(point)
        assert np.linalg.norm(P @ P - P) <= 1e-10
        eigvals = np.linalg.eigvalsh(P)
        assert np.all((np.abs(eigvals) <= 1e-8) | (np.abs(eigvals - 1.0) <= 1e-8))


class TestGrassmannDistance:
    def test_zero_for_same_point(self):
        rng = np.random.default_rng(14)
        point = random_point(rng, 7, 3)
        assert grassmann_distance(point, point) == 0.0

    def test_orthogonal_subspaces(self):
        X1 = GrassmannPoint(basis=np.eye(6)[:, :2])
        X2 = GrassmannPoint(basis=np.eye(6)[:, 2:4])
        assert abs(grassmann_distance(X1, X2) - np.sqrt(4.0)) <= 1e-12

    def test_matches_dense_embedding_oracle(self):
        rng = np.random.default_rng(15)
        X1, X2 = random_point(rng, 8, 3), random_point(rng, 8, 3)
        dense = np.linalg.norm(project_embed(X1) - project_embed(X2))
        assert abs(grassmann_distance(X1, X2) - dense) <= 1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        with pytest.raises(InvalidInputError):
            grassmann_distance(random_point(rng, 8, 3), random_point(rng, 8, 2))
        with pytest.raises(InvalidInputError):
            grassmann_distance(random_point(rng, 8, 3), random_point(rng, 9, 3))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b, c = (random_point(rng, 7, 2) for _ in range(3))
            assert grassmann_distance(a, c) <= (
                grassmann_distance(a, b) + grassmann_distance(b, c) + 1e-10
            )

    def test_basis_invariance(self):
        rng = np.random.default_rng(18)
        X, Y = random_point(rng, 9, 3), random_point(rng, 9, 3)
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotated = GrassmannPoint(basis=X.basis @ R)
        assert abs(grassmann_distance(rotated, Y) - grassmann_distance(X, Y)) <= 1e-10


class TestGrassmannPoint:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError):
            GrassmannPoint(basis=np.ones((4, 2)))

    def test_produced_points_orthonormal(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            point = random_point(rng, 12, 4)
            gram = point.basis.T @ point.basis
            assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_immutable(self):
        rng = np.random.default_rng(20)
        point = random_point(rng, 5, 2)
        with pytest.raises(ValueError):
            point.basis[0, 0] = 7.0

    def test_full_space_allowed(self):
        point = orthonormalize(np.eye(3), 3)
        assert point.p == point.d == 3
