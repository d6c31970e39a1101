import dataclasses
import sys
import threading

import numpy as np
import pytest

from grasslrr import (
    GrassmannPoint,
    InvalidConfigError,
    InvalidInputError,
    KernelSpec,
    gram,
    kernel_sqrt,
    orthonormalize,
    sym_eig,
)
import grasslrr
from grasslrr import kernels
from grasslrr.closed_form import build_delta
from grasslrr.kernels import KERNEL_KINDS, KernelMatrix, assemble_gram, gram_workers, psd_clamp
from oracles import k_cc, k_ccp, k_projection, principal_angle_cosines


EPS = np.finfo(np.float64).eps


def random_point(rng, d, p):
    return orthonormalize(rng.standard_normal((d, p)), p)


def grassmann_fixture():
    """30 random points of G(2, 5), whose projection Gram matrix has rank 15."""
    rng = np.random.default_rng(25)
    return [random_point(rng, 5, 2) for _ in range(30)]


class TestPrincipalAngles:
    def test_same_subspace(self):
        rng = np.random.default_rng(0)
        X = random_point(rng, 8, 3)
        np.testing.assert_allclose(principal_angle_cosines(X, X), np.ones(3), atol=1e-10)

    def test_orthogonal_subspaces(self):
        X1 = GrassmannPoint(basis=np.eye(8)[:, :3])
        X2 = GrassmannPoint(basis=np.eye(8)[:, 3:6])
        np.testing.assert_allclose(principal_angle_cosines(X1, X2), np.zeros(3), atol=1e-12)

    def test_planar_rotation_angle(self):
        theta = np.pi / 6
        X1 = GrassmannPoint(basis=np.array([[1.0], [0.0]]))
        X2 = GrassmannPoint(basis=np.array([[np.cos(theta)], [np.sin(theta)]]))
        np.testing.assert_allclose(
            principal_angle_cosines(X1, X2), [np.cos(theta)], atol=1e-12
        )

    def test_symmetric_sorted_clamped(self):
        rng = np.random.default_rng(1)
        X1, X2 = random_point(rng, 10, 4), random_point(rng, 10, 4)
        a = principal_angle_cosines(X1, X2)
        b = principal_angle_cosines(X2, X1)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(np.diff(a) <= 0.0)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidInputError):
            principal_angle_cosines(random_point(rng, 8, 2), random_point(rng, 8, 3))


class TestKernelValues:
    def test_projection_self_is_p(self):
        rng = np.random.default_rng(3)
        X = random_point(rng, 9, 4)
        assert abs(k_projection(X, X) - 4.0) <= 1e-10

    def test_projection_orthogonal_is_zero(self):
        X1 = GrassmannPoint(basis=np.eye(6)[:, :2])
        X2 = GrassmannPoint(basis=np.eye(6)[:, 2:4])
        assert k_projection(X1, X2) == 0.0

    def test_projection_matches_angle_oracle(self):
        rng = np.random.default_rng(4)
        X1, X2 = random_point(rng, 10, 3), random_point(rng, 10, 3)
        cos = principal_angle_cosines(X1, X2)
        assert abs(k_projection(X1, X2) - np.sum(cos**2)) <= 1e-10

    def test_cc_self(self):
        rng = np.random.default_rng(5)
        X = random_point(rng, 7, 3)
        assert abs(k_cc(X, X, "max") - 1.0) <= 1e-10
        assert abs(k_cc(X, X, "sum") - 3.0) <= 1e-10

    def test_cc_orthogonal(self):
        X1 = GrassmannPoint(basis=np.eye(8)[:, :2])
        X2 = GrassmannPoint(basis=np.eye(8)[:, 4:6])
        assert k_cc(X1, X2, "max") == 0.0
        assert k_cc(X1, X2, "sum") == 0.0

    def test_cc_sum_is_nuclear_norm(self):
        rng = np.random.default_rng(6)
        X1, X2 = random_point(rng, 10, 3), random_point(rng, 10, 3)
        nuclear = np.sum(np.linalg.svd(X1.basis.T @ X2.basis, compute_uv=False))
        assert abs(k_cc(X1, X2, "sum") - nuclear) <= 1e-10

    def test_cc_bad_variant(self):
        rng = np.random.default_rng(7)
        X = random_point(rng, 6, 2)
        with pytest.raises(InvalidConfigError):
            k_cc(X, X, "mean")

    def test_ccp_self(self):
        rng = np.random.default_rng(8)
        X = random_point(rng, 9, 3)
        assert abs(k_ccp(X, X, 0.5) - 3.0) <= 1e-10

    def test_ccp_orthogonal(self):
        X1 = GrassmannPoint(basis=np.eye(10)[:, :3])
        X2 = GrassmannPoint(basis=np.eye(10)[:, 3:6])
        for alpha in (0.1, 0.5, 0.9):
            assert k_ccp(X1, X2, alpha) == 0.0

    def test_ccp_matches_component_oracle(self):
        rng = np.random.default_rng(9)
        X1, X2 = random_point(rng, 11, 3), random_point(rng, 11, 3)
        expected = 0.3 * k_cc(X1, X2, "sum") + 0.7 * k_projection(X1, X2)
        assert abs(k_ccp(X1, X2, 0.3) - expected) <= 1e-12

    def test_ccp_alpha_range(self):
        rng = np.random.default_rng(10)
        X = random_point(rng, 6, 2)
        for alpha in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(InvalidConfigError):
                k_ccp(X, X, alpha)
        # KernelSpec checks alpha for every kind, and keeps it for ccp only, 0.5 if not given
        for kind in KERNEL_KINDS:
            for alpha in (0.0, 1.0, -0.3, 1.5, float("nan"), float("inf")):
                with pytest.raises(InvalidConfigError, match="blend weight must be in"):
                    KernelSpec(kind=kind, alpha=alpha)
            assert KernelSpec(kind=kind, alpha=0.3).alpha == (0.3 if kind == "ccp" else None)
            assert KernelSpec(kind=kind).alpha == (0.5 if kind == "ccp" else None)

    def test_order_inequalities(self):
        # cos^2 <= cos on [0,1] forces k_p <= k_cc_sum; max <= sum trivially
        rng = np.random.default_rng(11)
        for _ in range(20):
            X1, X2 = random_point(rng, 9, 3), random_point(rng, 9, 3)
            kmax, ksum, kp = k_cc(X1, X2, "max"), k_cc(X1, X2, "sum"), k_projection(X1, X2)
            assert 0.0 <= kmax <= ksum + 1e-12 <= 3.0 + 1e-12
            assert kp <= ksum + 1e-12

    def test_basis_invariance_all_kernels(self):
        rng = np.random.default_rng(12)
        X, Y = random_point(rng, 10, 3), random_point(rng, 10, 3)
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        Xr = GrassmannPoint(basis=X.basis @ R)
        assert abs(k_projection(Xr, Y) - k_projection(X, Y)) <= 1e-10
        assert abs(k_cc(Xr, Y, "max") - k_cc(X, Y, "max")) <= 1e-10
        assert abs(k_cc(Xr, Y, "sum") - k_cc(X, Y, "sum")) <= 1e-10
        assert abs(k_ccp(Xr, Y, 0.4) - k_ccp(X, Y, 0.4)) <= 1e-10


class TestGram:
    def test_identical_points_projection(self):
        rng = np.random.default_rng(13)
        X = random_point(rng, 8, 3)
        K = gram([X] * 4, KernelSpec(kind="projection"))
        np.testing.assert_allclose(K.values, 3.0 * np.ones((4, 4)), atol=1e-10)

    def test_pairwise_orthogonal_patterns(self):
        points = [GrassmannPoint(basis=np.eye(12)[:, 2 * i : 2 * i + 2]) for i in range(4)]
        K_proj = gram(points, KernelSpec(kind="projection"))
        np.testing.assert_allclose(K_proj.values, 2.0 * np.eye(4), atol=1e-12)
        K_sum = gram(points, KernelSpec(kind="cc-sum"))
        np.testing.assert_allclose(K_sum.values, 2.0 * np.eye(4), atol=1e-12)
        K_max = gram(points, KernelSpec(kind="cc-max"))
        np.testing.assert_allclose(K_max.values, np.eye(4), atol=1e-12)

    def test_projection_gram_equals_delta(self):
        rng = np.random.default_rng(14)
        points = [random_point(rng, 8, 2) for _ in range(6)]
        K = gram(points, KernelSpec(kind="projection"))
        delta = build_delta(points)
        assert np.max(np.abs(K.values - delta.values)) <= 1e-12

    def test_matches_pairwise_oracle(self):
        # batched row assembly vs one pairwise kernel call per entry, then the same repair
        pairwise = {
            "projection": k_projection,
            "cc-max": lambda a, b: k_cc(a, b, "max"),
            "cc-sum": lambda a, b: k_cc(a, b, "sum"),
            "ccp": lambda a, b: k_ccp(a, b, 0.3),
        }
        rng = np.random.default_rng(22)
        for trial in range(40):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, 9))
            p = (1, d, int(rng.integers(1, d + 1)))[trial % 3]
            points = [random_point(rng, d, p) for _ in range(n)]
            for kind, k in pairwise.items():
                spec = KernelSpec(kind=kind, alpha=0.3 if kind == "ccp" else None)
                raw = np.array([[k(a, b) for b in points] for a in points])
                clamped = psd_clamp(raw)
                oracle, magnitude = clamped.values, clamped.clamp_magnitude
                K = gram(points, spec)
                assert np.max(np.abs(K.values - oracle)) <= 1e-12, (kind, n, d, p)
                assert abs(K.clamp_magnitude - magnitude) <= 1e-12, (kind, n, d, p)

    def test_stored_eigendecomposition_reconstructs_values(self):
        # on this fixture the three cc kernels need repair and the projection kernel does not
        rng = np.random.default_rng(23)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        for kind in ("projection", "cc-max", "cc-sum", "ccp"):
            K = gram(points, KernelSpec(kind=kind, alpha=0.5 if kind == "ccp" else None))
            V, w = K.eigenvectors, K.eigenvalues
            assert (K.clamp_magnitude > 0.0) == (kind != "projection")
            if K.clamp_magnitude > 0.0:
                assert np.all(w >= 0.0)
            assert np.all(np.diff(w) >= 0.0)
            assert np.max(np.abs((V * w) @ V.T - K.values)) <= 1e-12

    def test_exact_symmetry(self):
        rng = np.random.default_rng(15)
        points = [random_point(rng, 9, 3) for _ in range(5)]
        for kind in ("projection", "cc-max", "cc-sum", "ccp"):
            spec = KernelSpec(kind=kind, alpha=0.5 if kind == "ccp" else None)
            K = gram(points, spec).values
            assert np.array_equal(K, K.T)

    def test_projection_gram_psd_without_clamping(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(4, 12))
            p = int(rng.integers(1, min(4, d) + 1))
            points = [random_point(rng, d, p) for _ in range(n)]
            K = gram(points, KernelSpec(kind="projection"))
            assert not (K.clamp_magnitude > 0.0)
            assert K.clamp_magnitude == 0.0

    def test_rejects_small_sets(self):
        rng = np.random.default_rng(17)
        with pytest.raises(InvalidInputError):
            gram([], KernelSpec(kind="projection"))
        with pytest.raises(InvalidInputError):
            gram([random_point(rng, 6, 2)], KernelSpec(kind="projection"))


class TestGramRowThreads:
    """Gram rows dealt round-robin to threads: the serial values, bit for bit; no thread
    outlives the call."""

    SPECS = [KernelSpec(kind="cc-max"), KernelSpec(kind="cc-sum"),
             KernelSpec(kind="ccp", alpha=0.3)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_any_thread_count_matches_serial(self, spec, monkeypatch):
        rng = np.random.default_rng(31)
        points = [random_point(rng, 7, 3) for _ in range(23)]
        monkeypatch.setattr(kernels, "gram_workers", lambda n: 1)
        serial = assemble_gram(points, spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' Python steps finely
        try:
            for workers in (2, 3, 5, 40):
                monkeypatch.setattr(kernels, "gram_workers", lambda n: workers)
                before = threading.active_count()
                assert assemble_gram(points, spec).tobytes() == serial.tobytes()
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_a_thread_is_raised_after_joining(self, monkeypatch):
        rng = np.random.default_rng(32)
        points = [random_point(rng, 7, 3) for _ in range(12)]
        real = kernels._kernel_row
        rows = []
        # each stripe waits at its first row (0, 1 or 2) until all three have begun, so the
        # pool must run them on three threads, however the scheduler orders the submits
        started = threading.Barrier(3, timeout=10)

        def failing(cross, spec):
            rows.append(threading.get_ident())
            if cross.shape[0] > 12 - 3:
                started.wait()
            if cross.shape[0] == 12 - 4:  # row 4, which thread 1 of 3 computes
                raise MemoryError("row 4")
            return real(cross, spec)

        monkeypatch.setattr(kernels, "_kernel_row", failing)
        monkeypatch.setattr(kernels, "gram_workers", lambda n: 3)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="row 4"):
            assemble_gram(points, KernelSpec(kind="cc-sum"))
        assert threading.active_count() == before
        assert len(set(rows)) == 3

    def test_default_count(self, monkeypatch):
        monkeypatch.setattr(kernels, "system_cpus", lambda: 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        per_thread = kernels.GRAM_PAIRS_PER_THREAD
        assert gram_workers(60) == 1
        n = next(n for n in range(2, 10**4) if n * (n + 1) // 2 >= 2 * per_thread)
        assert gram_workers(n - 1) == 1
        assert gram_workers(n) == 2
        assert gram_workers(10**4) == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert gram_workers(10**4) == 1

    def test_projection_rows_stay_serial(self, monkeypatch):
        monkeypatch.setattr(kernels, "gram_workers", lambda n: 4)
        rng = np.random.default_rng(33)
        points = [random_point(rng, 7, 3) for _ in range(12)]
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: (started.append(self), real_start(self))[1])
        assemble_gram(points, KernelSpec(kind="projection"))
        assert started == []
        assemble_gram(points, KernelSpec(kind="cc-sum"))
        assert 1 <= len(started) <= 4  # the pool may reuse a thread that finished early


class TestKernelMatrix:
    def test_holds_only_the_eigendecomposition(self):
        assert [f.name for f in dataclasses.fields(KernelMatrix)] == [
            "eigenvalues", "eigenvectors", "clamp_magnitude"]

    def test_repaired_gram_forms_no_matrix(self, monkeypatch):
        # the cc-sum Gram matrix of this fixture needs repair (see
        # test_stored_eigendecomposition_reconstructs_values)
        rng = np.random.default_rng(23)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        calls = []
        real_rebuild = KernelMatrix.rebuild
        monkeypatch.setattr(KernelMatrix, "rebuild",
                            lambda self, values: (calls.append(1), real_rebuild(self, values))[1])
        K = gram(points, KernelSpec(kind="cc-sum"))
        assert K.clamp_magnitude > 0.0
        assert calls == []

    def test_values_is_a_read_only_rebuild(self):
        rng = np.random.default_rng(23)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        repaired = gram(points, KernelSpec(kind="cc-sum"))
        plain = gram(points, KernelSpec(kind="projection"))
        assert repaired.clamp_magnitude > 0.0 and plain.clamp_magnitude == 0.0
        for K in (repaired, plain):
            with pytest.raises(AttributeError):
                K.values = np.zeros((9, 9))
            assert K.values.tobytes() == K.rebuild(K.eigenvalues).tobytes()
        # unrepaired, values is the assembled matrix up to rounding
        raw = assemble_gram(points, KernelSpec(kind="projection"))
        assert np.max(np.abs(plain.values - raw)) <= 1e-12 * np.max(np.abs(raw))

    def test_rebuild_near_the_float64_limit(self):
        K = KernelMatrix(eigenvalues=np.array([1.5e308, 1.0]), eigenvectors=np.eye(2))
        assert K.rebuild(K.eigenvalues).tolist() == [[1.5e308, 0.0], [0.0, 1.0]]

    def test_rebuild_is_the_reconstruction_it_replaced(self):
        # the PSD repair, the kernel square root and the closed-form Z are rebuilds, so
        # rebuild must give the bytes of (V * f) @ V.T symmetrized as (M + M.T) / 2
        rng = np.random.default_rng(11)
        A = rng.standard_normal((9, 9))
        w, V = sym_eig(A + A.T)
        K = KernelMatrix(eigenvalues=w, eigenvectors=V)
        assert w[0] < 0.0  # indefinite, so the clamp repairs
        clamped = np.maximum(w, 0.0)
        shrunk = np.where(w > 0.5, 1.0 - 0.5 / np.where(w > 0.5, w, 1.0), 0.0)
        for values in (clamped, np.sqrt(clamped), shrunk, w):
            M = (V * values) @ V.T
            rebuilt = K.rebuild(values)
            assert rebuilt.tobytes() == ((M + M.T) / 2.0).tobytes()
            assert np.array_equal(rebuilt, rebuilt.T)
        np.testing.assert_allclose(K.rebuild(w), A + A.T, atol=1e-12)

    def test_one_record_for_a_repaired_spectrum(self, monkeypatch):
        # psd_clamp's KernelMatrix is gram's, field for field, on the same raw matrix
        rng = np.random.default_rng(23)
        points = [random_point(rng, 5, 2) for _ in range(9)]
        spec = KernelSpec(kind="cc-sum")
        raw = assemble_gram(points, spec)
        clamped, G = psd_clamp(raw), gram(points, spec)
        assert isinstance(clamped, KernelMatrix) and G.clamp_magnitude > 0.0
        for f in dataclasses.fields(KernelMatrix):
            a, b = getattr(clamped, f.name), getattr(G, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        # a raw decomposition is eigh's own read-only pair, not a record
        seen = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: seen.append(real_eigh(A)) or seen[-1])
        pair = sym_eig(raw)
        assert type(pair) is tuple and len(pair) == 2
        assert pair[0] is seen[0][0] and pair[1] is seen[0][1]
        assert not (pair[0].flags.writeable or pair[1].flags.writeable)
        assert not hasattr(grasslrr, "SymEig")


class TestPsdClamp:
    def test_psd_unchanged(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((5, 5))
        K = A @ A.T
        clamped = psd_clamp(K)
        assert clamped.clamp_magnitude == 0.0
        assert clamped.eigenvalues.tobytes() == sym_eig(K)[0].tobytes()
        assert np.max(np.abs(clamped.rebuild(clamped.eigenvalues) - K)) <= 1e-12 * np.max(np.abs(K))

    def test_diagonal_truncation(self):
        clamped = psd_clamp(np.diag([1.0, -0.5]))
        out = clamped.rebuild(clamped.eigenvalues)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(clamped.clamp_magnitude - 0.5) <= 1e-12

    def test_matches_truncation_oracle(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((5, 5))
        K = (A + A.T) / 2.0
        clamped = psd_clamp(K)
        out = clamped.rebuild(clamped.eigenvalues)
        w, V = np.linalg.eigh(K)
        oracle = (V * np.maximum(w, 0.0)) @ V.T
        np.testing.assert_allclose(out, oracle, atol=1e-10)
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        assert abs(clamped.clamp_magnitude - max(0.0, -w[0])) <= 1e-12

    def test_repair_is_rebuild_of_the_clamped_spectrum(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((7, 7))
        kept = psd_clamp(A + A.T)
        out = kept.rebuild(kept.eigenvalues)
        assert kept.clamp_magnitude > 0.0
        w, V = sym_eig(A + A.T)
        r = int(np.sum(w > 7 * EPS * w[-1]))
        assert 0 < r < 7
        assert kept.eigenvalues.tobytes() == w[7 - r:].tobytes()
        assert kept.eigenvectors.tobytes() == np.ascontiguousarray(V[:, 7 - r:]).tobytes()
        clamped = KernelMatrix(eigenvalues=w, eigenvectors=V).rebuild(np.maximum(w, 0.0))
        assert np.max(np.abs(out - clamped)) <= 1e-12 * np.max(np.abs(clamped))
        assert np.array_equal(out, out.T)

    def test_keeps_only_the_numerical_range(self):
        # 30 points of G(2, 5): the projection Gram matrix has rank m = 15 < N
        G = gram(grassmann_fixture(), KernelSpec(kind="projection"))
        assert G.eigenvectors.shape == (30, 15)
        assert G.eigenvectors.flags.c_contiguous and not G.eigenvectors.flags.writeable

    def test_no_kept_eigenvalue_at_rounding_level(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((12, 12))
        G = gram(grassmann_fixture(), KernelSpec(kind="projection"))
        for K in (G.values, A + A.T):
            kept = psd_clamp(K).eigenvalues
            w, _ = sym_eig(K)
            assert np.all(kept > K.shape[0] * EPS * w[-1])
            assert kept.size == np.sum(w > K.shape[0] * EPS * w[-1])


class TestKernelSqrt:
    def test_identity(self):
        np.testing.assert_allclose(kernel_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(kernel_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_reconstructs(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((6, 6))
        K = A @ A.T
        S = kernel_sqrt(K)
        assert np.array_equal(S, S.T)
        assert np.linalg.norm(S @ S - K) <= 1e-8 * np.linalg.norm(K)

    def test_is_rebuild_of_the_roots(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((6, 6))
        w, V = sym_eig(A @ A.T)
        roots = np.sqrt(np.maximum(w, 0.0))
        assert kernel_sqrt(A @ A.T).tobytes() == KernelMatrix(w, V).rebuild(roots).tobytes()

    def test_entries_near_the_float64_limit(self):
        K = np.array([[1.5e308, 1e307], [1e307, 1e308]])
        S = kernel_sqrt(K)
        assert np.isfinite(S).all()
        assert np.max(np.abs(S @ S - K)) <= 1e-14 * 1.5e308

    def test_eigenvalue_beyond_float64_range_rejected(self):
        # an inf eigenvalue used to give the all-zero matrix
        with pytest.raises(InvalidInputError, match="eigenvalue beyond float64 range"):
            kernel_sqrt(np.array([[1.5e308, -1.7e308], [-1.7e308, 1.0]]))

    def test_rank_is_the_kept_count(self):
        # the square roots of rounding-level eigenvalues would add rank
        G = gram(grassmann_fixture(), KernelSpec(kind="projection"))
        assert np.linalg.matrix_rank(kernel_sqrt(G.values)) == 15

    def test_accepts_kernel_matrix(self):
        rng = np.random.default_rng(21)
        points = [random_point(rng, 8, 2) for _ in range(4)]
        K = gram(points, KernelSpec(kind="projection"))
        S = kernel_sqrt(K)
        assert np.linalg.norm(S @ S - K.values) <= 1e-8 * np.linalg.norm(K.values)
