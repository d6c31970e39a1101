import tracemalloc

import numpy as np
import pytest

from grasslrr import (
    AdmmConfig,
    InvalidConfigError,
    InvalidInputError,
    NumericalDivergenceError,
    OracleTooLargeError,
    admm_solve,
    build_delta,
    dense_reference,
    orthonormalize,
    project_embed,
    svt,
    synth_union,
    SynthSpec,
)
from grasslrr.admm import ETA_MARGIN, SVT_EIGH_GUARD, _gap, _svt, next_mu
from grasslrr.clustering import NcutConfig, affinity_from_Z, cluster_pipeline
from grasslrr.kernels import KernelSpec, assemble_gram
from oracles import e_step, z_step


def random_point(rng, d, p):
    return orthonormalize(rng.standard_normal((d, p)), p)


def random_points(seed, n, d, p):
    rng = np.random.default_rng(seed)
    return [random_point(rng, d, p) for _ in range(n)]


def svd_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def eigh_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def fail_svt_eigh(monkeypatch):
    # the Gram matrix is decomposed when it is built, so every eigh a solve
    # then runs is an SVT's
    monkeypatch.setattr("numpy.linalg.eigh", eigh_failure)


class TestSvt:
    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 4))
        assert np.max(np.abs(svt(M, 0.0) - M)) <= 1e-10

    def test_full_threshold_zeroes(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        tau = np.linalg.svd(M, compute_uv=False)[0]
        assert np.max(np.abs(svt(M, tau))) <= 1e-12

    def test_diagonal_case(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A, B = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
            tau = rng.uniform(0.1, 2.0)
            assert np.linalg.norm(svt(A, tau) - svt(B, tau)) <= np.linalg.norm(A - B) + 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidConfigError):
            svt(np.eye(3), -0.1)

    @pytest.mark.parametrize("tau", [np.nan, -np.inf])
    def test_non_numeric_threshold_rejected(self, tau):
        with pytest.raises(InvalidConfigError):
            svt(np.eye(3), tau)

    def test_infinite_threshold_zeroes(self):
        M = np.random.default_rng(5).standard_normal((4, 6))
        assert np.array_equal(svt(M, np.inf), np.zeros((4, 6)))

    @pytest.mark.parametrize("scale", [1e-200, 1e-300, 1e200, 1e300])
    def test_extreme_scales_match_svd(self, scale):
        # squaring such M would underflow or overflow without the exponent shift
        rng = np.random.default_rng(6)
        M = rng.standard_normal((6, 4))
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        tau = 0.5 * s[1]
        expected = (U * np.maximum(s - tau, 0.0)) @ Vt
        Z, shrunk, driver = _svt(scale * M, scale * tau)
        assert driver == "eigh"
        assert np.max(np.abs(Z / scale - expected)) <= 1e-12 * s[0]
        assert np.max(np.abs(shrunk / scale - np.maximum(s - tau, 0.0))) <= 1e-12 * s[0]

    def test_gesvd_fallback_when_eigh_and_gesdd_fail(self, monkeypatch):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 8))
        tau = 0.8
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        oracle = (U * np.maximum(s - tau, 0.0)) @ Vt
        monkeypatch.setattr("numpy.linalg.eigh", eigh_failure)
        monkeypatch.setattr("numpy.linalg.svd", svd_failure)
        Z, shrunk, driver = _svt(M, tau)
        assert driver == "gesvd"
        assert np.max(np.abs(Z - oracle)) <= 1e-12
        assert np.max(np.abs(shrunk - np.maximum(s - tau, 0.0))) <= 1e-12

    def test_gesvd_fallback_when_gesdd_fails(self, monkeypatch):
        # tau below the eigh guard, so gesdd runs, fails and hands over to gesvd
        rng = np.random.default_rng(3)
        M = rng.standard_normal((7, 5))
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        tau = 0.5 * SVT_EIGH_GUARD * s[0]
        oracle = (U * np.maximum(s - tau, 0.0)) @ Vt
        failed = []

        def failing_svd(*args, **kwargs):
            failed.append(1)
            svd_failure()

        monkeypatch.setattr("numpy.linalg.svd", failing_svd)
        assert _svt(M, tau)[2] == "gesvd"
        assert np.max(np.abs(svt(M, tau) - oracle)) <= 1e-12
        assert len(failed) == 2

    def test_both_drivers_failing_is_divergence(self, monkeypatch):
        # every driver fails: eigh of the Gram side, gesdd and gesvd
        delta = build_delta(random_points(4, 6, 10, 2))
        fail_svt_eigh(monkeypatch)
        monkeypatch.setattr("numpy.linalg.svd", svd_failure)
        monkeypatch.setattr("scipy.linalg.svd", svd_failure)
        with pytest.raises(NumericalDivergenceError, match="iteration 1"):
            admm_solve(delta, AdmmConfig(lam=1.0, max_iters=3))


class TestSvtDrivers:
    @staticmethod
    def robust_instance():
        # four noisy 3-dimensional subspaces of R^30, 10% replaced by outliers
        points, _ = synth_union(SynthSpec(n_clusters=4, per_cluster=10, d=30, p=3,
                                          noise_sigma=0.05, seed=8))
        rng = np.random.default_rng(8)
        for i in rng.choice(len(points), 4, replace=False):
            points[i] = random_point(rng, 30, 3)
        return build_delta(points)

    def test_robust_solve_runs_on_eigh(self):
        _, _, report = admm_solve(self.robust_instance(), AdmmConfig(lam=1.0, max_iters=150))
        assert report.svt_drivers == {"eigh": report.iterations, "gesdd": 0, "gesvd": 0}

    def test_threshold_below_guard_runs_gesdd(self):
        # a small lambda over a large penalty makes tau = lam / (eta mu) tiny
        # against the SVT argument's sigma_max
        cfg = AdmmConfig(lam=1e-3, mu0=1e3, max_iters=5)
        _, _, report = admm_solve(self.robust_instance(), cfg)
        assert report.svt_drivers == {"eigh": 0, "gesdd": 5, "gesvd": 0}

    def test_eigh_failure_runs_gesdd(self, monkeypatch):
        delta = self.robust_instance()
        fail_svt_eigh(monkeypatch)
        _, _, report = admm_solve(delta, AdmmConfig(lam=1.0, max_iters=5))
        assert report.svt_drivers == {"eigh": 0, "gesdd": 5, "gesvd": 0}

    def test_drivers_do_not_change_iterates(self, monkeypatch):
        delta = self.robust_instance()
        cfg = AdmmConfig(lam=1.0, max_iters=30, eps1=1e-30)
        _, _, fast = admm_solve(delta, cfg, track_iterates=True)
        fail_svt_eigh(monkeypatch)
        _, _, exact = admm_solve(delta, cfg, track_iterates=True)
        assert fast.svt_drivers["eigh"] == exact.svt_drivers["gesdd"] == 30
        for Zf, Ze in zip(fast.z_history, exact.z_history):
            assert np.max(np.abs(Zf - Ze)) <= 1e-12


class TestESlice:
    def test_cold_start_shrinks_unit_columns(self):
        # Z=0, xi=0, mu=1, p=4: M = sqrt(delta_ii) = 2, column = 0.5 e_i
        points = random_points(3, 4, 12, 4)
        delta = build_delta(points).values
        n = 4
        out = e_step(np.zeros((n, n)), np.zeros((n, n)), 1.0, delta)
        np.testing.assert_allclose(out, 0.5 * np.eye(n), atol=1e-10)

    def test_small_norm_branch_zeroes_column(self):
        points = random_points(4, 4, 10, 2)
        delta = build_delta(points).values
        n = 4
        # mu small enough that M = sqrt(p) < 1/mu for every column
        out = e_step(np.zeros((n, n)), np.zeros((n, n)), 0.01, delta)
        assert np.max(np.abs(out)) == 0.0

    def test_matches_dense_slice_formula(self):
        rng = np.random.default_rng(5)
        points = random_points(5, 5, 9, 2)
        delta = build_delta(points).values
        B = np.stack([project_embed(X) for X in points])
        n, mu = 5, 1.7
        Z = rng.standard_normal((n, n)) * 0.2
        Xi = rng.standard_normal((n, n)) * 0.1
        out = e_step(Z, Xi, mu, delta)
        for i in range(n):
            C = B[i] - np.einsum("j,jab->ab", Z[:, i], B)
            W = C + np.einsum("j,jab->ab", Xi[:, i], B) / mu
            M = np.linalg.norm(W)
            dense = np.zeros_like(W) if M < 1.0 / mu else (1.0 - 1.0 / (M * mu)) * W
            recon = np.einsum("j,jab->ab", out[:, i], B)
            assert np.max(np.abs(recon - dense)) <= 1e-10


class TestZStep:
    def test_full_threshold_gives_zero(self):
        points = random_points(6, 4, 8, 2)
        delta = build_delta(points).values
        n = 4
        eta = ETA_MARGIN * np.linalg.eigvalsh(delta)[-1]
        lam = 1e6
        out = z_step(np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)), 1.0, eta, lam, delta)
        assert np.max(np.abs(out)) == 0.0

    def test_cold_start_argument_is_delta_over_eta(self):
        points = random_points(7, 5, 9, 2)
        delta = build_delta(points).values
        n = 5
        eta = ETA_MARGIN * np.linalg.eigvalsh(delta)[-1]
        mu, lam = 0.7, 0.3
        out = z_step(np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)), mu, eta, lam, delta)
        # gradient at the origin is -mu*delta^T, so the SVT argument is delta/eta
        hand = svt(delta / eta, lam / (eta * mu))
        np.testing.assert_allclose(out, hand, atol=1e-12)

    def test_trace_matrices_match_dense(self):
        rng = np.random.default_rng(8)
        points = random_points(8, 5, 10, 2)
        delta = build_delta(points).values
        B = np.stack([project_embed(X) for X in points])
        n = 5
        Ecoef = rng.standard_normal((n, n)) * 0.3
        Xicoef = rng.standard_normal((n, n)) * 0.2
        phi = Xicoef.T @ delta
        psi = Ecoef.T @ delta
        xi_dense = np.einsum("ji,jab->iab", Xicoef, B)
        e_dense = np.einsum("ji,jab->iab", Ecoef, B)
        phi_dense = np.einsum("iab,jab->ij", xi_dense, B)
        psi_dense = np.einsum("iab,jab->ij", e_dense, B)
        assert np.max(np.abs(phi - phi_dense)) <= 1e-10
        assert np.max(np.abs(psi - psi_dense)) <= 1e-10


class TestPenaltySchedule:
    def test_growth_when_stable(self):
        cfg = AdmmConfig(lam=1.0)
        assert next_mu(2.0, 5e-5, cfg) == 1.9 * 2.0
        assert next_mu(2.0, cfg.eps2, cfg) == 1.9 * 2.0

    def test_frozen_when_moving(self):
        cfg = AdmmConfig(lam=1.0)
        assert next_mu(2.0, 5e-3, cfg) == 2.0

    def test_cap(self):
        cfg = AdmmConfig(lam=1.0, mu_max=1e10)
        assert next_mu(1e10, 5e-5, cfg) == 1e10
        assert next_mu(6e9, 5e-5, cfg) == 1e10


class TestAdmmSolve:
    def test_huge_lambda_pushes_error_to_slices(self):
        points = random_points(9, 6, 10, 2)
        delta = build_delta(points)
        lam = 10.0 * float(np.linalg.eigvalsh(delta.values)[-1])
        Z, Ecoef, report = admm_solve(delta, AdmmConfig(lam=lam))
        assert report.converged
        assert np.max(np.abs(Z.Z)) == 0.0
        # every error column is a scaled unit vector: slice i is absorbed whole
        n = 6
        off_diag = Ecoef - np.diag(np.diag(Ecoef))
        assert np.max(np.abs(off_diag)) <= 1e-6
        assert np.all(np.diag(Ecoef) > 0.0)
        assert np.all(np.diag(Ecoef) <= 1.0 + 1e-12)
        # fixed point: re-applying the E-step closed form at the final state
        # (Z = 0 throughout) reproduces the returned columns
        state = report.final_state
        replay = e_step(state.Q @ state.Zh, state.Q @ state.Xh, state.mu, delta.values)
        np.testing.assert_allclose(replay, Ecoef, atol=1e-3)

    def test_eigenvalue_beyond_float64_range_rejected(self):
        with pytest.raises(InvalidInputError, match="eigenvalue beyond float64 range"):
            admm_solve(np.array([[1.5e308, -1.7e308], [-1.7e308, 1.0]]), AdmmConfig(lam=1.0))

    def test_matches_dense_reference_each_iteration(self):
        for seed in (0, 1, 2):
            points = random_points(seed, 6, 10, 2)
            delta = build_delta(points)
            cfg = AdmmConfig(lam=2.0, max_iters=50, eps1=1e-30)
            _, _, rep_c = admm_solve(delta, cfg, track_iterates=True)
            _, _, rep_d = dense_reference(points, cfg, track_iterates=True)
            B = np.stack([project_embed(X) for X in points])
            assert rep_c.iterations == rep_d.iterations == 50
            for k in range(50):
                assert np.max(np.abs(rep_c.z_history[k] - rep_d.z_history[k])) <= 1e-8
                for i in range(6):
                    slice_c = np.einsum("j,jab->ab", rep_c.e_history[k][:, i], B)
                    assert np.max(np.abs(slice_c - rep_d.e_history[k][i])) <= 1e-8

    def test_two_cluster_block_affinity(self):
        # clean set: each cluster's subspaces live inside one of two exactly
        # orthogonal 5-dim spans, so cross-cluster Gram entries are zero
        rng = np.random.default_rng(10)
        frame = np.linalg.qr(rng.standard_normal((12, 10)))[0]
        spans = [frame[:, :5], frame[:, 5:]]
        points = []
        for span in spans:
            for _ in range(4):
                points.append(orthonormalize(span @ rng.standard_normal((5, 2)), 2))
        delta = build_delta(points)
        Z, _, report = admm_solve(delta, AdmmConfig(lam=1.0))
        W = affinity_from_Z(Z)
        labels = np.array([0] * 4 + [1] * 4)
        same = labels[:, None] == labels[None, :]
        assert W[~same].max() <= 1e-6 * W[same].max()

    def test_convergence_satisfies_stopping_conditions(self):
        points = random_points(11, 8, 12, 2)
        delta = build_delta(points)
        cfg = AdmmConfig(lam=2.0)
        Z, Ecoef, report = admm_solve(delta, cfg)
        assert report.converged
        # primal residual in the report is the first stopping quantity
        assert report.primal_residual_history[-1] <= cfg.eps1
        # Frobenius-relative residual is weaker than the spectral-normalized one
        D = delta.values
        R = np.eye(8) - Z.Z - Ecoef
        frob_rel = np.sqrt(max(np.sum(R * (D @ R)), 0.0)) / np.sqrt(np.trace(D))
        assert frob_rel <= cfg.eps1

    def test_mu_nondecreasing_and_capped(self):
        points = random_points(12, 6, 9, 2)
        delta = build_delta(points)
        _, _, report = admm_solve(delta, AdmmConfig(lam=0.5, max_iters=200))
        mus = report.mu_history
        assert all(b >= a for a, b in zip(mus, mus[1:]))
        assert all(m <= 1e10 for m in mus)

    def test_objective_history_bounded(self):
        points = random_points(13, 6, 9, 2)
        delta = build_delta(points)
        _, _, report = admm_solve(delta, AdmmConfig(lam=1.0, max_iters=120))
        assert np.isfinite(report.objective_history).all()

    def test_zero_iterations(self):
        points = random_points(14, 5, 8, 2)
        delta = build_delta(points)
        Z, Ecoef, report = admm_solve(delta, AdmmConfig(lam=1.0, max_iters=0))
        assert not report.converged
        assert report.iterations == 0
        assert np.max(np.abs(Z.Z)) == 0.0
        assert np.max(np.abs(Ecoef)) == 0.0

    def test_nonconvergence_flagged_not_raised(self):
        points = random_points(15, 6, 9, 2)
        delta = build_delta(points)
        Z, _, report = admm_solve(delta, AdmmConfig(lam=0.5, max_iters=3))
        assert not report.converged
        assert report.iterations == 3
        assert np.isfinite(Z.Z).all()

    @pytest.mark.parametrize("case", ["16-points-d4", "four-copies"])
    def test_truncated_eigenbasis_matches_dense_reference(self, case):
        # fewer Gram eigenvalues than points: m <= d(d+1)/2 = 10 < 16, and
        # four copies of one point give m = 1
        if case == "four-copies":
            points = [random_point(np.random.default_rng(26), 6, 2)] * 4
        else:
            points = random_points(25, 16, 4, 2)
        n = len(points)
        D = assemble_gram(points, KernelSpec("projection"))
        w, V = np.linalg.eigh(D)
        Q = V[:, w > n * np.finfo(np.float64).eps * w[-1]]
        assert Q.shape[1] == 1 if case == "four-copies" else 1 < Q.shape[1] <= 10
        # capping the penalty keeps the SVT threshold above the eigh guard
        cfg = AdmmConfig(lam=0.5, mu_max=100.0, max_iters=50, eps1=1e-30)
        _, E, rep_c = admm_solve(D, cfg, track_iterates=True)
        _, _, rep_d = dense_reference(points, cfg, track_iterates=True)
        B = np.stack([project_embed(X) for X in points])
        assert rep_c.iterations == rep_d.iterations == 50
        assert rep_c.svt_drivers["eigh"] == 50
        for k in range(50):
            assert np.max(np.abs(rep_c.z_history[k] - rep_d.z_history[k])) <= 1e-8
            slices = np.einsum("ji,jab->iab", rep_c.e_history[k], B)
            assert np.max(np.abs(slices - np.stack(rep_d.e_history[k]))) <= 1e-8
        # the returned error coefficients have no component in delta's null space
        assert np.max(np.abs(E - Q @ (Q.T @ E))) <= 1e-12

    def test_gram_matrix_without_positive_eigenvalue_rejected(self):
        with pytest.raises(InvalidInputError, match="positive eigenvalue"):
            admm_solve(np.zeros((3, 3)), AdmmConfig(lam=1.0))

    def test_memory_independent_of_ambient_dimension(self):
        # solver state lives in N x N coefficient space; with d = 3000 a single
        # d x d buffer would be ~72 MB
        rng = np.random.default_rng(17)
        points = [random_point(rng, 3000, 2) for _ in range(6)]
        delta = build_delta(points)
        tracemalloc.start()
        admm_solve(delta, AdmmConfig(lam=1.0, max_iters=30))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 20_000_000

    def test_final_state_kept_in_coordinates(self):
        # N = 30 points exceed d(d+1)/2 = 15, so the eigenbasis Q is 30 x m with
        # m < 30: the state holds only m x N coordinates and the shared Q
        delta = build_delta(random_points(28, 30, 5, 2))
        _, _, report = admm_solve(delta, AdmmConfig(lam=0.5, max_iters=5))
        state = report.final_state
        assert state.Q is delta.eigenvectors
        m = state.Q.shape[1]
        assert m < 30
        assert not any(isinstance(v, np.ndarray) and v.shape == (30, 30)
                       for v in vars(state).values())
        for coords in (state.Zh, state.Eh, state.Xh):
            assert coords.shape == (m, 30)
        # the return step forms only the returned Z and E as N x N arrays: a
        # zero-iteration solve at N = 600 (m = 465) stays under 6 N^2 doubles
        n = 600
        delta = build_delta(random_points(29, n, 30, 3))
        tracemalloc.start()
        admm_solve(delta, AdmmConfig(lam=1.0, max_iters=0))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 6 * n * n * 8

    def test_initial_state_zero(self):
        points = random_points(14, 5, 8, 2)
        _, _, report = admm_solve(build_delta(points), AdmmConfig(lam=1.0, max_iters=0))
        state = report.final_state
        assert np.max(np.abs(state.Zh)) == 0.0
        assert np.max(np.abs(state.Eh)) == 0.0
        assert np.max(np.abs(state.Xh)) == 0.0
        assert state.mu == 0.01
        assert report.iterations == 0


class TestCertificate:
    def test_gap_closes_when_zero_is_optimal(self):
        # at lam >= sigma_max(delta)/sqrt(p), Z = 0 is optimal with the dual
        # point Y(i) = B_i/sqrt(p), and both bounds equal N sqrt(p)
        for seed, n, d, p in ((0, 6, 10, 2), (1, 16, 4, 2), (2, 8, 12, 3)):
            D = build_delta(random_points(seed, n, d, p)).values
            lam = 1.01 * float(np.linalg.eigvalsh(D)[-1]) / np.sqrt(p)
            Z, _, report = admm_solve(D, AdmmConfig(lam=lam))
            assert np.max(np.abs(Z.Z)) == 0.0
            assert report.primal_bound == pytest.approx(n * np.sqrt(p), rel=1e-14)
            assert abs(report.relative_gap) <= 1e-12

    @pytest.mark.parametrize("cfg", [AdmmConfig(lam=1.2), AdmmConfig(lam=0.4, max_iters=25)])
    def test_bounds_match_original_coordinates(self, cfg):
        # primal: the objective at the returned Z with E = I - Z; dual: the
        # final multiplier scaled to slice norms <= 1 and ||delta Xi||_2 <= lam
        points = random_points(27, 12, 5, 2)  # N = 12 < d(d+1)/2 = 15
        D = build_delta(points).values
        Z, _, report = admm_solve(D, cfg)
        R = np.eye(12) - Z.Z
        slices = np.sqrt(np.maximum(np.sum(R * (D @ R), axis=0), 0.0))
        nuclear = np.sum(np.linalg.svd(Z.Z, compute_uv=False))
        primal = np.sum(slices) + cfg.lam * nuclear
        state = report.final_state
        Xi = state.Q @ state.Xh
        DXi = D @ Xi
        scale = min(1.0 / np.sqrt(np.max(np.sum(Xi * DXi, axis=0))),
                    cfg.lam / np.linalg.norm(DXi, 2))
        dual = scale * np.trace(DXi)
        assert report.primal_bound == pytest.approx(primal, rel=1e-10)
        assert report.dual_bound == pytest.approx(dual, rel=1e-10)
        assert report.relative_gap == pytest.approx((primal - dual) / primal, rel=1e-8)
        assert 0.0 < report.relative_gap < 1.0

    def test_zero_iterations_certify_nothing(self):
        points = random_points(14, 5, 8, 2)
        _, _, report = admm_solve(build_delta(points), AdmmConfig(lam=1.0, max_iters=0))
        assert report.primal_bound == pytest.approx(5 * np.sqrt(2), rel=1e-14)
        assert report.dual_bound == 0.0
        assert report.relative_gap == 1.0

    def test_large_finite_multiplier_certifies(self):
        # legal settings whose uncapped penalty drives max|Xi| to about 4e282 on a
        # noise-free set: the certificate's Gram product of Xi would overflow
        points, _ = synth_union(SynthSpec(n_clusters=3, per_cluster=5, d=6, p=2, seed=2))
        cfg = AdmmConfig(lam=1e-10, mu_max=np.inf, rho0=1e300)
        _, _, report = admm_solve(build_delta(points), cfg)
        assert np.max(np.abs(report.final_state.Xh)) > 1e250
        assert np.isfinite([report.primal_bound, report.dual_bound]).all()
        # weak duality; the dual bound may be slightly negative, so the gap may pass 1
        assert report.dual_bound <= report.primal_bound
        assert report.relative_gap >= 0.0

    def test_dual_bound_ignores_power_of_two_scale(self):
        delta = build_delta(random_points(31, 10, 6, 2))
        _, _, report = admm_solve(delta, AdmmConfig(lam=0.5, max_iters=30))
        state = report.final_state
        lam_d, QT = delta.eigenvalues, np.ascontiguousarray(state.Q.T)
        shrunk = report.z_singular_values
        base = _gap(lam_d, QT, state.Zh, state.Xh, shrunk, 0.5)
        scaled = _gap(lam_d, QT, state.Zh, 2.0**600 * state.Xh, shrunk, 0.5)
        assert base[1] > 0.0
        assert scaled == base


class TestDenseReference:
    def test_small_instance_tracks_solver(self):
        points = random_points(18, 4, 6, 2)
        delta = build_delta(points)
        cfg = AdmmConfig(lam=1.5, max_iters=20, eps1=1e-30)
        _, _, rep_c = admm_solve(delta, cfg, track_iterates=True)
        _, _, rep_d = dense_reference(points, cfg, track_iterates=True)
        for k in range(20):
            assert np.max(np.abs(rep_c.z_history[k] - rep_d.z_history[k])) <= 1e-8

    def test_converged_is_a_bool(self):
        # this instance's iterate change is a numpy float when it passes eps2
        _, _, report = dense_reference(random_points(12, 8, 12, 2), AdmmConfig(lam=2.0))
        assert report.converged is True

    def test_zero_iterations(self):
        points = random_points(19, 4, 6, 2)
        Z, E, report = dense_reference(points, AdmmConfig(lam=1.0, max_iters=0))
        assert np.max(np.abs(Z.Z)) == 0.0
        assert all(np.max(np.abs(e)) == 0.0 for e in E)

    def test_duplicated_point_set_rank_one(self):
        rng = np.random.default_rng(20)
        X = random_point(rng, 6, 2)
        Z, _, report = dense_reference([X] * 4, AdmmConfig(lam=0.5))
        assert report.converged
        s = np.linalg.svd(Z.Z, compute_uv=False)
        assert int(np.sum(s > 1e-6 * s[0])) == 1

    def test_size_guard(self):
        rng = np.random.default_rng(21)
        points = [random_point(rng, 600, 2) for _ in range(6)]
        with pytest.raises(OracleTooLargeError):
            dense_reference(points, AdmmConfig(lam=1.0, max_iters=1))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(InvalidConfigError):
            AdmmConfig(lam=0.0)
        with pytest.raises(InvalidConfigError):
            AdmmConfig(lam=1.0, mu0=0.0)
        with pytest.raises(InvalidConfigError):
            AdmmConfig(lam=1.0, rho0=0.5)
        with pytest.raises(InvalidConfigError):
            AdmmConfig(lam=1.0, mu_max=1e-3)
        with pytest.raises(InvalidConfigError):
            AdmmConfig(lam=1.0, eps1=0.0)
        with pytest.raises(InvalidConfigError):
            AdmmConfig(lam=1.0, max_iters=-1)

    def test_non_finite_lambda_rejected(self):
        for lam in (np.inf, np.nan):
            with pytest.raises(InvalidConfigError, match="finite"):
                AdmmConfig(lam=lam)


def solve_points(solver, points, cfg, track_iterates=False):
    """``admm_solve`` on the points' Gram matrix, or ``dense_reference`` on the points."""
    if solver is admm_solve:
        return admm_solve(build_delta(points), cfg, track_iterates)
    return dense_reference(points, cfg, track_iterates)


class TestStopReason:
    # each stop-and-return case runs on both solvers: dense_reference keeps
    # the iterate it returns the way admm_solve does
    SOLVERS = (admm_solve, dense_reference)

    def test_converged_returns_last_iterate(self):
        points = random_points(11, 8, 12, 2)
        for solver in self.SOLVERS:
            Z, _, report = solve_points(solver, points, AdmmConfig(lam=2.0), track_iterates=True)
            assert report.converged, solver.__name__
            assert report.returned_iteration == report.iterations >= 1, solver.__name__
            assert np.array_equal(Z.Z, report.z_history[report.returned_iteration - 1])
        Z, _, report = admm_solve(build_delta(points), AdmmConfig(lam=2.0))
        state = report.final_state
        assert np.array_equal(Z.Z, state.Q @ state.Zh)

    def test_max_iters_returns_best_primal_iterate(self):
        points = random_points(15, 6, 9, 2)
        cfg = AdmmConfig(lam=0.5, max_iters=3)
        for solver in self.SOLVERS:
            Z, E, report = solve_points(solver, points, cfg)
            _, _, tracked = solve_points(solver, points, cfg, track_iterates=True)
            assert not report.converged, solver.__name__
            best = int(np.argmin(report.primal_residual_history)) + 1
            assert report.returned_iteration == best, solver.__name__
            assert np.array_equal(Z.Z, tracked.z_history[best - 1])
            assert np.array_equal(E, tracked.e_history[best - 1])

    def test_zero_iterations_returns_start(self):
        points = random_points(14, 5, 8, 2)
        for solver in self.SOLVERS:
            Z, _, report = solve_points(solver, points, AdmmConfig(lam=1.0, max_iters=0))
            assert not report.converged, solver.__name__
            assert report.iterations == report.returned_iteration == 0, solver.__name__
            assert np.max(np.abs(Z.Z)) == 0.0
            if solver is admm_solve:
                assert np.array_equal(report.z_singular_values, np.zeros(5))

    def test_singular_values_belong_to_returned_iterate(self):
        for cfg in (AdmmConfig(lam=2.0), AdmmConfig(lam=0.5, max_iters=3)):
            points = random_points(11, 8, 12, 2)
            Z, _, report = admm_solve(build_delta(points), cfg)
            s = report.z_singular_values
            fresh = np.linalg.svd(Z.Z, compute_uv=False)
            assert np.all(np.diff(s) <= 0.0)
            assert np.max(np.abs(s - fresh)) <= 1e-10 * fresh[0]


class TestIterationCost:
    @staticmethod
    def count_svd_calls(monkeypatch, name="svd"):
        calls = []
        real = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(f"numpy.linalg.{name}", counting)
        return calls

    def test_one_svd_per_iteration(self, monkeypatch):
        # the SVT threshold is above the eigh path's precision guard on this
        # instance, so each iteration's SVT is one eigh of the Gram side, no
        # SVD; one more eigh decomposes the Gram matrix as it is built, and the
        # one eigvalsh is the dual bound's spectral norm
        points = random_points(22, 10, 12, 2)
        svd_calls = self.count_svd_calls(monkeypatch)
        eigh_calls = self.count_svd_calls(monkeypatch, "eigh")
        eigvalsh_calls = self.count_svd_calls(monkeypatch, "eigvalsh")
        delta = build_delta(points)
        _, _, report = admm_solve(delta, AdmmConfig(lam=0.5, max_iters=40))
        assert report.iterations == 40
        assert len(eigh_calls) == report.iterations + 1
        assert len(eigvalsh_calls) == 1
        assert len(svd_calls) == 0

    def test_pipeline_adds_no_svd(self, monkeypatch):
        # a lambda this small puts every SVT threshold below the eigh guard, so
        # each iteration is one gesdd, and the affinity, cut and k-means add none
        points = random_points(23, 10, 12, 2)
        calls = self.count_svd_calls(monkeypatch)
        _, _, diag = cluster_pipeline(
            points, "glrr-21", NcutConfig(n_clusters=2, seed=0), lam=1e-8,
            admm_cfg=AdmmConfig(lam=1e-8, max_iters=40),
        )
        assert diag["iterations"] == 40
        assert diag["solver_report"].svt_drivers == {"eigh": 0, "gesdd": 40, "gesvd": 0}
        assert len(calls) == diag["iterations"]

    def test_pipeline_adds_one_eigh(self, monkeypatch):
        # one eigh per ADMM iteration's SVT, one for the Gram matrix's
        # eigenbasis, and one for the normalized cut
        points = random_points(23, 10, 12, 2)
        svd_calls = self.count_svd_calls(monkeypatch)
        eigh_calls = self.count_svd_calls(monkeypatch, "eigh")
        eigvalsh_calls = self.count_svd_calls(monkeypatch, "eigvalsh")
        _, _, diag = cluster_pipeline(
            points, "glrr-21", NcutConfig(n_clusters=2, seed=0), lam=0.5,
            admm_cfg=AdmmConfig(lam=0.5, max_iters=40),
        )
        assert diag["iterations"] == 40
        assert len(eigh_calls) == diag["iterations"] + 2
        assert len(eigvalsh_calls) == 1
        assert len(svd_calls) == 0

    def test_loop_matches_public_steps(self):
        # the loop reuses delta products across iterations; replaying the
        # from-scratch public steps must land on the same iterates
        points = random_points(24, 8, 10, 2)
        D = build_delta(points).values
        cfg = AdmmConfig(lam=1.2, max_iters=60, eps1=1e-30)
        _, _, report = admm_solve(D, cfg, track_iterates=True)
        assert report.iterations == 60
        # the instance exercises both shrinkage branches and a rising penalty
        active = [np.count_nonzero(np.abs(E).sum(axis=0)) for E in report.e_history]
        assert 0 < max(active) and min(active[20:]) < 8
        assert report.mu_history[-1] > report.mu_history[0]
        eta = ETA_MARGIN * float(np.linalg.eigvalsh(D)[-1])
        n = 8
        Z, E, Xi = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        for k in range(60):
            mu = report.mu_history[k]
            E = e_step(Z, Xi, mu, D)
            Z = z_step(Z, E, Xi, mu, eta, cfg.lam, D)
            Xi = Xi + mu * (np.eye(n) - Z - E)
            assert np.max(np.abs(Z - report.z_history[k])) <= 1e-10
            assert np.max(np.abs(E - report.e_history[k])) <= 1e-10

    def test_objective_matches_fresh_nuclear_norm(self):
        points = random_points(24, 8, 10, 2)
        D = build_delta(points).values
        cfg = AdmmConfig(lam=1.2, max_iters=60, eps1=1e-30)
        _, _, report = admm_solve(D, cfg, track_iterates=True)
        for k in range(60):
            E = report.e_history[k]
            slices = np.sum(np.sqrt(np.maximum(np.sum(E * (D @ E), axis=0), 0.0)))
            nuclear = np.sum(np.linalg.svd(report.z_history[k], compute_uv=False))
            fresh = slices + cfg.lam * nuclear
            assert abs(report.objective_history[k] - fresh) <= 1e-10 * abs(fresh)
