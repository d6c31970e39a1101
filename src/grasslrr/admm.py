"""ADMM solver for the outlier-robust model with slice-wise l2/l1 error.

Solves

    min_{E, Z}  sum_i ||E(i)||_F + lam ||Z||_*
    s.t.        B_i = sum_j Z[j, i] B_j + E(i),   B_j = X_j X_j^T,

by alternating a per-slice shrinkage on E, a linearized proximal (singular
value thresholding) step on Z, a multiplier update, and an adaptive penalty.
The proximal step eta must exceed sigma_max, the largest eigenvalue of the
Gram matrix; it is fixed at ETA_MARGIN sigma_max = 1.02 sigma_max and is not
a setting.

Everything runs in an N-dimensional coefficient space: starting from zero,
every E(i) and multiplier slice stays inside span{B_j}, so a slice is an
N-vector of coefficients and every trace or Frobenius norm routes through
the Gram matrix ``delta`` (||sum_j c_j B_j||_F^2 = c^T delta c).  Memory is
O(N^2) no matter how large the ambient dimension;  ``dense_reference``
re-runs the identical iteration on explicit d x d slices to validate the
reformulation.  Each loop keeps its own arithmetic, but both close an
iteration through ``_advance``: the histories, the stop test, the choice of
the returned iterate and the penalty step are written once.

The loop runs in the eigenbasis delta = Q Lambda Q^T of ``psd_clamp``'s m
eigenvalues above N eps lambda_max, which a ``KernelMatrix`` (``build_delta``,
``gram``) carries, so a lambda sweep decomposes delta once; a plain array
gets one ``psd_clamp``.  Q is N x m (m <= d(d+1)/2 for points of G(p, d)),
and the loop reads Lambda and Q as ``psd_clamp`` keeps them: in LAPACK's
ascending order, Q a C-contiguous copy.
The loop tracks only the m x N coordinates Q^T Z, Q^T E and Q^T Xi: a
product by delta is a row scaling by Lambda, and the slice norm of a
coefficient column w is ||Lambda^{1/2} Q^T w||.  Z starts at zero and every
SVT argument is Z plus delta times a matrix, so Z's columns stay in
range(Q), and since SVT(Q A) = Q SVT(A) the SVT runs on the m x N
coordinates A.  E and Xi are the representatives with no component in
delta's null space, which carries no slice.  Only the returned Z = Q (Q^T Z)
and E are formed as N x N arrays, once, at return (every iteration's under
``track_iterates``); ``AdmmState`` keeps the last iterate in coordinates.

An iteration costs one symmetric eigendecomposition of the min(m, N)-side
Gram matrix of the SVT argument, two rank-r products that rebuild the
result from the r kept singular vectors, and Lambda row scalings; when
m = N that Gram matrix is the only N x N product.  The objective's nuclear
norm is the sum of the thresholded singular values.

Squaring the argument halves the relative accuracy of its small singular
values, so the eigh path runs only while the threshold is at least
SVT_EIGH_GUARD = 1e-4 times the largest singular value: every kept singular
value is then at least 1e-4 sigma_max.  The property tests hold this path
to 1e-12 sigma_max of an SVD; ``_svt`` gives its measured accuracy.  Below
the guard, or when ``eigh`` fails, the SVT is numpy's gesdd SVD, with
scipy's gesvd as the last resort.  ``AdmmReport.svt_drivers`` counts the
iterations each of the three served.

Each solve also certifies how far from optimal its answer can be.
``primal_bound`` is the objective at the returned Z with E(i) = B_i minus
its reconstruction, which meets the constraint exactly; ``dual_bound`` is
the dual objective sum_i <Y(i), B_i> at the final multiplier Y, scaled into
the dual feasible set (every ||Y(i)||_F <= 1 and the spectral norm of
delta Xi at most lam).  The optimum lies between the two, so
``relative_gap`` bounds the returned objective's excess; ``converged`` only
says that the stopping tolerances were met.  The dual bound is the same for
any positive multiple of Xi, so it is computed on Xi scaled exactly, by a
power of two, to coordinates below 1: a finite multiplier cannot overflow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import LowRankCoefficients
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalDivergenceError,
    OracleTooLargeError,
)
from .kernels import KernelMatrix, _spectrum
from .manifold import GrassmannPoint, as_matrix, project_embed

DENSE_GUARD = 2_000_000
ETA_MARGIN = 1.02
# smallest tau / sigma_max at which the SVT squares M instead of running an SVD
SVT_EIGH_GUARD = 1e-4


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty schedule and stopping tolerances.

    The proximal step eta is not a setting: every solve fixes it at
    ETA_MARGIN = 1.02 times the largest eigenvalue of the Gram matrix (the
    squared spectral norm of the stacked slices), which it must exceed.
    """

    lam: float
    mu0: float = 0.01
    rho0: float = 1.9
    mu_max: float = 1e10
    eps1: float = 1e-4
    eps2: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        if not (0.0 < self.lam < np.inf):
            raise InvalidConfigError(f"lambda must be positive and finite, got {self.lam}")
        finite = {"mu0": self.mu0, "rho0": self.rho0, "eps1": self.eps1, "eps2": self.eps2}
        for name, value in finite.items():
            if not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, got {value}")
        # mu_max=inf is legal: next_mu then grows mu by rho0 without a cap
        if math.isnan(self.mu_max):
            raise InvalidConfigError("mu_max must not be nan")
        if not (self.mu0 > 0.0):
            raise InvalidConfigError(f"mu0 must be positive, got {self.mu0}")
        if self.rho0 < 1.0:
            raise InvalidConfigError(f"rho0 must be >= 1, got {self.rho0}")
        if self.mu_max < self.mu0:
            raise InvalidConfigError("mu_max must be >= mu0")
        if not (self.eps1 > 0.0 and self.eps2 > 0.0):
            raise InvalidConfigError("eps1 and eps2 must be positive")
        if self.max_iters < 0:
            raise InvalidConfigError("max_iters must be nonnegative")


@dataclass
class AdmmState:
    """The last iterate's m x N coordinates over the shared eigenbasis Q; zero at iteration 0."""

    Q: np.ndarray
    Zh: np.ndarray
    Eh: np.ndarray
    Xh: np.ndarray
    mu: float


@dataclass
class AdmmReport:
    iterations: int = 0
    converged: bool = False
    primal_residual_history: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)
    z_history: list | None = None
    e_history: list | None = None
    final_state: "AdmmState | None" = None
    # returned_iteration is the 1-based index of the returned iterate (0: the
    # all-zero start), and z_singular_values its thresholded singular values,
    # descending: SVD order, not sym_eig's.  Both solvers fill iterations,
    # converged, returned_iteration and the three histories through _advance;
    # dense_reference leaves final_state and z_singular_values None,
    # svt_drivers all zero (it calls svt, which does not count) and the three
    # bounds below nan
    returned_iteration: int = 0
    z_singular_values: np.ndarray | None = None
    # iterations whose SVT ran on each driver (see _svt)
    svt_drivers: dict = field(default_factory=lambda: {"eigh": 0, "gesdd": 0, "gesvd": 0})
    # the certified optimality gap of admm_solve (module docstring)
    primal_bound: float = math.nan
    dual_bound: float = math.nan
    relative_gap: float = math.nan


def _svt(M: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, str]:
    """SVT of a finite M, its thresholded singular values (descending) and the driver.

    The singular values and right (left, for a wide M) singular vectors come
    from one ``eigh`` of the smaller Gram side, M^T M (M M^T): sigma =
    sqrt(max(w, 0)), and only the columns with sigma > tau are kept, so
    Z = ((M V_r) * (shrunk_r / sigma_r)) V_r^T.  M is scaled by a power of two
    before the Gram product, so squaring neither overflows nor underflows.
    This path runs only when tau >= SVT_EIGH_GUARD * sigma_max, so every kept
    sigma is at least 1e-4 sigma_max.  Measured against gesdd, Z and the
    thresholded values then differ by at most 8.6e-13 sigma_max (random
    matrices up to 40 x 40, tau just above the guard) and by 3.9e-15
    sigma_max on robust-21's solves (tau/sigma_max >= 0.0195).  Below the
    guard, or when ``eigh`` fails, numpy's gesdd runs; when gesdd fails to
    converge on finite input, scipy's gesvd is tried.  scipy is imported only
    then, so a run whose SVDs converge never loads it.
    """
    wide = M.shape[0] < M.shape[1]
    exp = int(np.frexp(np.max(np.abs(M)))[1])
    Ms = np.ldexp(M, -exp)
    try:
        w, V = np.linalg.eigh(Ms @ Ms.T if wide else Ms.T @ Ms)
    except np.linalg.LinAlgError:
        pass
    else:
        s = np.ldexp(np.sqrt(np.maximum(w, 0.0)), exp)  # ascending
        if tau >= SVT_EIGH_GUARD * s[-1]:
            keep = s > tau
            Vr, sr = V[:, keep], s[keep]
            factor = (sr - tau) / sr
            Z = (Vr * factor) @ (Vr.T @ M) if wide else ((M @ Vr) * factor) @ Vr.T
            return Z, np.maximum(s[::-1] - tau, 0.0), "eigh"
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        driver = "gesdd"
    except np.linalg.LinAlgError:
        import scipy.linalg

        U, s, Vt = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        driver = "gesvd"
    shrunk = np.maximum(s - tau, 0.0)
    return (U * shrunk) @ Vt, shrunk, driver


def svt(M, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink singular values by tau, clamp at 0.

    ``tau`` may be inf (every singular value goes to 0) but not nan.
    """
    M = as_matrix(M, "M")
    if not (tau >= 0.0):
        raise InvalidConfigError(f"threshold must be a nonnegative number, got {tau}")
    return _svt(M, tau)[0]


def next_mu(mu: float, change: float, config: AdmmConfig) -> float:
    """The next penalty: rho0 mu while the scaled iterate change is <= eps2, capped at mu_max."""
    return min((config.rho0 if change <= config.eps2 else 1.0) * mu, config.mu_max)


def _check_finite(k: int, *iterates: np.ndarray) -> None:
    """Raise NumericalDivergenceError unless every iterate of iteration k + 1 is finite."""
    if not all(np.isfinite(a).all() for a in iterates):
        raise NumericalDivergenceError(f"non-finite iterate at iteration {k + 1}")


def _advance(report, best, k, primal, change, objective, mu, config, iterate):
    """Record iteration k + 1, run the stop test, keep best; return (best, next mu, converged)."""
    report.primal_residual_history.append(primal)
    report.objective_history.append(objective)
    report.mu_history.append(mu)
    report.iterations = k + 1
    # bool(): dense_reference's change is a numpy float, whose comparison is not a bool
    report.converged = bool(primal <= config.eps1 and change <= config.eps2)
    if primal < best[0] or report.converged:
        best = (primal, *iterate, k + 1)
    return best, next_mu(mu, change, config), report.converged


def _weighted_sq(lam_d: np.ndarray, A: np.ndarray) -> float:
    """sum_k lam_d[k] ||A[k]||^2: the total squared slice norm of the columns of Q A."""
    return float(np.einsum("ij,ij->i", A, A) @ lam_d)


def _gap(lam_d, QT, Zh, Xh, shrunk, lam: float) -> tuple[float, float, float]:
    """Primal bound at Q Zh, dual bound from the multiplier Q Xh, and their relative gap."""
    primal = float(np.sum(np.sqrt(lam_d @ np.square(QT - Zh)))) + lam * float(np.sum(shrunk))
    # the dual bound is the same for any positive multiple of Xi, and a power of
    # two is exact: scaled to max|Xh| < 1, the Gram product below cannot overflow
    Xh = np.ldexp(Xh, -int(np.frexp(np.max(np.abs(Xh)))[1]))
    LX = lam_d[:, None] * Xh  # Q^T delta Xi; its spectral norm comes off the smaller Gram side
    top = np.linalg.eigvalsh(LX @ LX.T if LX.shape[0] < LX.shape[1] else LX.T @ LX)[-1]
    # Xi divided by this is dual feasible: slice norms <= 1, ||delta Xi||_2 <= lam
    scale = max(float(np.max(np.sqrt(lam_d @ np.square(Xh)))), math.sqrt(max(top, 0.0)) / lam)
    dual = float(np.sum(LX * QT)) / scale if scale > 0.0 else 0.0
    return primal, dual, (primal - dual) / primal


# an overflowing iterate fails the loop's finiteness check; numpy's warning would precede it
@np.errstate(over="ignore", invalid="ignore")
def admm_solve(
    delta: KernelMatrix,
    config: AdmmConfig,
    track_iterates: bool = False,
) -> tuple[LowRankCoefficients, np.ndarray, AdmmReport]:
    """Run the coefficient-space ADMM to convergence or ``max_iters``.

    ``delta`` is a KernelMatrix or a symmetric array, which ``psd_clamp``
    repairs first.  Returns the coefficient matrix, the error coefficients
    (column i holds the expansion of slice error E(i) over the embedded
    points, with no component in delta's null space), and a report.
    Non-convergence is flagged, not raised; the iterate with the smallest
    primal residual is returned in that case.
    """
    eig = _spectrum(delta)
    lam_d, Q = eig.eigenvalues, eig.eigenvectors
    n = Q.shape[0]
    sigma_max = float(np.max(lam_d, initial=0.0))
    if not (sigma_max > 0.0):
        raise InvalidInputError("delta must have a positive eigenvalue")
    eta = ETA_MARGIN * sigma_max
    x_norm = math.sqrt(sigma_max)
    QT = np.ascontiguousarray(Q.T)  # coordinates of the identity
    grad_scale = lam_d[:, None] / eta

    report = AdmmReport(z_history=[] if track_iterates else None,
                        e_history=[] if track_iterates else None)

    mu = config.mu0
    Zh, Eh, Xh = (np.zeros((lam_d.size, n)) for _ in range(3))
    shrunk = np.zeros(0)
    # (primal, Zh, Eh, thresholded singular values, iteration); the arrays
    # are never written in place, so holding references is enough
    best = (np.inf, Zh, Eh, shrunk, 0)

    for k in range(config.max_iters):
        # E-step on W = Q^T((I - Z) + Xi/mu): column i shrinks by its slice norm
        W = QT - Zh + Xh / mu
        norms = np.sqrt(lam_d @ np.square(W))
        factor = np.zeros(n)
        hit = norms >= 1.0 / mu
        factor[hit] = 1.0 - 1.0 / (norms[hit] * mu)
        Eh_next = W * factor
        # Z-step: SVT of Z - delta (Z - I + E - Xi/mu) / eta, where Z - I + E - Xi/mu = E - W
        try:
            Zh_next, shrunk, driver = _svt(
                as_matrix(Zh - grad_scale * (Eh_next - W), "M"), config.lam / (eta * mu)
            )
        except (InvalidInputError, np.linalg.LinAlgError) as exc:
            # a non-finite SVT argument or an SVT that fails on every driver is
            # divergence, not bad user input
            raise NumericalDivergenceError(f"iteration {k + 1}: {exc}") from exc
        report.svt_drivers[driver] += 1
        residual = QT - Zh_next - Eh_next
        Xh_next = Xh + mu * residual

        _check_finite(k, Zh_next, Eh_next, Xh_next)

        dz = math.sqrt(eta) * float(np.linalg.norm(Zh_next - Zh))
        de = math.sqrt(_weighted_sq(lam_d, Eh_next - Eh))
        change = mu * max(dz, de) / x_norm
        primal = math.sqrt(_weighted_sq(lam_d, residual)) / x_norm
        # column i of E is factor_i times column i of W, and so is its slice norm
        objective = float(factor @ norms) + config.lam * float(np.sum(shrunk))

        if track_iterates:
            report.z_history.append(Q @ Zh_next)
            report.e_history.append(Q @ Eh_next)

        Zh, Eh, Xh = Zh_next, Eh_next, Xh_next
        best, mu, converged = _advance(
            report, best, k, primal, change, objective, mu, config, (Zh, Eh, shrunk)
        )
        if converged:
            break

    report.final_state = AdmmState(Q=Q, Zh=Zh, Eh=Eh, Xh=Xh, mu=mu)
    _, Zh_out, Eh_out, s_out, report.returned_iteration = best
    report.z_singular_values = np.concatenate((s_out, np.zeros(n - s_out.size)))
    report.primal_bound, report.dual_bound, report.relative_gap = _gap(
        lam_d, QT, Zh_out, Xh, s_out, config.lam
    )
    return LowRankCoefficients(Z=Q @ Zh_out), Q @ Eh_out, report


def dense_reference(
    points: list[GrassmannPoint],
    config: AdmmConfig,
    track_iterates: bool = False,
) -> tuple[LowRankCoefficients, list[np.ndarray], AdmmReport]:
    """Literal d x d x N implementation of the same iteration, as a test oracle.

    Every inner product, norm, and Gram entry is computed on explicit
    embedded slices.  Guarded to N * d^2 <= 2e6.
    """
    n = len(points)
    d = points[0].d
    if n * d * d > DENSE_GUARD:
        raise OracleTooLargeError(f"N*d^2 = {n * d * d} exceeds guard {DENSE_GUARD}")

    B = np.stack([project_embed(X) for X in points])  # (n, d, d)
    D = np.einsum("iab,jab->ij", B, B)

    sigma_max = float(np.linalg.eigvalsh((D + D.T) / 2.0)[-1])
    x_norm = float(np.sqrt(max(sigma_max, 0.0)))
    eta = ETA_MARGIN * sigma_max

    Z = np.zeros((n, n))
    E = np.zeros((n, d, d))
    Xi = np.zeros((n, d, d))
    mu = config.mu0

    report = AdmmReport(z_history=[] if track_iterates else None,
                        e_history=[] if track_iterates else None)

    # (primal, Z, E, iteration); no iterate is written in place once formed,
    # so holding references is enough
    best = (np.inf, Z, E, 0)

    for k in range(config.max_iters):
        # E-step, slice by slice.
        recon = np.einsum("ji,jab->iab", Z, B)
        C = B - recon
        E_next = np.zeros_like(E)
        for i in range(n):
            W = C[i] + Xi[i] / mu
            M = float(np.linalg.norm(W))
            if M >= 1.0 / mu:
                E_next[i] = (1.0 - 1.0 / (M * mu)) * W

        # Z-step from dense slice traces (same delta-on-the-left gradient as admm_solve).
        phi = np.einsum("iab,jab->ij", Xi, B)
        psi = np.einsum("iab,jab->ij", E_next, B)
        grad = mu * (D @ Z) - mu * (D - psi + phi / mu).T
        G = Z - grad / (eta * mu)
        _check_finite(k, G)  # svt refuses a non-finite argument as bad input
        Z_next = svt(G, config.lam / (eta * mu))

        residual = B - np.einsum("ji,jab->iab", Z_next, B) - E_next
        Xi_next = Xi + mu * residual

        _check_finite(k, Z_next, E_next, Xi_next)

        dz = np.sqrt(eta) * float(np.linalg.norm(Z_next - Z))
        de = float(np.linalg.norm(E_next - E))
        change = mu * max(dz, de) / x_norm
        primal = float(np.linalg.norm(residual)) / x_norm

        objective = float(
            sum(np.linalg.norm(E_next[i]) for i in range(n))
            + config.lam * np.sum(np.linalg.svd(Z_next, compute_uv=False))
        )

        if track_iterates:
            report.z_history.append(Z_next)
            report.e_history.append(list(E_next))

        Z, E, Xi = Z_next, E_next, Xi_next
        best, mu, converged = _advance(
            report, best, k, primal, change, objective, mu, config, (Z, E)
        )
        if converged:
            break

    _, Z_out, E_out, report.returned_iteration = best
    return LowRankCoefficients(Z=Z_out), list(E_out), report
