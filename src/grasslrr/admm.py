"""ADMM solver for the outlier-robust model with slice-wise l2/l1 error.

Solves

    min_{E, Z}  sum_i ||E(i)||_F + lam ||Z||_*
    s.t.        B_i = sum_j Z[j, i] B_j + E(i),   B_j = X_j X_j^T,

by alternating a per-slice shrinkage on E, a linearized proximal (singular
value thresholding) step on Z, a multiplier update, and an adaptive penalty.

Everything runs in an N-dimensional coefficient space: starting from zero,
every E(i) and multiplier slice stays inside span{B_j}, so a slice is an
N-vector of coefficients and every trace or Frobenius norm routes through
the Gram matrix ``delta`` (||sum_j c_j B_j||_F^2 = c^T delta c).  Memory is
O(N^2) no matter how large the ambient dimension;  ``dense_reference``
re-runs the identical iteration on explicit d x d slices to validate the
reformulation.

Each iteration costs one SVD and four N x N products: the SVT reconstruction
and delta times the new E, Z and multiplier coefficients.  The loop keeps
those three delta products between iterations and reads every other slice
inner product off them (delta is symmetrized once, so delta^T = delta), and
the objective's nuclear norm is the sum of the thresholded singular values
the SVT already has.  The public ``e_step``, ``z_step`` and ``svt`` compute
the same steps from scratch over the same private helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_form import DeltaMatrix, LowRankCoefficients
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalDivergenceError,
    OracleTooLargeError,
)
from .manifold import GrassmannPoint, as_matrix, project_embed

DENSE_GUARD = 2_000_000
ETA_MARGIN = 1.02


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty schedule and stopping tolerances.

    ``eta`` must exceed the largest eigenvalue of the Gram matrix (the
    squared spectral norm of the stacked slices); ``None`` selects
    1.02 times that eigenvalue.
    """

    lam: float
    mu0: float = 0.01
    rho0: float = 1.9
    mu_max: float = 1e10
    eta: float | None = None
    eps1: float = 1e-4
    eps2: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        if not (0.0 < self.lam < np.inf):
            raise InvalidConfigError(f"lambda must be positive and finite, got {self.lam}")
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
    """Coefficient-space iterates; all-zero at iteration 0."""

    Z: np.ndarray
    Ecoef: np.ndarray
    Xicoef: np.ndarray
    mu: float
    iter: int = 0


@dataclass
class AdmmReport:
    iterations: int
    converged: bool
    primal_residual_history: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)
    z_history: list | None = None
    e_history: list | None = None
    final_state: "AdmmState | None" = None
    # "converged" or "max_iters"; returned_iteration is the 1-based index of
    # the returned iterate (0: the all-zero start), and z_singular_values its
    # thresholded singular values, in descending order
    stop_reason: str = "max_iters"
    returned_iteration: int = 0
    z_singular_values: np.ndarray | None = None


def initial_state(n: int, mu0: float) -> AdmmState:
    return AdmmState(
        Z=np.zeros((n, n)), Ecoef=np.zeros((n, n)), Xicoef=np.zeros((n, n)), mu=mu0
    )


def _svt(M: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """SVT of a finite M and its thresholded singular values, in descending order.

    numpy's gesdd can fail to converge on finite input; scipy's gesvd is then
    tried.  scipy is imported only then, so a run whose SVDs converge never
    loads it.
    """
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        U, s, Vt = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
    shrunk = np.maximum(s - tau, 0.0)
    return (U * shrunk) @ Vt, shrunk


def svt(M, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink singular values by tau, clamp at 0."""
    M = as_matrix(M, "M")
    if tau < 0.0:
        raise InvalidConfigError(f"threshold must be nonnegative, got {tau}")
    return _svt(M, tau)[0]


def _shrink_slices(W: np.ndarray, DW: np.ndarray, mu: float) -> np.ndarray:
    """The E-step rule on columns W, given DW = delta @ W.

    Column i: M = sqrt(w^T delta w); it becomes 0 when M < 1/mu, else
    (1 - 1/(M mu)) w.
    """
    M = np.sqrt(np.maximum(np.sum(W * DW, axis=0), 0.0))
    factor = np.zeros(W.shape[1])
    hit = M >= 1.0 / mu
    factor[hit] = 1.0 - 1.0 / (M[hit] * mu)
    return W * factor[np.newaxis, :]


def e_step(Z: np.ndarray, Xicoef: np.ndarray, mu: float, delta: np.ndarray) -> np.ndarray:
    """Per-column slice shrinkage in coefficient space.

    Column i: w = (e_i - Z[:, i]) + Xicoef[:, i]/mu, M = sqrt(w^T delta w);
    the new column is 0 when M < 1/mu, else (1 - 1/(M mu)) w.
    """
    W = (np.eye(Z.shape[0]) - Z) + Xicoef / mu
    return _shrink_slices(W, delta @ W, mu)


def _z_argument(Z, DZ, D, DE, DXi, mu: float, eta: float) -> np.ndarray:
    """The SVT argument Z - grad/(eta mu), grad = mu*DZ - mu*(D - DE + DXi/mu)."""
    grad = mu * DZ - mu * (D - DE + DXi / mu)
    return Z - grad / (eta * mu)


def z_step(
    Z: np.ndarray,
    Ecoef: np.ndarray,
    Xicoef: np.ndarray,
    mu: float,
    eta: float,
    lam: float,
    delta: np.ndarray,
) -> np.ndarray:
    """Linearized proximal step: SVT of Z - grad/(eta mu) at threshold lam/(eta mu).

    Phi = Xicoef^T delta and Psi = Ecoef^T delta realize the slice-trace
    matrices [tr(xi(i)^T B_j)] and [tr(E(i)^T B_j)] without any d x d work.
    The smooth-term gradient is mu*delta@Z - mu*(delta - Psi + Phi/mu)^T;
    column i of Z weights the reconstruction of slice i, which places delta
    on the left of Z (the row-convention ordering is unstable here).
    """
    Dt = delta.T
    arg = _z_argument(Z, delta @ Z, Dt, Dt @ Ecoef, Dt @ Xicoef, mu, eta)
    return svt(arg, lam / (eta * mu))


def rho_rule(change: float, config: AdmmConfig) -> float:
    """Penalty growth factor: rho0 while the scaled iterate change is small."""
    return config.rho0 if change <= config.eps2 else 1.0


def mu_update(mu: float, rho_applied: float, mu_max: float = 1e10) -> float:
    return min(rho_applied * mu, mu_max)


def _sum_inner(A: np.ndarray, DA: np.ndarray) -> float:
    """Sum over columns of a^T delta a, given DA = delta @ A (total squared slice norm)."""
    return float(max(np.sum(A * DA), 0.0))


def admm_solve(
    delta: DeltaMatrix,
    config: AdmmConfig,
    track_iterates: bool = False,
) -> tuple[LowRankCoefficients, np.ndarray, AdmmReport]:
    """Run the coefficient-space ADMM to convergence or ``max_iters``.

    Returns the coefficient matrix, the error coefficients (column i holds
    the expansion of slice error E(i) over the embedded points), and a
    report.  Non-convergence is flagged, not raised; the iterate with the
    smallest primal residual is returned in that case.
    """
    D = as_matrix(delta.values if isinstance(delta, DeltaMatrix) else delta, "delta")
    n = D.shape[0]
    if D.shape[0] != D.shape[1]:
        raise InvalidConfigError(f"delta must be square, got {D.shape}")
    D = (D + D.T) / 2.0

    sigma_max = float(np.linalg.eigvalsh(D)[-1])
    x_norm = float(np.sqrt(max(sigma_max, 0.0)))
    eta = ETA_MARGIN * sigma_max if config.eta is None else float(config.eta)
    if not (eta > sigma_max):
        raise InvalidConfigError(
            f"eta={eta} must exceed the largest Gram eigenvalue {sigma_max}"
        )

    state = initial_state(n, config.mu0)
    report = AdmmReport(iterations=0, converged=False)
    if track_iterates:
        report.z_history = []
        report.e_history = []

    eye = np.eye(n)
    DZ, DE, DXi = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    # (primal, Z, E, thresholded singular values of Z, iteration); the arrays
    # are never written in place, so holding references is enough
    best = (np.inf, state.Z, state.Ecoef, np.zeros(n), 0)

    for k in range(config.max_iters):
        mu = state.mu
        E_next = _shrink_slices((eye - state.Z) + state.Xicoef / mu, D - DZ + DXi / mu, mu)
        DE_next = D @ E_next
        try:
            Z_next, shrunk = _svt(
                as_matrix(_z_argument(state.Z, DZ, D, DE_next, DXi, mu, eta), "M"),
                config.lam / (eta * mu),
            )
        except (InvalidInputError, np.linalg.LinAlgError) as exc:
            # a non-finite SVT argument or an SVD that fails on both drivers is
            # divergence, not bad user input
            raise NumericalDivergenceError(f"iteration {k + 1}: {exc}") from exc
        DZ_next = D @ Z_next
        residual_cols = eye - Z_next - E_next
        Xi_next = state.Xicoef + mu * residual_cols

        if not (
            np.isfinite(Z_next).all()
            and np.isfinite(E_next).all()
            and np.isfinite(Xi_next).all()
        ):
            raise NumericalDivergenceError(f"non-finite iterate at iteration {k + 1}")

        dz = np.sqrt(eta) * float(np.linalg.norm(Z_next - state.Z))
        de = float(np.sqrt(_sum_inner(E_next - state.Ecoef, DE_next - DE)))
        change = mu * max(dz, de) / x_norm
        primal = float(np.sqrt(_sum_inner(residual_cols, D - DZ_next - DE_next))) / x_norm

        objective = float(
            np.sum(np.sqrt(np.maximum(np.sum(E_next * DE_next, axis=0), 0.0)))
            + config.lam * float(np.sum(shrunk))
        )

        report.primal_residual_history.append(primal)
        report.objective_history.append(objective)
        report.mu_history.append(mu)
        if track_iterates:
            report.z_history.append(Z_next.copy())
            report.e_history.append(E_next.copy())

        state.Z, state.Ecoef, state.Xicoef = Z_next, E_next, Xi_next
        DZ, DE, DXi = DZ_next, DE_next, D @ Xi_next
        state.mu = mu_update(mu, rho_rule(change, config), config.mu_max)
        state.iter = k + 1
        report.iterations = k + 1

        if primal < best[0]:
            best = (primal, Z_next, E_next, shrunk, k + 1)

        if primal <= config.eps1 and change <= config.eps2:
            report.converged = True
            break

    report.final_state = state
    if report.converged:
        report.stop_reason = "converged"
        Z_out, E_out = state.Z, state.Ecoef
        report.z_singular_values, report.returned_iteration = shrunk, report.iterations
    else:
        _, Z_out, E_out, report.z_singular_values, report.returned_iteration = best
    return LowRankCoefficients(Z=Z_out), E_out, report


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
    eta = ETA_MARGIN * sigma_max if config.eta is None else float(config.eta)
    if not (eta > sigma_max):
        raise InvalidConfigError(
            f"eta={eta} must exceed the largest Gram eigenvalue {sigma_max}"
        )

    Z = np.zeros((n, n))
    E = np.zeros((n, d, d))
    Xi = np.zeros((n, d, d))
    mu = config.mu0

    report = AdmmReport(iterations=0, converged=False)
    if track_iterates:
        report.z_history = []
        report.e_history = []

    best = (np.inf, Z.copy(), [e.copy() for e in E])

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

        # Z-step from dense slice traces (same delta-on-the-left gradient as z_step).
        phi = np.einsum("iab,jab->ij", Xi, B)
        psi = np.einsum("iab,jab->ij", E_next, B)
        grad = mu * (D @ Z) - mu * (D - psi + phi / mu).T
        try:
            Z_next = svt(Z - grad / (eta * mu), config.lam / (eta * mu))
        except InvalidInputError as exc:
            raise NumericalDivergenceError(
                f"non-finite iterate at iteration {k + 1}"
            ) from exc

        residual = B - np.einsum("ji,jab->iab", Z_next, B) - E_next
        Xi_next = Xi + mu * residual

        if not (
            np.isfinite(Z_next).all()
            and np.isfinite(E_next).all()
            and np.isfinite(Xi_next).all()
        ):
            raise NumericalDivergenceError(f"non-finite iterate at iteration {k + 1}")

        dz = np.sqrt(eta) * float(np.linalg.norm(Z_next - Z))
        de = float(np.linalg.norm(E_next - E))
        change = mu * max(dz, de) / x_norm
        primal = float(np.linalg.norm(residual)) / x_norm

        objective = float(
            sum(np.linalg.norm(E_next[i]) for i in range(n))
            + config.lam * np.sum(np.linalg.svd(Z_next, compute_uv=False))
        )

        report.primal_residual_history.append(primal)
        report.objective_history.append(objective)
        report.mu_history.append(mu)
        if track_iterates:
            report.z_history.append(Z_next.copy())
            report.e_history.append([E_next[i].copy() for i in range(n)])

        Z, E, Xi = Z_next, E_next, Xi_next
        mu = mu_update(mu, rho_rule(change, config), config.mu_max)
        report.iterations = k + 1

        if primal < best[0]:
            best = (primal, Z.copy(), [E[i].copy() for i in range(n)])

        if primal <= config.eps1 and change <= config.eps2:
            report.converged = True
            break

    if report.converged:
        Z_out, E_out = Z, [E[i] for i in range(n)]
    else:
        Z_out, E_out = best[1], best[2]
    return LowRankCoefficients(Z=Z_out), E_out, report
