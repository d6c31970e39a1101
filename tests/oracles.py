"""Test oracles: from-scratch forms of what the package computes in bulk.

``admm_solve`` runs the ADMM iteration in the Gram matrix's eigenbasis and
reuses work across steps; ``e_step`` and ``z_step`` form every Gram product
anew, so replaying them against the solver's tracked iterates checks the
rewrite.  ``k_projection``, ``k_cc`` and ``k_ccp`` evaluate one kernel value
per point pair, against which ``assemble_gram``'s batched rows are checked,
and ``principal_angle_cosines`` gives ``k_cc`` (and the synth fixtures'
separation checks) one pair's principal-angle cosines from its own SVD;
``thin_svd`` is the sign-canonical SVD ``orthonormalize`` takes its basis
from, and ``grassmann_distance`` the projection-embedding distance the
fixtures' separations are checked with.  ``load_report`` reads back the
key=value ``report.txt`` that ``save_results`` writes.
"""

from dataclasses import dataclass

import numpy as np

from grasslrr import InvalidConfigError, svt
from grasslrr.dataio import read_lines
from grasslrr.manifold import as_matrix, canonical_signs, check_same_shape


def e_step(Z: np.ndarray, Xicoef: np.ndarray, mu: float, delta: np.ndarray) -> np.ndarray:
    """Per-column slice shrinkage in coefficient space.

    Column i: w = (e_i - Z[:, i]) + Xicoef[:, i]/mu, M = sqrt(w^T delta w);
    the new column is 0 when M < 1/mu, else (1 - 1/(M mu)) w.
    """
    W = (np.eye(Z.shape[0]) - Z) + Xicoef / mu
    M = np.sqrt(np.maximum(np.sum(W * (delta @ W), axis=0), 0.0))
    factor = np.zeros(W.shape[1])
    hit = M >= 1.0 / mu
    factor[hit] = 1.0 - 1.0 / (M[hit] * mu)
    return W * factor[np.newaxis, :]


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
    grad = mu * (delta @ Z) - mu * (Dt - Dt @ Ecoef + (Dt @ Xicoef) / mu)
    return svt(Z - grad / (eta * mu), lam / (eta * mu))


def k_projection(X1, X2) -> float:
    """tr[(X2^T X1)(X1^T X2)] = ||X1^T X2||_F^2 from the p x p cross product."""
    check_same_shape(X1, X2)
    cross = X1.basis.T @ X2.basis
    return float(np.sum(cross * cross))


def principal_angle_cosines(X1, X2) -> np.ndarray:
    """Singular values of X1^T X2 clipped to [0, 1]: read-only principal-angle cosines."""
    check_same_shape(X1, X2)
    s = np.linalg.svd(X1.basis.T @ X2.basis, compute_uv=False)
    out = np.clip(s, 0.0, 1.0)
    out.setflags(write=False)
    return out


def k_cc(X1, X2, variant: str = "sum") -> float:
    """Canonical-correlation kernel: largest cosine or sum of cosines."""
    if variant not in ("max", "sum"):
        raise InvalidConfigError(f"cc variant must be 'max' or 'sum', got {variant!r}")
    cos = principal_angle_cosines(X1, X2)
    return float(cos[0]) if variant == "max" else float(np.sum(cos))


def k_ccp(X1, X2, alpha: float) -> float:
    """alpha * summed-cosine kernel + (1 - alpha) * projection kernel."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise InvalidConfigError(f"ccp blend weight must be in (0,1), got {alpha}")
    return alpha * k_cc(X1, X2, "sum") + (1.0 - alpha) * k_projection(X1, X2)


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD M = U diag(S) V^T with S descending and a fixed sign convention."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def thin_svd(M) -> ThinSvd:
    """Thin SVD with descending singular values and canonical signs."""
    M = as_matrix(M, "M")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    signs = canonical_signs(U)
    return ThinSvd(U=U * signs, S=S, V=Vt.T * signs)


def grassmann_distance(X1, X2) -> float:
    """Frobenius distance between the projection embeddings.

    Computed as sqrt(2p - 2 ||X1^T X2||_F^2), which never forms a d x d matrix.
    """
    check_same_shape(X1, X2)
    cross = X1.basis.T @ X2.basis
    val = 2.0 * X1.p - 2.0 * float(np.sum(cross * cross))
    return float(np.sqrt(max(val, 0.0)))


def load_report(path) -> dict:
    """key -> value of each line of a report.txt, values as written."""
    out = {}
    for _, stripped in read_lines(path, "report file"):
        key, _, value = stripped.partition("=")
        out[key] = value
    return out
