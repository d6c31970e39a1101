"""From-scratch ADMM steps in the original coefficient coordinates, as test oracles.

``admm_solve`` runs the same iteration in the Gram matrix's eigenbasis and
reuses work across steps; these functions form every Gram product anew, so
replaying them against the solver's tracked iterates checks the rewrite.
"""

import numpy as np

from grasslrr import svt


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
