"""Iterative ADMM solver for the L1 self-representation program.

Solves  min_C ||X - Y C||_F^2 + lambda ||C||_1  with the splitting C = Z,
scaled-dual updates, and the diagonal of Z pinned to zero so samples do not
represent themselves. This solver doubles as the correctness oracle for the
unfolded network: one unfolded layer at analytic initialization reproduces
one iteration here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from unfold_ssc.errors import NumericalError


@dataclass
class ClassicConfig:
    lam: float = 0.1
    rho: float = 1.0
    iterations: int = 200


@dataclass
class AdmmState:
    C: np.ndarray
    Z: np.ndarray
    mu: np.ndarray
    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))


def precompute(Y: np.ndarray, X: np.ndarray | None, rho: float):
    """Closed-form C-update matrices from one thin SVD of the dictionary.

    W = (2 Y^T Y + rho I)^-1 (2 Y^T)  and  B = (2 Y^T Y + rho I)^-1.
    With Y = U diag(s) V^T, r = min(d, n) singular values,

        W = V diag(2s / (2s^2 + rho)) U^T
        B = (I - V diag(2s^2 / (2s^2 + rho)) V^T) / rho,

    one formula for every shape and rank, at O(d n r + n^2 r) instead of an
    n x n factorization. ``X`` is only used to check that its feature
    dimension matches the dictionary.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("dictionary must be 2-D")
    if X is not None and np.shape(X)[0] != Y.shape[0]:
        raise ValueError(
            f"feature mismatch: dictionary has {Y.shape[0]} rows, data has {np.shape(X)[0]}"
        )
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    denom = 2.0 * s * s + rho
    W = Vt.T @ ((2.0 * s / denom)[:, np.newaxis] * U.T)
    B = (np.eye(Y.shape[1]) - Vt.T @ ((2.0 * s * s / denom)[:, np.newaxis] * Vt)) / rho
    return W, B


def soft_threshold(x, tau: float):
    """Elementwise shrinkage: sign(x) * max(|x| - tau, 0)."""
    if tau < 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > tau, x - tau, np.where(x < -tau, x + tau, 0.0))


def step_C(W: np.ndarray, B: np.ndarray, X: np.ndarray, Z: np.ndarray,
           mu: np.ndarray, rho: float) -> np.ndarray:
    """Exact minimizer of the augmented Lagrangian in C: W X - B (mu - rho Z)."""
    return W @ X - B @ (mu - rho * Z)


def step_Z(C: np.ndarray, mu: np.ndarray, rho: float, lam: float) -> np.ndarray:
    """Shrinkage step with the self-representation diagonal zeroed."""
    Z = soft_threshold(C + mu / rho, lam / rho)
    np.fill_diagonal(Z, 0.0)
    return Z


def step_mu(mu: np.ndarray, C: np.ndarray, Z: np.ndarray, rho: float) -> np.ndarray:
    """Dual ascent on the C = Z constraint."""
    return mu + rho * (C - Z)


def solve(X: np.ndarray, config: ClassicConfig, Y: np.ndarray | None = None) -> AdmmState:
    """Run the full ADMM loop from Z = mu = 0.

    The dictionary defaults to the data itself (self-representation).
    Returns the final state; ``state.residuals`` holds the primal residual
    ||C - Z||_F after every iteration.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = X if Y is None else np.asarray(Y, dtype=np.float64)
    n = Y.shape[1]
    if config.iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise NumericalError("non-finite input data, refusing to iterate")
    W, B = precompute(Y, X, config.rho)
    Z = np.zeros((n, X.shape[1]))
    mu = np.zeros_like(Z)
    residuals = np.empty(config.iterations)
    C = Z
    for it in range(config.iterations):
        C = step_C(W, B, X, Z, mu, config.rho)
        Z = step_Z(C, mu, config.rho, config.lam)
        mu = step_mu(mu, C, Z, config.rho)
        residuals[it] = np.linalg.norm(C - Z)
        if not np.isfinite(residuals[it]):
            raise NumericalError(f"non-finite iterate at ADMM iteration {it + 1}")
    return AdmmState(C=C, Z=Z, mu=mu, residuals=residuals)
