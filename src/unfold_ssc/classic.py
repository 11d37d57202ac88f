"""Iterative ADMM solver for the L1 self-representation program.

Solves  min_C ||X - X C||_F^2 + lambda ||C||_1  with the splitting C = Z,
a scaled dual u = mu / rho, and the diagonal of Z pinned to zero so samples
do not represent themselves. This solver doubles as the correctness oracle
for the unfolded network: one unfolded layer at analytic initialization
reproduces one iteration here to rounding (acceptance test A2 bounds the
relative difference by 1e-10). A run passes ``solve`` its
``classic_lambda``, ``classic_rho`` and ``classic_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from unfold_ssc.errors import NumericalError


@dataclass
class AdmmState:
    C: np.ndarray
    Z: np.ndarray
    mu: np.ndarray
    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))


def precompute(Y: np.ndarray, rho: float):
    """The C-update operator B = (2 Y^T Y + rho I)^-1, factored by one thin
    SVD of the dictionary.

    With Y = U diag(s) V^T, r = min(d, n) singular values and
    w = 2s^2 / (2s^2 + rho),

        B = (I - P) / rho,   P = V diag(w) V^T,

    one formula for every shape and rank, at O(d n r) instead of an n x n
    factorization. Returns (Vt, w) with Vt = V^T; B stays factored, since P
    applied to an n x n matrix through Vt costs O(n^2 r).
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("dictionary must be 2-D")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    _, s, Vt = np.linalg.svd(Y, full_matrices=False)
    s2 = 2.0 * s * s
    return Vt, s2 / (s2 + rho)


def soft_threshold(x, tau: float, out=None, scratch=None):
    """Elementwise shrinkage sign(x) * max(|x| - tau, 0), computed in two
    passes as x - clip(x, -tau, tau).

    The clip goes into ``scratch`` and the result into ``out`` (either may
    be ``x`` itself); each is a new array when omitted. Entries with
    |x| <= tau come out as +0, NaN stays NaN, and infinities keep their sign.
    """
    if tau < 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    x = np.asarray(x, dtype=np.float64)
    clipped = np.clip(x, -tau, tau, out=scratch)
    return np.subtract(x, clipped, out=out)


# Most entries in one row block: passes over the rows of an array, n x n
# ones above all, run one block of whole rows at a time, through buffers of
# at most this many entries.
ROW_BLOCK = 1 << 15


def row_blocks(rows: int, width: int) -> list:
    """(start, stop) ranges that tile ``range(rows)`` in near-equal blocks
    of at most ``ROW_BLOCK // width`` rows, and at least one: the row
    blocks of a rows x width array, each of at most ``ROW_BLOCK`` entries
    unless a single row holds more.

    The package's only block rule: every pass that walks an array in
    pieces walks these (a flat array as ``row_blocks(size, 1)``), and every
    blocked sum adds row sums, so no result depends on ``ROW_BLOCK``."""
    step = max(1, ROW_BLOCK // max(1, width))
    count = -(-rows // step)
    return [(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def step_C(Vt: np.ndarray, w: np.ndarray, D: np.ndarray, out=None) -> np.ndarray:
    """The matrix-product half of the exact minimizer of the augmented
    Lagrangian in C, in the scaled dual, with the data as its own dictionary
    (so 2 B X^T X = P):

        C = 2 B X^T X - rho B (u - Z) = P (I + D) - D,   D = u - Z.

    Returns P (I + D), written into ``out`` (an n x n array, allocated when
    omitted); the caller subtracts D. P = Vt^T diag(w) Vt is applied as two
    thin products: 4 n^2 r flops per iteration, r = min(d, n), against
    2 n^3 for a dense n x n B; only the r x n product Vt D is new.
    """
    T = Vt @ D
    T += Vt
    T *= w[:, np.newaxis]
    return np.matmul(Vt.T, T, out=out)


def solve(X: np.ndarray, lam: float, rho: float, iterations: int) -> AdmmState:
    """Run ``iterations`` ADMM steps at weight ``lam`` and penalty ``rho`` on
    the data as its own dictionary, from Z = u = 0.

    Each iteration costs O(n^2 r), r = min(d, n) (see ``step_C``). The loop
    runs on three n x n arrays allocated once: u, C and one that holds
    D = u - Z between iterations and Z within one (the old Z is read only
    through D). After ``step_C`` one pass over ``row_blocks`` finishes the
    iteration a block at a time: C -= D, Z = soft_threshold(C + u) with the
    diagonal zeroed, R = C - Z (into a block buffer), u += R, R's row sums
    of squares and, but after the last iteration, the next D over Z.
    Returns the final state with mu = rho u (u scaled in place);
    ``state.residuals`` holds the primal residual ||C - Z||_F after every
    iteration, the square root of the sum of its n row sums of squares.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not np.all(np.isfinite(X)):
        raise NumericalError("non-finite input data, refusing to iterate")
    Vt, w = precompute(X, rho)
    tau = lam / rho
    Z = np.zeros((n, n))  # D = u - Z = 0 before the first iteration
    u = np.zeros_like(Z)
    C = np.empty_like(Z)
    blocks = row_blocks(n, n)
    R_buf = np.empty((max(r1 - r0 for r0, r1 in blocks), n))
    row_sq = np.empty(n)
    residuals = np.empty(iterations)
    for it in range(iterations):
        step_C(Vt, w, Z, out=C)
        for r0, r1 in blocks:
            c, z, ub, r = C[r0:r1], Z[r0:r1], u[r0:r1], R_buf[:r1 - r0]
            c -= z  # z holds D
            soft_threshold(np.add(c, ub, out=z), tau, out=z, scratch=r)
            z.reshape(-1)[r0::n + 1] = 0.0
            ub += np.subtract(c, z, out=r)
            np.sum(np.multiply(r, r, out=r), axis=1, out=row_sq[r0:r1])
            if it + 1 < iterations:
                np.subtract(ub, z, out=z)
        residuals[it] = np.sqrt(np.sum(row_sq))
        if not np.isfinite(residuals[it]):
            raise NumericalError(f"non-finite iterate at ADMM iteration {it + 1}")
    u *= rho
    return AdmmState(C=C, Z=Z, mu=u, residuals=residuals)
