"""Layer-unfolded ADMM network for learnable self-representation.

Each layer replays one ADMM iteration with its own learnable penalty rho
and shrinkage threshold theta, stored as softplus preimages so gradient
steps can never push them out of range (rho > 0, theta >= 0). The network
returns the top layer's C, before that layer's shrinkage, so the top layer
has no threshold: K layers learn 2K - 1 scalars. Everything else is the
classic solver's, fixed at the normalized latent H0 the network is built
from and shared by every layer: the input map W = H0^T M and the iterate
map (2 H0^T H0 + rho0 I)^-1, where M = (rho0 / 2 I + H0 H0^T)^-1 is l x l.
B is never formed. Since W H~ - B V = W (H~ + H0 V / rho0) - V / rho0, a
layer costs two O(n^2 l) products forward, H0 V and W U, and two backward.
With theta = lambda / rho the forward pass reproduces the classic solver
to rounding: the two compute the same iteration in a different order, and
rho and theta round-trip through softplus (acceptance test A2 bounds the
relative difference by 1e-10).

The network also keeps its Z seed Z0, a k-neighbor graph that
``init_params`` checks once, as a sparse CSR array: layer 0 reads it
through ``toarray`` into a zero-filled array, the forward's V or one row
block of a buffer in the backward, which gives the dense computation's bits
without a dense Z0 of its own.

Gradients are hand-written reverse mode over a forward tape; no autodiff
framework is involved. Besides the network's own arrays, the tape keeps
only the shrinkage input T_k = C_k + mu_k / rho_k of each of the K - 1
layers that shrink: Z_k and, in ADMM's scaled form, the dual
mu_{k+1} = rho_k (T_k - Z_k) both follow from T_k alone. The forward holds
two more n x n arrays, V, which becomes the returned C, and a scratch
array kept as the tape's ``spare``: 2 + (K - 1) in all, in which the
losses and the backward then work too. The backward only reads the tape.

Every matrix product runs on whole arrays. Everything between two
products, elementwise chains and the sums that reduce them, runs one block
of ``classic.row_blocks`` at a time, through buffers of at most
``classic.ROW_BLOCK`` entries: a block's Z is recomputed from the tape
where it is read. A scalar sum adds each row's terms per block, with
``np.sum(block, axis=1)`` or a fused row dot, then the n row sums with one
``np.sum``; a row's sum does not depend on the rows that share its block,
so no result depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import expit

from unfold_ssc import classic


def softplus(x):
    """log(1 + e^x) computed stably for large |x|."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def softplus_inv(y):
    """Preimage of softplus: log(e^y - 1). Requires y > 0."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("softplus preimage needs a positive value")
    return np.log(np.expm1(y))


@dataclass
class UnfoldLayer:
    W: np.ndarray          # (n, l) fixed H0^T M, the same array in every layer
    rho_raw: np.ndarray    # 0-d softplus preimage of the penalty
    theta_raw: np.ndarray | None  # same for the threshold; None on the top layer

    @property
    def rho(self) -> float:
        return float(softplus(self.rho_raw))

    @property
    def theta(self) -> float:
        return float(softplus(self.theta_raw))


@dataclass
class UnfoldParams:
    """The learnable layers, the fixed W and B they share as H0, M and rho0,
    and the Z seed Z0, an n x n CSR array with a zero diagonal."""

    layers: list[UnfoldLayer]
    H0: np.ndarray
    M: np.ndarray
    rho0: float
    Z0: sparse.csr_array

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def named_arrays(self):
        """Deterministic (name, array) walk over every learnable tensor: the
        0-d preimages of each layer's rho and, below the top, theta."""
        for idx, layer in enumerate(self.layers):
            yield f"layer{idx}.rho_raw", layer.rho_raw
            if layer.theta_raw is not None:
                yield f"layer{idx}.theta_raw", layer.theta_raw


def _writable_square(arr, n: int) -> bool:
    """Whether ``arr`` is an n x n float64 array a pass can write into."""
    return (getattr(arr, "dtype", None) == np.float64 and np.shape(arr) == (n, n)
            and arr.flags.writeable and arr.flags.c_contiguous)


@dataclass
class ForwardTape:
    """What the backward pass reads from one forward evaluation.

    For each layer k that shrinks (all but the top, whose C is the output)
    it keeps rho_k, theta_k and the shrinkage input ``T[k]`` =
    C_k + mu_k / rho_k: K - 1 n x n arrays. Z_k = zero_diag(shrink(T_k,
    theta_k)) and the next dual mu_{k+1} = rho_k (T_k - Z_k) follow from
    T_k alone, so no dual is stored. ``Z(k)`` recomputes Z_k bit for bit on
    any range of rows, so the forward and backward passes call it one row
    block at a time. Nothing writes into the tape once the forward returns,
    so one tape serves any number of backward passes. ``spare`` is an
    n x n array that nothing reads once the forward returns, for the caller
    to write over.
    """

    rho: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    T: list = field(default_factory=list)
    spare: np.ndarray | None = None

    def Z(self, k: int, r0: int = 0, r1: int | None = None, out=None,
          scratch=None) -> np.ndarray:
        """Layer k's output zero_diag(shrink(T_k, theta_k)) on rows
        [r0, r1) (to the end when ``r1`` is None), into ``out`` with the
        shrinkage's clip in ``scratch``; both are new arrays when omitted,
        and C-contiguous when given."""
        T = self.T[k][r0:r1]
        Z = classic.soft_threshold(T, self.theta[k], out=out, scratch=scratch)
        Z.reshape(-1)[r0::T.shape[1] + 1] = 0.0  # the diagonal entries of rows r0 on
        return Z


def init_params(Htilde: np.ndarray, Z0, rho0: float, n_layers: int,
                theta0: float) -> UnfoldParams:
    """Analytic initialization from the normalized latent H0 = Htilde and
    the Z seed Z0.

    Every layer holds the same fixed W = H0^T M, which equals the classic
    solver's (2 H0^T H0 + rho0 I)^-1 2 H0^T, and starts from penalty rho0;
    every layer but the top starts from threshold theta0. Z0, dense or
    sparse, is kept as a canonical CSR array (duplicates summed); it must
    be n x n for H0's n samples, with a zero diagonal, else ValueError.
    """
    if n_layers < 1:
        raise ValueError("the network needs at least one layer")
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    if theta0 <= 0:
        raise ValueError(f"theta0 must be positive, got {theta0}")
    H0 = np.array(Htilde, dtype=np.float64)
    n = H0.shape[1]
    Z0 = sparse.csr_array(Z0, dtype=np.float64)
    if Z0.shape != (n, n):
        raise ValueError("Z0 must be n x n for n samples")
    if not Z0.has_canonical_format:
        Z0 = Z0.copy()
        Z0.sum_duplicates()
    if np.any(Z0.diagonal() != 0):
        raise ValueError("Z0 must have a zero diagonal")
    M = np.linalg.inv(0.5 * rho0 * np.eye(H0.shape[0]) + H0 @ H0.T)
    W = H0.T @ M
    rho_raw = softplus_inv(rho0)
    theta_raw = softplus_inv(theta0)
    return UnfoldParams([UnfoldLayer(W, np.array(rho_raw),
                                     np.array(theta_raw) if k + 1 < n_layers else None)
                         for k in range(n_layers)], H0, M, float(rho0), Z0)


def forward(params: UnfoldParams, Htilde: np.ndarray):
    """Run the unfolded network on H~ from its seed Z = Z0 and mu = 0.

    Per layer k:  V = mu - rho_k Z;  C = W H~ - B V = W U - V / rho0,
                  U = H~ + H0 V / rho0;
                  T = C + mu / rho_k;  Z = shrink(T, theta_k) with zero
                  diagonal;  mu = rho_k (T - Z),
    the scaled-form dual update mu + rho_k (C - Z). The last layer stops at
    C: nothing reads its Z or dual. Returns (C, tape) where C is the
    final-layer coefficient matrix with its diagonal zeroed. An H~ of
    another shape than H0 raises ValueError.

    Layer 0's V = 0 - rho_0 Z0 is formed in place from Z0's ``toarray``
    into V. The pass allocates 2 + (K - 1) n x n arrays: the K - 1 the tape
    stores and two working arrays, V and a scratch P. Below the top, W U
    goes into the layer's tape T, and one pass over row blocks then
    finishes C (V's block takes V / rho0, then serves as the shrinkage's
    scratch), T (adding mu / rho_k from P's block), Z (in a block buffer),
    the next layer's mu / rho in P's block and its V over V's. The top
    layer writes V / rho0 into P, the tape's ``spare``, then W U over V and
    subtracts: V is the returned C.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    if Htilde.shape != params.H0.shape:
        raise ValueError(f"Htilde must have H0's shape {params.H0.shape}, got {Htilde.shape}")
    n = Htilde.shape[1]
    top = params.n_layers - 1
    V, P = np.empty((n, n)), np.empty((n, n))
    tape = ForwardTape(T=[np.empty((n, n)) for _ in range(top)], spare=P)
    blocks = classic.row_blocks(n, n)
    Z_buf = np.empty((max(r1 - r0 for r0, r1 in blocks), n))
    rho = params.layers[0].rho
    np.subtract(0.0, np.multiply(params.Z0.toarray(out=V), rho, out=V), out=V)
    for k, layer in enumerate(params.layers):
        U = params.H0 @ V  # U = H~ + H0 V / rho0, in one l x n array
        U /= params.rho0
        U += Htilde
        if k == top:
            np.divide(V, params.rho0, out=P)
            C = np.matmul(layer.W, U, out=V)  # V is read no more
            C -= P
            np.fill_diagonal(C, 0.0)
            return C, tape
        T = np.matmul(layer.W, U, out=tape.T[k])
        tape.rho.append(rho)
        tape.theta.append(layer.theta)
        rho_next = params.layers[k + 1].rho
        for r0, r1 in blocks:
            v, p, t = V[r0:r1], P[r0:r1], T[r0:r1]
            t -= np.divide(v, params.rho0, out=v)  # C = W U - V / rho0
            if k > 0:
                t += p  # T = C + mu / rho, mu_0 = 0
            Z = tape.Z(k, r0, r1, out=Z_buf[:r1 - r0], scratch=v)
            # mu_{k+1} / rho_{k+1} = (rho_k / rho_{k+1}) (T - Z), then V_{k+1}
            np.multiply(np.subtract(t, Z, out=p), rho / rho_next, out=p)
            np.multiply(np.subtract(p, Z, out=v), rho_next, out=v)
        rho = rho_next


def backward(params: UnfoldParams, tape: ForwardTape, grad_C: np.ndarray, scratch=None):
    """Reverse-mode pass through the whole unfolded network.

    ``grad_C``, the loss gradient with respect to the returned (diagonal-
    zeroed) C, must be a writable C-contiguous float64 n x n array (else
    ValueError); it is overwritten, as each layer's gC in turn. Returns
    (grads, grad_Htilde), ``grads`` keyed like ``params.named_arrays``, each
    a new 0-d array; rho/theta gradients are with respect to their softplus
    preimages. Subgradients at the shrinkage kinks are taken as zero; the
    top layer, which does not shrink, has no theta.

    The pass only reads the tape. Besides gC it holds one n x n array,
    ``scratch`` (new when omitted; it may be the returned C or the tape's
    ``spare``, but neither grad_C nor a tape T, else ValueError), into
    which W H0 gC goes and a block at a time becomes B gC and the gradient
    of the layer below's Z. After each layer's products one pass over row
    blocks recomputes the layer below's Z from its T, forms the layer's
    gmu in gC's block and then the layer below's gC there, and the row sums
    of every term its rho and theta gradients add; layer 0's rho gradient
    reads Z0 one block of rows at a time.
    """
    gC = grad_C
    n = params.H0.shape[1]
    if not _writable_square(gC, n):
        raise ValueError(f"grad_C must be a writable C-contiguous float64 {n} x {n} array, "
                         "which it overwrites")
    if scratch is not None and (not _writable_square(scratch, n) or any(
            np.may_share_memory(scratch, a) for a in (gC, *tape.T))):
        raise ValueError(f"scratch must be a writable C-contiguous float64 {n} x {n} array "
                         "apart from grad_C and the tape's arrays")
    np.fill_diagonal(gC, 0.0)  # diag-zeroing is the last op
    top = params.n_layers - 1
    blocks = classic.row_blocks(n, n)
    rows = max(r1 - r0 for r0, r1 in blocks)
    P = np.empty((n, n)) if scratch is None else scratch
    Z_buf, s_buf, zero = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n), dtype=bool)
    # Per row, the sums of the terms of the rho and theta gradients
    sum_rho, sum_T, sum_gmu, sum_theta = np.empty((4, n))
    grads = {}
    grho = 0.0  # layer k's rho gradient through the dual it made
    for k in range(top, -1, -1):
        layer = params.layers[k]
        # C = W (H~ + H0 V / rho0) - V / rho0,  V = mu_k - rho Z_in, with W = H0^T M
        # fixed and M symmetric: gH~ gains W^T gC = M Y and B gC = (gC - W Y) / rho0
        # for Y = H0 gC.
        Y = params.H0 @ gC
        gHt = params.M @ Y if k == top else gHt + params.M @ Y
        np.matmul(layer.W, Y, out=P)
        rho = layer.rho
        if k == 0:
            for r0, r1 in blocks:
                g, b, s = gC[r0:r1], P[r0:r1], params.Z0[r0:r1].toarray(out=s_buf[:r1 - r0])
                np.divide(np.subtract(g, b, out=b), params.rho0, out=b)  # B gC = -dL/dV
                np.sum(np.multiply(b, s, out=s), axis=1, out=sum_rho[r0:r1])
            grho += np.sum(sum_rho)
            grads["layer0.rho_raw"] = np.array(grho * expit(layer.rho_raw))
            break

        # Layer i = k - 1 below made Z_i = zero_diag(shrink(T_i, theta_i)),
        # nonzero exactly where |T_i| > theta_i off the diagonal, with T_i's
        # sign, and mu_k = rho_i D, D = T_i - Z_i. Below the top, gC is
        # layer k's gT, and T_k = C_k + mu_k / rho_k.
        i = k - 1
        rho_i = tape.rho[i]
        for r0, r1 in blocks:
            g, b, z, s = gC[r0:r1], P[r0:r1], Z_buf[:r1 - r0], s_buf[:r1 - r0]
            np.divide(np.subtract(g, b, out=b), params.rho0, out=b)  # B gC = -dL/dV
            Z = tape.Z(i, r0, r1, out=z, scratch=s)
            np.sum(np.multiply(b, Z, out=s), axis=1, out=sum_rho[r0:r1])
            D = np.subtract(tape.T[i][r0:r1], Z, out=s)
            # gmu_k over gC; no block buffer is free for the T term's products
            if k == top:
                np.negative(b, out=g)
            else:
                np.einsum("ij,ij->i", g, D, out=sum_T[r0:r1])
                g /= rho
                g -= b
            np.sum(np.multiply(g, D, out=s), axis=1, out=sum_gmu[r0:r1])
            b *= rho
            b -= np.multiply(rho_i, g, out=s)  # gZ_i, then gT_i's share through Z_i
            np.copyto(b, 0.0, where=np.equal(Z, 0.0, out=zero[:r1 - r0]))
            np.sum(np.multiply(b, np.sign(Z, out=s), out=s), axis=1, out=sum_theta[r0:r1])
            g *= rho_i
            g += b  # gC_i = gT_i = rho_i gmu_k + gZ_i
        grho += np.sum(sum_rho)
        if k < top:
            grho -= rho_i / rho**2 * np.sum(sum_T)
        grads[f"layer{k}.rho_raw"] = np.array(grho * expit(layer.rho_raw))
        gtheta = -np.sum(sum_theta)
        grads[f"layer{i}.theta_raw"] = np.array(gtheta * expit(params.layers[i].theta_raw))
        grho = np.sum(sum_gmu)

    return grads, gHt
