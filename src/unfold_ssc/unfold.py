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
only what the backward reads: the C and dual input mu of the K - 1 layers
that shrink, less the first two duals (the scalar 0, and mu_1, which both
passes recompute), so 2K - 4 n x n arrays for K >= 3, one for K = 2 and
none for K = 1. The forward holds two more, V, which becomes the returned
C, and a scratch array kept as the tape's ``spare``: 2 + (2K - 4) n x n
arrays for K >= 3, in which the losses and the backward then work too.

Every matrix product runs on whole arrays. Everything between two
products, elementwise chains and the sums that reduce them, runs one block
of ``classic.row_blocks`` at a time, through buffers of at most
``classic.ROW_BLOCK`` entries: a block's Z and mu are recomputed from the
tape where they are read. A scalar sum adds each row with one
``np.sum(block, axis=1)`` per block, then the n row sums with one
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
    it keeps rho_k, theta_k, the pre-shrinkage ``C[k]`` and the dual input
    ``mu_in[k]``, except that ``mu_in[0]`` is the scalar 0 and ``mu_in[1]``
    is None: ``mu(1)`` recomputes it bit for bit from C_0. That is 2K - 4
    n x n arrays for K >= 3, one for K = 2 and none for K = 1. ``Z(k)``
    recomputes Z_k bit for bit. Both work on any range of rows, so the
    forward and backward passes call them one row block at a time.
    ``spare`` is an n x n array that nothing reads once the forward
    returns, for the caller to write over.

    ``backward`` writes over ``C[K - 2]`` and marks the tape ``consumed``:
    from then on ``mu``, ``Z`` and another ``backward`` raise ValueError
    rather than read it.
    """

    rho: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    mu_in: list = field(default_factory=list)
    C: list = field(default_factory=list)
    spare: np.ndarray | None = None
    consumed: bool = False

    def mu(self, k: int, r0: int = 0, r1: int | None = None, out=None, scratch=None):
        """Layer k's dual input on rows [r0, r1) (to the end when ``r1`` is
        None): the scalar 0 for k = 0, a view of the stored array from k = 2
        on. mu_1 = (C_0 - Z_0) rho_0 + 0 is recomputed into ``out`` (a new
        array when omitted), with Z_0's shrinkage clip in ``scratch``. The
        + 0, the forward's scalar mu_0, turns -0 into +0 as the forward's
        sum did."""
        self._check()
        return self._mu(k, r0, r1, out, scratch)

    def Z(self, k: int, r0: int = 0, r1: int | None = None, out=None, scratch=None,
          mu=None) -> np.ndarray:
        """Layer k's output zero_diag(shrink(C_k + mu_k / rho_k, theta_k)) on
        rows [r0, r1).

        The shrinkage input and then Z go into ``out``, the shrinkage's clip
        into ``scratch``; both are new arrays when omitted, and C-contiguous
        when given. ``mu`` is the dual input on the same rows,
        ``mu(k, r0, r1)`` when omitted.
        """
        self._check()
        return self._Z(k, r0, r1, out, scratch, mu)

    def _check(self):
        if self.consumed:
            raise ValueError("the tape was consumed by backward, which writes over it; "
                             "run forward again")

    def _mu(self, k, r0=0, r1=None, out=None, scratch=None):
        mu = self.mu_in[k]
        if mu is not None:
            return mu if np.ndim(mu) == 0 else mu[r0:r1]
        Z = self._Z(0, r0, r1, out=out, scratch=scratch)
        return np.add(np.multiply(np.subtract(self.C[0][r0:r1], Z, out=Z), self.rho[0], out=Z),
                      0.0, out=Z)

    def _Z(self, k, r0=0, r1=None, out=None, scratch=None, mu=None):
        C = self.C[k][r0:r1]
        if mu is None:
            mu = self._mu(k, r0, r1)
        Z = np.divide(mu, self.rho[k], out=np.empty_like(C) if out is None else out)
        np.add(C, Z, out=Z)
        classic.soft_threshold(Z, self.theta[k], out=Z, scratch=scratch)
        Z.reshape(-1)[r0::C.shape[1] + 1] = 0.0  # the diagonal entries of rows r0 on
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
                  Z = shrink(C + mu / rho_k, theta_k) with zero diagonal;
                  mu = mu + rho_k (C - Z).
    The last layer stops at C: nothing reads its Z or dual.
    Returns (C, tape) where C is the final-layer coefficient matrix with
    its diagonal zeroed. An H~ of another shape than H0 raises ValueError.

    Layer 0's V = 0 - rho_0 Z0 is formed in place from Z0's ``toarray``
    into V. The pass allocates 2 + (2K - 4) n x n arrays for K >= 3: the
    2K - 4 the tape stores and two working arrays, V and a scratch P.
    Below the top, W U goes into the layer's tape C, and one pass over row
    blocks then finishes C, Z (in a block buffer), the next dual (stored
    from mu_2 up, else a block at a time) and the next layer's V, written
    over V, with P's block as scratch. mu_1 is recomputed there a block at
    a time, into V's block once it is read. The top layer writes V / rho0
    into P, the tape's ``spare``, then W U over V and subtracts: V is the
    returned C.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    if Htilde.shape != params.H0.shape:
        raise ValueError(f"Htilde must have H0's shape {params.H0.shape}, got {Htilde.shape}")
    n = Htilde.shape[1]
    top = params.n_layers - 1
    V, P = np.empty((n, n)), np.empty((n, n))
    tape = ForwardTape(C=[np.empty((n, n)) for _ in range(top)],
                       mu_in=[0.0, None][:top] + [np.empty((n, n)) for _ in range(2, top)],
                       spare=P)
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
        C = np.matmul(layer.W, U, out=tape.C[k])
        tape.rho.append(rho)
        tape.theta.append(layer.theta)
        rho_next = params.layers[k + 1].rho
        # The next dual is stored from mu_2 on, but never the top layer's.
        mu_next = tape.mu_in[k + 1] if k + 1 < top else None
        for r0, r1 in blocks:
            v, p, c = V[r0:r1], P[r0:r1], C[r0:r1]
            c -= np.divide(v, params.rho0, out=p)  # C = W U - V / rho0
            m = tape.mu(k, r0, r1, out=v, scratch=p)  # mu_1 over V, read above
            Z = tape.Z(k, r0, r1, out=Z_buf[:r1 - r0], scratch=p, mu=m)
            dual = p if mu_next is None else mu_next[r0:r1]
            np.add(np.multiply(np.subtract(c, Z, out=p), rho, out=p), m, out=dual)
            np.subtract(dual, np.multiply(Z, rho_next, out=v), out=v)
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

    The pass consumes the tape (see ``ForwardTape``): gmu is written over
    the tape's C_{K-2}, each block once it is read for the last time.
    Besides gC and the tape it holds one n x n array, ``scratch`` (new when
    omitted; it may be the returned C or the tape's ``spare``, but neither
    grad_C nor an array the tape stores, else ValueError), into which
    W H0 gC goes and a block at a time becomes B gC and the gradient of
    the layer below's Z. After each layer's products one pass over row
    blocks recomputes the layer below's mu (into gC's block, which it
    overwrites last) and Z, and forms its gC, the next gmu and the row sums
    of every term its rho and theta gradients add; layer 0's rho gradient
    reads Z0 one block of rows at a time.
    """
    gC = grad_C
    n = params.H0.shape[1]
    if not _writable_square(gC, n):
        raise ValueError(f"grad_C must be a writable C-contiguous float64 {n} x {n} array, "
                         "which it overwrites")
    if scratch is not None and (not _writable_square(scratch, n) or any(
            np.may_share_memory(scratch, a) for a in (gC, *tape.C, *tape.mu_in[2:]))):
        raise ValueError(f"scratch must be a writable C-contiguous float64 {n} x {n} array "
                         "apart from grad_C and the tape's arrays")
    tape._check()
    tape.consumed = True
    np.fill_diagonal(gC, 0.0)  # diag-zeroing is the last op
    top = params.n_layers - 1
    blocks = classic.row_blocks(n, n)
    rows = max(r1 - r0 for r0, r1 in blocks)
    P = np.empty((n, n)) if scratch is None else scratch
    gmu = tape.C[top - 1] if top > 0 else None
    Z_buf, s_buf, zero = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n), dtype=bool)
    # Per row, the sums of the terms of the rho and theta gradients
    sum_rho, sum_gmu, sum_theta, sum_mu = np.empty((4, n))
    grads = {}
    grho = 0.0  # layer k's rho gradient, less its B V term
    for k in range(top, -1, -1):
        layer = params.layers[k]
        # C = W (H~ + H0 V / rho0) - V / rho0,  V = mu_in - rho Z_in, with W = H0^T M
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

        # Layer i = k - 1 below made Z_i and mu_k = mu_i + rho_i (C_i - Z_i);
        # Z_i = zero_diag(shrink(T, theta_i)), T = C_i + mu_i / rho_i, is
        # nonzero exactly where |T| > theta_i off the diagonal, with T's sign.
        i = k - 1
        rho_i = tape.rho[i]
        for r0, r1 in blocks:
            g, b, gm, C_i = gC[r0:r1], P[r0:r1], gmu[r0:r1], tape.C[i][r0:r1]
            z, s = Z_buf[:r1 - r0], s_buf[:r1 - r0]
            np.divide(np.subtract(g, b, out=b), params.rho0, out=b)  # B gC = -dL/dV
            mu = tape._mu(i, r0, r1, out=g, scratch=s)  # mu_1 over gC, read above
            Z = tape._Z(i, r0, r1, out=z, scratch=s, mu=mu)
            np.sum(np.multiply(b, Z, out=s), axis=1, out=sum_rho[r0:r1])
            # The last read of C_i's block, which at the top layer is gmu's
            np.subtract(C_i, Z, out=s)
            # gmu, then gZ in b: gradients of layer k's inputs mu_k and Z_i
            if k == top:
                np.negative(b, out=gm)
            else:
                gm -= b
            np.sum(np.multiply(gm, s, out=s), axis=1, out=sum_gmu[r0:r1])
            b *= rho
            b -= np.multiply(rho_i, gm, out=s)
            np.copyto(b, 0.0, where=np.equal(Z, 0.0, out=zero[:r1 - r0]))  # gT
            np.sum(np.multiply(b, np.sign(Z, out=s), out=s), axis=1, out=sum_theta[r0:r1])
            if i > 0:
                np.sum(np.multiply(b, np.divide(mu, rho_i**2, out=s), out=s), axis=1,
                       out=sum_mu[r0:r1])
            np.multiply(rho_i, gm, out=g)
            g += b
            if i > 0:
                gm += np.divide(b, rho_i, out=s)
        grho += np.sum(sum_rho)
        grads[f"layer{k}.rho_raw"] = np.array(grho * expit(layer.rho_raw))
        gtheta = -np.sum(sum_theta)
        grads[f"layer{i}.theta_raw"] = np.array(gtheta * expit(params.layers[i].theta_raw))
        grho = np.sum(sum_gmu)
        if i > 0:
            grho -= np.sum(sum_mu)

    return grads, gHt
