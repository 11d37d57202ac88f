"""Layer-unfolded ADMM network for learnable self-representation.

Each layer replays one ADMM iteration with its own learnable map W
(initialized from the analytic solver matrix, then free), penalty rho and
shrinkage threshold theta, the last two stored as softplus preimages so
gradient steps can never push them out of range (rho > 0, theta >= 0). The
network returns the top layer's C, before that layer's shrinkage, so the
top layer has no threshold: K layers learn K maps, K penalties and K - 1
thresholds. All layers share the solver's fixed B = (2 H0^T H0 + rho0 I)^-1
for the normalized latent H0 at initialization, never formed but applied in
Woodbury form through the l x l matrix M = (rho0 / 2 I + H0 H0^T)^-1, at
O(n^2 l) per n x n operand. With theta = lambda / rho the forward pass
reproduces the classic solver to rounding: the two compute the same
iteration in a different order, and rho and theta round-trip through
softplus (acceptance test A2 bounds the relative difference by 1e-10).

The Z seed Z0, a k-neighbor graph, is a sparse CSR array: layer 0 reads it
by scattering its entries into a zero-filled n x n buffer, which gives the
dense computation's bits without a dense Z0.

Gradients are hand-written reverse mode over a forward tape; no autodiff
framework is involved. The tape keeps only what the backward reads: Z0 and
the C and dual input mu of the K - 1 layers that shrink, less the first
two duals (the scalar 0, and mu_1, which the backward recomputes), so
2K - 4 new n x n arrays for K >= 3, one for K = 2 and none for K = 1. The
backward recomputes lower layers' Z with ``classic.step_Z`` in four n x n
buffers besides the output gradient it overwrites.
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
    W: np.ndarray          # (n, l)
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
    """The learnable layers, and the fixed B they share as H0, M and rho0."""

    layers: list[UnfoldLayer]
    H0: np.ndarray
    M: np.ndarray
    rho0: float

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def named_arrays(self):
        """Deterministic (name, array) walk over every learnable tensor."""
        for idx, layer in enumerate(self.layers):
            yield f"layer{idx}.W", layer.W
            yield f"layer{idx}.rho_raw", layer.rho_raw
            if layer.theta_raw is not None:
                yield f"layer{idx}.theta_raw", layer.theta_raw

    def apply_B(self, V: np.ndarray, out=None) -> np.ndarray:
        """B V = (V - H0^T (M (H0 V))) / rho0, written into ``out`` (a new
        array when omitted); B is symmetric."""
        BV = np.matmul(self.H0.T, self.M @ (self.H0 @ V), out=out)
        np.subtract(V, BV, out=BV)
        BV /= self.rho0
        return BV


@dataclass
class ForwardTape:
    """What the backward pass reads from one forward evaluation.

    For each layer k that shrinks (all but the top, whose C is the output)
    it keeps rho_k, theta_k, the pre-shrinkage ``C[k]`` and the dual input
    ``mu_in[k]``, except that ``mu_in[0]`` is the scalar 0 and ``mu_in[1]``
    is None: ``mu(1)`` recomputes it bit for bit from C_0. That is 2K - 4
    new n x n arrays for K >= 3, one for K = 2 and none for K = 1;
    ``Z(k)`` recomputes Z_k bit for bit. ``Z0`` is the seed as a CSR array.
    """

    Htilde: np.ndarray
    Z0: sparse.csr_array
    rho: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    mu_in: list = field(default_factory=list)
    C: list = field(default_factory=list)

    def mu(self, k: int, out=None, scratch=None):
        """Layer k's dual input; mu_1 = (C_0 - Z_0) rho_0 + 0 is recomputed
        into ``out`` (a new n x n array when omitted), with Z_0's shrinkage
        clip in ``scratch``. The + 0, the forward's scalar mu_0, turns -0
        into +0 as the forward's sum did."""
        if self.mu_in[k] is not None:
            return self.mu_in[k]
        Z = self.Z(0, out=out, scratch=scratch)
        return np.add(np.multiply(np.subtract(self.C[0], Z, out=Z), self.rho[0], out=Z), 0.0,
                      out=Z)

    def Z(self, k: int, out=None, scratch=None, mu=None) -> np.ndarray:
        """Layer k's output zero_diag(shrink(C_k + mu_k / rho_k, theta_k)).

        The shrinkage input and then Z go into ``out``, the shrinkage's clip
        into ``scratch``; both are new n x n arrays when omitted. ``mu`` is
        the dual input, ``mu(k)`` when omitted.
        """
        if mu is None:
            mu = self.mu(k)
        if out is None:
            out = np.empty_like(self.C[k])
        np.divide(mu, self.rho[k], out=out)
        return classic.step_Z(self.C[k], out, self.theta[k], out=out, scratch=scratch)


def _scatter(Z0: sparse.csr_array, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Zero ``out`` and write ``values``, one per stored entry of Z0, at
    those entries' positions."""
    out.fill(0.0)
    rows = np.repeat(np.arange(Z0.shape[0]), np.diff(Z0.indptr))
    out[rows, Z0.indices] = values
    return out


def init_params(Htilde: np.ndarray, rho0: float, n_layers: int, theta0: float) -> UnfoldParams:
    """Analytic initialization from the normalized latent H0 = Htilde.

    Every layer starts from its own copy of W = H0^T M, which equals the
    classic solver's (2 H0^T H0 + rho0 I)^-1 2 H0^T, with penalty rho0;
    every layer but the top starts from threshold theta0.
    """
    if n_layers < 1:
        raise ValueError("the network needs at least one layer")
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    if theta0 <= 0:
        raise ValueError(f"theta0 must be positive, got {theta0}")
    H0 = np.array(Htilde, dtype=np.float64)
    M = np.linalg.inv(0.5 * rho0 * np.eye(H0.shape[0]) + H0 @ H0.T)
    W = H0.T @ M
    rho_raw = softplus_inv(rho0)
    theta_raw = softplus_inv(theta0)
    return UnfoldParams([UnfoldLayer(W.copy(), np.array(rho_raw),
                                     np.array(theta_raw) if k + 1 < n_layers else None)
                         for k in range(n_layers)], H0, M, float(rho0))


def forward(params: UnfoldParams, Htilde: np.ndarray, Z0):
    """Run the unfolded network from Z = Z0 and mu = 0.

    Per layer k:  V = mu - rho_k Z;  C = W_k H~ - B V;
                  Z = shrink(C + mu / rho_k, theta_k) with zero diagonal;
                  mu = mu + rho_k (C - Z).
    The last layer stops at C: nothing reads its Z or dual.
    Returns (C, tape) where C is the final-layer coefficient matrix with
    its diagonal zeroed.

    Z0, dense or sparse, is converted to a CSR array (canonical, with
    duplicate entries summed), and layer 0's V = 0 - rho_0 Z0 is scattered
    into a zero-filled buffer. Each lower layer's C, and each dual from
    mu_2 on, go into the tape as new arrays. Everything else runs in two
    n x n scratch arrays allocated once per call: V, which then holds the
    shrinkage input and Z, and B V, which then holds the shrinkage's clip
    and rho (C - Z). The top layer's dual is dropped once V is built; its C
    is returned with the diagonal zeroed in place.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    n = Htilde.shape[1]
    Z0 = sparse.csr_array(Z0, dtype=np.float64)
    if Z0.shape != (n, n):
        raise ValueError("Z0 must be n x n for n samples")
    if not Z0.has_canonical_format:
        Z0 = Z0.copy()
        Z0.sum_duplicates()
    if np.any(Z0.diagonal() != 0):
        raise ValueError("Z0 must have a zero diagonal")
    mu = 0.0
    tape = ForwardTape(Htilde=Htilde, Z0=Z0)
    V, BV = np.empty((n, n)), np.empty((n, n))
    top = params.n_layers - 1
    for k, layer in enumerate(params.layers):
        rho = layer.rho
        if k == 0:
            _scatter(Z0, np.subtract(mu, np.multiply(Z0.data, rho)), out=V)
        else:
            np.multiply(Z, rho, out=V)
            np.subtract(mu, V, out=V)
        if k == top:
            del mu  # the top layer's dual input is read by nothing past V
        C = layer.W @ Htilde
        C -= params.apply_B(V, out=BV)
        if k == top:
            break
        tape.rho.append(rho)
        tape.theta.append(layer.theta)
        tape.mu_in.append(None if k == 1 else mu)
        tape.C.append(C)
        Z = tape.Z(k, out=V, scratch=BV, mu=mu)
        mu = np.add(np.multiply(np.subtract(C, Z, out=BV), rho, out=BV), mu)
    np.fill_diagonal(C, 0.0)
    return C, tape


def backward(params: UnfoldParams, tape: ForwardTape, grad_C: np.ndarray, out=None):
    """Reverse-mode pass through the whole unfolded network.

    ``grad_C``, the loss gradient with respect to the returned (diagonal-
    zeroed) C, must be a writable float64 n x n array (else ValueError); it
    is overwritten, as each layer's gC in turn. Returns (grads, grad_Htilde),
    ``grads`` keyed like ``params.named_arrays``; rho/theta gradients are
    with respect to their softplus preimages. Each gradient is written into
    the array of the same name in the dict ``out`` when given, else into a
    new array. Subgradients at the shrinkage kinks are taken as zero; the
    top layer, which does not shrink, has no theta. The tape is only read;
    each lower layer's Z is recomputed once, into one of four n x n buffers
    with gmu, gZ (first B gC) and a scratch, and mu_1 into gC while that
    holds no gradient. Layer 0's rho gradient scatters Z0 into the scratch,
    so its sum reads the same dense product as a dense Z0 would give.
    """
    Ht, grads, gC = tape.Htilde, {}, grad_C
    n = Ht.shape[1]
    if getattr(gC, "dtype", None) != np.float64 or np.shape(gC) != (n, n) or not gC.flags.writeable:
        raise ValueError(f"grad_C must be a writable float64 {n} x {n} array, which it overwrites")
    np.fill_diagonal(gC, 0.0)  # diag-zeroing is the last op
    top = params.n_layers - 1
    gmu, gZ, Z_buf, scratch = (np.empty(gC.shape) for _ in range(4))

    def dot(a, b):  # sum(a * b), the product formed in the scratch buffer
        return float(np.sum(np.multiply(a, b, out=scratch)))

    def put(name, value):  # a 0-d gradient, into its buffer when one was given
        if out is None:
            grads[name] = np.array(value)
        else:
            out[name][...] = value
            grads[name] = out[name]

    for k in range(top, -1, -1):
        layer = params.layers[k]
        name = f"layer{k}"
        rho = layer.rho
        grho = 0.0

        if k < top:
            # Z and mu are layer k's output and dual input, recomputed as
            # layer k + 1's inputs below; a recomputed mu_1 sits in gC, so
            # rho gmu goes to scratch until mu's last read.
            # mu_out = mu_in + rho (C - Z)
            gZ -= np.multiply(rho, gmu, out=scratch if mu is gC else gC)
            grho = dot(gmu, np.subtract(tape.C[k], Z, out=scratch))

            # Z = zero_diag(shrink(T, theta)), T = C + mu_in / rho, is nonzero
            # exactly where |T| > theta off the diagonal, with T's sign.
            gT = gZ  # masked in place
            gT[Z == 0.0] = 0.0
            gtheta = -dot(gT, np.sign(Z, out=scratch))
            put(f"{name}.theta_raw", gtheta * expit(layer.theta_raw))
            if k > 0:
                grho -= dot(gT, np.divide(mu, rho**2, out=scratch))
            if mu is gC:
                np.multiply(rho, gmu, out=gC)
            gC += gT
            if k > 0:
                gmu += np.divide(gT, rho, out=scratch)

        # C = W H~ - B V,  V = mu_in - rho Z_in, with B fixed and symmetric
        gW = None if out is None else out[f"{name}.W"]
        grads[f"{name}.W"] = np.matmul(gC, Ht.T, out=gW)
        gHt = layer.W.T @ gC if k == top else gHt + layer.W.T @ gC
        BtG = params.apply_B(gC, out=gZ)  # -dL/dV; gC is free from here
        if k == 0:
            grho += dot(BtG, _scatter(tape.Z0, tape.Z0.data, out=scratch))
        else:
            mu = tape.mu(k - 1, out=gC, scratch=scratch)
            Z = tape.Z(k - 1, out=Z_buf, scratch=scratch, mu=mu)
            grho += dot(BtG, Z)
            # gmu, gZ: gradients of mu_in and Z_in, the outputs of layer k - 1
            if k == top:
                np.negative(BtG, out=gmu)
            else:
                gmu -= BtG
            BtG *= rho

        put(f"{name}.rho_raw", grho * expit(layer.rho_raw))

    return grads, gHt
