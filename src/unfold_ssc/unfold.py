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

Gradients are hand-written reverse mode over a forward tape; no autodiff
framework is involved. The tape keeps 2K + 1 n x n arrays for K layers
(Z0 and each layer's C and dual input mu, the first of which is the scalar
0); the backward recomputes each lower layer's Z from C and mu instead of
storing it, with the classic solver's ``step_Z``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
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

    Per layer k it keeps the penalty rho_k, the dual input ``mu_in[k]`` (the
    scalar 0 on the first layer) and the pre-shrinkage ``C[k]``; ``C[-1]``
    is the final C before diagonal zeroing. ``theta`` holds the K - 1
    thresholds of the layers below the top. With Z0 that is 2K + 1 n x n
    arrays, one of them never allocated. Layer k's output Z is recomputed on
    demand with the forward's expressions, so it matches it bit for bit.
    """

    Htilde: np.ndarray
    Z0: np.ndarray
    rho: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    mu_in: list = field(default_factory=list)
    C: list = field(default_factory=list)

    def Z(self, k: int, out=None, scratch=None) -> np.ndarray:
        """Layer k's output zero_diag(shrink(C_k + mu_k / rho_k, theta_k)).

        The shrinkage input and then Z go into ``out``, the shrinkage's clip
        into ``scratch``; both are new n x n arrays when omitted.
        """
        if out is None:
            out = np.empty_like(self.C[k])
        np.divide(self.mu_in[k], self.rho[k], out=out)
        return classic.step_Z(self.C[k], out, self.theta[k], out=out, scratch=scratch)

    def Z_in(self, k: int) -> np.ndarray:
        return self.Z0 if k == 0 else self.Z(k - 1)


def init_params(Htilde: np.ndarray, rho0: float, n_layers: int,
                theta0: float = 0.005) -> UnfoldParams:
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


def forward(params: UnfoldParams, Htilde: np.ndarray, Z0: np.ndarray | None = None):
    """Run the unfolded network from Z = Z0 (zero when omitted) and mu = 0.

    Per layer k:  V = mu - rho_k Z;  C = W_k H~ - B V;
                  Z = shrink(C + mu / rho_k, theta_k) with zero diagonal;
                  mu = mu + rho_k (C - Z).
    The last layer stops at C: nothing reads its Z or dual.
    Returns (C, tape) where C is the final-layer coefficient matrix with
    its diagonal zeroed.

    Each layer's C and dual go into the tape as new arrays. Everything else
    runs in two n x n scratch arrays allocated once per call: V, which then
    holds the shrinkage input and Z, and B V, which then holds the
    shrinkage's clip. Both are freed before the output copy, so the working
    set is the 2K + 1-array tape plus these two.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    n = Htilde.shape[1]
    Z = np.zeros((n, n)) if Z0 is None else np.asarray(Z0, dtype=np.float64)
    if Z.shape != (n, n):
        raise ValueError("Z0 must be n x n for n samples")
    if np.any(np.diagonal(Z) != 0):
        raise ValueError("Z0 must have a zero diagonal")
    mu = 0.0
    tape = ForwardTape(Htilde=Htilde, Z0=Z)
    V = np.empty((n, n))
    BV = np.empty((n, n))
    C = None
    for k, layer in enumerate(params.layers):
        rho = layer.rho
        np.multiply(Z, rho, out=V)
        np.subtract(mu, V, out=V)
        C = layer.W @ Htilde
        C -= params.apply_B(V, out=BV)
        tape.rho.append(rho)
        tape.mu_in.append(mu)
        tape.C.append(C)
        if k + 1 < params.n_layers:
            tape.theta.append(layer.theta)
            Z = tape.Z(k, out=V, scratch=BV)
            mu_next = np.subtract(C, Z)
            mu_next *= rho
            mu_next += mu
            mu = mu_next
    del V, BV, Z
    C_out = C.copy()
    np.fill_diagonal(C_out, 0.0)
    return C_out, tape


def backward(params: UnfoldParams, tape: ForwardTape, grad_C: np.ndarray):
    """Reverse-mode pass through the whole unfolded network.

    ``grad_C`` is the loss gradient with respect to the returned (diagonal-
    zeroed) coefficient matrix. Returns (grads, grad_Htilde) where ``grads``
    maps the names from ``params.named_arrays`` to arrays of matching shape;
    rho/theta gradients are with respect to their softplus preimages.
    Subgradients at the shrinkage kinks are taken as zero. The tape is only
    read; each lower layer's Z is recomputed once. The top layer has no
    shrinkage, so it gets W and rho gradients only.
    """
    Ht = tape.Htilde
    grads = {}
    gC = np.array(grad_C, dtype=np.float64)
    np.fill_diagonal(gC, 0.0)  # diag-zeroing is the last op
    top = params.n_layers - 1

    for k in range(top, -1, -1):
        layer = params.layers[k]
        name = f"layer{k}"
        rho, mu_in = layer.rho, tape.mu_in[k]
        grho = 0.0

        if k < top:
            # Z is layer k's output, recomputed as layer k + 1's input below.
            # mu_out = mu_in + rho (C - Z)
            gC = rho * gmu
            gZ -= gC
            grho = float(np.sum(gmu * (tape.C[k] - Z)))

            # Z = zero_diag(shrink(T, theta)), T = C + mu_in / rho, is nonzero
            # exactly where |T| > theta off the diagonal, with T's sign.
            gT = gZ  # masked in place
            gT[Z == 0.0] = 0.0
            gtheta = -float(np.sum(gT * np.sign(Z)))
            grads[f"{name}.theta_raw"] = np.array(gtheta * expit(layer.theta_raw))
            gC += gT
            if k > 0:
                gmu += gT / rho
                grho -= float(np.sum(gT * (mu_in / rho**2)))
            del gT, gZ, Z

        # C = W H~ - B V,  V = mu_in - rho Z_in, with B fixed and symmetric
        Z = tape.Z_in(k)
        grads[f"{name}.W"] = gC @ Ht.T
        gHt = layer.W.T @ gC if k == top else gHt + layer.W.T @ gC
        BtG = params.apply_B(gC)  # -dL/dV
        grho += float(np.sum(BtG * Z))
        if k > 0:
            # gZ, gmu: gradients of Z_in and mu_in, the outputs of layer k - 1
            gZ = rho * BtG
            if k == top:
                gmu = np.negative(BtG, out=BtG)
            else:
                gmu -= BtG
        del BtG

        grads[f"{name}.rho_raw"] = np.array(grho * expit(layer.rho_raw))

    return grads, gHt
