"""Layer-unfolded ADMM network for learnable self-representation.

Each layer replays one ADMM iteration with its own learnable ingredients:
the linear maps W and B (initialized from the analytic solver matrices and
then free), a penalty rho, and a shrinkage threshold theta. rho and theta
are stored as softplus preimages so gradient steps can never push them out
of their valid ranges (rho > 0, theta >= 0). With theta = lambda / rho the
forward pass reproduces the classic solver bit-for-bit up to softplus
round-trip error.

The network returns the last layer's C, which that layer's shrinkage never
reaches: the last threshold gets a zero gradient and stays at its initial
value under training.

Gradients are hand-written reverse mode over a forward tape; no autodiff
framework is involved.
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


def relu_soft_threshold(v, theta):
    """Shrinkage in its network form: relu(|v| - theta) * sign(v).

    Elementwise identical to the piecewise soft threshold for theta >= 0.
    """
    if theta < 0:
        raise ValueError(f"threshold must be non-negative, got {theta}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


@dataclass
class UnfoldLayer:
    W: np.ndarray          # (n, l)
    B: np.ndarray          # (n, n)
    rho_raw: np.ndarray    # 0-d softplus preimage of the penalty
    theta_raw: np.ndarray  # 0-d softplus preimage of the threshold

    @property
    def rho(self) -> float:
        return float(softplus(self.rho_raw))

    @property
    def theta(self) -> float:
        return float(softplus(self.theta_raw))


@dataclass
class UnfoldParams:
    """Learnable state of the unfolded network, one entry per layer."""

    layers: list[UnfoldLayer]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def named_arrays(self):
        """Deterministic (name, array) walk over every learnable tensor."""
        for idx, layer in enumerate(self.layers):
            yield f"layer{idx}.W", layer.W
            yield f"layer{idx}.B", layer.B
            yield f"layer{idx}.rho_raw", layer.rho_raw
            yield f"layer{idx}.theta_raw", layer.theta_raw


@dataclass
class ForwardTape:
    """Everything the backward pass needs from one forward evaluation.

    Layer k's input Z is ``Z0`` for the first layer and ``Z_out[k-1]``
    after it; V and T are recomputed from the stored arrays on demand.
    ``C[-1]`` is the final C before diagonal zeroing.
    """

    Htilde: np.ndarray
    Z0: np.ndarray
    rho: list = field(default_factory=list)
    mu_in: list = field(default_factory=list)
    C: list = field(default_factory=list)
    Z_out: list = field(default_factory=list)

    def Z_in(self, k: int) -> np.ndarray:
        return self.Z0 if k == 0 else self.Z_out[k - 1]

    @property
    def T(self) -> list:
        """Shrinkage input C + mu_in / rho of every layer."""
        return [C + mu / rho for C, mu, rho in zip(self.C, self.mu_in, self.rho)]


def init_params(Htilde: np.ndarray, rho0: float, n_layers: int,
                theta0: float = 0.005) -> UnfoldParams:
    """Analytic initialization from the classic solver matrices.

    Every layer starts from the same W = (2 H^T H + rho0 I)^-1 2 H^T and
    B = (2 H^T H + rho0 I)^-1 (each layer gets its own copies), with
    penalty rho0 and threshold theta0.
    """
    if n_layers < 1:
        raise ValueError("the network needs at least one layer")
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    if theta0 <= 0:
        raise ValueError(f"theta0 must be positive, got {theta0}")
    W, B = classic.precompute(Htilde, None, rho0)
    rho_raw = softplus_inv(rho0)
    theta_raw = softplus_inv(theta0)
    return UnfoldParams(layers=[
        UnfoldLayer(W.copy(), B.copy(), np.array(rho_raw), np.array(theta_raw))
        for _ in range(n_layers)
    ])


def forward(params: UnfoldParams, Htilde: np.ndarray, Z0: np.ndarray | None = None):
    """Run the unfolded network from Z = Z0 (zero when omitted) and mu = 0.

    Per layer k:  V = mu - rho_k Z;  C = W_k H~ - B_k V;
                  Z = shrink(C + mu / rho_k, theta_k) with zero diagonal;
                  mu = mu + rho_k (C - Z), skipped on the last layer, whose
                  dual nothing reads.
    Returns (C, tape) where C is the final-layer coefficient matrix with
    its diagonal zeroed.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    n = Htilde.shape[1]
    Z = np.zeros((n, n)) if Z0 is None else np.asarray(Z0, dtype=np.float64)
    if Z.shape != (n, n):
        raise ValueError("Z0 must be n x n for n samples")
    if np.any(np.diagonal(Z) != 0):
        raise ValueError("Z0 must have a zero diagonal")
    mu = np.zeros((n, n))
    tape = ForwardTape(Htilde=Htilde, Z0=Z)
    C = None
    for k, layer in enumerate(params.layers):
        rho, theta = layer.rho, layer.theta
        V = mu - rho * Z
        C = layer.W @ Htilde - layer.B @ V
        T = C + mu / rho
        Zraw = relu_soft_threshold(T, theta)
        np.fill_diagonal(Zraw, 0.0)
        tape.rho.append(rho)
        tape.mu_in.append(mu)
        tape.C.append(C)
        Z = Zraw
        if k + 1 < params.n_layers:
            mu = mu + rho * (C - Z)
        tape.Z_out.append(Z)
    C_out = C.copy()
    np.fill_diagonal(C_out, 0.0)
    return C_out, tape


def backward(params: UnfoldParams, tape: ForwardTape, grad_C: np.ndarray):
    """Reverse-mode pass through the whole unfolded network.

    ``grad_C`` is the loss gradient with respect to the returned (diagonal-
    zeroed) coefficient matrix. Returns (grads, grad_Htilde) where ``grads``
    maps the names from ``params.named_arrays`` to arrays of matching shape;
    rho/theta gradients are with respect to their softplus preimages.
    Subgradients at the shrinkage kinks are taken as zero.

    The output is the last layer's C, which its own shrinkage never reaches,
    so that layer's threshold gets an exactly zero gradient (it stays at its
    initial value under training) and its shrinkage branch is skipped.
    """
    Ht = tape.Htilde
    grads = {}
    gC = np.array(grad_C, dtype=np.float64)
    np.fill_diagonal(gC, 0.0)  # diag-zeroing is the last op
    top = params.n_layers - 1

    for k in range(top, -1, -1):
        layer = params.layers[k]
        name = f"layer{k}"
        rho, theta = layer.rho, layer.theta
        Z_in, mu_in = tape.Z_in(k), tape.mu_in[k]
        grho = gtheta = 0.0

        if k < top:
            C, Z_out = tape.C[k], tape.Z_out[k]
            # mu_out = mu_in + rho (C - Z_out)
            gC = rho * gmu
            gZ -= gC
            grho = float(np.sum(gmu * (C - Z_out)))

            # Z_out = zero_diag(shrink(T, theta)), T = C + mu_in / rho
            T = C + mu_in / rho
            gT = gZ  # masked in place
            gT[~(np.abs(T) > theta)] = 0.0
            np.fill_diagonal(gT, 0.0)
            gtheta = -float(np.sum(gT * np.sign(T)))
            gC += gT
            gmu += gT / rho
            grho -= float(np.sum(gT * (mu_in / rho**2)))

        # C = W H~ - B V,  V = mu_in - rho Z_in;  BtG = B^T gC = -dL/dV
        grads[f"{name}.W"] = gC @ Ht.T
        gHt = layer.W.T @ gC if k == top else gHt + layer.W.T @ gC
        grads[f"{name}.B"] = gC @ (rho * Z_in - mu_in).T
        BtG = layer.B.T @ gC
        grho += float(np.sum(BtG * Z_in))
        # gZ, gmu: gradients of Z_in and mu_in, the outputs of layer k - 1
        gZ = rho * BtG
        if k == top:
            gmu = np.negative(BtG, out=BtG)
        else:
            gmu -= BtG

        grads[f"{name}.rho_raw"] = np.array(grho * expit(layer.rho_raw))
        grads[f"{name}.theta_raw"] = np.array(gtheta * expit(layer.theta_raw))

    return grads, gHt
