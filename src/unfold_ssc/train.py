"""Two-phase training: autoencoder warm-up, then joint full-batch descent.

Phase one fits the autoencoder alone. Its latent codes then freeze two
nearest-neighbor graphs: a 30-neighbor adjacency that seeds the unfolded
network's Z state, and a 10-neighbor graph whose Laplacian drives the
structure loss. Phase two trains autoencoder and unfolded network together
under the composite objective

    L = L_rec + alpha * L_selfrep + beta * L_sparse + gamma * L_structure.

Everything is full batch and seeded, so a rerun with the same data, seed,
and config reproduces the loss history bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from unfold_ssc import autoenc, graph, unfold
from unfold_ssc.errors import NumericalError


@dataclass
class LossWeights:
    alpha: float = 10.0
    beta: float = 0.01
    gamma: float = 1e-5


@dataclass
class TrainConfig:
    pretrain_epochs: int = 400
    joint_epochs: int = 600
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    rho0: float = 0.5
    n_layers: int = 3
    theta0: float = 0.005
    knn_init: int = 30
    knn_struct: int = 10
    rho_theta_lr_mult: float = 1.0
    weights: LossWeights = field(default_factory=LossWeights)


@dataclass
class LossBreakdown:
    total: float
    ae: float
    sr: float
    sp: float
    st: float

    def finite(self) -> bool:
        return all(np.isfinite(v) for v in (self.total, self.ae, self.sr, self.sp, self.st))


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


@dataclass
class TrainState:
    ae: autoenc.AeWeights
    unfold: unfold.UnfoldParams | None = None
    opt: AdamState = field(default_factory=AdamState)
    z0: np.ndarray | None = None
    adj: np.ndarray | None = None
    lap: np.ndarray | None = None

    def named_arrays(self):
        for name, arr in self.ae.named_arrays():
            yield f"ae.{name}", arr
        if self.unfold is not None:
            for name, arr in self.unfold.named_arrays():
                yield f"unfold.{name}", arr


def init_state(ae_config: autoenc.AeConfig, seed: int) -> TrainState:
    return TrainState(ae=autoenc.init_weights(ae_config, seed))


def loss_sr(Htilde: np.ndarray, C: np.ndarray):
    """Self-representation fit: mean unsquared column norm of H~ - H~ C.

    Returns (value, grad_Htilde, grad_C). Columns with an exactly zero
    residual contribute a zero subgradient.
    """
    n = Htilde.shape[1]
    R = Htilde - Htilde @ C
    norms = np.linalg.norm(R, axis=0)
    value = float(norms.sum()) / n
    safe = np.where(norms > 0, norms, 1.0)
    GR = np.where(norms > 0, R / safe, 0.0) / n
    grad_C = -Htilde.T @ GR
    grad_Ht = GR - GR @ C.T
    return value, grad_Ht, grad_C


def loss_sp(C: np.ndarray):
    """Mean-per-sample L1 mass of the coefficients; subgradient 0 at zeros."""
    n = C.shape[1]
    value = float(np.abs(C).sum()) / n
    return value, np.sign(C) / n


def total_loss(state: TrainState, X: np.ndarray, weights: LossWeights):
    """Composite loss and its gradients for every learnable tensor.

    Returns (breakdown, grads) with ``grads`` keyed like
    ``TrainState.named_arrays``. The whole chain is differentiated by hand:
    reconstruction through the decoder, and the three coefficient losses
    back through the unfolded network, the latent normalization, and the
    encoder.
    """
    if state.unfold is None:
        raise ValueError("unfolded network is not initialized; run train_joint")
    tape_ae = autoenc.ae_forward(state.ae, X)
    v_ae, gXhat = autoenc.ae_loss(X, tape_ae.Xhat)
    Ht = autoenc.normalize_latent(tape_ae.H)
    C, tape_u = unfold.forward(state.unfold, Ht, state.z0)

    v_sr, gHt_sr, gC_sr = loss_sr(Ht, C)
    v_sp, gC_sp = loss_sp(C)
    if state.lap is not None:
        v_st, gC_st = graph.structure_loss(C, state.lap, state.adj)
    else:
        v_st, gC_st = 0.0, np.zeros_like(C)

    w = weights
    breakdown = LossBreakdown(
        total=v_ae + w.alpha * v_sr + w.beta * v_sp + w.gamma * v_st,
        ae=v_ae, sr=v_sr, sp=v_sp, st=v_st,
    )

    gC = w.alpha * gC_sr + w.beta * gC_sp + w.gamma * gC_st
    ugrads, gHt_unfold = unfold.backward(state.unfold, tape_u, gC)
    gHt = w.alpha * gHt_sr + gHt_unfold
    gH = autoenc.normalize_latent_backward(tape_ae.H, gHt)
    ae_grads = autoenc.ae_backward(state.ae, tape_ae, gH, gXhat)

    grads = {f"ae.{k}": g for k, g in ae_grads.items()}
    grads.update({f"unfold.{k}": g for k, g in ugrads.items()})
    return breakdown, grads


def _reset_moments(opt: AdamState, named) -> None:
    opt.m = {name: np.zeros_like(arr) for name, arr in named}
    opt.v = {name: np.zeros_like(arr) for name, arr in named}
    opt.step = 0


def adam_step(opt: AdamState, named, grads: dict, config: TrainConfig) -> None:
    """One Adam update, in place, over (name, array) pairs.

    The learnable penalty and threshold preimages get the configured
    learning-rate multiplier; everything else uses the base rate.
    """
    opt.step += 1
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    corr1 = 1.0 - b1**opt.step
    corr2 = 1.0 - b2**opt.step
    for name, arr in named:
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        lr = config.learning_rate
        if name.endswith(("rho_raw", "theta_raw")):
            lr *= config.rho_theta_lr_mult
        arr -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def pretrain(state: TrainState, X: np.ndarray, config: TrainConfig) -> list:
    """Phase one: reconstruction-only training, then freeze the two graphs.

    Runs ``config.pretrain_epochs`` full-batch Adam steps on the
    autoencoder (zero epochs leave the weights untouched), then builds the
    Z-seeding and structure adjacencies from the resulting latent codes,
    raising ``NumericalError`` if any of them is non-finite.
    Returns the per-epoch reconstruction loss history.
    """
    ae_named = list((f"ae.{k}", a) for k, a in state.ae.named_arrays())
    _reset_moments(state.opt, ae_named)
    history = []
    for epoch in range(config.pretrain_epochs):
        tape = autoenc.ae_forward(state.ae, X)
        value, gXhat = autoenc.ae_loss(X, tape.Xhat)
        if not np.isfinite(value):
            raise NumericalError(f"non-finite reconstruction loss at pretrain epoch {epoch + 1}")
        grads = autoenc.ae_backward(state.ae, tape, None, gXhat)
        adam_step(state.opt, ae_named, {f"ae.{k}": g for k, g in grads.items()}, config)
        history.append(value)

    H = autoenc.encode(state.ae, X)
    bad = ~np.all(np.isfinite(H), axis=1)
    if bad.any():
        raise NumericalError(
            f"non-finite latent code for sample {int(np.argmax(bad))} after pretraining; "
            "cannot build the kNN graphs"
        )
    state.z0, state.adj = graph.knn_adjacency(H.T, config.knn_init, config.knn_struct)
    state.lap = graph.laplacian(state.adj)
    return history


def train_joint(state: TrainState, X: np.ndarray, config: TrainConfig) -> list:
    """Phase two: composite-loss training of autoencoder plus unfolded network.

    The unfolded network is initialized analytically from the current
    normalized latents; Adam moments restart for the new parameter set.
    Returns the loss-breakdown history (list of LossBreakdown).
    """
    if state.z0 is None or state.lap is None:
        raise ValueError("graphs are not frozen yet; run pretrain first")
    Ht = autoenc.normalize_latent(autoenc.encode(state.ae, X))
    state.unfold = unfold.init_params(Ht, config.rho0, config.n_layers, theta0=config.theta0)
    named = list(state.named_arrays())
    _reset_moments(state.opt, named)
    history = []
    for epoch in range(config.joint_epochs):
        breakdown, grads = total_loss(state, X, config.weights)
        if not breakdown.finite():
            raise NumericalError(
                f"non-finite loss at joint epoch {epoch + 1}: "
                f"ae={breakdown.ae}, sr={breakdown.sr}, sp={breakdown.sp}, st={breakdown.st}"
            )
        adam_step(state.opt, named, grads, config)
        history.append(breakdown)
    return history
