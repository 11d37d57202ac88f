"""Two-phase training: autoencoder warm-up, then joint full-batch descent.

Phase one fits the autoencoder alone. Its latent codes then freeze two
sparse nearest-neighbor graphs: a 30-neighbor adjacency that seeds the
unfolded network's Z state, and a 10-neighbor graph, kept only as its
Laplacian, that drives the structure loss. The unfolded network is built
then, from the same codes, with the seed inside it. Phase two trains
autoencoder and network together under the composite objective

    L = L_rec + alpha * L_selfrep + beta * L_sparse + gamma * L_structure.

Every hyperparameter comes from the run's ``cli.RunConfig``, read under
its own field names. Everything is full batch and seeded, so a rerun with
the same data, seed, and config reproduces the loss history bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from unfold_ssc import autoenc, classic, graph, unfold
from unfold_ssc.errors import NumericalError

if TYPE_CHECKING:
    from unfold_ssc.cli import RunConfig


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
    """The autoencoder, the unfolded network ``pretrain`` builds, their Adam
    moments, the structure Laplacian, and one gradient buffer per
    autoencoder array (``grads``) that every epoch of both phases writes
    into. Moments and gradients go by each array's own name in
    ``named_arrays`` (``enc0.W``, ``layer1.theta_raw``)."""

    ae: autoenc.AeWeights
    unfold: unfold.UnfoldParams | None = None
    opt: AdamState = field(default_factory=AdamState)
    lap: sparse.csr_array | None = None
    grads: dict = field(default_factory=dict)

    def named_arrays(self):
        yield from self.ae.named_arrays()
        if self.unfold is not None:
            yield from self.unfold.named_arrays()


def init_state(input_dim: int, config: RunConfig) -> TrainState:
    """Fresh autoencoder weights of the run's widths, drawn from ``config.seed``,
    and their gradient buffers."""
    state = TrainState(ae=autoenc.init_weights(input_dim, config.hidden_dims,
                                               config.latent_dim, config.seed))
    state.grads = {name: np.empty_like(arr) for name, arr in state.named_arrays()}
    return state


def loss_sr(Htilde: np.ndarray, C: np.ndarray, out=None):
    """Self-representation fit: mean unsquared column norm of H~ - H~ C.

    Returns (value, grad_Htilde, grad_C), grad_C written into ``out`` (a
    new array when omitted). Columns with an exactly zero residual
    contribute a zero subgradient.
    """
    n = Htilde.shape[1]
    R = Htilde - Htilde @ C
    norms = np.linalg.norm(R, axis=0)
    value = float(norms.sum()) / n
    safe = np.where(norms > 0, norms, 1.0)
    GR = np.where(norms > 0, R / safe, 0.0) / n
    grad_C = np.matmul(-Htilde.T, GR, out=out)
    grad_Ht = GR - GR @ C.T
    return value, grad_Ht, grad_C


def loss_sp(C: np.ndarray, weight: float = 1.0, add_to=None):
    """Mean-per-sample L1 mass of the coefficients; subgradient 0 at zeros.

    Returns (value, grad) with grad = weight sign(C) / n, formed as
    sign(C), / n, * weight in a block buffer and added into ``add_to`` (a
    C-contiguous array of C's shape, returned as grad), or into zeros when
    it is omitted. The work runs one block of ``classic.row_blocks`` at a
    time, and the value sums |C| row by row, then the row sums.
    """
    C = np.ascontiguousarray(C, dtype=np.float64)
    n = C.shape[1]
    grad = np.zeros(C.shape) if add_to is None else add_to
    if grad.shape != C.shape or not grad.flags.c_contiguous:
        raise ValueError(f"add_to must be a C-contiguous {C.shape} array")
    blocks = classic.row_blocks(*C.shape)
    buf = np.empty((max(r1 - r0 for r0, r1 in blocks), n))
    row_sums = np.empty(C.shape[0])
    for r0, r1 in blocks:
        c, s = C[r0:r1], buf[:r1 - r0]
        np.sum(np.abs(c, out=s), axis=1, out=row_sums[r0:r1])
        np.sign(c, out=s)
        s /= n
        s *= weight
        grad[r0:r1] += s
    return float(np.sum(row_sums)) / n, grad


def total_loss(state: TrainState, X: np.ndarray, config: RunConfig, out=None):
    """Composite loss and its gradients for every learnable tensor.

    The three coefficient terms are weighted by ``config.alpha``,
    ``config.beta`` and ``config.gamma``. Returns (breakdown, grads) with ``grads`` keyed like
    ``TrainState.named_arrays``. Each autoencoder gradient is written into
    the array of the same name in ``out`` when given (``train_joint``
    passes ``state.grads``), else into a new array; each unfolded gradient
    is a new 0-d array. The whole chain is
    differentiated by hand: reconstruction through the decoder, and the
    three coefficient losses back through the unfolded network, the latent
    normalization, and the encoder.

    The autoencoder tape holds each layer's output only. The decoder's
    backward runs first, and clearing the tape's ``dec`` list frees the
    decoder's outputs and X-hat before the unfolded forward allocates its
    2 + (K - 1) n x n arrays. The coefficient losses and the backward
    work in those same arrays: gC in the tape's ``spare``, the
    structure gradient over C, and W H0 gC over C once gC is formed. None
    of them outlives the call.
    """
    if state.unfold is None:
        raise ValueError("unfolded network is not initialized; run pretrain")
    tape_ae = autoenc.ae_forward(state.ae, X)
    v_ae, gXhat = autoenc.ae_loss(X, tape_ae.Xhat, out=tape_ae.Xhat)
    # The decoder's backward runs first, so its tape and the d x n gXhat are
    # freed before the unfolded network's n x n arrays exist.
    grads, gcode = autoenc.decoder_backward(state.ae, tape_ae, gXhat, out)
    tape_ae.dec.clear()
    del gXhat
    Ht = autoenc.normalize_latent(tape_ae.H)
    C, tape_u = unfold.forward(state.unfold, Ht)

    # gC = alpha gC_sr + beta gC_sp + gamma gC_st, summed in place in that
    # order in the tape's spare array; gC_st is written over C once the
    # losses have read it, and the backward then works in C's array.
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    v_sr, gHt_sr, gC = loss_sr(Ht, C, out=tape_u.spare)
    gC *= alpha
    v_sp, _ = loss_sp(C, beta, add_to=gC)
    v_st, gC_st = graph.structure_loss(C, state.lap, out=C)
    gC += np.multiply(gC_st, gamma, out=gC_st)
    del gC_st
    breakdown = LossBreakdown(
        total=v_ae + alpha * v_sr + beta * v_sp + gamma * v_st,
        ae=v_ae, sr=v_sr, sp=v_sp, st=v_st,
    )
    ugrads, gHt_unfold = unfold.backward(state.unfold, tape_u, gC, scratch=C)
    del tape_u, gC, C
    gHt = alpha * gHt_sr + gHt_unfold
    gH = autoenc.normalize_latent_backward(tape_ae.H, gHt)
    grads.update(autoenc.encoder_backward(state.ae, tape_ae, gH.T + gcode, out))
    grads.update(ugrads)
    return breakdown, grads


def _reset_moments(opt: AdamState, named) -> None:
    opt.m = {name: np.zeros_like(arr) for name, arr in named}
    opt.v = {name: np.zeros_like(arr) for name, arr in named}
    opt.step = 0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # textbook moment decays and guard


def adam_step(opt: AdamState, named, grads: dict, config: RunConfig) -> None:
    """One Adam update, in place, over a sequence of (name, array) pairs.

    Moments use the fixed ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. The
    learnable penalty and threshold preimages step at ``learning_rate``
    times ``rho_theta_lr_mult``; everything else at ``learning_rate``. Each
    array and its moments, C-contiguous, are walked flat, one block of
    ``classic.row_blocks`` at a time, through two block buffers, with the
    textbook per-element operations in the textbook order.
    """
    opt.step += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    corr1 = 1.0 - b1**opt.step
    corr2 = 1.0 - b2**opt.step
    buf_a, buf_b = np.empty(classic.ROW_BLOCK), np.empty(classic.ROW_BLOCK)
    for name, arr in named:
        lr = config.learning_rate
        if name.endswith(("rho_raw", "theta_raw")):
            lr *= config.rho_theta_lr_mult
        arrays = (arr, opt.m[name], opt.v[name])
        if not all(x.flags.c_contiguous for x in arrays):
            raise ValueError("Adam updates C-contiguous arrays only")
        flat_arr, flat_m, flat_v = (x.reshape(-1) for x in arrays)
        flat_g = np.reshape(grads[name], -1)
        for start, stop in classic.row_blocks(arr.size, 1):
            p, g = flat_arr[start:stop], flat_g[start:stop]
            m, v = flat_m[start:stop], flat_v[start:stop]
            a, b = buf_a[:stop - start], buf_b[:stop - start]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            np.multiply(g, 1.0 - b1, out=a)
            m *= b1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v *= b2
            v += a
            # p -= lr (m / corr1) / (sqrt(v / corr2) + eps)
            np.divide(m, corr1, out=a)
            a *= lr
            np.divide(v, corr2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            p -= a


def pretrain(state: TrainState, X: np.ndarray, config: RunConfig) -> list:
    """Phase one: reconstruction-only training, then freeze the two graphs
    and build the network.

    Runs ``config.pretrain_epochs`` full-batch Adam steps on the
    autoencoder (zero epochs leave the weights untouched), each writing its
    gradients into ``state.grads``, then encodes the data once (raising
    ``NumericalError`` on a non-finite code). From the codes come the
    ``config.knn_init``-neighbor Z seed and the ``config.knn_struct``-neighbor
    ``state.lap``; from the codes normalized, that seed, ``config.rho0`` and
    ``config.threshold0``, the ``config.admm_layers``-layer ``state.unfold``.
    Returns the per-epoch reconstruction loss history.
    """
    ae_named = list(state.ae.named_arrays())
    _reset_moments(state.opt, ae_named)
    history = []
    tape = None
    for epoch in range(config.pretrain_epochs):
        # Each pass writes into the last one's arrays; the loss writes its
        # gradient over X-hat.
        tape = autoenc.ae_forward(state.ae, X, out=tape)
        value = autoenc.ae_loss(X, tape.Xhat, out=tape.Xhat)[0]
        if not np.isfinite(value):
            raise NumericalError(f"non-finite reconstruction loss at pretrain epoch {epoch + 1}")
        autoenc.ae_backward(state.ae, tape, tape.Xhat, state.grads)
        adam_step(state.opt, ae_named, state.grads, config)
        history.append(value)
    del tape  # no d x n array of the loop outlives it

    H = autoenc.encode(state.ae, X)
    bad = ~np.all(np.isfinite(H), axis=1)
    if bad.any():
        raise NumericalError(
            f"non-finite latent code for sample {int(np.argmax(bad))} after pretraining; "
            "cannot build the kNN graphs"
        )
    z0, adj = graph.knn_adjacency(H.T, config.knn_init, config.knn_struct)
    state.lap = graph.laplacian(adj)
    state.unfold = unfold.init_params(autoenc.normalize_latent(H), z0, config.rho0,
                                      config.admm_layers, config.threshold0)
    return history


def train_joint(state: TrainState, X: np.ndarray, config: RunConfig) -> list:
    """Phase two: composite-loss training of autoencoder plus the unfolded
    network ``pretrain`` built.

    Without that network and the structure Laplacian, raises ValueError.
    Adam moments restart for the whole parameter set, so a second call
    trains on from where the first left the arrays. Runs
    ``config.joint_epochs`` full-batch steps, each through ``total_loss``,
    whose n x n arrays are freed when it returns. Returns the
    loss-breakdown history (list of LossBreakdown).
    """
    if state.unfold is None or state.lap is None:
        raise ValueError("no network or structure graph from pretrain; run pretrain first")
    named = list(state.named_arrays())
    _reset_moments(state.opt, named)
    history = []
    for epoch in range(config.joint_epochs):
        breakdown, grads = total_loss(state, X, config, out=state.grads)
        if not breakdown.finite():
            raise NumericalError(
                f"non-finite loss at joint epoch {epoch + 1}: "
                f"ae={breakdown.ae}, sr={breakdown.sr}, sp={breakdown.sp}, st={breakdown.st}"
            )
        adam_step(state.opt, named, grads, config)
        history.append(breakdown)
    return history
