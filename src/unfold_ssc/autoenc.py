"""Fully connected autoencoder producing latent codes for self-representation.

Samples travel as columns. ``encode`` returns codes as rows (one per
sample); ``normalize_latent`` transposes back to columns and scales each to
unit length, which is the representation the unfolded network consumes.
Leaky ReLU, of fixed slope ``LEAKY_SLOPE``, everywhere except the final
decoder layer, which stays linear so reconstructions are unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from unfold_ssc.errors import NumericalError

LEAKY_SLOPE = 0.01


@dataclass
class Affine:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class AeWeights:
    enc: list[Affine]
    dec: list[Affine]

    def named_arrays(self):
        for i, layer in enumerate(self.enc):
            yield f"enc{i}.W", layer.W
            yield f"enc{i}.b", layer.b
        for i, layer in enumerate(self.dec):
            yield f"dec{i}.W", layer.W
            yield f"dec{i}.b", layer.b


@dataclass
class AeTape:
    """Cached activations from one forward pass."""

    X: np.ndarray
    enc_pre: list = field(default_factory=list)
    enc_act: list = field(default_factory=list)   # enc_act[0] is X itself
    dec_pre: list = field(default_factory=list)
    dec_act: list = field(default_factory=list)   # dec_act[0] is H^T
    H: np.ndarray | None = None
    Xhat: np.ndarray | None = None


def init_weights(input_dim: int, hidden_dims, latent_dim: int, seed: int) -> AeWeights:
    """Glorot-uniform weights, zero biases; mirrored decoder widths."""
    rng = np.random.default_rng(seed)
    enc_dims = [input_dim, *hidden_dims, latent_dim]
    dec_dims = list(reversed(enc_dims))

    def make(dims):
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            layers.append(Affine(W, np.zeros(fan_out)))
        return layers

    return AeWeights(enc=make(enc_dims), dec=make(dec_dims))


def leaky_relu(x):
    """max(x, LEAKY_SLOPE x): x where x > 0 and LEAKY_SLOPE x elsewhere,
    which holds for any slope in [0, 1]."""
    return np.maximum(x, LEAKY_SLOPE * x)


def _leaky_grad(pre):
    return np.where(pre > 0, 1.0, LEAKY_SLOPE)


def encode(weights: AeWeights, X: np.ndarray) -> np.ndarray:
    """Map column samples (d, n) to latent rows (n, latent)."""
    A = np.asarray(X, dtype=np.float64)
    for layer in weights.enc:
        pre = layer.W @ A
        pre += layer.b[:, np.newaxis]
        A = leaky_relu(pre)
    return A.T


def ae_loss(X: np.ndarray, Xhat: np.ndarray):
    """Mean per-sample squared reconstruction error and its Xhat gradient."""
    X = np.asarray(X, dtype=np.float64)
    Xhat = np.asarray(Xhat, dtype=np.float64)
    if X.shape != Xhat.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Xhat.shape}")
    n = X.shape[1]
    diff = Xhat - X
    value = float(np.sum(diff * diff)) / n
    return value, (2.0 / n) * diff


def normalize_latent(H: np.ndarray) -> np.ndarray:
    """Transpose latent rows to columns and scale each column to unit norm."""
    H = np.asarray(H, dtype=np.float64)
    Ht = H.T
    norms = np.linalg.norm(Ht, axis=0)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise NumericalError(f"sample {bad} has an all-zero latent code")
    return Ht / norms


def normalize_latent_backward(H: np.ndarray, grad_Htilde: np.ndarray) -> np.ndarray:
    """Pull a gradient on the unit-column latents back to the raw codes."""
    Ht = np.asarray(H, dtype=np.float64).T
    norms = np.linalg.norm(Ht, axis=0, keepdims=True)
    U = Ht / norms
    g = np.asarray(grad_Htilde, dtype=np.float64)
    return ((g - U * np.sum(U * g, axis=0, keepdims=True)) / norms).T


def ae_forward(weights: AeWeights, X: np.ndarray) -> AeTape:
    """Forward pass that keeps every intermediate for the backward pass."""
    X = np.asarray(X, dtype=np.float64)
    tape = AeTape(X=X)
    A = X
    tape.enc_act.append(A)
    for layer in weights.enc:
        pre = layer.W @ A
        pre += layer.b[:, np.newaxis]
        A = leaky_relu(pre)
        tape.enc_pre.append(pre)
        tape.enc_act.append(A)
    tape.H = A.T
    D = A
    tape.dec_act.append(D)
    last = len(weights.dec) - 1
    for i, layer in enumerate(weights.dec):
        # Summed into a new array, unlike the encoder. On a 9,800-wide input
        # an in-place bias add here raised peak RSS from 404 to 421 MB under
        # glibc malloc, through heap layout alone: the live peak was the same.
        pre = layer.W @ D + layer.b[:, np.newaxis]
        D = leaky_relu(pre) if i != last else pre
        tape.dec_pre.append(pre)
        tape.dec_act.append(D)
    tape.Xhat = D
    return tape


def ae_backward(weights: AeWeights, tape: AeTape,
                grad_H: np.ndarray | None, grad_Xhat: np.ndarray):
    """Reverse pass for both heads: reconstruction and, when ``grad_H`` is
    given, latent consumers.

    Returns a dict keyed like ``AeWeights.named_arrays``. The gradient with
    respect to the input X is not formed.
    """
    grads: dict[str, np.ndarray] = {}
    n_dec = len(weights.dec)
    g = np.asarray(grad_Xhat, dtype=np.float64)
    for i in range(n_dec - 1, -1, -1):
        layer = weights.dec[i]
        gPre = g if i == n_dec - 1 else g * _leaky_grad(tape.dec_pre[i])
        grads[f"dec{i}.W"] = gPre @ tape.dec_act[i].T
        grads[f"dec{i}.b"] = gPre.sum(axis=1)
        g = layer.W.T @ gPre
    # g is now the gradient w.r.t. the encoder output (latent, columns)
    if grad_H is not None:
        g = np.asarray(grad_H, dtype=np.float64).T + g

    for i in range(len(weights.enc) - 1, -1, -1):
        layer = weights.enc[i]
        gPre = g * _leaky_grad(tape.enc_pre[i])
        grads[f"enc{i}.W"] = gPre @ tape.enc_act[i].T
        grads[f"enc{i}.b"] = gPre.sum(axis=1)
        if i > 0:
            g = layer.W.T @ gPre
    return grads
