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


def leaky_relu(x, out=None):
    """max(x, LEAKY_SLOPE x): x where x > 0 and LEAKY_SLOPE x elsewhere,
    which holds for any slope in [0, 1]. Written into ``out`` when given."""
    return np.maximum(x, np.multiply(x, LEAKY_SLOPE, out=out), out=out)


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


# Entries per block of the squared error in ``ae_loss``: its squares are
# formed one row block at a time in a buffer of at most this many.
SQUARE_CHUNK = 1 << 16


def ae_loss(X: np.ndarray, Xhat: np.ndarray, out=None):
    """Mean per-sample squared reconstruction error and its Xhat gradient.

    The difference Xhat - X goes into ``out`` (a new array when omitted;
    it may be ``Xhat`` itself, which the training loops pass since nothing
    reads it after the loss) and is then scaled in place into the gradient.
    The squares are summed over row blocks of at most ``SQUARE_CHUNK``
    entries (one row where a row holds more), one ``np.sum`` each, so an
    input of that size or less gets exactly the value of one ``np.sum``
    over the whole difference.
    """
    X = np.asarray(X, dtype=np.float64)
    Xhat = np.asarray(Xhat, dtype=np.float64)
    if X.shape != Xhat.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Xhat.shape}")
    d, n = X.shape
    diff = np.subtract(Xhat, X, out=out)
    rows = max(1, SQUARE_CHUNK // n)
    square = np.empty_like(diff[:rows])
    total = 0.0
    for start in range(0, d, rows):
        block = diff[start:start + rows]
        total += float(np.sum(np.multiply(block, block, out=square[:len(block)])))
    diff *= 2.0 / n
    return total / n, diff


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


def _slot(arrays: list, i: int):
    """``arrays[i]`` when the list has it, else None: an ``out=`` buffer."""
    return arrays[i] if i < len(arrays) else None


def ae_forward(weights: AeWeights, X: np.ndarray, out: AeTape | None = None) -> AeTape:
    """Forward pass that keeps every intermediate for the backward pass.

    Given ``out``, the tape of an earlier pass of the same shapes, every
    intermediate is written into that tape's arrays, so a loop that passes
    its last tape holds one tape's arrays, not two, while the pass runs.
    """
    X = np.asarray(X, dtype=np.float64)
    prev = out if out is not None else AeTape(X=X)
    tape = AeTape(X=X)
    A = X
    tape.enc_act.append(A)
    for i, layer in enumerate(weights.enc):
        pre = np.matmul(layer.W, A, out=_slot(prev.enc_pre, i))
        pre += layer.b[:, np.newaxis]
        A = leaky_relu(pre, out=_slot(prev.enc_act, i + 1))
        tape.enc_pre.append(pre)
        tape.enc_act.append(A)
    tape.H = A.T
    D = A
    tape.dec_act.append(D)
    last = len(weights.dec) - 1
    for i, layer in enumerate(weights.dec):
        pre = np.matmul(layer.W, D, out=_slot(prev.dec_pre, i))
        pre += layer.b[:, np.newaxis]
        D = leaky_relu(pre, out=_slot(prev.dec_act, i + 1)) if i != last else pre
        tape.dec_pre.append(pre)
        tape.dec_act.append(D)
    tape.Xhat = D
    return tape


def decoder_backward(weights: AeWeights, tape: AeTape, grad_Xhat: np.ndarray, out=None):
    """Reverse pass through the decoder alone.

    Returns (grads, grad_code): the decoder's weight gradients, keyed like
    ``AeWeights.named_arrays`` and written into ``out``'s arrays of the same
    name when given, and the gradient with respect to the encoder output,
    as columns. Once it returns, nothing reads the tape's decoder arrays.
    """
    grads: dict[str, np.ndarray] = {}
    n_dec = len(weights.dec)
    g = np.asarray(grad_Xhat, dtype=np.float64)
    for i in range(n_dec - 1, -1, -1):
        layer = weights.dec[i]
        gPre = g if i == n_dec - 1 else g * _leaky_grad(tape.dec_pre[i])
        _weight_grads(grads, f"dec{i}", gPre, tape.dec_act[i], out)
        g = layer.W.T @ gPre
    return grads, g


def encoder_backward(weights: AeWeights, tape: AeTape, grad_code: np.ndarray, out=None):
    """Reverse pass through the encoder from ``grad_code``, the gradient
    with respect to its output as columns. Returns the encoder's weight
    gradients, keyed and written as in ``decoder_backward``; the gradient
    with respect to the input X is not formed."""
    grads: dict[str, np.ndarray] = {}
    g = grad_code
    for i in range(len(weights.enc) - 1, -1, -1):
        layer = weights.enc[i]
        gPre = g * _leaky_grad(tape.enc_pre[i])
        _weight_grads(grads, f"enc{i}", gPre, tape.enc_act[i], out)
        if i > 0:
            g = layer.W.T @ gPre
    return grads


def ae_backward(weights: AeWeights, tape: AeTape, grad_Xhat: np.ndarray, out=None):
    """Reverse pass for the reconstruction alone: ``decoder_backward``,
    then ``encoder_backward`` from its latent gradient.

    Returns a dict keyed like ``AeWeights.named_arrays``. Each gradient is
    written into the array of the same name in the dict ``out`` when given,
    else into a new array. The gradient with respect to the input X is not
    formed.
    """
    grads, g = decoder_backward(weights, tape, grad_Xhat, out)
    grads.update(encoder_backward(weights, tape, g, out))
    return grads


def _weight_grads(grads: dict, name: str, gPre: np.ndarray, act: np.ndarray, out) -> None:
    """One affine layer's W and b gradients, into ``out``'s arrays when given."""
    W, b = f"{name}.W", f"{name}.b"
    grads[W] = np.matmul(gPre, act.T, out=None if out is None else out[W])
    grads[b] = gPre.sum(axis=1, out=None if out is None else out[b])
