"""Fully connected autoencoder producing latent codes for self-representation.

Samples travel as columns. ``encode`` returns codes as rows (one per
sample); ``normalize_latent`` transposes back to columns and scales each to
unit length, which is the representation the unfolded network consumes.
Leaky ReLU, of fixed slope ``LEAKY_SLOPE``, everywhere except the final
decoder layer, which stays linear so reconstructions are unbounded.

Each layer's forward pass is one array, its affine output activated in
place; the tape keeps only those. Encoder and decoder share one layer loop
(``_forward``) and one reverse loop (``_reverse``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Every layer's output from one forward pass, one array per layer:
    ``enc`` runs from X to the codes as columns, ``dec`` from those codes
    to X-hat. No pre-activation is kept: the backward reads each leaky
    layer's slope from its output, which is > 0 exactly where its input is."""

    enc: list
    dec: list

    @property
    def H(self) -> np.ndarray:  # the codes as rows, as ``encode`` returns them
        return self.enc[-1].T

    @property
    def Xhat(self) -> np.ndarray:
        return self.dec[-1]


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


def _leaky_relu_in_place(Y: np.ndarray) -> np.ndarray:
    """``leaky_relu(Y)`` bit for bit, written over Y by scaling only its
    negative entries; the result is > 0 exactly where Y was."""
    return np.multiply(Y, LEAKY_SLOPE, out=Y, where=Y < 0)


def _slot(arrays: list | None, i: int):
    """``arrays[i]`` when the list has it, else None: an ``out=`` buffer."""
    return arrays[i] if arrays is not None and i < len(arrays) else None


def _forward(layers: list[Affine], A: np.ndarray, out: list | None = None,
             linear_top: bool = False) -> list:
    """Run ``layers`` from the columns A; returns [A, each layer's output].

    Each output W A + b is formed in one array, ``out[i + 1]`` when the
    list has it, and activated in place there; the top layer stays linear
    when ``linear_top``.
    """
    acts = [A]
    top = len(layers) - 1
    for i, layer in enumerate(layers):
        Y = np.matmul(layer.W, acts[-1], out=_slot(out, i + 1))
        Y += layer.b[:, np.newaxis]
        if not (linear_top and i == top):
            _leaky_relu_in_place(Y)
        acts.append(Y)
    return acts


def encode(weights: AeWeights, X: np.ndarray) -> np.ndarray:
    """Map column samples (d, n) to latent rows (n, latent)."""
    return _forward(weights.enc, np.asarray(X, dtype=np.float64))[-1].T


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


def ae_forward(weights: AeWeights, X: np.ndarray, out: AeTape | None = None) -> AeTape:
    """Forward pass that keeps every layer's output for the backward pass.

    Given ``out``, the tape of an earlier pass of the same shapes, every
    output is written into that tape's arrays, so a loop that passes its
    last tape holds one tape's arrays, not two, while the pass runs.
    """
    enc = _forward(weights.enc, np.asarray(X, dtype=np.float64),
                   None if out is None else out.enc)
    dec = _forward(weights.dec, enc[-1], None if out is None else out.dec, linear_top=True)
    return AeTape(enc, dec)


def _reverse(layers: list[Affine], acts: list, g: np.ndarray, name: str, out,
             linear_top: bool = False, input_grad: bool = True):
    """Reverse pass through ``layers`` from ``g``, the gradient with respect
    to their output as columns, given their ``_forward`` list ``acts``; each
    leaky layer's slope is read from its output. Returns (grads, the
    gradient with respect to their input, or None unless ``input_grad``),
    grads keyed ``{name}{i}.W`` and ``.b`` and written into ``out``'s
    arrays of those names when given."""
    grads: dict[str, np.ndarray] = {}
    top = len(layers) - 1
    for i in range(top, -1, -1):
        if not (linear_top and i == top):
            g = g * np.where(acts[i + 1] > 0, 1.0, LEAKY_SLOPE)
        W, b = f"{name}{i}.W", f"{name}{i}.b"
        grads[W] = np.matmul(g, acts[i].T, out=None if out is None else out[W])
        grads[b] = g.sum(axis=1, out=None if out is None else out[b])
        g = layers[i].W.T @ g if i > 0 or input_grad else None
    return grads, g


def decoder_backward(weights: AeWeights, tape: AeTape, grad_Xhat: np.ndarray, out=None):
    """Reverse pass through the decoder alone.

    Returns (grads, grad_code): the decoder's weight gradients, keyed like
    ``AeWeights.named_arrays`` and written into ``out``'s arrays of the same
    name when given, and the gradient with respect to the encoder output,
    as columns. Once it returns, nothing reads the tape's decoder arrays.
    """
    return _reverse(weights.dec, tape.dec, np.asarray(grad_Xhat, dtype=np.float64), "dec",
                    out, linear_top=True)


def encoder_backward(weights: AeWeights, tape: AeTape, grad_code: np.ndarray, out=None):
    """Reverse pass through the encoder from ``grad_code``, the gradient
    with respect to its output as columns. Returns the encoder's weight
    gradients, keyed and written as in ``decoder_backward``; the gradient
    with respect to the input X is not formed."""
    return _reverse(weights.enc, tape.enc, grad_code, "enc", out, input_grad=False)[0]


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

