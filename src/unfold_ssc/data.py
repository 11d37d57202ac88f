"""Hyperspectral cubes, patch extraction, and synthetic data generators.

Sample conventions used across the package: data matrices are float64 with
one sample per column, label value 0 marks an unlabeled pixel, and class
ids are positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from unfold_ssc.errors import DataError


@dataclass
class HsiCube:
    """A (height, width, bands) image cube with an optional integer label map."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise DataError(f"cube values must be 3-D, got {self.values.ndim}-D")
        _refuse(~np.isfinite(self.values), "cube values", "a non-finite")
        if self.labels is not None:
            self.labels = as_labels(self.labels, "label map")
            if self.labels.shape != self.values.shape[:2]:
                raise DataError(
                    f"label map shape {self.labels.shape} does not match "
                    f"cube spatial shape {self.values.shape[:2]}"
                )

    @property
    def bands(self) -> int:
        return self.values.shape[2]


@dataclass
class PatchSet:
    """Patches around every labeled pixel, in raster-scan order.

    X              (patch * patch * bands, n) float64, one C-contiguous
                   patch per column, entries in (row, col, band) order
    center_labels  (n,) class id of each patch center
    coords         (n, 2) row/col of each center in the source cube
    """

    X: np.ndarray
    center_labels: np.ndarray
    coords: np.ndarray


def _refuse(bad: np.ndarray, what: str, problem: str) -> None:
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataError(f"{what} has {problem} entry at index {idx}")


def as_labels(values, what: str) -> np.ndarray:
    """``values`` as int64 class ids: the package's one label check.

    Integer and bool arrays are cast exactly, so distinct int64 ids stay
    distinct; any other array is read as float64 and must be finite and
    integer-valued. Every id must be non-negative and below 2**63, the
    int64 range. A failure is a DataError naming ``what`` and the first bad
    index.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "bi":
        _refuse(arr < 0, what, "a negative")
    elif arr.dtype.kind == "u":
        _refuse(arr >= np.uint64(2**63), what, "a too-large (>= 2**63)")
    else:  # checked as floats before the cast, which would warn and wrap
        arr = arr.astype(np.float64)
        for bad, problem in ((~np.isfinite(arr), "a non-finite"),
                             (arr != np.rint(arr), "a non-integer"), (arr < 0, "a negative"),
                             (arr >= 2.0**63, "a too-large (>= 2**63)")):
            _refuse(bad, what, problem)
    return arr.astype(np.int64)


def load_cube(values, labels=None) -> HsiCube:
    """Build a cube (and optionally its label map) from loaded arrays.

    2-D values are treated as a single-band cube.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 2:
        values = values[:, :, np.newaxis]
    if labels is not None and np.ndim(labels) != 2:
        raise DataError(f"label map must be 2-D, got {np.ndim(labels)}-D")
    return HsiCube(values, labels)


def load_matrix(X, labels=None):
    """Check a samples-in-columns data matrix and optional per-sample labels.

    Returns (X, labels) where X is (features, n) and labels is (n,) int64 or
    None. Labels may be shaped (1, n) or (n, 1).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"data matrix must be 2-D, got {X.ndim}-D")
    _refuse(~np.isfinite(X), "data matrix", "a non-finite")
    if labels is not None:
        raw = np.asarray(labels)
        if raw.ndim != 2 or 1 not in raw.shape:
            raise DataError(f"matrix labels must be a vector, got shape {raw.shape}")
        labels = as_labels(raw, "matrix labels").reshape(-1)
        if labels.shape[0] != X.shape[1]:
            raise DataError(
                f"{labels.shape[0]} labels for {X.shape[1]} samples"
            )
    return X, labels


def normalize_bands(values: np.ndarray) -> np.ndarray:
    """Min-max scale each band to [0, 1] over the whole scene.

    A constant band has no spread to scale by and maps to all zeros.
    """
    mn = values.min(axis=(0, 1))
    mx = values.max(axis=(0, 1))
    span = mx - mn
    safe = np.where(span > 0, span, 1.0)
    out = (values - mn) / safe
    out[:, :, span == 0] = 0.0
    return out


def extract_patches(cube: HsiCube, patch: int) -> PatchSet:
    """Cut a patch x patch neighborhood around every labeled pixel.

    Bands are min-max normalized globally first. Borders are handled by
    mirror reflection without duplicating the edge row/column, so the
    corner patch at (0, 0) sees cube[1, 1] at its own (0, 0) position.
    Patches are emitted as columns, in raster-scan order of their centers.
    """
    if patch < 1 or patch % 2 == 0:
        raise DataError(f"patch size must be odd and positive, got {patch}")
    if cube.labels is None:
        raise DataError("patch extraction needs a label map")
    r = patch // 2
    h, w, _ = cube.values.shape
    if r >= h or r >= w:
        raise DataError(f"patch {patch} is too large for a {h}x{w} scene")
    norm = normalize_bands(cube.values)
    padded = np.pad(norm, ((r, r), (r, r), (0, 0)), mode="reflect") if r else norm
    coords = np.argwhere(cube.labels > 0)
    if coords.shape[0] == 0:
        raise DataError("label map has no labeled pixels")
    rows, cols = coords[:, 0], coords[:, 1]
    # windows[i, j, band, dr, dc] is padded[i + dr, j + dc, band]; the gather
    # is stored patch by patch, so one copy makes X C-contiguous.
    windows = np.lib.stride_tricks.sliding_window_view(padded, (patch, patch), axis=(0, 1))
    X = np.ascontiguousarray(windows.transpose(3, 4, 2, 0, 1)[..., rows, cols])
    return PatchSet(X.reshape(-1, len(coords)), cube.labels[rows, cols], coords)


def gen_subspaces(seed: int, k: int, ambient_dim: int, sub_dim: int,
                  per_cluster: int, sigma: float):
    """Sample points from k random linear subspaces of a common ambient space.

    Each cluster draws an orthonormal basis, combines it with unit-norm
    Gaussian coefficient vectors, adds isotropic noise of scale ``sigma``,
    and finally renormalizes every column to unit length. Returns
    (X, labels) with X of shape (ambient_dim, k * per_cluster) and labels
    in {1..k}.
    """
    if sub_dim > ambient_dim:
        raise DataError("subspace dimension exceeds ambient dimension")
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(k):
        basis, _ = np.linalg.qr(rng.standard_normal((ambient_dim, sub_dim)))
        coef = rng.standard_normal((sub_dim, per_cluster))
        coef /= np.linalg.norm(coef, axis=0, keepdims=True)
        pts = basis @ coef
        if sigma > 0:
            pts = pts + sigma * rng.standard_normal(pts.shape)
        blocks.append(pts)
    X = np.concatenate(blocks, axis=1)
    X /= np.linalg.norm(X, axis=0, keepdims=True)
    labels = np.repeat(np.arange(1, k + 1), per_cluster)
    return X, labels


def _split_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def gen_synthetic_cube(seed: int, k: int, shape: tuple[int, int], bands: int,
                       sigma: float) -> HsiCube:
    """Build a labeled cube of k contiguous rectangular regions.

    Every class gets a random smooth spectral signature (a short sum of
    low-frequency sinusoids mapped into [0.1, 0.9]); pixels are the class
    signature plus N(0, sigma^2) noise per band. Labels cover {1..k}.
    """
    h, w = shape
    if k < 1 or k > h * w:
        raise DataError(f"cannot place {k} regions in a {h}x{w} scene")
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, bands)
    signatures = np.empty((k, bands))
    for c in range(k):
        sig = np.zeros(bands)
        for f in range(1, 4):
            amp = rng.standard_normal() / f
            phase = rng.random()
            sig += amp * np.sin(2.0 * np.pi * (f * x + phase))
        lo, hi = sig.min(), sig.max()
        signatures[c] = 0.5 if hi == lo else 0.1 + 0.8 * (sig - lo) / (hi - lo)

    labels = np.zeros((h, w), dtype=np.int64)
    n_rows = max(-(-k // w), min(int(np.sqrt(k)), h))  # at most w regions a row
    per_row = _split_sizes(k, n_rows)
    row_sizes = _split_sizes(h, n_rows)
    cls = 1
    r0 = 0
    for band_idx in range(n_rows):
        r1 = r0 + row_sizes[band_idx]
        col_sizes = _split_sizes(w, per_row[band_idx])
        c0 = 0
        for width in col_sizes:
            labels[r0:r1, c0 : c0 + width] = cls
            cls += 1
            c0 += width
        r0 = r1

    values = signatures[labels - 1].astype(np.float64)
    if sigma > 0:
        values = values + sigma * rng.standard_normal(values.shape)
    return HsiCube(values, labels)
