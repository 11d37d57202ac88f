"""Binary array container and CSV fallback used for all file artifacts.

Container layout, little-endian throughout:

    bytes 0..3   magic ``SSCM``
    bytes 4..7   u32 format version, currently 1
    byte  8      u8 number of dimensions, 2 or 3
    then         ndims x u64 dimension sizes
    then         float64 payload

2-D payloads are row-major. 3-D payloads (dims = height, width, bands) are
stored band plane by band plane, each plane row-major. Label maps reuse the
2-D form with integer values stored as float64. A file without the magic
is read as CSV (comma separated, dot decimal, one matrix row per line),
which holds 2-D data.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from unfold_ssc.errors import DataError

MAGIC = b"SSCM"
VERSION = 1

_HEADER = struct.Struct("<4sIB")


def write_array(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write a 2-D or 3-D float array to ``path`` in the container format."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise DataError(f"container stores 2-D or 3-D arrays, got {arr.ndim}-D")
    payload = arr.transpose(2, 0, 1) if arr.ndim == 3 else arr
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def _parse_array(raw: bytes, path) -> np.ndarray:
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    _, version, ndims = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if ndims not in (2, 3):
        raise DataError(f"{path}: ndims must be 2 or 3, got {ndims}")
    offset = _HEADER.size
    if len(raw) < offset + 8 * ndims:
        raise DataError(f"{path}: truncated dimension block")
    dims = struct.unpack_from(f"<{ndims}Q", raw, offset)
    offset += 8 * ndims
    count = 1
    for d in dims:
        count *= d
    expected = offset + 8 * count
    if len(raw) != expected:
        raise DataError(f"{path}: payload is {len(raw) - offset} bytes, expected {8 * count}")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    if ndims == 2:
        return flat.reshape(dims).copy()
    h, w, bands = dims
    return flat.reshape(bands, h, w).transpose(1, 2, 0).copy()


def _parse_csv(raw: bytes, path) -> np.ndarray:
    try:  # a UnicodeDecodeError is a ValueError too
        with warnings.catch_warnings():
            # An empty file is reported below as a data error instead.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(raw.decode().splitlines(), delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: not a rectangular CSV matrix ({exc})") from exc
    if arr.size == 0:
        raise DataError(f"{path}: no data")
    return arr


def load_any(path: str | os.PathLike) -> np.ndarray:
    """Load an array from either the binary container or CSV: the package's
    one file reader.

    The file is read once. The format is sniffed from its first four bytes
    rather than its extension, so renamed files still load; a file that does
    not start with the magic is parsed as CSV.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return (_parse_array if raw[:4] == MAGIC else _parse_csv)(raw, path)
