"""Binary container and CSV round trips plus malformed-input handling.

Every reader error starts with the file's path, and a test's ``tmp_path``
holds the test's own name, so each reason is matched against the message
with the path taken out.
"""

import struct

import numpy as np
import pytest

from unfold_ssc import container
from unfold_ssc.errors import DataError


def refusal(path):
    """The reason ``load_any`` gives for refusing ``path``, without the path."""
    with pytest.raises(DataError) as exc:
        container.load_any(path)
    message = str(exc.value)
    assert str(path) in message
    return message.replace(str(path), "")


def test_round_trip_2d(tmp_path):
    arr = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    path = tmp_path / "m.sscm"
    container.write_array(path, arr)
    back = container.load_any(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, arr)


def test_round_trip_3d(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((4, 5, 6))
    path = tmp_path / "c.sscm"
    container.write_array(path, arr)
    back = container.load_any(path)
    assert back.shape == (4, 5, 6)
    assert np.array_equal(back, arr)


def test_header_layout(tmp_path):
    """Freeze the byte-level layout: magic, version, ndims, dims, payload."""
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "m.sscm"
    container.write_array(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"SSCM"
    assert struct.unpack_from("<I", raw, 4)[0] == 1
    assert raw[8] == 2
    assert struct.unpack_from("<QQ", raw, 9) == (2, 2)
    payload = np.frombuffer(raw, dtype="<f8", offset=25)
    assert np.array_equal(payload, [1.0, 2.0, 3.0, 4.0])  # row-major


def test_3d_payload_is_band_major(tmp_path):
    """Each band plane is contiguous; planes are row-major."""
    arr = np.zeros((2, 2, 2))
    arr[:, :, 0] = [[1, 2], [3, 4]]
    arr[:, :, 1] = [[5, 6], [7, 8]]
    path = tmp_path / "c.sscm"
    container.write_array(path, arr)
    raw = path.read_bytes()
    payload = np.frombuffer(raw, dtype="<f8", offset=8 + 1 + 24)[: 8]
    assert np.array_equal(payload, [1, 2, 3, 4, 5, 6, 7, 8])


def test_bad_magic_rejected(tmp_path):
    """A file without the SSCM magic is CSV, here not a rectangular one."""
    path = tmp_path / "bad.sscm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    assert "not a rectangular CSV matrix" in refusal(path)


def test_bad_ndims_rejected(tmp_path):
    path = tmp_path / "bad.sscm"
    path.write_bytes(b"SSCM" + struct.pack("<IB", 1, 4) + b"\x00" * 32)
    assert "ndims must be 2 or 3" in refusal(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.sscm"
    path.write_bytes(b"SSCM" + struct.pack("<IB", 2, 2) + b"\x00" * 32)
    assert "unsupported version 2" in refusal(path)


def test_truncated_payload_rejected(tmp_path):
    arr = np.ones((3, 3))
    path = tmp_path / "m.sscm"
    container.write_array(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    assert "payload is 64 bytes, expected 72" in refusal(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "m.sscm"
    path.write_bytes(b"SSCM\x01")
    assert "truncated header" in refusal(path)


def test_missing_file():
    assert "cannot read" in refusal("/nonexistent/never.sscm")


def test_csv_round_trip(tmp_path):
    arr = np.array([[1.5, -2.25], [0.0, 1e-3]])
    path = tmp_path / "m.csv"
    path.write_text("1.5,-2.25\n0.0,0.001\n")
    back = container.load_any(path)
    assert np.array_equal(back, arr)


def test_csv_single_row(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.0,2.0,3.0\n")
    assert container.load_any(path).shape == (1, 3)


def test_load_any_sniffs_format(tmp_path):
    arr = np.array([[9.0, 8.0]])
    bin_path = tmp_path / "data.bin"
    csv_path = tmp_path / "data.txt"
    container.write_array(bin_path, arr)
    csv_path.write_text("9.0,8.0\n")
    assert np.array_equal(container.load_any(bin_path), arr)
    assert np.array_equal(container.load_any(csv_path), arr)


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    assert "not a rectangular CSV matrix" in refusal(path)


@pytest.mark.parametrize("text", ["", "\n\n", "# header only\n"], ids=["empty", "blank", "comment"])
def test_csv_without_data_rejected(tmp_path, text):
    path = tmp_path / "none.csv"
    path.write_text(text)
    assert "no data" in refusal(path)
