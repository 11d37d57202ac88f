"""Binary container and CSV round trips plus malformed-input handling."""

import struct

import numpy as np
import pytest

from unfold_ssc import container
from unfold_ssc.errors import DataError


def test_round_trip_2d(tmp_path):
    arr = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    path = tmp_path / "m.sscm"
    container.write_array(path, arr)
    back = container.read_array(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, arr)


def test_round_trip_3d(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((4, 5, 6))
    path = tmp_path / "c.sscm"
    container.write_array(path, arr)
    back = container.read_array(path)
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
    path = tmp_path / "bad.sscm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        container.read_array(path)


def test_bad_ndims_rejected(tmp_path):
    path = tmp_path / "bad.sscm"
    path.write_bytes(b"SSCM" + struct.pack("<IB", 1, 4) + b"\x00" * 32)
    with pytest.raises(DataError, match="ndims"):
        container.read_array(path)


def test_truncated_payload_rejected(tmp_path):
    arr = np.ones((3, 3))
    path = tmp_path / "m.sscm"
    container.write_array(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="payload"):
        container.read_array(path)


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        container.read_array("/nonexistent/never.sscm")


def test_csv_round_trip(tmp_path):
    arr = np.array([[1.5, -2.25], [0.0, 1e-3]])
    path = tmp_path / "m.csv"
    path.write_text("1.5,-2.25\n0.0,0.001\n")
    back = container.read_csv_matrix(path)
    assert np.array_equal(back, arr)


def test_csv_single_row(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.0,2.0,3.0\n")
    assert container.read_csv_matrix(path).shape == (1, 3)


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
    with pytest.raises(DataError, match="CSV"):
        container.read_csv_matrix(path)


@pytest.mark.parametrize("text", ["", "\n\n", "# header only\n"], ids=["empty", "blank", "comment"])
def test_csv_without_data_rejected(tmp_path, text):
    path = tmp_path / "none.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="no data") as exc:
        container.load_any(path)
    assert str(path) in str(exc.value)
