"""Property tests: container round-trip and malformed headers, metric
invariance under relabeling, and the shape of the spectral affinity.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic and fast.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from unfold_ssc import cluster, container, metrics
from unfold_ssc.errors import DataError

FIXED = settings(derandomize=True, max_examples=40, deadline=None)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


def container_bytes(array):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.sscm")
        container.write_array(path, array)
        with open(path, "rb") as fh:
            return fh.read()


def read_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.sscm")
        with open(path, "wb") as fh:
            fh.write(raw)
        return container.read_array(path)


arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=5),
                    elements=finite)


@FIXED
@given(arrays)
def test_container_round_trip(array):
    back = read_bytes(container_bytes(array))
    assert back.shape == array.shape
    assert back.tobytes() == np.ascontiguousarray(array).tobytes()


@FIXED
@given(arrays, st.data())
def test_truncated_container_rejected(array, data):
    raw = container_bytes(array)
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(DataError):
        read_bytes(raw[:cut])


@FIXED
@given(arrays, st.data())
def test_corrupted_header_rejected(array, data):
    raw = bytearray(container_bytes(array))
    header_len = 9 + 8 * array.ndim
    pos = data.draw(st.integers(0, header_len - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    # an ndims byte turned into the other valid rank can describe a real array
    assume(pos != 8 or raw[8] not in (2, 3))
    with pytest.raises(DataError):
        read_bytes(bytes(raw))


@st.composite
def labelings(draw):
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 5))
    pred = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    truth = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    ids = draw(st.permutations(range(k)))
    return np.array(pred), np.array(truth), np.array(ids)


@FIXED
@given(labelings())
def test_report_invariant_to_pred_relabeling(case):
    pred, truth, ids = case
    plain = metrics.report(pred, truth)
    relabeled = metrics.report(ids[pred], truth)
    assert relabeled == pytest.approx(plain, rel=1e-12, abs=1e-12)


@FIXED
@given(st.integers(1, 8).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n), elements=finite)))
def test_similarity_symmetric_nonnegative_zero_diagonal(C):
    S = cluster.similarity(C)
    assert np.array_equal(S, S.T)
    assert (S >= 0).all()
    assert not np.diag(S).any()
