"""Property tests: container round-trip and malformed headers, metric
invariance under relabeling, the shape of the spectral affinity, and the
segment sums that reproduce ``np.sum`` bit for bit.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic and fast.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from unfold_ssc import classic, cluster, container, metrics
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


# Sizes at np.sum's split points: the unrolled loop of 8, its last block of
# 128, a segment's bounds, and n x n arrays of one segment (181), of eight
# ending at row ends (400) and of 128 ending mid-row (1600); at 300 and 1000
# a split point is rounded down to a multiple of 8.
SPLIT_SIZES = [1, 7, 8, 127, 128, 129, classic.SEGMENT - 1, classic.SEGMENT,
               classic.SEGMENT + 1, 181**2, 300**2, 400**2, 1000**2, 1600**2]


def assert_tree_sum_is_np_sum(a):
    """The segments' sums, combined by ``tree_sum``, against ``np.sum`` of
    the whole C-contiguous array ``a``, compared as bytes."""
    flat = a.reshape(-1)
    parts = [np.sum(flat[start:stop]) for start, stop in classic.pairwise_segments(a.size)]
    got, want = np.float64(classic.tree_sum(parts, a.size)), np.sum(a)
    assert got.tobytes() == want.tobytes(), (
        f"numpy {np.__version__} no longer sums a contiguous float64 array of {a.size} "
        f"entries as classic.pairwise_segments assumes: the segment tree gives {got!r}, "
        f"np.sum {want!r}")


@pytest.mark.parametrize("size", SPLIT_SIZES)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.integers(0, 150),
       zeros=st.floats(0.0, 1.0))
def test_tree_sum_of_segment_sums_is_np_sum(size, seed, spread, zeros):
    """Mixed magnitudes (up to 10^spread apart) and a share of zeros of
    either sign, flat and as a 2-D C-contiguous array."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size) * 10.0 ** rng.integers(-spread, spread + 1, size)
    hit = rng.random(size) < zeros
    a[hit] = np.copysign(0.0, rng.standard_normal(int(hit.sum())))
    assert_tree_sum_is_np_sum(a)
    rows = next(d for d in (1600, 400, 181, 128, 8, 7, 1) if size % d == 0)
    assert_tree_sum_is_np_sum(a.reshape(rows, -1))


@FIXED
@given(hnp.arrays(np.float64, st.integers(129, 700),
                  elements=st.floats(-1e200, 1e200, allow_subnormal=True, width=64)))
def test_tree_sum_with_the_smallest_segments(a):
    """With 128-entry segments, the smallest block ``np.sum`` splits, any
    drawn values, signed zeros and subnormals among them, sum alike."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classic, "SEGMENT", 128)
        assert len(classic.pairwise_segments(a.size)) > 1
        assert_tree_sum_is_np_sum(a)
