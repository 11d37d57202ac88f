"""Property tests: container round-trip and malformed headers, metric
invariance under relabeling, the shape of the spectral affinity, row
sums that do not depend on the row blocks they are taken in, and the
autoencoder's in-place activation.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic and fast.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from unfold_ssc import autoenc, classic, cluster, container, metrics
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
        return container.load_any(path)


def refusal(raw):
    """The reason ``load_any`` gives for refusing ``raw``: its message after the file's path."""
    with pytest.raises(DataError) as exc:
        read_bytes(raw)
    _, path_end, reason = str(exc.value).partition(f"{os.sep}a.sscm: ")
    assert path_end, str(exc.value)
    return reason


# Without the magic a file is CSV, so a cut or a flipped magic byte is a CSV error.
CSV_REASONS = ("not a rectangular CSV matrix", "no data")


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
    reason = refusal(raw[:cut])
    assert any(r in reason for r in ("truncated header", "truncated dimension block",
                                      "payload is") + CSV_REASONS), reason


@FIXED
@given(arrays, st.data())
def test_corrupted_header_rejected(array, data):
    raw = bytearray(container_bytes(array))
    header_len = 9 + 8 * array.ndim
    pos = data.draw(st.integers(0, header_len - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    # an ndims byte turned into the other valid rank can describe a real array
    assume(pos != 8 or raw[8] not in (2, 3))
    reason = refusal(bytes(raw))
    assert any(r in reason for r in ("unsupported version", "ndims must be 2 or 3",
                                      "truncated dimension block", "payload is")
               + CSV_REASONS), reason


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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(n=st.integers(1, 1700), rows=st.integers(1, 40), block=st.integers(1, 1 << 16),
       seed=st.integers(0, 2**32 - 1), spread=st.integers(0, 150), zeros=st.floats(0.0, 1.0))
@example(n=1, rows=7, block=1, seed=0, spread=0, zeros=0.0)
@example(n=1, rows=40, block=1 << 16, seed=1, spread=150, zeros=0.5)
@example(n=300, rows=9, block=299, seed=2, spread=20, zeros=0.1)
@example(n=1600, rows=40, block=1 << 15, seed=3, spread=150, zeros=0.3)
def test_row_sums_do_not_depend_on_the_row_block(n, rows, block, seed, spread, zeros):
    """Each row of a block's ``np.sum(block, axis=1)`` is that row's own
    ``np.sum``, bit for bit, whatever the blocks of ``classic.row_blocks``:
    one row each when ``ROW_BLOCK`` is below one row's length, a few rows,
    or the whole array. Magnitudes up to 10^spread apart and a share of
    zeros of either sign."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-spread, spread + 1, (rows, n))
    hit = rng.random((rows, n)) < zeros
    A[hit] = np.copysign(0.0, rng.standard_normal(int(hit.sum())))
    want = np.array([np.sum(row) for row in A])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classic, "ROW_BLOCK", block)
        blocks = classic.row_blocks(rows, n)
    assert [0] + [r1 for _, r1 in blocks] == [r0 for r0, _ in blocks] + [rows]
    assert all(r1 - r0 == 1 or r0 < r1 and (r1 - r0) * n <= block for r0, r1 in blocks)
    got = np.concatenate([np.sum(A[r0:r1], axis=1) for r0, r1 in blocks])
    assert got.tobytes() == want.tobytes()


# Sizes at np.sum's split points (its unrolled loop of 8, its last block of
# 128) and around ROW_BLOCK, and n x n arrays in one row block (181) and in
# several (300, 400, 1000, 1600).
SPLIT_SIZES = [1, 7, 8, 127, 128, 129, classic.ROW_BLOCK - 1, classic.ROW_BLOCK,
               classic.ROW_BLOCK + 1, 181**2, 300**2, 400**2, 1000**2, 1600**2]


def assert_block_sums_are_np_sum(a, block):
    """The row sums of the 2-D C-contiguous array ``a``, taken one block of
    ``classic.row_blocks`` at a time (with ``ROW_BLOCK = block``) into an
    n-vector as the package does, then summed with one ``np.sum``, against
    each row's own ``np.sum`` and ``np.sum`` of those, compared as bytes."""
    rows, width = a.shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classic, "ROW_BLOCK", block)
        blocks = classic.row_blocks(rows, width)
    row_sums = np.empty(rows)
    for r0, r1 in blocks:
        np.sum(a[r0:r1], axis=1, out=row_sums[r0:r1])
    want_rows = np.array([np.sum(row) for row in a])
    got, want = np.sum(row_sums), np.sum(want_rows)
    assert row_sums.tobytes() == want_rows.tobytes() and got.tobytes() == want.tobytes(), (
        f"numpy {np.__version__} sums the rows of a {rows} x {width} float64 array "
        f"differently in blocks of {block} entries: {got!r} against {want!r}")


@pytest.mark.parametrize("size", SPLIT_SIZES)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.integers(0, 150),
       zeros=st.floats(0.0, 1.0))
def test_tree_sum_of_segment_sums_is_np_sum(size, seed, spread, zeros):
    """The sum of an array's row sums, taken in row blocks of one row, of
    128 entries and of ``ROW_BLOCK``, is the same bits as from whole rows:
    one row of ``size`` entries, and the same entries as a 2-D array of
    several rows. Mixed magnitudes (up to 10^spread apart) and a share of
    zeros of either sign."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size) * 10.0 ** rng.integers(-spread, spread + 1, size)
    hit = rng.random(size) < zeros
    a[hit] = np.copysign(0.0, rng.standard_normal(int(hit.sum())))
    rows = next(d for d in (1600, 400, 181, 128, 8, 7, 1) if size % d == 0)
    for block in (1, 128, classic.ROW_BLOCK):
        assert_block_sums_are_np_sum(a.reshape(1, -1), block)
        assert_block_sums_are_np_sum(a.reshape(rows, -1), block)


@FIXED
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=40),
                  elements=st.floats(-1e200, 1e200, allow_subnormal=True, width=64)))
def test_tree_sum_with_the_smallest_segments(a):
    """With one row per block, the smallest blocks ``row_blocks`` makes,
    any drawn values, signed zeros and subnormals among them, sum alike."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classic, "ROW_BLOCK", 1)
        assert len(classic.row_blocks(*a.shape)) == a.shape[0] > 1
    assert_block_sums_are_np_sum(a, 1)


# Where writing leaky ReLU over its input could part from max(x, slope x):
# signed zeros, negative subnormals whose scaled value underflows to -0, the
# largest magnitudes, infinities and NaN.
ACTIVATION_EDGES = [0.0, -0.0, -5e-324, -1e-322, -1e-310, 5e-324, 1e308, -1e308,
                    np.inf, -np.inf, np.nan]


@FIXED
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.one_of(st.sampled_from(ACTIVATION_EDGES), st.floats(width=64))))
@example(np.array(ACTIVATION_EDGES))
def test_in_place_leaky_relu_is_the_max_form(x):
    """Written over its input, the activation is ``np.maximum(x, LEAKY_SLOPE
    * x)`` byte for byte, and it is > 0 exactly where x is, which is what
    lets the backward read each layer's slope from its output."""
    want = np.maximum(x, autoenc.LEAKY_SLOPE * x)
    got = x.copy()
    assert autoenc._leaky_relu_in_place(got) is got
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got > 0, x > 0)
