"""KNN graph construction, Laplacians, and the structure loss."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from unfold_ssc import classic, graph
from _oracles import (fd_gradient, knn_adjacency_brute, knn_adjacency_reference,
                      pairwise_sq_dists_reference, peak_nn_arrays, rel_err,
                      structure_loss_pairwise, structure_loss_reference)


# ------------------------------------------------------------- adjacency


def test_three_points_on_a_line():
    """Points 0, 1, 3 with k=1: the middle point prefers its left neighbor."""
    pts = np.array([[0.0, 1.0, 3.0]])
    adj = graph.knn_adjacency(pts, 1).toarray()
    expected = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])
    # symmetrized union: 2 links 1, so (1,2) appears as well
    expected = np.maximum(expected, expected.T)
    assert np.array_equal(adj, expected)


def test_duplicate_columns_pick_each_other():
    pts = np.array([[0.0, 0.0, 5.0, 9.0], [1.0, 1.0, 2.0, 3.0]])
    adj = graph.knn_adjacency(pts, 1).toarray()
    assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0


def test_equidistant_tie_breaks_to_smaller_index():
    """Point 0 sits exactly between points 1 and 2, which both have closer
    partners of their own, so only the directed choice of point 0 links it."""
    pts = np.array([[0.0, -1.0, 1.0, -1.5, 1.5]])
    adj = graph.knn_adjacency(pts, 1).toarray()
    assert adj[0, 1] == 1.0 and adj[0, 2] == 0.0


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for trial in range(5):
        pts = rng.standard_normal((4, 10))
        adj = graph.knn_adjacency(pts, 3).toarray()
        assert np.array_equal(adj, knn_adjacency_brute(pts, 3))


def test_adjacency_contract():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((3, 12))
    adj = graph.knn_adjacency(pts, 4).toarray()
    assert np.array_equal(adj, adj.T)
    assert np.all((adj == 0) | (adj == 1))
    assert np.all(np.diagonal(adj) == 0)
    assert np.all(adj.sum(axis=1) >= 4)  # symmetrization only adds links


def test_feature_permutation_invariance():
    """Shuffling feature rows does not change distances, hence the graph."""
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((5, 15))
    adj = graph.knn_adjacency(pts, 3).toarray()
    perm = rng.permutation(5)
    assert np.array_equal(graph.knn_adjacency(pts[perm], 3).toarray(), adj)


def test_k_out_of_range():
    pts = np.zeros((2, 5))
    with pytest.raises(ValueError):
        graph.knn_adjacency(pts, 5)
    with pytest.raises(ValueError):
        graph.knn_adjacency(pts, 0)
    with pytest.raises(ValueError, match="k=5"):
        graph.knn_adjacency(pts, 2, 5)


def test_several_counts_equal_separate_calls():
    """Integer points make many distance ties; each prefix of the one
    stable sort must still pick what a separate call picks."""
    rng = np.random.default_rng(11)
    pts = rng.integers(-2, 3, size=(2, 30)).astype(float)
    adjs = graph.knn_adjacency(pts, 7, 3, 7, 1)
    assert isinstance(adjs, tuple) and len(adjs) == 4
    for k, adj in zip((7, 3, 7, 1), adjs):
        adj = adj.toarray()
        assert np.array_equal(adj, graph.knn_adjacency(pts, k).toarray())
        assert np.array_equal(adj, knn_adjacency_brute(pts, k))


@st.composite
def grid_points_and_counts(draw):
    """Points on a small integer grid, so distance ties and duplicate
    columns are the rule, plus a few neighbor counts."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    points = draw(hnp.arrays(np.float64, (d, n), elements=st.integers(-2, 2).map(float)))
    counts = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))
    return points, counts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grid_points_and_counts())
def test_partial_selection_matches_full_sort_reference(case):
    """The partition-and-tie-rule selection picks exactly the neighbors a
    full stable argsort picks, for every count, k = n - 1 and repeats."""
    points, counts = case
    n = points.shape[1]
    for tup in (counts, [n - 1], [counts[0], n - 1, counts[0]]):
        got = graph.knn_adjacency(points, *tup)
        got = got if len(tup) > 1 else (got,)
        for adj, ref in zip(got, knn_adjacency_reference(points, *tup), strict=True):
            assert np.array_equal(adj.toarray(), ref)


def test_row_blocks_match_full_sort_reference():
    """At n = 700 the selection runs in 16 row blocks of 43 or 44 rows;
    integer points give ties and duplicates in every block."""
    n = 700
    assert {r1 - r0 for r0, r1 in classic.row_blocks(n, n)} == {43, 44}
    points = np.random.default_rng(13).integers(-2, 3, size=(3, n)).astype(float)
    got = graph.knn_adjacency(points, 30, 10, 1)
    for adj, ref in zip(got, knn_adjacency_reference(points, 30, 10, 1), strict=True):
        assert np.array_equal(adj.toarray(), ref)


def test_knn_working_set():
    """Peak memory allocated by the pipeline's two-count call at n = 1000,
    in n x n arrays. Measured at 0.23: one row block's screen, its
    partitioned copy and candidate mask, and the neighbor lists and sparse
    adjacencies. With a full n x n distance matrix from explicit
    differences it peaked at 3.0, with dense adjacencies and one
    symmetrizing copy at 4.1, and selecting candidates for all rows at
    once at 5.5."""
    n = 1000
    points = np.random.default_rng(1).standard_normal((8, n))
    assert peak_nn_arrays(lambda: graph.knn_adjacency(points, 30, 10), n) <= 1.0


def test_knn_working_set_holds_no_distance_matrix():
    """At n = 4096 the same call allocates 0.05 n x n arrays at its peak;
    an n x n distance matrix alone is 1.0 of them, and with one the call
    peaked at 1.11."""
    n = 4096
    points = np.random.default_rng(1).standard_normal((8, n))
    assert peak_nn_arrays(lambda: graph.knn_adjacency(points, 30, 10), n) <= 0.25


@pytest.mark.parametrize("shape", [(600, 300), (3, 2000)])
def test_distances_bit_identical_and_symmetric(shape, monkeypatch):
    """The candidates' explicit-difference distances, here for every pair
    in chunks of many pairs, then for the first 2n pairs one at a time,
    where a reduction over the features would add them pairwise. Both
    shapes span several chunks of the full-block reference; integer values
    add exact ties and duplicate columns."""
    rng = np.random.default_rng(5)
    points = rng.standard_normal(shape)
    points[:, ::7] = rng.integers(-2, 3, size=(shape[0], 1))
    n = shape[1]
    rows, cols = np.divmod(np.arange(n * n), n)
    d2 = graph._sq_dists(points, rows, cols).reshape(n, n)
    assert np.array_equal(d2, d2.T)
    assert np.array_equal(d2, pairwise_sq_dists_reference(points))
    monkeypatch.setattr(classic, "ROW_BLOCK", shape[0])
    assert np.array_equal(graph._sq_dists(points, rows[:2 * n], cols[:2 * n]),
                          d2.reshape(-1)[:2 * n])


@st.composite
def adversarial_points(draw):
    """Points where a Gram-form screen is at its weakest: a common offset
    of 1e6 to 1e8, which cancels in |x_j|^2 - 2 x_i^T x_j; columns scaled
    by 1e-160, whose squared distances are subnormal; by 1e150, near
    overflow; mixed scales per column; and an integer grid with duplicate
    columns."""
    kind = draw(st.sampled_from(["offset", "tiny", "huge", "mixed", "grid"]))
    d = draw(st.integers(1, 6))
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        points = rng.integers(-2, 3, size=(d, n)).astype(float)
        points[:, rng.integers(0, n, n // 2)] = points[:, rng.integers(0, n, n // 2)]
    else:
        points = rng.standard_normal((d, n))
    if kind == "offset":
        points += 10.0 ** draw(st.floats(6, 8))
    elif kind == "tiny":
        points *= 1e-160
    elif kind == "huge":
        points *= 1e150
    elif kind == "mixed":
        points *= 10.0 ** rng.integers(-160, 150, size=(1, n))
    counts = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))
    return points, counts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(adversarial_points())
def test_screen_keeps_every_neighbor_on_adversarial_scales(case):
    """The screened selection equals the full-sort reference bit for bit
    where rounding and underflow make the screen least accurate."""
    points, counts = case
    got = graph.knn_adjacency(points, *counts)
    got = got if len(counts) > 1 else (got,)
    for adj, ref in zip(got, knn_adjacency_reference(points, *counts), strict=True):
        assert np.array_equal(adj.toarray(), ref)


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_subnormal_distances_need_the_absolute_bound(scale):
    """At 1e-160 squared distances are subnormal, so the screen's error is
    absolute, not relative to the norms: with a bound relative to the
    norms alone the screen drops true neighbors. At 1e-170 every squared
    distance is zero and index order alone decides."""
    points = np.random.default_rng(3).standard_normal((8, 400)) * scale
    for adj, ref in zip(graph.knn_adjacency(points, 30, 10),
                        knn_adjacency_reference(points, 30, 10), strict=True):
        assert np.array_equal(adj.toarray(), ref)


def test_non_finite_points_rejected():
    pts = np.zeros((2, 5))
    pts[1, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        graph.knn_adjacency(pts, 2)


def test_screen_that_overflows_takes_every_column():
    """Near 1.5e154 the squared norms overflow and the screen is inf - inf,
    while the distances, spread over 1e144, are finite: every column is a
    candidate and the graph is exact."""
    rng = np.random.default_rng(4)
    points = 1.5e154 + 1e144 * rng.integers(-50, 50, size=(2, 40))
    for adj, ref in zip(graph.knn_adjacency(points, 5, 1),
                        knn_adjacency_reference(points, 5, 1), strict=True):
        assert np.array_equal(adj.toarray(), ref)


def test_overflowing_distances_rejected():
    """Finite points whose squared distances overflow would tie with the
    diagonal's infinity, so a sample could pick itself as a neighbor."""
    pts = np.array([[0.0, 1e200, 2e200, -1e200]])
    with pytest.raises(ValueError, match="overflow"):
        graph.knn_adjacency(pts, 2)


# ------------------------------------------------------------- laplacian


def test_path_graph_laplacian():
    adj = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    lap = graph.laplacian(adj)
    assert np.array_equal(lap.toarray(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_rows_sum_to_zero_and_psd():
    rng = np.random.default_rng(4)
    for trial in range(5):
        pts = rng.standard_normal((3, 9))
        lap = graph.laplacian(graph.knn_adjacency(pts, 2)).toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)
        eigvals = np.linalg.eigvalsh(lap)
        assert eigvals.min() > -1e-10


def test_laplacian_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        graph.laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    nearly = 1.0 - np.eye(4)
    nearly[0, 1] += 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        graph.laplacian(nearly)


def test_knn_laplacian_is_sparse_and_equals_dense_form():
    rng = np.random.default_rng(12)
    adj = graph.knn_adjacency(rng.standard_normal((5, 80)), 6)
    lap = graph.laplacian(adj)
    adj = adj.toarray()
    assert lap.format == "csr"
    assert lap.nnz == np.count_nonzero(adj) + adj.shape[0]
    assert np.array_equal(lap.toarray(), np.diag(adj.sum(axis=1)) - adj)


def test_graphs_are_canonical_csr():
    """The adjacencies, built straight from the neighbor lists, and their
    Laplacians are canonical CSR arrays (sorted column indices, no
    duplicates, no stored zeros): the same index arrays and entries as
    scipy's own conversion of their dense forms."""
    points = np.random.default_rng(19).integers(-2, 3, size=(3, 60)).astype(float)
    for adj in graph.knn_adjacency(points, 9, 2, 59):
        for arr in (adj, graph.laplacian(adj)):
            assert arr.format == "csr" and arr.has_canonical_format
            ref = sparse.csr_array(arr.toarray())
            assert np.array_equal(arr.indptr, ref.indptr)
            assert np.array_equal(arr.indices, ref.indices)
            assert np.array_equal(arr.data, ref.data)


# --------------------------------------------------------- structure loss


def test_identity_pair_example():
    """C = I2 on the single-edge graph: both columns differ by sqrt(2),
    two ordered pairs, so the value is 2 * 2 = 4."""
    C = np.eye(2)
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap = graph.laplacian(adj)
    value, grad = graph.structure_loss(C, lap)
    assert value == pytest.approx(4.0, abs=1e-12)


def test_edgeless_graph_zero_loss():
    C = np.random.default_rng(0).standard_normal((3, 4))
    adj = np.zeros((4, 4))
    value, grad = graph.structure_loss(C, graph.laplacian(adj))
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_value_matches_pairwise_oracle():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = 6
        C = rng.standard_normal((n, n))
        adj = knn_adjacency_brute(rng.standard_normal((3, n)), 2)
        lap = graph.laplacian(adj)
        value, _ = graph.structure_loss(C, lap)
        expected = structure_loss_pairwise(C, adj)
        assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("over_C", [False, True])
def test_out_buffer_bit_identical(over_C):
    """With ``out`` a separate buffer or C itself, the value and gradient
    equal those of the call without ``out`` bit for bit, and the gradient
    lands in ``out``."""
    rng = np.random.default_rng(41)
    n = 40
    C = rng.standard_normal((n, n))
    lap = graph.laplacian(knn_adjacency_brute(rng.standard_normal((3, n)), 4))
    value, grad = graph.structure_loss(C, lap)
    C_in = C.copy()
    out = C_in if over_C else np.empty_like(C)
    value_out, grad_out = graph.structure_loss(C_in, lap, out=out)
    assert grad_out is out
    assert value_out == value
    assert np.array_equal(grad_out, grad)


def structure_instance(n, seed=0):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, n))
    lap = graph.laplacian(graph.knn_adjacency(rng.standard_normal((4, n)), 10))
    return C, lap


@pytest.mark.parametrize("n", [181, 400, 1000])
@pytest.mark.parametrize("over_C", [False, True])
def test_bit_identical_to_the_whole_product_reference(n, over_C):
    """Against one whole sparse product C L and the row-sum reference, the
    value and the gradient, into a new array or over C, are bit-identical:
    in one row block (n = 181), five (n = 400) and 32 (n = 1000)."""
    assert len(classic.row_blocks(n, n)) == {181: 1, 400: 5, 1000: 32}[n]
    C, lap = structure_instance(n)
    want_value, want_grad = structure_loss_reference(C, lap)
    value, grad = graph.structure_loss(C, lap, out=C if over_C else None)
    assert (grad is C) == over_C
    assert value == want_value
    assert grad.tobytes() == want_grad.tobytes()


def test_segments_within_one_row_bit_identical(monkeypatch):
    """With ``classic.ROW_BLOCK`` at three rows' length, and below one
    row's, rows of 200 run in blocks of three rows, or one; written over
    C, the value and gradient keep the reference bits."""
    C0, lap = structure_instance(200, seed=3)
    want_value, want_grad = structure_loss_reference(C0, lap)
    for block, count in ((600, 67), (128, 200)):
        monkeypatch.setattr(classic, "ROW_BLOCK", block)
        assert len(classic.row_blocks(200, 200)) == count
        C = C0.copy()
        value, grad = graph.structure_loss(C, lap, out=C)
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()


def test_structure_loss_working_set():
    """Peak memory allocated by one structure loss written over C at
    n = 1000, in n x n arrays. Measured at 0.066: one row block's C L with
    scipy's copy of those rows of C for the dense-by-sparse product. With
    flat segments copied into a buffer of their own it peaked at 0.10; as
    one whole product C L, with (C L) * C in ``out``, at 2.0."""
    C, lap = structure_instance(1000)
    assert peak_nn_arrays(lambda: graph.structure_loss(C, lap, out=C), 1000) <= 0.6


def test_structure_loss_working_set_at_four_segments():
    """At n = 300 the three row blocks are each a third of C. Measured at
    0.67: one block's rows of C L and scipy's copy of those rows of C; the
    previous block's rows are freed first. With four flat segments, each
    copied into a buffer of its own, it peaked at 0.76, and with the rows
    of C L kept in F order, copied to a flat run and held over to the next
    segment, it allocated 1.26."""
    C, lap = structure_instance(300)
    assert peak_nn_arrays(lambda: graph.structure_loss(C, lap, out=C), 300) <= 0.9


def test_out_must_be_a_c_contiguous_array_of_the_shape():
    C, lap = structure_instance(30)
    for bad in (np.empty((30, 30), order="F"), np.empty((30, 31))):
        with pytest.raises(ValueError, match="out"):
            graph.structure_loss(C, lap, out=bad)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    C = rng.standard_normal((5, 6))
    adj = knn_adjacency_brute(rng.standard_normal((2, 6)), 2)
    lap = graph.laplacian(adj)
    _, grad = graph.structure_loss(C, lap)
    fd = fd_gradient(lambda: graph.structure_loss(C, lap)[0], C)
    assert rel_err(grad, fd) < 1e-6


def test_identical_columns_on_clique_zero_loss():
    col = np.arange(4.0)[:, np.newaxis]
    C = np.repeat(col, 5, axis=1)
    adj = 1.0 - np.eye(5)
    value, _ = graph.structure_loss(C, graph.laplacian(adj))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_loss_nonnegative():
    rng = np.random.default_rng(55)
    for trial in range(10):
        n = 7
        C = rng.standard_normal((4, n)) * rng.uniform(0.1, 10)
        adj = knn_adjacency_brute(rng.standard_normal((3, n)), 3)
        value, _ = graph.structure_loss(C, graph.laplacian(adj))
        assert value >= -1e-12


def test_sparse_form_matches_dense_laplacian_and_pairwise():
    rng = np.random.default_rng(77)
    for n, k in ((30, 3), (120, 10)):
        adj = graph.knn_adjacency(rng.standard_normal((4, n)), k)
        lap = graph.laplacian(adj)
        adj = adj.toarray()
        dense = np.diag(adj.sum(axis=1)) - adj
        C = rng.standard_normal((n, n))
        value, grad = graph.structure_loss(C, lap)
        CL = C @ dense
        want_value = 2.0 * float(np.sum(CL * C))
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert np.linalg.norm(grad - 4.0 * CL) <= 1e-12 * np.linalg.norm(4.0 * CL)
        if n <= 30:
            pairwise = structure_loss_pairwise(C, adj)
            assert abs(value - pairwise) <= 1e-12 * abs(pairwise)
