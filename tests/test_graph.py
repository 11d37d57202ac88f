"""KNN graph construction, Laplacians, and the structure loss."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from unfold_ssc import graph
from _oracles import (fd_gradient, knn_adjacency_brute, knn_adjacency_reference,
                      pairwise_sq_dists_reference, rel_err, structure_loss_pairwise)


# ------------------------------------------------------------- adjacency


def test_three_points_on_a_line():
    """Points 0, 1, 3 with k=1: the middle point prefers its left neighbor."""
    pts = np.array([[0.0, 1.0, 3.0]])
    adj = graph.knn_adjacency(pts, 1)
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
    adj = graph.knn_adjacency(pts, 1)
    assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0


def test_equidistant_tie_breaks_to_smaller_index():
    """Point 0 sits exactly between points 1 and 2, which both have closer
    partners of their own, so only the directed choice of point 0 links it."""
    pts = np.array([[0.0, -1.0, 1.0, -1.5, 1.5]])
    adj = graph.knn_adjacency(pts, 1)
    assert adj[0, 1] == 1.0 and adj[0, 2] == 0.0


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for trial in range(5):
        pts = rng.standard_normal((4, 10))
        adj = graph.knn_adjacency(pts, 3)
        assert np.array_equal(adj, knn_adjacency_brute(pts, 3))


def test_adjacency_contract():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((3, 12))
    adj = graph.knn_adjacency(pts, 4)
    assert np.array_equal(adj, adj.T)
    assert np.all((adj == 0) | (adj == 1))
    assert np.all(np.diagonal(adj) == 0)
    assert np.all(adj.sum(axis=1) >= 4)  # symmetrization only adds links


def test_feature_permutation_invariance():
    """Shuffling feature rows does not change distances, hence the graph."""
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((5, 15))
    adj = graph.knn_adjacency(pts, 3)
    perm = rng.permutation(5)
    assert np.array_equal(graph.knn_adjacency(pts[perm], 3), adj)


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
        assert np.array_equal(adj, graph.knn_adjacency(pts, k))
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
            assert np.array_equal(adj, ref)


@pytest.mark.parametrize("shape", [(600, 300), (3, 2000)])
def test_distances_bit_identical_and_symmetric(shape):
    """Both shapes span many row blocks of the mirrored computation and
    several chunks of the full-block reference; integer values add exact
    ties and duplicate columns."""
    rng = np.random.default_rng(5)
    points = rng.standard_normal(shape)
    points[:, ::7] = rng.integers(-2, 3, size=(shape[0], 1))
    d2 = graph.pairwise_sq_dists(points)
    assert np.array_equal(d2, d2.T)
    assert np.array_equal(d2, pairwise_sq_dists_reference(points))


def test_non_finite_points_rejected():
    pts = np.zeros((2, 5))
    pts[1, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        graph.knn_adjacency(pts, 2)


# ------------------------------------------------------------- laplacian


def test_path_graph_laplacian():
    adj = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    lap = graph.laplacian(adj)
    assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_rows_sum_to_zero_and_psd():
    rng = np.random.default_rng(4)
    for trial in range(5):
        pts = rng.standard_normal((3, 9))
        lap = graph.laplacian(graph.knn_adjacency(pts, 2))
        assert np.allclose(lap.sum(axis=1), 0.0)
        eigvals = np.linalg.eigvalsh(lap)
        assert eigvals.min() > -1e-10


def test_laplacian_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        graph.laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------------- structure loss


def test_identity_pair_example():
    """C = I2 on the single-edge graph: both columns differ by sqrt(2),
    two ordered pairs, so the value is 2 * 2 = 4."""
    C = np.eye(2)
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap = graph.laplacian(adj)
    value, grad = graph.structure_loss(C, lap, adj)
    assert value == pytest.approx(4.0, abs=1e-12)


def test_edgeless_graph_zero_loss():
    C = np.random.default_rng(0).standard_normal((3, 4))
    adj = np.zeros((4, 4))
    value, grad = graph.structure_loss(C, graph.laplacian(adj), adj)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_value_matches_pairwise_oracle():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = 6
        C = rng.standard_normal((n, n))
        adj = knn_adjacency_brute(rng.standard_normal((3, n)), 2)
        lap = graph.laplacian(adj)
        value, _ = graph.structure_loss(C, lap, adj)
        expected = structure_loss_pairwise(C, adj)
        assert value == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    C = rng.standard_normal((5, 6))
    adj = knn_adjacency_brute(rng.standard_normal((2, 6)), 2)
    lap = graph.laplacian(adj)
    _, grad = graph.structure_loss(C, lap, adj)
    fd = fd_gradient(lambda: graph.structure_loss(C, lap, adj)[0], C)
    assert rel_err(grad, fd) < 1e-6


def test_identical_columns_on_clique_zero_loss():
    col = np.arange(4.0)[:, np.newaxis]
    C = np.repeat(col, 5, axis=1)
    adj = 1.0 - np.eye(5)
    value, _ = graph.structure_loss(C, graph.laplacian(adj), adj)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_loss_nonnegative():
    rng = np.random.default_rng(55)
    for trial in range(10):
        n = 7
        C = rng.standard_normal((4, n)) * rng.uniform(0.1, 10)
        adj = knn_adjacency_brute(rng.standard_normal((3, n)), 3)
        value, _ = graph.structure_loss(C, graph.laplacian(adj), adj)
        assert value >= -1e-12
