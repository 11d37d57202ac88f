"""Tests for similarity, seeded k-means, and spectral clustering."""

import numpy as np
import pytest

from unfold_ssc import cluster
from unfold_ssc.errors import NumericalError
from _oracles import spectral_embedding_reference


def canonical(labels):
    """Relabel by order of first appearance so partitions compare directly."""
    labels = np.asarray(labels)
    seen: dict = {}
    out = np.empty(len(labels), dtype=int)
    for i, v in enumerate(labels):
        out[i] = seen.setdefault(int(v), len(seen))
    return out


class TestSimilarity:
    def test_hand_example(self):
        C = np.array([[0.0, -0.6], [0.2, 0.0]])
        S = cluster.similarity(C)
        assert np.allclose(S, [[0.0, 0.4], [0.4, 0.0]])

    def test_symmetric_zero_diagonal(self):
        C = np.random.default_rng(0).normal(size=(6, 6))
        S = cluster.similarity(C)
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 0.0)
        assert np.all(S >= 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cluster.similarity(np.zeros((2, 3)))


class TestKmeans:
    def test_k_equals_n_zero_wcss(self):
        pts = np.arange(10, dtype=float).reshape(5, 2)
        labels, details = cluster.kmeans(pts, 5, seed=0, return_details=True)
        assert sorted(labels) == [0, 1, 2, 3, 4]
        assert details["wcss"] == 0.0

    def test_separated_line_clusters(self):
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [20.0]])
        labels = cluster.kmeans(pts, 3, seed=0)
        assert np.array_equal(canonical(labels), [0, 0, 0, 1, 1, 2])

    def test_duplicates_fill_all_clusters(self):
        pts = np.array([[0.0], [0.0], [5.0], [5.0], [9.0]])
        labels = cluster.kmeans(pts, 3, seed=1)
        assert np.array_equal(canonical(labels), [0, 0, 1, 1, 2])

    def test_k_one(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels, details = cluster.kmeans(pts, 1, seed=0, return_details=True)
        assert np.array_equal(labels, [0, 0])
        assert np.isclose(details["wcss"], 2.0)   # two points at distance 1 from mean

    def test_trace_monotone_nonincreasing(self):
        pts = np.random.default_rng(3).normal(size=(40, 2))
        _, details = cluster.kmeans(pts, 4, seed=3, return_details=True)
        trace = details["trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic_in_seed(self):
        pts = np.random.default_rng(4).normal(size=(30, 3))
        a = cluster.kmeans(pts, 3, seed=17)
        b = cluster.kmeans(pts, 3, seed=17)
        assert np.array_equal(a, b)

    def test_restarts_never_worse(self):
        pts = np.random.default_rng(5).normal(size=(50, 2))
        _, one = cluster.kmeans(pts, 5, seed=2, restarts=1, return_details=True)
        _, ten = cluster.kmeans(pts, 5, seed=2, restarts=10, return_details=True)
        assert ten["wcss"] <= one["wcss"] + 1e-12

    def test_bad_k_rejected(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError):
            cluster.kmeans(pts, 0, seed=0)
        with pytest.raises(ValueError):
            cluster.kmeans(pts, 5, seed=0)
        with pytest.raises(ValueError):
            cluster.kmeans(pts, 2, seed=-1)


class TestSpectral:
    def block_similarity(self, sizes, seed=0, noise=0.0):
        n = sum(sizes)
        S = np.full((n, n), noise)
        start = 0
        for s in sizes:
            S[start:start + s, start:start + s] = 1.0
            start += s
        np.fill_diagonal(S, 0.0)
        return 0.5 * (S + S.T)

    def test_two_blocks_split_perfectly(self):
        S = self.block_similarity([4, 6])
        res = cluster.spectral_cluster(S, 2, seed=0)
        assert np.array_equal(canonical(res.labels), [0] * 4 + [1] * 6)
        assert res.embedding.shape == (10, 2)
        assert np.allclose(np.linalg.norm(res.embedding, axis=1), 1.0)

    def test_three_blocks_with_weak_offblock_noise(self):
        S = self.block_similarity([5, 5, 5], noise=0.01)
        res = cluster.spectral_cluster(S, 3, seed=1)
        assert np.array_equal(canonical(res.labels), [0] * 5 + [1] * 5 + [2] * 5)

    def test_permutation_equivariance(self):
        S = self.block_similarity([4, 5, 3], noise=0.02)
        base = canonical(cluster.spectral_cluster(S, 3, seed=4).labels)
        rng = np.random.default_rng(8)
        perm = rng.permutation(S.shape[0])
        Sp = S[np.ix_(perm, perm)]
        permuted = canonical(cluster.spectral_cluster(Sp, 3, seed=4).labels)
        assert np.array_equal(canonical(base[perm]), permuted)

    @pytest.mark.parametrize("sizes, noise, k", [
        ([4, 6], 0.0, 2),
        ([5, 5, 5], 0.01, 3),
        ([4, 5, 3], 0.02, 3),
        ([7, 3, 6, 4], 0.05, 4),
        ([4, 5, 3], 0.02, 1),
        ([4, 5, 3], 0.02, 12),
    ])
    def test_subset_eigensolve_matches_full_eigh(self, sizes, noise, k):
        """Only the k smallest eigenpairs are computed; the labels equal
        those of the full-spectrum reference, k = 1 and k = n included."""
        S = self.block_similarity(sizes, noise=noise)
        res = cluster.spectral_cluster(S, k, seed=3)
        expected = cluster.kmeans(spectral_embedding_reference(S, k), k, 3)
        assert res.embedding.shape == (S.shape[0], k)
        assert np.array_equal(res.labels, expected)

    def test_zero_similarity_still_returns_labels(self):
        res = cluster.spectral_cluster(np.zeros((6, 6)), 2, seed=0)
        assert res.labels.shape == (6,)
        assert set(np.unique(res.labels)) <= {0, 1}

    def test_non_finite_rejected(self):
        S = np.zeros((3, 3))
        S[0, 1] = np.nan
        with pytest.raises(NumericalError):
            cluster.spectral_cluster(S, 2, seed=0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cluster.spectral_cluster(np.zeros((2, 3)), 2, seed=0)
