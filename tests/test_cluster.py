"""Tests for similarity, seeded k-means, and spectral clustering."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from unfold_ssc import classic, cluster
from unfold_ssc.errors import NumericalError
from _oracles import (_kmeanspp_reference, _lloyd_reference, first_appearance,
                      kmeans_reference, peak_nn_arrays, spectral_embedding_plain,
                      spectral_embedding_reference)


def wcss(points, labels):
    """Within-cluster sum of squares of a labeling, about its cluster means."""
    return sum(float(np.sum((points[labels == c] - points[labels == c].mean(axis=0)) ** 2))
               for c in np.unique(labels))


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

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_bit_identical_to_the_whole_array_expression(self, n):
        """Sum, then halve: the same two roundings per entry as
        0.5 (|C| + |C^T|), signed zeros and subnormals included."""
        rng = np.random.default_rng(n)
        C = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-310, 300, (n, n))
        C[rng.random((n, n)) < 0.2] = -0.0
        expected = 0.5 * (np.abs(C) + np.abs(C.T))
        np.fill_diagonal(expected, 0.0)
        assert cluster.similarity(C).tobytes() == expected.tobytes()

    def test_working_set(self):
        """Peak memory allocated by one call, in n x n arrays. Measured at
        2.05: the result and the one temporary |C^T|."""
        C = np.random.default_rng(6).standard_normal((300, 300))
        assert peak_nn_arrays(lambda: cluster.similarity(C), 300) <= 2.2


class TestKmeans:
    def test_k_equals_n_zero_wcss(self):
        pts = np.arange(10, dtype=float).reshape(5, 2)
        labels = cluster.kmeans(pts, 5, seed=0)
        assert sorted(labels) == [0, 1, 2, 3, 4]
        assert wcss(pts, labels) == 0.0

    def test_separated_line_clusters(self):
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [20.0]])
        labels = cluster.kmeans(pts, 3, seed=0)
        assert np.array_equal(labels, [0, 0, 0, 1, 1, 2])

    def test_duplicates_fill_all_clusters(self):
        pts = np.array([[0.0], [0.0], [5.0], [5.0], [9.0]])
        labels = cluster.kmeans(pts, 3, seed=1)
        assert np.array_equal(labels, [0, 0, 1, 1, 2])

    def test_k_one(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = cluster.kmeans(pts, 1, seed=0)
        assert np.array_equal(labels, [0, 0])
        assert np.isclose(wcss(pts, labels), 2.0)   # two points at distance 1 from mean

    def test_trace_monotone_nonincreasing(self):
        pts = np.random.default_rng(3).normal(size=(40, 2))
        rng = np.random.Generator(np.random.PCG64(3))
        p2 = np.einsum("ij,ij->i", pts, pts)
        _, trace = cluster._lloyd(pts, p2, cluster._kmeanspp_init(pts, p2, 4, rng))
        assert len(trace) > 1
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic_in_seed(self):
        pts = np.random.default_rng(4).normal(size=(30, 3))
        a = cluster.kmeans(pts, 3, seed=17)
        b = cluster.kmeans(pts, 3, seed=17)
        assert np.array_equal(a, b)

    def test_restarts_never_worse(self, monkeypatch):
        pts = np.random.default_rng(5).normal(size=(50, 2))
        monkeypatch.setattr(cluster, "KMEANS_RESTARTS", 1)
        one = wcss(pts, cluster.kmeans(pts, 5, seed=2))
        monkeypatch.setattr(cluster, "KMEANS_RESTARTS", 10)
        ten = wcss(pts, cluster.kmeans(pts, 5, seed=2))
        assert ten <= one + 1e-12

    @staticmethod
    def blobs(n, k, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(k, 4))[rng.integers(0, k, n)] + 0.3 * rng.normal(size=(n, 4))

    @pytest.mark.parametrize("n, k, seed", [(50, 3, 0), (400, 4, 1), (1600, 4, 2), (300, 8, 3)])
    def test_same_partition_as_the_reference(self, n, k, seed):
        """Norms formed once, the trace's and the repair's distances shared
        and the farthest-point order sorted only when a cluster empties:
        the winning partition is the reference's, renumbered."""
        pts = self.blobs(n, k, seed)
        want = kmeans_reference(pts, k, seed)
        assert np.array_equal(cluster.kmeans(pts, k, seed), first_appearance(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_emptied_clusters_repaired_as_the_reference(self, seed):
        """Five distinct points, each repeated, with k = 8: seeding falls
        back to points equal to chosen centers, which tie, so clusters empty
        and the farthest-point repair runs (the reference counts it). The
        labels, five of the eight numbers, equal the reference's."""
        rng = np.random.default_rng(seed)
        pts = np.repeat(rng.normal(size=(5, 2)), rng.integers(2, 8, 5), axis=0)
        repairs = []
        want = kmeans_reference(pts, 8, seed, repairs)
        assert repairs
        assert np.array_equal(cluster.kmeans(pts, 8, seed), first_appearance(want))

    def test_repair_takes_the_farthest_point(self):
        """The center at 100 gets no point: it moves to 3, the point
        farthest from its own center, and takes it from the cluster at 1."""
        pts = np.array([[0.0], [1.0], [3.0], [10.0], [11.0]])
        p2 = np.einsum("ij,ij->i", pts, pts)
        centers = np.array([[1.0], [100.0], [10.5]])
        labels, trace = cluster._lloyd(pts, p2, centers.copy())
        assert np.array_equal(labels, [0, 0, 1, 2, 2])
        want_labels, want_trace = _lloyd_reference(pts, centers.copy())
        assert np.array_equal(labels, want_labels) and trace == want_trace

    def test_repair_takes_the_first_of_tied_farthest_points(self, monkeypatch):
        """The 384 signed permutations of (1, 2, 3, 4), all at squared
        distance exactly 30 from the origin, and their halves, shuffled: with
        centers at the origin and far off, the far center empties and the
        repair must take the lowest-index point at 30, as a stable sort
        orders them.
        numpy's default argsort puts another of the 384 first here. Two
        Lloyd steps, so the labels show the repair's pick."""
        signs = itertools.product((1.0, -1.0), repeat=4)
        far = np.array([np.multiply(s, p)
                        for s, p in itertools.product(signs, itertools.permutations((1, 2, 3, 4)))])
        pts = np.concatenate([far, 0.5 * far])[np.random.default_rng(0).permutation(768)]
        p2 = np.einsum("ij,ij->i", pts, pts)
        centers = np.array([[0.0] * 4, [1000.0] * 4])
        monkeypatch.setattr(cluster, "KMEANS_MAX_ITER", 2)
        labels, _ = cluster._lloyd(pts, p2, centers.copy())
        assert labels[np.flatnonzero(p2 == 30.0)[0]] == 1
        want, _ = _lloyd_reference(pts, centers.copy())
        assert np.array_equal(labels, want)

    def test_trace_equals_the_reference(self):
        """The seeding and the WCSS trace, summed from the distances the
        repair reuses, have the reference's bits at every step."""
        pts = self.blobs(300, 5, 7)
        p2 = np.einsum("ij,ij->i", pts, pts)
        start = cluster._kmeanspp_init(pts, p2, 5, np.random.default_rng(7))
        assert np.array_equal(start, _kmeanspp_reference(pts, 5, np.random.default_rng(7)))
        _, trace = cluster._lloyd(pts, p2, start.copy())
        _, want = _lloyd_reference(pts, start.copy())
        assert trace == want

    def test_clusters_numbered_by_first_appearance(self):
        for seed in range(5):
            labels = cluster.kmeans(self.blobs(200, 6, seed), 6, seed)
            assert np.array_equal(labels, first_appearance(labels))
            assert labels.dtype == np.int64

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
        labels = cluster.spectral_cluster(S, 2, seed=0)
        assert np.array_equal(first_appearance(labels), [0] * 4 + [1] * 6)
        embedding = cluster.spectral_embedding(S, 2)
        assert embedding.shape == (10, 2)
        assert np.allclose(np.linalg.norm(embedding, axis=1), 1.0)

    def test_three_blocks_with_weak_offblock_noise(self):
        S = self.block_similarity([5, 5, 5], noise=0.01)
        labels = cluster.spectral_cluster(S, 3, seed=1)
        assert np.array_equal(first_appearance(labels), [0] * 5 + [1] * 5 + [2] * 5)

    def test_permutation_equivariance(self):
        S = self.block_similarity([4, 5, 3], noise=0.02)
        base = first_appearance(cluster.spectral_cluster(S, 3, seed=4))
        rng = np.random.default_rng(8)
        perm = rng.permutation(S.shape[0])
        Sp = S[np.ix_(perm, perm)]
        permuted = first_appearance(cluster.spectral_cluster(Sp, 3, seed=4))
        assert np.array_equal(first_appearance(base[perm]), permuted)

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
        labels = cluster.spectral_cluster(S, k, seed=3)
        expected = cluster.kmeans(spectral_embedding_reference(S, k), k, 3)
        assert cluster.spectral_embedding(S, k).shape == (S.shape[0], k)
        assert np.array_equal(labels, expected)

    @staticmethod
    def random_similarity(n, isolated=0):
        rng = np.random.default_rng(n + isolated)
        S = cluster.similarity(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
        S[:isolated] = 0.0
        S[:, :isolated] = 0.0
        return S

    @pytest.mark.parametrize("n, k, isolated", [(12, 3, 0), (200, 4, 0), (200, 4, 3)])
    def test_embedding_matches_the_dense_oracle(self, n, k, isolated):
        """The Lanczos embedding spans the dense solver's eigenvectors to
        within 1e-10 rad; an isolated node's row is exactly zero, as the
        dense solver leaves it."""
        S = self.random_similarity(n, isolated)
        embedding = cluster.spectral_embedding(S, k)
        oracle = spectral_embedding_plain(S, k)
        assert embedding.shape == (n, k)
        assert scipy.linalg.subspace_angles(embedding, oracle).max() <= 1e-10
        assert not embedding[:isolated].any()

    @pytest.mark.parametrize("isolated", [0, 3])
    @pytest.mark.parametrize("noise", [0.05, 0.2])
    def test_labels_match_the_dense_oracle(self, isolated, noise):
        """On a similarity with clusters (four sparse noisy blocks, n =
        200), k-means gives the Lanczos embedding the dense oracle's
        partition, and the same labels: restarts that reach one partition
        differ in their sum of squares only by rounding, so which of them
        wins can change with the embedding's last bits, and k-means numbers
        clusters by first appearance to keep the labels from following it.
        On the structureless random similarities above k-means is a chaotic
        local search: with isolated nodes, rounding alone makes a restart
        with another partition win there."""
        rng = np.random.default_rng(isolated + int(100 * noise))
        S = self.block_similarity([40, 60, 50, 50], noise=noise)
        S = cluster.similarity(S * (rng.random(S.shape) < 0.5))
        S[:isolated] = 0.0
        S[:, :isolated] = 0.0
        labels = cluster.spectral_cluster(S, 4, seed=0)
        expected = cluster.kmeans(spectral_embedding_plain(S, 4), 4, 0)
        assert np.array_equal(labels, expected)

    def test_two_calls_give_the_same_bits(self):
        S = self.random_similarity(200)
        assert cluster.spectral_embedding(S, 4).tobytes() == (
            cluster.spectral_embedding(S, 4).tobytes())

    @pytest.mark.parametrize("sizes", [[20, 20, 20], [30, 30, 30, 30], [10, 50]])
    def test_exact_blocks_are_deterministic(self, sizes):
        """Exact blocks repeat eigenvalue 0 of L_sym once per block and
        make ARPACK restart after a breakdown; the seeded restarts give the
        same bits on each call, and the oracle's subspace."""
        S = self.block_similarity(sizes)
        k = len(sizes)
        first = cluster.spectral_embedding(S, k)
        assert first.tobytes() == cluster.spectral_embedding(S, k).tobytes()
        assert scipy.linalg.subspace_angles(first, spectral_embedding_plain(S, k)).max() <= 1e-10

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_zero_similarity_is_deterministic(self, k):
        """No node is connected: each is its own eigenvector with eigenvalue
        1, so Lanczos cannot tell which k belong, and the dense solver, bit
        for bit as the oracle, picks them."""
        S = np.zeros((60, 60))
        first = cluster.spectral_embedding(S, k)
        assert first.tobytes() == cluster.spectral_embedding(S, k).tobytes()
        assert np.array_equal(first, spectral_embedding_plain(S, k))

    def test_isolated_eigenvalue_among_the_k_goes_dense(self):
        """Three exact blocks and two isolated nodes: L_sym's four smallest
        eigenvalues are 0, 0, 0 and an isolated node's 1, whose eigenvector
        the zeroed entries would destroy; the dense solver takes over, bit
        for bit as the oracle."""
        S = np.zeros((62, 62))
        S[2:, 2:] = self.block_similarity([20, 20, 20])
        embedding = cluster.spectral_embedding(S, 4)
        assert np.array_equal(embedding, spectral_embedding_plain(S, 4))
        assert np.count_nonzero(embedding[:2]) == 1

    @pytest.mark.parametrize("n, isolated", [(12, 0), (30, 2)])
    @pytest.mark.parametrize("short", [1, 0])
    def test_dense_fallback_bit_identical_to_oracle(self, n, isolated, short):
        """At k = n - 1 and k = n, where ARPACK cannot run, L_sym is built
        in one buffer and solved in place by the dense solver, and gives
        the whole-array expression's embedding bit for bit. Zero
        similarities make zero entries, whose sign must match too."""
        S = self.random_similarity(n, isolated)
        k = n - short
        assert np.array_equal(cluster.spectral_embedding(S, k), spectral_embedding_plain(S, k))

    def test_non_convergence_is_a_numerical_error(self, monkeypatch):
        def stalls(A, k, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                      np.empty((A.shape[0], 0)))

        monkeypatch.setattr(cluster, "eigsh", stalls)
        with pytest.raises(NumericalError, match="No convergence"):
            cluster.spectral_cluster(self.random_similarity(40), 3, seed=0)

    @pytest.mark.parametrize("block", [1 << 16, 1000, 1])
    def test_non_symmetric_rejected(self, monkeypatch, block):
        """Checked whole, in blocks of 6 rows and row by row."""
        monkeypatch.setattr(classic, "ROW_BLOCK", block)
        S = self.random_similarity(150)
        S[140, 3] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            cluster.spectral_embedding(S, 3)

    @pytest.mark.parametrize("block", [1 << 16, 1000, 1])
    def test_non_finite_is_reported_before_asymmetry(self, monkeypatch, block):
        """The asymmetry sits in the first rows, the infinity in the last."""
        monkeypatch.setattr(classic, "ROW_BLOCK", block)
        S = self.random_similarity(150)
        S[0, 1] += 1.0
        S[149, 149] = np.inf
        with pytest.raises(NumericalError):
            cluster.spectral_embedding(S, 3)

    def test_working_set(self):
        """Peak memory allocated by one call, in n x n arrays. Measured at
        0.14: the Lanczos basis, n x 20, and the checks' row blocks; no
        n x n array is formed. The dense solve of L_sym, in one buffer and
        its symmetrized copy, peaked at 2.1."""
        n = 400
        S = cluster.similarity(np.random.default_rng(5).standard_normal((n, n)))
        assert peak_nn_arrays(lambda: cluster.spectral_cluster(S, 4, seed=0), n) <= 0.35

    def test_zero_similarity_still_returns_labels(self):
        labels = cluster.spectral_cluster(np.zeros((6, 6)), 2, seed=0)
        assert labels.shape == (6,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_non_finite_rejected(self):
        S = np.zeros((3, 3))
        S[0, 1] = np.nan
        with pytest.raises(NumericalError):
            cluster.spectral_cluster(S, 2, seed=0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cluster.spectral_cluster(np.zeros((2, 3)), 2, seed=0)
