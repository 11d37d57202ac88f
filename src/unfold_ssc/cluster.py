"""Similarity construction, spectral embedding, and seeded k-means.

``spectral_cluster`` is ``kmeans`` on the rows of ``spectral_embedding``.
The embedding's k eigenvectors come from a Lanczos solve (ARPACK) that
touches the similarity only through matrix-vector products, so the
spectral stage holds no n x n array besides the similarity itself.
k-means++ restart r draws from numpy's PCG64 bit generator seeded with the
run seed and jumped r times, so restarts get reproducible, disjoint
substreams.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from unfold_ssc import classic
from unfold_ssc.errors import NumericalError

DEGREE_GUARD = 1e-12
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


def similarity(C: np.ndarray) -> np.ndarray:
    """Symmetric nonnegative affinity (|C| + |C^T|) / 2 with zero diagonal,
    formed in the result with one n x n temporary, |C^T|."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("coefficient matrix must be square")
    S = np.abs(C)
    S += np.abs(C.T)
    S *= 0.5
    np.fill_diagonal(S, 0.0)
    return S


def _pairwise_sq_dists_rows(points: np.ndarray, p2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances between row-sample sets, clipped at zero; ``p2``
    holds the points' squared norms."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, np.newaxis] + c2[np.newaxis, :] - 2.0 * points @ centers.T
    return np.maximum(d2, 0.0)


def _kmeanspp_init(points: np.ndarray, p2: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Distance-squared-weighted seeding; degenerate mass falls back by index."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _pairwise_sq_dists_rows(points, p2, points[chosen[-1]][np.newaxis, :]).ravel()
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        else:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, _pairwise_sq_dists_rows(points, p2, points[idx][np.newaxis, :]).ravel())
    return points[chosen].copy()


def _lloyd(points: np.ndarray, p2: np.ndarray, centers: np.ndarray):
    """Lloyd iterations with farthest-point repair for emptied clusters.

    Returns (labels, wcss_trace); the trace records the assignment cost
    after every assignment step and is non-increasing.
    """
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = _pairwise_sq_dists_rows(points, p2, centers)
        new_labels = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(n), new_labels]
        trace.append(float(dist_to_own.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        farthest = None  # sorted only once a cluster empties
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = points[members].mean(axis=0)
            else:
                if farthest is None:
                    farthest = iter(np.argsort(-dist_to_own, kind="stable"))
                centers[c] = points[int(next(farthest))]
    return labels, trace


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Best-of-``KMEANS_RESTARTS`` k-means++ with Lloyd refinement.

    ``points`` holds one sample per row. Restart r draws from the r-th
    jump substream of ``seed``; the restart with the lowest final
    within-cluster sum of squares wins, earliest restart on ties. Clusters
    are numbered 0, 1, ... in order of first appearance, so restarts that
    reach the same partition give the same labels, whichever of them wins
    on rounding.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D (samples in rows)")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    p2 = np.einsum("ij,ij->i", points, points)
    best_labels = None
    best_wcss = np.inf
    for r in range(KMEANS_RESTARTS):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(r))
        labels, trace = _lloyd(points, p2, _kmeanspp_init(points, p2, k, rng))
        if trace[-1] < best_wcss:
            best_wcss = trace[-1]
            best_labels = labels
    present, first = np.unique(best_labels, return_index=True)
    number = np.zeros(k, dtype=np.int64)
    number[present[np.argsort(first)]] = np.arange(len(present))
    return number[best_labels]


def _check_similarity(S: np.ndarray) -> None:
    """NumericalError if any entry of S is not finite, else ValueError if S
    is not exactly symmetric. Runs in the row blocks of
    ``classic.row_blocks``: each block is checked for finiteness, then
    compared with the transpose of the blocks above and on the diagonal,
    all of which are finite by then."""
    symmetric = True
    for start, stop in classic.row_blocks(*S.shape):
        if not np.all(np.isfinite(S[start:stop])):
            raise NumericalError("similarity matrix has non-finite entries")
        symmetric = symmetric and np.array_equal(S[start:stop, :stop], S[:stop, start:stop].T)
    if not symmetric:
        raise ValueError("similarity must be symmetric")


def spectral_embedding(S: np.ndarray, k: int) -> np.ndarray:
    """Normalized-cut embedding of a similarity matrix, one row per sample.

    Takes the k eigenvectors of the smallest eigenvalues of
    L_sym = I - D^(-1/2) S D^(-1/2) (isolated nodes get a tiny degree guard)
    and scales each row to unit norm (zero rows stay zero). S must be
    finite (NumericalError otherwise) and exactly symmetric, as
    ``similarity`` returns it (ValueError otherwise).

    The eigenvectors are the k largest of 2I - L_sym, found by implicitly
    restarted Lanczos (``eigsh``) on x -> x + D^(-1/2) S D^(-1/2) x, which
    forms no n x n array. The shift by I keeps the operator nonzero, so
    S = 0 still solves. The start vector is all ones and the generator for
    ARPACK's breakdown restarts, which exact block similarities take, is
    seeded, so the result is deterministic. A solve that does not converge
    raises NumericalError.

    An isolated node i is an eigenvector e_i of its own, eigenvalue 1, and
    every other eigenvector is zero there; Lanczos leaves rounding there,
    which the row scaling would blow up, so those entries are set to zero.
    Where one of the k eigenvalues might be an isolated node's (the k-th
    largest of 2I - L_sym is not above 1), and where ARPACK cannot run
    (k >= n - 1), the dense symmetric eigensolver takes L_sym instead.
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if S.ndim != 2 or S.shape[1] != n:
        raise ValueError("similarity must be square")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    _check_similarity(S)
    degrees = S.sum(axis=1)
    connected = degrees > 0
    inv_sqrt = 1.0 / np.sqrt(np.where(connected, degrees, DEGREE_GUARD))
    embedding = None
    if k < n - 1:
        shifted = LinearOperator((n, n), dtype=np.float64,
                                 matvec=lambda x: x + inv_sqrt * (S @ (inv_sqrt * x)))
        try:
            values, vectors = eigsh(shifted, k, which="LA", tol=0, v0=np.ones(n),
                                    rng=np.random.default_rng(0))
        except ArpackError as exc:
            raise NumericalError(f"spectral eigensolve failed: {exc}") from exc
        if connected.all() or values[0] > 1.0:
            # Largest of 2I - L_sym first is smallest of L_sym first.
            embedding = vectors[:, ::-1]
            embedding[~connected] = 0.0
    if embedding is None:
        # I - X in one buffer: 1 - x on the diagonal, 0 - x off it, so zeros keep I - X's sign.
        lap = inv_sqrt[:, np.newaxis] * S * inv_sqrt[np.newaxis, :]
        diagonal = 1.0 - np.diagonal(lap)
        np.fill_diagonal(np.subtract(0.0, lap, out=lap), diagonal)
        lap_sym = 0.5 * (lap + lap.T)
        # Exactly symmetric: its transpose is it in Fortran order, solved in place.
        _, embedding = scipy.linalg.eigh(lap_sym.T, subset_by_index=[0, k - 1], overwrite_a=True)
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    return embedding / np.where(norms > 0, norms, 1.0)


def spectral_cluster(S: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Normalized-cut spectral clustering on a similarity matrix: k-means
    labels, in 0..k-1, of the rows of ``spectral_embedding(S, k)``."""
    return kmeans(spectral_embedding(S, k), k, seed)
