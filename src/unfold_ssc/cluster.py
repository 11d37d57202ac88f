"""Similarity construction, spectral embedding, and seeded k-means.

k-means++ restart r draws from numpy's PCG64 bit generator seeded with the
run seed and jumped r times, so restarts get reproducible, disjoint
substreams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from unfold_ssc.errors import NumericalError

DEGREE_GUARD = 1e-12


@dataclass
class ClusterResult:
    labels: np.ndarray       # (n,) ints in 0..k-1
    embedding: np.ndarray    # (n, k) spectral coordinates fed to k-means
    wcss: float              # within-cluster sum of squares of the kept restart


def similarity(C: np.ndarray) -> np.ndarray:
    """Symmetric nonnegative affinity (|C| + |C^T|) / 2 with zero diagonal."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("coefficient matrix must be square")
    S = 0.5 * (np.abs(C) + np.abs(C.T))
    np.fill_diagonal(S, 0.0)
    return S


def _pairwise_sq_dists_rows(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances between row-sample sets, clipped at zero."""
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, np.newaxis] + c2[np.newaxis, :] - 2.0 * points @ centers.T
    return np.maximum(d2, 0.0)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-squared-weighted seeding; degenerate mass falls back by index."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _pairwise_sq_dists_rows(points, points[chosen[-1]][np.newaxis, :]).ravel()
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
        d2 = np.minimum(d2, _pairwise_sq_dists_rows(points, points[idx][np.newaxis, :]).ravel())
    return points[chosen].copy()


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int):
    """Lloyd iterations with farthest-point repair for emptied clusters.

    Returns (labels, wcss_trace); the trace records the assignment cost
    after every assignment step and is non-increasing.
    """
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists_rows(points, centers)
        new_labels = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        dist_to_own = d2[np.arange(n), labels]
        farthest = iter(np.argsort(-dist_to_own, kind="stable"))
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = points[members].mean(axis=0)
            else:
                centers[c] = points[int(next(farthest))]
    return labels, trace


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = 10,
           max_iter: int = 300, return_details: bool = False):
    """Best-of-``restarts`` k-means++ with Lloyd refinement.

    ``points`` holds one sample per row. Restart r draws from the r-th
    jump substream of ``seed``; the restart with the lowest final
    within-cluster sum of squares wins, earliest restart on ties.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D (samples in rows)")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    best_labels = None
    best_wcss = np.inf
    best_trace = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(r))
        centers = _kmeanspp_init(points, k, rng)
        labels, trace = _lloyd(points, centers, max_iter)
        if trace[-1] < best_wcss:
            best_wcss = trace[-1]
            best_labels = labels
            best_trace = trace
    if return_details:
        return best_labels, {"wcss": best_wcss, "trace": best_trace}
    return best_labels


def spectral_cluster(S: np.ndarray, k: int, seed: int) -> ClusterResult:
    """Normalized-cut spectral clustering on a similarity matrix.

    Embeds samples with the k eigenvectors of the smallest eigenvalues of
    L_sym = I - D^(-1/2) S D^(-1/2) (isolated nodes get a tiny degree guard),
    asking the symmetric eigensolver for those k eigenpairs only (the other
    n - k are never computed), scales each embedding row to unit norm (zero
    rows stay zero), and k-means clusters the rows.
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if S.ndim != 2 or S.shape[1] != n:
        raise ValueError("similarity must be square")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if not np.all(np.isfinite(S)):
        raise NumericalError("similarity matrix has non-finite entries")
    degrees = S.sum(axis=1)
    degrees = np.where(degrees > 0, degrees, DEGREE_GUARD)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap_sym = np.eye(n) - inv_sqrt[:, np.newaxis] * S * inv_sqrt[np.newaxis, :]
    lap_sym = 0.5 * (lap_sym + lap_sym.T)
    _, embedding = scipy.linalg.eigh(lap_sym, subset_by_index=[0, k - 1])
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    embedding = embedding / np.where(norms > 0, norms, 1.0)
    labels, details = kmeans(embedding, k, seed, return_details=True)
    return ClusterResult(labels=labels, embedding=embedding, wcss=details["wcss"])
