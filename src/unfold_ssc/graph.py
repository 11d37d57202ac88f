"""K-nearest-neighbor graphs and the structure-preservation loss."""

from __future__ import annotations

import numpy as np


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between columns of ``points``.

    Computed from explicit differences (in row blocks) rather than the
    gram-matrix identity, so duplicate columns get an exact zero. Only the
    blocks on and right of the diagonal are computed; each is mirrored
    below it, so the result is exactly symmetric. That keeps tie-breaking
    well defined.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[1]
    out = np.empty((n, n))
    step = max(1, min(n, 1_000_000 // max(1, points.shape[0] * n)))
    for start in range(0, n, step):
        stop = min(n, start + step)
        diff = points[:, np.newaxis, start:] - points[:, start:stop, np.newaxis]
        block = np.einsum("fij,fij->ij", diff, diff)
        out[start:stop, start:] = block
        out[start:, start:stop] = block.T
    return out


def knn_adjacency(points: np.ndarray, k: int, *more_k: int):
    """Symmetric binary k-nearest-neighbor adjacency over column samples.

    Each sample is linked to its k nearest other samples (Euclidean,
    distance ties broken toward the smaller index); the union of directed
    links is symmetrized. Diagonal stays zero.

    Given more neighbor counts, returns a tuple with one adjacency per
    count, all from one distance matrix. Each row keeps kmax = max(counts)
    candidates without a full sort: every distance below the row's kmax-th
    smallest value t, then the lowest-index distances equal to t. A stable
    sort of those candidates orders each row exactly as a stable sort of
    the whole row would, so every count takes a prefix of it and each
    adjacency equals its single-count call.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got {points.ndim}-D")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    n = points.shape[1]
    counts = (k, *more_k)
    for count in counts:
        if not 1 <= count < n:
            raise ValueError(f"k must satisfy 1 <= k < n, got k={count}, n={n}")
    kmax = max(counts)
    d2 = pairwise_sq_dists(points)
    np.fill_diagonal(d2, np.inf)
    t = np.partition(d2, kmax - 1, axis=1)[:, kmax - 1:kmax]
    below = d2 < t
    at_t = d2 == t
    room = kmax - below.sum(axis=1, keepdims=True)
    keep = below | (at_t & (np.cumsum(at_t, axis=1) <= room))
    cand = np.nonzero(keep)[1].reshape(n, kmax)
    dist = np.take_along_axis(d2, cand, axis=1)
    order = np.take_along_axis(cand, np.argsort(dist, axis=1, kind="stable"), axis=1)
    adjs = []
    for count in counts:
        adj = np.zeros((n, n))
        rows = np.repeat(np.arange(n), count)
        adj[rows, order[:, :count].reshape(-1)] = 1.0
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        adjs.append(adj)
    return adjs[0] if not more_k else tuple(adjs)


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Combinatorial graph Laplacian D - A."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.allclose(adjacency, adjacency.T):
        raise ValueError("adjacency must be symmetric")
    return np.diag(adjacency.sum(axis=1)) - adjacency


def structure_loss(C: np.ndarray, lap: np.ndarray, adjacency: np.ndarray | None = None):
    """Neighborhood-coherence penalty on representation columns.

    Value is sum_{ij} A_ij * ||C[:, i] - C[:, j]||^2, evaluated through the
    equivalent trace form 2 * tr(C L C^T); the gradient in C is 4 * C @ L.
    ``adjacency`` is only shape-checked when given; the Laplacian carries
    all the information the fast form needs.

    Returns (value, grad).
    """
    C = np.asarray(C, dtype=np.float64)
    lap = np.asarray(lap, dtype=np.float64)
    if C.shape[1] != lap.shape[0] or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"shape mismatch: C {C.shape} vs laplacian {lap.shape}")
    if adjacency is not None and np.shape(adjacency) != lap.shape:
        raise ValueError("adjacency and laplacian shapes differ")
    CL = C @ lap
    value = 2.0 * float(np.sum(CL * C))
    grad = 4.0 * CL
    return value, grad
