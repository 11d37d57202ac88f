"""K-nearest-neighbor graphs and the structure-preservation loss.

Adjacencies and the Laplacian come back as sparse CSR arrays: a k-neighbor
graph has O(k) entries per row, so only the pairwise distances are n x n,
and the structure loss costs O(n^2 k), not O(n^3).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from unfold_ssc import classic

# Distance entries per row block of the candidate selection in
# ``knn_adjacency``; its temporaries are this size, not n x n.
KNN_BLOCK = 1 << 16


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
    links is symmetrized. Diagonal stays zero. The adjacency is an n x n
    CSR array in canonical format (sorted column indices, no duplicates),
    built straight from the neighbor lists.

    Given more neighbor counts, returns a tuple with one adjacency per
    count, all from one distance matrix. Each row keeps kmax = max(counts)
    candidates without a full sort: every distance below the row's kmax-th
    smallest value t, then the lowest-index distances equal to t. A stable
    sort of those candidates orders each row exactly as a stable sort of
    the whole row would, so every count takes a prefix of it and each
    adjacency equals its single-count call. Rows are selected in blocks of
    about ``KNN_BLOCK`` distances, so only the distance matrix is n x n.
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
    # An infinite distance could tie with the diagonal's and make a sample
    # its own neighbor.
    if d2.max() == np.inf:
        raise ValueError("squared distances between points overflow")
    np.fill_diagonal(d2, np.inf)
    order = np.empty((n, kmax), dtype=np.intp)
    step = max(1, KNN_BLOCK // n)
    for start in range(0, n, step):
        rows = d2[start:start + step]
        t = np.partition(rows, kmax - 1, axis=1)[:, kmax - 1:kmax]
        below = rows < t
        at_t = rows == t
        room = kmax - below.sum(axis=1, keepdims=True)
        keep = below | (at_t & (np.cumsum(at_t, axis=1) <= room))
        cand = np.nonzero(keep)[1].reshape(len(rows), kmax)
        dist = np.take_along_axis(rows, cand, axis=1)
        order[start:start + step] = np.take_along_axis(
            cand, np.argsort(dist, axis=1, kind="stable"), axis=1)
    adjs = []
    for count in counts:
        # Link i -> j and j -> i as the row-major key i n + j; the sorted
        # unique keys are the union's entries in canonical CSR order.
        sample = np.repeat(np.arange(n), count)
        neighbor = order[:, :count].reshape(-1)
        keys = np.unique(np.concatenate((sample * n + neighbor, neighbor * n + sample)))
        # 32-bit indices where they fit, as scipy's own conversions choose.
        idx = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        adjs.append(sparse.csr_array((np.ones(len(keys)), (keys % n).astype(idx), indptr),
                                     shape=(n, n)))
    return adjs[0] if not more_k else tuple(adjs)


def laplacian(adjacency) -> sparse.csr_array:
    """Combinatorial graph Laplacian D - A of an exactly symmetric
    adjacency, dense or sparse, as a CSR array in canonical format, formed
    without an n x n array. Degrees are summed in entry order, so for a
    0/1 adjacency such as a kNN graph every entry equals the dense form's."""
    if np.ndim(adjacency) != 2 or np.shape(adjacency)[0] != np.shape(adjacency)[1]:
        raise ValueError("adjacency must be square")
    A = sparse.csr_array(adjacency, dtype=np.float64)
    if (A != A.T).nnz:
        raise ValueError("adjacency must be symmetric")
    n = A.shape[0]
    degree = np.bincount(np.repeat(np.arange(n), np.diff(A.indptr)), weights=A.data, minlength=n)
    diag = np.arange(n + 1, dtype=A.indices.dtype)
    D = sparse.csr_array((degree, diag[:n], diag), shape=(n, n))
    # The sparse difference keeps only nonzero entries, in canonical order.
    return D - A


def structure_loss(C: np.ndarray, lap: sparse.csr_array, out=None):
    """Neighborhood-coherence penalty on representation columns.

    Value is sum_{ij} A_ij * ||C[:, i] - C[:, j]||^2, evaluated through the
    equivalent trace form 2 * tr(C L C^T); the gradient in C is 4 * C @ L.

    Returns (value, grad). The gradient goes into ``out``, a C-contiguous
    array that may be C itself, or into a new array when it is omitted.
    The work runs one flat segment of ``classic.pairwise_segments`` at a
    time: the sparse product C[rows] L for the rows the segment covers,
    whose rows equal those of C L bit for bit, copied piece by piece into
    one segment-sized buffer; then (C L) * C for the segment, summed, and
    4 C L, both written into ``out``. A copy of the C L of the row where a
    segment ends is kept for the next segment, since by then that row's
    head in ``out`` may be written over C. No n x n temporary is made."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[1] != lap.shape[0] or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"shape mismatch: C {C.shape} vs laplacian {lap.shape}")
    if out is None:
        out = np.empty(C.shape)
    elif out.shape != C.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {C.shape} array")
    n = C.shape[1]
    C_flat, out_flat = C.reshape(-1), out.reshape(-1)
    segments = classic.pairwise_segments(C.size)
    product = np.empty(max(stop - start for start, stop in segments))
    partials = []
    row, row_CL = -1, None  # the last segment's final row and its C L
    for start, stop in segments:
        first, end = start // n, (stop + n - 1) // n  # the rows it covers
        carried = first == row
        CL = C[first + carried:end] @ lap
        # The segment's C L: the tail of its first row, whole rows, then
        # the head of its last row.
        seg = product[:stop - start]
        offset = start - first * n
        head = min(n - offset, len(seg))
        seg[:head] = (row_CL if carried else CL[0])[offset:offset + head]
        rest = CL[1 - carried:]
        whole, part = divmod(len(seg) - head, n)
        seg[head:head + whole * n].reshape(whole, n)[...] = rest[:whole]
        if part:
            seg[len(seg) - part:] = rest[whole, :part]
        seg_out = out_flat[start:stop]
        partials.append(np.sum(np.multiply(seg, C_flat[start:stop], out=seg_out)))
        np.multiply(seg, 4.0, out=seg_out)
        if end - 1 != row:
            row, row_CL = end - 1, CL[-1].copy()
        del CL, rest  # freed before the next segment's product is formed
    return 2.0 * classic.tree_sum(partials, C.size), out
