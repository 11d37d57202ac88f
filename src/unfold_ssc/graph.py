"""K-nearest-neighbor graphs and the structure-preservation loss.

Adjacencies and the Laplacian come back as sparse CSR arrays: a k-neighbor
graph has O(k) entries per row, so the structure loss costs O(n^2 k), not
O(n^3). No n x n distance matrix is formed either: ``knn_adjacency`` screens
one row block at a time with a BLAS Gram product and a rounding-error bound,
and computes explicit-difference distances only for the few candidates per
row that the screen keeps.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from unfold_ssc import classic


def _sq_dists(points: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_f (x_fj - x_fi)^2 for each pair (i, j) of ``rows`` and ``cols``,
    added in feature order, in blocks of ``classic.row_blocks`` over the
    pairs, d differences each, so its temporaries are block-sized."""
    out = np.empty(len(rows))
    for r0, r1 in classic.row_blocks(len(rows), points.shape[0]):
        # C-ordered d x m differences: a running sum down the features adds
        # them in feature order whatever m is, where a reduction over them
        # would add pairwise at m = 1.
        diff = points.take(cols[r0:r1], axis=1)
        diff -= points.take(rows[r0:r1], axis=1)
        diff *= diff
        out[r0:r1] = np.add.accumulate(diff, axis=0, out=diff)[-1]
    return out


def knn_adjacency(points: np.ndarray, k: int, *more_k: int):
    """Symmetric binary k-nearest-neighbor adjacency over column samples.

    Each sample is linked to its k nearest other samples (Euclidean,
    distance ties broken toward the smaller index); the union of directed
    links is symmetrized. Diagonal stays zero. The adjacency is an n x n
    CSR array in canonical format (sorted column indices, no duplicates),
    built straight from the neighbor lists.

    Given more neighbor counts, returns a tuple with one adjacency per
    count, all from one screened pass: each row's neighbors are ordered
    once, for kmax = max(counts), and every count takes a prefix.

    Distances are sums of squared explicit differences, sum_f (x_fj -
    x_fi)^2 added in feature order, so duplicate columns get an exact zero
    and ties are exact. They are computed only for candidates, chosen one
    screen block of ``classic.row_blocks`` at a time, so no n x n array is
    formed:

    - Screen. a_ij = |x_j|^2 - 2 x_i^T x_j from one BLAS product per block,
      with a_ii = inf; the row's |x_i|^2 is left out, as it would shift
      the whole row. T_i is the row's kmax-th smallest a, and the
      candidates are every j != i with a_ij <= T_i + tau_i, where
      tau_i = 2 gamma (|x_i| + max_j |x_j|)^2 + 8 d eta. Here gamma =
      8 (d + 4) u is a generous multiple of gamma_{d+2}, the bound on a
      dot product's relative rounding error (Higham, Accuracy and
      Stability of Numerical Algorithms, 2002, sec. 3.1), with u the unit
      roundoff and d the feature count; eta is the smallest subnormal, and
      d eta bounds what the products lose to underflow, which a relative
      bound alone misses on tiny points.
    - Proof sketch. With s_ij the exact squared distance, a_ij lies within
      tau_i / 4 of s_ij - |x_i|^2 and e_ij within tau_i / 4 of s_ij. The
      kmax columns with a <= T_i have e <= T_i + |x_i|^2 + tau_i / 2, so
      the row's kmax-th smallest e, t*, is at most that. Every column with
      e_ij <= t*, every true neighbor among them, then has a_ij <=
      t* - |x_i|^2 + tau_i / 2 <= T_i + tau_i: it is a candidate.
    - Select. Each row's candidates are stably sorted by (e, index). The
      first kmax are the first kmax of a stable sort of the whole distance
      row, so each adjacency equals that of a full distance matrix.

    A row whose screen values or bound are not finite takes every column.
    The bound's doubled square overflows before any squared distance can,
    so an overflowing distance is always a candidate, and it raises
    ``ValueError``: it could otherwise tie with the diagonal.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got {points.ndim}-D")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    d, n = points.shape
    counts = (k, *more_k)
    for count in counts:
        if not 1 <= count < n:
            raise ValueError(f"k must satisfy 1 <= k < n, got k={count}, n={n}")
    if d == 0:
        # Every distance is zero, as over one zero feature.
        points, d = np.zeros((1, n)), 1
    kmax = max(counts)
    order = np.empty((n, kmax), dtype=np.intp)
    # Overflow and inf - inf in the screen mark a row to take every column.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("fi,fi->i", points, points)
        norms = np.sqrt(sq)
        gamma = 8 * (d + 4) * (np.finfo(np.float64).eps / 2)
        # Doubled before gamma scales it, so that it overflows before any
        # squared distance can.
        tau = gamma * (2.0 * (norms + norms.max()) ** 2)
        tau += 8 * d * np.finfo(np.float64).smallest_subnormal
        for start, stop in classic.row_blocks(n, n):
            block = np.arange(stop - start)
            # Scaling by -2 is exact, so this is -2 x_i^T x_j as rounded.
            screen = (-2.0 * points[:, start:stop]).T @ points
            screen += sq
            open_rows = ~(np.isfinite(screen).all(axis=1) & np.isfinite(tau[start:stop]))
            screen[block, block + start] = np.inf
            bound = np.partition(screen, kmax - 1, axis=1)[:, kmax - 1] + tau[start:stop]
            keep = screen <= bound[:, np.newaxis]
            keep[open_rows] = True
            keep[block, block + start] = False
            del screen
            row, col = np.divmod(np.flatnonzero(keep), n)
            dist = _sq_dists(points, row + start, col)
            if np.isinf(dist).any():
                raise ValueError("squared distances between points overflow")
            # Row by row, then distance, then index: lexsort is stable and
            # np.flatnonzero lists each row's columns in ascending order.
            ranked = col[np.lexsort((dist, row))]
            first = np.searchsorted(row, block)
            order[start:stop] = ranked[first[:, np.newaxis] + np.arange(kmax)]
    adjs = []
    for count in counts:
        # Link i -> j and j -> i as the row-major key i n + j; the sorted
        # unique keys are the union's entries in canonical CSR order.
        sample = np.repeat(np.arange(n), count)
        neighbor = order[:, :count].reshape(-1)
        keys = np.sort(np.concatenate((sample * n + neighbor, neighbor * n + sample)))
        # Unique by hand: np.unique hashes integer keys, which took about
        # 35 times as long as this sort on n = 7,138's 428k keys.
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
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
    The work runs one block of ``classic.row_blocks`` at a time: the sparse
    product C[rows] L, whose rows equal those of C L bit for bit and read
    only the same rows of C, then (C L) * C, summed row by row, and 4 C L,
    both written into the block's rows of ``out``. The value adds the row
    sums. No n x n temporary is made."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[1] != lap.shape[0] or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"shape mismatch: C {C.shape} vs laplacian {lap.shape}")
    if out is None:
        out = np.empty(C.shape)
    elif out.shape != C.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {C.shape} array")
    row_sums = np.empty(C.shape[0])
    for r0, r1 in classic.row_blocks(*C.shape):
        CL = C[r0:r1] @ lap
        np.sum(np.multiply(CL, C[r0:r1], out=out[r0:r1]), axis=1, out=row_sums[r0:r1])
        np.multiply(CL, 4.0, out=out[r0:r1])
        del CL  # freed before the next block's product is formed
    return 2.0 * float(np.sum(row_sums)), out
