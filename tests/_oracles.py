"""Independent reference implementations and helpers used across the tests.

Everything here is deliberately naive: plain loops, exhaustive enumeration,
and central finite differences. The package must agree with these, not the
other way around.
"""

from __future__ import annotations

import itertools
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import expit

from unfold_ssc import autoenc, classic, cluster
from unfold_ssc.classic import AdmmState


def fd_gradient(f, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f with respect to arr.

    Mutates entries in place and restores them, so ``f`` may close over
    ``arr`` directly.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1) if arr.ndim else arr
    gflat = grad.reshape(-1) if arr.ndim else grad
    for i in range(flat.size):
        orig = flat[i] if arr.ndim else float(arr)
        if arr.ndim:
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
        else:
            arr += step
            fp = f()
            arr -= 2 * step
            fm = f()
            arr += step
        val = (fp - fm) / (2.0 * step)
        if arr.ndim:
            gflat[i] = val
        else:
            grad[()] = val
    return grad


def peak_arrays(fn, rows: int, cols: int) -> float:
    """Peak memory that ``fn()`` allocates, in rows x cols float64 arrays."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (rows * cols * 8)


def peak_nn_arrays(fn, n: int) -> float:
    """Peak memory that ``fn()`` allocates, in n x n float64 arrays."""
    return peak_arrays(fn, n, n)


def row_sum(A) -> np.float64:
    """Sum of a 2-D array row by row: each row's ``np.sum``, then the sum of
    those. The package's scalar sums over n x n arrays add in this order,
    whatever its row blocks."""
    return np.sum(np.sum(A, axis=1))


def rel_err(analytic, numeric, floor: float = 1e-6) -> float:
    """Per-entry relative disagreement with an absolute floor for tiny values."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def rel_frobenius(a, b) -> float:
    """Relative Frobenius distance of ``a`` from the reference ``b``."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def ae_loss_reference(X: np.ndarray, Xhat: np.ndarray):
    """Mean per-sample squared reconstruction error from one full-size
    square, and its gradient (2 / n)(Xhat - X) as a new array."""
    n = X.shape[1]
    diff = Xhat - X
    return float(np.sum(diff * diff)) / n, (2.0 / n) * diff


def decoder_reference(weights, H: np.ndarray):
    """The decoder replayed from latent rows H, each bias summed into a new
    array (W @ D + b). Returns every layer's pre-activation and output; the
    last layer stays linear, so its output is the reconstruction."""
    pres, acts = [], [H.T]
    last = len(weights.dec) - 1
    for i, layer in enumerate(weights.dec):
        pre = layer.W @ acts[-1] + layer.b[:, np.newaxis]
        pres.append(pre)
        acts.append(autoenc.leaky_relu(pre) if i != last else pre)
    return pres, acts


def relu_soft_threshold(v, theta):
    """Shrinkage in its network form: relu(|v| - theta) * sign(v).

    Elementwise equal to the piecewise soft threshold for theta >= 0; zeros
    may carry either sign.
    """
    if theta < 0:
        raise ValueError(f"threshold must be non-negative, got {theta}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def soft_threshold_scalar(x: float, tau: float) -> float:
    """Piecewise definition, one scalar at a time."""
    if x > tau:
        return x - tau
    if x < -tau:
        return x + tau
    return 0.0


def knn_adjacency_brute(points: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive nearest-neighbor adjacency with index tie-breaking."""
    n = points.shape[1]
    adj = np.zeros((n, n))
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d = float(np.sum((points[:, i] - points[:, j]) ** 2))
            dists.append((d, j))
        dists.sort()
        for _, j in dists[:k]:
            adj[i, j] = 1.0
    return np.maximum(adj, adj.T)


def pairwise_sq_dists_reference(points: np.ndarray) -> np.ndarray:
    """Full-block squared distances: every column chunk against every
    sample, both triangles computed. The candidate distances of
    ``graph.knn_adjacency`` (``graph._sq_dists``) must match it bit for
    bit."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[1]
    out = np.empty((n, n))
    step = max(1, min(n, 4_000_000 // max(1, points.shape[0] * n)))
    for start in range(0, n, step):
        stop = min(n, start + step)
        diff = points[:, :, np.newaxis] - points[:, np.newaxis, start:stop]
        out[:, start:stop] = np.einsum("fij,fij->ij", diff, diff)
    return out


def knn_adjacency_reference(points: np.ndarray, *counts: int):
    """One adjacency per count from a full stable argsort of every distance
    row (ties to the smaller index). ``graph.knn_adjacency`` must match it
    bit for bit."""
    n = points.shape[1]
    d2 = pairwise_sq_dists_reference(points)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    adjs = []
    for count in counts:
        adj = np.zeros((n, n))
        adj[np.repeat(np.arange(n), count), order[:, :count].reshape(-1)] = 1.0
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        adjs.append(adj)
    return adjs


def _kmeans_sq_dists_reference(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances between row-sample sets, clipped at zero, with
    both sets' squared norms formed on each call."""
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, np.newaxis] + c2[np.newaxis, :] - 2.0 * points @ centers.T
    return np.maximum(d2, 0.0)


def _kmeanspp_reference(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _kmeans_sq_dists_reference(points, points[chosen[-1]][np.newaxis, :]).ravel()
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
        d2 = np.minimum(d2, _kmeans_sq_dists_reference(points, points[idx][np.newaxis, :]).ravel())
    return points[chosen].copy()


def _lloyd_reference(points: np.ndarray, centers: np.ndarray, repairs=None):
    """Lloyd as first written; appends to ``repairs``, when given, one entry
    per emptied cluster it repairs."""
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(cluster.KMEANS_MAX_ITER):
        d2 = _kmeans_sq_dists_reference(points, centers)
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
                if repairs is not None:
                    repairs.append(c)
    return labels, trace


def kmeans_reference(points: np.ndarray, k: int, seed: int, repairs=None):
    """Best-of-``KMEANS_RESTARTS`` k-means++ and Lloyd as first written:
    squared norms formed on every distance call, the WCSS and each point's
    own-cluster distance gathered separately, the farthest-point order
    sorted every iteration. Returns the winning restart's labels, numbered
    as its centers are; ``cluster.kmeans`` must give the
    same partition, numbered by first appearance. ``repairs``, when given,
    collects every restart's emptied-cluster repairs."""
    points = np.asarray(points, dtype=np.float64)
    best_labels, best_wcss = None, np.inf
    for r in range(cluster.KMEANS_RESTARTS):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(r))
        labels, trace = _lloyd_reference(points, _kmeanspp_reference(points, k, rng), repairs)
        if trace[-1] < best_wcss:
            best_wcss, best_labels = trace[-1], labels
    return best_labels


def first_appearance(labels) -> np.ndarray:
    """Relabel by order of first appearance so partitions compare directly."""
    labels = np.asarray(labels)
    seen: dict = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, v in enumerate(labels):
        out[i] = seen.setdefault(int(v), len(seen))
    return out


def precompute_reference(Y: np.ndarray, rho: float):
    """W and B by one Cholesky factorization of the n x n system
    2 Y^T Y + rho I, solved against 2 Y^T and the identity."""
    n = Y.shape[1]
    chol = scipy.linalg.cho_factor(2.0 * (Y.T @ Y) + rho * np.eye(n), lower=True)
    return scipy.linalg.cho_solve(chol, 2.0 * Y.T), scipy.linalg.cho_solve(chol, np.eye(n))


def classic_solve_reference(X: np.ndarray, lam: float, rho: float, iterations: int):
    """The ADMM loop with dense B = (2 X^T X + rho I)^-1 and the unscaled
    dual mu: W X - B (mu - rho Z) each iteration, nested-``where``
    shrinkage, mu += rho (C - Z). ``classic.solve`` must match it to
    rounding."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    denom = 2.0 * s * s + rho
    W = Vt.T @ ((2.0 * s / denom)[:, np.newaxis] * U.T)
    B = (np.eye(n) - Vt.T @ ((2.0 * s * s / denom)[:, np.newaxis] * Vt)) / rho
    Z = np.zeros((n, n))
    mu = np.zeros_like(Z)
    residuals = np.empty(iterations)
    C = Z
    for it in range(iterations):
        C = W @ X - B @ (mu - rho * Z)
        T = C + mu / rho
        tau = lam / rho
        Z = np.where(T > tau, T - tau, np.where(T < -tau, T + tau, 0.0))
        np.fill_diagonal(Z, 0.0)
        mu = mu + rho * (C - Z)
        residuals[it] = np.linalg.norm(C - Z)
    return AdmmState(C=C, Z=Z, mu=mu, residuals=residuals)


def classic_solve_plain(X: np.ndarray, lam: float, rho: float, iterations: int):
    """``classic.solve`` as a loop that allocates fresh arrays every step:
    D = u - Z, C = P (I + D) - D, Z = x - clip(x) of x = C + u with a zero
    diagonal, u += C - Z, the residual from R = C - Z's row sums of
    squares, and mu = rho u at the end. ``classic.solve``, on its fixed
    buffers and row blocks, must match it bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    Vt, w = classic.precompute(X, rho)
    tau = lam / rho
    Z = np.zeros((n, n))
    u = np.zeros_like(Z)
    residuals = np.empty(iterations)
    C = Z
    for it in range(iterations):
        D = u - Z
        C = Vt.T @ (w[:, np.newaxis] * (Vt @ D + Vt)) - D
        x = C + u
        Z = x - np.clip(x, -tau, tau)
        np.fill_diagonal(Z, 0.0)
        R = C - Z
        u = u + R
        residuals[it] = np.sqrt(np.sum(np.sum(R * R, axis=1)))
    return AdmmState(C=C, Z=Z, mu=rho * u, residuals=residuals)


def spectral_embedding_plain(S: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized k smallest eigenvectors of L_sym = I - D^-1/2 S D^-1/2,
    symmetrized as 0.5 (L + L^T), written as whole-array expressions and
    solved from a copy. ``cluster.spectral_cluster``, which builds L_sym in
    one buffer and solves in place, must match it bit for bit."""
    degrees = S.sum(axis=1)
    degrees = np.where(degrees > 0, degrees, 1e-12)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap_sym = np.eye(len(S)) - inv_sqrt[:, np.newaxis] * S * inv_sqrt[np.newaxis, :]
    lap_sym = 0.5 * (lap_sym + lap_sym.T)
    _, embedding = scipy.linalg.eigh(lap_sym, subset_by_index=[0, k - 1])
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    return embedding / np.where(norms > 0, norms, 1.0)


def spectral_embedding_reference(S: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized k smallest eigenvectors of L_sym from a full ``eigh``."""
    degrees = S.sum(axis=1)
    degrees = np.where(degrees > 0, degrees, 1e-12)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap_sym = np.eye(len(S)) - inv_sqrt[:, np.newaxis] * S * inv_sqrt[np.newaxis, :]
    _, eigvecs = np.linalg.eigh(0.5 * (lap_sym + lap_sym.T))
    embedding = eigvecs[:, :k]
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    return embedding / np.where(norms > 0, norms, 1.0)


def structure_loss_pairwise(C: np.ndarray, adj: np.ndarray) -> float:
    """Direct double sum over the adjacency."""
    n = adj.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if adj[i, j] != 0:
                total += adj[i, j] * float(np.sum((C[:, i] - C[:, j]) ** 2))
    return total


def accuracy_brute(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best relabeling accuracy by enumerating all bijections on the padded
    label universe."""
    pv = np.unique(pred)
    tv = np.unique(truth)
    k = max(len(pv), len(tv))
    best = 0
    for perm in itertools.permutations(range(k)):
        matched = 0
        for ip, p in enumerate(pv):
            target = perm[ip]
            if target < len(tv):
                matched += int(np.sum((pred == p) & (truth == tv[target])))
        best = max(best, matched)
    return best / len(pred)


def nmi_plain(pred: np.ndarray, truth: np.ndarray) -> float:
    """Textbook NMI with geometric-mean normalization, natural log."""
    n = len(pred)
    pv, tv = np.unique(pred), np.unique(truth)
    pij = np.zeros((len(pv), len(tv)))
    for a, p in enumerate(pv):
        for b, t in enumerate(tv):
            pij[a, b] = np.sum((pred == p) & (truth == t)) / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    hu = -sum(p * np.log(p) for p in pi if p > 0)
    hv = -sum(p * np.log(p) for p in pj if p > 0)
    if hu == 0 or hv == 0:
        raise ValueError("degenerate entropies are handled separately")
    info = 0.0
    for a in range(len(pv)):
        for b in range(len(tv)):
            if pij[a, b] > 0:
                info += pij[a, b] * np.log(pij[a, b] / (pi[a] * pj[b]))
    return info / np.sqrt(hu * hv)


@dataclass
class ReferenceTape:
    """Every intermediate of the reference forward pass, stored: 3K n x n
    arrays for K layers."""

    Z0: np.ndarray
    rho: list = field(default_factory=list)
    mu_in: list = field(default_factory=list)
    C: list = field(default_factory=list)
    Z_out: list = field(default_factory=list)

    def mu(self, k: int) -> np.ndarray:
        """Layer k's dual input, as the package tape's ``mu`` names it."""
        return self.mu_in[k]


def shrinkage_inputs(tape, count: int) -> list:
    """T_k = C_k + mu_k / rho_k of the first ``count`` layers of a package or
    a reference tape; the K - 1 layers that shrink for count = K - 1. The
    package tape's mu_0 is the scalar 0."""
    return [C + tape.mu(k) / tape.rho[k] for k, C in enumerate(tape.C[:count])]


def apply_B(params, V: np.ndarray) -> np.ndarray:
    """B V = (V - W (H0 V)) / rho0 for the layers' shared W = H0^T M, as one
    whole-array expression; the unfolded backward forms B gC this way a
    row block at a time and must match it bit for bit."""
    BV = params.layers[0].W @ (params.H0 @ V)
    np.subtract(V, BV, out=BV)
    BV /= params.rho0
    return BV


def structure_loss_reference(C: np.ndarray, lap):
    """The structure loss from one whole sparse product C L: value
    2 sum((C L) * C), summed by ``row_sum``, and gradient 4 C L.
    ``graph.structure_loss``, which works one row block at a time, must
    match it bit for bit."""
    CL = C @ lap
    return 2.0 * float(row_sum(np.multiply(CL, C))), np.multiply(CL, 4.0)


def dense_B_reference(params) -> np.ndarray:
    """The unfolded layers' fixed B = (2 H0^T H0 + rho0 I)^-1 as an n x n
    matrix, from its own dense solve."""
    H0, rho0 = params.H0, params.rho0
    n = H0.shape[1]
    return scipy.linalg.solve(2.0 * (H0.T @ H0) + rho0 * np.eye(n), np.eye(n), assume_a="pos")


def unfold_forward_reference(params, Htilde, Z0, B=None):
    """The unfolded forward pass written plainly: every layer but the top,
    whose C is the output, computes its shrinkage and dual update, and the
    tape keeps them all. Each layer forms C = W (H~ + H0 V / rho0) - V / rho0
    from the shared W = H0^T M, with which package results must match bit
    for bit. Given the dense ``B`` of ``dense_B_reference`` it forms
    C = W H~ - B V instead, the solver's own algebra, which package results
    must match to rounding.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    n = Htilde.shape[1]
    Z = np.asarray(Z0, dtype=np.float64)
    mu = np.zeros((n, n))
    tape = ReferenceTape(Z0=Z)
    C = None
    for k, layer in enumerate(params.layers):
        rho = layer.rho
        V = mu - rho * Z
        if B is None:
            C = layer.W @ (Htilde + (params.H0 @ V) / params.rho0) - V / params.rho0
        else:
            C = layer.W @ Htilde - B @ V
        tape.rho.append(rho)
        tape.mu_in.append(mu)
        tape.C.append(C)
        if k == params.n_layers - 1:
            break
        T = C + mu / rho
        Zraw = relu_soft_threshold(T, layer.theta)
        np.fill_diagonal(Zraw, 0.0)
        Z = Zraw
        mu = mu + rho * (C - Z)
        tape.Z_out.append(Z)
    C_out = C.copy()
    np.fill_diagonal(C_out, 0.0)
    return C_out, tape


def unfold_backward_reference(params, tape, grad_C, B=None):
    """Reverse mode through every branch of every layer (the top has no
    shrinkage), from zero-filled accumulators and with masks built from full
    n x n arrays; ``B`` as in ``unfold_forward_reference``: without it the
    layer's H~ gradient is M (H0 gC) and its B gC is ``apply_B``'s, with it
    W^T gC and B gC. Each scalar sum is a ``row_sum``.
    """
    n = tape.Z0.shape[0]
    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    gHt = np.zeros((params.H0.shape[0], n))

    off_diag = 1.0 - np.eye(n)
    gC_ext = np.asarray(grad_C, dtype=np.float64) * off_diag
    gZ_next = np.zeros((n, n))
    gmu_next = np.zeros((n, n))

    top = params.n_layers - 1
    for k in range(top, -1, -1):
        layer = params.layers[k]
        name = f"layer{k}"
        rho = layer.rho
        Z_in = tape.Z0 if k == 0 else tape.Z_out[k - 1]
        mu_in, C = tape.mu_in[k], tape.C[k]

        gmu_in = gmu_next.copy()
        gC = gC_ext + rho * gmu_next
        grho = 0.0
        if k < top:
            Z_out, theta = tape.Z_out[k], layer.theta
            T = C + mu_in / rho
            gZ_out = gZ_next - rho * gmu_next
            grho += float(row_sum(gmu_next * (C - Z_out)))

            gZraw = gZ_out * off_diag
            active = np.abs(T) > theta
            gT = np.where(active, gZraw, 0.0)
            gtheta = -float(row_sum(np.where(active, gZraw * np.sign(T), 0.0)))

            gC = gC + gT
            gmu_in += gT / rho
            grho += float(row_sum(gT * (-mu_in / rho**2)))
            grads[f"{name}.theta_raw"] += gtheta * expit(layer.theta_raw)

        if B is None:
            gHt += params.M @ (params.H0 @ gC)
            gV = -apply_B(params, gC)
        else:
            gHt += layer.W.T @ gC
            gV = -(B.T @ gC)
        gmu_in += gV
        gZ_in = -rho * gV
        grho += float(row_sum(gV * (-Z_in)))

        grads[f"{name}.rho_raw"] += grho * expit(layer.rho_raw)

        gC_ext = np.zeros((n, n))
        gZ_next = gZ_in
        gmu_next = gmu_in

    return grads, gHt
