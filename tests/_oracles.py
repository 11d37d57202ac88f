"""Independent reference implementations and helpers used across the tests.

Everything here is deliberately naive: plain loops, exhaustive enumeration,
and central finite differences. The package must agree with these, not the
other way around.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg
from scipy.special import expit

from unfold_ssc.unfold import ForwardTape, relu_soft_threshold


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


def rel_err(analytic, numeric, floor: float = 1e-6) -> float:
    """Per-entry relative disagreement with an absolute floor for tiny values."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


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
    sample, both triangles computed. ``graph.pairwise_sq_dists`` must match
    it bit for bit."""
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


def precompute_reference(Y: np.ndarray, rho: float):
    """W and B by one Cholesky factorization of the n x n system
    2 Y^T Y + rho I, solved against 2 Y^T and the identity."""
    n = Y.shape[1]
    chol = scipy.linalg.cho_factor(2.0 * (Y.T @ Y) + rho * np.eye(n), lower=True)
    return scipy.linalg.cho_solve(chol, 2.0 * Y.T), scipy.linalg.cho_solve(chol, np.eye(n))


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


def best_assignment_brute(cost: np.ndarray):
    """Exhaustive minimum-cost assignment; returns (total, lexicographically
    smallest optimal permutation)."""
    n = cost.shape[0]
    best_total = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if best_total is None or total < best_total - 1e-12:
            best_total, best_perm = total, perm
        elif abs(total - best_total) <= 1e-12 and perm < best_perm:
            best_perm = perm
    return best_total, np.array(best_perm)


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


def unfold_forward_reference(params, Htilde, Z0=None):
    """The unfolded forward pass written plainly: every layer, including the
    last, computes its dual update. Package results must match bit for bit.
    """
    Htilde = np.asarray(Htilde, dtype=np.float64)
    n = Htilde.shape[1]
    Z = np.zeros((n, n)) if Z0 is None else np.asarray(Z0, dtype=np.float64)
    mu = np.zeros((n, n))
    tape = ForwardTape(Htilde=Htilde, Z0=Z)
    C = None
    for layer in params.layers:
        rho, theta = layer.rho, layer.theta
        V = mu - rho * Z
        C = layer.W @ Htilde - layer.B @ V
        T = C + mu / rho
        Zraw = relu_soft_threshold(T, theta)
        np.fill_diagonal(Zraw, 0.0)
        tape.rho.append(rho)
        tape.mu_in.append(mu)
        tape.C.append(C)
        Z = Zraw
        mu = mu + rho * (C - Z)
        tape.Z_out.append(Z)
    C_out = C.copy()
    np.fill_diagonal(C_out, 0.0)
    return C_out, tape


def unfold_backward_reference(params, tape, grad_C):
    """Reverse mode through every branch of every layer, from zero-filled
    accumulators and with masks built from full n x n arrays.
    """
    Ht = tape.Htilde
    n = Ht.shape[1]
    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    gHt = np.zeros_like(Ht)

    off_diag = 1.0 - np.eye(n)
    gC_ext = np.asarray(grad_C, dtype=np.float64) * off_diag
    gZ_next = np.zeros((n, n))
    gmu_next = np.zeros((n, n))

    for k in range(params.n_layers - 1, -1, -1):
        layer = params.layers[k]
        name = f"layer{k}"
        rho, theta = layer.rho, layer.theta
        Z_in = tape.Z0 if k == 0 else tape.Z_out[k - 1]
        mu_in, C, Z_out = tape.mu_in[k], tape.C[k], tape.Z_out[k]
        V = mu_in - rho * Z_in
        T = C + mu_in / rho

        gmu_in = gmu_next.copy()
        gC = gC_ext + rho * gmu_next
        gZ_out = gZ_next - rho * gmu_next
        grho = float(np.sum(gmu_next * (C - Z_out)))

        gZraw = gZ_out * off_diag
        active = np.abs(T) > theta
        gT = np.where(active, gZraw, 0.0)
        gtheta = -float(np.sum(np.where(active, gZraw * np.sign(T), 0.0)))

        gC = gC + gT
        gmu_in += gT / rho
        grho += float(np.sum(gT * (-mu_in / rho**2)))

        grads[f"{name}.W"] += gC @ Ht.T
        gHt += layer.W.T @ gC
        grads[f"{name}.B"] += -gC @ V.T
        gV = -layer.B.T @ gC
        gmu_in += gV
        gZ_in = -rho * gV
        grho += float(np.sum(gV * (-Z_in)))

        grads[f"{name}.rho_raw"] += grho * expit(layer.rho_raw)
        grads[f"{name}.theta_raw"] += gtheta * expit(layer.theta_raw)

        gC_ext = np.zeros((n, n))
        gZ_next = gZ_in
        gmu_next = gmu_in

    return grads, gHt
