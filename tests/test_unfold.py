"""Unfolded network: analytic initialization, forward semantics, gradients."""

import json

import numpy as np
import pytest
from scipy import sparse

from unfold_ssc import autoenc, classic, cli, graph, train, unfold
from _oracles import (apply_B, dense_B_reference, fd_gradient, peak_nn_arrays,
                      precompute_reference, rel_err, rel_frobenius, relu_soft_threshold,
                      unfold_backward_mu_reference, unfold_backward_reference,
                      unfold_forward_mu_reference, unfold_forward_reference)


def unit_columns(rng, l, n):
    Ht = rng.standard_normal((l, n))
    return Ht / np.linalg.norm(Ht, axis=0)


# ----------------------------------------------------------- reparameterize


def test_softplus_round_trip():
    for y in (0.005, 0.1, 0.5, 0.9, 3.0):
        assert float(unfold.softplus(unfold.softplus_inv(y))) == pytest.approx(y, rel=1e-14)


def test_softplus_positive_everywhere():
    xs = np.linspace(-30, 30, 101)
    assert np.all(unfold.softplus(xs) > 0)


def test_relu_soft_threshold_equals_piecewise():
    rng = np.random.default_rng(0)
    v = rng.uniform(-2, 2, size=1000)
    theta = 0.35
    a = relu_soft_threshold(v, theta)
    b = classic.soft_threshold(v, theta)
    assert np.max(np.abs(a - b)) <= 1e-15


def test_relu_soft_threshold_boundary_and_zero():
    theta = 0.4
    for shrink in (relu_soft_threshold, classic.soft_threshold):
        for v in (-theta, 0.0, theta):
            assert shrink(v, theta) == 0.0
        assert np.array_equal(shrink(np.array([1.0, -1.0]), 0.0), [1.0, -1.0])


# ------------------------------------------------------------------- init


def test_init_identity_example():
    """H~ = I2, rho0 = 1: W = (2/3) I on every layer and B V = V / 3; every
    layer but the top starts from threshold 0.005, and the top has none.
    Only the 2K - 1 scalars are learned."""
    params = unfold.init_params(np.eye(2), np.zeros((2, 2)), 1.0, 3, 0.005)
    V = np.random.default_rng(3).standard_normal((2, 2))
    assert np.allclose(apply_B(params, V), V / 3.0, atol=1e-14)
    for k in range(3):
        layer = params.layers[k]
        assert np.allclose(layer.W, 2.0 / 3.0 * np.eye(2), atol=1e-14)
        assert layer.rho == pytest.approx(1.0, rel=1e-14)
    for k in range(2):
        assert params.layers[k].theta == pytest.approx(0.005, rel=1e-12)
    names = [name for name, _ in params.named_arrays()]
    assert names == ["layer0.rho_raw", "layer0.theta_raw",
                     "layer1.rho_raw", "layer1.theta_raw", "layer2.rho_raw"]


@pytest.mark.parametrize("l, n, duplicates", [(4, 9, 0), (9, 9, 0), (14, 9, 0), (6, 9, 4)])
def test_init_matches_classic_solver_matrices(l, n, duplicates):
    """W = H0^T M and the closed-form B equal the solver's
    (2 H0^T H0 + rho0 I)^-1 (2 H0^T) and (2 H0^T H0 + rho0 I)^-1, also when
    the latent is wider than the sample count or repeats samples."""
    rng = np.random.default_rng(l)
    Ht = unit_columns(rng, l, n)
    Ht[:, n - duplicates:] = Ht[:, :duplicates]
    for rho0 in (0.37, 1.0, 4.0):
        params = unfold.init_params(Ht, np.zeros((n, n)), rho0, 2, 0.005)
        W_ref, B_ref = precompute_reference(Ht, rho0)
        B = apply_B(params, np.eye(n))
        for layer in params.layers:
            assert np.linalg.norm(layer.W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
        assert np.linalg.norm(B - B_ref) <= 1e-12 * np.linalg.norm(B_ref)


def test_init_layers_share_one_fixed_w(tmp_path):
    """Every layer holds the same W array, which is neither learned nor
    written to a checkpoint."""
    params = unfold.init_params(unit_columns(np.random.default_rng(2), 3, 7), np.zeros((7, 7)),
                                0.5, 3, 0.005)
    assert all(layer.W is params.layers[0].W for layer in params.layers)
    assert not any(np.shares_memory(arr, params.layers[0].W)
                   for _, arr in params.named_arrays())
    state = train.TrainState(ae=autoenc.init_weights(4, (3,), 2, 0), unfold=params)
    cli.save_checkpoint(str(tmp_path / "ckpt"), state)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert all(tag.startswith("ae.") for tag in manifest["tensors"])
    assert sorted(manifest["unfold"]["scalars"]) == sorted(n for n, _ in params.named_arrays())


def test_init_rejects_zero_layers():
    with pytest.raises(ValueError):
        unfold.init_params(np.eye(2), np.zeros((2, 2)), 0.5, 0, 0.005)


def test_init_rejects_nonzero_z_diagonal():
    with pytest.raises(ValueError, match="zero diagonal"):
        unfold.init_params(np.eye(3), np.eye(3), 0.5, 1, 0.005)


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 3)])
def test_init_rejects_a_z_seed_that_is_not_n_by_n(shape):
    """Z0 must be n x n for the n samples of H0, here 4."""
    with pytest.raises(ValueError, match="n x n"):
        unfold.init_params(np.ones((2, 4)), np.zeros(shape), 0.5, 1, 0.005)


def test_init_keeps_the_z_seed_as_a_canonical_csr_array():
    """A dense Z0 is converted, and a non-canonical one is summed into a
    canonical copy, leaving the caller's array as it was; both become
    float64 CSR arrays with the given entries."""
    dense = np.array([[0, 2, 0], [2, 0, 0], [0, 1, 0]])
    raw = sparse.csr_array((np.array([1.5, 0.5, 2.0, 1.0]), np.array([1, 1, 0, 1]),
                            np.array([0, 2, 3, 4])), shape=(3, 3))
    assert not raw.has_canonical_format
    raw_parts = [a.copy() for a in (raw.data, raw.indices, raw.indptr)]
    for Z0 in (dense, raw):
        params = unfold.init_params(np.eye(3), Z0, 0.5, 2, 0.005)
        assert params.Z0.format == "csr" and params.Z0.dtype == np.float64
        assert params.Z0.has_canonical_format
        assert np.array_equal(params.Z0.toarray(), dense)
    for a, b in zip((raw.data, raw.indices, raw.indptr), raw_parts):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- forward


def test_forward_single_layer_identity_trace():
    """H~ = I2, rho0 = 1: the layer computes C = W H~ - B (0 - Z0) =
    (2/3) I + Z0 / 3, whose diagonal the output loses to zeroing, so a zero
    Z0 gives a zero output. No layer shrinks, so the tape stores nothing."""
    params = unfold.init_params(np.eye(2), np.zeros((2, 2)), 1.0, 1, 0.25)
    C, tape = unfold.forward(params, np.eye(2))
    assert np.array_equal(C, np.zeros((2, 2)))
    z0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = unfold.init_params(np.eye(2), z0, 1.0, 1, 0.25)
    C, tape = unfold.forward(params, np.eye(2))
    assert np.allclose(C, z0 / 3.0, atol=1e-14)
    assert tape.rho == tape.theta == tape.T == []


def test_forward_matches_classic_solver():
    """Analytic init with theta = lam / rho replays the classic iteration."""
    rng = np.random.default_rng(5)
    for K in (1, 2, 3, 5):
        Ht = unit_columns(rng, 6, 14)
        lam, rho0 = 0.15, 0.6
        params = unfold.init_params(Ht, np.zeros((14, 14)), rho0, K, lam / rho0)
        C_net, _ = unfold.forward(params, Ht)
        st = classic.solve(Ht, lam, rho0, K)
        C_ref = st.C.copy()
        np.fill_diagonal(C_ref, 0.0)
        denom = max(np.linalg.norm(C_ref), 1e-300)
        assert np.linalg.norm(C_net - C_ref) / denom <= 1e-10


def test_forward_accepts_knn_z_init():
    rng = np.random.default_rng(9)
    n = 12
    Ht = unit_columns(rng, 5, n)
    z0 = graph.knn_adjacency(rng.standard_normal((4, n)), 3)
    params = unfold.init_params(Ht, z0, 0.7, 3, 0.005)
    C, tape = unfold.forward(params, Ht)
    assert np.all(np.diagonal(C) == 0.0)
    for k in range(2):
        assert np.all(np.diagonal(tape.Z(k).reshape(n, n)) == 0.0)


@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3, 3)])
def test_forward_rejects_a_latent_not_of_h0_shape(shape):
    """The network runs on latents of the shape it was built from, 2 x 3
    here: n x n arrays for another n, or another latent width, are
    refused before anything is allocated."""
    params = unfold.init_params(np.eye(2, 3), np.zeros((3, 3)), 0.5, 2, 0.005)
    with pytest.raises(ValueError, match="H0's shape"):
        unfold.forward(params, np.ones(shape))


# --------------------------------------------------------------- backward


def loss_and_grads(params, Ht, weights):
    """Quadratic probe loss 0.5 * sum(G * C)^2-free: use fixed random G."""
    C, tape = unfold.forward(params, Ht)
    value = float(np.sum(weights * C))
    grads, gHt = unfold.backward(params, tape, weights.copy())
    return value, grads, gHt


def kink_margin(params, Ht):
    """Smallest |.|T| - theta| margin across the layers that shrink; FD
    needs it > step."""
    _, tape = unfold.forward(params, Ht)
    margin = np.inf
    for T, theta in zip(tape.T, tape.theta):
        margin = min(margin, float(np.min(np.abs(np.abs(T) - theta))))
    return margin


def test_backward_matches_finite_differences():
    checked = 0
    seed = 0
    while checked < 3:
        assert seed < 50, "could not find enough kink-free instances"
        seed += 1
        local = np.random.default_rng(seed)
        n, l, K = 8, 5, 2
        Ht = unit_columns(local, l, n)
        z0 = graph.knn_adjacency(local.standard_normal((3, n)), 3)
        params = unfold.init_params(Ht, z0, 0.7, K, 0.08)
        for name, arr in params.named_arrays():
            arr += 0.02 * local.standard_normal(arr.shape)
        if kink_margin(params, Ht) < 1e-3:
            continue
        G = local.standard_normal((n, n))
        _, grads, gHt = loss_and_grads(params, Ht, G)

        def value():
            C, _ = unfold.forward(params, Ht)
            return float(np.sum(G * C))

        for name, arr in params.named_arrays():
            fd = fd_gradient(value, arr)
            assert rel_err(grads[name], fd) < 1e-4, name
        fd_ht = fd_gradient(value, Ht)
        assert rel_err(gHt, fd_ht) < 1e-4
        checked += 1


def test_backward_zero_grad_gives_zero():
    rng = np.random.default_rng(29)
    Ht = unit_columns(rng, 4, 8)
    params = unfold.init_params(Ht, np.zeros((8, 8)), 0.5, 2, 0.005)
    C, tape = unfold.forward(params, Ht)
    grads, gHt = unfold.backward(params, tape, np.zeros((8, 8)))
    for name, g in grads.items():
        assert np.all(np.asarray(g) == 0.0), name
    assert np.all(gHt == 0.0)


def test_backward_linear_in_output_grad():
    rng = np.random.default_rng(31)
    Ht = unit_columns(rng, 4, 8)
    params = unfold.init_params(Ht, np.zeros((8, 8)), 0.5, 2, 0.005)
    G = rng.standard_normal((8, 8))
    g1, h1 = unfold.backward(params, unfold.forward(params, Ht)[1], G.copy())
    g2, h2 = unfold.backward(params, unfold.forward(params, Ht)[1], 2.0 * G)
    for name in g1:
        assert np.allclose(2.0 * np.asarray(g1[name]), np.asarray(g2[name]), rtol=1e-12)
    assert np.allclose(2.0 * h1, h2, rtol=1e-12)


def test_grad_ignores_output_diagonal():
    """The returned C has a pinned diagonal, so diagonal gradient entries
    must not leak into the parameters."""
    rng = np.random.default_rng(37)
    Ht = unit_columns(rng, 4, 6)
    params = unfold.init_params(Ht, np.zeros((6, 6)), 0.5, 2, 0.005)
    G = rng.standard_normal((6, 6))
    _, tape = unfold.forward(params, Ht)
    g_off, _ = unfold.backward(params, tape, G * (1 - np.eye(6)))
    _, tape = unfold.forward(params, Ht)
    g_full, _ = unfold.backward(params, tape, G.copy())
    for name in g_off:
        assert np.allclose(np.asarray(g_off[name]), np.asarray(g_full[name]), atol=1e-15)


def test_backward_overwrites_grad_and_rejects_what_it_cannot():
    """The output gradient is the backward's working gC: a writable float64
    n x n array is overwritten, and anything else is refused rather than
    silently copied."""
    rng = np.random.default_rng(41)
    Ht = unit_columns(rng, 4, 6)
    params = unfold.init_params(Ht, np.zeros((6, 6)), 0.5, 2, 0.005)
    _, tape = unfold.forward(params, Ht)
    G = rng.standard_normal((6, 6))
    G_in = G.copy()
    unfold.backward(params, tape, G_in)
    assert not np.array_equal(G_in, G)
    for bad in (np.broadcast_to(G[0], (6, 6)), G.astype(np.float32), G[:5, :5].copy(),
                G.tolist()):
        with pytest.raises(ValueError, match="grad_C"):
            unfold.backward(params, tape, bad)


def perturbed_instance(seed, K, with_z0, n=20, l=6):
    """Parameters moved off the analytic init, with a kNN Z0 or a dense zero
    one, a latent moved off the H0 it was taken at (as training moves it),
    and an output gradient with a nonzero diagonal. The threshold starts at
    0.8 / n, near the size of the first C's entries, so that some of them
    shrink to zero and some do not."""
    rng = np.random.default_rng(seed)
    Ht = unit_columns(rng, l, n)
    z0 = graph.knn_adjacency(rng.standard_normal((3, n)), 4) if with_z0 else np.zeros((n, n))
    params = unfold.init_params(Ht, z0, 0.6, K, 0.8 / n)
    for _, arr in params.named_arrays():
        arr += 0.05 * rng.standard_normal(arr.shape)
    Ht = Ht + 0.05 * rng.standard_normal(Ht.shape)
    G = rng.standard_normal((n, n))
    assert np.all(np.diagonal(G) != 0.0)
    return params, Ht, G


def duals(tape):
    """mu_1 .. mu_{K-1}, read off a package tape as mu_{k+1} = rho_k (T_k - Z_k)."""
    return [rho * (T - tape.Z(k)) for k, (rho, T) in enumerate(zip(tape.rho, tape.T))]


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("with_z0", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_and_backward_bit_identical_to_reference(K, with_z0, seed):
    """Against the plain whole-array reference passes in the package's
    algebra, C = W (H~ + H0 V / rho0) - V / rho0 on the dense form of Z0 and
    T = C + mu / rho, every value is bit-identical. At n = 20 every
    elementwise pass is one row block."""
    assert classic.row_blocks(20, 20) == [(0, 20)]
    check_against_reference(K, with_z0, seed, 20)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("with_z0", [False, True])
def test_multi_segment_passes_bit_identical_to_reference(K, with_z0):
    """As above at n = 300, where every elementwise pass runs in three row
    blocks of 100 rows, and each gradient adds row sums from all three."""
    assert classic.row_blocks(300, 300) == [(0, 100), (100, 200), (200, 300)]
    check_against_reference(K, with_z0, 0, 300)


def check_against_reference(K, with_z0, seed, n):
    """The two tests above. The backward writes W H0 gC over the returned C,
    as ``train.total_loss`` runs it."""
    params, Ht, G = perturbed_instance(seed, K, with_z0, n)
    C, tape = unfold.forward(params, Ht)
    C_ref, tape_ref = unfold_forward_reference(params, Ht, params.Z0.toarray())
    assert np.array_equal(C, C_ref)
    assert params.Z0.format == "csr"
    # The tape stores the shrinkage inputs of the K - 1 layers that shrink;
    # the top layer's C is the output (compared above).
    assert tape.rho == tape_ref.rho[:-1]
    assert tape.theta == [layer.theta for layer in params.layers[:-1]]
    assert len(tape.T) == len(tape_ref.T) == len(tape_ref.Z_out) == K - 1
    for k in range(K - 1):
        assert np.array_equal(tape.T[k], tape_ref.T[k]), k
        assert np.array_equal(tape.Z(k), tape_ref.Z_out[k]), k
    if K > 1:
        # Both shrinkage sides occur, so the masked branch is exercised.
        assert 0 < np.count_nonzero(tape_ref.Z_out[0]) < n * (n - 1)

    grads, gHt = unfold.backward(params, tape, G.copy(), scratch=C)
    grads_ref, gHt_ref = unfold_backward_reference(params, tape_ref, G)
    assert grads.keys() == grads_ref.keys()
    for name, want in grads_ref.items():
        assert grads[name].shape == want.shape, name
        assert np.array_equal(grads[name], want), name
    assert np.array_equal(gHt, gHt_ref)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("with_z0", [False, True])
@pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (20, 2), (300, 0)])
def test_forward_and_backward_match_the_solver_algebra(K, with_z0, n, seed):
    """Against the reference passes in the textbook dual recurrence
    mu_{k+1} = mu_k + rho_k (C_k - Z_k), in the solver's own algebra,
    C = W H~ - B V with the dense n x n B from its own solve, and in the
    W form C = W (H~ + H0 V / rho0) - V / rho0: every value, each dual read
    off the tape and the H~ gradient are within 1e-12 relative, and the rho
    and theta gradients, each a sum of n^2 terms that cancel, within A2's
    1e-10. Measured worst over these cases against the dense form: 4.2e-14
    for C, T, Z and the H~ gradient, 5.9e-13 for the duals (the difference
    T - Z) and 1.9e-12 for the scalar gradients; against the W form,
    3.8e-16, 5.5e-15 and 4.2e-13."""
    params, Ht, G = perturbed_instance(seed, K, with_z0, n)
    C, tape = unfold.forward(params, Ht)
    grads, gHt = unfold.backward(params, tape, G.copy())
    for B in (dense_B_reference(params), None):
        C_ref, tape_ref = unfold_forward_mu_reference(params, Ht, params.Z0.toarray(), B)
        assert rel_frobenius(C, C_ref) <= 1e-12
        for k in range(K - 1):
            assert rel_frobenius(tape.T[k], tape_ref.T[k]) <= 1e-12, k
            assert rel_frobenius(tape.Z(k), tape_ref.Z_out[k]) <= 1e-12, k
        for k, mu in enumerate(duals(tape), start=1):
            assert rel_frobenius(mu, tape_ref.mu_in[k]) <= 1e-12, k

        grads_ref, gHt_ref = unfold_backward_mu_reference(params, tape_ref, G, B)
        assert grads.keys() == grads_ref.keys()
        for name, want in grads_ref.items():
            assert rel_frobenius(grads[name], want) <= 1e-10, name
        assert rel_frobenius(gHt, gHt_ref) <= 1e-12


def test_one_tape_serves_two_backward_passes():
    """The backward only reads the tape: two passes on one tape give the
    same bits, and leave every tape array and scalar as the forward wrote
    it."""
    params, Ht, G = perturbed_instance(2, 4, True)
    C, tape = unfold.forward(params, Ht)
    before = [T.tobytes() for T in tape.T]
    scalars = (list(tape.rho), list(tape.theta))
    first, gHt_first = unfold.backward(params, tape, G.copy(), scratch=C)
    second, gHt_second = unfold.backward(params, tape, G.copy(), scratch=tape.spare)
    assert [T.tobytes() for T in tape.T] == before
    assert (tape.rho, tape.theta) == scalars
    assert first.keys() == second.keys()
    for name, g in first.items():
        assert second[name].tobytes() == g.tobytes(), name
    assert gHt_second.tobytes() == gHt_first.tobytes()


def test_backward_scratch_must_not_alias_what_it_reads():
    """W H0 gC may go over the returned C or the tape's spare, but not
    over grad_C or any array the tape stores, which the backward reads;
    nor into an array of another shape or dtype."""
    params, Ht, G = perturbed_instance(2, 4, True)
    C, tape = unfold.forward(params, Ht)
    assert len(tape.T) == 3
    for bad in (G, G[:, :], *tape.T, C[:, :-1], C.astype(np.float32)):
        with pytest.raises(ValueError, match="scratch"):
            unfold.backward(params, tape, G, scratch=bad)
    unfold.backward(params, tape, G, scratch=tape.spare)


@pytest.mark.parametrize("K", [1, 3])
def test_backward_returns_new_0d_gradients(K):
    """Every gradient is a new 0-d array, apart from the parameters and from
    the last call's gradients, with the bits of that call."""
    params, Ht, G = perturbed_instance(5, K, True)
    first, gHt_first = unfold.backward(params, unfold.forward(params, Ht)[1], G.copy())
    grads, gHt = unfold.backward(params, unfold.forward(params, Ht)[1], G.copy())
    learned = dict(params.named_arrays())
    assert grads.keys() == first.keys() == learned.keys()
    for name, g in grads.items():
        assert g.shape == () and g is not first[name], name
        assert not np.may_share_memory(g, learned[name]), name
        assert g.tobytes() == first[name].tobytes(), name
    assert gHt.tobytes() == gHt_first.tobytes()


@pytest.mark.parametrize("K", [1, 2, 4])
def test_segment_size_does_not_change_a_bit(monkeypatch, K):
    """The 45 x 45 passes run as one row block by default, and in blocks of
    three rows, or of one row, with ``classic.ROW_BLOCK`` at three rows'
    length or below one row's; every output, tape array and gradient keeps
    the bits of the default, and each scalar gradient is that of the
    row-sum reference."""
    params, Ht, G = perturbed_instance(3, K, True, n=45)
    assert classic.row_blocks(45, 45) == [(0, 45)]
    C, tape = unfold.forward(params, Ht)
    grads, gHt = unfold.backward(params, unfold.forward(params, Ht)[1], G.copy())
    grads_ref, _ = unfold_backward_reference(
        params, unfold_forward_reference(params, Ht, params.Z0.toarray())[1], G)
    for name, g in grads.items():
        assert g.tobytes() == grads_ref[name].tobytes(), name
    for block, count in ((3 * 45, 15), (44, 45)):
        monkeypatch.setattr(classic, "ROW_BLOCK", block)
        assert len(classic.row_blocks(45, 45)) == count
        C_small, tape_small = unfold.forward(params, Ht)
        assert C_small.tobytes() == C.tobytes()
        for a, b in zip(tape_small.T, tape.T, strict=True):
            assert a.tobytes() == b.tobytes()
        grads_small, gHt_small = unfold.backward(params, tape_small, G.copy())
        for name, g in grads.items():
            assert grads_small[name].tobytes() == g.tobytes(), name
        assert gHt_small.tobytes() == gHt.tobytes()


def working_set_instance(n, K=3):
    rng = np.random.default_rng(11)
    Ht = unit_columns(rng, 32, n)
    z0 = graph.knn_adjacency(rng.standard_normal((4, n)), 10)
    params = unfold.init_params(Ht, z0, 0.5, K, 0.005)
    G = rng.standard_normal((n, n))
    return params, Ht, G


def forward_peak(n):
    params, Ht, _ = working_set_instance(n)
    return peak_nn_arrays(lambda: unfold.forward(params, Ht), n)


def forward_and_backward_peak(n, K=3):
    params, Ht, G = working_set_instance(n, K)

    def forward_and_backward():
        C, tape = unfold.forward(params, Ht)
        unfold.backward(params, tape, G, scratch=C)

    return peak_nn_arrays(forward_and_backward, n)


def test_forward_working_set():
    """Peak memory allocated by one forward pass at n = 300, in n x n
    arrays.

    Measured at 4.55 for K = 3: the K - 1 tape arrays T_0 and T_1, V,
    which becomes the returned C, and a scratch array, plus a row-block
    buffer for Z (100 rows, a third of an n x n array) and the l x n
    products. With buffers of a quarter, from flat segments, it was 4.48.
    No dual exists whole: each lives one block at a time, in the scratch.
    With a tape of each layer's C and, from mu_2 on, its dual, 4.56. With
    mu_1 stored until layer 1's pass ended and the returned C an array
    of its own it peaked at 5.47; with mu_1 and mu_2 as separate arrays, a
    stored top dual and the elementwise chains on whole arrays, at 6.0;
    storing the top layer's C and dual as well and returning a copy of C,
    at 7.2; allocating V, B V and the shrinkage temporaries afresh per
    layer on top of that, at 8.1.
    """
    assert forward_peak(300) <= 4.7


def test_forward_and_backward_working_set():
    """Peak memory allocated by one forward plus backward at n = 300, in
    n x n arrays, with the returned C as the backward's scratch, as
    ``train.total_loss`` runs them.

    Measured at 5.15 for K = 3: the forward's four arrays and a backward
    that works in them and in the caller's output gradient, writing
    W H0 gC over C and each gmu over gC's block, plus row-block buffers for
    Z, a scratch and a mask (0.71 of an n x n array together; 0.53, and
    4.98 in all, with flat segments of a quarter of the array). With a
    tape of C and dual and gmu written over the tape's C_1, 5.16. With a
    learned n x l W per layer and its gradient it peaked at 5.19; with gmu
    and the product of gC as n x n buffers of the backward's own, at 6.44;
    with the backward's Z, mu_1 and scratch as n x n buffers too, at 7.65;
    with mu_1 stored in the tape, at 8.6; with a tape of every
    layer's C and dual, a copied output gradient and fresh per-layer
    backward temporaries, at 11.3; with fresh forward temporaries and the
    relu-and-sign shrinkage besides at 12.2, with a learned dense B per
    layer at 13.3, and with a tape that also stores every layer's Z and an
    n x n mu_0 at 19.4.
    """
    assert forward_and_backward_peak(300) <= 5.2


def test_working_sets_at_n_1000():
    """The two working sets above at n = 1000, where the row-block buffers
    are about 0.07 of an n x n array together. Measured at 4.10 for the
    forward and 4.20 for forward plus backward: 2 + (K - 1) n x n arrays
    and little else (4.26 for the latter with a learned W per layer). With
    the backward's gmu and product of gC and the forward's mu_1 and
    returned C as arrays of their own they peaked at 5.10 and 5.29; with
    n x n buffers in place of row blocks, at 6.0 and 7.22."""
    assert forward_peak(1000) <= 4.4
    assert forward_and_backward_peak(1000) <= 4.5


@pytest.mark.parametrize("K, bound", [(4, 6.3), (5, 7.3)])
def test_deep_forward_and_backward_working_sets(K, bound):
    """Forward plus backward at n = 300 as above, with more layers: each
    layer below the top adds one tape array, T_k, and nothing else.
    Measured at 6.15 for K = 4 and 7.16 for K = 5, 2 + (K - 1) n x n
    arrays and the same row-block buffers. With a tape of each shrinking
    layer's C and, from mu_2 on, its dual, 2K - 4 arrays, they peaked at
    7.16 and 9.16."""
    assert forward_and_backward_peak(300, K) <= bound


@pytest.mark.parametrize("K", [1, 3])
def test_every_learned_array_gets_a_gradient(K):
    """No learned parameter is dead: on a generic instance, with every
    unfolded parameter moved off its analytic init, the composite loss has
    a gradient that is not identically zero for each array the model
    learns, and for no other name."""
    rng = np.random.default_rng(7)
    d, n = 8, 12
    X = rng.normal(size=(d, n))
    tc = cli.RunConfig(pretrain_epochs=0, joint_epochs=0, admm_layers=K,
                       threshold0=0.04, knn_init=4, knn_struct=3,
                       alpha=1.0, beta=0.1, gamma=0.1)
    state = train.init_state(d, cli.RunConfig(seed=7, hidden_dims=(6,), latent_dim=4))
    train.pretrain(state, X, tc)
    train.train_joint(state, X, tc)
    for _, arr in state.unfold.named_arrays():
        arr += 0.05 * rng.standard_normal(arr.shape)
    _, grads = train.total_loss(state, X, tc)
    names = [name for name, _ in state.named_arrays()]
    for name in names:
        assert np.any(grads[name] != 0.0), name
    assert grads.keys() == set(names)
    assert sum(name.endswith("theta_raw") for name in names) == K - 1


def test_positivity_preserved_under_updates():
    """However far the raw parameters move, rho stays positive and theta
    non-negative."""
    params = unfold.init_params(np.eye(4), np.zeros((4, 4)), 0.5, 2, 0.005)
    layer = params.layers[0]
    layer.rho_raw -= 100.0
    layer.theta_raw -= 100.0
    assert layer.rho > 0.0
    assert layer.theta >= 0.0
