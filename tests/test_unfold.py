"""Unfolded network: analytic initialization, forward semantics, gradients."""

import json

import numpy as np
import pytest
from scipy import sparse

from unfold_ssc import autoenc, classic, cli, graph, train, unfold
from _oracles import (apply_B, dense_B_reference, fd_gradient, peak_nn_arrays,
                      precompute_reference, rel_err, rel_frobenius, relu_soft_threshold,
                      shrinkage_inputs, unfold_backward_reference, unfold_forward_reference)


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
    params = unfold.init_params(np.eye(2), 1.0, 3, 0.005)
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
        params = unfold.init_params(Ht, rho0, 2, 0.005)
        W_ref, B_ref = precompute_reference(Ht, rho0)
        B = apply_B(params, np.eye(n))
        for layer in params.layers:
            assert np.linalg.norm(layer.W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
        assert np.linalg.norm(B - B_ref) <= 1e-12 * np.linalg.norm(B_ref)


def test_init_layers_share_one_fixed_w(tmp_path):
    """Every layer holds the same W array, which is neither learned nor
    written to a checkpoint."""
    params = unfold.init_params(unit_columns(np.random.default_rng(2), 3, 7), 0.5, 3, 0.005)
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
        unfold.init_params(np.eye(2), 0.5, 0, 0.005)


# ---------------------------------------------------------------- forward


def test_forward_single_layer_identity_trace():
    """H~ = I2, rho0 = 1: the layer computes C = W H~ - B (0 - Z0) =
    (2/3) I + Z0 / 3, whose diagonal the output loses to zeroing, so a zero
    Z0 gives a zero output. No layer shrinks, so the tape stores nothing."""
    params = unfold.init_params(np.eye(2), 1.0, 1, 0.25)
    C, tape = unfold.forward(params, np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(C, np.zeros((2, 2)))
    z0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    C, tape = unfold.forward(params, np.eye(2), z0)
    assert np.allclose(C, z0 / 3.0, atol=1e-14)
    assert tape.rho == tape.theta == tape.mu_in == tape.C == []


def test_forward_matches_classic_solver():
    """Analytic init with theta = lam / rho replays the classic iteration."""
    rng = np.random.default_rng(5)
    for K in (1, 2, 3, 5):
        Ht = unit_columns(rng, 6, 14)
        lam, rho0 = 0.15, 0.6
        params = unfold.init_params(Ht, rho0, K, lam / rho0)
        C_net, _ = unfold.forward(params, Ht, np.zeros((14, 14)))
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
    params = unfold.init_params(Ht, 0.7, 3, 0.005)
    C, tape = unfold.forward(params, Ht, z0)
    assert np.all(np.diagonal(C) == 0.0)
    for k in range(2):
        assert np.all(np.diagonal(tape.Z(k).reshape(n, n)) == 0.0)


def test_forward_rejects_nonzero_z_diagonal():
    Ht = np.eye(3)
    params = unfold.init_params(Ht, 0.5, 1, 0.005)
    with pytest.raises(ValueError, match="diagonal"):
        unfold.forward(params, Ht, np.eye(3))


# --------------------------------------------------------------- backward


def loss_and_grads(params, Ht, z0, weights):
    """Quadratic probe loss 0.5 * sum(G * C)^2-free: use fixed random G."""
    C, tape = unfold.forward(params, Ht, z0)
    value = float(np.sum(weights * C))
    grads, gHt = unfold.backward(params, tape, weights.copy())
    return value, grads, gHt


def kink_margin(params, Ht, z0):
    """Smallest |.|T| - theta| margin across the layers that shrink; FD
    needs it > step."""
    _, tape = unfold.forward(params, Ht, z0)
    margin = np.inf
    for T, theta in zip(shrinkage_inputs(tape, params.n_layers - 1), tape.theta):
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
        params = unfold.init_params(Ht, 0.7, K, 0.08)
        for name, arr in params.named_arrays():
            arr += 0.02 * local.standard_normal(arr.shape)
        if kink_margin(params, Ht, z0) < 1e-3:
            continue
        G = local.standard_normal((n, n))
        _, grads, gHt = loss_and_grads(params, Ht, z0, G)

        def value():
            C, _ = unfold.forward(params, Ht, z0)
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
    params = unfold.init_params(Ht, 0.5, 2, 0.005)
    C, tape = unfold.forward(params, Ht, np.zeros((8, 8)))
    grads, gHt = unfold.backward(params, tape, np.zeros((8, 8)))
    for name, g in grads.items():
        assert np.all(np.asarray(g) == 0.0), name
    assert np.all(gHt == 0.0)


def test_backward_linear_in_output_grad():
    rng = np.random.default_rng(31)
    Ht = unit_columns(rng, 4, 8)
    params = unfold.init_params(Ht, 0.5, 2, 0.005)
    G = rng.standard_normal((8, 8))
    g1, h1 = unfold.backward(params, unfold.forward(params, Ht, np.zeros((8, 8)))[1], G.copy())
    g2, h2 = unfold.backward(params, unfold.forward(params, Ht, np.zeros((8, 8)))[1], 2.0 * G)
    for name in g1:
        assert np.allclose(2.0 * np.asarray(g1[name]), np.asarray(g2[name]), rtol=1e-12)
    assert np.allclose(2.0 * h1, h2, rtol=1e-12)


def test_grad_ignores_output_diagonal():
    """The returned C has a pinned diagonal, so diagonal gradient entries
    must not leak into the parameters."""
    rng = np.random.default_rng(37)
    Ht = unit_columns(rng, 4, 6)
    params = unfold.init_params(Ht, 0.5, 2, 0.005)
    G = rng.standard_normal((6, 6))
    _, tape = unfold.forward(params, Ht, np.zeros((6, 6)))
    g_off, _ = unfold.backward(params, tape, G * (1 - np.eye(6)))
    _, tape = unfold.forward(params, Ht, np.zeros((6, 6)))
    g_full, _ = unfold.backward(params, tape, G.copy())
    for name in g_off:
        assert np.allclose(np.asarray(g_off[name]), np.asarray(g_full[name]), atol=1e-15)


def test_backward_overwrites_grad_and_rejects_what_it_cannot():
    """The output gradient is the backward's working gC: a writable float64
    n x n array is overwritten, and anything else is refused rather than
    silently copied."""
    rng = np.random.default_rng(41)
    Ht = unit_columns(rng, 4, 6)
    params = unfold.init_params(Ht, 0.5, 2, 0.005)
    _, tape = unfold.forward(params, Ht, np.zeros((6, 6)))
    G = rng.standard_normal((6, 6))
    G_in = G.copy()
    unfold.backward(params, tape, G_in)
    assert not np.array_equal(G_in, G)
    for bad in (np.broadcast_to(G[0], (6, 6)), G.astype(np.float32), G[:5, :5].copy(),
                G.tolist()):
        with pytest.raises(ValueError, match="grad_C"):
            unfold.backward(params, tape, bad)


def perturbed_instance(seed, K, with_z0, n=20, l=6):
    """Parameters moved off the analytic init, a latent moved off the H0 it
    was taken at (as training moves it), a kNN Z0 (a CSR array) or a dense
    zero one, and an output gradient with a nonzero diagonal. The threshold
    starts at 0.8 / n, near the size of the first C's entries, so that some
    of them shrink to zero and some do not."""
    rng = np.random.default_rng(seed)
    Ht = unit_columns(rng, l, n)
    z0 = graph.knn_adjacency(rng.standard_normal((3, n)), 4) if with_z0 else np.zeros((n, n))
    params = unfold.init_params(Ht, 0.6, K, 0.8 / n)
    for _, arr in params.named_arrays():
        arr += 0.05 * rng.standard_normal(arr.shape)
    Ht = Ht + 0.05 * rng.standard_normal(Ht.shape)
    G = rng.standard_normal((n, n))
    assert np.all(np.diagonal(G) != 0.0)
    return params, Ht, z0, G


def as_square(x, n):
    """An n x n array, or the scalar 0, from the package tape as n x n."""
    return np.broadcast_to(x, (n, n))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("with_z0", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_and_backward_bit_identical_to_reference(K, with_z0, seed):
    """Against the plain reference passes in the package's algebra, C =
    W (H~ + H0 V / rho0) - V / rho0 on the dense form of Z0, every value is
    bit-identical. From K = 4 on, a stored dual mu_2 sits next to the
    recomputed mu_1. At n = 20 every elementwise pass is one row block."""
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
    """The two tests above. The backward writes W H0 gC over the returned C
    and gmu over the tape's top stored C, as ``train.total_loss`` runs it."""
    params, Ht, z0, G = perturbed_instance(seed, K, with_z0, n)
    z0_dense = sparse.csr_array(z0).toarray()
    C, tape = unfold.forward(params, Ht, z0)
    C_ref, tape_ref = unfold_forward_reference(params, Ht, z0_dense)
    assert np.array_equal(C, C_ref)
    assert tape.Z0.format == "csr"
    assert np.array_equal(tape.Z0.toarray(), tape_ref.Z0)
    # The tape stores the K - 1 layers that shrink; the top layer's C is
    # the output (compared above) and its dual input is read by nothing.
    assert tape.rho == tape_ref.rho[:-1]
    assert tape.theta == [layer.theta for layer in params.layers[:-1]]
    assert len(tape.C) == len(tape.mu_in) == K - 1 and len(tape_ref.C) == len(tape_ref.mu_in) == K
    if K > 1:
        # The first dual input is the scalar 0, not an n x n array of zeros.
        assert tape.mu_in[0] == 0.0 and not np.any(tape_ref.mu_in[0])
    if K > 2:
        # mu_1 is recomputed from C_0, not stored; the later duals are stored.
        assert tape.mu_in[1] is None
        assert all(isinstance(mu, np.ndarray) for mu in tape.mu_in[2:])
    for k in range(K - 1):
        assert np.array_equal(tape.C[k], tape_ref.C[k]), k
        assert np.array_equal(as_square(tape.mu(k), n), tape_ref.mu_in[k]), k
    T, T_ref = shrinkage_inputs(tape, K - 1), shrinkage_inputs(tape_ref, K - 1)
    assert len(T) == len(T_ref) == len(tape_ref.Z_out) == K - 1
    for a, b in zip(T, T_ref):
        assert np.array_equal(a, b)
    for k in range(K - 1):
        assert np.array_equal(tape.Z(k).reshape(n, n), tape_ref.Z_out[k]), k
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
    """Against the reference passes in the solver's own algebra, C =
    W H~ - B V with the dense n x n B from its own solve, every value and
    the H~ gradient are within 1e-12 relative, and the rho and theta
    gradients, each a sum of n^2 terms that cancel, within A2's 1e-10.
    Measured worst over these cases: 4.2e-14 for the arrays, 1.9e-12 for
    the scalar gradients."""
    params, Ht, z0, G = perturbed_instance(seed, K, with_z0, n)
    z0_dense = sparse.csr_array(z0).toarray()
    C, tape = unfold.forward(params, Ht, z0)
    B_dense = dense_B_reference(params)
    C_dense, tape_dense = unfold_forward_reference(params, Ht, z0_dense, B_dense)
    assert rel_frobenius(C, C_dense) <= 1e-12
    for k in range(K - 1):
        assert rel_frobenius(tape.C[k], tape_dense.C[k]) <= 1e-12, k
        assert rel_frobenius(as_square(tape.mu(k), n), tape_dense.mu_in[k]) <= 1e-12, k
    for a, b in zip(shrinkage_inputs(tape, K - 1), shrinkage_inputs(tape_dense, K - 1)):
        assert rel_frobenius(a, b) <= 1e-12
    for k in range(K - 1):
        assert rel_frobenius(tape.Z(k).reshape(n, n), tape_dense.Z_out[k]) <= 1e-12, k

    grads, gHt = unfold.backward(params, tape, G.copy(), scratch=C)
    grads_dense, gHt_dense = unfold_backward_reference(params, tape_dense, G, B_dense)
    assert grads.keys() == grads_dense.keys()
    for name, want in grads_dense.items():
        assert rel_frobenius(grads[name], want) <= 1e-10, name
    assert rel_frobenius(gHt, gHt_dense) <= 1e-12


def test_a_consumed_tape_refuses_to_be_read():
    """The backward writes gmu over the tape's top stored C, so afterwards
    ``mu``, ``Z`` and a second backward raise instead of reading it; a new
    forward pass gives a tape with the first one's bits."""
    params, Ht, z0, G = perturbed_instance(2, 3, True)
    C, tape = unfold.forward(params, Ht, z0)
    Z1 = tape.Z(1).copy()
    unfold.backward(params, tape, G.copy())
    assert tape.consumed
    for read in (lambda: tape.mu(1), lambda: tape.Z(0), lambda: tape.Z(1),
                 lambda: unfold.backward(params, tape, G.copy())):
        with pytest.raises(ValueError, match="consumed"):
            read()
    _, tape = unfold.forward(params, Ht, z0)
    assert not tape.consumed
    assert tape.Z(1).tobytes() == Z1.tobytes()


def test_backward_scratch_must_not_alias_what_it_reads():
    """W H0 gC may go over the returned C or the tape's spare, but not
    over grad_C or any array the tape stores, which the backward still
    reads; nor into an array of another shape or dtype. A refused scratch
    leaves the tape unconsumed."""
    params, Ht, z0, G = perturbed_instance(2, 4, True)
    C, tape = unfold.forward(params, Ht, z0)
    assert len(tape.C) == 3 and np.ndim(tape.mu_in[2]) == 2
    for bad in (G, G[:, :], *tape.C, tape.mu_in[2], C[:, :-1], C.astype(np.float32)):
        with pytest.raises(ValueError, match="scratch"):
            unfold.backward(params, tape, G, scratch=bad)
    assert not tape.consumed
    unfold.backward(params, tape, G, scratch=tape.spare)


@pytest.mark.parametrize("K", [1, 3])
def test_backward_returns_new_0d_gradients(K):
    """Every gradient is a new 0-d array, apart from the parameters and from
    the last call's gradients, with the bits of that call."""
    params, Ht, z0, G = perturbed_instance(5, K, True)
    first, gHt_first = unfold.backward(params, unfold.forward(params, Ht, z0)[1], G.copy())
    grads, gHt = unfold.backward(params, unfold.forward(params, Ht, z0)[1], G.copy())
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
    params, Ht, z0, G = perturbed_instance(3, K, True, n=45)
    assert classic.row_blocks(45, 45) == [(0, 45)]
    C, tape = unfold.forward(params, Ht, z0)
    grads, gHt = unfold.backward(params, unfold.forward(params, Ht, z0)[1], G.copy())
    grads_ref, _ = unfold_backward_reference(
        params, unfold_forward_reference(params, Ht, sparse.csr_array(z0).toarray())[1], G)
    for name, g in grads.items():
        assert g.tobytes() == grads_ref[name].tobytes(), name
    for block, count in ((3 * 45, 15), (44, 45)):
        monkeypatch.setattr(classic, "ROW_BLOCK", block)
        assert len(classic.row_blocks(45, 45)) == count
        C_small, tape_small = unfold.forward(params, Ht, z0)
        assert C_small.tobytes() == C.tobytes()
        for a, b in zip(tape_small.C + tape_small.mu_in, tape.C + tape.mu_in, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        grads_small, gHt_small = unfold.backward(params, tape_small, G.copy())
        for name, g in grads.items():
            assert grads_small[name].tobytes() == g.tobytes(), name
        assert gHt_small.tobytes() == gHt.tobytes()


def working_set_instance(n):
    rng = np.random.default_rng(11)
    Ht = unit_columns(rng, 32, n)
    z0 = graph.knn_adjacency(rng.standard_normal((4, n)), 10)
    params = unfold.init_params(Ht, 0.5, 3, 0.005)
    G = rng.standard_normal((n, n))
    return params, Ht, z0, G


def forward_peak(n):
    params, Ht, z0, _ = working_set_instance(n)
    return peak_nn_arrays(lambda: unfold.forward(params, Ht, z0), n)


def forward_and_backward_peak(n):
    params, Ht, z0, G = working_set_instance(n)

    def forward_and_backward():
        C, tape = unfold.forward(params, Ht, z0)
        unfold.backward(params, tape, G, scratch=C)

    return peak_nn_arrays(forward_and_backward, n)


def test_forward_working_set():
    """Peak memory allocated by one forward pass at n = 300, in n x n
    arrays.

    Measured at 4.56 for K = 3: the 2K - 4 tape arrays C_0 and C_1, V,
    which becomes the returned C, and a scratch array, plus a row-block
    buffer for Z (100 rows, a third of an n x n array) and the l x n
    products. With buffers of a quarter, from flat segments, it was 4.48. mu_1
    exists one block at a time, in V, and the top layer's dual never exists
    whole.
    With mu_1 stored until layer 1's pass ended and the returned C an array
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

    Measured at 5.16 for K = 3: the forward's four arrays and a backward
    that works in them and in the caller's output gradient, writing
    W H0 gC over C and gmu over the tape's C_1, plus row-block buffers for
    Z, a scratch and a mask (0.71 of an n x n array together; 0.53, and
    4.98 in all, with flat segments of a quarter of the array). With a
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
    forward and 4.20 for forward plus backward: 2 + (2K - 4) n x n arrays
    and little else (4.26 for the latter with a learned W per layer). With
    the backward's gmu and product of gC and the forward's mu_1 and
    returned C as arrays of their own they peaked at 5.10 and 5.29; with
    n x n buffers in place of row blocks, at 6.0 and 7.22."""
    assert forward_peak(1000) <= 4.4
    assert forward_and_backward_peak(1000) <= 4.5


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
    params = unfold.init_params(np.eye(4), 0.5, 2, 0.005)
    layer = params.layers[0]
    layer.rho_raw -= 100.0
    layer.theta_raw -= 100.0
    assert layer.rho > 0.0
    assert layer.theta >= 0.0
