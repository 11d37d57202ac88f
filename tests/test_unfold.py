"""Unfolded network: analytic initialization, forward semantics, gradients."""

import numpy as np
import pytest

from unfold_ssc import classic, graph, unfold
from _oracles import (fd_gradient, rel_err, unfold_backward_reference,
                      unfold_forward_reference)


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
    a = unfold.relu_soft_threshold(v, theta)
    b = classic.soft_threshold(v, theta)
    assert np.max(np.abs(a - b)) <= 1e-15


def test_relu_soft_threshold_boundary_and_zero():
    theta = 0.4
    for v in (-theta, 0.0, theta):
        assert unfold.relu_soft_threshold(v, theta) == 0.0
    assert np.array_equal(unfold.relu_soft_threshold(np.array([1.0, -1.0]), 0.0),
                          [1.0, -1.0])


# ------------------------------------------------------------------- init


def test_init_identity_example():
    """H~ = I2, rho0 = 1: W = (2/3) I, B = (1/3) I on every layer."""
    params = unfold.init_params(np.eye(2), 1.0, 3)
    for k in range(3):
        layer = params.layers[k]
        assert np.allclose(layer.W, 2.0 / 3.0 * np.eye(2), atol=1e-14)
        assert np.allclose(layer.B, 1.0 / 3.0 * np.eye(2), atol=1e-14)
        assert layer.rho == pytest.approx(1.0, rel=1e-14)
        assert layer.theta == pytest.approx(0.005, rel=1e-12)


def test_init_untied_layers_are_independent():
    params = unfold.init_params(np.eye(3), 0.5, 2)
    params.layers[0].W[0, 0] += 1.0
    assert params.layers[1].W[0, 0] != params.layers[0].W[0, 0]


def test_init_rejects_zero_layers():
    with pytest.raises(ValueError):
        unfold.init_params(np.eye(2), 0.5, 0)


# ---------------------------------------------------------------- forward


def test_forward_single_layer_identity_trace():
    """H~ = I2, rho0 = 1, zero init: the layer computes C = (2/3) I, which
    the output then loses to diagonal zeroing."""
    params = unfold.init_params(np.eye(2), 1.0, 1, theta0=0.25)
    C, tape = unfold.forward(params, np.eye(2))
    assert np.allclose(tape.C[-1], 2.0 / 3.0 * np.eye(2), atol=1e-14)
    assert np.array_equal(C, np.zeros((2, 2)))
    assert np.all(np.diagonal(tape.Z_out[0]) == 0.0)


def test_forward_matches_classic_solver():
    """Analytic init with theta = lam / rho replays the classic iteration."""
    rng = np.random.default_rng(5)
    for K in (1, 2, 3, 5):
        Ht = unit_columns(rng, 6, 14)
        lam, rho0 = 0.15, 0.6
        params = unfold.init_params(Ht, rho0, K, theta0=lam / rho0)
        C_net, _ = unfold.forward(params, Ht)
        st = classic.solve(Ht, classic.ClassicConfig(lam=lam, rho=rho0, iterations=K))
        C_ref = st.C.copy()
        np.fill_diagonal(C_ref, 0.0)
        denom = max(np.linalg.norm(C_ref), 1e-300)
        assert np.linalg.norm(C_net - C_ref) / denom <= 1e-10


def test_forward_accepts_knn_z_init():
    rng = np.random.default_rng(9)
    n = 12
    Ht = unit_columns(rng, 5, n)
    z0 = graph.knn_adjacency(rng.standard_normal((4, n)), 3)
    params = unfold.init_params(Ht, 0.7, 3)
    C, tape = unfold.forward(params, Ht, z0)
    assert np.all(np.diagonal(C) == 0.0)
    for Z in tape.Z_out:
        assert np.all(np.diagonal(Z) == 0.0)


def test_forward_rejects_nonzero_z_diagonal():
    Ht = np.eye(3)
    params = unfold.init_params(Ht, 0.5, 1)
    with pytest.raises(ValueError, match="diagonal"):
        unfold.forward(params, Ht, np.eye(3))


# --------------------------------------------------------------- backward


def loss_and_grads(params, Ht, z0, weights):
    """Quadratic probe loss 0.5 * sum(G * C)^2-free: use fixed random G."""
    C, tape = unfold.forward(params, Ht, z0)
    value = float(np.sum(weights * C))
    grads, gHt = unfold.backward(params, tape, weights)
    return value, grads, gHt


def kink_margin(params, Ht, z0):
    """Smallest |.|T| - theta| margin across layers; FD needs it > step."""
    _, tape = unfold.forward(params, Ht, z0)
    margin = np.inf
    for k in range(params.n_layers):
        theta = params.layers[k].theta
        margin = min(margin, float(np.min(np.abs(np.abs(tape.T[k]) - theta))))
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
        params = unfold.init_params(Ht, 0.7, K, theta0=0.08)
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
    params = unfold.init_params(Ht, 0.5, 2)
    C, tape = unfold.forward(params, Ht)
    grads, gHt = unfold.backward(params, tape, np.zeros((8, 8)))
    for name, g in grads.items():
        assert np.all(np.asarray(g) == 0.0), name
    assert np.all(gHt == 0.0)


def test_backward_linear_in_output_grad():
    rng = np.random.default_rng(31)
    Ht = unit_columns(rng, 4, 8)
    params = unfold.init_params(Ht, 0.5, 2)
    C, tape = unfold.forward(params, Ht)
    G = rng.standard_normal((8, 8))
    g1, h1 = unfold.backward(params, tape, G)
    g2, h2 = unfold.backward(params, tape, 2.0 * G)
    for name in g1:
        assert np.allclose(2.0 * np.asarray(g1[name]), np.asarray(g2[name]), rtol=1e-12)
    assert np.allclose(2.0 * h1, h2, rtol=1e-12)


def test_grad_ignores_output_diagonal():
    """The returned C has a pinned diagonal, so diagonal gradient entries
    must not leak into the parameters."""
    rng = np.random.default_rng(37)
    Ht = unit_columns(rng, 4, 6)
    params = unfold.init_params(Ht, 0.5, 2)
    C, tape = unfold.forward(params, Ht)
    G = rng.standard_normal((6, 6))
    g_off, _ = unfold.backward(params, tape, G * (1 - np.eye(6)))
    g_full, _ = unfold.backward(params, tape, G)
    for name in g_off:
        assert np.allclose(np.asarray(g_off[name]), np.asarray(g_full[name]), atol=1e-15)


def perturbed_instance(seed, K, with_z0, n=20, l=6):
    """Parameters moved off the analytic init, a kNN or zero Z0, and an
    output gradient with a nonzero diagonal."""
    rng = np.random.default_rng(seed)
    Ht = unit_columns(rng, l, n)
    z0 = graph.knn_adjacency(rng.standard_normal((3, n)), 4) if with_z0 else None
    params = unfold.init_params(Ht, 0.6, K, theta0=0.04)
    for _, arr in params.named_arrays():
        arr += 0.05 * rng.standard_normal(arr.shape)
    G = rng.standard_normal((n, n))
    assert np.all(np.diagonal(G) != 0.0)
    return params, Ht, z0, G


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("with_z0", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_and_backward_bit_identical_to_reference(K, with_z0, seed):
    params, Ht, z0, G = perturbed_instance(seed, K, with_z0)
    C, tape = unfold.forward(params, Ht, z0)
    C_ref, tape_ref = unfold_forward_reference(params, Ht, z0)
    assert np.array_equal(C, C_ref)
    assert np.array_equal(tape.Z0, tape_ref.Z0)
    assert tape.rho == tape_ref.rho
    for field in ("mu_in", "C", "Z_out", "T"):
        got, want = getattr(tape, field), getattr(tape_ref, field)
        assert len(got) == len(want) == K, field
        for a, b in zip(got, want):
            assert np.array_equal(a, b), field
    # Both shrinkage sides occur, so the masked branch is exercised.
    assert 0 < np.count_nonzero(tape.Z_out[0]) < Ht.shape[1] * (Ht.shape[1] - 1)

    grads, gHt = unfold.backward(params, tape, G)
    grads_ref, gHt_ref = unfold_backward_reference(params, tape_ref, G)
    assert grads.keys() == grads_ref.keys()
    for name, want in grads_ref.items():
        assert grads[name].shape == want.shape, name
        assert np.array_equal(grads[name], want), name
    assert np.array_equal(gHt, gHt_ref)


@pytest.mark.parametrize("K", [1, 3])
def test_last_layer_threshold_gets_zero_gradient(K):
    """The output C_K never passes through layer K's shrinkage."""
    params, Ht, z0, G = perturbed_instance(7, K, True)
    _, tape = unfold.forward(params, Ht, z0)
    grads, _ = unfold.backward(params, tape, G)
    assert grads[f"layer{K - 1}.theta_raw"] == 0.0
    if K > 1:
        assert grads["layer0.theta_raw"] != 0.0


def test_positivity_preserved_under_updates():
    """However far the raw parameters move, rho stays positive and theta
    non-negative."""
    params = unfold.init_params(np.eye(4), 0.5, 1)
    layer = params.layers[0]
    layer.rho_raw -= 100.0
    layer.theta_raw -= 100.0
    assert layer.rho > 0.0
    assert layer.theta >= 0.0
