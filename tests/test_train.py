"""Tests for the two-phase trainer: losses, optimizer, and gradient flow."""

import numpy as np
import pytest

from unfold_ssc import autoenc, graph, train, unfold

from _oracles import fd_gradient, rel_err


def tiny_problem(seed=0, d=8, n=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, n))
    cfg = autoenc.AeConfig(input_dim=d, hidden_dims=(6, 5), latent_dim=4)
    return X, cfg


def prepared_state(seed=0, n_layers=2, pre_epochs=30, weights=None):
    """State with frozen graphs and an analytically initialized network."""
    X, cfg = tiny_problem(seed)
    tc = train.TrainConfig(
        pretrain_epochs=pre_epochs, joint_epochs=0, n_layers=n_layers,
        knn_init=3, knn_struct=2,
        weights=weights or train.LossWeights(),
    )
    state = train.init_state(cfg, seed)
    train.pretrain(state, X, tc)
    train.train_joint(state, X, tc)
    return state, X, tc


class TestLossSr:
    def test_identity_columns_hand_values(self):
        Ht = np.eye(2)
        C = np.zeros((2, 2))
        value, gHt, gC = train.loss_sr(Ht, C)
        assert value == 1.0
        assert np.allclose(gC, -0.5 * np.eye(2))
        assert np.allclose(gHt, 0.5 * np.eye(2))

    def test_zero_residual_zero_subgradient(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=(5, 1))
        Ht = np.hstack([col, col])
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        value, gHt, gC = train.loss_sr(Ht, C)
        assert value == 0.0
        assert np.all(gHt == 0.0)
        assert np.all(gC == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        Ht = rng.normal(size=(5, 7))
        C = rng.normal(size=(7, 7)) * 0.3

        _, gHt, gC = train.loss_sr(Ht, C)
        fd_C = fd_gradient(lambda: train.loss_sr(Ht, C)[0], C)
        fd_Ht = fd_gradient(lambda: train.loss_sr(Ht, C)[0], Ht)
        assert rel_err(gC, fd_C) < 1e-6
        assert rel_err(gHt, fd_Ht) < 1e-6


class TestLossSp:
    def test_hand_example(self):
        C = np.array([[0.0, -0.6], [0.2, 0.0]])
        value, grad = train.loss_sp(C)
        assert np.isclose(value, 0.4)
        assert np.array_equal(grad, [[0.0, -0.5], [0.5, 0.0]])

    def test_gradient_matches_finite_differences_off_zero(self):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(6, 6)) + np.sign(rng.normal(size=(6, 6))) * 0.1
        _, grad = train.loss_sp(C)
        fd = fd_gradient(lambda: train.loss_sp(C)[0], C)
        assert rel_err(grad, fd) < 1e-6


class TestTotalLoss:
    def test_zero_weights_reduce_to_reconstruction(self):
        state, X, _ = prepared_state(weights=train.LossWeights(0.0, 0.0, 0.0))
        breakdown, _ = train.total_loss(state, X, train.LossWeights(0.0, 0.0, 0.0))
        tape = autoenc.ae_forward(state.ae, X)
        v_ae, _ = autoenc.ae_loss(X, tape.Xhat)
        assert breakdown.total == breakdown.ae == v_ae

    def test_requires_initialized_network(self):
        X, cfg = tiny_problem()
        state = train.init_state(cfg, 0)
        with pytest.raises(ValueError, match="train_joint"):
            train.total_loss(state, X, train.LossWeights())

    def test_breakdown_composition(self):
        state, X, _ = prepared_state(seed=4)
        w = train.LossWeights(alpha=2.0, beta=0.5, gamma=0.25)
        b, _ = train.total_loss(state, X, w)
        assert np.isclose(b.total, b.ae + 2.0 * b.sr + 0.5 * b.sp + 0.25 * b.st)

    def test_every_gradient_matches_finite_differences(self):
        # End-to-end check through decoder, encoder, latent normalization,
        # and the unfolded iterations at once. Parameters are nudged off
        # the analytic initialization so no shrinkage sits on its kink.
        state, X, _ = prepared_state(seed=0)
        rng = np.random.default_rng(100)
        for _, arr in state.unfold.named_arrays():
            arr += 0.01 * rng.normal(size=arr.shape)
        w = train.LossWeights(alpha=1.5, beta=0.2, gamma=0.1)

        def objective():
            b, _ = train.total_loss(state, X, w)
            return b.total

        _, grads = train.total_loss(state, X, w)
        worst = 0.0
        for name, arr in state.named_arrays():
            fd = fd_gradient(objective, arr)
            worst = max(worst, rel_err(grads[name], fd))
        assert worst < 1e-3


class TestAdamStep:
    def test_first_step_is_signed_learning_rate(self):
        p = np.array([1.0, -2.0])
        opt = train.AdamState(m={"p": np.zeros(2)}, v={"p": np.zeros(2)})
        cfg = train.TrainConfig(learning_rate=0.01)
        train.adam_step(opt, [("p", p)], {"p": np.array([3.0, -4.0])}, cfg)
        # With bias correction the first update is lr * g / (|g| + eps).
        assert np.allclose(p, [1.0 - 0.01, -2.0 + 0.01], atol=1e-9)
        assert opt.step == 1

    def test_threshold_parameters_get_multiplier(self):
        p = np.array(0.0)
        q = np.array(0.0)
        opt = train.AdamState(
            m={"unfold.layer0.theta_raw": np.zeros(()), "ae.enc0.W": np.zeros(())},
            v={"unfold.layer0.theta_raw": np.zeros(()), "ae.enc0.W": np.zeros(())},
        )
        cfg = train.TrainConfig(learning_rate=0.001, rho_theta_lr_mult=10.0)
        named = [("unfold.layer0.theta_raw", p), ("ae.enc0.W", q)]
        grads = {"unfold.layer0.theta_raw": np.array(1.0), "ae.enc0.W": np.array(1.0)}
        train.adam_step(opt, named, grads, cfg)
        assert np.isclose(p / q, 10.0, atol=1e-6)

    def test_constant_gradient_keeps_unit_scale_steps(self):
        p = np.array(5.0)
        opt = train.AdamState(m={"p": np.zeros(())}, v={"p": np.zeros(())})
        cfg = train.TrainConfig(learning_rate=0.1)
        for _ in range(5):
            train.adam_step(opt, [("p", p)], {"p": np.array(2.0)}, cfg)
        assert np.isclose(p, 5.0 - 5 * 0.1, atol=1e-6)


class TestPretrain:
    def test_zero_epochs_leave_weights_and_freeze_graphs(self):
        X, cfg = tiny_problem(seed=5)
        state = train.init_state(cfg, 5)
        before = {k: a.copy() for k, a in state.ae.named_arrays()}
        tc = train.TrainConfig(pretrain_epochs=0, knn_init=3, knn_struct=2)
        history = train.pretrain(state, X, tc)
        assert history == []
        for k, a in state.ae.named_arrays():
            assert np.array_equal(before[k], a)
        n = X.shape[1]
        assert state.z0.shape == (n, n)
        assert state.lap.shape == (n, n)

    def test_loss_decreases(self):
        X, cfg = tiny_problem(seed=6)
        state = train.init_state(cfg, 6)
        tc = train.TrainConfig(pretrain_epochs=400, knn_init=3, knn_struct=2)
        history = train.pretrain(state, X, tc)
        assert len(history) == 400
        assert history[-1] < 0.5 * history[0]

    def test_graphs_match_latent_neighbors(self):
        X, cfg = tiny_problem(seed=7)
        state = train.init_state(cfg, 7)
        tc = train.TrainConfig(pretrain_epochs=20, knn_init=3, knn_struct=2)
        train.pretrain(state, X, tc)
        H = autoenc.encode(state.ae, X)
        assert np.array_equal(state.z0, graph.knn_adjacency(H.T, 3))
        assert np.array_equal(state.adj, graph.knn_adjacency(H.T, 2))
        assert np.array_equal(state.lap, graph.laplacian(state.adj))

    def test_both_graphs_come_from_one_distance_pass(self, monkeypatch):
        calls = []
        original = graph.pairwise_sq_dists

        def counting(points):
            calls.append(points.shape)
            return original(points)

        monkeypatch.setattr(graph, "pairwise_sq_dists", counting)
        X, cfg = tiny_problem(seed=8)
        state = train.init_state(cfg, 8)
        train.pretrain(state, X, train.TrainConfig(pretrain_epochs=0, knn_init=3, knn_struct=2))
        assert len(calls) == 1
        assert state.z0 is not None and state.adj is not None


class TestTrainJoint:
    def test_requires_pretrain(self):
        X, cfg = tiny_problem()
        state = train.init_state(cfg, 0)
        with pytest.raises(ValueError, match="pretrain"):
            train.train_joint(state, X, train.TrainConfig())

    def test_history_and_descent(self):
        X, cfg = tiny_problem(seed=8)
        state = train.init_state(cfg, 8)
        tc = train.TrainConfig(
            pretrain_epochs=50, joint_epochs=80, n_layers=2,
            knn_init=3, knn_struct=2,
            weights=train.LossWeights(alpha=1.0, beta=0.1, gamma=0.01),
        )
        train.pretrain(state, X, tc)
        history = train.train_joint(state, X, tc)
        assert len(history) == 80
        assert all(b.finite() for b in history)
        assert history[-1].total < history[0].total
        assert state.unfold.n_layers == 2

    def test_zero_weights_track_reconstruction_only(self):
        X, cfg = tiny_problem(seed=9)
        state = train.init_state(cfg, 9)
        tc = train.TrainConfig(
            pretrain_epochs=30, joint_epochs=25, n_layers=2,
            knn_init=3, knn_struct=2,
            weights=train.LossWeights(0.0, 0.0, 0.0),
        )
        train.pretrain(state, X, tc)
        history = train.train_joint(state, X, tc)
        for b in history:
            assert b.total == b.ae
        assert history[-1].ae < history[0].ae

    def test_analytic_start_matches_fresh_unfold(self):
        # train_joint with zero epochs must leave the network exactly at
        # its analytic initialization for the current latents.
        state, X, tc = prepared_state(seed=10, n_layers=3)
        Ht = autoenc.normalize_latent(autoenc.encode(state.ae, X))
        fresh = unfold.init_params(Ht, tc.rho0, 3, theta0=tc.theta0)
        for (_, a), (_, b) in zip(state.unfold.named_arrays(), fresh.named_arrays()):
            assert np.array_equal(a, b)
