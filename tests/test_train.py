"""Tests for the two-phase trainer: losses, optimizer, and gradient flow."""

import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from unfold_ssc import autoenc, classic, cli, graph, train, unfold

from _oracles import fd_gradient, peak_arrays, peak_nn_arrays, rel_err, row_sum


def tiny_problem(seed=0, d=8, n=6, **config):
    """Data and a run config of small autoencoder widths, both from ``seed``."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, n))
    return X, cli.RunConfig(seed=seed, hidden_dims=(6, 5), latent_dim=4, **config)


def prepared_state(seed=0, admm_layers=2, pre_epochs=30, **weights):
    """State with frozen graphs and an analytically initialized network."""
    X, tc = tiny_problem(seed, pretrain_epochs=pre_epochs, joint_epochs=0,
                         admm_layers=admm_layers, knn_init=3, knn_struct=2, **weights)
    state = train.init_state(X.shape[0], tc)
    train.pretrain(state, X, tc)
    train.train_joint(state, X, tc)
    return state, X, tc


def test_train_does_not_import_cli_at_run_time():
    """The trainer reads the run config's fields; it names ``cli.RunConfig``
    for type checkers only, so the layer below the CLI never loads it."""
    code = "import sys, unfold_ssc.train; sys.exit('unfold_ssc.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


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

    @pytest.mark.parametrize("segment", [None, 900, 128])
    def test_segments_keep_the_whole_array_bits(self, monkeypatch, segment):
        """At n = 300 the loss runs in three default row blocks, or, with
        ``classic.ROW_BLOCK`` at three rows' length or below one row's, in
        100 or 300; its value has the bits of the row-sum reference, and
        its gradient and the weighted gradient it adds into another array
        those of the whole-array expressions."""
        if segment is not None:
            monkeypatch.setattr(classic, "ROW_BLOCK", segment)
        rng = np.random.default_rng(4)
        n = 300
        assert len(classic.row_blocks(n, n)) == {None: 3, 900: 100, 128: 300}[segment]
        C = rng.normal(size=(n, n)) * rng.integers(0, 2, size=(n, n))
        C[0, :3] = [0.0, -0.0, 1e-300]
        value, grad = train.loss_sp(C)
        assert value == float(row_sum(np.abs(C))) / n
        assert grad.tobytes() == (np.sign(C) / n).tobytes()
        base = rng.normal(size=(n, n))
        acc = base.copy()
        added_value, added = train.loss_sp(C, 0.3, add_to=acc)
        assert added_value == value and added is acc
        assert acc.tobytes() == (base + (np.sign(C) / n) * 0.3).tobytes()


class TestTotalLoss:
    def test_zero_weights_reduce_to_reconstruction(self):
        state, X, tc = prepared_state(alpha=0.0, beta=0.0, gamma=0.0)
        breakdown, _ = train.total_loss(state, X, tc)
        tape = autoenc.ae_forward(state.ae, X)
        v_ae, _ = autoenc.ae_loss(X, tape.Xhat)
        assert breakdown.total == breakdown.ae == v_ae

    def test_requires_initialized_network(self):
        X, tc = tiny_problem()
        state = train.init_state(X.shape[0], tc)
        with pytest.raises(ValueError, match="run pretrain"):
            train.total_loss(state, X, tc)

    def test_breakdown_composition(self):
        state, X, _ = prepared_state(seed=4)
        w = cli.RunConfig(alpha=2.0, beta=0.5, gamma=0.25)
        b, _ = train.total_loss(state, X, w)
        assert np.isclose(b.total, b.ae + 2.0 * b.sr + 0.5 * b.sp + 0.25 * b.st)

    def test_in_place_assembly_matches_separate_terms(self):
        """Summed in place, the coefficient gradient is
        alpha gC_sr + beta gC_sp + gamma gC_st of the three losses' own
        results, so every unfolded gradient matches bit for bit."""
        state, X, _ = prepared_state(seed=5, admm_layers=3)
        rng = np.random.default_rng(5)
        for _, arr in state.unfold.named_arrays():
            arr += 0.01 * rng.normal(size=arr.shape)
        w = cli.RunConfig(alpha=1.5, beta=0.2, gamma=0.1)
        breakdown, grads = train.total_loss(state, X, w)
        Ht = autoenc.normalize_latent(autoenc.encode(state.ae, X))
        C, tape = unfold.forward(state.unfold, Ht)
        v_sr, _, g_sr = train.loss_sr(Ht, C)
        v_sp, g_sp = train.loss_sp(C)
        v_st, g_st = graph.structure_loss(C, state.lap)
        assert (breakdown.sr, breakdown.sp, breakdown.st) == (v_sr, v_sp, v_st)
        gC = w.alpha * g_sr + w.beta * g_sp + w.gamma * g_st
        ugrads, _ = unfold.backward(state.unfold, tape, gC)
        for name, g in ugrads.items():
            assert np.array_equal(grads[name], g), name

    def test_total_loss_working_set(self):
        """Peak memory allocated by one composite loss and its gradients at
        n = 300, K = 3, in n x n arrays. Measured at 5.29: the unfolded
        forward's 2 + (K - 1) arrays, in which the losses and the
        backward work too (``test_unfold``'s working sets), the row-block
        buffers of 100 rows, and the autoencoder's arrays. With flat
        segments of 75 rows' entries it peaked at 5.32, and with a learned
        n x l W per layer at 5.77; with the loss gradients and the
        backward's gmu and product of gC in arrays of their own and a
        stored mu_1 it peaked at 6.67; with the backward on four n x n
        buffers, an n x n mu_1 and top dual in the forward and a structure
        loss on whole arrays, at 7.8; with a dense Z0, a stored mu_1 and
        the decoder's backward run last, at 9.1; with the full forward
        tape, a copied output gradient, fresh backward temporaries and a
        fresh array per loss gradient besides, at 12.1."""
        n, d = 300, 40
        rng = np.random.default_rng(11)
        X = rng.standard_normal((d, n))
        tc = cli.RunConfig(seed=3, hidden_dims=(32,), latent_dim=16, pretrain_epochs=0,
                           joint_epochs=0, admm_layers=3, knn_init=10, knn_struct=5)
        state = train.init_state(d, tc)
        train.pretrain(state, X, tc)
        train.train_joint(state, X, tc)
        assert peak_nn_arrays(lambda: train.total_loss(state, X, tc), n) <= 5.6

    def test_out_buffers_receive_the_allocating_call_bits(self):
        """On a state a few joint epochs in, ``total_loss(out=...)`` writes
        every gradient into the buffer of its name, overwriting whatever it
        held, with the allocating call's bits and the same loss values."""
        X, tc = tiny_problem(seed=13, pretrain_epochs=20, joint_epochs=3, admm_layers=3,
                             knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        train.train_joint(state, X, tc)
        b_fresh, fresh = train.total_loss(state, X, tc)
        bufs = {name: np.full_like(arr, np.nan) for name, arr in state.ae.named_arrays()}
        breakdown, grads = train.total_loss(state, X, tc, out=bufs)
        assert breakdown == b_fresh
        assert grads.keys() == fresh.keys() == {name for name, _ in state.named_arrays()}
        for name, g in grads.items():
            assert (g is bufs.get(name)) == (name in bufs), name
            assert g.tobytes() == fresh[name].tobytes(), name

    def test_wide_working_set(self):
        """Peak memory allocated by one composite loss written into the
        state's gradient buffers plus the Adam step, at d = 3000 >> n = 60,
        in d x n arrays. Measured at 1.42: Xhat, which the loss overwrites
        with its own gradient, and the 2**16-entry buffer of the row-block
        sum of squares. With the squares summed from one full-size array it
        peaked at 2.06, with freshly allocated gradients at 2.22, and with
        the difference and the gradient as new arrays besides at 3.22."""
        d, n = 3000, 60
        rng = np.random.default_rng(11)
        X = rng.standard_normal((d, n))
        tc = cli.RunConfig(seed=3, hidden_dims=(32,), latent_dim=16, pretrain_epochs=0,
                           joint_epochs=0, admm_layers=3, knn_init=10, knn_struct=5)
        state = train.init_state(d, tc)
        train.pretrain(state, X, tc)
        train.train_joint(state, X, tc)
        named = list(state.named_arrays())

        def epoch():
            _, grads = train.total_loss(state, X, tc, out=state.grads)
            train.adam_step(state.opt, named, grads, tc)

        assert peak_arrays(epoch, d, n) <= 1.9

    def test_every_gradient_matches_finite_differences(self):
        # End-to-end check through decoder, encoder, latent normalization,
        # and the unfolded iterations at once. Parameters are nudged off
        # the analytic initialization so no shrinkage sits on its kink.
        state, X, _ = prepared_state(seed=0)
        rng = np.random.default_rng(100)
        for _, arr in state.unfold.named_arrays():
            arr += 0.01 * rng.normal(size=arr.shape)
        w = cli.RunConfig(alpha=1.5, beta=0.2, gamma=0.1)

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
        cfg = cli.RunConfig(learning_rate=0.01)
        train.adam_step(opt, [("p", p)], {"p": np.array([3.0, -4.0])}, cfg)
        # With bias correction the first update is lr * g / (|g| + eps).
        assert np.allclose(p, [1.0 - 0.01, -2.0 + 0.01], atol=1e-9)
        assert opt.step == 1

    def test_threshold_parameters_get_multiplier(self):
        p = np.array(0.0)
        q = np.array(0.0)
        opt = train.AdamState(
            m={"layer0.theta_raw": np.zeros(()), "enc0.W": np.zeros(())},
            v={"layer0.theta_raw": np.zeros(()), "enc0.W": np.zeros(())},
        )
        cfg = cli.RunConfig(learning_rate=0.001, rho_theta_lr_mult=10.0)
        named = [("layer0.theta_raw", p), ("enc0.W", q)]
        grads = {"layer0.theta_raw": np.array(1.0), "enc0.W": np.array(1.0)}
        train.adam_step(opt, named, grads, cfg)
        assert np.isclose(p / q, 10.0, atol=1e-6)

    def test_constant_gradient_keeps_unit_scale_steps(self):
        p = np.array(5.0)
        opt = train.AdamState(m={"p": np.zeros(())}, v={"p": np.zeros(())})
        cfg = cli.RunConfig(learning_rate=0.1)
        for _ in range(5):
            train.adam_step(opt, [("p", p)], {"p": np.array(2.0)}, cfg)
        assert np.isclose(p, 5.0 - 5 * 0.1, atol=1e-6)

    def test_in_place_update_is_bit_identical_to_textbook_adam(self):
        rng = np.random.default_rng(12)
        # dec0.W holds one full ROW_BLOCK and a remainder of 246, two row blocks.
        shapes = {"enc0.W": (4, 5), "enc0.b": (5,), "layer0.rho_raw": (),
                  "dec0.W": (2, classic.ROW_BLOCK // 2 + 123)}
        assert len(classic.row_blocks(classic.ROW_BLOCK + 246, 1)) == 2
        params = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
        ref = {k: a.copy() for k, a in params.items()}
        ref_m = {k: np.zeros_like(a) for k, a in params.items()}
        ref_v = {k: np.zeros_like(a) for k, a in params.items()}
        opt = train.AdamState(m={k: np.zeros_like(a) for k, a in params.items()},
                              v={k: np.zeros_like(a) for k, a in params.items()})
        cfg = cli.RunConfig(learning_rate=0.003, rho_theta_lr_mult=7.0)
        for step in range(1, 4):
            grads = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
            train.adam_step(opt, list(params.items()), grads, cfg)
            for k, g in grads.items():
                lr = cfg.learning_rate * (7.0 if k.endswith("rho_raw") else 1.0)
                b1, b2 = train.ADAM_BETA1, train.ADAM_BETA2
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * (g * g)
                m_hat = ref_m[k] / (1.0 - b1**step)
                v_hat = ref_v[k] / (1.0 - b2**step)
                ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + train.ADAM_EPS)
                assert np.array_equal(params[k], ref[k]), (step, k)
                assert params[k].shape == shapes[k]

    def test_row_block_size_does_not_change_a_bit(self, monkeypatch):
        """Three steps in blocks of 1000 entries, of 7 or of one keep the
        default blocks' bits in every parameter and moment."""
        rng = np.random.default_rng(13)
        shapes = {"enc0.W": (40, 70), "enc0.b": (70,), "layer0.theta_raw": ()}
        grads = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(3)]
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        cfg = cli.RunConfig(learning_rate=0.003, rho_theta_lr_mult=7.0)

        def run():
            params = {k: a.copy() for k, a in start.items()}
            opt = train.AdamState(m={k: np.zeros_like(a) for k, a in params.items()},
                                  v={k: np.zeros_like(a) for k, a in params.items()})
            for g in grads:
                train.adam_step(opt, list(params.items()), g, cfg)
            return [a.tobytes() for d in (params, opt.m, opt.v) for a in d.values()]

        want = run()
        for block in (1000, 7, 1):
            monkeypatch.setattr(classic, "ROW_BLOCK", block)
            assert run() == want, block

    def test_rejects_a_non_contiguous_array(self):
        p = np.zeros((4, 3)).T
        opt = train.AdamState(m={"p": np.zeros_like(p)}, v={"p": np.zeros_like(p)})
        with pytest.raises(ValueError, match="C-contiguous"):
            train.adam_step(opt, [("p", p)], {"p": np.ones((3, 4))}, cli.RunConfig())


class TestPretrain:
    def test_zero_epochs_leave_weights_and_freeze_graphs(self):
        X, tc = tiny_problem(seed=5, pretrain_epochs=0, knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        before = {k: a.copy() for k, a in state.ae.named_arrays()}
        history = train.pretrain(state, X, tc)
        assert history == []
        for k, a in state.ae.named_arrays():
            assert np.array_equal(before[k], a)
        n = X.shape[1]
        assert state.unfold.Z0.shape == (n, n)
        assert state.lap.shape == (n, n)

    def test_loss_decreases(self):
        X, tc = tiny_problem(seed=6, pretrain_epochs=400, knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        history = train.pretrain(state, X, tc)
        assert len(history) == 400
        assert history[-1] < 0.5 * history[0]

    def test_graphs_match_latent_neighbors(self):
        X, tc = tiny_problem(seed=7, pretrain_epochs=20, knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        H = autoenc.encode(state.ae, X)
        assert state.unfold.Z0.format == "csr"
        assert np.array_equal(state.unfold.Z0.toarray(), graph.knn_adjacency(H.T, 3).toarray())
        lap = graph.laplacian(graph.knn_adjacency(H.T, 2))
        assert (state.lap != lap).nnz == 0

    def test_no_epoch_array_is_live_while_the_graphs_are_built(self, monkeypatch):
        """Pretraining writes each epoch's pass into the last one's tape and
        drops that tape after the last epoch, so when the graphs are built
        the memory allocated since the call began holds the Adam moments
        and the codes, and no d x n array (X-hat, its gradient). Measured
        at 0.1 d x n arrays; with the last epoch's tape still alive, 1.1."""
        X = np.random.default_rng(12).normal(size=(1000, 200))
        tc = cli.RunConfig(seed=12, hidden_dims=(4,), latent_dim=2, pretrain_epochs=2,
                           knn_init=5, knn_struct=3)
        state = train.init_state(X.shape[0], tc)
        live = []
        original = graph.knn_adjacency

        def recording(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return original(*args)

        monkeypatch.setattr(graph, "knn_adjacency", recording)
        tracemalloc.start()
        try:
            train.pretrain(state, X, tc)
        finally:
            tracemalloc.stop()
        assert len(live) == 1
        assert live[0] < 0.5 * X.nbytes, live[0] / X.nbytes

    def test_both_graphs_come_from_one_distance_pass(self, monkeypatch):
        """One screened pass: a single ``knn_adjacency`` call carries both
        neighbor counts."""
        calls = []
        original = graph.knn_adjacency

        def counting(points, *counts):
            calls.append(counts)
            return original(points, *counts)

        monkeypatch.setattr(graph, "knn_adjacency", counting)
        X, tc = tiny_problem(seed=8, pretrain_epochs=0, knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        assert calls == [(3, 2)]
        assert state.unfold is not None and state.lap is not None


class TestTrainJoint:
    def test_both_phases_write_one_gradient_buffer_set(self):
        """``init_state`` allocates a buffer per autoencoder array, pretrain
        writes its gradients into them, and ``train_joint`` keeps them and
        adds none for the unfolded network, whose gradients are 0-d."""
        X, tc = tiny_problem(seed=14, pretrain_epochs=2, joint_epochs=2, admm_layers=2,
                             knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        assert state.grads.keys() == {name for name, _ in state.named_arrays()}
        for buf in state.grads.values():
            buf.fill(np.nan)
        ae_bufs = dict(state.grads)
        train.pretrain(state, X, tc)
        assert all(np.all(np.isfinite(buf)) for buf in ae_bufs.values())
        train.train_joint(state, X, tc)
        assert state.grads.keys() == ae_bufs.keys()
        for name, buf in ae_bufs.items():
            assert state.grads[name] is buf, name

    def test_requires_pretrain(self):
        X, tc = tiny_problem()
        state = train.init_state(X.shape[0], tc)
        with pytest.raises(ValueError, match="pretrain"):
            train.train_joint(state, X, tc)

    def test_latent_codes_are_computed_once_at_the_phase_boundary(self, monkeypatch):
        """``pretrain`` encodes the data once, and builds the network from
        that one call's codes: its H0 is them normalized and its Z0 their
        ``knn_init``-neighbor graph, bit for bit. ``train_joint`` encodes
        nothing, and a second call trains on from where the first left off."""
        codes = []
        original = autoenc.encode

        def recording(*args):
            codes.append(original(*args))
            return codes[-1]

        monkeypatch.setattr(autoenc, "encode", recording)
        X, tc = tiny_problem(seed=15, pretrain_epochs=3, joint_epochs=2, admm_layers=2,
                             knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        (H,) = codes
        assert state.unfold.H0.tobytes() == autoenc.normalize_latent(H).tobytes()
        Z0 = graph.knn_adjacency(H.T, tc.knn_init)
        for a, b in zip((state.unfold.Z0.data, state.unfold.Z0.indices, state.unfold.Z0.indptr),
                        (Z0.data, Z0.indices, Z0.indptr)):
            assert a.tobytes() == b.tobytes()
        network = state.unfold
        first = train.train_joint(state, X, tc)
        second = train.train_joint(state, X, tc)
        assert len(codes) == 1 and state.unfold is network
        assert len(first) == len(second) == 2 and second[0].total != first[0].total

    def test_no_epoch_keeps_the_unfolded_arrays(self, monkeypatch):
        """Each joint epoch's n x n arrays, the forward's tape and its
        returned C, are freed before the next epoch's forward allocates
        its own, and nothing keeps them once ``train_joint`` returns."""
        X, tc = tiny_problem(seed=16, pretrain_epochs=2, joint_epochs=3, admm_layers=4,
                             knn_init=3, knn_struct=2)
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        seen = []  # weak references, which keep nothing alive
        original = unfold.forward

        def recording(*args):
            assert all(ref() is None for ref in seen)
            C, tape = original(*args)
            seen.extend(weakref.ref(a) for a in (tape, C, tape.spare, *tape.T))
            return C, tape

        monkeypatch.setattr(unfold, "forward", recording)
        train.train_joint(state, X, tc)
        assert len(seen) == 3 * (1 + 2 + (4 - 1))
        assert all(ref() is None for ref in seen)

    def test_history_and_descent(self):
        X, tc = tiny_problem(
            seed=8, pretrain_epochs=50, joint_epochs=80, admm_layers=2,
            knn_init=3, knn_struct=2, alpha=1.0, beta=0.1, gamma=0.01,
        )
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        history = train.train_joint(state, X, tc)
        assert len(history) == 80
        assert all(b.finite() for b in history)
        assert history[-1].total < history[0].total
        assert state.unfold.n_layers == 2

    def test_no_learned_or_optimizer_array_is_n_by_n(self):
        """The unfolded layers share one fixed B, so nothing learned, and no
        Adam moment, grows with n^2."""
        X, tc = tiny_problem(seed=8, pretrain_epochs=5, joint_epochs=2, admm_layers=3,
                             knn_init=3, knn_struct=2)
        n = X.shape[1]
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        train.train_joint(state, X, tc)
        assert state.opt.step == 2
        arrays = list(state.named_arrays())
        arrays += [(f"m.{name}", arr) for name, arr in state.opt.m.items()]
        arrays += [(f"v.{name}", arr) for name, arr in state.opt.v.items()]
        for name, arr in arrays:
            assert arr.size != n * n, name

    def test_zero_weights_track_reconstruction_only(self):
        X, tc = tiny_problem(
            seed=9, pretrain_epochs=30, joint_epochs=25, admm_layers=2,
            knn_init=3, knn_struct=2, alpha=0.0, beta=0.0, gamma=0.0,
        )
        state = train.init_state(X.shape[0], tc)
        train.pretrain(state, X, tc)
        history = train.train_joint(state, X, tc)
        for b in history:
            assert b.total == b.ae
        assert history[-1].ae < history[0].ae

    def test_analytic_start_matches_fresh_unfold(self):
        # train_joint with zero epochs must leave the network exactly at
        # its analytic initialization for the current latents.
        state, X, tc = prepared_state(seed=10, admm_layers=3)
        H = autoenc.encode(state.ae, X)
        fresh = unfold.init_params(autoenc.normalize_latent(H), graph.knn_adjacency(H.T, 3),
                                   tc.rho0, 3, tc.threshold0)
        for (_, a), (_, b) in zip(state.unfold.named_arrays(), fresh.named_arrays()):
            assert np.array_equal(a, b)
        assert np.array_equal(state.unfold.H0, fresh.H0)
        assert np.array_equal(state.unfold.M, fresh.M)
        assert state.unfold.rho0 == fresh.rho0
        assert (state.unfold.Z0 != fresh.Z0).nnz == 0
