"""Tests for the patch autoencoder: shapes, losses, and hand gradients."""

import tracemalloc

import numpy as np
import pytest

from unfold_ssc import autoenc, classic
from unfold_ssc.errors import NumericalError

from _oracles import ae_loss_reference, decoder_reference, fd_gradient, rel_err


def small_weights(seed, input_dim=6, hidden=(5, 4), latent=3):
    return autoenc.init_weights(input_dim, hidden, latent, seed)


class TestInitWeights:
    def test_shapes_mirror(self):
        w = small_weights(0)
        assert [l.W.shape for l in w.enc] == [(5, 6), (4, 5), (3, 4)]
        assert [l.W.shape for l in w.dec] == [(4, 3), (5, 4), (6, 5)]
        for layer in w.enc + w.dec:
            assert np.all(layer.b == 0.0)

    def test_glorot_bounds(self):
        w = small_weights(3, input_dim=50)
        first = w.enc[0]
        limit = np.sqrt(6.0 / (50 + 5))
        assert np.all(np.abs(first.W) <= limit)
        # A 5x50 draw should not be degenerate.
        assert np.std(first.W) > 0.1 * limit

    def test_deterministic_in_seed(self):
        a = small_weights(7)
        b = small_weights(7)
        c = small_weights(8)
        assert np.array_equal(a.enc[0].W, b.enc[0].W)
        assert not np.array_equal(a.enc[0].W, c.enc[0].W)

    def test_named_arrays_cover_everything(self):
        w = small_weights(0)
        names = [name for name, _ in w.named_arrays()]
        assert names == [
            "enc0.W", "enc0.b", "enc1.W", "enc1.b", "enc2.W", "enc2.b",
            "dec0.W", "dec0.b", "dec1.W", "dec1.b", "dec2.W", "dec2.b",
        ]


class TestActivation:
    def test_leaky_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert autoenc.LEAKY_SLOPE == 0.01
        assert np.allclose(autoenc.leaky_relu(x), [-0.02, 0.0, 3.0])

    def test_slope_one_is_identity(self, monkeypatch):
        monkeypatch.setattr(autoenc, "LEAKY_SLOPE", 1.0)
        x = np.linspace(-4, 4, 17)
        assert np.array_equal(autoenc.leaky_relu(x), x)

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    def test_bit_identical_to_where_form(self, monkeypatch, slope):
        """max(x, slope x) equals where(x > 0, x, slope x) bit for bit,
        signed zeros, subnormals and NaN included, for every slope in
        [0, 1]; infinities too unless slope = 0, where 0 * inf is NaN."""
        special = [0.0, -0.0, np.nan, 1e-310, -1e-310]
        if slope > 0:
            special += [np.inf, -np.inf]
        x = np.concatenate([np.random.default_rng(3).normal(size=200), special])
        monkeypatch.setattr(autoenc, "LEAKY_SLOPE", slope)
        got = autoenc.leaky_relu(x)
        assert got.tobytes() == np.where(x > 0, x, slope * x).tobytes()


class TestEncodeDecode:
    def test_shapes(self):
        w = small_weights(0)
        X = np.random.default_rng(0).normal(size=(6, 9))
        H = autoenc.encode(w, X)
        assert H.shape == (9, 3)
        assert autoenc.ae_forward(w, X).Xhat.shape == (6, 9)

    def test_slope_one_zero_bias_is_linear(self, monkeypatch):
        # With identity activations and zero biases the whole autoencoder
        # is a single linear map, so superposition must hold exactly.
        monkeypatch.setattr(autoenc, "LEAKY_SLOPE", 1.0)
        w = small_weights(1)
        rng = np.random.default_rng(2)
        X1 = rng.normal(size=(6, 4))
        X2 = rng.normal(size=(6, 4))
        lhs = autoenc.ae_forward(w, 2.0 * X1 - 0.5 * X2)
        rhs1, rhs2 = autoenc.ae_forward(w, X1), autoenc.ae_forward(w, X2)
        assert np.allclose(lhs.H, 2.0 * rhs1.H - 0.5 * rhs2.H, atol=1e-12)
        assert np.allclose(lhs.Xhat, 2.0 * rhs1.Xhat - 0.5 * rhs2.Xhat, atol=1e-12)

    def test_forward_tape_matches_plain_calls(self):
        """The tape's codes equal ``encode``, and its decoder outputs, each
        bias added in place and each leaky ReLU applied in place, replay
        the reference's W @ D + b bit for bit: leaky ReLU on all but the
        last layer, which stays linear and gives Xhat. Checked on a narrow
        and a 300-wide input, with nonzero biases."""
        rng = np.random.default_rng(5)
        for input_dim, n in ((6, 7), (300, 50)):
            w = small_weights(4, input_dim=input_dim)
            for layer in w.enc + w.dec:
                layer.b += rng.normal(size=layer.b.shape)
            X = rng.normal(size=(input_dim, n))
            tape = autoenc.ae_forward(w, X)
            assert np.array_equal(tape.H, autoenc.encode(w, X))
            _, acts = decoder_reference(w, tape.H)
            assert len(tape.dec) == len(acts)
            for got, want in zip(tape.dec, acts):
                assert got.tobytes() == want.tobytes()
            assert tape.Xhat is tape.dec[-1]
            assert tape.Xhat.tobytes() == acts[-1].tobytes()

    def test_out_tape_is_written_over_with_the_fresh_pass_bits(self):
        """Given the last pass's tape, a pass with moved weights writes
        every layer output into that tape's arrays, overwriting what they
        held (X-hat, say, holding a gradient), with a fresh pass's bits."""
        rng = np.random.default_rng(6)
        w = small_weights(5, input_dim=300)
        X = rng.normal(size=(300, 40))
        old = autoenc.ae_forward(w, X)
        arrays = old.enc[1:] + old.dec[1:]
        old.Xhat.fill(np.nan)
        for _, arr in w.named_arrays():
            arr += 0.1 * rng.normal(size=arr.shape)
        fresh = autoenc.ae_forward(w, X)
        tape = autoenc.ae_forward(w, X, out=old)
        got = tape.enc[1:] + tape.dec[1:]
        want = fresh.enc[1:] + fresh.dec[1:]
        assert len(got) == len(want) == len(arrays)
        for g, was, f in zip(got, arrays, want):
            assert g is was
            assert g.tobytes() == f.tobytes()
        assert tape.dec[0] is tape.enc[-1] and tape.H.tobytes() == fresh.H.tobytes()

    def test_forward_keeps_one_array_per_layer(self):
        """One pass keeps each layer's output and nothing else: at d = 64,
        hidden (256, 64), latent 32, the sum of the layer widths, 736
        n-column rows (a pre-activation and an output per layer kept 1,409).
        The peak adds only the activation's sign mask."""
        n = 300
        w = autoenc.init_weights(64, (256, 64), 32, seed=0)
        X = np.random.default_rng(14).normal(size=(64, n))
        tracemalloc.start()
        try:
            tape = autoenc.ae_forward(w, X)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        widths = sum(a.shape[0] for a in tape.enc[1:] + tape.dec[1:])
        assert widths == 736
        assert widths <= kept / (n * 8) < widths + 2
        assert peak / (n * 8) <= 800


class TestAeLoss:
    def test_hand_example(self):
        X = np.array([[0.0], [0.0]])
        Xhat = np.array([[3.0], [4.0]])
        value, grad = autoenc.ae_loss(X, Xhat)
        assert value == 25.0
        assert np.array_equal(grad, [[6.0], [8.0]])

    def test_mean_over_samples(self):
        X = np.zeros((2, 2))
        Xhat = np.array([[3.0, 0.0], [4.0, 0.0]])
        value, _ = autoenc.ae_loss(X, Xhat)
        assert value == 12.5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 6))
        Xhat = rng.normal(size=(4, 6))
        _, grad = autoenc.ae_loss(X, Xhat)
        fd = fd_gradient(lambda: autoenc.ae_loss(X, Xhat)[0], Xhat)
        assert rel_err(grad, fd) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            autoenc.ae_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(64, 1024), (300, 400)], ids=["2**16", "300x400"])
    def test_written_over_xhat_matches_the_reference(self, shape):
        """Written over Xhat, the gradient is the reference's (2 / n)(Xhat - X)
        bit for bit, as is the allocating call's, and the loss is the
        reference's row-by-row sum exactly, in two row blocks or four."""
        rng = np.random.default_rng(12)
        X, Xhat = rng.normal(size=shape), rng.normal(size=shape)
        assert len(classic.row_blocks(*shape)) == {(64, 1024): 2, (300, 400): 4}[shape]
        v_ref, g_ref = ae_loss_reference(X, Xhat)
        v_alloc, g_alloc = autoenc.ae_loss(X, Xhat)
        buf = Xhat.copy()
        value, grad = autoenc.ae_loss(X, buf, out=buf)
        assert grad is buf
        assert grad.tobytes() == g_alloc.tobytes() == g_ref.tobytes()
        assert value == v_alloc == v_ref

    @pytest.mark.parametrize("shape", [(64, 1024), (300, 400), (9800, 7), (3, 5)])
    def test_row_block_size_does_not_change_a_bit(self, monkeypatch, shape):
        """With ``classic.ROW_BLOCK`` at one row's length, three rows' or 128
        entries (one row a block where a row holds more), the loss and the
        gradient keep the default blocks' bits."""
        rng = np.random.default_rng(14)
        X, Xhat = rng.normal(size=shape), rng.normal(size=shape)
        want_value, want_grad = autoenc.ae_loss(X, Xhat)
        d, n = shape
        for block in (n, 3 * n, 128):
            monkeypatch.setattr(classic, "ROW_BLOCK", block)
            assert len(classic.row_blocks(d, n)) == -(-d // max(1, block // n))
            value, grad = autoenc.ae_loss(X, Xhat)
            assert value == want_value, block
            assert grad.tobytes() == want_grad.tobytes(), block

    def test_without_out_leaves_xhat_untouched(self):
        rng = np.random.default_rng(13)
        X, Xhat = rng.normal(size=(5, 9)), rng.normal(size=(5, 9))
        before = Xhat.copy()
        _, grad = autoenc.ae_loss(X, Xhat)
        assert not np.shares_memory(grad, Xhat)
        assert Xhat.tobytes() == before.tobytes()


class TestNormalizeLatent:
    def test_three_four_five(self):
        H = np.array([[3.0, 4.0]])          # one sample, latent dim 2
        Ht = autoenc.normalize_latent(H)
        assert Ht.shape == (2, 1)
        assert np.allclose(Ht[:, 0], [0.6, 0.8])

    def test_columns_unit_norm(self):
        H = np.random.default_rng(3).normal(size=(8, 5))
        Ht = autoenc.normalize_latent(H)
        assert np.allclose(np.linalg.norm(Ht, axis=0), 1.0, atol=1e-12)

    def test_zero_code_rejected_by_sample(self):
        H = np.ones((3, 4))
        H[2] = 0.0
        with pytest.raises(NumericalError, match="sample 2"):
            autoenc.normalize_latent(H)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        H = rng.normal(size=(5, 4))
        G = rng.normal(size=(4, 5))          # weights on the (l, n) output

        def objective():
            return float(np.sum(G * autoenc.normalize_latent(H)))

        grad = autoenc.normalize_latent_backward(H, G)
        fd = fd_gradient(objective, H)
        assert rel_err(grad, fd) < 1e-6

    def test_backward_kills_radial_direction(self):
        # Scaling a latent code does not move its unit column, so the
        # pulled-back gradient must be orthogonal to the code itself.
        rng = np.random.default_rng(10)
        H = rng.normal(size=(5, 4))
        G = rng.normal(size=(4, 5))
        grad = autoenc.normalize_latent_backward(H, G)
        radial = np.sum(grad * H, axis=1)
        assert np.allclose(radial, 0.0, atol=1e-12)


class TestAeBackward:
    def test_all_weight_gradients_match_finite_differences(self):
        """Through both heads, as ``train.total_loss`` runs them: the decoder
        half, then the encoder half from the latent gradient plus the
        decoder's."""
        w = small_weights(6)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 8))
        GH = rng.normal(size=(8, 3))
        GX = rng.normal(size=(6, 8))

        def objective():
            tape = autoenc.ae_forward(w, X)
            return float(np.sum(GH * tape.H) + np.sum(GX * tape.Xhat))

        tape = autoenc.ae_forward(w, X)
        grads, gcode = autoenc.decoder_backward(w, tape, GX)
        grads.update(autoenc.encoder_backward(w, tape, GH.T + gcode))
        worst = 0.0
        for name, arr in w.named_arrays():
            fd = fd_gradient(objective, arr)
            worst = max(worst, rel_err(grads[name], fd))
        assert worst < 1e-5

    def test_out_buffers_receive_the_allocating_call_bits(self):
        """With ``out``, every gradient is written into the buffer of its
        name, overwriting whatever it held, with the allocating call's bits."""
        w = small_weights(6)
        rng = np.random.default_rng(7)
        X, GX = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        tape = autoenc.ae_forward(w, X)
        fresh = autoenc.ae_backward(w, tape, GX)
        bufs = {name: np.full_like(arr, np.nan) for name, arr in w.named_arrays()}
        grads = autoenc.ae_backward(w, tape, GX, bufs)
        assert grads.keys() == fresh.keys() == bufs.keys()
        for name, g in grads.items():
            assert g is bufs[name], name
            assert g.tobytes() == fresh[name].tobytes(), name

    def test_halves_compose_to_the_whole(self):
        """The decoder half, then the encoder half from the decoder's latent
        gradient, give ``ae_backward``'s gradients bit for bit."""
        w = small_weights(6)
        rng = np.random.default_rng(9)
        X, GX = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        tape = autoenc.ae_forward(w, X)
        whole = autoenc.ae_backward(w, tape, GX)
        dec, gcode = autoenc.decoder_backward(w, tape, GX)
        enc = autoenc.encoder_backward(w, tape, gcode)
        assert dec.keys() | enc.keys() == whole.keys() and not dec.keys() & enc.keys()
        for name, g in {**dec, **enc}.items():
            assert g.tobytes() == whole[name].tobytes(), name

    def test_zero_upstream_gives_zero_grads(self):
        w = small_weights(6)
        X = np.random.default_rng(8).normal(size=(6, 8))
        tape = autoenc.ae_forward(w, X)
        grads = autoenc.ae_backward(w, tape, np.zeros((6, 8)))
        for name, _ in w.named_arrays():
            assert np.all(grads[name] == 0.0)
