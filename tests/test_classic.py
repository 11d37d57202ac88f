"""The iterative ADMM solver: algebra of each step and solver behavior."""

import numpy as np
import pytest

from unfold_ssc import classic, data
from unfold_ssc.errors import NumericalError
from _oracles import (classic_solve_plain, classic_solve_reference, peak_nn_arrays,
                      precompute_reference, rel_frobenius, relu_soft_threshold,
                      soft_threshold_scalar)


# ------------------------------------------------------------- precompute


def dense_B(Vt, w, rho):
    """B = (I - Vt^T diag(w) Vt) / rho rebuilt from the factor."""
    return (np.eye(Vt.shape[1]) - Vt.T @ (w[:, np.newaxis] * Vt)) / rho


def test_precompute_identity_dictionary():
    """Y = I2, rho = 1: system is 3I, so B = I/3."""
    Vt, w = classic.precompute(np.eye(2), 1.0)
    B = dense_B(Vt, w, 1.0)
    assert np.allclose(B, 1.0 / 3.0 * np.eye(2), atol=1e-14)


def dictionary(kind):
    rng = np.random.default_rng(1)
    if kind == "rank_deficient":
        Y = rng.standard_normal((6, 9))
        Y[:, 5:] = Y[:, :4]          # four duplicate columns: rank 5 < min(d, n)
        return Y
    d = {"d_lt_n": 6, "d_eq_n": 9, "d_gt_n": 14}[kind]
    return rng.standard_normal((d, 9))


SHAPES = ["d_lt_n", "d_eq_n", "d_gt_n", "rank_deficient"]


@pytest.mark.parametrize("kind", SHAPES)
def test_precompute_solves_the_system(kind):
    Y = dictionary(kind)
    rho = 0.37
    Vt, w = classic.precompute(Y, rho)
    B = dense_B(Vt, w, rho)
    system = 2.0 * Y.T @ Y + rho * np.eye(9)
    assert np.allclose(system @ B, np.eye(9), atol=1e-10)


@pytest.mark.parametrize("kind", SHAPES)
def test_precompute_matches_cholesky_reference(kind):
    Y = dictionary(kind)
    for rho in (0.37, 1.0, 4.0):
        Vt, w = classic.precompute(Y, rho)
        B = dense_B(Vt, w, rho)
        _, B_ref = precompute_reference(Y, rho)
        assert np.linalg.norm(B - B_ref) <= 1e-12 * np.linalg.norm(B_ref)


def test_precompute_rejects_bad_rho():
    with pytest.raises(ValueError):
        classic.precompute(np.eye(2), 0.0)


# ----------------------------------------------------------- soft threshold


def test_soft_threshold_hand_values():
    assert classic.soft_threshold(0.5, 0.2) == pytest.approx(0.3, abs=1e-15)
    assert classic.soft_threshold(-0.1, 0.2) == 0.0
    assert classic.soft_threshold(-0.7, 0.2) == pytest.approx(-0.5, abs=1e-15)


def test_soft_threshold_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3, 3, size=500)
    tau = 0.4
    out = classic.soft_threshold(xs, tau)
    for x, o in zip(xs, out):
        assert o == soft_threshold_scalar(float(x), tau)


def test_soft_threshold_properties():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(300) * 2
    y = rng.standard_normal(300) * 2
    tau = 0.3
    sx = classic.soft_threshold(x, tau)
    sy = classic.soft_threshold(y, tau)
    assert np.array_equal(classic.soft_threshold(-x, tau), -sx)     # odd
    assert np.all(np.abs(sx - sy) <= np.abs(x - y) + 1e-15)         # 1-Lipschitz
    assert np.all(np.abs(sx) <= np.abs(x))                          # shrinkage
    assert np.array_equal(classic.soft_threshold(x, 0.0), x)        # identity at 0


def test_soft_threshold_agrees_with_relu_form_off_the_reals():
    """NaN stays NaN and infinities keep their sign in both shrinkage forms
    (zeros compare equal whatever their sign)."""
    tau = 0.25
    x = np.array([np.nan, np.inf, -np.inf, tau, -tau, 2 * tau, -2 * tau, 0.0, -0.0])
    piecewise = classic.soft_threshold(x, tau)
    assert np.array_equal(piecewise, relu_soft_threshold(x, tau), equal_nan=True)
    assert np.array_equal(piecewise, [np.nan, np.inf, -np.inf, 0, 0, tau, -tau, 0, 0],
                          equal_nan=True)


def test_soft_threshold_negative_tau_rejected():
    with pytest.raises(ValueError):
        classic.soft_threshold(1.0, -0.1)


# ------------------------------------------------------------------ steps


def test_step_c_is_exact_minimizer():
    """The C update zeroes the gradient of the augmented Lagrangian:
    2 Y^T (Y C - X) + mu + rho (C - Z) = 0."""
    rng = np.random.default_rng(3)
    Y = X = rng.standard_normal((5, 8))
    Z = rng.standard_normal((8, 8))
    mu = rng.standard_normal((8, 8))
    rho = 0.9
    Vt, w = classic.precompute(X, rho)
    D = mu / rho - Z
    C = classic.step_C(Vt, w, D) - D
    grad = 2.0 * Y.T @ (Y @ C - X) + mu + rho * (C - Z)
    assert np.allclose(grad, 0.0, atol=1e-10)


def test_step_z_matches_scalar_loop():
    """The Z of a one-iteration solve, entry by entry: u is 0 in that
    iteration, so Z is C shrunk at lam / rho with a zero diagonal."""
    X = np.random.default_rng(5).standard_normal((4, 6))
    rho, lam = 0.8, 0.08
    st = classic.solve(X, lam, rho, 1)
    for i in range(6):
        for j in range(6):
            want = 0.0 if i == j else soft_threshold_scalar(st.C[i, j], lam / rho)
            assert st.Z[i, j] == want
    off_diagonal = st.Z[~np.eye(6, dtype=bool)]
    assert np.any(off_diagonal == 0.0) and np.any(off_diagonal != 0.0)


def test_step_mu_accumulates_residual():
    """The dual ascends on the constraint: one more iteration adds
    rho (C - Z) of that iteration to mu."""
    X = np.random.default_rng(4).standard_normal((5, 8))
    rho = 2.0
    one = classic.solve(X, 0.1, rho, 1)
    two = classic.solve(X, 0.1, rho, 2)
    assert np.allclose(one.mu, rho * (one.C - one.Z), atol=1e-14)
    assert np.allclose(two.mu - one.mu, rho * (two.C - two.Z), atol=1e-13)


# ------------------------------------------------------------------ solve


def test_solve_one_iteration_hand_trace():
    """X = I2, lam = 0.3, rho = 1: C1 = (2/3) I, Z1 = 0 (diagonal pinned),
    mu1 = (2/3) I, residual sqrt(2) * 2/3."""
    st = classic.solve(np.eye(2), 0.3, 1.0, 1)
    assert np.allclose(st.C, 2.0 / 3.0 * np.eye(2), atol=1e-14)
    assert np.array_equal(st.Z, np.zeros((2, 2)))
    assert np.allclose(st.mu, 2.0 / 3.0 * np.eye(2), atol=1e-14)
    assert st.residuals[0] == pytest.approx(np.sqrt(2.0) * 2.0 / 3.0, rel=1e-12)


def test_z_diagonal_always_zero():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 7))
    st = classic.solve(X, 0.05, 0.5, 25)
    assert np.all(np.diagonal(st.Z) == 0.0)


def test_residual_shrinks_with_iterations():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((6, 10))
    r5 = classic.solve(X, 0.1, 1.0, 5).residuals[-1]
    r100 = classic.solve(X, 0.1, 1.0, 100).residuals[-1]
    assert r100 < r5


def test_lam_zero_no_diag_fixed_point():
    """With lam = 0 and the diagonal constraint lifted, the stationarity
    condition 2 Y^T (Y C - X) + mu = 0 holds at convergence and C = Z."""
    rng = np.random.default_rng(19)
    X = rng.standard_normal((5, 6))
    rho = 1.0
    Vt, w = classic.precompute(X, rho)
    n = 6
    Z = np.zeros((n, n))
    u = np.zeros((n, n))
    for _ in range(500):
        D = u - Z
        C = classic.step_C(Vt, w, D) - D
        Z = classic.soft_threshold(C + u, 0.0)   # no diagonal pinning
        u = u + (C - Z)
    assert np.allclose(C, Z, atol=1e-8)
    grad = 2.0 * X.T @ (X @ C - X) + rho * u
    assert np.allclose(grad, 0.0, atol=1e-6)


def test_block_support_on_subspace_data():
    """Coefficient mass concentrates inside ground-truth blocks: off-block
    mass is at most 5% after 200 iterations."""
    X, labels = data.gen_subspaces(0, k=3, ambient_dim=30, sub_dim=3,
                                   per_cluster=40, sigma=0.01)
    st = classic.solve(X, 0.1, 1.0, 200)
    mass = np.abs(st.C)
    same = labels[:, np.newaxis] == labels[np.newaxis, :]
    off_block = mass[~same].sum() / mass.sum()
    assert off_block <= 0.05


def test_non_finite_input_raises():
    X = np.ones((3, 4))
    X[0, 0] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        classic.solve(X, 0.1, 1.0, 2)


def test_solve_rejects_zero_iterations():
    with pytest.raises(ValueError):
        classic.solve(np.eye(2), 0.1, 1.0, 0)


# ------------------------------------------------- against the dense-B loop


def reference_case(kind):
    rng = np.random.default_rng(23)
    if kind == "subspaces":
        X, _ = data.gen_subspaces(3, k=3, ambient_dim=20, sub_dim=3,
                                  per_cluster=15, sigma=0.01)
        return X, 200
    if kind == "rank_deficient":
        X = rng.standard_normal((8, 30))
        X[:, 20:] = X[:, :10]           # ten duplicate columns: rank 8, r = 8 < n / 2
        return X, 30
    d = {"d_lt_half_n": 6, "two_r_eq_n": 15, "d_eq_n": 30, "d_gt_n": 45}[kind]
    return rng.standard_normal((d, 30)), 30


@pytest.mark.parametrize("kind", ["d_lt_half_n", "two_r_eq_n", "d_eq_n", "d_gt_n",
                                  "rank_deficient", "subspaces"])
def test_solve_matches_dense_reference(kind):
    """The factored iteration reproduces the dense-B loop to rounding, for
    thin, square, tall and rank-deficient data."""
    X, iterations = reference_case(kind)
    got = classic.solve(X, 0.05, 0.8, iterations)
    want = classic_solve_reference(X, 0.05, 0.8, iterations)
    for name in ("C", "Z", "mu", "residuals"):
        assert rel_frobenius(getattr(got, name), getattr(want, name)) <= 1e-12, name


@pytest.mark.parametrize("kind", ["d_lt_half_n", "two_r_eq_n", "d_eq_n", "d_gt_n",
                                  "rank_deficient", "subspaces"])
def test_solve_bit_identical_to_plain_loop(kind):
    """The loop on fixed buffers computes exactly what a loop with fresh
    arrays every step computes: the same operations in the same order."""
    X, iterations = reference_case(kind)
    got = classic.solve(X, 0.05, 0.8, iterations)
    want = classic_solve_plain(X, 0.05, 0.8, iterations)
    for name in ("C", "Z", "mu", "residuals"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_step_functions_write_into_given_buffers():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((4, 9))
    Z, u = rng.standard_normal((9, 9)), rng.standard_normal((9, 9))
    Vt, w = classic.precompute(X, 0.7)
    D = u - Z
    C_new = classic.step_C(Vt, w, D)
    C = np.empty((9, 9))
    assert classic.step_C(Vt, w, D, out=C) is C
    assert np.array_equal(C, C_new)
    assert np.array_equal(D, u - Z)


@pytest.mark.parametrize("kind", ["d_eq_n", "subspaces"])
def test_row_block_size_does_not_change_a_bit(monkeypatch, kind):
    """The n x n passes run as one row block by default, and in blocks of a
    few rows, or of one row, with ``classic.ROW_BLOCK`` at a few rows'
    length or one row's; C, Z, mu and the residuals keep the default's
    bits."""
    X, iterations = reference_case(kind)
    n = X.shape[1]
    assert classic.row_blocks(n, n) == [(0, n)]
    want = classic.solve(X, 0.05, 0.8, iterations)
    for block, count in ((3 * n, -(-n // 3)), (n, n)):
        monkeypatch.setattr(classic, "ROW_BLOCK", block)
        assert len(classic.row_blocks(n, n)) == count
        got = classic.solve(X, 0.05, 0.8, iterations)
        for name in ("C", "Z", "mu", "residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_solve_working_set():
    """Peak memory allocated by a solve, in n x n arrays: u, C and the array
    that holds Z or D = u - Z make 3, measured at 3.63 (n = 300) and 3.10
    (n = 1000); a loop with fresh arrays every step peaks at 7.1."""
    for n, bound in ((300, 3.8), (1000, 3.2)):
        X = np.random.default_rng(0).standard_normal((30, n))
        assert peak_nn_arrays(lambda: classic.solve(X, 0.1, 1.0, 5), n) <= bound, n
