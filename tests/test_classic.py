"""The iterative ADMM solver: algebra of each step and solver behavior."""

import numpy as np
import pytest

from unfold_ssc import classic, data
from unfold_ssc.errors import NumericalError
from _oracles import precompute_reference, soft_threshold_scalar


# ------------------------------------------------------------- precompute


def test_precompute_identity_dictionary():
    """Y = I2, rho = 1: system is 3I, so B = I/3 and W = 2I/3."""
    W, B = classic.precompute(np.eye(2), None, 1.0)
    assert np.allclose(W, 2.0 / 3.0 * np.eye(2), atol=1e-14)
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
    W, B = classic.precompute(Y, None, rho)
    system = 2.0 * Y.T @ Y + rho * np.eye(9)
    assert np.allclose(system @ W, 2.0 * Y.T, atol=1e-10)
    assert np.allclose(system @ B, np.eye(9), atol=1e-10)


@pytest.mark.parametrize("kind", SHAPES)
def test_precompute_matches_cholesky_reference(kind):
    Y = dictionary(kind)
    for rho in (0.37, 1.0, 4.0):
        W, B = classic.precompute(Y, None, rho)
        W_ref, B_ref = precompute_reference(Y, rho)
        assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
        assert np.linalg.norm(B - B_ref) <= 1e-12 * np.linalg.norm(B_ref)


def test_precompute_rejects_bad_rho():
    with pytest.raises(ValueError):
        classic.precompute(np.eye(2), None, 0.0)


def test_precompute_checks_feature_match():
    with pytest.raises(ValueError, match="feature"):
        classic.precompute(np.eye(3), np.ones((2, 5)), 1.0)


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


def test_soft_threshold_negative_tau_rejected():
    with pytest.raises(ValueError):
        classic.soft_threshold(1.0, -0.1)


# ------------------------------------------------------------------ steps


def test_step_c_is_exact_minimizer():
    """The C update zeroes the gradient of the augmented Lagrangian:
    2 Y^T (Y C - X) + mu + rho (C - Z) = 0."""
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((5, 8))
    X = rng.standard_normal((5, 8))
    Z = rng.standard_normal((8, 8))
    mu = rng.standard_normal((8, 8))
    rho = 0.9
    W, B = classic.precompute(Y, X, rho)
    C = classic.step_C(W, B, X, Z, mu, rho)
    grad = 2.0 * Y.T @ (Y @ C - X) + mu + rho * (C - Z)
    assert np.allclose(grad, 0.0, atol=1e-10)


def test_step_z_matches_scalar_loop():
    rng = np.random.default_rng(5)
    C = rng.standard_normal((6, 6))
    mu = rng.standard_normal((6, 6))
    rho, lam = 0.8, 0.24
    Z = classic.step_Z(C, mu, rho, lam)
    for i in range(6):
        for j in range(6):
            want = 0.0 if i == j else soft_threshold_scalar(C[i, j] + mu[i, j] / rho, lam / rho)
            assert Z[i, j] == want


def test_step_mu_accumulates_residual():
    mu = np.zeros((2, 2))
    C = np.array([[0.0, 1.0], [2.0, 0.0]])
    Z = np.array([[0.0, 0.5], [1.0, 0.0]])
    out = classic.step_mu(mu, C, Z, 2.0)
    assert np.array_equal(out, 2.0 * (C - Z))


# ------------------------------------------------------------------ solve


def test_solve_one_iteration_hand_trace():
    """X = I2, lam = 0.3, rho = 1: C1 = (2/3) I, Z1 = 0 (diagonal pinned),
    mu1 = (2/3) I, residual sqrt(2) * 2/3."""
    st = classic.solve(np.eye(2), classic.ClassicConfig(lam=0.3, rho=1.0, iterations=1))
    assert np.allclose(st.C, 2.0 / 3.0 * np.eye(2), atol=1e-14)
    assert np.array_equal(st.Z, np.zeros((2, 2)))
    assert np.allclose(st.mu, 2.0 / 3.0 * np.eye(2), atol=1e-14)
    assert st.residuals[0] == pytest.approx(np.sqrt(2.0) * 2.0 / 3.0, rel=1e-12)


def test_z_diagonal_always_zero():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 7))
    st = classic.solve(X, classic.ClassicConfig(lam=0.05, rho=0.5, iterations=25))
    assert np.all(np.diagonal(st.Z) == 0.0)


def test_residual_shrinks_with_iterations():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((6, 10))
    cfg_short = classic.ClassicConfig(lam=0.1, rho=1.0, iterations=5)
    cfg_long = classic.ClassicConfig(lam=0.1, rho=1.0, iterations=100)
    r5 = classic.solve(X, cfg_short).residuals[-1]
    r100 = classic.solve(X, cfg_long).residuals[-1]
    assert r100 < r5


def test_lam_zero_no_diag_fixed_point():
    """With lam = 0 and the diagonal constraint lifted, the stationarity
    condition 2 Y^T (Y C - X) + mu = 0 holds at convergence and C = Z."""
    rng = np.random.default_rng(19)
    X = rng.standard_normal((5, 6))
    rho = 1.0
    W, B = classic.precompute(X, X, rho)
    n = 6
    Z = np.zeros((n, n))
    mu = np.zeros((n, n))
    for _ in range(500):
        C = classic.step_C(W, B, X, Z, mu, rho)
        Z = classic.soft_threshold(C + mu / rho, 0.0)   # no diagonal pinning
        mu = classic.step_mu(mu, C, Z, rho)
    assert np.allclose(C, Z, atol=1e-8)
    grad = 2.0 * X.T @ (X @ C - X) + mu
    assert np.allclose(grad, 0.0, atol=1e-6)


def test_block_support_on_subspace_data():
    """Coefficient mass concentrates inside ground-truth blocks: off-block
    mass is at most 5% after 200 iterations."""
    X, labels = data.gen_subspaces(0, k=3, ambient_dim=30, sub_dim=3,
                                   per_cluster=40, sigma=0.01)
    st = classic.solve(X, classic.ClassicConfig(lam=0.1, rho=1.0, iterations=200))
    mass = np.abs(st.C)
    same = labels[:, np.newaxis] == labels[np.newaxis, :]
    off_block = mass[~same].sum() / mass.sum()
    assert off_block <= 0.05


def test_non_finite_input_raises():
    X = np.ones((3, 4))
    X[0, 0] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        classic.solve(X, classic.ClassicConfig(iterations=2))


def test_solve_rejects_zero_iterations():
    with pytest.raises(ValueError):
        classic.solve(np.eye(2), classic.ClassicConfig(iterations=0))
