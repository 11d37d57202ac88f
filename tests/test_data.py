"""Cube loading, patch extraction geometry, and the synthetic generators."""

import numpy as np
import pytest

from unfold_ssc import container, data
from unfold_ssc.errors import DataError


def make_cube(h=6, w=5, bands=3, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 2.0, size=(h, w, bands))
    if labels is None:
        labels = rng.integers(0, 3, size=(h, w))
    return data.HsiCube(values, labels)


# ---------------------------------------------------------------- loading


def test_load_cube_round_trip(tmp_path):
    cube = make_cube()
    vp, lp = tmp_path / "v.sscm", tmp_path / "l.sscm"
    container.write_array(vp, cube.values)
    container.write_array(lp, cube.labels.astype(float))
    back = data.load_cube(container.load_any(vp), container.load_any(lp))
    assert np.array_equal(back.values, cube.values)
    assert np.array_equal(back.labels, cube.labels)


def test_load_cube_2d_values_become_single_band(tmp_path):
    vp = tmp_path / "v.csv"
    vp.write_text("1.0,1.0,1.0\n" * 4)
    cube = data.load_cube(container.load_any(vp))
    assert cube.values.shape == (4, 3, 1)


def test_non_finite_entry_named(tmp_path):
    values = np.ones((2, 2, 3))
    values[1, 0, 2] = np.nan
    vp = tmp_path / "v.sscm"
    container.write_array(vp, values)
    with pytest.raises(DataError, match=r"\(1, 0, 2\)"):
        data.load_cube(container.load_any(vp))


def test_label_shape_mismatch():
    with pytest.raises(DataError, match="shape"):
        data.HsiCube(np.ones((3, 3, 2)), np.zeros((2, 3)))


def test_non_integer_labels_rejected():
    with pytest.raises(DataError, match="non-integer"):
        data.HsiCube(np.ones((2, 2, 1)), np.array([[0.5, 0], [0, 0]]))


def test_negative_labels_rejected():
    with pytest.raises(DataError, match="negative"):
        data.HsiCube(np.ones((2, 2, 1)), np.array([[-1, 0], [0, 0]]))


def test_load_matrix_with_vector_labels(tmp_path):
    X = np.arange(12.0).reshape(3, 4)
    vp, lp = tmp_path / "x.sscm", tmp_path / "y.csv"
    container.write_array(vp, X)
    lp.write_text("1\n1\n2\n2\n")
    back, labels = data.load_matrix(container.load_any(vp), container.load_any(lp))
    assert np.array_equal(back, X)
    assert np.array_equal(labels, [1, 1, 2, 2])


def test_load_matrix_label_count_mismatch(tmp_path):
    vp, lp = tmp_path / "x.sscm", tmp_path / "y.csv"
    container.write_array(vp, np.ones((3, 4)))
    lp.write_text("1\n2\n")
    with pytest.raises(DataError, match="labels for"):
        data.load_matrix(container.load_any(vp), container.load_any(lp))


# ------------------------------------------------------- band normalization


def test_normalize_bands_unit_range():
    cube = make_cube(seed=5)
    norm = data.normalize_bands(cube.values)
    assert norm.min() >= 0.0 and norm.max() <= 1.0
    for b in range(norm.shape[2]):
        assert norm[:, :, b].min() == 0.0
        assert norm[:, :, b].max() == 1.0


def test_constant_band_maps_to_zero():
    values = np.ones((3, 3, 2))
    values[:, :, 1] = np.arange(9.0).reshape(3, 3)
    norm = data.normalize_bands(values)
    assert np.all(norm[:, :, 0] == 0.0)
    assert norm[:, :, 1].max() == 1.0


# ---------------------------------------------------------------- patches


def test_patch_center_equals_pixel():
    """The center of each patch is the normalized pixel itself."""
    cube = make_cube(labels=np.ones((6, 5), dtype=int))
    ps = data.extract_patches(cube, 3)
    norm = data.normalize_bands(cube.values)
    for i, (r, c) in enumerate(ps.coords):
        assert np.array_equal(ps.X[:, i].reshape(3, 3, -1)[1, 1], norm[r, c, :])


def test_mirror_reflection_at_corner():
    """Patch at (0, 0) sees cube[1, 1] in its own (0, 0) corner."""
    cube = make_cube(labels=np.ones((6, 5), dtype=int))
    ps = data.extract_patches(cube, 3)
    norm = data.normalize_bands(cube.values)
    assert (ps.coords[0] == [0, 0]).all()
    corner = ps.X[:, 0].reshape(3, 3, -1)
    assert np.array_equal(corner[0, 0], norm[1, 1, :])
    assert np.array_equal(corner[0, 1], norm[1, 0, :])
    assert np.array_equal(corner[1, 0], norm[0, 1, :])


def test_only_labeled_pixels_kept_in_raster_order():
    labels = np.zeros((4, 4), dtype=int)
    labels[3, 1] = 2
    labels[0, 2] = 1
    labels[2, 2] = 5
    cube = make_cube(h=4, w=4, labels=labels)
    ps = data.extract_patches(cube, 3)
    assert np.array_equal(ps.coords, [[0, 2], [2, 2], [3, 1]])
    assert np.array_equal(ps.center_labels, [1, 5, 2])


def test_patch_count_matches_label_count():
    """A 100x200 scene with exactly 6445 labeled pixels yields 6445 patches."""
    rng = np.random.default_rng(7)
    labels = np.zeros(100 * 200, dtype=int)
    chosen = rng.choice(labels.size, size=6445, replace=False)
    labels[chosen] = rng.integers(1, 9, size=6445)
    labels = labels.reshape(100, 200)
    cube = data.HsiCube(rng.uniform(size=(100, 200, 4)), labels)
    ps = data.extract_patches(cube, 13)
    assert ps.X.shape == (13 * 13 * 4, 6445)


def test_even_patch_rejected():
    with pytest.raises(DataError, match="odd"):
        data.extract_patches(make_cube(), 4)


def test_unlabeled_cube_rejected():
    cube = make_cube(labels=np.zeros((6, 5), dtype=int))
    with pytest.raises(DataError, match="no labeled"):
        data.extract_patches(cube, 3)


def test_patch_column_order():
    """Each column is its patch's entries in (row, col, band) order, read
    from the mirror-padded normalized cube, and the matrix is C-contiguous."""
    cube = make_cube(labels=np.ones((6, 5), dtype=int))
    ps = data.extract_patches(cube, 3)
    padded = np.pad(data.normalize_bands(cube.values), ((1, 1), (1, 1), (0, 0)),
                    mode="reflect")
    p, b = 3, cube.bands
    assert ps.X.shape == (p * p * b, len(ps.coords)) and ps.X.flags.c_contiguous
    for i, (r0, c0) in enumerate(ps.coords):
        for r in range(p):
            for c in range(p):
                for band in range(b):
                    assert ps.X[(r * p + c) * b + band, i] == padded[r0 + r, c0 + c, band]


def test_single_band_patches():
    cube = data.HsiCube(np.arange(30.0).reshape(5, 6, 1), np.ones((5, 6), dtype=int))
    ps = data.extract_patches(cube, 3)
    assert ps.X.shape == (3 * 3 * 1, 30)


# -------------------------------------------------------------- generators


def test_gen_subspaces_shapes_and_norms():
    X, labels = data.gen_subspaces(0, k=3, ambient_dim=30, sub_dim=3, per_cluster=10, sigma=0.01)
    assert X.shape == (30, 30)
    assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)
    assert np.array_equal(np.unique(labels), [1, 2, 3])
    assert np.all(np.bincount(labels)[1:] == 10)


def test_gen_subspaces_deterministic():
    a, la = data.gen_subspaces(42, 2, 10, 2, 5, 0.05)
    b, lb = data.gen_subspaces(42, 2, 10, 2, 5, 0.05)
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)


def test_gen_subspaces_collinear_degenerate():
    """k=1, sub_dim=1, sigma=0: every column is the same line up to sign."""
    X, _ = data.gen_subspaces(3, k=1, ambient_dim=8, sub_dim=1, per_cluster=6, sigma=0.0)
    gram = np.abs(X.T @ X)
    assert np.allclose(gram, 1.0, atol=1e-10)


def test_gen_subspaces_points_near_subspace():
    """With sigma=0 every point lies exactly in a sub_dim subspace."""
    X, labels = data.gen_subspaces(1, k=2, ambient_dim=12, sub_dim=3, per_cluster=8, sigma=0.0)
    for c in (1, 2):
        block = X[:, labels == c]
        s = np.linalg.svd(block, compute_uv=False)
        assert s[3] < 1e-10


def test_gen_cube_labels_cover_classes():
    cube = data.gen_synthetic_cube(0, k=4, shape=(20, 20), bands=16, sigma=0.02)
    assert cube.values.shape == (20, 20, 16)
    assert np.array_equal(np.unique(cube.labels), [1, 2, 3, 4])


def test_gen_cube_regions_are_rectangles():
    cube = data.gen_synthetic_cube(5, k=4, shape=(10, 12), bands=4, sigma=0.0)
    for c in range(1, 5):
        rows, cols = np.where(cube.labels == c)
        height = rows.max() - rows.min() + 1
        width = cols.max() - cols.min() + 1
        assert height * width == len(rows)


def test_gen_cube_zero_noise_constant_within_class():
    cube = data.gen_synthetic_cube(2, k=3, shape=(6, 6), bands=5, sigma=0.0)
    for c in range(1, 4):
        pix = cube.values[cube.labels == c]
        assert np.all(pix == pix[0])


def test_gen_cube_deterministic():
    a = data.gen_synthetic_cube(9, 4, (8, 8), 6, 0.1)
    b = data.gen_synthetic_cube(9, 4, (8, 8), 6, 0.1)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_gen_cube_too_many_classes():
    with pytest.raises(DataError):
        data.gen_synthetic_cube(0, k=50, shape=(2, 3), bands=2, sigma=0.0)
