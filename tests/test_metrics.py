"""Tests for clustering agreement metrics against oracles and hand sums."""

import numpy as np
import pytest

from unfold_ssc import metrics

from _oracles import accuracy_brute, nmi_plain


class TestContingency:
    def test_hand_table(self):
        table, pv, tv = metrics.contingency([0, 0, 1, 1], [5, 5, 5, 7])
        assert np.array_equal(table, [[2, 0], [1, 1]])
        assert np.array_equal(pv, [0, 1])
        assert np.array_equal(tv, [5, 7])

    def test_integer_valued_floats_accepted(self):
        table, _, _ = metrics.contingency([0.0, 1.0], [1, 0])
        assert table.sum() == 2

    def test_fractional_labels_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            metrics.contingency([0.5, 1.0], [0, 1])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            metrics.contingency([-1, 0], [0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.contingency([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            metrics.contingency([], [])


class TestAccuracy:
    def test_two_thirds(self):
        assert metrics.accuracy([0, 1, 1], [0, 0, 1]) == pytest.approx(2 / 3)

    def test_relabeled_perfect(self):
        assert metrics.accuracy([2, 2, 0, 0], [7, 7, 9, 9]) == 1.0

    def test_over_segmentation(self):
        assert metrics.accuracy([0, 1, 2, 3], [0, 0, 1, 1]) == 0.5

    def test_under_segmentation(self):
        assert metrics.accuracy([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(5, 30))
            pred = rng.integers(0, 4, size=n)
            truth = rng.integers(0, 3, size=n)
            assert metrics.accuracy(pred, truth) == pytest.approx(
                accuracy_brute(pred, truth), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 4, size=50)
        truth = rng.integers(0, 4, size=50)
        base = metrics.accuracy(pred, truth)
        remap = {0: 9, 1: 4, 2: 0, 3: 2}
        shuffled = np.array([remap[int(p)] for p in pred])
        assert metrics.accuracy(shuffled, truth) == pytest.approx(base, abs=1e-12)


class TestNmi:
    def test_identical_partitions(self):
        assert metrics.nmi([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_independent_partitions(self):
        assert metrics.nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0

    def test_hand_sum(self):
        # pred [0,0,1,1] vs truth [0,1,1,1]: joint (0.25, 0.25, 0, 0.5),
        # written out directly from the definition.
        hu = np.log(2.0)
        hv = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        mi = (
            0.25 * np.log(0.25 / (0.5 * 0.25))
            + 0.25 * np.log(0.25 / (0.5 * 0.75))
            + 0.5 * np.log(0.5 / (0.5 * 0.75))
        )
        expected = mi / np.sqrt(hu * hv)
        assert metrics.nmi([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(expected, abs=1e-12)

    def test_matches_plain_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(6, 40))
            pred = rng.integers(0, 5, size=n)
            truth = rng.integers(0, 4, size=n)
            if len(np.unique(pred)) < 2 or len(np.unique(truth)) < 2:
                continue
            assert metrics.nmi(pred, truth) == pytest.approx(
                nmi_plain(pred, truth), abs=1e-12
            )

    def test_renumbering_keeps_every_bit(self):
        """Renumbering the clusters reorders the entropy and information
        terms; on this case a plain left-to-right sum of them moves by an
        ulp, and the value must not."""
        pred = np.array([0, 2, 2, 1, 2, 1, 0, 0, 0, 2])
        truth = np.array([0, 0, 0, 1, 0, 0, 1, 1, 1, 1])
        renumbered = np.array([2, 0, 1])[pred]
        tables = [metrics.contingency(p, truth)[0] / len(truth) for p in (pred, renumbered)]
        sums = [np.sum(t[t > 0] * np.log(t[t > 0] / np.outer(t.sum(1), t.sum(0))[t > 0]))
                for t in tables]
        assert sums[0] != sums[1]
        assert metrics.nmi(renumbered, truth) == metrics.nmi(pred, truth)
        assert metrics.nmi(truth, renumbered) == metrics.nmi(truth, pred)

    def test_zero_entropy_identical(self):
        assert metrics.nmi([3, 3, 3], [0, 0, 0]) == 1.0

    def test_zero_entropy_different(self):
        assert metrics.nmi([0, 0, 0], [0, 0, 1]) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred = rng.integers(0, 3, size=20)
            truth = rng.integers(0, 3, size=20)
            v = metrics.nmi(pred, truth)
            assert 0.0 <= v <= 1.0


class TestKappa:
    def test_hand_example_point_six(self):
        # After the identity match: p_o = 0.8, p_e = 0.3*0.5 + 0.7*0.5 = 0.5,
        # kappa = (0.8 - 0.5) / 0.5 = 0.6.
        pred = [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        truth = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        assert metrics.kappa(pred, truth) == pytest.approx(0.6, abs=1e-12)

    def test_perfect(self):
        assert metrics.kappa([1, 0, 1], [5, 2, 5]) == 1.0

    def test_single_class_both(self):
        assert metrics.kappa([0, 0], [3, 3]) == 1.0

    def test_extra_cluster_counts_against(self):
        # pred cluster 1 has no class to claim; its samples can never agree.
        # Best match: pred 0 -> truth 0, pred 2 -> truth 1, pred 1 -> sentinel.
        # p_o = 3/4, p_e = 0.25*0.25 + 0.5*0.75 = 0.4375, kappa = 5/9.
        assert metrics.kappa([0, 1, 2, 2], [0, 1, 1, 1]) == pytest.approx(5 / 9, abs=1e-12)

    def test_chance_level_is_zero(self):
        pred = [0, 0, 1, 1]
        truth = [0, 1, 0, 1]
        assert metrics.kappa(pred, truth) == pytest.approx(0.0, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 3, size=40)
        truth = rng.integers(0, 3, size=40)
        base = metrics.kappa(pred, truth)
        remap = {0: 6, 1: 0, 2: 3}
        shuffled = np.array([remap[int(p)] for p in pred])
        assert metrics.kappa(shuffled, truth) == pytest.approx(base, abs=1e-12)

    def test_never_exceeds_accuracy_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            pred = rng.integers(0, 4, size=30)
            truth = rng.integers(0, 4, size=30)
            assert metrics.kappa(pred, truth) <= metrics.accuracy(pred, truth) + 1e-12


class TestReport:
    def test_fields(self):
        rep = metrics.report([0, 0, 1, 2], [1, 1, 2, 2])
        assert set(rep) == {"acc", "nmi", "kappa", "n", "k_pred", "k_true"}
        assert rep["n"] == 4
        assert rep["k_pred"] == 3
        assert rep["k_true"] == 2
        assert rep["acc"] == metrics.accuracy([0, 0, 1, 2], [1, 1, 2, 2])
