"""Clustering agreement metrics: accuracy, NMI, and Cohen's kappa.

Predicted and true labelings use arbitrary non-negative integer ids; all
three metrics are invariant to relabeling. Accuracy and kappa align the
two labelings with an optimal assignment on the contingency table first.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from unfold_ssc import data
from unfold_ssc.errors import DataError


def contingency(pred: np.ndarray, truth: np.ndarray):
    """Count table of (pred cluster, true class) co-occurrences.

    Returns (table, pred_values, truth_values) with rows/columns ordered by
    ascending label value. Bad input is a DataError, which is a ValueError.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise DataError(f"{name} must be a non-empty 1-D array")
    if pred.shape != truth.shape:
        raise DataError(f"length mismatch: {pred.shape[0]} pred vs {truth.shape[0]} truth labels")
    pred, truth = data.as_labels(pred, "pred"), data.as_labels(truth, "truth")
    pv, pi = np.unique(pred, return_inverse=True)
    tv, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((len(pv), len(tv)), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table, pv, tv


def _padded_contingency(pred, truth) -> np.ndarray:
    table, pv, tv = contingency(pred, truth)
    k = max(len(pv), len(tv))
    padded = np.zeros((k, k), dtype=np.int64)
    padded[: len(pv), : len(tv)] = table
    return padded


def accuracy(pred, truth) -> float:
    """Fraction of samples matched under the best cluster-to-class bijection
    (every optimal bijection matches the same count, so any one will do)."""
    padded = _padded_contingency(pred, truth)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum()) / int(padded.sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Natural log, 0 * log 0 = 0. If either labeling has zero entropy the
    value is 1.0 when the two partitions are identical and 0.0 otherwise.
    Each sum is correctly rounded (``math.fsum``), so renumbering either
    labeling, which reorders the terms, leaves every bit of the value.
    """
    table, _, _ = contingency(pred, truth)
    n = table.sum()
    pi = table.sum(axis=1) / n
    pj = table.sum(axis=0) / n
    hu = -math.fsum(pi[pi > 0] * np.log(pi[pi > 0]))
    hv = -math.fsum(pj[pj > 0] * np.log(pj[pj > 0]))
    if hu == 0.0 or hv == 0.0:
        one_per_row = np.all((table > 0).sum(axis=1) == 1)
        one_per_col = np.all((table > 0).sum(axis=0) == 1)
        identical = table.shape[0] == table.shape[1] and one_per_row and one_per_col
        return 1.0 if identical else 0.0
    pij = table / n
    mask = pij > 0
    outer = np.outer(pi, pj)
    info = math.fsum(pij[mask] * np.log(pij[mask] / outer[mask]))
    return float(min(1.0, max(0.0, info / np.sqrt(hu * hv))))


def kappa(pred, truth) -> float:
    """Cohen's kappa after remapping clusters through an accuracy-optimal bijection.

    Predicted clusters assigned to a padding column (no real class) count as
    disagreement in both the observed and expected terms. Among bijections
    of equal accuracy the one with the least chance agreement is used, so
    the value does not depend on how either labeling numbers its ids.
    """
    padded = _padded_contingency(pred, truth)
    n = int(padded.sum())
    chance = np.outer(padded.sum(axis=1), padded.sum(axis=0))
    # Integer costs keep the solver exact; chance summed over any bijection
    # is at most n*n, so one more match always outweighs it.
    rows, cols = linear_sum_assignment(chance - (n * n + 1) * padded)
    p_o = int(padded[rows, cols].sum()) / n
    p_e = int(chance[rows, cols].sum()) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def report(pred, truth) -> dict:
    """All three metrics plus sizes, ready for JSON serialization."""
    table, pv, tv = contingency(pred, truth)
    return {
        "acc": accuracy(pred, truth),
        "nmi": nmi(pred, truth),
        "kappa": kappa(pred, truth),
        "n": int(table.sum()),
        "k_pred": int(len(pv)),
        "k_true": int(len(tv)),
    }
