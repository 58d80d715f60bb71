"""Evaluation metrics against small oracles and frozen values."""

import math

import numpy as np
import pytest

from aggforest.metrics import _midranks, log_loss, mse, multiclass_auc, roc_auc


def pairwise_auc(scores, labels):
    """Quadratic-time pair counting, ties worth half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_roc_auc_frozen():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(scores, labels) == pytest.approx(0.75)
    assert roc_auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0
    assert roc_auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5


def test_roc_auc_matches_pair_counting():
    rng = np.random.default_rng(80)
    for _ in range(30):
        n = int(rng.integers(4, 80))
        scores = rng.integers(0, 6, size=n).astype(float)  # plenty of ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12)


def test_roc_auc_needs_both_classes():
    with pytest.raises(ValueError, match="class"):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


def rank_cases():
    rng = np.random.default_rng(82)
    return {
        "heavy-ties": rng.integers(0, 4, size=500).astype(float),
        "all-equal": np.full(37, 0.25),
        "one": np.array([3.5]),
        "signed-zeros": np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 0.0]),
        "random": rng.random(1000),
        "random-ties": np.round(rng.normal(size=1000), 1),
    }


@pytest.mark.parametrize("case", sorted(rank_cases()))
def test_midranks_match_scipy_bitwise(case):
    stats = pytest.importorskip("scipy.stats")
    values = rank_cases()[case]
    got = _midranks(values)
    want = stats.rankdata(values, method="average")
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["heavy-ties", "signed-zeros", "random",
                                  "random-ties"])
def test_roc_auc_matches_scipy_ranked_formula_bitwise(case):
    stats = pytest.importorskip("scipy.stats")
    scores = rank_cases()[case]
    labels = np.arange(scores.shape[0]) % 3 == 0
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    r_pos = float(stats.rankdata(scores)[labels].sum())
    want = (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert roc_auc(scores, labels) == want


def test_roc_auc_refuses_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        roc_auc(np.array([0.1, np.nan, 0.3]), np.array([1, 0, 1]))


def test_multiclass_auc_is_mean_of_one_vs_rest():
    rng = np.random.default_rng(81)
    proba = rng.dirichlet(np.ones(3), size=90)
    labels = rng.integers(0, 3, size=90)
    mean_auc, per_class = multiclass_auc(proba, labels)
    manual = [roc_auc(proba[:, k], (labels == k).astype(int))
              for k in range(3)]
    assert sorted(per_class) == [0, 1, 2]
    for k in range(3):
        assert per_class[k] == pytest.approx(manual[k])
    assert mean_auc == pytest.approx(np.mean(manual))


def test_multiclass_auc_reports_absent_classes():
    proba = np.full((4, 3), 1 / 3)
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="2"):
        multiclass_auc(proba, labels)


def test_log_loss_frozen_and_zero_guard():
    proba = np.array([[0.8, 0.2], [0.3, 0.7]])
    labels = np.array([0, 1])
    want = -(math.log(0.8) + math.log(0.7)) / 2
    assert log_loss(proba, labels) == pytest.approx(want)
    bad = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="row 0"):
        log_loss(bad, np.array([1]))


def test_mse():
    assert mse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(2.5)
    assert mse(np.array([3.0]), np.array([3.0])) == 0.0
