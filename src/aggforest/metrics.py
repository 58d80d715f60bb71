"""Evaluation metrics: ROC AUC, log loss, mean squared error."""

from __future__ import annotations

import numpy as np


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d float array, each run of ties taking its mean
    rank (the "average" method of ranking)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:], v.shape[0]]
    ranks = np.empty(v.shape[0], dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability that a positive outranks a negative, ties counted half.

    Computed from midranks: auc = (R+ - n+(n+ + 1)/2) / (n+ n-), where R+ is
    the rank sum of the positives.  NaN scores are refused.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    if np.isnan(scores).any():
        raise ValueError("roc_auc got NaN scores")
    ranks = _midranks(scores)
    r_pos = float(ranks[labels].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def multiclass_auc(proba, labels) -> tuple[float, dict]:
    """Unweighted mean of per-class one-versus-rest AUCs.

    ``labels`` are encoded class ids matching the probability columns.
    Returns (mean, per-class dict).  Every class must appear.
    """
    proba = np.asarray(proba, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    k = proba.shape[1]
    present = np.bincount(labels, minlength=k)
    missing = np.flatnonzero(present == 0)
    if missing.size:
        raise ValueError(f"classes absent from labels: {missing.tolist()}")
    per_class = {}
    for c in range(k):
        per_class[c] = roc_auc(proba[:, c], labels == c)
    return float(np.mean(list(per_class.values()))), per_class


def log_loss(proba, labels) -> float:
    """Mean negative log probability of the true class."""
    proba = np.asarray(proba, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    picked = proba[np.arange(labels.shape[0]), labels]
    if (picked <= 0).any():
        bad = int(np.flatnonzero(picked <= 0)[0])
        raise ValueError(f"zero probability for the true class at row {bad}")
    return float(-np.log(picked).mean())


def mse(pred, y) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(((pred - y) ** 2).mean())
