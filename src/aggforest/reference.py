"""Exact but slow reference computations backing verification.

Everything here favors transparency over speed: prunings of a tree are
enumerated one by one, split searches try every bipartition, and the
regret bounds are replayed by direct evaluation.  Enumeration is
exponential in depth, so callers keep trees to a couple dozen nodes.
The `verify` CLI command and the test suite are the intended users.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .aggregation import (
    LOG2,
    AggregationState,
    build_state,
    compute_log_agg_weights,
    predict_aggregated_batch,
)
from .binning import BinMapper, FeatureBins, FeatureKind, fit_bins, transform
from .forest import TrainConfig, _resolve_temperature
from .sampling import TAG_BOOTSTRAP, RandomSource, bootstrap
from .splits import SplitConstraints, impurity, xlogy
from .tree import Tree, grow_tree

# Enumerating prunings of anything larger is a caller bug, not a use case.
MAX_ENUMERABLE_PRUNINGS = 2_000_000


def pruning_count(tree: Tree, node: int = 0) -> int:
    """Number of prunings of the subtree rooted at ``node``."""
    if tree.feature[node] < 0:
        return 1
    left = int(tree.left_child[node])
    return 1 + pruning_count(tree, left) * pruning_count(tree, left + 1)


def enumerate_prunings(tree: Tree, node: int = 0) -> list[tuple[int, ...]]:
    """Every pruning rooted at ``node``, each given by its tuple of leaf ids.

    A pruning either stops at ``node`` (making it a leaf) or recurses into
    both children, so the list pairs every left pruning with every right one.
    """
    if node == 0 and pruning_count(tree) > MAX_ENUMERABLE_PRUNINGS:
        raise ValueError("tree has too many prunings to enumerate")
    if tree.feature[node] < 0:
        return [(node,)]
    left = int(tree.left_child[node])
    lefts = enumerate_prunings(tree, left)
    rights = enumerate_prunings(tree, left + 1)
    out: list[tuple[int, ...]] = [(node,)]
    for a in lefts:
        for b in rights:
            out.append(a + b)
    return out


def pruning_complexity(tree: Tree, leaf_ids: tuple[int, ...]) -> int:
    """Node count of the pruning minus its leaves that the full tree also
    keeps as leaves; the exponent in the pruning's prior weight 2**-c."""
    kept = sum(1 for v in leaf_ids if tree.feature[v] < 0)
    return 2 * len(leaf_ids) - 1 - kept


def prior_total(tree: Tree) -> Fraction:
    """Exact sum of 2**-complexity over all prunings (should be 1)."""
    total = Fraction(0)
    for ids in enumerate_prunings(tree):
        total += Fraction(1, 2 ** pruning_complexity(tree, ids))
    return total


def brute_force_aggregate(tree: Tree, state: AggregationState, x):
    """Aggregated prediction computed by enumerating every pruning.

    Each pruning T predicts with the forecast of its leaf containing x and
    weighs in with 2**-complexity * exp(-temperature * total oob loss of its
    leaves).  The weighted average is formed in the log domain.  This is the
    ground truth that the linear-time upward sweep must reproduce.
    """
    if state.oob_loss is None:
        raise ValueError("state was built without aggregation arrays")
    eta = state.temperature
    path = tree.path(np.asarray(x))
    on_path = set(int(v) for v in path)
    prunings = enumerate_prunings(tree)
    log_w = np.empty(len(prunings))
    members = np.empty(len(prunings), dtype=np.int64)
    for i, ids in enumerate(prunings):
        log_w[i] = (-LOG2 * pruning_complexity(tree, ids)
                    - eta * sum(float(state.oob_loss[v]) for v in ids))
        members[i] = next(v for v in ids if v in on_path)
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    if tree.task == "classification":
        return w @ state.forecasts[members]
    return float(w @ state.forecasts[members])


def aggregate_identity_error(tree: Tree, state: AggregationState, x,
                             fast) -> float:
    """Relative deviation between a fast prediction and the brute force."""
    slow = brute_force_aggregate(tree, state, x)
    a = np.atleast_1d(np.asarray(fast, dtype=np.float64))
    b = np.atleast_1d(np.asarray(slow, dtype=np.float64))
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


def max_bound_violation(tree: Tree, state: AggregationState,
                        entries: np.ndarray, labels: np.ndarray,
                        oob_rows: np.ndarray) -> float:
    """Worst violation of the pruning-competitive guarantee.

    For every pruning T the aggregated predictor's mean oob loss must not
    exceed T's mean oob loss plus (log 2 / temperature) * complexity(T) /
    (n_oob + 1).  Returns max over T of (left side - right side); anything
    above numerical noise means the guarantee is broken.
    """
    if state.oob_loss is None:
        raise ValueError("state was built without aggregation arrays")
    eta = state.temperature
    if eta <= 0:
        raise ValueError("the bound needs a positive temperature")
    oob_rows = np.asarray(oob_rows)
    n = oob_rows.shape[0]
    if n == 0:
        raise ValueError("no oob rows to evaluate on")
    preds = predict_aggregated_batch(tree, state, entries[oob_rows])
    if tree.task == "classification":
        y = labels[oob_rows].astype(np.int64)
        lhs = float(-np.log(preds[np.arange(n), y]).mean())
    else:
        y = labels[oob_rows].astype(np.float64)
        lhs = float(((preds - y) ** 2).mean())
    worst = -np.inf
    for ids in enumerate_prunings(tree):
        loss_t = sum(float(state.oob_loss[v]) for v in ids)
        rhs = loss_t / n + (LOG2 / eta) * pruning_complexity(tree, ids) / (n + 1)
        worst = max(worst, lhs - rhs)
    return worst


def smoothed_forecast_regret(counts, dirichlet: float = 0.5) -> float:
    """Cumulative log-loss gap of the smoothed class-frequency forecast.

    Against the best fixed probability vector in hindsight (the empirical
    frequencies), over a label multiset given by per-class counts.  At
    dirichlet=1/2 the gap is at most (K-1)/2 for every multiset.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n <= 0:
        return 0.0
    k = counts.shape[0]
    smoothed = (counts + dirichlet) / (n + dirichlet * k)
    loss = float(-(counts * np.log(smoothed)).sum())
    best = float(-xlogy(counts, counts / n).sum())
    return loss - best


def _partition_gain(table: np.ndarray, left_sel: np.ndarray, criterion: str,
                    constraints: SplitConstraints, oob_bins,
                    classification: bool) -> float:
    stats = table.sum(axis=0)
    stats_l = table[left_sel].sum(axis=0)
    stats_r = stats - stats_l
    if classification:
        w, wl, wr = stats.sum(), stats_l.sum(), stats_r.sum()
    else:
        w, wl, wr = stats[0], stats_l[0], stats_r[0]
    if wl <= 0 or wr <= 0:
        return -np.inf
    if wl < constraints.min_leaf_weight or wr < constraints.min_leaf_weight:
        return -np.inf
    if constraints.min_leaf_oob > 0:
        ol = int(oob_bins[left_sel].sum())
        orr = int(oob_bins.sum()) - ol
        if ol < constraints.min_leaf_oob or orr < constraints.min_leaf_oob:
            return -np.inf
    gain = (w * impurity(stats, criterion)
            - wl * impurity(stats_l, criterion)
            - wr * impurity(stats_r, criterion)) / w
    return gain if gain > 0 else -np.inf


def exhaustive_categorical_gain(table: np.ndarray, criterion: str,
                                constraints: SplitConstraints,
                                oob_bins=None,
                                classification: bool = True) -> float:
    """Best admissible gain over all 2**(b-1) - 1 bin bipartitions.

    Returns -inf when no bipartition is admissible, mirroring a scan that
    finds nothing.
    """
    b = table.shape[0]
    best = -np.inf
    for code in range(1, 2 ** (b - 1)):
        left_sel = (code >> np.arange(b)) & 1 == 1
        best = max(best, _partition_gain(table, left_sel, criterion,
                                         constraints, oob_bins, classification))
    return best


def exhaustive_continuous_gain(table: np.ndarray, criterion: str,
                               constraints: SplitConstraints,
                               missing_bin: int = -1, oob_bins=None,
                               classification: bool = True) -> float:
    """Best admissible gain over every (threshold, missing side) candidate.

    Candidate thresholds sit at occupied bins only and the missing-left
    variants exist only when the missing bin holds itb rows, matching the
    candidate set of the production scan exactly; the point of this function
    is an independent gain computation, not a different search space.
    """
    b = table.shape[0]
    w_bins = table.sum(axis=1) if classification else table[:, 0]
    n_plain = b - 1 if missing_bin >= 0 else b
    plain_occupied = [s for s in range(n_plain) if w_bins[s] > 0]
    missing_occupied = missing_bin >= 0 and w_bins[missing_bin] > 0

    right_candidates = list(plain_occupied if missing_occupied
                            else plain_occupied[:-1])
    left_candidates = ([-1] + plain_occupied[:-1]) if missing_occupied else []

    best = -np.inf
    for mleft, thresholds in ((False, right_candidates),
                              (True, left_candidates)):
        for s in thresholds:
            left_sel = np.zeros(b, dtype=bool)
            left_sel[: s + 1] = True
            if missing_bin >= 0:
                left_sel[missing_bin] = mleft
            best = max(best, _partition_gain(table, left_sel, criterion,
                                             constraints, oob_bins,
                                             classification))
    return best


def _one_feature_tree(task: str, n_classes: int, n_bins: int, node,
                      root_arg) -> Tree:
    """A tree over one feature of ``n_bins`` bins, built breadth first.

    ``node(lo, hi, depth, arg)`` returns the stats of the node owning bins
    [lo, hi) and either None (a leaf) or (threshold, left arg, right arg);
    the left child owns bins [lo, threshold].  Only the leaves' stats
    are kept: an internal node's are its children's sums.
    """
    internal: list[bool] = []
    cols: dict[str, list] = {"threshold": [], "stats": []}
    queue = [(0, n_bins, 0, root_arg)]
    for lo, hi, depth, arg in queue:    # the loop visits what it appends
        stats, split = node(lo, hi, depth, arg)
        internal.append(split is not None)
        if split is None:
            cols["stats"].append(stats)
            continue
        t, left_arg, right_arg = split
        cols["threshold"].append(t)
        queue += [(lo, t + 1, depth + 1, left_arg),
                  (t + 1, hi, depth + 1, right_arg)]
    k = sum(internal)
    layout = BinMapper(max(n_bins, 2), [FeatureBins(
        FeatureKind.CONTINUOUS, n_bins, np.arange(n_bins - 1.0))]).table
    return Tree.from_heap(
        task, n_classes if task == "classification" else 0, layout,
        np.zeros(1, dtype=np.int64), np.array(internal),
        np.zeros((0, (n_bins + 7) // 8), dtype=np.uint8),
        feature=np.zeros(k, dtype=np.int32),
        threshold=np.asarray(cols["threshold"], dtype=np.int32),
        missing_left=np.zeros(k, dtype=bool), stats=np.vstack(cols["stats"]))


def synthetic_tree(rng: np.random.Generator, n_leaves: int,
                   task: str = "classification", n_classes: int = 2,
                   n_bins: int = 16) -> Tree:
    """A random single-feature tree with exactly ``n_leaves`` leaves.

    Structure comes from recursively carving the bin range [0, n_bins) so
    every leaf owns at least one bin, which keeps routing well-defined.
    Label statistics are random but positive.  Meant for tests that need
    arbitrary small trees without growing them from data.
    """
    if not 1 <= n_leaves <= n_bins:
        raise ValueError("need 1 <= n_leaves <= n_bins")

    def node(lo: int, hi: int, depth: int, quota: int):
        if task == "classification":
            stats = rng.gamma(2.0, 2.0, size=n_classes) + 1e-3
        else:
            w = float(rng.uniform(1.0, 10.0))
            stats = np.array([w, w * float(rng.normal(0.0, 2.0))])
        if quota == 1:
            return stats, None
        kl = int(rng.integers(1, quota))
        kr = quota - kl
        t = int(rng.integers(lo + kl - 1, hi - kr))
        return stats, (t, kl, kr)

    return _one_feature_tree(task, n_classes, n_bins, node, n_leaves)


def complete_tree(depth: int, task: str = "classification",
                  n_classes: int = 2) -> Tree:
    """A full binary tree of the given depth over one feature."""
    rng = np.random.default_rng(depth)

    def node(lo: int, hi: int, level: int, arg):
        if task == "classification":
            stats = rng.gamma(2.0, 2.0, size=n_classes) + 1e-3
        else:
            stats = np.array([2.0, rng.normal()])
        if level == depth:
            return stats, None
        return stats, ((lo + hi - 1) // 2, None, None)

    return _one_feature_tree(task, n_classes, max(2 ** depth, 2), node, None)


def synthetic_state(tree: Tree, rng: np.random.Generator, temperature: float,
                    max_loss: float = 4.0) -> AggregationState:
    """Random forecasts and per-node oob losses for a synthetic tree."""
    n = tree.n_nodes
    if tree.task == "classification":
        forecasts = rng.dirichlet(np.ones(tree.n_classes), size=n)
    else:
        forecasts = rng.normal(0.0, 3.0, size=n)
    oob_loss = rng.uniform(0.0, max_loss, size=n)
    log_w = compute_log_agg_weights(tree, oob_loss, temperature)
    return AggregationState(temperature, forecasts, oob_loss, log_w)


def random_grown_instance(seed: int, task: str = "classification",
                          n_rows: int = 80, n_features: int = 3,
                          max_depth: int = 3, max_bins: int = 8,
                          temperature: float | None = None):
    """Grow one small tree on random data and build its aggregation state.

    Labels depend on the features (plus noise), so grown trees have honest
    structure.  Returns (tree, state, binned, labels, sample).
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
    coef = rng.normal(0.0, 2.0, size=n_features)
    score = X @ coef
    if task == "classification":
        p = 1.0 / (1.0 + np.exp(-(score - score.mean())))
        labels = (rng.random(n_rows) < p).astype(np.int64)
        if labels.min() == labels.max():
            labels[rng.integers(0, n_rows)] = 1 - labels[0]
        n_classes = 2
    else:
        labels = score + rng.normal(0.0, 0.5, size=n_rows)
        n_classes = 0

    config = TrainConfig(task=task, n_trees=1, max_bins=max_bins,
                         max_features=n_features, max_depth=max_depth,
                         temperature=temperature, seed=seed)
    temperature = _resolve_temperature(config, labels)
    mapper = fit_bins(X, [FeatureKind.CONTINUOUS] * n_features, max_bins)
    binned = transform(X, mapper)
    source = RandomSource(seed).child(0)
    sample = bootstrap(n_rows, source.child(TAG_BOOTSTRAP))
    tree = grow_tree(binned, labels, sample, config, source,
                     n_classes=n_classes)
    state = build_state(tree, binned.entries, labels, sample.oob_indices,
                        temperature)
    return tree, state, binned, labels, sample
