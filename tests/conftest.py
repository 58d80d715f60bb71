"""Shared helpers: split-search fixtures, per-node row counts, the linear
pruning-bound check and the acceptance report."""

import math

import numpy as np
from hypothesis import settings

from aggforest import forest as forest_module
from aggforest.aggregation import descend
from aggforest.binning import (BinMapper, BinnedMatrix, FeatureBins,
                               FeatureKind)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def layout(kinds, n_bins, missing=None):
    """A BinnedMatrix shell carrying only the per-feature layout; a
    feature's missing bin, when it has one, is its last.

    Split search never touches the row entries, so tests can drive it from
    synthetic histograms without materializing any data.
    """
    d = len(kinds)
    if missing is None:
        missing = [-1] * d
    features = []
    for kind, n, m in zip(kinds, n_bins, missing):
        assert m in (-1, n - 1)
        fb = FeatureBins(FeatureKind(kind), n, has_missing=m >= 0)
        if fb.kind is FeatureKind.CONTINUOUS:
            fb.thresholds = np.arange(fb.n_plain_bins - 1.0)
        features.append(fb)
    mapper = BinMapper(max(2, *n_bins), features)
    return BinnedMatrix(np.zeros((0, d), dtype=np.uint8), mapper.table)


def random_class_table(rng, n_bins, n_classes, scale=5.0):
    """Random nonnegative weighted class counts with some empty bins."""
    table = rng.gamma(1.0, scale, size=(n_bins, n_classes))
    table[rng.random(size=(n_bins, n_classes)) < 0.25] = 0.0
    kill = rng.random(n_bins) < 0.2
    if not kill.all():        # at least one bin must keep itb weight
        table[kill] = 0.0
    if table.sum() == 0.0:    # split finders never see an empty node
        table[rng.integers(n_bins), rng.integers(n_classes)] = scale
    return table


def random_reg_table(rng, n_bins):
    """Random regression stats (weight, weighted sum, weighted sum of squares)
    built from actual draws so every bin is internally consistent."""
    table = np.zeros((n_bins, 3))
    for b in range(n_bins):
        k = int(rng.integers(0, 6))
        if k == 0:
            continue
        v = rng.normal(rng.normal(0, 2), 1.0, size=k)
        w = rng.integers(1, 3, size=k).astype(float)
        table[b] = [w.sum(), (w * v).sum(), (w * v * v).sum()]
    if not table[:, 0].any():
        v = rng.normal(size=3)
        table[0] = [3.0, v.sum(), (v * v).sum()]
    return table


def node_counts(tree, entries, rows, roots=None) -> np.ndarray:
    """How many of ``rows`` (row ids of the binned ``entries``) each node of
    ``tree`` holds: the rows routed to their leaves by ``Tree.route``, then
    summed up one depth at a time by ``Tree.levels``, deepest first.  Given
    the ``roots`` of a stack of trees, ``rows`` holds one array per root."""
    if roots is None:
        roots, rows = np.zeros(1, dtype=np.int64), [rows]
    counts = np.zeros(tree.n_nodes, dtype=np.int64)
    for root, part in zip(roots, rows):
        leaf = tree.route(entries[part], np.array([root]))[:, 0]
        counts += np.bincount(leaf, minlength=tree.n_nodes)
    node, ends = tree.levels
    for lo, hi in reversed(list(zip([0] + ends[:-1], ends))):
        v = node[lo:hi]
        left = tree.left_child[v]
        counts[v] = counts[left] + counts[left + 1]
    return counts


def bound_violation(table, state, roots, n_oob, lhs) -> np.ndarray:
    """Each tree's worst violation of the pruning-competitive bound, in one
    pass per depth instead of an enumeration of the prunings.

    The bound's right side, minimised over prunings, adds up over nodes:
    best(v) = L_v / n at a leaf and min(L_v / n + a, a + best(l) + best(r))
    at an internal node, with L_v the node's oob loss,
    a = (log 2 / temperature) / (n + 1) and n the tree's oob row count
    (``n_oob``, one per root).  The worst violation is the tree's mean
    aggregated oob loss ``lhs`` minus best(root); it is at most numerical
    noise when the bound holds.
    """
    n = np.repeat(np.asarray(n_oob, dtype=np.float64),
                  np.diff(roots, append=table.n_nodes))
    a = math.log(2.0) / state.temperature / (n + 1.0)
    best = state.oob_loss / n
    node, ends = table.levels
    for lo, hi in reversed(list(zip([0] + ends[:-1], ends))):
        v = node[lo:hi]
        left = table.left_child[v]
        best[v] = np.minimum(best[v] + a[v],
                             a[v] + best[left] + best[left + 1])
    return np.asarray(lhs) - best[roots]


def cut_weight(uncut) -> float:
    """The weight (rem) that an uncut forest's aggregate passes to the nodes
    a cut at ``forest.CUT_WEIGHT`` turns into leaves, summed over the trees
    and divided by their number.  Each cut moves its tree's predictions by
    at most the weight it removes times the forecast range, so a forest
    whose prediction is the mean over its trees moves by at most this
    times the forecast range."""
    table, eps = uncut.table, forest_module.CUT_WEIGHT
    rem = descend(table, uncut.state)[1]
    cut = ((table.parent < 0) | (rem[table.parent] >= eps)) & (rem < eps)
    return float(rem[cut & (table.feature >= 0)].sum()) / uncut.roots.shape[0]


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if rep.when == "call" and "test_acceptance.py" in rep.nodeid:
                name = rep.nodeid.split("::")[-1]
                rows.append((name, outcome == "passed", rep.duration))
    for rep in terminalreporter.stats.get("error", []):
        if "test_acceptance.py" in rep.nodeid:
            rows.append((rep.nodeid.split("::")[-1], False, 0.0))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, duration in sorted(rows):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"{status}  {name.removeprefix('test_'):44s} {duration:8.1f}s")
