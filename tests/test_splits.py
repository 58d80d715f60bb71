"""Histograms, impurity, and the bin-scan split search against brute force."""

import math
import warnings

import numpy as np
import pytest
from conftest import layout, random_class_table, random_reg_table

from aggforest import splits
from aggforest.splits import (
    CLASSIFICATION_CRITERIA,
    Histogram,
    Split,
    SplitConstraints,
    best_splits,
    compute_histogram,
    find_best_split,
    impurity,
    level_histogram,
    sibling_histogram,
    xlogy,
)
from aggforest.reference import (
    exhaustive_categorical_gain,
    exhaustive_continuous_gain,
)

LOOSE = SplitConstraints(min_leaf_weight=1e-9, min_leaf_oob=0)


def one_feature_hist(table, feature=0):
    return Histogram(features=np.array([feature]),
                     tables=[np.asarray(table, dtype=np.float64)])


# ---------------------------------------------------------------- impurity


def test_impurity_frozen_values():
    assert impurity(np.array([5.0, 5.0]), "gini") == pytest.approx(0.5)
    assert impurity(np.array([10.0, 0.0]), "gini") == 0.0
    assert impurity(np.array([10.0, 0.0]), "entropy") == 0.0
    assert impurity(np.array([5.0, 5.0]), "entropy") == pytest.approx(math.log(2))
    assert impurity(np.array([1.0, 1.0, 2.0]), "gini") == pytest.approx(0.625)
    # Regression stats are (weight, weighted sum, weighted sum of squares).
    assert impurity(np.array([4.0, 8.0, 20.0]), "variance") == pytest.approx(1.0)
    assert impurity(np.array([3.0, 6.0, 12.0]), "variance") == 0.0


def test_xlogy_matches_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(35)
    counts = rng.integers(0, 1000, size=(50, 7)).astype(float)
    counts[:, 0] = 0.0
    totals = counts.sum(axis=1, keepdims=True)
    for x, y in [(counts, counts), (totals, totals)]:
        assert xlogy(x, y).tobytes() == special.xlogy(x, y).tobytes()
    p = np.exp(-rng.exponential(2.0, size=10_000))  # reals in (0, 1]
    np.testing.assert_allclose(xlogy(p, p), special.xlogy(p, p),
                               rtol=4e-16, atol=0)


def test_xlogy_is_zero_where_x_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = xlogy(np.zeros(3), np.array([0.0, 1.0, 0.5]))
    assert out.tobytes() == np.zeros(3).tobytes()


def test_impurity_errors():
    with pytest.raises(ValueError, match="empty node"):
        impurity(np.array([0.0, 0.0]), "gini")
    with pytest.raises(ValueError, match="criterion"):
        impurity(np.array([1.0, 1.0]), "absolute")


# -------------------------------------------------------------- histograms


def test_compute_histogram_hand_example():
    binned = layout(["continuous", "continuous"], [2, 3])
    binned.entries = np.array([[0, 2], [0, 0], [1, 2], [1, 1]], dtype=np.uint8)
    hist = compute_histogram(
        rows=np.array([0, 1, 2]),
        weights=np.array([2.0, 1.0, 1.0]),
        features=np.array([0, 1]),
        binned=binned,
        labels=np.array([0, 1, 1]),
        n_classes=2,
    )
    np.testing.assert_array_equal(hist.tables[0], [[2, 1], [0, 1]])
    np.testing.assert_array_equal(hist.tables[1], [[0, 1], [0, 0], [2, 1]])


def test_compute_histogram_regression_channels():
    binned = layout(["continuous"], [2])
    binned.entries = np.array([[0], [1], [1]], dtype=np.uint8)
    hist = compute_histogram(np.array([0, 1, 2]), np.array([1.0, 2.0, 1.0]),
                             np.array([0]), binned,
                             np.array([3.0, -1.0, 2.0]), n_classes=0)
    np.testing.assert_allclose(hist.tables[0],
                               [[1.0, 3.0, 9.0], [3.0, 0.0, 6.0]])


def test_histogram_totals_match_node():
    rng = np.random.default_rng(5)
    binned = layout(["continuous"] * 3, [6, 6, 6])
    binned.entries = rng.integers(0, 6, size=(50, 3)).astype(np.uint8)
    rows = rng.choice(50, size=30, replace=False)
    weights = rng.integers(1, 4, size=30).astype(float)
    labels = rng.integers(0, 3, size=50)
    hist = compute_histogram(rows, weights, np.arange(3), binned, labels, 3)
    node_stats = np.zeros(3)
    for r, w in zip(rows, weights):
        node_stats[labels[r]] += w
    for table in hist.tables:
        np.testing.assert_allclose(table.sum(axis=0), node_stats)


def test_sibling_histogram_subtraction_and_trap():
    rng = np.random.default_rng(6)
    parent = Histogram(np.array([0, 1]),
                       [rng.gamma(1, 2, (5, 2)), rng.gamma(1, 2, (4, 2))])
    left = Histogram(np.array([0, 1]),
                     [parent.tables[0] * 0.5, parent.tables[1] * 0.25])
    right = sibling_histogram(parent, left, classification=True)
    for i in range(2):
        np.testing.assert_allclose(right.tables[i],
                                   parent.tables[i] - left.tables[i])
    bad = Histogram(np.array([0, 1]),
                    [parent.tables[0] * 1.5, parent.tables[1]])
    with pytest.raises(RuntimeError, match="negative count"):
        sibling_histogram(parent, bad, classification=True)
    with pytest.raises(ValueError, match="different features"):
        sibling_histogram(parent, Histogram(np.array([0, 2]),
                                            list(left.tables)),
                          classification=True)


@pytest.mark.parametrize("n_classes", [3, 0])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("order", ["F", "C"])
def test_level_histogram_matches_per_pair_tally(monkeypatch, n_classes, m,
                                                order):
    # Columns: continuous with a missing bin, categorical, continuous, and a
    # categorical with a missing bin.  In-bag rows mostly hold odd interior
    # bins and out-of-bag rows any bin, so out-of-bag rows fall below a
    # pair's first cell, between cells and above its last cell.  Each level
    # is numbered from the dense key table and by sorting the keys.
    n_bins = np.array([8, 6, 5, 7])
    binned = layout(["continuous", "categorical", "continuous", "categorical"],
                    n_bins, [7, -1, -1, 6])
    d, n_rows, n = 4, 240, 6
    totals = {"below": 0, "between": 0, "above": 0}
    for seed in range(4):
        rng = np.random.default_rng([seed, m, n_classes])
        in_bag = np.sort(rng.choice(n_rows, size=150, replace=False))
        oob_rows = np.setdiff1d(np.arange(n_rows), in_bag)
        codes = rng.integers(0, n_bins, size=(n_rows, d))
        odd = 1 + 2 * rng.integers(0, (n_bins - 1) // 2, size=(n_rows, d))
        thin = rng.random((n_rows, d)) < 0.8
        thin[oob_rows] = False
        binned.entries = np.asarray(np.where(thin, odd, codes),
                                    dtype=np.uint8, order=order)
        labels = (rng.integers(0, n_classes, size=n_rows) if n_classes
                  else rng.normal(size=n_rows))
        weights = rng.integers(1, 4, size=in_bag.shape[0]).astype(float)
        node = rng.integers(0, n, size=in_bag.shape[0])
        oob_node = rng.integers(0, n, size=oob_rows.shape[0])
        features = (np.broadcast_to(np.arange(d), (n, d)) if m == d else
                    np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :m],
                            axis=1))

        pair, bin_, sums, total, exact, upto = [], [], [], [], [], []
        for i in range(n):
            mine, oob = node == i, oob_rows[oob_node == i]
            for k, j in enumerate(features[i]):
                table = compute_histogram(in_bag[mine], weights[mine], [j],
                                          binned, labels, n_classes).tables[0]
                held = np.unique(binned.entries[in_bag[mine], j]).astype(int)
                oob_codes = binned.entries[oob, j].astype(int)
                pair += [i * m + k] * held.shape[0]
                bin_ += held.tolist()
                sums.append(table[held])
                total.append(oob.shape[0])
                exact += [np.count_nonzero(oob_codes == b) for b in held]
                upto += [np.count_nonzero((oob_codes > lo) & (oob_codes <= b))
                         for lo, b in zip(np.r_[-1, held[:-1]], held)]
                totals["below"] += np.count_nonzero(oob_codes < held[0])
                totals["above"] += np.count_nonzero(oob_codes > held[-1])
                totals["between"] += np.count_nonzero(
                    ~np.isin(oob_codes, held) & (oob_codes > held[0])
                    & (oob_codes < held[-1]))

        for dense_keys in (1 << 30, 0):
            monkeypatch.setattr(splits, "_DENSE_KEYS", dense_keys)
            hist = level_histogram(binned, features, in_bag, node, weights,
                                   labels[in_bag], n_classes, oob_rows,
                                   oob_node)
            assert hist.n_bins == 8 and hist.features is features
            np.testing.assert_array_equal(hist.pair, pair + [n * m])
            np.testing.assert_array_equal(hist.bin, bin_ + [0])
            # Bitwise: every cell adds its rows in compute_histogram's order.
            assert np.array_equal(hist.sums[:, :-1], np.concatenate(sums).T)
            assert not hist.sums[:, -1].any()
            np.testing.assert_array_equal(hist.oob_total, total)
            np.testing.assert_array_equal(hist.oob_exact, exact + [0])
            np.testing.assert_array_equal(hist.oob_upto, upto + [0])
    assert min(totals.values()) > 0


def random_level(seed, n_classes, oob):
    """A level of 12 nodes over 6 columns, 3 sampled each, with its binned
    matrix: continuous columns without and with a missing bin, categorical
    ones likewise, and widths from 2 to 40 bins, so pairs hold from one
    cell to dozens."""
    binned, features, in_bag, node, weights, labels, oob_rows, oob_node = (
        random_level_rows(seed, n_classes, oob))
    hist = level_histogram(binned, features, in_bag, node, weights,
                           labels[in_bag], n_classes,
                           oob_rows if oob else None, oob_node)
    return hist, binned


def random_level_rows(seed, n_classes, oob):
    """What ``random_level`` tallies: its binned matrix, each node's
    sampled features, the in-bag rows (ascending), their nodes and
    weights, every row's label, and the oob rows and their nodes; ``oob``
    seeds the draw with the rest."""
    n_bins = np.array([40, 9, 31, 6, 25, 2])
    binned = layout(["continuous", "continuous", "categorical", "categorical",
                     "continuous", "categorical"],
                    n_bins, [-1, 8, -1, 5, 24, -1])
    rng = np.random.default_rng([seed, n_classes, oob])
    n_rows, n, m = 900, 12, 3
    # Skewed codes leave many bins empty in small nodes.
    codes = (n_bins * rng.random((n_rows, n_bins.shape[0])) ** 2).astype(int)
    binned.entries = np.asarray(codes, dtype=np.uint8, order="F")
    # Labels rise with the plain bins of the columns with a missing bin and
    # sit low where they are missing, so missing values often go left.
    score = (np.where(codes[:, 1] == 8, 0.0, codes[:, 1] / 8)
             + np.where(codes[:, 4] == 24, 0.0, codes[:, 4] / 24)
             + (codes[:, 3] % 2) + rng.random(n_rows))
    labels = (np.minimum((score * n_classes / 4).astype(int), n_classes - 1)
              if n_classes else score)
    in_bag = np.sort(rng.choice(n_rows, size=600, replace=False))
    oob_rows = np.setdiff1d(np.arange(n_rows), in_bag)
    # Node sizes from a handful of rows to hundreds.
    node = np.minimum(rng.geometric(0.25, size=in_bag.shape[0]) - 1, n - 1)
    oob_node = rng.integers(0, n, size=oob_rows.shape[0])
    features = np.sort(np.argsort(rng.random((n, 6)), axis=1)[:, :m], axis=1)
    weights = rng.integers(1, 4, size=in_bag.shape[0]).astype(float)
    return binned, features, in_bag, node, weights, labels, oob_rows, oob_node


def assert_splits_equal(a, b):
    for name in ("node", "feature", "gain", "threshold", "missing_left",
                 "left", "stats_left"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("n_classes,criterion", [
    (2, "gini"), (3, "entropy"), (3, "gini"), (0, "variance"), (9, "gini")])
@pytest.mark.parametrize("oob", [False, True])
def test_best_splits_do_not_depend_on_block_cuts(monkeypatch, n_classes,
                                                 criterion, oob):
    cons = SplitConstraints(min_leaf_weight=1.0, min_leaf_oob=int(oob))
    scanned = []
    best_prefix = splits._best_prefix

    def spy(cum, oob_left, oob_total, count, *args):
        # Every scan, a missing-left rescan of some of a block's pairs
        # included, pads at most the slack beyond its cells.
        rows, width = cum.shape[1:]
        if rows > 1:
            assert rows * width - count.sum() <= splits._BLOCK_SLACK
            assert rows * width * cum.shape[0] <= splits._BLOCK_CELLS
        scanned.append(rows)
        return best_prefix(cum, oob_left, oob_total, count, *args)

    monkeypatch.setattr(splits, "_best_prefix", spy)
    kinds = set()
    for seed in range(3):
        hist, binned = random_level(seed, n_classes, oob)
        found = {}
        for cells, slack in ((1 << 17, 2048), (1 << 17, 0), (1, 0),
                             (1 << 30, 1 << 30), (64, 16)):
            monkeypatch.setattr(splits, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(splits, "_BLOCK_SLACK", slack)
            scanned.clear()
            found[cells, slack] = best_splits(hist, binned, criterion, cons,
                                              n_classes)
            if cells == 1:
                assert max(scanned) == 1
        want = found[1 << 30, 1 << 30]
        for got in found.values():
            assert_splits_equal(got, want)
        kinds.update(("categorical" if t == -2 else "missing left" if left
                      else "threshold")
                     for t, left in zip(want.threshold, want.missing_left))
    assert kinds == {"categorical", "missing left", "threshold"}


@pytest.mark.parametrize("n_classes,criterion", [
    (2, "gini"), (3, "entropy"), (3, "gini"), (0, "variance"), (9, "gini"),
    (9, "entropy")])
@pytest.mark.parametrize("oob", [False, True])
def test_best_splits_are_find_best_split_node_by_node(n_classes, criterion,
                                                      oob):
    """Each node's split from ``best_splits`` is the one ``find_best_split``
    picks on ``compute_histogram`` of the node's rows and the bin counts of
    its oob rows: the same feature, threshold, missing side and left bins,
    and the same gain, to the last bit at any class count: ``impurity``
    adds a node's classes in one order, alone or in a stack."""
    cons = SplitConstraints(min_leaf_weight=1.0, min_leaf_oob=int(oob))
    kinds = set()
    for seed in range(3):
        binned, features, rows, node, weights, labels, oob_rows, oob_node = (
            random_level_rows(seed, n_classes, oob))
        hist = level_histogram(binned, features, rows, node, weights,
                               labels[rows], n_classes,
                               oob_rows if oob else None, oob_node)
        best = best_splits(hist, binned, criterion, cons, n_classes)
        left = np.unpackbits(best.left, axis=1, count=hist.n_bins,
                             bitorder="little").view(bool)
        at = {v: k for k, v in enumerate(best.node.tolist())}
        for v, feats in enumerate(features):
            mine = node == v
            assert mine.any()
            oob_hist = [np.bincount(binned.entries[oob_rows[oob_node == v], j],
                                    minlength=int(binned.n_bins[j]))
                        for j in feats] if oob else None
            want = find_best_split(
                compute_histogram(rows[mine], weights[mine], feats, binned,
                                  labels, n_classes),
                binned, criterion, cons, oob_hist=oob_hist,
                n_classes=n_classes)
            k = at.get(v)
            if want is None:
                assert k is None, f"node {v}"
                continue
            j = want.feature
            assert (best.feature[k], best.threshold[k], best.missing_left[k]
                    ) == (j, want.bin_threshold, want.missing_goes_left)
            assert best.gain[k] == want.gain
            if want.is_categorical:
                expect = np.zeros(hist.n_bins, dtype=bool)
                expect[:want.left_mask.shape[0]] = want.left_mask
            else:
                expect = np.arange(hist.n_bins) <= want.bin_threshold
                if binned.missing_bin[j] >= 0:
                    expect[binned.missing_bin[j]] = want.missing_goes_left
            np.testing.assert_array_equal(left[k], expect)
            kinds.add("categorical" if want.is_categorical else
                      "missing left" if want.missing_goes_left else "threshold")
        assert len(at) == best.node.shape[0] > 0
    assert kinds == {"categorical", "missing left", "threshold"}


@pytest.mark.parametrize("channels", [2, 3, 9])
def test_channel_sum_equals_the_leading_axis_reduction(channels):
    """Rows added in order give ``.sum(axis=0)`` bit for bit, so the scans
    keep the gains, and the models, of the reduction they replace."""
    rng = np.random.default_rng(channels)
    rows = rng.random((channels, 7, 33)) * 10.0 ** rng.integers(
        -8, 8, size=(channels, 7, 33))
    for a in (rows, np.cumsum(rows, axis=2), rows.transpose(0, 2, 1)):
        assert splits._channel_sum(a).tobytes() == a.sum(axis=0).tobytes()


def test_scan_blocks_pad_at_most_the_slack(monkeypatch):
    rng = np.random.default_rng(16)
    monkeypatch.setattr(splits, "_BLOCK_SLACK", 40)
    monkeypatch.setattr(splits, "_BLOCK_CELLS", 900)
    for trial in range(200):
        n = int(rng.integers(1, 300))
        n_cont = int(rng.integers(0, n + 1))
        channels = int(rng.integers(1, 4))
        widths = np.concatenate([
            -np.sort(-rng.geometric(p, size=k) - 1)
            for p, k in ((0.05, n_cont), (0.2, n - n_cont))])
        blocks = list(splits._scan_blocks(widths, n_cont, channels))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        for lo, hi in blocks:
            assert lo < hi and not lo < n_cont < hi
            width = int(widths[lo])
            padding = width * (hi - lo) - int(widths[lo:hi].sum())
            if hi - lo > 1:
                assert padding <= splits._BLOCK_SLACK
                assert width * (hi - lo) * channels <= splits._BLOCK_CELLS
            # A block ends only where the next pair would break a bound.
            if hi not in (n, n_cont):
                wider = width * (hi + 1 - lo)
                assert (wider - int(widths[lo:hi + 1].sum())
                        > splits._BLOCK_SLACK
                        or wider * channels > splits._BLOCK_CELLS)


# ------------------------------------------------- scan vs exhaustive search


def test_continuous_scan_matches_exhaustive_classification():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(120):
        n_bins = int(rng.integers(2, 11))
        has_missing = bool(rng.random() < 0.4)
        K = int(rng.integers(2, 4))
        table = random_class_table(rng, n_bins, K)
        missing = n_bins - 1 if has_missing else -1
        binned = layout(["continuous"], [n_bins], [missing])
        for criterion in CLASSIFICATION_CRITERIA:
            split = find_best_split(one_feature_hist(table), binned,
                                    criterion, LOOSE, n_classes=K)
            want = exhaustive_continuous_gain(table, criterion, LOOSE,
                                              missing_bin=missing)
            if split is None:
                assert want == -np.inf
                continue
            assert not split.is_categorical
            worst = max(worst, abs(split.gain - want) / max(want, 1e-12))
    assert worst < 1e-9


def test_continuous_scan_matches_exhaustive_regression():
    rng = np.random.default_rng(11)
    for trial in range(120):
        n_bins = int(rng.integers(2, 11))
        has_missing = bool(rng.random() < 0.4)
        table = random_reg_table(rng, n_bins)
        missing = n_bins - 1 if has_missing else -1
        binned = layout(["continuous"], [n_bins], [missing])
        split = find_best_split(one_feature_hist(table), binned, "variance",
                                LOOSE, n_classes=0)
        want = exhaustive_continuous_gain(table, "variance", LOOSE,
                                          missing_bin=missing,
                                          classification=False)
        if split is None:
            assert want == -np.inf
        else:
            assert split.gain == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_categorical_scan_exact_for_binary_labels():
    rng = np.random.default_rng(12)
    for trial in range(80):
        n_bins = int(rng.integers(2, 9))
        table = random_class_table(rng, n_bins, 2)
        binned = layout(["categorical"], [n_bins])
        for criterion in CLASSIFICATION_CRITERIA:
            split = find_best_split(one_feature_hist(table), binned,
                                    criterion, LOOSE, n_classes=2)
            want = exhaustive_categorical_gain(table, criterion, LOOSE)
            if split is None:
                assert want == -np.inf
                continue
            assert split.is_categorical
            assert split.left_mask.shape == (n_bins,)
            assert split.gain == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_categorical_multiclass_heuristic_never_beats_exhaustive():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n_bins = int(rng.integers(2, 8))
        K = int(rng.integers(3, 5))
        table = random_class_table(rng, n_bins, K)
        binned = layout(["categorical"], [n_bins])
        split = find_best_split(one_feature_hist(table), binned, "gini",
                                LOOSE, n_classes=K)
        want = exhaustive_categorical_gain(table, "gini", LOOSE)
        if split is not None:
            assert split.gain <= want + 1e-12


def test_categorical_regression_mean_ordering_is_fisher_optimal():
    # With bins sorted by mean, some contiguous cut is globally optimal for
    # the variance criterion, so the scan must tie the exhaustive search.
    rng = np.random.default_rng(14)
    for trial in range(60):
        n_bins = int(rng.integers(2, 9))
        table = random_reg_table(rng, n_bins)
        binned = layout(["categorical"], [n_bins])
        split = find_best_split(one_feature_hist(table), binned, "variance",
                                LOOSE, n_classes=0)
        want = exhaustive_categorical_gain(table, "variance", LOOSE,
                                           classification=False)
        if split is None:
            assert want == -np.inf
        else:
            assert split.gain == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_isolate_missing_split_is_reachable():
    # All signal sits in missing-vs-present: the best cut routes only the
    # missing bin left, encoded as threshold -1 with missing_goes_left.
    table = np.array([[5.0, 0.0], [4.0, 0.0], [0.0, 9.0]])
    binned = layout(["continuous"], [3], [2])
    split = find_best_split(one_feature_hist(table), binned, "gini",
                            LOOSE, n_classes=2)
    assert split.bin_threshold == -1 and split.missing_goes_left
    want = exhaustive_continuous_gain(table, "gini", LOOSE, missing_bin=2)
    assert split.gain == pytest.approx(want, rel=1e-12)


def test_missing_rows_follow_the_winning_side():
    # Missing rows are class 1 like the right-most plain bin, so sending
    # them right must win over sending them left.
    table = np.array([[6.0, 0.0], [0.0, 6.0], [0.0, 3.0]])
    binned = layout(["continuous"], [3], [2])
    split = find_best_split(one_feature_hist(table), binned, "gini",
                            LOOSE, n_classes=2)
    assert split.bin_threshold == 0 and not split.missing_goes_left
    assert split.gain == pytest.approx(
        exhaustive_continuous_gain(table, "gini", LOOSE, missing_bin=2),
        rel=1e-12)


def test_min_leaf_weight_constraint_filters():
    table = np.array([[1.0, 0.0], [0.0, 8.0], [8.0, 0.0]])
    binned = layout(["continuous"], [3])
    tight = SplitConstraints(min_leaf_weight=4.0)
    split = find_best_split(one_feature_hist(table), binned, "gini",
                            tight, n_classes=2)
    want = exhaustive_continuous_gain(table, "gini", tight)
    # The pure cut after bin 0 leaves a 1-weight child, so the constrained
    # optimum is the other threshold.
    assert split.bin_threshold == 1
    assert split.gain == pytest.approx(want, rel=1e-12)


def test_min_leaf_oob_constraint_filters():
    rng = np.random.default_rng(15)
    kept = 0
    for trial in range(60):
        n_bins = int(rng.integers(2, 8))
        table = random_class_table(rng, n_bins, 2)
        oob = rng.integers(0, 3, size=n_bins).astype(np.int64)
        cons = SplitConstraints(min_leaf_weight=1e-9, min_leaf_oob=1)
        binned = layout(["continuous"], [n_bins])
        split = find_best_split(one_feature_hist(table), binned, "gini",
                                cons, oob_hist=[oob], n_classes=2)
        want = exhaustive_continuous_gain(table, "gini", cons, oob_bins=oob)
        if split is None:
            assert want == -np.inf
        else:
            kept += 1
            assert split.gain == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert kept > 0


def test_pure_node_and_single_bin_give_no_split():
    binned = layout(["continuous"], [4])
    pure = np.zeros((4, 2))
    pure[:, 0] = [3.0, 2.0, 4.0, 1.0]
    assert find_best_split(one_feature_hist(pure), binned, "gini",
                           LOOSE, n_classes=2) is None
    lone = np.zeros((4, 2))
    lone[2] = [3.0, 5.0]
    assert find_best_split(one_feature_hist(lone), binned, "gini",
                           LOOSE, n_classes=2) is None


def test_tie_breaks_are_deterministic():
    # Mirror-symmetric table: cutting after bin 0 or bin 1 gives equal gain;
    # the lower threshold must win.
    table = np.array([[3.0, 0.0], [2.0, 2.0], [0.0, 3.0]])
    binned = layout(["continuous"], [3])
    split = find_best_split(one_feature_hist(table), binned, "gini",
                            LOOSE, n_classes=2)
    assert split.bin_threshold == 0
    # Identical tables on two features: the lower feature id must win.
    hist = Histogram(np.array([2, 5]), [table.copy(), table.copy()])
    binned = layout(["continuous"] * 6, [3] * 6)
    split = find_best_split(hist, binned, "gini", LOOSE, n_classes=2)
    assert split.feature == 2


def test_search_restricted_to_sampled_features():
    table = np.array([[4.0, 0.0], [0.0, 4.0]])
    hist = Histogram(np.array([3]), [table])
    binned = layout(["continuous"] * 5, [2] * 5)
    split = find_best_split(hist, binned, "gini", LOOSE, n_classes=2)
    assert split.feature == 3
    assert split.gain == pytest.approx(0.5)  # parent gini, children pure
