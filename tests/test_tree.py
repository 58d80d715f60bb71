"""Tree growth: structure invariants, routing, and stopping rules."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import node_counts

from aggforest import tree as tree_module
from aggforest.aggregation import accumulate_oob_losses, oob_losses
from aggforest.binning import fit_bins, transform
from aggforest.forest import TrainConfig, fit
from aggforest.sampling import (
    TAG_BOOTSTRAP,
    TAG_FEATURES,
    BootstrapSample,
    RandomSource,
    bootstrap,
    subsample_features,
)
from aggforest.splits import (
    SplitConstraints,
    compute_histogram,
    find_best_split,
    impurity,
)
from aggforest.tree import Tree, grow_tree, grow_trees, node_forecast


def grown(n=120, seed=0, task="classification", aggregation=True, **kw):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    if task == "classification":
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.3)).astype(np.int64)
        flip = rng.random(n) < 0.08
        y[flip] = 1 - y[flip]
        n_classes = 2
    else:
        y = 3.0 * X[:, 0] - X[:, 1] + rng.normal(0, 0.2, n)
        n_classes = 0
    kw.setdefault("max_features", 3)
    config = TrainConfig(task=task, aggregation=aggregation, seed=seed, **kw)
    mapper = fit_bins(X, ["continuous"] * 3, config.max_bins)
    binned = transform(X, mapper)
    source = RandomSource(seed).child(0)
    sample = bootstrap(n, source.child(0))
    tree = grow_tree(binned, y, sample, config, source, n_classes=n_classes)
    return tree, binned, y, sample


def test_children_after_parent_and_depth_chain():
    tree, _, _, _ = grown()
    assert tree.n_nodes > 3
    for v in range(tree.n_nodes):
        l = tree.left_child[v]
        r = l + 1
        if tree.feature[v] < 0:
            assert l < 0
            continue
        assert l > v and r > v
        assert tree.parent[l] == v and tree.parent[r] == v
        assert tree.depth[l] == tree.depth[v] + 1
        assert tree.depth[r] == tree.depth[v] + 1
    assert tree.parent[0] == -1 and tree.depth[0] == 0


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_internal_stats_and_counts_are_those_of_their_rows(task):
    """An internal node's stats, its children's sums, are those its own rows
    give: exactly for classification, whose stats add integer bootstrap
    weights, and for regression within 1e-12 of the sums of the rows'
    absolute values.  Its row counts, routed and summed up by
    ``node_counts``, are those of the rows' paths."""
    tree, binned, y, sample = grown(task=task, seed=4)
    assert (tree.feature >= 0).sum() > 5
    want = np.zeros_like(tree.stats)
    scale = np.zeros_like(tree.stats)
    itb, oob = np.zeros(tree.n_nodes, int), np.zeros(tree.n_nodes, int)
    for r in sample.itb_indices:
        path = tree.path(binned.entries[r])
        w = sample.weights[r]
        if task == "classification":
            want[path, y[r]] += w
        else:
            row = np.array([w, w * y[r]])
            want[path] += row
            scale[path] += np.abs(row)
        itb[path] += 1
    for r in sample.oob_indices:
        oob[tree.path(binned.entries[r])] += 1
    np.testing.assert_array_equal(
        node_counts(tree, binned.entries, sample.itb_indices), itb)
    np.testing.assert_array_equal(
        node_counts(tree, binned.entries, sample.oob_indices), oob)
    if task == "classification":
        np.testing.assert_array_equal(tree.stats, want)
    else:
        assert (np.abs(tree.stats - want) <= 1e-12 * scale).all()


def test_stats_and_counts_partition_at_every_split():
    for task in ("classification", "regression"):
        tree, binned, _, sample = grown(task=task, seed=1)
        itb_count, oob_count = (node_counts(tree, binned.entries, rows) for rows
                                in (sample.itb_indices, sample.oob_indices))
        for v in range(tree.n_nodes):
            if tree.feature[v] < 0:
                continue
            l = tree.left_child[v]
            r = l + 1
            np.testing.assert_allclose(tree.stats[v],
                                       tree.stats[l] + tree.stats[r],
                                       rtol=1e-9, atol=1e-9)
            assert itb_count[v] == itb_count[l] + itb_count[r]
            assert oob_count[v] == oob_count[l] + oob_count[r]
            assert tree.itb_weight[v] == pytest.approx(
                tree.itb_weight[l] + tree.itb_weight[r])
        assert itb_count[0] == sample.n_itb
        assert oob_count[0] == sample.n_oob
        assert tree.itb_weight[0] == pytest.approx(sample.weights.sum())


def test_routing_agrees_with_growth_bookkeeping():
    tree, binned, _, sample = grown(seed=2)
    leaves = tree.route(binned.entries)
    assert (tree.feature[leaves] < 0).all()
    oob_count = node_counts(tree, binned.entries, sample.oob_indices)
    for v in np.flatnonzero(tree.is_leaf):
        sel = leaves == v
        assert sample.weights[sel].sum() == pytest.approx(tree.itb_weight[v])
        assert int(np.isin(sample.oob_indices, np.flatnonzero(sel)).sum()) \
            == oob_count[v]


def test_path_is_a_root_to_leaf_chain():
    tree, binned, _, _ = grown(seed=3)
    for i in range(0, 60, 7):
        x = binned.entries[i]
        path = tree.path(x)
        assert path[0] == 0
        assert tree.feature[path[-1]] < 0
        assert path[-1] == tree.route(binned.entries[i:i + 1])[0]
        for a, b in zip(path[:-1], path[1:]):
            assert tree.parent[b] == a


def split_goes_left(split, code, missing_bin):
    """The ``Split`` rule for one bin code, as its docstring states it."""
    if split.is_categorical:
        return bool(split.left_mask[code])
    if code == missing_bin:
        return split.missing_goes_left
    return code <= split.bin_threshold


def every_split_kind(seed=3, n=600):
    """A forest whose stacked trees hold categorical splits over a missing
    bin and continuous splits with missing values going left, going right,
    and alone (threshold -1), next to a feature without a missing bin."""
    rng = np.random.default_rng(seed)
    color = rng.choice(np.array(list("abcde"), dtype=object), size=n)
    color[rng.random(n) < 0.15] = None
    a, m, b = rng.normal(size=(3, n))
    a_miss, m_miss = rng.random(n) < 0.2, rng.random(n) < 0.3
    score = a + np.isin(color, ["a", "c"]) - 1.5 * m_miss + 0.8 * a_miss + b
    a[a_miss], m[m_miss] = np.nan, np.nan
    y = (score + rng.normal(0, 0.5, n) > 0).astype(int)
    cols = [color, a, m, b]
    forest = fit(cols, y, ["categorical"] + ["continuous"] * 3,
                 TrainConfig(n_trees=6, max_features=2, seed=seed))
    return (forest.table, forest.roots), forest._binned(cols)


def split_kinds_checked_bitwise(tree):
    """Assert that every internal node's routing bits, for every code below
    its feature's bin count, follow the ``Split`` rule of ``split_of``;
    return the kinds of split seen."""
    r = tree.router
    kinds = set()
    for i, v in enumerate(r.node):
        split = tree.split_of(int(v))
        j = split.feature
        n_bins, missing_bin = tree.feature_n_bins[j], tree.feature_missing_bin[j]
        want = [split_goes_left(split, code, missing_bin)
                for code in range(n_bins)]
        got = np.unpackbits(r.bits[i], bitorder="little")[:n_bins]
        assert got.tolist() == want, f"node {v}"
        assert r.feature[i] == j and r.link[v] == i
        if split.is_categorical:
            kinds.add(("categorical", bool(split.left_mask[missing_bin])))
        elif missing_bin < 0:
            kinds.add("no missing bin")
        elif split.bin_threshold == -1:
            kinds.add("threshold -1")
        else:
            kinds.add(("missing", split.missing_goes_left))
    return kinds


def test_routing_bits_match_the_split_rule():
    (tree, roots), binned = every_split_kind()
    assert split_kinds_checked_bitwise(tree) == {
        ("categorical", True), ("categorical", False), "no missing bin",
        "threshold -1", ("missing", True), ("missing", False)}
    assert (tree.feature_missing_bin[:3] >= 0).all()

    # Thresholds at or past the missing bin, which a saved model may hold:
    # the missing bin still follows missing_left alone.
    odd = dataclasses.replace(tree, threshold=tree.threshold.copy(),
                              missing_left=tree.missing_left.copy())
    # Split row r is that of the r-th internal node.
    feature = odd.feature[odd.feature >= 0]
    cont = np.flatnonzero((feature > 0) & (feature < 3))
    odd.threshold[cont[::2]] = odd.feature_n_bins[feature[cont[::2]]] + 3
    odd.threshold[cont[1::2]] = odd.feature_missing_bin[feature[cont[1::2]]]
    odd.missing_left[cont[::3]] ^= True
    assert ("missing", False) in split_kinds_checked_bitwise(odd)

    # Stacked routing against a walk of split_of, row by row and tree by tree.
    got = tree.route(binned.entries, roots)
    for i, x in enumerate(binned.entries):
        for t, v in enumerate(roots):
            while (split := tree.split_of(int(v))) is not None:
                left = split_goes_left(split, int(x[split.feature]),
                                       tree.feature_missing_bin[split.feature])
                v = tree.left_child[v] + (not left)
            assert got[i, t] == v, (i, t)
        path = tree.path(x)
        assert path[-1] == got[i, 0] and tree.feature[path[-1]] < 0


def test_router_is_built_in_memory_bounded_by_its_bits():
    # At 65536 bins a router row is 8 KB; the continuous rows were once
    # taken from a table of every threshold, 537 MB once packed.
    rng = np.random.default_rng(0)
    cols = list(rng.normal(size=(2, 20_000)))
    y = (cols[0] + cols[1] + rng.normal(size=20_000) > 0).astype(np.int64)
    forest = fit(cols, y, ["continuous"] * 2,
                 TrainConfig(n_trees=2, max_bins=65536, seed=0))
    assert "router" not in vars(forest.table)
    tracemalloc.start()
    try:
        router = forest.table.router
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = int(forest.table.feature_n_bins.max())
    assert width > 16_000 and router.bits.shape[0] > 100
    assert peak <= 3 * router.bits.nbytes
    # No feature has a missing bin: the bins up to each threshold go left.
    thresholds = [forest.table.split_of(int(v)).bin_threshold
                  for v in router.node]
    want = np.arange(width) <= np.array(thresholds)[:, None]
    assert np.array_equal(router.bits,
                          np.packbits(want, axis=1, bitorder="little"))


@functools.lru_cache(maxsize=None)
def routing_case(name):
    """A stacked table, an order of its roots and binned rows to route:
    every kind of split; single-leaf trees (the first tree among them)
    alternating with deeper ones; or uint16 codes."""
    if name == "split kinds":
        (table, roots), binned = every_split_kind()
        return table, roots, binned.entries
    rng = np.random.default_rng(4)
    if name == "single leaves":
        X = rng.normal(size=(20, 2))
        y = np.zeros(20, dtype=np.int64)
        y[:2] = 1
        cols, config = [X[:, 0], X[:, 1]], TrainConfig(n_trees=8, seed=4)
    else:
        X = rng.normal(size=(2000, 3))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.int64)
        cols = [X[:, j] for j in range(3)]
        config = TrainConfig(n_trees=6, max_bins=300, seed=4)
    forest = fit(cols, y, ["continuous"] * len(cols), config)
    table, roots = forest.table, forest.roots
    entries = forest._binned(cols).entries
    if name == "single leaves":
        leafy = table.feature[roots] < 0
        assert leafy[0] and 0 < leafy.sum() < roots.size
        key = np.empty(roots.size)
        key[leafy] = 2 * np.arange(leafy.sum())
        key[~leafy] = 2 * np.arange((~leafy).sum()) + 1
        roots = roots[np.argsort(key)]
    else:
        assert entries.dtype == np.uint16
    return table, roots, entries


@pytest.mark.parametrize("pairs", [1, 64, 65, 2 ** 16])
@pytest.mark.parametrize("stacked", [False, True],
                         ids=["roots-none", "stacked"])
@pytest.mark.parametrize("case", ["split kinds", "single leaves", "uint16"])
def test_leaves_do_not_depend_on_the_walk_cutoff(monkeypatch, case, stacked,
                                                 pairs):
    # At the default cutoff 1 and 64 pairs are walked in Python from the
    # root, 65 and 2^16 (a full prediction block) take numpy steps first;
    # cutoff 0 takes numpy steps only and 2^17 walks every pair.
    table, roots, entries = routing_case(case)
    t = 1
    if stacked:
        t = max(d for d in range(1, roots.size + 1) if pairs % d == 0)
    rows = np.random.default_rng(pairs).integers(0, entries.shape[0],
                                                 pairs // t)
    args = (entries[rows], roots[:t]) if stacked else (entries[rows],)
    want = table.route(*args)
    assert want.shape == ((pairs // t, t) if stacked else (pairs,))
    assert (table.feature[want] < 0).all()
    for cutoff in (0, 2 ** 17):
        monkeypatch.setattr(tree_module, "_WALK_PAIRS", cutoff)
        got = table.route(*args)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_leaf_minimums_and_oob_presence():
    tree, binned, _, sample = grown(seed=4, min_samples_leaf=3)
    oob_count = node_counts(tree, binned.entries, sample.oob_indices)
    assert (tree.itb_weight[tree.is_leaf] >= 3).all()
    assert (oob_count[tree.is_leaf] >= 3).all()
    # Aggregation mode guarantees every node sees both itb and oob rows.
    assert (tree.itb_weight > 0).all() and (oob_count > 0).all()


def test_aggregation_off_ignores_oob_constraints():
    tree_on, binned, _, sample = grown(seed=5, aggregation=True)
    tree_off, _, _, _ = grown(seed=5, aggregation=False)
    assert tree_off.n_nodes > 1
    # Without the oob floor some leaves hold no held-out rows; with it
    # every node retains some.
    assert (node_counts(tree_off, binned.entries, sample.oob_indices)
            == 0).any()
    assert (node_counts(tree_on, binned.entries, sample.oob_indices)
            > 0).all()


@pytest.mark.parametrize("empty", ["itb", "oob"])
def test_growth_refuses_a_node_without_rows_of_either_kind(empty):
    """Growth checks, on every level, that each node holds in-bag weight
    and, with aggregation on, an out-of-bag row; a root given none of one
    kind fails the check."""
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, size=(30, 2))
    binned = transform(X, fit_bins(X, ["continuous"] * 2, 16))
    weights = np.ones(30) if empty == "oob" else np.zeros(30)
    sample = BootstrapSample(
        weights=weights, itb_indices=np.flatnonzero(weights),
        oob_indices=np.flatnonzero(weights == 0))
    with pytest.raises(RuntimeError, match="without (in-bag weight|"
                                           "out-of-bag rows)"):
        grow_tree(binned, rng.integers(0, 2, size=30), sample,
                  TrainConfig(max_features=2), RandomSource(12).child(0),
                  n_classes=2)


def test_max_depth_per_level_cap():
    tree, _, _, _ = grown(seed=6, max_depth=2)
    assert tree.max_node_depth <= 2
    stump, _, _, _ = grown(seed=6, max_depth=0)
    assert stump.n_nodes == 1


def test_pure_labels_stop_growth():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(50, 2))
    y = np.zeros(50, dtype=np.int64)
    config = TrainConfig(max_features=2, seed=8)
    binned = transform(X, fit_bins(X, ["continuous"] * 2, 256))
    source = RandomSource(8).child(0)
    tree = grow_tree(binned, y, bootstrap(50, source.child(0)), config,
                     source, n_classes=2)
    assert tree.n_nodes == 1


def test_task_mismatch_and_bad_criterion():
    _, binned, y, sample = grown(seed=9)
    source = RandomSource(9).child(0)
    with pytest.raises(ValueError, match="disagree"):
        grow_tree(binned, y, sample, TrainConfig(task="regression"),
                  source, n_classes=2)
    with pytest.raises(ValueError, match="criterion"):
        grow_tree(binned, y, sample,
                  TrainConfig(max_features=3, criterion="variance"),
                  source, n_classes=2)


def test_growth_is_deterministic():
    a, _, _, _ = grown(seed=10, max_features=1)
    b, _, _, _ = grown(seed=10, max_features=1)
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.threshold, b.threshold)
    np.testing.assert_array_equal(a.left_child, b.left_child)
    np.testing.assert_array_equal(a.stats, b.stats)


def test_starved_oob_root_warns_and_stays_leaf():
    # One oob row is below min_samples_split=2, so the root cannot split.
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, size=(30, 2))
    y = rng.integers(0, 2, size=30)
    binned = transform(X, fit_bins(X, ["continuous"] * 2, 16))
    weights = np.ones(30)
    weights[29] = 0.0
    sample = BootstrapSample(weights=weights,
                             itb_indices=np.arange(29),
                             oob_indices=np.array([29]))
    source = RandomSource(11).child(0)
    with pytest.warns(UserWarning, match="out-of-bag"):
        tree = grow_tree(binned, y, sample, TrainConfig(max_features=2),
                         source, n_classes=2)
    assert tree.n_nodes == 1
    assert node_counts(tree, binned.entries, sample.oob_indices)[0] == 1


def test_categorical_split_end_to_end():
    rng = np.random.default_rng(12)
    raw = rng.choice(np.array(["a", "b", "c", "d"], dtype=object), size=200)
    y = np.isin(raw, ["a", "c"]).astype(np.int64)
    mapper = fit_bins([raw], ["categorical"], 16)
    binned = transform([raw], mapper)
    source = RandomSource(12).child(0)
    sample = bootstrap(200, source.child(0))
    tree = grow_tree(binned, y, sample, TrainConfig(max_features=1),
                     source, n_classes=2)
    root = tree.split_of(0)
    assert root.is_categorical
    # One split separates {a, c} from {b, d} perfectly.
    left = {m for m, b in mapper.features[0].categories.items()
            if root.left_mask[b]}
    assert left in ({"a", "c"}, {"b", "d"})


def test_split_of_round_trip():
    tree, _, _, _ = grown(seed=13)
    internal = np.flatnonzero(~tree.is_leaf)
    split = tree.split_of(int(internal[0]))
    assert split.feature >= 0 and split.gain is None
    assert tree.split_of(int(np.flatnonzero(tree.is_leaf)[0])) is None


def mixed_problem(seed, task, n=400):
    """Two continuous columns with missing values, one without, and two
    categorical columns (one with missing values) driving the labels."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0, 1, n)
    x1 = rng.normal(0, 1, n)
    x2 = rng.uniform(0, 1, n)
    c0 = rng.choice(np.array(list("abcdefg"), dtype=object), size=n)
    c1 = rng.choice(np.array(["u", "v", "w"], dtype=object), size=n)
    effect0 = dict(zip("abcdefg", rng.normal(0, 1, 7)))
    effect1 = dict(zip("uvw", rng.normal(0, 1, 3)))
    score = (2 * x0 - x1 + x2 + np.array([effect0[v] for v in c0])
             + np.array([effect1[v] for v in c1]) + rng.normal(0, 0.5, n))
    x0[rng.random(n) < 0.15] = np.nan
    x1[rng.random(n) < 0.1] = np.nan
    c0[rng.random(n) < 0.1] = None
    cols = [x0, x1, x2, c0, c1]
    kinds = ["continuous"] * 3 + ["categorical"] * 2
    if task == "binary":
        return cols, kinds, (score > np.median(score)).astype(np.int64), 2
    if task == "multiclass":
        return cols, kinds, np.digitize(score, np.quantile(score, [1 / 3, 2 / 3])), 3
    return cols, kinds, score, 0


@pytest.mark.parametrize(
    "task, criterion",
    [("binary", "gini"), ("multiclass", "gini"), ("regression", "variance"),
     ("binary", "entropy"), ("multiclass", "entropy")],
    ids=["binary", "multiclass", "regression", "binary-entropy",
         "multiclass-entropy"])
@pytest.mark.parametrize("max_features", [2, 5])
@pytest.mark.parametrize("aggregation", [True, False])
def test_stored_splits_match_find_best_split(monkeypatch, task, criterion,
                                             max_features, aggregation):
    """Every node's stored split is what find_best_split picks from that
    node's own histogram, sampled features and oob bin counts, and every
    leaf the stopping rules left open has no admissible split.  Growth's
    impurity stop rule reads 0 exactly where the node's own rows do, except
    at nodes whose in-bag labels are all one value, where both read 0 up to
    rounding."""
    seed = 21 + max_features
    cols, kinds, y, n_classes = mixed_problem(seed, task)
    config = TrainConfig(
        task="regression" if task == "regression" else "classification",
        max_bins=32, max_features=max_features, aggregation=aggregation,
        min_samples_leaf=1 if aggregation else 3, criterion=criterion,
        seed=seed)
    binned = transform(cols, fit_bins(cols, kinds, config.max_bins))
    source = RandomSource(seed).child(0)
    sample = bootstrap(len(y), source.child(TAG_BOOTSTRAP))
    readings = []

    def reading(stats, criterion):
        readings.append(impurity(stats, criterion))
        return readings[-1]

    # Growth reads the impurity of one level's nodes at a time, and numbers
    # nodes level by level, so its readings laid end to end are per node.
    monkeypatch.setattr(tree_module, "impurity", reading)
    tree = grow_tree(binned, y, sample, config, source, n_classes=n_classes)
    monkeypatch.undo()
    readings = np.concatenate(readings)
    assert readings.shape == (tree.n_nodes,)
    assert binned.missing_bin[[0, 1, 3]].min() >= 0
    assert len({bool(binned.is_categorical[j])
                for j in tree.feature[tree.feature >= 0]}) == 2

    constraints = SplitConstraints(
        min_leaf_weight=float(config.min_samples_leaf),
        min_leaf_oob=config.min_samples_leaf if aggregation else 0)
    at_node = [[] for _ in range(tree.n_nodes)]
    for i, v in enumerate(tree.route(binned.entries)):
        while v >= 0:
            at_node[v].append(i)
            v = tree.parent[v]
    oob_count = node_counts(tree, binned.entries, sample.oob_indices)

    def rows_of(v):
        rows = np.asarray(at_node[v])
        return rows[sample.weights[rows] > 0], rows[sample.weights[rows] == 0]

    def histogram(v, features):
        itb, _ = rows_of(v)
        return compute_histogram(itb, sample.weights[itb], features, binned,
                                 y, n_classes)

    # A regression node stores no sum of squares, so its impurity comes
    # from its own rows.  Where those are all one label it is 0 but for
    # rounding, on either side of 0 in growth's sums and in these, and only
    # growth's reading tells which such nodes drew a feature subset.
    own = np.array([impurity(histogram(v, [0]).tables[0].sum(axis=0),
                             criterion) for v in range(tree.n_nodes)])
    one_label = np.array([np.ptp(y[rows_of(v)[0]]) == 0
                          for v in range(tree.n_nodes)])
    assert ((own > 0) == (readings > 0))[~one_label].all()
    assert one_label.any() and (own[one_label] < 1e-12).all()
    is_open = (
        (tree.itb_weight >= config.min_samples_split)
        & ((oob_count >= config.min_samples_split) | (not aggregation))
        & (readings > 0))
    checked = 0
    for depth in range(tree.max_node_depth + 1):
        nodes = np.flatnonzero((tree.depth == depth) & is_open)
        if not nodes.size:
            continue
        features = subsample_features(
            binned.n_cols, max_features,
            source.child(TAG_FEATURES, depth), n_sets=nodes.size)
        for v, feats in zip(nodes, features):
            _, oob = rows_of(v)
            hist = histogram(v, feats)
            oob_hist = [np.bincount(binned.entries[oob, j],
                                    minlength=int(binned.n_bins[j]))
                        for j in feats] if aggregation else None
            want = find_best_split(hist, binned, criterion, constraints,
                                   oob_hist=oob_hist, n_classes=n_classes)
            got = tree.split_of(int(v))
            if got is None:
                assert want is None, f"node {v} left unsplit"
                continue
            assert want is not None, f"node {v} split without a valid split"
            assert (got.feature, got.is_categorical, got.bin_threshold,
                    got.missing_goes_left) == (
                want.feature, want.is_categorical, want.bin_threshold,
                want.missing_goes_left), f"node {v}"
            if got.is_categorical:
                np.testing.assert_array_equal(got.left_mask, want.left_mask)
            checked += 1
    assert checked == int((~tree.is_leaf).sum()) > 5


def assert_same_tree(got: Tree, want: Tree):
    """Every compared field equal, arrays bit for bit with the same dtype
    and shape; the routing table and depth order are derived caches."""
    for f in dataclasses.fields(Tree):
        if not f.compare:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def starved_sample(n):
    """Every row in the bag but the last: one oob row cannot pass
    min_samples_split=2, so the root stays a leaf under aggregation."""
    weights = np.ones(n)
    weights[-1] = 0.0
    return BootstrapSample(weights=weights, itb_indices=np.arange(n - 1),
                           oob_indices=np.array([n - 1]))


@pytest.mark.parametrize("task,options", [
    ("regression", {}),
    ("binary", {}),
    ("multiclass", {}),
    ("binary", {"max_features": 5}),
    ("multiclass", {"aggregation": False, "min_samples_leaf": 3}),
    ("regression", {"max_depth": 3}),
    ("binary", {"starved": 2}),
])
def test_grouped_growth_equals_one_tree_growth(task, options):
    """Growing a group of trees together gives each tree exactly as grown
    alone: feature streams per tree, categorical masks and child, parent
    and mask ids re-based per tree, stopping rules per node.  The oob leaf
    of each (row, tree) pair is where routing the grown tree puts the row,
    and the nodes' oob losses are bitwise those of routing the rows again."""
    options = dict(options)
    starved = options.pop("starved", None)
    seed = 31
    cols, kinds, y, n_classes = mixed_problem(seed, task)
    config = TrainConfig(
        task="regression" if task == "regression" else "classification",
        max_bins=32, max_features=options.pop("max_features", 2), seed=seed,
        **options)
    binned = transform(cols, fit_bins(cols, kinds, config.max_bins))
    sources = [RandomSource(seed).child(i) for i in range(5)]
    samples = [bootstrap(len(y), s.child(TAG_BOOTSTRAP)) for s in sources]
    if starved is not None:
        samples[starved] = starved_sample(len(y))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stored, roots, leaf = grow_trees(
            binned, y, samples, config, sources, n_classes=n_classes)
    table = Tree.from_heap(config.task, n_classes, binned, roots, **stored)
    oob_loss = None
    if config.aggregation:
        oob_loss = oob_losses(
            table, node_forecast(table.stats, config.task, config.dirichlet),
            leaf, np.concatenate([y[s.oob_indices] for s in samples]))
    assert len(caught) == (starved is not None)
    assert roots.shape == (5,)
    group = [Tree.from_heap(config.task, n_classes, binned,
                            np.zeros(1, np.int64),
                            **table.stored(slice(lo, hi)))
             for lo, hi in zip(roots, np.append(roots[1:], table.n_nodes))]
    for i, (got, sample, source) in enumerate(zip(group, samples, sources)):
        if i == starved:
            with pytest.warns(UserWarning, match="out-of-bag"):
                want = grow_tree(binned, y, sample, config, source,
                                 n_classes=n_classes)
            assert got.n_nodes == 1
        else:
            want = grow_tree(binned, y, sample, config, source,
                             n_classes=n_classes)
            assert got.n_nodes > 1
        assert_same_tree(got, want)
    if "max_depth" in options:
        assert max(t.max_node_depth for t in group) == options["max_depth"]
    if task != "regression" and not options:
        # Several trees hold categorical masks, so mask ids are re-based.
        assert sum(t.masks.shape[0] > 0 for t in group) >= 2
    np.testing.assert_array_equal(leaf, np.concatenate([
        root + t.route(binned.entries[s.oob_indices])
        for root, t, s in zip(roots, group, samples)]))
    if config.aggregation:
        want = np.concatenate([accumulate_oob_losses(
            t, node_forecast(t.stats, config.task, config.dirichlet),
            binned.entries, s.oob_indices, y)
            for t, s in zip(group, samples)])
        assert oob_loss.tobytes() == want.tobytes()
    else:
        assert oob_loss is None
    # With aggregation on, every node of every tree holds an oob row.
    oob_count = node_counts(table, binned.entries,
                            [s.oob_indices for s in samples], roots)
    assert (oob_count[roots] == [s.n_oob for s in samples]).all()
    assert (oob_count > 0).all() == config.aggregation
