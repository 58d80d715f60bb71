"""Flat binary trees grown level by level on binned features."""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binning import BinnedMatrix, BinTable
from .sampling import (
    TAG_FEATURES,
    BootstrapSample,
    RandomSource,
    default_max_features,
    subsample_features,
)
from .splits import (
    Split,
    SplitConstraints,
    _class_sum,
    best_splits,
    goes_left,
    impurity,
    left_rows,
    level_histogram,
)

NO_NODE = -1

# At or below this many unfinished (row, tree) pairs, ``Tree.route`` walks
# each pair to its leaf in Python instead of taking numpy steps.  A numpy
# step costs about 7 us whatever its size and a Python step about 0.12 us
# per pair, so they break even near 60 pairs.  Measured on the benchmark's
# forests (2-vCPU EPYC), numpy steps against the walk for all pairs: 64
# pairs of 4 trees of depth about 15, 142 against 138 us, and 128 pairs
# 141 against 250 us; 60 pairs of 10 trees 119 against 103 us, and 90
# pairs 133 against 155 us.
_WALK_PAIRS = 64


@dataclass(frozen=True)
class Router:
    """A tree's splits as packed sets of the bins that go left.

    Internal nodes are numbered 0..I-1 in node order, as their split rows
    are.  A link is where a step lands: an internal number, or ``~node``
    for a leaf.  Row i of ``bits`` packs the bins that go left at internal
    node i, whatever the kind of split, as growth routes by them
    (``splits.goes_left``); bits at or past the split feature's bin count
    mean nothing.
    """

    feature: np.ndarray     # (I,) split feature of each internal node
    bits: np.ndarray        # (I, ceil(bins / 8)) uint8
    child: np.ndarray       # (2I,) links, left child at 2i, right at 2i + 1
    node: np.ndarray        # (I,) node id of each internal number
    link: np.ndarray        # (n_nodes,) link of every node

    @classmethod
    def of(cls, tree: Tree) -> Router:
        node = np.flatnonzero(tree.feature >= 0)
        link = ~np.arange(tree.n_nodes)
        link[node] = np.arange(node.shape[0])
        child = link[tree.left_child[node, None] + np.arange(2)].ravel()
        feature = tree.feature[node].astype(np.intp)
        cat = tree.layout.is_categorical[feature]
        cont = left_rows(tree.threshold, tree.layout.missing_bin[feature[~cat]],
                         tree.missing_left, tree.masks.shape[1])
        bits = np.empty((node.shape[0], cont.shape[1]), np.uint8)
        # Categorical: the packed mask, the missing bin included.
        bits[~cat], bits[cat] = cont, tree.masks
        return cls(feature, bits, child, node, link)

    def step(self, at, codes):
        """Where the internal links ``at`` send bin ``codes``: to the left
        child when a code's bit is set, else to the right child."""
        return self.child[2 * at + 1 - goes_left(self.bits, at, codes)]

    def walk(self, pairs, codes: np.ndarray, n: int) -> list[int]:
        """The leaf links that (internal link, row) ``pairs`` end at, each
        walked down by ``step``'s rule in Python on ints.  Row i's code for
        feature j sits at j * n + i of the flat ``codes``.  The arrays are
        read through memoryviews, without copies."""
        feature, child = memoryview(self.feature), memoryview(self.child)
        bits, width = memoryview(self.bits.reshape(-1)), self.bits.shape[1]
        codes = memoryview(codes)
        out = []
        for at, row in pairs:
            while at >= 0:
                code = codes[feature[at] * n + row]
                byte = bits[at * width + (code >> 3)]
                at = child[2 * at + 1 - ((byte >> (code & 7)) & 1)]
            out.append(at)
        return out


@dataclass
class Tree:
    """A grown tree, or a stack of trees one after another: per-node arrays,
    and the splits as a model file stores them.  Only ``from_heap`` builds
    one, from what ``stored`` gives, and checks it: a fitted or loaded
    table and each tree a forest shows alone (``Forest.trees``) alike.

    Children always sit at larger indexes than their parent (a tree's root
    first), so a single reverse pass visits children before parents; an
    internal node's right child is ``left_child + 1``.  ``feature`` is the
    split feature of each node, -1 at a leaf; a split's kind is its
    feature's in ``layout``, the mapper's ``BinTable``.  ``threshold`` and
    ``missing_left`` hold one row per continuous split, ``masks`` one per
    categorical split, the bins that go left as ``np.packbits(left_bins,
    bitorder="little")`` as wide as the widest feature needs, each in node
    order.  A node's ``stats`` are its in-bag class weights, or for
    regression its weight and weighted label sum (w, sum w y); an internal
    node's are the sums of its children's.  ``levels`` holds the internal
    nodes by depth, shallowest first and in node order within a depth, and
    where each depth's run ends.

    Routing reads none of these split fields at a step.  On its first route
    a tree builds its ``router``: one packed bitset of the bins that go left
    per internal node, for continuous and categorical splits alike, as
    growth routed its rows.  ``route``, ``path`` and the out-of-bag
    reference step through it.  The router is derived state, never saved
    or compared, so change a tree's arrays only before routing with it.
    """

    task: str
    n_classes: int
    feature: np.ndarray
    threshold: np.ndarray
    missing_left: np.ndarray
    masks: np.ndarray
    left_child: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    stats: np.ndarray
    layout: BinTable = field(repr=False, compare=False)
    levels: tuple[np.ndarray, list[int]] = field(repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def is_leaf(self) -> np.ndarray:
        return self.feature < 0

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    @property
    def itb_weight(self) -> np.ndarray:
        """Each node's total in-bag weight, from its stats."""
        return self.stats.sum(axis=1) if self.n_classes else self.stats[:, 0]

    @property
    def max_node_depth(self) -> int:
        return int(self.depth.max())

    def split_of(self, index: int) -> Split | None:
        s = self.stored(slice(index, index + 1))
        if not s["internal"][0]:
            return None
        j = int(s["feature"][0])
        if s["masks"].shape[0]:
            return Split.by_mask(j, np.unpackbits(
                s["masks"][0], count=int(self.layout.n_bins[j]),
                bitorder="little").astype(bool))
        return Split(j, False, int(s["threshold"][0]),
                     bool(s["missing_left"][0]), None)

    def stored(self, node=None, internal=None) -> dict[str, np.ndarray]:
        """What ``from_heap`` builds a table from, besides the roots: of the
        nodes ``node``, which are ``internal``, the split rows and masks of
        those and the stats of the others, each in node order.  ``node`` is
        every node by default, or a slice, such as one tree's nodes of a
        stack, which keeps every split; or ascending ids, of which a cut
        passes the ones that stay ``internal``."""
        node = slice(0, self.n_nodes) if node is None else node
        if internal is None:
            internal = self.feature[node] >= 0
        feature = self.feature[node][internal]
        if isinstance(node, slice):
            # A run of nodes holds a run of rows of each kind: counts find
            # them, where ranking every node took 30x as long per tree, and
            # a gather of the kinds before the run made ``Forest.trees``
            # take 1.5x as long.
            before = self.feature[:node.start]
            cat = sum(np.count_nonzero(before == j)
                      for j in self.layout.categorical)
            cont = np.count_nonzero(before >= 0) - cat
            here = np.count_nonzero(self.layout.is_categorical[feature])
            cont = slice(cont, cont + feature.shape[0] - here)
            cat = slice(cat, cat + here)
        else:
            split = self.feature >= 0
            kinds = self.layout.is_categorical[self.feature[split]]
            row = (np.cumsum(split) - 1)[node][internal]
            cont, cat = ((np.cumsum(kind) - 1)[row[kind[row]]]
                         for kind in (~kinds, kinds))
        return dict(internal=internal, feature=feature,
                    threshold=self.threshold[cont],
                    missing_left=self.missing_left[cont],
                    masks=self.masks[cat], stats=self.stats[node][~internal])

    @cached_property
    def router(self) -> Router:
        """The routing table, built on first use."""
        return Router.of(self)

    def route(self, entries: np.ndarray,
              roots: np.ndarray | None = None) -> np.ndarray:
        """Leaf index for every row of a binned matrix.

        From the root, node 0, by default: one leaf per row.  Given the
        roots of a stack of trees, every (row, root) pair
        is routed at once and the result has shape (rows, roots).

        While more than ``_WALK_PAIRS`` pairs are unfinished, every one of
        them takes a numpy step per level; the last few are walked to their
        leaves in Python (``Router.walk``), so a single row of a few trees
        makes no numpy call per level.  Both follow one rule, so the leaves
        do not depend on the cutoff.
        """
        r = self.router
        start = np.zeros(1, dtype=np.int64) if roots is None else roots
        t, n = start.shape[0], entries.shape[0]
        # Row i's code for feature j sits at j * n + i of the flat codes.
        codes = entries.ravel(order="F")
        at = np.tile(r.link[start], n)
        active = np.flatnonzero(at >= 0)
        if active.size > _WALK_PAIRS:
            column, row = r.feature * n, np.repeat(np.arange(n), t)
            while active.size > _WALK_PAIRS:
                here = at[active]
                at[active] = here = r.step(here,
                                           codes[column[here] + row[active]])
                active = active[here >= 0]
        at[active] = r.walk(zip(at[active].tolist(), (active // t).tolist()),
                            codes, n)
        leaf = ~at
        return leaf if roots is None else leaf.reshape(n, t)

    def path(self, entry_row: np.ndarray) -> np.ndarray:
        """Node ids from the root down to the leaf holding one binned row."""
        (link,) = self.router.walk([(int(self.router.link[0]), 0)],
                                   np.asarray(entry_row), 1)
        out, node, parent = [], ~link, memoryview(self.parent)
        while node >= 0:
            out.append(node)
            node = parent[node]
        return np.asarray(out[::-1], dtype=np.int64)

    @classmethod
    def from_heap(cls, task: str, n_classes: int, layout: BinTable,
                  roots: np.ndarray, internal: np.ndarray, masks: np.ndarray,
                  *, feature, threshold, missing_left, stats) -> Tree:
        """A stack of trees from what ``stored`` gives and each tree's first
        node; the other fields follow from these.

        A tree's nodes fill one block from its root, breadth first as
        ``grow_trees`` numbers them, so the k-th internal node of a tree has
        its children at 2k + 1 and 2k + 2 of its block.  The fields hold
        rows as ``Tree`` does, and ``stats`` one per leaf; the tree keeps
        copies of the split rows and ``layout`` itself.  Raise ValueError
        unless every tree has 2I + 1 nodes for I internal ones, each child
        after its parent, which keeps routing from a root inside its tree,
        unless the fields hold a row per node of their kind, as ``layout``
        gives it, unless features and masks fit the layout, and unless
        each continuous split sends some bin each way: a threshold in
        [-1, n_bins - 2] of its feature, -1 only where missing values go
        left, and missing_left only on a feature with a missing bin.
        """
        n = internal.shape[0]
        sizes = np.diff(roots, append=n)
        if roots.size == 0 or roots[0] != 0 or (sizes < 1).any():
            raise ValueError("roots do not start at node 0 and rise within "
                             "the nodes")
        node = np.flatnonzero(internal)
        n_internal = np.add.reduceat(internal, roots, dtype=np.int64)
        if (2 * n_internal + 1 != sizes).any():
            raise ValueError("a tree's node count is not 2I + 1 for its I "
                             "internal nodes")
        # Internal node k of the table is internal node k - b of its tree,
        # b counting those of the trees before: its left child sits at
        # root + 2 (k - b) + 1 = 2k + 1 + shift.
        shift = roots - 2 * (np.cumsum(n_internal) - n_internal)
        left = 2 * np.arange(node.shape[0]) + 1 + np.repeat(shift, n_internal)
        if (left <= node).any():
            raise ValueError("a child sits at or before its parent")
        if feature.shape != node.shape:
            raise ValueError("feature does not hold one row per internal node")
        if stats.ndim != 2 or stats.shape[0] != n - node.shape[0]:
            raise ValueError("stats does not hold one row per leaf")
        if node.size and not ((feature >= 0)
                              & (feature < layout.n_bins.shape[0])).all():
            raise ValueError("feature index out of range")
        # A mask is as wide as the widest feature's bins need.
        on = feature[~layout.is_categorical[feature]]
        for name, col, shape, kind in (
                ("threshold", threshold, on.shape, "continuous"),
                ("missing_left", missing_left, on.shape, "continuous"),
                ("masks", masks, (feature.shape[0] - on.shape[0],
                                  (int(layout.n_bins.max()) + 7) // 8),
                 "categorical")):
            if col.shape != shape:
                raise ValueError(f"{name} does not hold one row per {kind} "
                                 f"split: shape {col.shape}, not {shape}")
        # A continuous split sends bins up to its threshold left, and the
        # missing bin where missing_left: some bin each way, as growth
        # splits.  Checked before the cast, which would wrap.
        top = layout.n_bins.take(on) - 2
        if (missing_left & (layout.missing_bin.take(on) < 0)).any():
            raise ValueError("missing_left is set at a split on a feature "
                             "without a missing bin")
        if not ((threshold >= -1) & (threshold <= top)).all():
            raise ValueError("threshold outside [-1, n_bins - 2] of its "
                             "split feature")
        if (((threshold == -1) & ~missing_left).any()
                or (missing_left & (threshold == top)).any()):
            raise ValueError("threshold and missing_left send no bin left or "
                             "no bin right at a split")
        cols = {name: np.full(n, NO_NODE, dtype=np.int32)
                for name in ("feature", "left_child", "parent", "depth")}
        cols["feature"][node] = feature
        cols["left_child"][node] = left
        cols["parent"][left], cols["parent"][left + 1] = node, node
        # Depth d + 1 holds the children of the internal nodes at depth d,
        # each depth in node order, from one walk down from the roots.
        at, levels = roots, []
        while at.size:
            cols["depth"][at] = len(levels)
            at = at[internal[at]]
            if at.size:
                levels.append(at)
                at = (cols["left_child"][at, None] + np.arange(2)).ravel()
        # Each internal node's stats are its children's sums, one depth at
        # a time, deepest first; bootstrap counts and class weights add
        # exactly.  Leaf ids scatter in a third of the time a mask of half
        # the nodes takes.
        sums = np.empty((n, stats.shape[1]))
        _rows(sums)[np.flatnonzero(~internal)] = _rows(
            np.ascontiguousarray(stats, np.float64))
        for at in reversed(levels):
            kid = cols["left_child"][at]
            _rows(sums)[at] = _rows(np.take(sums, kid, axis=0)
                                    + np.take(sums, kid + 1, axis=0))
        return cls(task=task, n_classes=n_classes,
                   threshold=threshold.astype(np.int32),
                   missing_left=missing_left.astype(bool),
                   masks=masks.astype(np.uint8), stats=sums, layout=layout,
                   levels=(np.concatenate([node[:0], *levels]),
                           np.cumsum([a.size for a in levels]).tolist()),
                   **cols)


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-d array as single items of a void type,
    which numpy gathers and scatters whole, much faster than rows of
    numbers."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))


# The fields ``Tree.from_heap`` derives the others from, as ``Tree.stored``
# gives them: which nodes are internal, the split rows, and the stats of each
# leaf, whose sums give an internal node's.
STORED = ("internal", "feature", "threshold", "missing_left", "masks", "stats")


def _node_stats(abs_rows, w_rows, labels, n_classes) -> np.ndarray:
    if n_classes > 0:
        return np.bincount(labels[abs_rows], weights=w_rows, minlength=n_classes)
    yr = labels[abs_rows]
    wy = w_rows * yr
    return np.array([w_rows.sum(), wy.sum(), (wy * yr).sum()])


def node_forecast(stats, task: str, dirichlet: float = 0.5):
    """Forecast of a node from its itb label statistics, or of every node
    of a stack of them (one node per row).

    Classification returns the smoothed class frequencies
    (count_k + dirichlet) / (total + dirichlet * K), strictly positive and
    summing to one.  Regression returns the weighted label mean.
    """
    stats = np.asarray(stats, dtype=np.float64)
    if task == "classification":
        if dirichlet <= 0:
            raise ValueError(f"dirichlet must be positive, got {dirichlet}")
        # Classes added in order: what numpy's sum gives below 8 classes,
        # without its reduction's overhead.
        total = _class_sum(stats) + dirichlet * stats.shape[-1]
        return (stats + dirichlet) / total[..., None]
    if task == "regression":
        if (stats[..., 0] <= 0).any():
            raise ValueError("forecast of an empty node is undefined")
        return stats[..., 1] / stats[..., 0]
    raise ValueError(f"unknown task {task!r}")


def features_per_node(config, n_features: int) -> int:
    """How many features each node samples: ``config.max_features``, by
    default floor(sqrt(d)), at most all d of them."""
    return min(config.max_features or default_max_features(n_features),
               n_features)


def grow_tree(binned: BinnedMatrix, labels, sample: BootstrapSample, config,
              source: RandomSource, *, n_classes: int = 0) -> Tree:
    """Grow one tree: the table of ``grow_trees`` on a group of one."""
    stored, roots, _ = grow_trees(binned, labels, [sample], config, [source],
                                  n_classes=n_classes)
    return Tree.from_heap(config.task, n_classes, binned.table, roots,
                          **stored)


def grow_trees(binned: BinnedMatrix, labels,
               samples: Iterable[BootstrapSample], config,
               sources: list[RandomSource], *, n_classes: int = 0):
    """Grow one tree per bootstrap sample, all together, level by level.

    ``samples`` is read once, before the first level: given an iterator, a
    sample's arrays that growth does not keep go as soon as it is read.

    All open nodes of one depth, across the trees, are handled together: one
    tally builds their histograms over the bins their rows occupy
    (``level_histogram``), one batched search finds their splits
    (``best_splits``, which keeps ``find_best_split``'s semantics and
    tie-breaks), and one routing step moves their rows to the children by
    the bit test of ``Router.step`` on the splits' packed left bins.
    Each tree is the one it would be if grown alone.  Node ids are
    breadth-first within each tree, so children sit after their parent.  A
    tree's open nodes of one depth draw their feature subsets from one
    generator, keyed by (TAG_FEATURES, depth) under the tree's source.

    ``config`` supplies task, criterion, sizes and the aggregation switch
    (see TrainConfig).  With aggregation on, minimum-size rules apply to the
    itb weight and the oob count of every node, which guarantees each node
    holds at least one sample of either kind; growth checks both on every
    level.  With aggregation off only itb weights are constrained, matching
    a plain random forest.

    Every (oob row, tree) pair goes down to its leaf.  Returns only what
    growth decided: the trees' fields as ``Tree.stored`` gives them, tree
    by tree, each tree's first node, and the leaf of each pair, tree by
    tree in oob index order; ``Tree.from_heap`` builds the table from the
    first two.  Labels must be encoded class ids when n_classes > 0, float
    targets otherwise.
    """
    classification = n_classes > 0
    if classification != (config.task == "classification"):
        raise ValueError("n_classes and config.task disagree")
    criterion = config.criterion or ("gini" if classification else "variance")
    labels = np.asarray(labels, dtype=np.int64 if classification else np.float64)

    entries = binned.entries
    d = binned.n_cols
    use_oob = bool(config.aggregation)
    m = features_per_node(config, d)
    max_depth = config.max_depth
    min_split_w = float(config.min_samples_split)
    min_split_oob = int(config.min_samples_split)
    constraints = SplitConstraints(
        min_leaf_weight=float(config.min_samples_leaf),
        min_leaf_oob=int(config.min_samples_leaf) if use_oob else 0,
    )

    # In-bag rows and (oob row, tree) pairs, tree by tree and ascending
    # within each node, and the position of each one's node in its level;
    # -2 and -1 mark in-bag rows of nodes that did not split.  Root t is at t.
    # Oob pairs also keep their index among all pairs.  Each sample is read
    # once, and only these arrays are kept of it.
    itb, weights, oob = zip(*[(s.itb_indices, s.weights[s.itb_indices],
                               s.oob_indices) for s in samples])
    n_trees = len(itb)
    n_itb, oob_count = (np.array([r.shape[0] for r in part])
                        for part in (itb, oob))
    # Row, pair and node ids take 32 bits when they fit (a tree has fewer
    # nodes than twice its in-bag rows).
    index = (np.int32 if binned.n_rows + 2 * n_itb.sum() + oob_count.sum()
             < 2 ** 31 else np.int64)
    slot, oob_slot = (np.repeat(np.arange(n_trees), count)
                      for count in (n_itb, oob_count))
    # The current level, ordered by tree: the children of split i of the
    # last level sit at positions 2i (left) and 2i + 1 (right).  A level
    # keeps its stats, its oob counts and how many of its nodes each tree
    # owns.
    stats = np.array([_node_stats(r, w, labels, n_classes)
                      for r, w in zip(itb, weights)])
    rows, oob_rows = (np.concatenate(r, dtype=index) for r in (itb, oob))
    weights = np.concatenate(weights)
    del itb, oob
    oob_pair = np.arange(oob_rows.shape[0], dtype=index)
    leaf = np.empty_like(oob_pair)
    y = labels[rows]
    all_features = np.broadcast_to(np.arange(d), (max(rows.shape[0], 1), d))
    owner = np.arange(n_trees)
    # Per level: which nodes split, how many nodes each tree owns, and the
    # leaves' stats; per split, its feature, and its threshold and
    # missing_left or its mask by kind, after an empty entry that gives
    # their types when nothing splits.
    layout = binned.table
    levels, first = [], 0
    splits = [(np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros(0, bool),
               np.zeros((0, (int(layout.n_bins.max()) + 7) // 8), np.uint8))]
    while True:
        n, depth = stats.shape[0], len(levels)
        w_node = stats.sum(axis=1) if classification else stats[:, 0]
        if not (w_node > 0).all():
            raise RuntimeError("growth made a node without in-bag weight")
        if use_oob and (oob_count < 1).any():
            raise RuntimeError("growth made a node without out-of-bag rows")
        leaf[oob_pair] = first + oob_slot
        open_ = w_node >= min_split_w
        if max_depth is not None and depth >= max_depth:
            open_[:] = False
        if use_oob:
            starved = oob_count < min_split_oob
            for root in np.flatnonzero(open_ & starved & (depth == 0)):
                warnings.warn(
                    f"root has only {oob_count[root]} out-of-bag rows, fewer "
                    f"than min_samples_split={min_split_oob}; the tree is a "
                    "single leaf", stacklevel=2)
            open_ &= ~starved
        open_ &= impurity(stats, criterion) > 0
        cand = np.flatnonzero(open_)
        if cand.size == 0:
            levels.append(_level(stats, owner, np.zeros(n, dtype=bool),
                                 n_trees, n_classes))
            break
        # Keep the rows of open nodes, numbered by their node's position
        # among the open ones.
        at = np.full(n + 2, -1)
        at[cand] = np.arange(cand.size)
        slot, oob_slot = at[slot], at[oob_slot]
        keep, oob_keep = slot >= 0, oob_slot >= 0
        rows, weights, y, slot = rows[keep], weights[keep], y[keep], slot[keep]
        oob_rows, oob_slot, oob_pair = (oob_rows[oob_keep], oob_slot[oob_keep],
                                        oob_pair[oob_keep])

        # Histograms and splits of every open node at once.
        if m == d:
            features = all_features[:cand.size]
        else:
            trees, n_open = np.unique(owner[cand], return_counts=True)
            features = np.concatenate([subsample_features(
                d, m, sources[t].child(TAG_FEATURES, depth), n_sets=k)
                for t, k in zip(trees.tolist(), n_open.tolist())])
        hist = level_histogram(binned, features, rows, slot, weights, y,
                               n_classes, oob_rows if use_oob else None,
                               oob_slot)
        best = best_splits(hist, binned, criterion, constraints, n_classes)
        n_split = best.node.shape[0]
        split = np.zeros(n, dtype=bool)
        split[cand[best.node]] = True
        levels.append(_level(stats, owner, split, n_trees, n_classes))
        if n_split == 0:
            break
        # Only categorical splits keep their ``left`` rows, as masks.
        cat = layout.is_categorical[best.feature]
        splits.append((best.feature, best.threshold[~cat],
                       best.missing_left[~cat], best.left[cat]))

        # Route every row to its child in one step, by the routing rule.
        rank = np.full(cand.size, -1)
        rank[best.node] = np.arange(n_split)
        slot, oob_slot = rank[slot], rank[oob_slot]
        oob_keep = oob_slot >= 0
        oob_rows, oob_slot, oob_pair = (oob_rows[oob_keep], oob_slot[oob_keep],
                                        oob_pair[oob_keep])
        slot = 2 * slot + 1 - goes_left(best.left, slot,
                                        entries[rows, best.feature[slot]])
        oob_slot = 2 * oob_slot + 1 - goes_left(
            best.left, oob_slot, entries[oob_rows, best.feature[oob_slot]])

        parent_stats = stats[cand[best.node]]
        stats = np.empty((2 * n_split, stats.shape[1]))
        stats[0::2] = best.stats_left
        stats[1::2] = parent_stats - best.stats_left
        oob_count = np.bincount(oob_slot, minlength=2 * n_split)
        owner = np.repeat(owner[cand[best.node]], 2)
        first += n
        # The level's histogram and splits, masks included, go before the
        # next level's are built.
        del hist, best

    # The stored rows of each kind, level by level across the trees, are
    # taken tree by tree: each tree's nodes stay breadth first, the order
    # ``from_heap`` takes links from.
    split, owned, leaf_stats = (np.concatenate(part) for part in zip(*levels))
    n_nodes = split.shape[0]
    del levels, stats
    owner = np.repeat(np.tile(np.arange(n_trees), len(owned) // n_trees),
                      owned)
    order = np.argsort(owner, kind="stable")
    position = np.empty_like(order, dtype=index)
    position[order] = np.arange(n_nodes)
    per_tree = np.bincount(owner, minlength=n_trees)
    roots = np.cumsum(per_tree) - per_tree
    internal = split[order]
    feature, threshold, missing_left, masks = (np.concatenate(part)
                                               for part in zip(*splits))
    del splits
    # The rows of each kind are in level order, so a node's row counts the
    # nodes of its kind before it.
    row = (np.cumsum(split) - 1)[order[internal]]
    kinds = layout.is_categorical[feature]
    cont, cat = ((np.cumsum(kind) - 1)[row[kind[row]]]
                 for kind in (~kinds, kinds))
    stored = dict(internal=internal, feature=feature[row],
                  threshold=threshold[cont], missing_left=missing_left[cont],
                  masks=masks[cat])
    stored["stats"] = leaf_stats[(np.cumsum(~split) - 1)[order[~internal]]]
    return stored, roots, position[leaf]


def _level(stats, owner, split, n_trees, n_classes):
    """What growth keeps of a level: which nodes split, how many nodes each
    tree owns, and the stats of the leaves.  A regression leaf keeps
    (w, sum w y); its sum w y^2 served split search and the stop rule only."""
    return (split, np.bincount(owner, minlength=n_trees),
            stats[~split, :n_classes or 2])
