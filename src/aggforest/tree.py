"""Flat binary trees grown level by level on binned features."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .binning import BinnedMatrix
from .sampling import (
    TAG_FEATURES,
    BootstrapSample,
    RandomSource,
    default_max_features,
    subsample_features,
)
from .splits import (
    CLASSIFICATION_CRITERIA,
    REGRESSION_CRITERIA,
    Split,
    SplitConstraints,
    best_splits,
    impurity,
    level_histogram,
)

NO_NODE = -1


@dataclass(frozen=True)
class Router:
    """A tree's splits as packed sets of the bins that go left.

    Internal nodes are numbered 0..I-1 in node order.  A link is where a step
    lands: an internal number, or ``~node`` for a leaf.  Bit b of row i of
    ``bits``, little-endian within each byte, is set when bin b goes left at
    internal node i, whatever the kind of split; bits at or past the split
    feature's bin count mean nothing.
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
        child = link[np.stack([tree.left_child[node],
                               tree.right_child[node]], axis=1)].ravel()
        feature = tree.feature[node].astype(np.intp)
        n_bins = tree.feature_n_bins[feature]
        width = int(tree.feature_n_bins.max())
        # Continuous: row k + 1 of the prefix table packs the bins <= k, and
        # the missing bin, when the feature has one, follows missing_left.
        prefix = np.packbits(np.tri(width + 1, width, -1, dtype=bool), axis=1,
                             bitorder="little")
        bits = prefix[np.clip(tree.threshold[node], -1, n_bins - 1) + 1]
        has = np.flatnonzero(tree.feature_missing_bin[feature] >= 0)
        b = tree.feature_missing_bin[feature[has]]
        byte, bit = bits[has, b >> 3], (1 << (b & 7)).astype(np.uint8)
        bits[has, b >> 3] = np.where(tree.missing_left[node[has]],
                                     byte | bit, byte & ~bit)
        # Categorical: the packed mask, the missing bin included.
        cat = np.flatnonzero(tree.mask_id[node] >= 0)
        packed = np.packbits(tree.masks[:, :width], axis=1, bitorder="little")
        bits[cat, :packed.shape[1]] = packed[tree.mask_id[node[cat]]]
        return cls(feature, bits, child, node, link)

    def step(self, at, codes):
        """Where the internal links ``at`` send bin ``codes``: to the left
        child when a code's bit is set, else to the right child."""
        byte = self.bits.reshape(-1)[at * self.bits.shape[1] + (codes >> 3)]
        return self.child[2 * at + 1 - ((byte >> (codes & 7)) & 1)]


@dataclass
class Tree:
    """A grown tree as parallel per-node arrays.

    Children always sit at larger indexes than their parent (the root is
    node 0), so a single reverse pass visits children before parents.
    Categorical split masks live in the shared ``masks`` pool, indexed by
    ``mask_id``; ``threshold`` is meaningful only for continuous splits.

    Routing reads none of these split fields at a step.  On its first route
    a tree builds its ``Router``: one packed bitset of the bins that go left
    per internal node, for continuous and categorical splits alike.
    ``route``, ``path`` and the out-of-bag pass all step through it.  The
    table is derived state, never saved or compared, so change a tree's
    arrays only before routing with it.
    """

    task: str
    n_classes: int
    feature: np.ndarray
    threshold: np.ndarray
    missing_left: np.ndarray
    mask_id: np.ndarray
    masks: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    gain: np.ndarray
    itb_count: np.ndarray
    itb_weight: np.ndarray
    oob_count: np.ndarray
    stats: np.ndarray
    feature_n_bins: np.ndarray
    feature_missing_bin: np.ndarray
    _router: Router | None = field(default=None, init=False, repr=False,
                                   compare=False)

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
    def max_node_depth(self) -> int:
        return int(self.depth.max())

    def split_of(self, index: int) -> Split | None:
        j = int(self.feature[index])
        if j < 0:
            return None
        mid = int(self.mask_id[index])
        mask = None
        if mid >= 0:
            mask = self.masks[mid, : int(self.feature_n_bins[j])].copy()
        return Split(
            feature=j,
            is_categorical=mid >= 0,
            bin_threshold=int(self.threshold[index]),
            missing_goes_left=bool(self.missing_left[index]),
            left_mask=mask,
            gain=float(self.gain[index]),
        )

    @property
    def router(self) -> Router:
        """The routing table, built on first use."""
        if self._router is None:
            self._router = Router.of(self)
        return self._router

    def route(self, entries: np.ndarray,
              roots: np.ndarray | None = None) -> np.ndarray:
        """Leaf index for every row of a binned matrix.

        From the root, node 0, by default: one leaf per row.  Given the
        roots of several trees (see ``stack_trees``), every (row, root) pair
        is routed at once and the result has shape (rows, roots).
        """
        r = self.router
        start = np.zeros(1, dtype=np.int64) if roots is None else roots
        t, n = start.shape[0], entries.shape[0]
        # Row i's code for feature j sits at j * n + i of the flat codes.
        codes, column = entries.ravel(order="F"), r.feature * n
        at = np.tile(r.link[start], n)
        row = np.repeat(np.arange(n), t)
        active = np.flatnonzero(at >= 0)
        while active.size:
            here = at[active]
            at[active] = here = r.step(here, codes[column[here] + row[active]])
            active = active[here >= 0]
        leaf = ~at
        return leaf if roots is None else leaf.reshape(n, t)

    def path(self, entry_row: np.ndarray) -> np.ndarray:
        """Node ids from the root down to the leaf holding one binned row."""
        r = self.router
        codes = np.asarray(entry_row)
        at, out = r.link[0], []
        while at >= 0:
            out.append(r.node[at])
            at = r.step(at, codes[r.feature[at]])
        out.append(~at)
        return np.asarray(out, dtype=np.int64)

    def validate(self) -> None:
        """Raise ValueError unless routing from node 0 stays in the tree:
        one entry per node, features, missing bins and mask ids in range,
        and parent and child links that agree, each child after its
        parent."""
        n = self.n_nodes
        if n == 0:
            raise ValueError("tree has no nodes")
        for name in _PER_NODE:
            size = getattr(self, name).shape[0]
            if size != n:
                raise ValueError(f"{name} has {size} entries for {n} nodes")
        n_bins = self.feature_n_bins.tolist()
        missing = self.feature_missing_bin.tolist()
        if len(missing) != len(n_bins) or min(n_bins, default=0) < 1:
            raise ValueError("feature_n_bins and feature_missing_bin do not "
                             "describe the same features")
        if any(not -1 <= m < b for m, b in zip(missing, n_bins)):
            raise ValueError("feature_missing_bin outside [-1, n_bins)")
        if self.feature.max() >= len(n_bins):
            raise ValueError("feature index out of range")
        if self.masks.ndim != 2 or self.mask_id.max() >= self.masks.shape[0]:
            raise ValueError("mask id out of range")
        # n - 1 child links name each node but the root once, by its parent.
        internal = self.feature >= 0
        owner = np.flatnonzero(internal)
        expect = np.full(n, NO_NODE)
        for child in (self.left_child[internal], self.right_child[internal]):
            if ((child <= owner) | (child >= n)).any():
                raise ValueError("child id outside (parent, n_nodes)")
            expect[child] = owner
        if (2 * owner.shape[0] != n - 1 or (expect[1:] == NO_NODE).any()
                or (expect != self.parent).any()):
            raise ValueError("parent and child links disagree")


# Tree fields with one entry per node; the rest describe the whole tree.
_PER_NODE = ("feature", "threshold", "missing_left", "mask_id", "left_child",
             "right_child", "parent", "depth", "gain", "itb_count",
             "itb_weight", "oob_count", "stats")


def stack_trees(trees: list[Tree]) -> tuple[Tree, np.ndarray]:
    """Every node of ``trees`` in one Tree, and the id of each tree's root.

    Child, parent and mask ids are shifted by their tree's offset, so
    routing from a tree's root stays inside that tree.  The trees must
    share their task and bin layout, as the trees of one forest do.
    """
    sizes = [t.n_nodes for t in trees]
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int32)
    n_masks = [t.masks.shape[0] for t in trees]
    mask_base = np.concatenate([[0], np.cumsum(n_masks)[:-1]]).astype(np.int32)
    cols = {name: np.concatenate([getattr(t, name) for t in trees])
            for name in _PER_NODE}
    for name, base in (("left_child", roots), ("right_child", roots),
                       ("parent", roots), ("mask_id", mask_base)):
        ids = cols[name]
        cols[name] = np.where(ids >= 0, ids + np.repeat(base, sizes), ids)
    first = trees[0]
    stacked = Tree(task=first.task, n_classes=first.n_classes,
                   masks=np.concatenate([t.masks for t in trees]),
                   feature_n_bins=first.feature_n_bins,
                   feature_missing_bin=first.feature_missing_bin, **cols)
    return stacked, roots


def _resolve_criterion(config) -> str:
    criterion = getattr(config, "criterion", None)
    if criterion is None:
        return "gini" if config.task == "classification" else "variance"
    return criterion


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
        total = stats.sum(axis=-1, keepdims=True)
        return (stats + dirichlet) / (total + dirichlet * stats.shape[-1])
    if task == "regression":
        if (stats[..., 0] <= 0).any():
            raise ValueError("forecast of an empty node is undefined")
        return stats[..., 1] / stats[..., 0]
    raise ValueError(f"unknown task {task!r}")


def grow_tree(binned: BinnedMatrix, labels, sample: BootstrapSample, config,
              source: RandomSource, *, n_classes: int = 0) -> Tree:
    """Grow one tree: ``grow_trees`` on a group of one."""
    return grow_trees(binned, labels, [sample], config, [source],
                      n_classes=n_classes)[0][0]


def grow_trees(binned: BinnedMatrix, labels, samples: list[BootstrapSample],
               config, sources: list[RandomSource], *,
               n_classes: int = 0):
    """Grow one tree per bootstrap sample, all together, level by level.

    All open nodes of one depth, across the trees, are handled together: one
    tally builds their histograms over the bins their rows occupy
    (``level_histogram``), one batched search finds their splits
    (``best_splits``, which keeps ``find_best_split``'s semantics and
    tie-breaks), and one routing step moves their rows to the children.
    Each tree is the one it would be if grown alone.  Node ids are
    breadth-first within each tree, so children sit after their parent.  A
    tree's open nodes of one depth draw their feature subsets from one
    generator, keyed by (TAG_FEATURES, depth) under the tree's source.

    ``config`` supplies task, criterion, sizes and the aggregation switch
    (see TrainConfig).  With aggregation on, minimum-size rules apply to the
    itb weight and the oob count of every node, which guarantees each node
    holds at least one sample of either kind.  With aggregation off only itb
    weights are constrained, matching a plain random forest.

    Every (oob row, tree) pair goes down to its leaf; with aggregation on,
    one ``bincount`` per level adds up each node's oob loss, in the order of
    ``accumulate_oob_losses``.  Returns (trees, the leaf of each pair, tree
    by tree in oob index order, and each node's oob loss or None), nodes
    numbered as in ``stack_trees(trees)``.  Labels must be encoded class ids
    when n_classes > 0, float targets otherwise.
    """
    classification = n_classes > 0
    if classification != (config.task == "classification"):
        raise ValueError("n_classes and config.task disagree")
    criterion = _resolve_criterion(config)
    allowed = CLASSIFICATION_CRITERIA if classification else REGRESSION_CRITERIA
    if criterion not in allowed:
        raise ValueError(f"criterion {criterion!r} is not valid for {config.task}")
    labels = np.asarray(labels)
    if classification:
        labels = labels.astype(np.int64, copy=False)
    else:
        labels = labels.astype(np.float64, copy=False)

    entries = binned.entries
    d = binned.n_cols
    use_oob = bool(config.aggregation)
    m = min(config.max_features or default_max_features(d), d)
    max_depth = config.max_depth
    eps = config.impurity_threshold
    min_split_w = float(config.min_samples_split)
    min_split_oob = int(config.min_samples_split)
    constraints = SplitConstraints(
        min_leaf_weight=float(config.min_samples_leaf),
        min_leaf_oob=int(config.min_samples_leaf) if use_oob else 0,
    )

    # In-bag rows and (oob row, tree) pairs, tree by tree and ascending
    # within each node, and the position of each one's node in its level;
    # -2 and -1 mark in-bag rows of nodes that did not split.  Root t is at t.
    n_trees = len(samples)
    itb = [s.itb_indices for s in samples]
    oob = [s.oob_indices for s in samples]
    itb_count, oob_count = (np.array([r.shape[0] for r in part])
                            for part in (itb, oob))
    rows, oob_rows = np.concatenate(itb), np.concatenate(oob)
    slot, oob_slot = (np.repeat(np.arange(n_trees), count)
                      for count in (itb_count, oob_count))
    weights = np.concatenate([s.weights[r] for s, r in zip(samples, itb)])
    y = labels[rows]
    all_features = np.broadcast_to(np.arange(d), (max(rows.shape[0], 1), d))

    # The current level, ordered by tree: the children of split i of the
    # last level sit at positions 2i (left) and 2i + 1 (right).
    stats = np.array([_node_stats(r, s.weights[r], labels, n_classes)
                      for s, r in zip(samples, itb)])
    owner = np.arange(n_trees)
    levels, splits, losses, first = [], [], [], 0
    oob_pair, leaf = np.arange(oob_rows.shape[0]), np.empty_like(oob_rows)
    while True:
        n, depth = stats.shape[0], len(levels)
        w_node = stats.sum(axis=1) if classification else stats[:, 0]
        # Oob counts are kept, like oob losses, only with aggregation on.
        levels.append((stats, w_node, itb_count, oob_count * use_oob, owner))
        leaf[oob_pair] = first + oob_slot
        if use_oob:
            forecast = node_forecast(stats, config.task, config.dirichlet)
            y_oob = labels[oob_rows[oob_pair]]
            loss = (-np.log(forecast[oob_slot, y_oob]) if classification
                    else (forecast[oob_slot] - y_oob) ** 2)
            losses.append(np.bincount(oob_slot, loss, minlength=n))
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
        open_ &= impurity(stats, criterion) > eps
        cand = np.flatnonzero(open_)
        if cand.size == 0:
            break
        # Keep the rows of open nodes, numbered by their node's position
        # among the open ones.
        at = np.full(n + 2, -1)
        at[cand] = np.arange(cand.size)
        slot, oob_slot = at[slot], at[oob_slot]
        keep, oob_keep = slot >= 0, oob_slot >= 0
        rows, weights, y, slot = rows[keep], weights[keep], y[keep], slot[keep]
        oob_slot, oob_pair = oob_slot[oob_keep], oob_pair[oob_keep]

        # Histograms and splits of every open node at once.
        if m == d:
            features = all_features[:cand.size]
        else:
            trees, n_open = np.unique(owner[cand], return_counts=True)
            features = np.concatenate([subsample_features(
                d, m, sources[t].child(TAG_FEATURES, depth), n_sets=k)
                for t, k in zip(trees.tolist(), n_open.tolist())])
        hist = level_histogram(binned, features, rows, slot, weights, y,
                               n_classes, oob_rows[oob_pair] if use_oob
                               else None, oob_slot)
        best = best_splits(hist, binned, criterion, constraints, n_classes)
        n_split = best.node.shape[0]
        if n_split == 0:
            break
        splits.append((first + cand[best.node], first + n, best))

        # Route every row to its child in one step.
        rank = np.full(cand.size, -1)
        rank[best.node] = np.arange(n_split)
        slot, oob_slot = rank[slot], rank[oob_slot]
        oob_keep = oob_slot >= 0
        oob_slot, oob_pair = oob_slot[oob_keep], oob_pair[oob_keep]
        slot = 2 * slot + ~best.left[slot, entries[rows, best.feature[slot]]]
        oob_slot = 2 * oob_slot + ~best.left[
            oob_slot, entries[oob_rows[oob_pair], best.feature[oob_slot]]]

        parent_stats = stats[cand[best.node]]
        stats = np.empty((2 * n_split, stats.shape[1]))
        stats[0::2] = best.stats_left
        stats[1::2] = parent_stats - best.stats_left
        itb_count = np.bincount(slot + 2, minlength=2 * n_split + 2)[2:]
        oob_count = np.bincount(oob_slot, minlength=2 * n_split)
        owner = np.repeat(owner[cand[best.node]], 2)
        first += n

    # Assemble the node arrays level by level across the trees: level
    # columns, then split columns by id.
    sizes = [lv[0].shape[0] for lv in levels]
    n_nodes = first + sizes[-1]
    cols = {name: np.full(n_nodes, NO_NODE, dtype=np.int32) for name in
            ("feature", "mask_id", "left_child", "right_child", "parent")}
    cols.update(threshold=np.full(n_nodes, -2, dtype=np.int32),
                missing_left=np.zeros(n_nodes, dtype=bool),
                gain=np.full(n_nodes, np.nan))
    masks = np.zeros((0, int(binned.n_bins.max())), dtype=bool)
    if splits:
        ids = np.concatenate([split for split, _, _ in splits])
        child = np.concatenate([nxt + 2 * np.arange(split.shape[0])
                                for split, nxt, _ in splits])
        best = {k: np.concatenate([getattr(b, k) for _, _, b in splits])
                for k in ("feature", "threshold", "missing_left", "gain", "left")}
        for name in ("feature", "threshold", "missing_left", "gain"):
            cols[name][ids] = best[name]
        cat = binned.is_categorical[best["feature"]]
        cols["mask_id"][ids[cat]] = np.arange(int(cat.sum()))
        masks = best["left"][cat]
        cols["left_child"][ids], cols["right_child"][ids] = child, child + 1
        cols["parent"][child], cols["parent"][child + 1] = ids, ids
    cols.update(
        depth=np.repeat(np.arange(len(levels), dtype=np.int32), sizes),
        itb_count=np.concatenate([lv[2] for lv in levels]).astype(np.int64),
        itb_weight=np.concatenate([lv[1] for lv in levels]),
        oob_count=np.concatenate([lv[3] for lv in levels]).astype(np.int64),
        stats=np.concatenate([lv[0] for lv in levels]))
    if (cols["itb_count"] < 1).any():
        raise RuntimeError("grown tree has a node without itb rows")
    if use_oob and (cols["oob_count"] < 1).any():
        raise RuntimeError("grown tree has a node without oob rows")

    # Undo stack_trees: order the nodes tree by tree, then number each
    # tree's nodes and masks from 0.
    owner = np.concatenate([lv[4] for lv in levels])
    order = np.argsort(owner, kind="stable")
    stacked_id = np.empty_like(order)
    stacked_id[order] = np.arange(n_nodes)
    cols = {name: col[order] for name, col in cols.items()}
    per_tree = np.bincount(owner, minlength=n_trees)
    roots = np.cumsum(per_tree) - per_tree
    root = np.repeat(roots, per_tree)
    for name in ("left_child", "right_child", "parent"):
        ids = cols[name]
        linked = ids >= 0
        ids[linked] = stacked_id[ids[linked]] - root[linked]
    mask_id = cols["mask_id"]
    cat = mask_id >= 0
    masks = masks[mask_id[cat]]
    before = np.cumsum(cat) - cat
    mask_id[cat] = (before - before[root])[cat]
    parts = {name: np.split(col, roots[1:]) for name, col in cols.items()}
    trees = [Tree(task=config.task, n_classes=n_classes, masks=tree_masks,
                  feature_n_bins=binned.n_bins.copy(),
                  feature_missing_bin=binned.missing_bin.copy(),
                  **{name: part[t] for name, part in parts.items()})
             for t, tree_masks in enumerate(np.split(masks, before[roots[1:]]))]
    return (trees, stacked_id[leaf],
            np.concatenate(losses)[order] if use_oob else None)
