"""Training and prediction for forests of aggregated trees."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aggregation import (AggregationState, descend, node_values, oob_losses,
                          pair_losses, state_from_losses)
from .binning import (BinMapper, BinnedMatrix, category_key_type,
                      check_max_bins, fit_bins, transform)
from .sampling import TAG_BOOTSTRAP, RandomSource, bootstrap
from .splits import CLASSIFICATION_CRITERIA, REGRESSION_CRITERIA
from .tree import STORED, Tree, features_per_node, grow_trees, node_forecast

TASKS = ("classification", "regression")
MULTICLASS_STRATEGIES = ("heuristic", "one_vs_rest")

# Most (row, tree) pairs routed together, which bounds the working memory of
# prediction to a few arrays of this many entries.
_BLOCK_PAIRS = 2 ** 16

# Most level entries, one per (row, tree, feature sampled per node), of a
# group of trees grown together: a group holds at most
# max(1, _GROUP_ENTRIES // (rows * features per node)) trees.  Each level
# pass has a fixed cost, so larger groups fit faster, while a level's working
# memory grows with its entries; 2^18 is about the entries of one tree of
# 50k rows sampling 4 features.
_GROUP_ENTRIES = 2 ** 18

# A subtree to which the aggregate passes less weight than this (rem in
# ``aggregation.descend``) is cut from its tree.  Each cut moves its tree's
# predictions by at most the weight it removes times the forecast range.
CUT_WEIGHT = 1e-13


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides the data itself."""

    task: str = "classification"
    n_trees: int = 10
    max_bins: int = 256
    max_features: int | None = None     # None: floor(sqrt(d)), at least 1
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    max_depth: int | None = None
    temperature: float | None = None    # None: 1.0, or 1/(8 B^2) for regression
    dirichlet: float = 0.5
    criterion: str | None = None        # None: gini / variance by task
    aggregation: bool = True
    multiclass: str = "heuristic"
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        for name, low in (("n_trees", 1), ("max_bins", 2), ("max_features", 1),
                          ("min_samples_leaf", 1), ("min_samples_split", 2),
                          ("max_depth", 0), ("seed", 0)):
            value = getattr(self, name)
            if value is None and name in ("max_features", "max_depth"):
                continue
            if not _is_int(value) or value < low:
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")
            # A numpy integer becomes an int, which the model header stores.
            object.__setattr__(self, name, int(value))
        check_max_bins(self.max_bins)
        # NaN fails every comparison, so each check asks for the good case.
        if self.temperature is not None and not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0 when given")
        if not 0 < self.dirichlet < math.inf:
            raise ValueError("dirichlet must be finite and positive")
        if self.criterion is not None:
            allowed = (CLASSIFICATION_CRITERIA if self.task == "classification"
                       else REGRESSION_CRITERIA)
            if self.criterion not in allowed:
                raise ValueError(
                    f"criterion {self.criterion!r} is not valid for {self.task}")
        if self.multiclass not in MULTICLASS_STRATEGIES:
            raise ValueError(
                f"multiclass must be one of {MULTICLASS_STRATEGIES}")

    @property
    def one_vs_rest(self) -> bool:
        """Whether each class has trees of its own, grown against the rest."""
        return (self.task == "classification"
                and self.multiclass == "one_vs_rest")


@dataclass
class FittedTree:
    """One tree of a forest on its own, with its aggregation state; see
    ``Forest`` for ``index``, ``class_id`` and ``oob_loss_mean``."""

    index: int
    class_id: int
    tree: Tree
    state: AggregationState
    oob_loss_mean: float


@dataclass
class Forest:
    """A trained forest: every node of every tree in one stacked ``table``,
    tree by tree, and one ``state`` over those nodes.  Per-tree arrays give
    each tree's first node (``roots``), the mean oob loss of its prediction
    and its count of oob rows (``n_oob``), over which that mean is taken.
    The trees come class by class under one-versus-rest, ``config.n_trees``
    of each, else as one sequence; ``index`` and ``class_id`` follow.
    Prediction derives every node's value (``_values``) and, over a small
    binned space, every row of codes' prediction (``_lookup``) on its first
    call; neither is saved."""

    config: TrainConfig
    mapper: BinMapper
    table: Tree
    state: AggregationState
    roots: np.ndarray
    oob_loss_mean: np.ndarray
    n_oob: np.ndarray
    classes_: np.ndarray | None = None
    y_min_: float = 0.0
    y_max_: float = 0.0
    feature_names: list[str] | None = None

    @property
    def temperature_(self) -> float:
        return self.state.temperature

    @property
    def n_classes(self) -> int:
        return 0 if self.classes_ is None else self.classes_.shape[0]

    @cached_property
    def class_id(self) -> np.ndarray:
        """Each tree's positive class under one-versus-rest, -1 otherwise."""
        if self.config.one_vs_rest:
            return np.repeat(np.arange(self.n_classes), self.config.n_trees)
        return np.full(self.config.n_trees, -1)

    @cached_property
    def index(self) -> np.ndarray:
        """Each tree's index within its sequence, so predicting with the
        first k trees equals training with n_trees=k outright."""
        return np.arange(self.class_id.shape[0]) % self.config.n_trees

    @cached_property
    def trees(self) -> list[FittedTree]:
        """Each tree alone, its nodes numbered from 0, for inspection and
        reference checks; prediction never builds these.  A tree is built
        from its run of the table's nodes as ``load_model`` builds a table,
        by ``Tree.from_heap``, so it passes the same checks."""
        s, table, out = self.state, self.table, []
        ends = np.append(self.roots[1:], table.n_nodes)
        for t, (lo, hi) in enumerate(zip(self.roots, ends)):
            part = (None if a is None else a[lo:hi]
                    for a in (s.forecasts, s.oob_loss, s.log_agg_weight))
            out.append(FittedTree(
                int(self.index[t]), int(self.class_id[t]),
                Tree.from_heap(table.task, table.n_classes, self.mapper.table,
                               np.zeros(1, np.int64),
                               **table.stored(slice(lo, hi))),
                AggregationState(s.temperature, *part),
                float(self.oob_loss_mean[t])))
        return out

    def _binned(self, X) -> BinnedMatrix:
        return transform(X, self.mapper)

    @cached_property
    def _values(self) -> np.ndarray:
        """Every node's value per prediction column (columns x nodes).
        Under one-versus-rest a node's positive-class value sits in its
        tree's class column."""
        n = self.table.n_nodes
        values = node_values(self.table, self.state)
        if self.class_id[0] >= 0:
            class_id = np.repeat(self.class_id, np.diff(self.roots, append=n))
            ovr = np.zeros((n, self.n_classes))
            ovr[np.arange(n), class_id] = values[:, 1]
            values = ovr
        return np.ascontiguousarray(values.reshape(n, -1).T)

    @cached_property
    def _lookup(self) -> np.ndarray | None:
        """``_route_mean`` over every tree of every possible row of bin
        codes, indexed by the codes' mixed-radix number, when routing them
        all takes one block (at most ``_BLOCK_PAIRS`` pairs); else None.
        Built on the first predict and never saved."""
        n_bins = [int(b) for b in self.mapper.table.n_bins]
        codes = math.prod(n_bins)    # Python ints: no wrap at 2^64 codes
        if codes * self.roots.shape[0] > _BLOCK_PAIRS:
            return None
        every = np.array(np.unravel_index(np.arange(codes), n_bins)).T
        return self._route_mean(every, self.roots)

    def _route_mean(self, entries: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Sum over the trees ``roots`` of every row's leaf values, divided
        by the number of trees; one column per prediction column."""
        values = self._values
        out = np.empty((entries.shape[0], values.shape[0]))
        step = max(1, _BLOCK_PAIRS // roots.shape[0])
        for lo in range(0, entries.shape[0], step):
            leaf = self.table.route(entries[lo:lo + step], roots)
            # A running sum adds the trees in order, so a row's total does
            # not depend on the rows it shares a block with.
            out[lo:lo + step] = values[:, leaf].cumsum(axis=-1)[..., -1].T
        return out / roots.shape[0]

    def _mean_values(self, X, max_trees: int | None) -> np.ndarray:
        """``_route_mean`` of the rows of X over the selected trees.  Over
        every tree, a small binned space reads it from ``_lookup``: bitwise
        the routed values, since a row's value depends only on its codes."""
        roots = self.roots
        if max_trees is not None:
            n = self.config.n_trees
            if not _is_int(max_trees) or not 1 <= max_trees <= n:
                raise ValueError(f"max_trees must be an integer in [1, "
                                 f"n_trees={n}], got {max_trees!r}")
            roots = roots[self.index < max_trees]
        entries = self._binned(X).entries
        if max_trees is None and self._lookup is not None:
            return self._lookup[np.ravel_multi_index(
                entries.T, self.mapper.table.n_bins)]
        return self._route_mean(entries, roots)

    def predict_proba(self, X, max_trees: int | None = None) -> np.ndarray:
        """Class probabilities, columns ordered like ``classes_``."""
        if self.config.task != "classification":
            raise ValueError("predict_proba requires a classification forest")
        proba = self._mean_values(X, max_trees)
        if self.class_id[0] >= 0:
            return proba / proba.sum(axis=1, keepdims=True)
        return proba

    def predict(self, X, max_trees: int | None = None) -> np.ndarray:
        """Class labels (ties go to the lowest class index) or clipped means."""
        if self.config.task == "classification":
            proba = self.predict_proba(X, max_trees=max_trees)
            return self.classes_[np.argmax(proba, axis=1)]
        return np.clip(self._mean_values(X, max_trees)[:, 0],
                       self.y_min_, self.y_max_)

    def oob_loss_summary(self) -> tuple[float, float]:
        """Mean and standard deviation over trees of the per-tree mean oob loss."""
        return float(self.oob_loss_mean.mean()), float(self.oob_loss_mean.std())


def _resolve_temperature(config: TrainConfig, y: np.ndarray) -> float:
    """The configured temperature, else 1, or 1/(8 max|y|^2) for regression."""
    if config.temperature is not None:
        return config.temperature
    if config.task == "classification":
        return 1.0
    bound = float(np.abs(y).max())
    if bound == 0.0:
        return 1.0
    # Below about 2.6e-155, 8 max|y|^2 is 0 or its inverse overflows.
    scale = 8.0 * bound * bound
    if scale == 0.0 or 1.0 / scale == math.inf:
        raise ValueError(
            f"regression targets up to {bound:.3g} in magnitude give no finite "
            "default temperature 1/(8 max|y|^2); rescale them or set "
            "temperature")
    return 1.0 / scale


def _group_plan(n_trees: int, size: int, n_jobs: int) -> list[range]:
    """Consecutive trees in groups of near-equal size, larger ones first: as
    few groups as hold at most ``size`` trees each, and at least
    min(n_jobs, n_trees), so that every worker has a group."""
    count = max(-(-n_trees // size), min(n_jobs, n_trees))
    small, extra = divmod(n_trees, count)
    bounds = [i * small + min(i, extra) for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fit_group(binned: BinnedMatrix, y_enc: np.ndarray, config: TrainConfig,
               n_classes: int, class_id: int, indices: range):
    """Grow the trees ``indices`` together on their class's labels: 1 for
    ``class_id`` and 0 otherwise under one-versus-rest.  Returns what
    ``grow_trees`` decided (the trees' stored fields, their roots and the
    leaf of every (oob row, tree) pair), each pair's label and each tree's
    pair count: plain arrays, which ``fit`` joins into one table."""
    source = RandomSource(config.seed)
    if class_id >= 0:
        labels, k = (y_enc == class_id).astype(np.int64), 2
        source = source.child(class_id)
    else:
        labels, k = y_enc, n_classes
    sources = [source.child(i) for i in indices]
    oob = []

    def draw(s: RandomSource):
        sample = bootstrap(binned.n_rows, s.child(TAG_BOOTSTRAP))
        oob.append(sample.oob_indices)
        return sample

    # Growth reads the samples one by one, so only their oob rows are held
    # while the trees grow.
    stored, roots, leaf = grow_trees(binned, labels, map(draw, sources),
                                     config, sources, n_classes=k)
    return (stored, roots, leaf, labels[np.concatenate(oob)],
            [rows.shape[0] for rows in oob])


def _cut(tree: Tree, roots: np.ndarray, leaf: np.ndarray, rem: np.ndarray):
    """The trees without the subtrees that the aggregate weighs below
    CUT_WEIGHT, or None when there are none.

    A node with rem < CUT_WEIGHT under a parent with rem >= CUT_WEIGHT
    becomes a leaf, and its descendants go.  The kept nodes, in their
    order, are still breadth first, and they keep their stats and oob
    losses; the log weights follow from those.  Returns the kept nodes,
    the cut trees' stored fields (as ``Tree.stored`` gives them) and roots,
    and the leaf of each (oob row, tree) pair, which moves up to its
    nearest kept ancestor.
    """
    kept = (tree.parent < 0) | (rem[tree.parent] >= CUT_WEIGHT)
    if kept.all():
        return None
    node = np.flatnonzero(kept)
    stored = tree.stored(node, (tree.feature[node] >= 0)
                         & (rem[node] >= CUT_WEIGHT))
    up = np.flatnonzero(~kept[leaf])
    while up.size:
        leaf[up] = tree.parent[leaf[up]]
        up = up[~kept[leaf[up]]]
    renumber = np.cumsum(kept) - 1
    return node, stored, renumber[roots], renumber[leaf]


_POOL_PAYLOAD = None


def _pool_init(payload):
    global _POOL_PAYLOAD
    _POOL_PAYLOAD = payload


def _pool_task(group):
    return _fit_group(*_POOL_PAYLOAD, *group)


def fit(X, y, kinds, config: TrainConfig, n_jobs: int = 1,
        feature_names: list[str] | None = None) -> Forest:
    """Train a forest.

    The result is a deterministic function of (X, y, kinds, config): trees are
    seeded by (config.seed, tree index), so the worker count changes wall time
    only, never the model.  With n_jobs=1 everything runs in-process.
    """
    if not _is_int(n_jobs) or n_jobs < 1:
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    if y.shape[0] < 2:
        raise ValueError(f"fitting needs at least 2 rows, got {y.shape[0]}")
    classes = None
    if config.task == "classification":
        if any(v is None or v != v for v in y.tolist()):
            raise ValueError("class labels must not be missing (NaN or None)")
        try:
            classes, y_enc = np.unique(y, return_inverse=True)
        except TypeError:
            raise ValueError("class labels must be mutually comparable "
                             "(not strings and numbers mixed)") from None
        y_enc = y_enc.astype(np.int64)
        if classes.shape[0] < 2:
            raise ValueError("classification needs at least two classes")
        n_classes = classes.shape[0]
    else:
        y_enc = y.astype(np.float64)
        if not np.isfinite(y_enc).all():
            raise ValueError("regression targets must be finite")
        # Node sums of squares and oob losses stay below 8 n max|y|^2, and
        # the default temperature is 1 / (8 max|y|^2).
        bound = float(np.abs(y_enc).max())
        if 8.0 * y_enc.shape[0] * bound * bound == float("inf"):
            raise ValueError(f"regression targets up to {bound:.3g} in "
                             "magnitude overflow 8 n max|y|^2; rescale them")
        n_classes = 0
    temperature = _resolve_temperature(config, y_enc)

    mapper = fit_bins(X, kinds, config.max_bins)
    # What fits must save: a model file stores one type of category per feature.
    for j, fb in enumerate(mapper.features):
        category_key_type(fb.categories, j)
    binned = transform(X, mapper)
    if binned.n_rows != y_enc.shape[0]:
        raise ValueError(
            f"got {binned.n_rows} rows of features but {y_enc.shape[0]} labels")
    if feature_names is not None:
        if len(feature_names) != binned.n_cols:
            raise ValueError(f"got {len(feature_names)} feature names for "
                             f"{binned.n_cols} feature columns")
        if len(set(feature_names)) != len(feature_names):
            raise ValueError("feature names must not repeat")

    # Groups of consecutive trees of one class (under one-versus-rest).
    entries = binned.n_rows * features_per_node(config, binned.n_cols)
    plan = _group_plan(config.n_trees, max(1, _GROUP_ENTRIES // entries),
                       n_jobs)
    groups = [(c, trees)
              for c in (range(n_classes) if config.one_vs_rest else [-1])
              for trees in plan]

    if n_jobs == 1 or len(groups) == 1:
        fitted = [_fit_group(binned, y_enc, config, n_classes, *g)
                  for g in groups]
    else:
        # Imported here, so that importing aggforest loads no pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        payload = (binned, y_enc, config, n_classes)
        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_pool_init,
                                 initargs=(payload,)) as pool:
            fitted = list(pool.map(_pool_task, groups))

    # One table of every group's trees, from their stored fields joined, as
    # ``load_model`` builds it, and their pairs numbered in it.
    stored, roots, leaf, y_oob, n_oob = zip(*fitted)
    del fitted
    offsets = np.cumsum([0] + [s["internal"].shape[0] for s in stored[:-1]])
    roots, leaf = (np.concatenate([a + o for a, o in zip(part, offsets)])
                   for part in (roots, leaf))
    y_oob, n_oob = np.concatenate(y_oob), np.concatenate(n_oob)
    k = 2 if config.one_vs_rest else n_classes
    # Each group's field goes as soon as it is joined.
    table = Tree.from_heap(config.task, k, mapper.table, roots, **{
        name: np.concatenate([s.pop(name) for s in stored]) for name in STORED})
    # With aggregation on, every pair is scored once, and the subtrees the
    # aggregate weighs below CUT_WEIGHT are cut (``_cut``).
    oob_loss = None
    if config.aggregation:
        oob_loss = oob_losses(table, node_forecast(
            table.stats, config.task, config.dirichlet), leaf, y_oob)
    state = state_from_losses(table, oob_loss, temperature, config.dirichlet)
    if oob_loss is not None:
        cut = _cut(table, roots, leaf, descend(table, state)[1])
        if cut is not None:
            # The uncut table and its state go before the cut is built.
            node, kept, roots, leaf = cut
            del cut, table, state
            table = Tree.from_heap(config.task, k, mapper.table, roots, **kept)
            state = state_from_losses(table, oob_loss[node], temperature,
                                      config.dirichlet)
    # Each tree's mean oob loss, over its pairs' values from one gather.
    losses = pair_losses(node_values(table, state), leaf, y_oob)
    means = [float(part.mean())
             for part in np.split(losses, np.cumsum(n_oob)[:-1])]
    forest = Forest(
        config=config, mapper=mapper, table=table, state=state, roots=roots,
        oob_loss_mean=np.array(means), n_oob=n_oob, classes_=classes,
        feature_names=list(feature_names) if feature_names else None)
    if config.task == "regression":
        forest.y_min_ = float(y_enc.min())
        forest.y_max_ = float(y_enc.max())
    return forest
