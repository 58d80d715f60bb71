"""Exponentially weighted aggregation over all prunings of a grown tree.

Every subtree sharing the full tree's root is a candidate predictor.  The
weighted average over all of them, with prior 2**(-complexity) and weights
exp(-temperature * oob loss), collapses to a per-node recursion over
log-domain weights, so nothing is enumerated.  The average depends on a row
only through its leaf, so one top-down pass gives every node its aggregated
value (``node_values``) and prediction is a route and a gather.
``predict_aggregated`` keeps the single-row upward fold as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import Tree, node_forecast

LOG2 = math.log(2.0)


@dataclass
class AggregationState:
    """Per-node quantities needed to predict with aggregation.

    ``oob_loss`` holds each node's total loss over the out-of-bag rows it
    contains, ``log_agg_weight`` the log-domain recursive weight.  Both are
    None for a state built without aggregation (leaf-only prediction).  The
    loss is the tree's: log loss for classification, squared otherwise.
    """

    temperature: float
    forecasts: np.ndarray
    oob_loss: np.ndarray | None
    log_agg_weight: np.ndarray | None


def accumulate_oob_losses(tree: Tree, forecasts: np.ndarray, entries: np.ndarray,
                          oob_rows: np.ndarray, labels: np.ndarray):
    """Route every oob row from the root to its leaf, through the tree's
    routing table, adding the loss of each visited node's forecast to that
    node's total: log loss for a classification tree, squared otherwise.

    This is the reference behind ``build_state`` and ``oob_losses``:
    fitting takes each pair's leaf from growth and never calls it.
    """
    classification = tree.task == "classification"
    r = tree.router
    L = np.zeros(tree.n_nodes, dtype=np.float64)
    y = labels[oob_rows]
    codes, column = entries.ravel(order="F"), r.feature * entries.shape[0]
    at = np.full(oob_rows.shape[0], r.link[0])
    active = np.arange(oob_rows.shape[0])
    while active.size:
        here = at[active]
        inner = here >= 0
        nodes = ~here
        nodes[inner] = r.node[here[inner]]
        if classification:
            contrib = -np.log(forecasts[nodes, y[active]])
        else:
            contrib = (forecasts[nodes] - y[active]) ** 2
        np.add.at(L, nodes, contrib)
        active, here = active[inner], here[inner]
        at[active] = r.step(here, codes[column[here] + oob_rows[active]])
    return L


def pair_losses(values: np.ndarray, node: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """The loss of each pair's node's value at the pair's label ``y``: log
    loss at the class for class probabilities (one row per node), squared
    error for regression values."""
    if values.ndim == 2:
        return -np.log(values[node, y])
    return (values[node] - y) ** 2


def oob_losses(tree: Tree, forecasts: np.ndarray, leaf: np.ndarray,
               y: np.ndarray) -> np.ndarray:
    """Each node's oob loss: the losses of its forecast at the labels ``y``
    of the (oob row, tree) pairs whose leaf ``leaf`` lies below it.  The
    leaves take their pairs in one ``bincount``, then the internal nodes of
    each depth, deepest first (``Tree.levels``), in one more.  A node adds
    its pairs in pair order, so this equals ``accumulate_oob_losses``
    bitwise."""
    out = np.bincount(leaf, pair_losses(forecasts, leaf, y),
                      minlength=tree.n_nodes)
    node, ends = tree.levels
    rank = np.empty(tree.n_nodes, dtype=np.intp)
    rank[node] = np.arange(node.shape[0])
    depth, at = tree.depth[leaf], leaf.astype(np.intp)
    for d in range(len(ends) - 1, -1, -1):
        lo, hi = ends[d - 1] if d else 0, ends[d]
        pairs = np.flatnonzero(depth > d)
        at[pairs] = up = tree.parent[at[pairs]]
        out[node[lo:hi]] = np.bincount(
            rank[up] - lo, pair_losses(forecasts, up, y[pairs]),
            minlength=hi - lo)
    return out


def compute_log_agg_weights(tree: Tree, oob_loss: np.ndarray,
                            temperature: float) -> np.ndarray:
    """Log-domain recursive aggregation weight of every node.

    Leaves carry -temperature * loss; an internal node averages its own
    exponential weight with the product of its children's, all in the log
    domain so huge losses cannot overflow.  One step per depth, deepest
    first, handles every internal node of that depth at once.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    neg = -temperature * np.asarray(oob_loss, dtype=np.float64)
    out = neg.copy()
    node, ends = tree.levels
    own, lc = neg[node], tree.left_child[node]
    for lo, hi in reversed(list(zip([0] + ends[:-1], ends))):
        out[node[lo:hi]] = np.logaddexp(
            own[lo:hi], out[lc[lo:hi]] + out[lc[lo:hi] + 1]) - LOG2
    return out


def state_from_losses(tree: Tree, oob_loss: np.ndarray | None,
                      temperature: float, dirichlet: float) -> AggregationState:
    """The state that a tree's stats and its nodes' oob losses give: the
    forecasts and, unless ``oob_loss`` is None, the log weights.  Fit and
    load both refuse here, with a ValueError, what is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        state = AggregationState(
            temperature, node_forecast(tree.stats, tree.task, dirichlet),
            oob_loss, None if oob_loss is None
            else compute_log_agg_weights(tree, oob_loss, temperature))
    if not all(np.isfinite(a).all() for a in (
            state.forecasts, state.log_agg_weight) if a is not None):
        raise ValueError(f"temperature {temperature!r} and the stats and oob "
                         "losses give forecasts or log weights not finite")
    return state


def build_state(tree: Tree, entries: np.ndarray, labels, oob_rows,
                temperature: float, dirichlet: float = 0.5) -> AggregationState:
    """Compute forecasts, oob losses, and log weights for one grown tree.

    Pass oob_rows=None to build a leaf-only state (no aggregation arrays),
    which is what prediction with aggregation switched off uses.
    """
    if oob_rows is None:
        return state_from_losses(tree, None, temperature, dirichlet)
    labels = np.asarray(labels, dtype=np.int64 if tree.task == "classification"
                        else np.float64)
    return state_from_losses(tree, accumulate_oob_losses(
        tree, node_forecast(tree.stats, tree.task, dirichlet), entries,
        np.asarray(oob_rows), labels), temperature, dirichlet)


def mix_coefficients(state: AggregationState) -> np.ndarray:
    """Per-node weight put on the node's own forecast during the up sweep.

    Always within [0, 1]: the recursive weight of a node is at least half its
    own exponential weight.  Where the temperature times the loss overflows,
    the node's own weight is 0, and so is its mix.
    """
    with np.errstate(over="ignore"):
        neg = -state.temperature * state.oob_loss
    return np.minimum(0.5 * np.exp(neg - state.log_agg_weight), 1.0)


def predict_aggregated(tree: Tree, state: AggregationState, x,
                       count_visits: bool = False):
    """Aggregated prediction for a single binned row.

    Descends to the leaf, then folds forecasts back up: at each ancestor the
    result is a convex combination of the ancestor's own forecast and the
    answer from below.  Touches 2 * path length - 1 node records.
    """
    if state.log_agg_weight is None:
        raise ValueError("state was built without aggregation arrays")
    path = tree.path(np.asarray(x))
    visits = path.shape[0]
    f = np.array(state.forecasts[path[-1]], dtype=np.float64, copy=True)
    eta = state.temperature
    for v in path[-2::-1]:
        visits += 1
        mix = 0.5 * math.exp(-eta * state.oob_loss[v] - state.log_agg_weight[v])
        mix = min(mix, 1.0)
        f = mix * state.forecasts[v] + (1.0 - mix) * f
    if tree.task == "classification":
        s = f.sum()
        if abs(s - 1.0) > 1e-12:
            f = f / s
    else:
        f = float(f)
    return (f, visits) if count_visits else f


def descend(tree: Tree, state: AggregationState):
    """Every node's ``acc`` and ``rem``, one top-down pass per depth.

    For an internal node p with child c, acc(c) = acc(p) + rem(p) mix(p)
    forecast(p) and rem(c) = rem(p) (1 - mix(p)), from acc = 0 and rem = 1
    at a root.  rem(c) is the weight the aggregate passes down to c's
    subtree, the posterior mass of the prunings that keep c; acc(c) is the
    weighted forecast of c's ancestors.  The internal nodes of every tree of
    a stack go down one depth at a time (``Tree.levels``), so a stack of
    trees takes one pass.  Needs aggregation arrays.
    """
    forecasts = state.forecasts.reshape(tree.n_nodes, -1)
    mix = mix_coefficients(state)
    own, keep = mix[:, None] * forecasts, 1.0 - mix
    acc = np.zeros_like(forecasts)
    rem = np.ones(tree.n_nodes)
    node, ends = tree.levels
    for lo, hi in zip([0] + ends[:-1], ends):
        nodes = node[lo:hi]
        kids = tree.left_child[nodes, None] + np.arange(2)
        r = rem[nodes]
        acc[kids] = (acc[nodes] + r[:, None] * own[nodes])[:, None]
        rem[kids] = (r * keep[nodes])[:, None]
    return acc, rem


def node_values(tree: Tree, state: AggregationState,
                descended: tuple | None = None) -> np.ndarray:
    """The prediction of every node's region: acc + rem forecast, the upward
    fold of ``predict_aggregated`` expanded from the root, from ``descend``
    (or its result, when the caller has it as ``descended``).  Without
    aggregation arrays the value is the forecast.
    """
    if state.log_agg_weight is None:
        return state.forecasts
    acc, rem = descend(tree, state) if descended is None else descended
    values = acc + rem[:, None] * state.forecasts.reshape(tree.n_nodes, -1)
    if tree.task == "classification":
        s = values.sum(axis=1)
        bad = np.abs(s - 1.0) > 1e-12
        values[bad] /= s[bad, None]
    return values.reshape(state.forecasts.shape)


def predict_aggregated_batch(tree: Tree, state: AggregationState,
                             entries: np.ndarray) -> np.ndarray:
    """Aggregated predictions for every row of a binned matrix."""
    if state.log_agg_weight is None:
        raise ValueError("state was built without aggregation arrays")
    return node_values(tree, state)[tree.route(entries)]


def predict_leaf_only(tree: Tree, x, dirichlet: float = 0.5):
    """Forecast of the leaf holding one binned row, no aggregation.

    This is the plain random forest prediction for one row, kept as the
    reference for prediction with aggregation off.
    """
    leaf = int(tree.path(np.asarray(x))[-1])
    return node_forecast(tree.stats[leaf], tree.task, dirichlet)


def predict_leaf_only_batch(tree: Tree, forecasts: np.ndarray,
                            entries: np.ndarray) -> np.ndarray:
    return forecasts[tree.route(entries)]
