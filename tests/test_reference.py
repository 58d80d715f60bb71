"""Self-checks of the slow reference oracles the other tests lean on."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import bound_violation, node_counts

from aggforest.aggregation import node_values
from aggforest.reference import (
    MAX_ENUMERABLE_PRUNINGS,
    complete_tree,
    enumerate_prunings,
    max_bound_violation,
    prior_total,
    pruning_complexity,
    pruning_count,
    random_grown_instance,
    smoothed_forecast_regret,
    synthetic_tree,
)


def test_pruning_counts_of_complete_trees():
    # Counts obey c(d) = c(d-1)^2 + 1 with c(0) = 1.
    assert [pruning_count(complete_tree(d)) for d in range(5)] == \
        [1, 2, 5, 26, 677]


def test_enumeration_of_depth_two_tree():
    tree = complete_tree(2)
    root = 0
    l = tree.left_child[0]
    ll, rl = tree.left_child[l], tree.left_child[l + 1]
    r, lr, rr = l + 1, ll + 1, rl + 1
    got = {tuple(sorted(p)) for p in enumerate_prunings(tree)}
    want = {
        (root,),
        tuple(sorted((l, r))),
        tuple(sorted((ll, lr, r))),
        tuple(sorted((l, rl, rr))),
        tuple(sorted((ll, lr, rl, rr))),
    }
    assert got == want


def test_complexity_counts_only_non_terminal_leaves():
    tree = complete_tree(2)
    full = max(enumerate_prunings(tree), key=len)
    # 2*4 - 1 nodes, all 4 pruning leaves are leaves of the full tree.
    assert pruning_complexity(tree, full) == 3
    assert pruning_complexity(tree, (0,)) == 1
    l = tree.left_child[0]
    # Two leaves, neither terminal: complexity 2*2 - 1 - 0.
    assert pruning_complexity(tree, (int(l), int(l) + 1)) == 3


def test_prior_masses_sum_to_one_exactly():
    for depth in range(4):
        assert prior_total(complete_tree(depth)) == Fraction(1)
    rng = np.random.default_rng(70)
    for _ in range(10):
        tree = synthetic_tree(rng, int(rng.integers(1, 9)), "classification")
        assert prior_total(tree) == Fraction(1)


def test_enumeration_guard_refuses_huge_trees():
    big = complete_tree(6)
    assert pruning_count(big) > MAX_ENUMERABLE_PRUNINGS
    with pytest.raises(ValueError, match="prunings"):
        enumerate_prunings(big)


def test_smoothed_forecaster_regret_basics():
    assert smoothed_forecast_regret(np.array([0, 0])) == 0.0
    rng = np.random.default_rng(71)
    for _ in range(50):
        counts = rng.integers(0, 40, size=2)
        regret = smoothed_forecast_regret(counts)
        assert -1e-12 <= regret <= 0.5 + 1e-12


def test_synthetic_tree_structure():
    rng = np.random.default_rng(72)
    for _ in range(15):
        n_leaves = int(rng.integers(1, 10))
        tree = synthetic_tree(rng, n_leaves, "regression", n_bins=16)
        assert tree.n_leaves == n_leaves
        for v in range(tree.n_nodes):
            if tree.feature[v] >= 0:
                assert tree.left_child[v] > v
        # Every bin routes somewhere and every leaf is reachable.
        cells = tree.route(np.arange(16, dtype=np.uint8).reshape(-1, 1))
        assert set(cells.tolist()) == set(np.flatnonzero(tree.is_leaf).tolist())


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_linear_bound_pass_matches_enumeration(task):
    """conftest's ``bound_violation`` gives the worst violation that the
    enumeration of every pruning gives."""
    worst = []
    for i in range(30):
        tree, state, binned, labels, sample = random_grown_instance(
            7000 + i, task=task, max_depth=3 + i % 2,
            temperature=(None, 1.0, 10.0)[i % 3])
        oob = sample.oob_indices
        assert node_counts(tree, binned.entries, oob)[0] == oob.shape[0]
        preds = node_values(tree, state)[tree.route(binned.entries[oob])]
        y = labels[oob]
        losses = (-np.log(preds[np.arange(oob.shape[0]), y])
                  if task == "classification" else (preds - y) ** 2)
        got = bound_violation(tree, state, np.zeros(1, dtype=np.int64),
                              [oob.shape[0]], losses.mean())
        want = max_bound_violation(tree, state, binned.entries, labels, oob)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-12, abs=1e-14)
        worst.append(want)
    # Some trees come close to the bound, so the pass is checked where it
    # matters.
    assert max(worst) > -0.05
