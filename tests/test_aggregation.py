"""Exponential aggregation over prunings: weights, mixing, predictions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggforest.aggregation import (
    AggregationState,
    accumulate_oob_losses,
    build_state,
    compute_log_agg_weights,
    mix_coefficients,
    node_forecast,
    predict_aggregated,
    predict_aggregated_batch,
    predict_leaf_only,
    predict_leaf_only_batch,
)
from aggforest.forest import TrainConfig, fit
from aggforest.reference import (
    aggregate_identity_error,
    complete_tree,
    random_grown_instance,
    synthetic_state,
    synthetic_tree,
)


# ---------------------------------------------------------------- forecasts


def test_classification_forecast_frozen():
    np.testing.assert_allclose(
        node_forecast(np.array([3.0, 1.0]), "classification", 0.5),
        [0.7, 0.3])
    np.testing.assert_allclose(
        node_forecast(np.array([0.0, 0.0, 4.0]), "classification", 1.0),
        [1 / 7, 1 / 7, 5 / 7])


def test_regression_forecast_is_weighted_mean():
    stats = np.array([4.0, 8.0, 20.0])   # weight, weighted sum, sum of squares
    assert node_forecast(stats, "regression") == pytest.approx(2.0)


@given(st.lists(st.floats(0, 1e6), min_size=2, max_size=6),
       st.floats(0.01, 5.0))
def test_forecast_is_strictly_positive_and_normalized(counts, alpha):
    p = node_forecast(np.asarray(counts), "classification", alpha)
    assert (p > 0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_forecast_equals_numpy_sum_on_bootstrap_counts(n_classes):
    """Classes are added in order; stats hold whole-number counts, whose
    sums are exact in any order, so the forecast is the bits of numpy's
    sum even at 8 classes or more, where numpy adds pairwise."""
    stats = np.random.default_rng(n_classes).integers(
        0, 700, size=(500, n_classes)).astype(np.float64)
    total = stats.sum(axis=-1, keepdims=True) + 0.5 * n_classes
    assert node_forecast(stats, "classification", 0.5).tobytes() == (
        (stats + 0.5) / total).tobytes()


# ------------------------------------------------------------- loss routing


def test_accumulated_losses_match_per_path_recompute():
    for task in ("classification", "regression"):
        tree, state, binned, labels, sample = random_grown_instance(
            21, task=task)
        oob = sample.oob_indices
        want = np.zeros(tree.n_nodes)
        for i in oob:
            for v in tree.path(binned.entries[i]):
                if task == "classification":
                    want[v] += -math.log(state.forecasts[v][labels[i]])
                else:
                    want[v] += (state.forecasts[v] - labels[i]) ** 2
        np.testing.assert_allclose(state.oob_loss, want, rtol=1e-10)


def test_no_oob_rows_means_zero_losses():
    tree, state, binned, labels, _ = random_grown_instance(22)
    L = accumulate_oob_losses(tree, state.forecasts, binned.entries,
                              np.empty(0, dtype=np.int64), labels)
    assert (L == 0).all()


# ------------------------------------------------------------- log weights


def test_depth_one_weight_closed_form():
    tree = complete_tree(1)
    eta, L = 0.7, np.array([1.1, 0.4, 0.9])
    log_w = compute_log_agg_weights(tree, L, eta)
    assert log_w[1] == pytest.approx(-eta * 0.4)
    assert log_w[2] == pytest.approx(-eta * 0.9)
    want = math.log(0.5 * (math.exp(-eta * 1.1)
                           + math.exp(-eta * (0.4 + 0.9))))
    assert log_w[0] == pytest.approx(want, rel=1e-12)


def per_node_log_weights(tree, oob_loss, temperature):
    """The weight recursion one node at a time, children before parents."""
    neg = [-temperature * loss for loss in oob_loss.tolist()]
    out = list(neg)
    for v in range(tree.n_nodes - 1, -1, -1):
        if tree.feature[v] >= 0:
            a = neg[v]
            left = tree.left_child[v]
            b = out[left] + out[left + 1]
            m = a if a >= b else b
            out[v] = m + math.log1p(math.exp(-abs(a - b))) - math.log(2.0)
    return np.array(out)


def test_log_weights_by_depth_equal_the_per_node_recursion():
    for seed in range(12):
        for task in ("classification", "regression"):
            tree, state, *_ = random_grown_instance(seed, task, max_depth=6)
            want = per_node_log_weights(tree, state.oob_loss,
                                        state.temperature)
            assert state.log_agg_weight.tobytes() == want.tobytes()
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, 600)
    y = np.sin(12.0 * x) + rng.normal(0.0, 0.5, 600)
    forest = fit([x], y, ["continuous"],
                 TrainConfig(task="regression", n_trees=100, seed=8))
    assert forest.roots.shape == (100,)
    want = per_node_log_weights(forest.table, forest.state.oob_loss,
                                forest.temperature_)
    assert forest.state.log_agg_weight.tobytes() == want.tobytes()


def test_mix_coefficient_closed_form_and_range():
    tree = complete_tree(1)
    eta, L = 1.3, np.array([0.2, 1.5, 0.1])
    state = AggregationState(
        eta, np.tile([0.5, 0.5], (3, 1)), L,
        compute_log_agg_weights(tree, L, eta))
    mix = mix_coefficients(state)
    want = 0.5 * math.exp(-eta * 0.2 - state.log_agg_weight[0])
    assert mix[0] == pytest.approx(want, rel=1e-12)
    assert (mix >= 0).all() and (mix <= 1).all()


def test_depth_one_prediction_closed_form():
    tree = complete_tree(1)
    eta, L = 0.9, np.array([2.0, 0.3, 0.8])
    forecasts = np.array([[0.6, 0.4], [0.9, 0.1], [0.2, 0.8]])
    state = AggregationState(eta, forecasts, L,
                             compute_log_agg_weights(tree, L, eta))
    x = np.array([0])      # left leaf
    a = 0.5 * math.exp(-eta * L[0] - state.log_agg_weight[0])
    want = a * forecasts[0] + (1 - a) * forecasts[1]
    np.testing.assert_allclose(predict_aggregated(tree, state, x), want,
                               rtol=1e-12)


def test_zero_losses_blend_halves_along_the_path():
    tree = complete_tree(2, task="regression")
    forecasts = np.arange(tree.n_nodes, dtype=np.float64)
    state = AggregationState(
        1.0, forecasts, np.zeros(tree.n_nodes),
        compute_log_agg_weights(tree, np.zeros(tree.n_nodes), 1.0))
    x = np.array([0])
    path = tree.path(x)
    want = 0.5 * forecasts[path[0]] + 0.25 * forecasts[path[1]] \
        + 0.25 * forecasts[path[2]]
    assert predict_aggregated(tree, state, x) == pytest.approx(want)


# ------------------------------------------------- identity with brute force


def test_recursion_matches_bruteforce_enumeration():
    rng = np.random.default_rng(30)
    worst = 0.0
    for trial in range(40):
        task = "classification" if trial % 2 == 0 else "regression"
        tree = synthetic_tree(rng, int(rng.integers(1, 7)), task,
                              n_classes=int(rng.integers(2, 5)))
        state = synthetic_state(tree, rng, float(rng.uniform(0.05, 2.0)),
                                max_loss=float(rng.uniform(0.5, 20.0)))
        for _ in range(4):
            x = np.array([rng.integers(0, 16)])
            fast = predict_aggregated(tree, state, x)
            worst = max(worst, aggregate_identity_error(tree, state, x, fast))
    assert worst < 1e-10


def test_identity_holds_on_grown_trees():
    for seed in range(6):
        task = "classification" if seed % 2 == 0 else "regression"
        tree, state, binned, _, _ = random_grown_instance(40 + seed, task=task)
        for i in range(0, 30, 5):
            x = binned.entries[i]
            fast = predict_aggregated(tree, state, x)
            assert aggregate_identity_error(tree, state, x, fast) < 1e-10


# ----------------------------------------------------------- prediction API


def test_batch_prediction_equals_single_rows():
    for task, seed in (("classification", 50), ("regression", 51)):
        tree, state, binned, _, _ = random_grown_instance(seed, task=task)
        batch = predict_aggregated_batch(tree, state, binned.entries)
        for i in range(0, binned.entries.shape[0], 9):
            single = predict_aggregated(tree, state, binned.entries[i])
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=0)


def test_visit_count_is_twice_path_minus_one():
    rng = np.random.default_rng(60)
    for _ in range(10):
        tree = synthetic_tree(rng, int(rng.integers(2, 8)), "classification")
        state = synthetic_state(tree, rng, 1.0)
        x = np.array([rng.integers(0, 16)])
        _, visits = predict_aggregated(tree, state, x, count_visits=True)
        assert visits == 2 * tree.path(x).shape[0] - 1


def test_extreme_losses_stay_finite_and_normalized():
    rng = np.random.default_rng(61)
    tree = synthetic_tree(rng, 6, "classification", n_classes=3)
    state = synthetic_state(tree, rng, temperature=10.0, max_loss=1e4)
    assert np.isfinite(state.log_agg_weight).all()
    x = np.array([7])
    p = predict_aggregated(tree, state, x)
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_leaf_only_prediction_uses_the_leaf_forecast():
    tree, state, binned, _, _ = random_grown_instance(62)
    x = binned.entries[3]
    leaf = tree.route(binned.entries[3:4])[0]
    np.testing.assert_allclose(predict_leaf_only(tree, x),
                               state.forecasts[leaf])
    batch = predict_leaf_only_batch(tree, state.forecasts, binned.entries)
    np.testing.assert_allclose(batch[3], state.forecasts[leaf])


def test_leaf_only_state_rejects_aggregated_prediction():
    tree, _, binned, labels, sample = random_grown_instance(63)
    bare = build_state(tree, binned.entries, labels, None, temperature=1.0)
    assert bare.oob_loss is None and bare.log_agg_weight is None
    with pytest.raises(ValueError, match="without aggregation"):
        predict_aggregated(tree, bare, binned.entries[0])
    with pytest.raises(ValueError, match="without aggregation"):
        predict_aggregated_batch(tree, bare, binned.entries)


def test_build_state_matches_manual_assembly():
    tree, state, binned, labels, sample = random_grown_instance(64)
    L = accumulate_oob_losses(tree, state.forecasts, binned.entries,
                              sample.oob_indices, labels)
    np.testing.assert_allclose(state.oob_loss, L)
    np.testing.assert_allclose(
        state.log_agg_weight,
        compute_log_agg_weights(tree, L, state.temperature))
