"""Forest training: prediction contracts, determinism, prefix property."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import bound_violation, cut_weight, node_counts

from aggforest import forest as forest_module
from aggforest.aggregation import (build_state, descend, node_values,
                                   predict_aggregated)
from aggforest.datasets import add_noise, make_toy_classification, signal_grid
from aggforest.forest import Forest, TrainConfig, fit
from aggforest.model_io import load_model, save_model
from aggforest.sampling import TAG_BOOTSTRAP, RandomSource, bootstrap
from aggforest.tree import Tree, grow_tree

KINDS2 = ["continuous", "continuous"]


def toy_forest(n=400, seed=0, **kw) -> tuple[Forest, np.ndarray, np.ndarray]:
    X, y = make_toy_classification(n, seed=seed)
    config = TrainConfig(n_trees=kw.pop("n_trees", 5), seed=seed, **kw)
    return fit(X, y, KINDS2, config), X, y


def test_classification_prediction_contract():
    forest, X, y = toy_forest()
    proba = forest.predict_proba(X)
    assert proba.shape == (400, 2)
    assert (proba > 0).all()
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    labels = forest.predict(X)
    assert set(np.unique(labels)) <= set(forest.classes_.tolist())
    np.testing.assert_array_equal(labels,
                                  forest.classes_[np.argmax(proba, axis=1)])
    # Fitting must beat coin flipping on its own training data.
    assert (labels == y).mean() > 0.6


def test_class_labels_are_preserved_not_reindexed():
    X, y = make_toy_classification(300, seed=1)
    relabeled = np.where(y == 1, 7, -3)
    forest = fit(X, relabeled, KINDS2, TrainConfig(n_trees=3, seed=1))
    np.testing.assert_array_equal(forest.classes_, [-3, 7])
    assert set(np.unique(forest.predict(X))) <= {-3, 7}


def test_training_is_deterministic():
    a, X, _ = toy_forest(seed=2)
    b, _, _ = toy_forest(seed=2)
    np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))
    c, _, _ = toy_forest(seed=3)
    assert not np.array_equal(a.predict_proba(X), c.predict_proba(X))


def test_worker_count_does_not_change_the_model(monkeypatch, tmp_path):
    X, y = make_toy_classification(250, seed=4)
    config = TrainConfig(n_trees=5, seed=4)
    # Groups of two trees: three groups, split across the two workers.
    monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", 500)
    serial = fit(X, y, KINDS2, config, n_jobs=1)
    parallel = fit(X, y, KINDS2, config, n_jobs=2)
    np.testing.assert_array_equal(serial.predict_proba(X),
                                  parallel.predict_proba(X))
    save_model(serial, tmp_path / "serial.agf")
    save_model(parallel, tmp_path / "parallel.agf")
    assert ((tmp_path / "serial.agf").read_bytes()
            == (tmp_path / "parallel.agf").read_bytes())


@pytest.mark.parametrize("task,n_classes,multiclass,temperature", [
    ("regression", 0, "heuristic", 10.0),
    ("classification", 3, "one_vs_rest", None),
], ids=["regression-cut", "one_vs_rest"])
def test_worker_count_keeps_cut_and_one_vs_rest_models(
        monkeypatch, tmp_path, task, n_classes, multiclass, temperature):
    """Workers send back plain arrays, and the parent scores, weighs and
    cuts the joined table: at temperature 10 the regression forest is cut,
    and each one-versus-rest class has groups of its own."""
    X, y = mixed_data(300, 23, task, n_classes)
    kinds = ["categorical", "continuous", "continuous"]
    config = TrainConfig(task=task, n_trees=4, multiclass=multiclass,
                         max_features=2, temperature=temperature, seed=23)
    monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", 1200)
    saved = []
    for n_jobs in (1, 2):
        save_model(fit(X, y, kinds, config, n_jobs=n_jobs),
                   tmp_path / f"{n_jobs}.agf")
        saved.append((tmp_path / f"{n_jobs}.agf").read_bytes())
    assert saved[0] == saved[1]
    if temperature is not None:
        monkeypatch.setattr(forest_module, "CUT_WEIGHT", 0.0)
        assert (fit(X, y, kinds, config).table.n_nodes
                > load_model(tmp_path / "2.agf").table.n_nodes)


@pytest.mark.parametrize("aggregation,temperature,cut_weight,calls", [
    (False, None, forest_module.CUT_WEIGHT, 1),
    (True, 10.0, 0.0, 1),
    (True, 10.0, forest_module.CUT_WEIGHT, 2),
], ids=["off", "nothing-cut", "cut"])
def test_a_fit_builds_one_table_and_one_more_when_it_cuts(
        monkeypatch, aggregation, temperature, cut_weight, calls):
    """Fitting joins every group's trees into one table, and builds a
    second only for the cut."""
    X, y = mixed_data(300, 23, "regression")
    config = TrainConfig(task="regression", n_trees=4, max_features=2,
                         aggregation=aggregation, temperature=temperature,
                         seed=23)
    monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", 1200)
    monkeypatch.setattr(forest_module, "CUT_WEIGHT", cut_weight)
    sizes, plans, from_heap = [], record_group_sizes(monkeypatch), Tree.from_heap

    def counting(*args, **kwargs):
        table = from_heap(*args, **kwargs)
        sizes.append(table.n_nodes)
        return table

    monkeypatch.setattr(Tree, "from_heap", counting)
    forest = fit(X, y, ["categorical", "continuous", "continuous"], config)
    assert plans == [[2, 2]]
    assert len(sizes) == calls and sizes[-1] == forest.table.n_nodes
    # The cut table holds fewer nodes than the joined one.
    assert sorted(set(sizes), reverse=True) == sizes


@pytest.mark.parametrize("n,aggregation", [(0, True), (1, True), (1, False)])
def test_fewer_than_two_rows_are_refused(n, aggregation):
    # No rows used to fail inside numpy ("zero-size array to reduction
    # operation maximum"), one row with RuntimeError from the bootstrap.
    with pytest.raises(ValueError, match=f"at least 2 rows, got {n}"):
        fit([np.arange(n, dtype=float)], np.ones(n), ["continuous"],
            TrainConfig(task="regression", n_trees=2,
                        aggregation=aggregation))


def test_class_labels_of_mixed_types_are_refused():
    # np.unique used to raise a bare TypeError.
    X, _ = make_toy_classification(200, seed=6)
    with pytest.raises(ValueError, match="must be mutually comparable"):
        fit(X, np.array([1, "a"] * 100, dtype=object), KINDS2,
            TrainConfig(n_trees=2))


def test_repeated_feature_names_are_refused():
    # The command line would read one CSV column for both features.
    X, y = make_toy_classification(100, seed=6)
    with pytest.raises(ValueError, match="feature names must not repeat"):
        fit(X, y, KINDS2, TrainConfig(n_trees=2), feature_names=["a", "a"])


@pytest.mark.parametrize("n_trees,size,n_jobs,sizes", [
    (10, 6, 1, [5, 5]),
    (10, 6, 2, [5, 5]),
    (10, 3, 2, [3, 3, 2, 2]),
    (100, 128, 1, [100]),
    (100, 128, 2, [50, 50]),
    (5, 2, 2, [2, 2, 1]),
    (4, 1, 1, [1, 1, 1, 1]),
    (3, 10, 8, [1, 1, 1]),
    (1, 10, 2, [1]),
])
def test_group_plan(n_trees, size, n_jobs, sizes):
    """Consecutive groups of near-equal size, larger first: as few as hold
    ``size`` trees each, and at least one per worker while trees last."""
    plan = forest_module._group_plan(n_trees, size, n_jobs)
    assert [len(g) for g in plan] == sizes
    assert [t for g in plan for t in g] == list(range(n_trees))
    assert max(sizes) <= size or len(plan) == min(n_jobs, n_trees)


def record_group_sizes(monkeypatch) -> list:
    """The sizes of the groups of every plan ``fit`` makes from now on."""
    sizes, plan = [], forest_module._group_plan

    def recording(*args):
        groups = plan(*args)
        sizes.append([len(g) for g in groups])
        return groups

    monkeypatch.setattr(forest_module, "_group_plan", recording)
    return sizes


def test_one_group_splits_across_workers(monkeypatch, tmp_path):
    X, y = make_toy_classification(250, seed=9)
    config = TrainConfig(n_trees=5, seed=9)
    sizes = record_group_sizes(monkeypatch)
    for n_jobs in (1, 2):
        save_model(fit(X, y, KINDS2, config, n_jobs=n_jobs),
                   tmp_path / f"{n_jobs}.agf")
    # The entries bound holds all five trees, but two workers get a group each.
    assert sizes == [[5], [3, 2]]
    assert ((tmp_path / "1.agf").read_bytes()
            == (tmp_path / "2.agf").read_bytes())


def test_groups_are_sized_by_level_entries(monkeypatch):
    """A group holds _GROUP_ENTRIES // (rows * features per node) trees."""
    X, y = make_toy_classification(250, seed=9)
    sizes = record_group_sizes(monkeypatch)
    monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", 1000)
    for max_features in (1, 2):
        fit(X, y, KINDS2, TrainConfig(n_trees=5, max_features=max_features))
    assert sizes == [[3, 2], [2, 2, 1]]


def test_prefix_of_trees_equals_smaller_forest():
    X, y = make_toy_classification(300, seed=5)
    big = fit(X, y, KINDS2, TrainConfig(n_trees=6, seed=5))
    small = fit(X, y, KINDS2, TrainConfig(n_trees=2, seed=5))
    np.testing.assert_array_equal(big.predict_proba(X, max_trees=2),
                                  small.predict_proba(X))
    np.testing.assert_array_equal(big.predict(X, max_trees=np.int64(2)),
                                  small.predict(X))
    # A bool or a fraction once counted as that many trees, rounded up.
    for bad in (0, True, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="max_trees"):
            big.predict_proba(X, max_trees=bad)


def test_one_vs_rest_trains_a_tree_per_class_and_tree():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(240, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + (X[:, 1] > 0.8)
    forest = fit(X, y, KINDS2,
                 TrainConfig(n_trees=3, multiclass="one_vs_rest", seed=6))
    assert len(forest.trees) == 3 * 3
    assert sorted({b.class_id for b in forest.trees}) == [0, 1, 2]
    proba = forest.predict_proba(X)
    assert proba.shape == (240, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    heur = fit(X, y, KINDS2, TrainConfig(n_trees=3, seed=6))
    assert len(heur.trees) == 3
    assert all(b.class_id == -1 for b in heur.trees)


def test_regression_predictions_clipped_to_target_range():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(300, 2))
    y = 2.0 * X[:, 0] + rng.normal(0, 0.1, 300)
    forest = fit(X, y, KINDS2, TrainConfig(task="regression", n_trees=4,
                                           seed=7))
    pred = forest.predict(X)
    assert np.isfinite(pred).all()
    assert pred.min() >= y.min() and pred.max() <= y.max()
    assert np.corrcoef(pred, y)[0, 1] > 0.9
    assert forest.temperature_ == pytest.approx(
        1.0 / (8.0 * np.abs(y).max() ** 2))


def test_classification_default_temperature_is_one():
    forest, _, _ = toy_forest(n=100, n_trees=1, seed=8)
    assert forest.temperature_ == 1.0
    explicit, _, _ = toy_forest(n=100, n_trees=1, seed=8, temperature=0.25)
    assert explicit.temperature_ == 0.25


def test_aggregation_off_leaf_only_states():
    forest, X, _ = toy_forest(seed=9, aggregation=False)
    assert all(b.state.oob_loss is None for b in forest.trees)
    proba = forest.predict_proba(X)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_missing_values_survive_the_whole_pipeline():
    rng = np.random.default_rng(10)
    X = rng.uniform(0, 1, size=(300, 2))
    y = (X[:, 0] > 0.5).astype(int)
    X[rng.random(300) < 0.15, 1] = np.nan
    forest = fit(X, y, KINDS2, TrainConfig(n_trees=3, seed=10))
    assert np.isfinite(forest.predict_proba(X)).all()


def test_infinite_feature_values_take_the_extreme_plain_bins():
    # fit_bins used to warn about inf - inf and to end its thresholds in NaN.
    rng = np.random.default_rng(19)
    X = rng.normal(size=(300, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(int)
    X[rng.random(300) < 0.2, 0] = np.inf
    X[rng.random(300) < 0.2, 0] = -np.inf
    finite = X[np.isfinite(X[:, 0]), 0]
    Xq = np.array([[np.inf, 0.1], [finite.max(), 0.1], [-np.inf, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forest = fit(X, y, KINDS2, TrainConfig(n_trees=4, seed=19))
        proba = forest.predict_proba(Xq)
    fb = forest.mapper.features[0]
    assert np.isfinite(fb.thresholds).all()
    codes = forest._binned(Xq).entries[:, 0]
    assert codes[0] == codes[1] == fb.n_plain_bins - 1 and codes[2] == 0
    assert np.array_equal(proba[0], proba[1])


def test_categorical_and_continuous_mix():
    rng = np.random.default_rng(11)
    color = rng.choice(np.array(["r", "g", "b"], dtype=object), size=260)
    size = rng.normal(size=260)
    y = ((color == "r") | (size > 1.0)).astype(int)
    forest = fit([color, size], y, ["categorical", "continuous"],
                 TrainConfig(n_trees=4, seed=11))
    pred = forest.predict([color, size])
    assert (pred == y).mean() > 0.8


def test_oob_loss_summary_is_finite():
    forest, _, _ = toy_forest(seed=12)
    mean, std = forest.oob_loss_summary()
    assert np.isfinite(mean) and np.isfinite(std) and mean > 0


def test_fit_input_validation():
    X, y = make_toy_classification(40, seed=13)
    with pytest.raises(ValueError, match="two classes"):
        fit(X, np.zeros(40), KINDS2, TrainConfig())
    with pytest.raises(ValueError, match="finite"):
        fit(X, np.full(40, np.nan), KINDS2, TrainConfig(task="regression"))
    with pytest.raises(ValueError, match="labels"):
        fit(X, y[:-1], KINDS2, TrainConfig())
    reg = fit(X, y.astype(float), KINDS2,
              TrainConfig(task="regression", n_trees=2, seed=13))
    with pytest.raises(ValueError, match="classification"):
        reg.predict_proba(X)


@pytest.mark.parametrize("name,value", [
    ("temperature", float("nan")), ("temperature", float("inf")),
    ("temperature", -float("inf")), ("dirichlet", float("nan")),
    ("dirichlet", float("inf"))])
def test_non_finite_settings_are_refused(name, value):
    # NaN passes every "< 0" check: a NaN temperature or dirichlet used to
    # give NaN predictions and a model load_model refuses.
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("n_trees", 2.5), ("n_trees", True), ("max_bins", 16.0),
    ("max_features", 1.5), ("min_samples_leaf", 1.5),
    ("min_samples_split", 2.5), ("max_depth", 2.5), ("seed", 2.5),
    ("seed", -1)])
def test_integer_settings_are_refused(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


def test_worker_count_is_checked(tmp_path):
    X, y = make_toy_classification(60, seed=14)
    # One group of trees used to run n_jobs=0 silently, and several raised
    # the pool's own error.
    for n_jobs in (0, -1, 1.5):
        with pytest.raises(ValueError, match="n_jobs"):
            fit(X, y, KINDS2, TrainConfig(n_trees=2), n_jobs=n_jobs)
    # Numpy integers are integers, and the saved header takes them.
    config = TrainConfig(n_trees=np.int64(2), max_depth=np.int32(3),
                         seed=np.uint8(4))
    assert all(type(v) is int
               for v in (config.n_trees, config.max_depth, config.seed))
    save_model(fit(X, y, KINDS2, config, n_jobs=np.int64(1)),
               tmp_path / "numpy-ints.agf")


def test_huge_regression_targets_are_refused():
    # At x1e153 fit used to warn hundreds of times and fit nothing (MSE/var
    # 1.00); at x1e200 the default temperature underflowed to 0.0.
    t, clean = signal_grid("doppler", 1024)
    y = add_noise(clean, 2.0, seed=3)
    config = TrainConfig(task="regression", n_trees=5, seed=3)

    def mse_ratio(scale):
        pred = fit([t], y * scale, ["continuous"], config).predict([t]) / scale
        return np.mean((pred - clean) ** 2) / np.var(clean)

    for scale in (1e153, 1e200):
        with pytest.raises(ValueError, match="rescale"):
            fit([t], y * scale, ["continuous"], config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = mse_ratio(1e150)
    assert huge == pytest.approx(mse_ratio(1.0), rel=1e-9)
    assert huge < 0.6


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_tiny_regression_targets_are_refused(tmp_path, scale):
    # The default temperature 1/(8 max|y|^2) used to be inf at 1e-160,
    # which gave non-finite predictions and a model load_model refused, and
    # to raise ZeroDivisionError at 1e-170.
    t, clean = signal_grid("doppler", 256)
    y = add_noise(clean, 2.0, seed=4) * scale
    with pytest.raises(ValueError, match="rescale them or set temperature"):
        fit([t], y, ["continuous"], TrainConfig(task="regression", n_trees=2))
    forest = fit([t], y, ["continuous"],
                 TrainConfig(task="regression", n_trees=2, temperature=1.0))
    assert forest.temperature_ == 1.0
    assert np.isfinite(forest.predict([t])).all()
    save_model(forest, tmp_path / "tiny.agf")
    assert np.isfinite(load_model(tmp_path / "tiny.agf").predict([t])).all()


def test_temperature_whose_log_weights_overflow_is_refused(tmp_path):
    # -temperature * loss overflowed to -inf at node losses above about 1.8:
    # every prediction was NaN, and load_model refused the saved model.
    x = np.random.default_rng(0).normal(size=60)
    with pytest.raises(ValueError, match=r"temperature 1e\+308 and the stats"):
        fit([x], x > 0, ["continuous"],
            TrainConfig(n_trees=2, temperature=1e308))
    forest = fit([x], x > 0, ["continuous"],
                 TrainConfig(n_trees=2, temperature=1e306))
    assert np.isfinite(forest.predict_proba([x])).all()
    save_model(forest, tmp_path / "hot.agf")
    assert np.isfinite(load_model(tmp_path / "hot.agf").predict_proba([x])
                       ).all()


def test_temperature_just_below_overflow_raises_no_warning(tmp_path):
    # At 1e307, -temperature * loss overflows at internal nodes whose loss
    # is above about 18; their own weight of 0 is right, and the mix used
    # to warn "overflow encountered in multiply" on the way there.
    x = np.random.default_rng(0).normal(size=60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forest = fit([x], x > 0, ["continuous"],
                     TrainConfig(n_trees=2, temperature=1e307))
        proba = forest.predict_proba([x])
        save_model(forest, tmp_path / "hot.agf")
        back = load_model(tmp_path / "hot.agf")
        assert np.array_equal(back.predict_proba([x]), proba)
    assert np.isfinite(proba).all()
    assert (forest.state.oob_loss > np.finfo(float).max / 1e307).any()


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_targets_must_be_one_dimensional(task):
    # Regression used to fail inside numpy ("operands could not be
    # broadcast"), classification with "object too deep".
    X, y = make_toy_classification(40, seed=16)
    with pytest.raises(ValueError, match="y must be 1-d, got shape"):
        fit(X, y.reshape(-1, 1), KINDS2, TrainConfig(task=task, n_trees=2))


def test_feature_names_must_match_the_columns():
    # Two columns with one name used to fit a model carrying one name.
    X, y = make_toy_classification(40, seed=17)
    for names in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match=f"got {len(names)} feature names "
                           "for 2 feature columns"):
            fit(X, y, KINDS2, TrainConfig(n_trees=2), feature_names=names)
    forest = fit(X, y, KINDS2, TrainConfig(n_trees=2), feature_names=["a", "b"])
    assert forest.feature_names == ["a", "b"]


def test_max_features_one_still_learns():
    forest, X, y = toy_forest(seed=14, max_features=1)
    assert (forest.predict(X) == y).mean() > 0.55


def test_missing_class_labels_are_rejected():
    X, y = make_toy_classification(60, seed=15)
    with_nan = y.astype(np.float64)
    with_nan[3] = np.nan
    with pytest.raises(ValueError, match="missing"):
        fit(X, with_nan, KINDS2, TrainConfig(n_trees=2, seed=15))
    with_none = np.where(y == 1, "a", "b").astype(object)
    with_none[5] = None
    with pytest.raises(ValueError, match="missing"):
        fit(X, with_none, KINDS2, TrainConfig(n_trees=2, seed=15))


def mixed_data(n, seed, task, n_classes=2):
    """A categorical column and two continuous columns with missing values."""
    rng = np.random.default_rng(seed)
    color = rng.choice(np.array(["r", "g", "b", "k"], dtype=object), size=n)
    color[rng.random(n) < 0.1] = None
    a, b = rng.normal(size=n), rng.normal(size=n)
    score = a + 0.7 * (color == "r") - 0.5 * b
    a[rng.random(n) < 0.15] = np.nan
    if task == "regression":
        y = score + rng.normal(0, 0.3, n)
    else:
        edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
        y = np.searchsorted(edges, score + rng.normal(0, 0.4, n))
    return [color, a, b], y


def reference_prediction(forest, X, max_trees):
    """Mean over trees of each tree's single-row prediction: the upward fold
    of predict_aggregated with aggregation on, the leaf forecast off."""
    entries = forest._binned(X).entries
    bundles = [b for b in forest.trees if b.index < max_trees]

    def one(b, x):
        if forest.config.aggregation:
            return predict_aggregated(b.tree, b.state, x)
        return b.state.forecasts[b.tree.path(x)[-1]]

    per_tree = np.array([[one(b, x) for x in entries] for b in bundles])
    if bundles[0].class_id >= 0:
        ids = np.array([b.class_id for b in bundles])
        cols = np.stack([per_tree[ids == k, :, 1].mean(axis=0)
                         for k in range(forest.n_classes)], axis=1)
        return cols / cols.sum(axis=1, keepdims=True)
    mean = per_tree.mean(axis=0)
    if forest.config.task == "regression":
        return np.clip(mean, forest.y_min_, forest.y_max_)
    return mean


@pytest.mark.parametrize("aggregation", [True, False])
@pytest.mark.parametrize("task,n_classes,multiclass", [
    ("regression", 0, "heuristic"),
    ("classification", 2, "heuristic"),
    ("classification", 3, "heuristic"),
    ("classification", 3, "one_vs_rest"),
])
def test_stacked_prediction_equals_per_tree_fold(monkeypatch, task, n_classes,
                                                  multiclass, aggregation):
    X, y = mixed_data(300, 16, task, n_classes)
    kinds = ["categorical", "continuous", "continuous"]
    forest = fit(X, y, kinds, TrainConfig(
        task=task, n_trees=4, multiclass=multiclass, aggregation=aggregation,
        max_features=2, seed=16))
    # Blocks of 64 pairs hold 16 rows of 4 trees, so 120 rows span 8 blocks.
    monkeypatch.setattr(forest_module, "_BLOCK_PAIRS", 64)
    Xq, _ = mixed_data(120, 17, task, n_classes)
    predict = forest.predict if task == "regression" else forest.predict_proba
    for max_trees in (None, 2):
        got = predict(Xq, max_trees=max_trees)
        want = reference_prediction(forest, Xq, max_trees or 4)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        for i in range(120):
            one = predict([c[i:i + 1] for c in Xq], max_trees=max_trees)
            assert np.array_equal(one[0], got[i])


@pytest.mark.parametrize("task,n_classes,multiclass,aggregation", [
    ("classification", 3, "heuristic", True),
    ("classification", 3, "one_vs_rest", True),
    ("regression", 0, "heuristic", True),
    ("classification", 2, "heuristic", False),
])
def test_single_row_calls_equal_their_batch_rows(task, n_classes, multiclass,
                                                 aggregation):
    """One row of 25 trees is walked to its leaves in Python (75 pairs under
    one-vs-rest take numpy steps first), while a block of 150 rows takes
    numpy steps: both predict the row bitwise alike."""
    X, y = mixed_data(300, 21, task, n_classes)
    forest = fit(X, y, ["categorical", "continuous", "continuous"],
                 TrainConfig(task=task, n_trees=25, multiclass=multiclass,
                             aggregation=aggregation, max_features=2,
                             seed=21))
    Xq, _ = mixed_data(150, 22, task, n_classes)
    calls = [forest.predict]
    if task == "classification":
        calls.append(forest.predict_proba)
    for call in calls:
        batch = call(Xq)
        for i in range(150):
            one = call([c[i:i + 1] for c in Xq])
            assert one.shape[:1] == (1,) and np.array_equal(one[0], batch[i])


@pytest.mark.parametrize("task,n_classes,multiclass", [
    ("regression", 0, "heuristic"),
    ("classification", 3, "heuristic"),
    ("classification", 3, "one_vs_rest"),
])
def test_tree_views_route_and_predict_like_the_table(task, n_classes,
                                                     multiclass):
    """Each ``Forest.trees`` view, routed alone from its node 0, reaches
    the table's leaf less the tree's root, and its single-row fold gives
    the table's value at that leaf."""
    X, y = mixed_data(200, 19, task, n_classes)
    forest = fit(X, y, ["categorical", "continuous", "continuous"],
                 TrainConfig(task=task, n_trees=4, multiclass=multiclass,
                             max_features=2, seed=19))
    entries = forest._binned(mixed_data(60, 20, task, n_classes)[0]).entries
    leaf = forest.table.route(entries, forest.roots)
    values = node_values(forest.table, forest.state)
    assert len(forest.trees) == 4 * (3 if multiclass == "one_vs_rest" else 1)
    for t, view in enumerate(forest.trees):
        local = view.tree.route(entries)
        np.testing.assert_array_equal(local, leaf[:, t] - forest.roots[t])
        for x, v in zip(entries, leaf[:, t]):
            np.testing.assert_allclose(
                predict_aggregated(view.tree, view.state, x), values[v],
                rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("aggregation", [True, False])
@pytest.mark.parametrize("task,n_classes,multiclass", [
    ("regression", 0, "heuristic"),
    ("classification", 2, "heuristic"),
    ("classification", 3, "heuristic"),
    ("classification", 3, "one_vs_rest"),
])
def test_tree_views_hold_their_run_of_the_table(task, n_classes, multiclass,
                                                aggregation):
    """``Tree.from_heap`` builds each ``Forest.trees`` view from its run of
    the table, nodes lo..hi-1: the view holds those nodes with links less
    lo, their split rows and masks, and their levels."""
    X, y = mixed_data(300, 24, task, n_classes)
    forest = fit(X, y, ["categorical", "continuous", "continuous"],
                 TrainConfig(task=task, n_trees=4, multiclass=multiclass,
                             aggregation=aggregation, max_features=2,
                             seed=24))
    table = forest.table
    split = np.flatnonzero(table.feature >= 0)    # node of each split row
    at_cat = table.threshold == -2
    node, _ = table.levels
    ends = np.append(forest.roots[1:], table.n_nodes)
    assert len(forest.trees) == forest.roots.shape[0]
    assert at_cat.any() and (~at_cat).any()
    for view, lo, hi in zip(forest.trees, forest.roots, ends):
        tree = view.tree
        assert (tree.task, tree.n_classes) == (table.task, table.n_classes)
        links = {name: getattr(table, name)[lo:hi]
                 for name in ("left_child", "parent")}
        want = dict(feature=table.feature[lo:hi], depth=table.depth[lo:hi],
                    stats=table.stats[lo:hi],
                    **{name: np.where(a >= 0, a - a.dtype.type(lo), a)
                       for name, a in links.items()})
        rows = (split >= lo) & (split < hi)
        want.update(threshold=table.threshold[rows],
                    missing_left=table.missing_left[rows],
                    masks=table.masks[rows[at_cat]],
                    feature_n_bins=table.feature_n_bins,
                    feature_missing_bin=table.feature_missing_bin)
        for name, a in want.items():
            got = getattr(tree, name)
            assert got.dtype == a.dtype and np.array_equal(got, a), name
        depth = tree.depth[tree.feature >= 0]
        assert np.array_equal(tree.levels[0],
                              node[(node >= lo) & (node < hi)] - lo)
        assert tree.levels[1] == np.cumsum(np.bincount(depth)).tolist()


@pytest.mark.parametrize("task,n_classes,multiclass,aggregation,options", [
    ("regression", 0, "heuristic", True, {}),
    ("classification", 3, "heuristic", True, {}),
    ("classification", 3, "one_vs_rest", True, {}),
    ("classification", 2, "heuristic", False, {}),
    # Out-of-bag rows also stop at the depth limit and at nodes whose
    # children would be too small.
    ("classification", 3, "heuristic", True, {"max_depth": 2}),
    ("regression", 0, "heuristic", True, {"min_samples_leaf": 12}),
    ("classification", 2, "heuristic", False, {"min_samples_leaf": 12}),
], ids=["regression-0-heuristic-True", "classification-3-heuristic-True",
        "classification-3-one_vs_rest-True", "classification-2-heuristic-False",
        "classification-3-max_depth-2", "regression-0-min_samples_leaf-12",
        "classification-2-off-min_samples_leaf-12"])
def test_fitted_state_matches_build_state_per_tree(monkeypatch, task,
                                                   n_classes, multiclass,
                                                   aggregation, options):
    """Trees grown in groups, their oob rows scored while they grow, carry
    the tree, state and oob loss mean of growing, ``build_state`` and
    routing each tree alone."""
    X, y = mixed_data(200, 18, task, n_classes)
    kinds = ["categorical", "continuous", "continuous"]
    config = TrainConfig(task=task, n_trees=5, multiclass=multiclass,
                         aggregation=aggregation, max_features=2, seed=18,
                         **options)
    # Groups of two trees, so the last group of each class holds one.
    monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", 800)
    forest = fit(X, y, kinds, config)
    # Fitting routes no tree after growth, so the table carries no router.
    assert "router" not in vars(forest.table)
    binned = forest._binned(X)
    y_enc = (np.unique(y, return_inverse=True)[1] if n_classes
             else y.astype(np.float64))
    ovr = multiclass == "one_vs_rest"
    k = 2 if ovr else n_classes
    assert [(b.class_id, b.index) for b in forest.trees] == [
        (c, i) for c in (range(n_classes) if ovr else [-1]) for i in range(5)]
    for b in forest.trees:
        source = RandomSource(18).child(*([b.class_id] if ovr else []),
                                        b.index)
        labels = (y_enc == b.class_id).astype(np.int64) if ovr else y_enc
        sample = bootstrap(200, source.child(TAG_BOOTSTRAP))
        tree = grow_tree(binned, labels, sample, config, source, n_classes=k)
        np.testing.assert_array_equal(b.tree.left_child, tree.left_child)
        np.testing.assert_array_equal(b.tree.stats, tree.stats)
        state = build_state(tree, binned.entries, labels,
                            sample.oob_indices if aggregation else None,
                            forest.temperature_, config.dirichlet)
        for name in ("forecasts", "oob_loss", "log_agg_weight"):
            got, want = getattr(b.state, name), getattr(state, name)
            if want is None:
                assert got is None, name
            else:
                assert got.tobytes() == want.tobytes(), name
        assert b.state.temperature == state.temperature
        preds = node_values(tree, state)[tree.route(
            binned.entries[sample.oob_indices])]
        y_oob = labels[sample.oob_indices]
        if k:
            losses = -np.log(preds[np.arange(y_oob.shape[0]), y_oob])
        else:
            losses = (preds - y_oob) ** 2
        assert b.oob_loss_mean == float(losses.mean())


@pytest.mark.parametrize("task,n_classes,multiclass,aggregation", [
    ("classification", 3, "heuristic", True),
    ("classification", 3, "heuristic", False),
    ("classification", 3, "one_vs_rest", True),
    ("classification", 2, "heuristic", True),
    ("regression", 0, "heuristic", True),
    ("regression", 0, "heuristic", False),
])
def test_group_size_does_not_change_the_model(monkeypatch, tmp_path, task,
                                              n_classes, multiclass,
                                              aggregation):
    """One tree per group and every tree of a class in one group save the
    same bytes, and the stored masks are those of the categorical splits."""
    X, y = mixed_data(300, 23, task, n_classes)
    kinds = ["categorical", "continuous", "continuous"]
    config = TrainConfig(task=task, n_trees=4, multiclass=multiclass,
                         aggregation=aggregation, max_features=2, seed=23)
    saved = []
    for entries in (1, 2 ** 40):
        monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", entries)
        forest = fit(X, y, kinds, config)
        table = forest.table
        split = np.flatnonzero(table.feature >= 0)
        cat = split[table.feature[split] == 0]    # the categorical column
        assert cat.size > 0
        assert table.masks.shape[0] == cat.size
        np.testing.assert_array_equal(
            [v for v in split if table.split_of(int(v)).is_categorical], cat)
        save_model(forest, tmp_path / f"{entries}.agf")
        saved.append((tmp_path / f"{entries}.agf").read_bytes())
    assert saved[0] == saved[1]


@pytest.mark.parametrize("task,n_classes,multiclass", [
    ("regression", 0, "heuristic"),
    ("classification", 3, "heuristic"),
    ("classification", 3, "one_vs_rest"),
    ("classification", 2, "heuristic"),
])
def test_cut_keeps_the_nodes_the_aggregate_weighs(monkeypatch, tmp_path, task,
                                                  n_classes, multiclass):
    """At temperature 10 the aggregate weighs some subtrees below
    CUT_WEIGHT.  Each fitted tree is its tree grown alone less those
    subtrees: the kept nodes carry the grown tree's stats, counts,
    forecasts and oob losses bit for bit, and the oob loss mean is that of
    the oob rows routed through the cut tree.  Group size does not change
    the model, a loaded copy predicts equal, and the bound holds."""
    X, y = mixed_data(300, 23, task, n_classes)
    kinds = ["categorical", "continuous", "continuous"]
    ovr = multiclass == "one_vs_rest"
    config = TrainConfig(task=task, n_trees=4, multiclass=multiclass,
                         max_features=2, temperature=10.0, seed=23)
    eps, saved = forest_module.CUT_WEIGHT, []
    for entries in (2 ** 40, 1200):     # one group per class, then of two
        monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", entries)
        forest = fit(X, y, kinds, config)
        save_model(forest, tmp_path / f"{entries}.agf")
        saved.append((tmp_path / f"{entries}.agf").read_bytes())
    assert saved[0] == saved[1]
    predict = forest.predict if task == "regression" else forest.predict_proba
    assert np.array_equal(predict(X), getattr(
        load_model(tmp_path / "1200.agf"), predict.__name__)(X))
    assert (bound_violation(forest.table, forest.state, forest.roots,
                            forest.n_oob, forest.oob_loss_mean) <= 1e-12).all()
    # Uncut, a mean over trees moves by at most the weight the cut removes
    # times the forecast range, which is at most 1 for probabilities.
    with monkeypatch.context() as m:
        m.setattr(forest_module, "CUT_WEIGHT", 0.0)
        uncut = fit(X, y, kinds, config)
    assert uncut.table.n_nodes > forest.table.n_nodes
    if not ovr:
        scale = np.ptp(y) if task == "regression" else 1.0
        full = getattr(uncut, predict.__name__)(X)
        drift = np.abs(full - predict(X)).max()
        # Rounding adds a few ulps: the log weights are recomputed.
        assert drift <= cut_weight(uncut) * scale + 1e-15 * np.abs(full).max()

    binned = forest._binned(X)
    y_enc = (np.unique(y, return_inverse=True)[1] if n_classes
             else y.astype(np.float64))
    for b, n_oob in zip(forest.trees, forest.n_oob):
        source = RandomSource(23).child(*([b.class_id] if ovr else []),
                                        b.index)
        labels = (y_enc == b.class_id).astype(np.int64) if ovr else y_enc
        sample = bootstrap(300, source.child(TAG_BOOTSTRAP))
        tree = grow_tree(binned, labels, sample, config, source,
                         n_classes=2 if ovr else n_classes)
        state = build_state(tree, binned.entries, labels, sample.oob_indices,
                            10.0, config.dirichlet)
        rem = descend(tree, state)[1]
        kept = np.flatnonzero((tree.parent < 0) | (rem[tree.parent] >= eps))
        assert b.tree.n_nodes == kept.size
        np.testing.assert_array_equal(
            b.tree.feature, np.where(rem[kept] >= eps, tree.feature[kept], -1))
        for v in np.flatnonzero(b.tree.feature >= 0):
            got, want = b.tree.split_of(int(v)), tree.split_of(int(kept[v]))
            assert ((got.bin_threshold, got.missing_goes_left)
                    == (want.bin_threshold, want.missing_goes_left)), v
            assert (got.left_mask is None) == (want.left_mask is None), v
            if got.left_mask is not None:
                np.testing.assert_array_equal(got.left_mask, want.left_mask)
        assert b.tree.stats.tobytes() == tree.stats[kept].tobytes()
        for rows in (sample.itb_indices, sample.oob_indices):
            assert np.array_equal(node_counts(b.tree, binned.entries, rows),
                                  node_counts(tree, binned.entries, rows)[kept])
        assert n_oob == sample.n_oob
        for name in ("forecasts", "oob_loss"):
            assert (getattr(b.state, name).tobytes()
                    == getattr(state, name)[kept].tobytes()), name
        preds = node_values(b.tree, b.state)[b.tree.route(
            binned.entries[sample.oob_indices])]
        y_oob = labels[sample.oob_indices]
        losses = (-np.log(preds[np.arange(y_oob.shape[0]), y_oob])
                  if task == "classification" else (preds - y_oob) ** 2)
        assert b.oob_loss_mean == float(losses.mean())


# ---------------------------------------------------------------------------
# The lookup table of a small binned space


def count_routes(monkeypatch) -> list:
    """Record the (rows, trees) of every ``Tree.route`` call from now on."""
    calls, route = [], Tree.route

    def counting(self, entries, roots=None):
        calls.append((entries.shape[0], 1 if roots is None else roots.shape[0]))
        return route(self, entries, roots)

    monkeypatch.setattr(Tree, "route", counting)
    return calls


def drawn_columns(rng, n, pools, kinds, missing, held_out):
    """n rows of columns drawn from each feature's pool of values, with NaN
    or None in a column with ``missing``.  Training rows hold every pool
    value and, with ``missing``, a missing one; held-out continuous rows
    also fall between and beyond the pool, and held-out categorical rows
    with ``missing`` take unseen values."""
    cols = []
    for pool, kind, gap in zip(pools, kinds, missing):
        if kind == "categorical":
            pool = np.array([f"v{k}" for k in range(pool.shape[0])]
                            + ["unseen"] * (gap and held_out), dtype=object)
        absent = np.nan if kind == "continuous" else None
        col = rng.choice(pool, size=n)
        if held_out and kind == "continuous":
            off = rng.random(n) < 0.5
            col[off] = rng.uniform(pool[0] - 1, pool[-1] + 1, off.sum())
        col[rng.random(n) < 0.1 * gap] = absent
        if not held_out:
            col[1:1 + pool.shape[0]] = pool
            if gap:
                col[0] = absent
        cols.append(col)
    return cols


@given(st.data())
def test_lookup_predicts_bitwise_as_routing(tmp_path_factory, data):
    """Over every tree, a forest of at most _BLOCK_PAIRS (code, tree) pairs
    reads its table, which predicts bitwise as routing (``max_trees`` of
    every tree), for single rows and loaded models alike."""
    d = data.draw(st.integers(1, 3))
    kinds = data.draw(st.lists(st.sampled_from(["continuous", "categorical"]),
                               min_size=d, max_size=d))
    missing = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    # s values give at most 2s codes (midpoint thresholds fall on values and
    # between them, missing bin included), so 24 trees (8 per class under
    # one-vs-rest) stay in one block.
    sizes = data.draw(st.lists(st.integers(1, {1: 300, 2: 25, 3: 6}[d]),
                               min_size=d, max_size=d))
    task, n_classes, multiclass = data.draw(st.sampled_from([
        ("classification", 2, "heuristic"), ("classification", 3, "heuristic"),
        ("classification", 3, "one_vs_rest"), ("regression", 0, "heuristic")]))
    config = TrainConfig(
        task=task, multiclass=multiclass, n_trees=data.draw(st.integers(1, 8)),
        max_bins=data.draw(st.integers(2, 300)),
        aggregation=data.draw(st.booleans()), seed=data.draw(st.integers(0, 9)))
    rng = np.random.default_rng(config.seed)
    pools = [np.sort(rng.normal(size=s)) for s in sizes]
    n = max(40, 2 * max(sizes))
    X = drawn_columns(rng, n, pools, kinds, missing, held_out=False)
    y = rng.integers(0, max(n_classes, 2), size=n)
    y[:n_classes] = np.arange(n_classes)
    if task == "regression":
        y = y + rng.normal(size=n)
    forest = fit(X, y, kinds, config)
    Xq = drawn_columns(rng, 50, pools, kinds, missing, held_out=True)
    calls = [forest.predict, forest.predict_proba][:2 if n_classes else 1]
    path = tmp_path_factory.mktemp("lookup") / "m.agf"
    save_model(forest, path)
    loaded = load_model(path)
    for call in calls:
        got = call(Xq)
        assert forest._lookup is not None
        assert np.array_equal(got, call(Xq, max_trees=config.n_trees))
        for i in range(0, 50, 7):
            one = call([c[i:i + 1] for c in Xq])
            assert one.shape[:1] == (1,) and np.array_equal(one[0], got[i])
        assert np.array_equal(getattr(loaded, call.__name__)(Xq), got)


def signal_forest(n_trees=20) -> tuple[Forest, list]:
    """A regression forest on one continuous feature of 256 bins."""
    t, clean = signal_grid("doppler", 1024)
    config = TrainConfig(task="regression", n_trees=n_trees, seed=24)
    return fit([t], add_noise(clean, 0.5, seed=24), ["continuous"],
               config), [t]


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_built_lookup_serves_every_call_but_max_trees(monkeypatch, task):
    """Once the table exists, batch and single-row predict and
    predict_proba route nothing; a max_trees call still routes."""
    if task == "regression":
        forest, X = signal_forest()
    else:
        X, y = make_toy_classification(600, seed=24)
        X = list(X.T)
        forest = fit(X, y, KINDS2, TrainConfig(max_bins=20, seed=24))
    calls = count_routes(monkeypatch)
    batch = forest.predict(X)
    # The build routes every code through every tree in one call.
    assert calls == [(int(np.prod(forest.mapper.table.n_bins)),
                      forest.roots.shape[0])]
    calls.clear()
    predicts = [forest.predict, forest.predict_proba]
    for call in predicts[:1 if task == "regression" else 2]:
        call(X)
        call([c[3:4] for c in X])
    assert calls == []
    np.testing.assert_array_equal(
        forest.predict(X, max_trees=forest.config.n_trees), batch)
    assert calls


@pytest.mark.parametrize("margin,built", [(0, True), (1, False)])
def test_lookup_guard_is_one_block_of_pairs(monkeypatch, margin, built):
    """The table is built when its codes times the trees are at most
    _BLOCK_PAIRS, else every call routes as before."""
    forest, X = signal_forest(n_trees=3)
    pairs = int(np.prod(forest.mapper.table.n_bins)) * 3
    monkeypatch.setattr(forest_module, "_BLOCK_PAIRS", pairs - margin)
    calls = count_routes(monkeypatch)
    forest.predict(X)
    assert (forest._lookup is not None) == built
    assert (len(calls) == 1) == built


@pytest.mark.parametrize("n_features,n_bins", [(64, 2), (20, 256)])
def test_codes_past_int64_route_as_before(monkeypatch, n_features, n_bins):
    """2^64 codes (64 binary features) and 2^160 (20 features of 256 bins)
    wrap numpy's int64 product to 0; the guard's Python product builds no
    table, and predictions route as before."""
    rng = np.random.default_rng(25)
    n = max(n_bins, 200)
    # Each column holds every value equally often, so that its quantile
    # thresholds fall between values and every one of its n_bins bins holds
    # some (a column of mostly zeros fits one bin).
    X = rng.permuted(np.resize(np.arange(n_bins), (n_features, n)),
                     axis=1).T.astype(float)
    y = (X[:, 0] + rng.normal(0, n_bins / 4, n) > n_bins / 2).astype(int)
    forest = fit(X, y, ["continuous"] * n_features,
                 TrainConfig(n_trees=2, max_bins=n_bins, seed=25))
    assert (forest.mapper.table.n_bins == n_bins).all()
    assert np.prod(forest.mapper.table.n_bins) == 0
    calls = count_routes(monkeypatch)
    proba = forest.predict_proba(X)
    assert forest._lookup is None and calls
    assert np.array_equal(proba, forest.predict_proba(X, max_trees=2))


def test_lookup_stays_out_of_the_file_and_the_load(tmp_path):
    """The table is never saved, and a loaded forest builds it only on its
    first predict."""
    forest, X = signal_forest()
    save_model(forest, tmp_path / "before.agf")
    forest.predict(X)
    assert forest._lookup is not None
    save_model(forest, tmp_path / "after.agf")
    assert ((tmp_path / "before.agf").read_bytes()
            == (tmp_path / "after.agf").read_bytes())
    loaded = load_model(tmp_path / "after.agf")
    assert "_lookup" not in vars(loaded)
    assert np.array_equal(loaded.predict(X), forest.predict(X))
    assert loaded._lookup is not None
