"""Model serialization, CSV handling, and the command-line surface."""

import builtins
import functools
import hashlib
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggforest import model_io
from aggforest.binning import FeatureKind
from aggforest.cli import main
from aggforest.forest import Forest, TrainConfig, fit
from aggforest.model_io import (
    DatasetSchema,
    ModelFormatError,
    load_csv,
    load_model,
    save_model,
    write_csv,
)
from aggforest.tree import STORED, Tree

KINDS2 = [FeatureKind.CONTINUOUS, FeatureKind.CONTINUOUS]


def small_classification(seed=0, n=150):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    return [X[:, 0].copy(), X[:, 1].copy()], y


def small_regression(seed=1, n=150):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
    return [X[:, 0].copy(), X[:, 1].copy()], y


# ---------------------------------------------------------------------------
# save/load round trips


def test_classification_round_trip_is_bit_exact(tmp_path):
    cols, y = small_classification()
    forest = fit(cols, y, KINDS2, TrainConfig(n_trees=4, seed=7),
                 feature_names=["a", "b"])
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    back = load_model(str(path))

    np.testing.assert_array_equal(back.classes_, forest.classes_)
    assert back.feature_names == ["a", "b"]
    assert back.config == forest.config
    p0 = forest.predict_proba(cols)
    p1 = back.predict_proba(cols)
    assert np.array_equal(p0, p1)


def test_regression_round_trip_preserves_range_and_temperature(tmp_path):
    cols, y = small_regression()
    forest = fit(cols, y, KINDS2,
                 TrainConfig(task="regression", n_trees=3, seed=2))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    back = load_model(str(path))

    assert back.y_min_ == forest.y_min_
    assert back.y_max_ == forest.y_max_
    assert back.temperature_ == forest.temperature_
    assert np.array_equal(back.predict(cols), forest.predict(cols))


def test_ovr_round_trip_keeps_class_ids(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(180, 2))
    y = rng.integers(0, 3, size=180)
    y[X[:, 0] > 0.5] = 2
    cols = [X[:, 0].copy(), X[:, 1].copy()]
    forest = fit(cols, y, KINDS2,
                 TrainConfig(n_trees=2, multiclass="one_vs_rest", seed=4))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    back = load_model(str(path))

    assert [t.class_id for t in back.trees] == [t.class_id for t in forest.trees]
    assert np.array_equal(back.predict_proba(cols), forest.predict_proba(cols))


def test_aggregation_off_round_trip(tmp_path):
    cols, y = small_classification(seed=5)
    forest = fit(cols, y, KINDS2,
                 TrainConfig(n_trees=2, aggregation=False, seed=5))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    back = load_model(str(path))

    assert back.config.aggregation is False
    for t in back.trees:
        assert t.state.oob_loss is None
    # Each tree's oob row count is kept without aggregation too.
    assert back.n_oob.tobytes() == forest.n_oob.tobytes()
    assert (back.n_oob >= 1).all()
    assert np.array_equal(back.predict_proba(cols), forest.predict_proba(cols))


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_loaded_table_and_state_are_the_fitted_ones(tmp_path, task):
    """Fit and load derive the table from the same stored rows through
    ``Tree.from_heap``, so the internal nodes' sums, the forecasts and the
    log weights, and with them the predictions, are the same bits."""
    cols, y = (small_regression() if task == "regression"
               else small_classification())
    forest = fit(cols, y, KINDS2, TrainConfig(task=task, n_trees=3, seed=11))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    back = load_model(str(path))

    for name in ("stats", "depth", "parent", "feature", "threshold"):
        a, b = getattr(back.table, name), getattr(forest.table, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert back.n_oob.tobytes() == forest.n_oob.tobytes()
    for name in ("forecasts", "oob_loss", "log_agg_weight"):
        assert (getattr(back.state, name).tobytes()
                == getattr(forest.state, name).tobytes()), name
    if task == "regression":
        assert np.array_equal(back.predict(cols), forest.predict(cols))
    else:
        assert np.array_equal(back.predict_proba(cols),
                              forest.predict_proba(cols))


def mixed_columns(n=300, n_classes=2, seed=17):
    """A categorical column of 12 values and a continuous one of n distinct
    values, both with missing values, a categorical column of 3 values,
    and labels of n_classes classes, or regression targets when n_classes
    is 0."""
    rng = np.random.default_rng(seed)
    color = rng.choice(np.array(list("abcdefghijkl"), dtype=object), size=n,
                       p=np.arange(12, 0, -1) / 78)
    x = rng.normal(size=n)
    size = rng.choice(np.array(list("SML"), dtype=object), size=n)
    score = (np.isin(color, list("aeik")) + x + (size == "M")
             + 0.5 * rng.normal(size=n))
    color[rng.random(n) < 0.1] = None
    x[rng.random(n) < 0.1] = np.nan
    if n_classes == 0:
        return [color, x, size], score
    return [color, x, size], np.digitize(score, np.quantile(
        score, np.arange(1, n_classes) / n_classes))


@pytest.mark.parametrize("config,n_classes", [
    (dict(), 2),
    (dict(), 3),
    (dict(multiclass="one_vs_rest"), 3),
    (dict(task="regression"), 0),
    (dict(aggregation=False), 3),
    (dict(max_bins=8), 3),
    (dict(max_bins=2), 2),
    (dict(max_bins=257), 2),
    (dict(max_bins=65536), 2),
], ids=["binary", "3-class", "one-vs-rest", "regression", "aggregation-off",
        "categorical-overflow", "max_bins-2", "max_bins-257",
        "max_bins-65536"])
def test_round_trip_keeps_every_array_and_byte(tmp_path, config, n_classes):
    """Load widens each narrowed field back to the type fitting keeps: the
    loaded table and state equal the fitted ones in value and type, the
    predictions are the same bits, and saving the loaded forest writes the
    same bytes."""
    cols, y = mixed_columns(n_classes=n_classes)
    forest = fit(cols, y, ["categorical", "continuous", "categorical"],
                 TrainConfig(n_trees=3, seed=5, **config))
    features = forest.mapper.features
    assert features[0].has_missing and features[1].has_missing
    if config.get("max_bins") == 8:
        assert features[0].overflow_bin >= 0
    path, again = tmp_path / "m.agf", tmp_path / "again.agf"
    save_model(forest, str(path))
    back = load_model(str(path))

    for name in ("feature", "threshold", "missing_left", "masks",
                 "left_child", "parent", "depth", "stats"):
        a, b = getattr(back.table, name), getattr(forest.table, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert back.table.layout is back.mapper.table
    for name in ("forecasts", "oob_loss", "log_agg_weight"):
        a, b = getattr(back.state, name), getattr(forest.state, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    predict = (Forest.predict if n_classes == 0 else Forest.predict_proba)
    assert predict(back, cols).tobytes() == predict(forest, cols).tobytes()
    for i in (0, 7, 123):
        row = [c[i:i + 1] for c in cols]
        assert predict(back, row).tobytes() == predict(forest, row).tobytes()
    save_model(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def saved_header(raw):
    (hlen,) = struct.unpack_from("<Q", raw, 52)
    return json.loads(raw[60:60 + hlen].decode("utf-8"))


def saved_arrays(raw):
    """The header of a saved model's payload and copies of its arrays, by
    name, None for an array stored as none."""
    meta = saved_header(raw)
    arrays, offset = {}, 60 + struct.unpack_from("<Q", raw, 52)[0]
    for key, dtype, shape in meta["arrays"]:
        if dtype is None:
            arrays[key] = None
            continue
        arr = np.frombuffer(raw, dtype=dtype, count=int(np.prod(shape)),
                            offset=offset)
        arrays[key] = arr.reshape(shape).copy()
        offset += arr.nbytes
    return meta, arrays


def test_split_rows_in_memory_are_the_rows_the_file_stores(tmp_path):
    """A split's kind is its feature's, so a table holds its split rows as
    format 7 stores them: one threshold, stored plus one, and one
    missing_left bit per continuous split, and one mask per categorical
    split, stored feature by feature at its feature's width."""
    cols, y = mixed_columns(n_classes=3)
    forest = fit(cols, y, ["categorical", "continuous", "categorical"],
                 TrainConfig(n_trees=3, seed=5))
    table, layout = forest.table, forest.mapper.table
    assert table.layout is layout
    assert layout.is_categorical.tolist() == [True, False, True]
    assert (layout.missing_bin[:2] >= 0).all()
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    _, arrays = saved_arrays(path.read_bytes())

    on = table.feature[table.feature >= 0]
    cat = layout.is_categorical[on]
    assert table.threshold.shape == table.missing_left.shape == (
        np.count_nonzero(~cat),)
    assert table.masks.shape[0] == np.count_nonzero(cat)
    assert np.array_equal(arrays["threshold"], table.threshold + 1)
    assert table.missing_left.any() and not table.missing_left.all()
    assert np.array_equal(np.unpackbits(
        arrays["missing_left"], count=table.missing_left.shape[0],
        bitorder="little"), table.missing_left)
    width = (layout.n_bins + 7) // 8
    assert table.masks.shape[1] == width.max() > width[0]
    assert set(on[cat].tolist()) == {0, 2}
    assert arrays["masks"].tobytes() == b"".join(
        table.masks[on[cat] == j, :width[j]].tobytes()
        for j in layout.categorical)


@pytest.mark.parametrize("task,aggregation", [
    ("classification", True), ("classification", False),
    ("regression", True)], ids=["True", "False", "regression"])
def test_manifest_holds_each_field_for_its_kind_of_node(tmp_path, task,
                                                       aggregation):
    rng = np.random.default_rng(13)
    color = rng.choice(np.array(list("abcdef"), dtype=object), size=200)
    x = rng.normal(size=200)
    y = (np.isin(color, ["a", "b"]) ^ (x > 0.5)).astype(np.int64)
    if task == "regression":
        y = y + rng.normal(0, 0.1, size=200)
    forest = fit([color, x], y, ["categorical", "continuous"],
                 TrainConfig(task=task, n_trees=3, aggregation=aggregation,
                             seed=13))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    shapes = {name: shape for name, _, shape
              in saved_header(path.read_bytes())["arrays"]}

    table = forest.table
    n = table.n_nodes
    n_internal = int((table.feature >= 0).sum())
    assert 0 < n_internal < n - n_internal
    assert shapes["internal"] == [(n + 7) // 8]
    assert shapes["feature"] == [n_internal]
    # Column 0, the colour, is the one categorical feature; its 6 bins take
    # one byte per mask, and only the continuous splits store the rest.
    n_cat = int((table.feature == 0).sum())
    assert 0 < n_cat < n_internal
    assert table.layout.n_bins[0] == 6
    assert shapes["threshold"] == [n_internal - n_cat]
    assert shapes["missing_left"] == [(n_internal - n_cat + 7) // 8]
    assert shapes["masks"] == [n_cat]
    # Two classes' weights, or a regression leaf's weight and its sum w y.
    if task == "regression":
        assert shapes["stats"] == [n - n_internal, 1]
        assert shapes["label_sum"] == [n - n_internal]
    else:
        assert shapes["stats"] == [n - n_internal, 2]
        assert shapes["label_sum"] is None
    for name in ("roots", "oob_loss_mean", "n_oob"):
        assert shapes[name] == [3], name
    assert not {"index", "class_id"} & set(shapes)
    assert shapes["oob_loss"] == ([n] if aggregation else None)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_file_size_is_the_format_7_budget(tmp_path, task):
    """A byte budget: the payload a small fixed forest takes, counted from
    its node, split and mask counts under the rules of format 7, is what
    save writes, so a field stored wider than it needs fails here."""
    raw, _ = saved_mixed_forest(task)
    path = tmp_path / "m.agf"
    path.write_bytes(raw)
    forest = load_model(str(path))
    table, mapper = forest.table, forest.mapper
    n, n_trees = table.n_nodes, forest.roots.shape[0]
    split = table.feature[table.feature >= 0]
    cat = mapper.table.is_categorical[split]
    n_bins = np.array([fb.n_bins for fb in mapper.features])
    # Three features and 256 bins: one byte per feature and threshold.
    assert len(mapper.features) == 3 and mapper.max_bins == 256
    leaves = table.stats[table.feature < 0]
    weights = leaves[:, :1] if task == "regression" else leaves
    assert weights.max() < 256                  # one byte per weight
    budget = ((n + 7) // 8                      # internal
              + split.shape[0]                  # feature
              + int((~cat).sum())               # threshold
              + (int((~cat).sum()) + 7) // 8    # missing_left
              + int(((n_bins[split[cat]] + 7) // 8).sum())  # masks
              + weights.size                    # stats
              + 8 * n                           # oob_loss
              + 8 * 3 * n_trees                 # roots, oob_loss_mean, n_oob
              + 8 * sum(fb.thresholds.shape[0] for fb in mapper.features
                        if fb.thresholds is not None))
    if task == "regression":
        budget += 8 * leaves.shape[0]           # label_sum
    (hlen,) = struct.unpack_from("<Q", raw, 52)
    assert len(raw) == 52 + 8 + hlen + budget


# ---------------------------------------------------------------------------
# file format corruption

def saved_model_bytes(tmp_path):
    cols, y = small_classification(seed=9, n=60)
    forest = fit(cols, y, KINDS2, TrainConfig(n_trees=1, seed=9))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    return path, path.read_bytes()


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    body[60] ^= 0xFF  # somewhere inside the payload
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(str(path))


def test_truncated_file_is_rejected(tmp_path):
    path, raw = saved_model_bytes(tmp_path)
    path.write_bytes(raw[:-10])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(str(path))


def test_bad_magic_is_rejected(tmp_path):
    path, raw = saved_model_bytes(tmp_path)
    path.write_bytes(b"NOTMODEL" + raw[8:])
    with pytest.raises(ModelFormatError, match="not a model file"):
        load_model(str(path))


def test_short_file_is_rejected(tmp_path):
    path = tmp_path / "m.agf"
    path.write_bytes(b"AGFOREST")
    with pytest.raises(ModelFormatError, match="not a model file"):
        load_model(str(path))


def test_unknown_version_is_rejected(tmp_path):
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 99)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="version 99"):
        load_model(str(path))


def rewrite_model(path, edit):
    """Apply edit(meta, arrays) to a saved model's header and arrays, where
    arrays may change shape, then lay the payload out again and re-sign it,
    so that only the load-time checks can catch the change."""
    raw = path.read_bytes()
    meta, arrays = saved_arrays(raw)
    edit(meta, arrays)
    meta["arrays"] = [[k, None, None] if a is None
                      else [k, a.dtype.str, list(a.shape)]
                      for k, a in arrays.items()]
    header = json.dumps(meta, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    payload = (struct.pack("<Q", len(header)) + header
               + b"".join(a.tobytes() for a in arrays.values() if a is not None))
    path.write_bytes(raw[:12] + hashlib.sha256(payload).digest()
                     + struct.pack("<Q", len(payload)) + payload)


def drop_header_key(key):
    def edit(meta, arrays):
        del meta[key]
    return edit


def set_entry(name, index, value):
    def edit(meta, arrays):
        arrays[name][index] = value
    return edit


def set_entry_as(dtype, name, index, value):
    """``set_entry`` of a value the field's stored type cannot hold, with
    the field widened to ``dtype`` first."""
    def edit(meta, arrays):
        arrays[name] = arrays[name].astype(dtype)
        arrays[name][index] = value
    return edit


def narrow_masks(meta, arrays):
    arrays["masks"] = arrays["masks"][:-1].copy()


def toggle_internal(arrays, nodes):
    """Flip the internal bit of each of ``nodes``."""
    for v in nodes:
        arrays["internal"][v >> 3] ^= 1 << (v & 7)


def one_more_internal_node(meta, arrays):
    internal = np.unpackbits(arrays["internal"], bitorder="little")
    toggle_internal(arrays, [np.flatnonzero(internal == 0)[0]])


def child_before_parent(meta, arrays):
    # The root becomes a leaf and the last leaf a split, so the count of
    # internal nodes holds but the first split's left child is itself or
    # an earlier node.
    n = arrays["feature"].shape[0] + arrays["stats"].shape[0]
    toggle_internal(arrays, [0, n - 1])


def overflowing_log_weight(meta, arrays):
    meta["temperature"] = 1e10
    arrays["oob_loss"][-1] = 1e300     # the last node is a leaf


def set_feature_field(key, value):
    def edit(meta, arrays):
        meta["features"][0][key] = value
    return edit


def prepend_thresholds(meta, arrays):
    thresholds = arrays["f0.thresholds"]
    arrays["f0.thresholds"] = np.concatenate(
        [thresholds[0] - 61 + np.arange(60.0), thresholds])


def set_category_bin(value, b):
    def edit(meta, arrays):
        meta["features"][0]["categories"] = [
            [v, b if v == value else old]
            for v, old in meta["features"][0]["categories"]]
    return edit


# Each id names a fault of a format that stored the links; the edit puts
# the same fault into the fields the links are now derived from.
@pytest.mark.parametrize("edit,message", [
    (set_entry("roots", 0, 10**6), "roots"),
    (child_before_parent, "at or before its parent"),
    (one_more_internal_node, r"not 2I \+ 1"),
    (set_entry("feature", 0, 7), "feature index"),
], ids=["left_child-0-1000000-outside", "left_child-0-0-outside",
        "parent-2-1-disagree", "feature-0-7-feature index"])
def test_malformed_tree_links_are_rejected(tmp_path, edit, message):
    path, _ = saved_model_bytes(tmp_path)
    assert load_model(str(path)).trees[0].tree.n_nodes >= 3

    rewrite_model(path, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


def test_format_version_one_is_refused(tmp_path):
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 1)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="version 1,"):
        load_model(str(path))


def test_format_version_two_is_refused(tmp_path):
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 2)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="version 2, expected 7"):
        load_model(str(path))


def test_format_version_three_is_refused(tmp_path):
    # Version 3 also stored each split's gain, which nothing read.
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 3)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="unsupported model format "
                                               "version 3, expected 7"):
        load_model(str(path))


def test_format_version_four_is_refused(tmp_path):
    # Version 4 also stored each leaf's in-bag and out-of-bag row counts,
    # which nothing read.
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 4)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="unsupported model format "
                                               "version 4, expected 7"):
        load_model(str(path))


def test_format_version_five_is_refused(tmp_path):
    # Version 5 also stored each regression leaf's sum w y^2, which only
    # growth reads, and each tree's index and class, which its place among
    # the trees gives.
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 5)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="unsupported model format "
                                               "version 5, expected 7"):
        load_model(str(path))


def test_format_version_six_is_refused(tmp_path):
    # Version 6 stored features and thresholds of every split as int32, one
    # byte per missing_left, float64 stats and every mask as wide as the
    # widest feature's.
    path, raw = saved_model_bytes(tmp_path)
    body = bytearray(raw)
    struct.pack_into("<I", body, 8, 6)
    path.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="unsupported model format "
                                               "version 6, expected 7"):
        load_model(str(path))


@pytest.mark.parametrize("multiclass,message", [
    ("heuristic", "2 trees stored, not the 3 that n_trees=3 gives$"),
    ("one_vs_rest", "6 trees stored, not the 9 that n_trees=3 gives for "
     "each of 3 classes"),
], ids=["heuristic", "one_vs_rest"])
def test_tree_count_other_than_n_trees_per_class_is_refused(tmp_path,
                                                            multiclass,
                                                            message):
    """Each tree's index and class follow from its place among n_trees
    trees, n_trees per class under one-versus-rest, so a file that holds
    another count of trees is refused, naming both counts."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 2))
    y = rng.integers(0, 3, size=120)
    forest = fit([X[:, 0].copy(), X[:, 1].copy()], y, KINDS2,
                 TrainConfig(n_trees=2, multiclass=multiclass, seed=4))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    load_model(str(path))

    def three_trees(meta, arrays):
        meta["config"]["n_trees"] = 3

    rewrite_model(path, three_trees)
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


def resize_rows(name, rows):
    """Drop the last row of an array (rows -1), or repeat it (rows 1)."""
    def edit(meta, arrays):
        a = arrays[name]
        arrays[name] = a[:-1].copy() if rows < 0 else np.concatenate(
            [a, a[-1:]])
    return edit


def set_last_leaves(name, value):
    """Set the last two leaves of the last tree, which are siblings."""
    def edit(meta, arrays):
        arrays[name][-2:] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (resize_rows("threshold", 1), "threshold does not hold one row per "
     "continuous split"),
    (resize_rows("missing_left", -1), "missing_left does not hold one bit "
     "per continuous split"),
    (resize_rows("stats", -1), "stats does not hold one row per leaf"),
    (resize_rows("n_oob", 1), "n_oob is not one integer >= 1 per tree"),
    # Whole-number stats are stored as unsigned integers.
    (set_entry_as("<f8", "stats", slice(-2, None), 1e308),
     r"stats is stored as <f8, not \|u1"),
], ids=["threshold-row-more", "missing_left-row-less", "stats-row-less",
        "n_oob-row-more", "stats-sum-overflows"])
def test_tampered_node_rows_are_refused(tmp_path, edit, message):
    path, _ = saved_model_bytes(tmp_path)
    rewrite_model(path, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


def set_bit_past(name, rows):
    """Set the first bit past the ones a packed field holds, one per row of
    the array ``rows``."""
    def edit(meta, arrays):
        count = arrays[rows].shape[0]
        assert count % 8, "no spare bit in the last byte"
        arrays[name][-1] |= 1 << count % 8
    return edit


def widen(name, dtype):
    def edit(meta, arrays):
        arrays[name] = arrays[name].astype(dtype)
    return edit


def add_label_sum(meta, arrays):
    arrays["label_sum"] = np.zeros(arrays["stats"].shape[0])


def all_left_split(meta, arrays):
    # The first continuous split on feature 1, which has a missing bin,
    # sends its missing values and every plain bin left.
    k = np.flatnonzero(arrays["feature"][arrays["feature"] != 0] == 1)[0]
    arrays["threshold"][k] = meta["features"][1]["n_bins"] - 1
    arrays["missing_left"][k >> 3] |= 1 << (k & 7)


# The plain model has two continuous features of 60 bins each and no
# missing values; the mixed one has a categorical feature of 4 values and
# a missing bin, 5 bins, then a continuous one with a missing bin and one
# without.
@pytest.mark.parametrize("model,edit,message", [
    ("plain", set_entry("threshold", 0, 251),
     r"threshold outside \[-1, n_bins - 2\]"),
    ("plain", set_entry("threshold", 0, 60),
     r"threshold outside \[-1, n_bins - 2\]"),
    ("plain", set_entry("threshold", 0, 0), "threshold and missing_left "
     "send no bin left"),
    ("plain", set_entry_as("<i8", "threshold", 0, 2 ** 32 + 26),
     r"threshold is stored as <i8, not \|u1"),
    ("plain", set_entry("missing_left", 0, 7), "missing_left is set at a "
     "split on a feature without a missing bin"),
    ("plain", set_bit_past("missing_left", "threshold"),
     "missing_left sets bits past its"),
    ("plain", set_bit_past("internal", "oob_loss"), "internal sets bits "
     "past its"),
    ("plain", set_entry_as("<f8", "stats", (0, 0), 0.5),
     r"stats is stored as <f8, not \|u1"),
    ("plain", widen("stats", "<u2"), r"stats is stored as <u2, not \|u1"),
    ("plain", widen("feature", "<u2"), r"feature is stored as <u2, not \|u1"),
    ("plain", widen("oob_loss", "<f4"), "oob_loss is stored as <f4, not <f8"),
    ("plain", add_label_sum, "label_sum is stored exactly for regression"),
    ("mixed", set_entry("masks", 0, 0x80 | 1),
     "masks set bits past the 5 bins of feature 0"),
    ("mixed", all_left_split, "threshold and missing_left send no bin left "
     "or no bin right"),
    ("mixed-regression", set_last_leaves("label_sum", 1e308),
     "stats are not finite"),
    ("mixed-regression", resize_rows("label_sum", -1),
     "stats and label_sum do not hold one weight and one sum per leaf"),
], ids=["threshold-past-bins", "threshold-at-last-bin",
        "threshold--1-missing-right",
        "threshold-int64", "missing_left-without-missing-bin",
        "missing_left-bit-past", "internal-bit-past", "stats-half",
        "stats-wider-than-needed", "feature-wider-than-needed",
        "oob_loss-float32", "label_sum-for-classification",
        "mask-bit-past-bins", "threshold-and-missing-all-left",
        "label_sum-sum-overflows",
        "label_sum-row-less"])
def test_stored_values_fit_never_writes_are_refused(tmp_path, model, edit,
                                                    message):
    """Each of these is a value or type that save never writes.  Format 6
    cast the split rows unchecked, so the first five loaded there and
    routed as a threshold past the feature's bins, as splits that send
    every bin or no bin left, as threshold 25 and as missing values going
    left."""
    if model == "plain":
        path, _ = saved_model_bytes(tmp_path)
    else:
        path = tmp_path / "m.agf"
        path.write_bytes(saved_mixed_forest(
            "regression" if model == "mixed-regression"
            else "classification")[0])
    load_model(str(path))
    rewrite_model(path, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("categorical,edit,message", [
    (False, drop_header_key("y_min"), "lacks the key 'y_min'"),
    (False, lambda meta, arrays: meta.update(temperature=-1.0),
     "temperature"),
    (False, lambda meta, arrays: meta.update(temperature=float("nan")),
     "temperature"),
    # Log weights and forecasts follow from the oob losses and the stats.
    (False, set_entry("oob_loss", 0, np.nan), "oob_loss"),
    (False, overflowing_log_weight, "log weights"),
    (False, set_entry("oob_loss", 0, -1.0), "oob_loss"),
    (False, set_entry("oob_loss", 1, -np.inf), "oob_loss"),
    (False, set_entry_as("<f8", "stats", (0, 0), -0.5),
     r"stats is stored as <f8, not \|u1"),
    (False, set_entry_as("<f8", "stats", (1, 1), np.nan),
     r"stats is stored as <f8, not \|u1"),
    (False, set_entry("stats", 1, 0.0), "stats"),
    # The trees' bin layout is the mapper's.
    (False, set_feature_field("n_bins", 3), "thresholds for 3 plain bins"),
    (False, set_feature_field("has_missing", True), "thresholds for"),
    (True, narrow_masks, "masks do not hold one row per categorical split"),
    # Two sibling leaves without in-bag rows leave their parent none.
    (False, set_last_leaves("stats", 0.0), "positive total"),
    (False, set_entry("n_oob", 0, 0), "n_oob"),
    (False, prepend_thresholds, "119 thresholds for 60 plain bins"),
    (False, set_entry("f0.thresholds", 0, 1e9), "strictly increasing"),
    (False, set_entry("f0.thresholds", 1, np.nan), "not finite"),
    (False, set_feature_field("overflow_bin", 0), "overflow_bin"),
    (False, lambda meta, arrays: meta.update(max_bins=2), "max_bins 2"),
    (False, lambda meta, arrays: meta.update(max_bins=70000), "max_bins"),
    (True, set_category_bin("a", 200), "category bin outside"),
    (True, set_feature_field("overflow_bin", 0), "overflow_bin"),
], ids=["no-y_min", "negative-temperature", "nan-temperature",
        "nan-log-weight", "tiny-log-weight", "positive-log-weight",
        "negative-oob-loss", "negative-forecast", "nan-stats",
        "zero-total-stats",
        "n_bins-differ", "missing-bin-out-of-range", "narrow-masks",
        "no-itb-rows", "no-oob-rows", "prepended-thresholds",
        "unsorted-thresholds", "nan-threshold", "continuous-overflow-bin",
        "n_bins-over-max_bins", "max_bins-over-uint16",
        "category-bin-out-of-range",
        "categorical-overflow-bin"])
def test_invalid_model_state_is_rejected(tmp_path, categorical, edit, message):
    # Each of these used to load, or to fail with KeyError, and then gave
    # non-finite predictions, read past a node's bits when routing, or
    # binned values to codes that fit was never shown.
    if categorical:
        rng = np.random.default_rng(9)
        color = rng.choice(np.array(list("abcdef"), dtype=object), size=80)
        y = np.isin(color, ["a", "b"]).astype(np.int64)
        forest = fit([color, rng.normal(size=80)], y,
                     ["categorical", "continuous"], TrainConfig(n_trees=1))
        path = tmp_path / "m.agf"
        save_model(forest, str(path))
        assert forest.mapper.features[0].n_bins == 6
        assert forest.trees[0].tree.masks.shape[1] >= 6
    else:
        path, _ = saved_model_bytes(tmp_path)
    rewrite_model(path, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


def set_header(**values):
    def edit(meta, arrays):
        meta.update(values)
    return edit


def set_class_values(values):
    def edit(meta, arrays):
        meta["classes"]["values"] = values
    return edit


@pytest.mark.parametrize("task,edit,message", [
    ("regression", set_header(y_min=float("nan")), "y_min nan and y_max "
     r"\S+ are not finite numbers in order"),
    ("regression", set_header(y_min="a"), "y_min 'a' and y_max"),
    ("regression", set_header(y_max=float("inf")), "y_max inf are not"),
    ("regression", set_header(y_min=5, y_max=-5), "y_min 5 and y_max -5 are "
     "not finite numbers in order"),
    ("regression", set_header(classes={"dtype": "<i8", "values": [0, 1]}),
     "classes are not"),
    ("classification", set_class_values([1, 1]), "classes are not two or "
     "more distinct values"),
    ("classification", set_class_values([1, 0]), "in ascending order"),
    ("classification", set_header(classes=None), "classes are not"),
    ("classification", set_header(feature_names=["a", "b", "c"]),
     "feature_names are not 2 distinct names"),
    ("classification", set_header(feature_names=["a", "a"]),
     "feature_names are not 2 distinct names"),
    ("classification", set_header(max_bins=300), "max_bins 300 is not the "
     "config's 256"),
], ids=["nan-y_min", "string-y_min", "infinite-y_max", "y_min-above-y_max",
        "regression-classes", "repeated-class", "descending-classes",
        "no-classes", "three-names-for-two-features", "repeated-name",
        "max_bins-not-the-config's"])
def test_header_values_fit_never_writes_are_refused(tmp_path, task, edit,
                                                    message):
    # Each of these used to load, and then predicted NaN or y_max for every
    # row, failed inside predict, or kept names or classes fit refuses.
    cols, y = (small_regression(n=60) if task == "regression"
               else small_classification(seed=9, n=60))
    forest = fit(cols, y, KINDS2, TrainConfig(task=task, n_trees=1, seed=9),
                 feature_names=["a", "b"])
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    load_model(str(path))
    rewrite_model(path, edit)
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


def one_more(name):
    def edit(stored):
        stored[name] = np.concatenate([stored[name], stored[name][-1:]])
    return edit


def one_fewer(name):
    def edit(stored):
        stored[name] = stored[name][:-1]
    return edit


def split_on(feature, kind):
    """Move the first categorical split (``kind`` True), which is on
    feature 0, or the first continuous one onto ``feature``."""
    def edit(stored):
        cat = stored["feature"] == 0
        stored["feature"] = stored["feature"].copy()
        stored["feature"][np.flatnonzero(cat == kind)[0]] = feature
    return edit


@pytest.mark.parametrize("edit,message", [
    (one_more("threshold"), "threshold does not hold one row per "
     "continuous split"),
    (one_fewer("threshold"), "threshold does not hold one row per "
     "continuous split"),
    (one_fewer("missing_left"), "missing_left does not hold one row per "
     "continuous split"),
    (lambda stored: stored.update(masks=stored["masks"][:, 1:]),
     r"masks does not hold one row per categorical split: shape \(\d+, "
     r"\d+\), not"),
    (one_more("masks"), "masks does not hold one row per categorical split"),
    (one_fewer("masks"), "masks does not hold one row per categorical "
     "split"),
    # A split moved to a feature of the other kind leaves its rows one
    # short for one kind and one over for the other.
    (split_on(1, True), "threshold does not hold one row per continuous "
     "split"),
    (split_on(0, False), "threshold does not hold one row per continuous "
     "split"),
], ids=["threshold-over", "threshold-short", "missing_left-short",
        "masks-narrow", "masks-over", "masks-short",
        "categorical-split-on-continuous",
        "continuous-split-on-categorical"])
def test_split_rows_of_the_wrong_count_for_their_kind_are_refused(edit,
                                                                  message):
    """A split's kind is its feature's, and its rows are those of its kind:
    ``from_heap`` refuses thresholds and missing_left bits other than one
    per split on a continuous feature, and masks other than one per split
    on a categorical feature, rather than routing a split by rows of
    another split.  The rows go to ``from_heap`` as fitting passes them."""
    rng = np.random.default_rng(13)
    color = rng.choice(np.array(list("abcdef"), dtype=object), size=200)
    x = rng.normal(size=200)
    y = (np.isin(color, ["a", "b"]) ^ (x > 0.5)).astype(np.int64)
    forest = fit([color, x], y, ["categorical", "continuous"],
                 TrainConfig(n_trees=1, seed=13))
    stored = forest.table.stored()
    Tree.from_heap("classification", 2, forest.mapper.table, forest.roots,
                   **stored)
    edit(stored)
    with pytest.raises(ValueError, match=message):
        Tree.from_heap("classification", 2, forest.mapper.table,
                       forest.roots, **stored)


def test_categories_of_mixed_types_are_refused_by_save(tmp_path):
    # Load casts every key to one type: bool(2) and bool(3) are True, so
    # this model used to load as {True: 2} and refuse 2 as unseen.  Fit
    # refuses such a column now, so the keys are mixed by hand.
    col = np.array([1, 2, 2, 1, 3, 3] * 5, dtype=object)
    y = np.arange(30) % 2
    forest = fit([col, np.arange(30.0)], y, ["categorical", "continuous"],
                 TrainConfig(n_trees=2, seed=0),
                 feature_names=["flag", "x"])
    assert forest.mapper.features[0].categories == {1: 0, 2: 1, 3: 2}
    forest.mapper.features[0].categories = {True: 0, 2: 1, 3: 2}
    path = tmp_path / "m.agf"
    with pytest.raises(ModelFormatError, match=r"feature 'flag': categorical "
                                               r"values of mixed types "
                                               r"\(bool, int\)"):
        save_model(forest, str(path))
    assert not path.exists()


def test_stats_that_are_not_whole_numbers_are_refused_by_save(tmp_path):
    """Stats are bootstrap draw counts, which the file stores as unsigned
    integers, so save refuses stats it could not store exactly."""
    cols, y = small_classification(seed=9, n=60)
    forest = fit(cols, y, KINDS2, TrainConfig(n_trees=1, seed=9))
    forest.table.stats[-1, 0] += 0.5
    path = tmp_path / "m.agf"
    with pytest.raises(ModelFormatError, match="stats hold weights that are "
                                               "not whole numbers"):
        save_model(forest, str(path))
    assert not path.exists()


@pytest.mark.parametrize("col,message", [
    (np.array([b"a", b"b"] * 30), "of type bytes"),
    (np.array([1, 2.5] * 30, dtype=object), r"of mixed types \(float, int\)"),
    (np.array([True, 2, 3] * 20, dtype=object),
     r"of mixed types \(bool, int\)"),
], ids=["bytes", "int-float", "bool-int"])
def test_fit_refuses_categories_that_save_cannot_store(col, message):
    # These used to fit, and then save_model refused the forest.
    with pytest.raises(ValueError, match="feature 0: categorical values "
                                         + message):
        fit([col], np.arange(60) % 2, ["categorical"], TrainConfig(n_trees=2))


def test_format_doc_names_every_stored_array(tmp_path):
    """The format section of the module docstring names exactly the arrays
    that ``save_model`` writes, a feature's thresholds as f<i>.thresholds."""
    doc = model_io.__doc__
    section = doc[doc.index("Format version"):doc.index("Load rebuilds")]
    named = set(re.findall(r"``([\w<>.]+)``", section))
    path, _ = saved_model_bytes(tmp_path)
    written = {re.sub(r"^f\d+\.", "f<i>.", name) for name, _, _
               in saved_header(path.read_bytes())["arrays"]}
    assert written == set(STORED) | {"label_sum", "oob_loss",
                                     "f<i>.thresholds"} | set(model_io._PER_TREE)
    assert named == written


def test_colliding_category_keys_are_refused_by_load(tmp_path):
    col = np.array([1, 2, 3] * 20)
    y = (col == 2).astype(np.int64)
    forest = fit([col], y, ["categorical"], TrainConfig(n_trees=1, seed=0))
    path = tmp_path / "m.agf"
    save_model(forest, str(path))
    assert load_model(str(path)).mapper.features[0].categories == {
        1: 0, 2: 1, 3: 2}

    def as_bool(meta, arrays):
        meta["features"][0]["key_type"] = "bool"

    rewrite_model(path, as_bool)
    with pytest.raises(ModelFormatError, match="feature 0: categories "
                                               "collide as bool keys"):
        load_model(str(path))


@functools.lru_cache(maxsize=None)
def saved_mixed_forest(task):
    """A saved two-tree forest over a categorical and two continuous
    columns with missing values, and its training columns."""
    rng = np.random.default_rng(21)
    color = rng.choice(np.array(list("pqrs"), dtype=object), size=90)
    color[rng.random(90) < 0.1] = None
    a, b = rng.normal(size=(2, 90))
    score = a + (color == "p") - b
    a[rng.random(90) < 0.1] = np.nan
    cols = [color, a, b]
    y = score if task == "regression" else (score > 0).astype(np.int64)
    forest = fit(cols, y, ["categorical", "continuous", "continuous"],
                 TrainConfig(task=task, n_trees=2, max_features=2, seed=21))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "m.agf")
        save_model(forest, path)
        with open(path, "rb") as fh:
            return fh.read(), cols


NASTY = {"f": [np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1e300, -1e300],
         "i": [-2, -1, 0, 1, 2, 3, 7, 255, 2 ** 31 - 1],
         "u": [0, 1, 2, 255, 2 ** 16 - 1, 2 ** 32 - 1, 2 ** 64 - 1],
         "b": [False, True]}


@given(st.data())
def test_mutated_model_is_refused_or_predicts_finite(tmp_path_factory, data):
    task = data.draw(st.sampled_from(["classification", "regression"]))
    raw, cols = saved_mixed_forest(task)
    path = tmp_path_factory.mktemp("mutated") / "m.agf"
    path.write_bytes(raw)

    def edit(meta, arrays):
        keys = sorted(k for k, a in arrays.items() if a is not None and a.size)
        # The node bits, both kinds' rows and the masks are all drawn.
        assert {"internal", "feature", "masks", "stats", "oob_loss",
                "n_oob"} <= set(keys)
        key = data.draw(st.sampled_from(keys))
        arr = arrays[key].reshape(-1)
        # Each unsigned type takes the values up to its maximum.
        values = [v for v in NASTY[arr.dtype.kind] if arr.dtype.kind != "u"
                  or v <= np.iinfo(arr.dtype).max]
        arr[data.draw(st.integers(0, arr.size - 1))] = data.draw(
            st.sampled_from(values))

    rewrite_model(path, edit)
    try:
        forest = load_model(str(path))
    except ModelFormatError:
        return
    if task == "regression":
        assert np.isfinite(forest.predict(cols)).all()
    else:
        proba = forest.predict_proba(cols)
        assert np.isfinite(proba).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# CSV reading and writing


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_csv_parses_continuous_and_categorical(tmp_path):
    path = tmp_path / "d.csv"
    write_lines(path, [
        "x,color,y",
        "1.5,red,0",
        ",blue,1",
        "nan,,1",
        "2.0,red,0",
    ])
    schema = DatasetSchema(target="y", categorical={"color"})
    columns, names, kinds, target = load_csv(str(path), schema)

    assert names == ["x", "color"]
    assert kinds == [FeatureKind.CONTINUOUS, FeatureKind.CATEGORICAL]
    assert columns[0][0] == 1.5
    assert np.isnan(columns[0][1]) and np.isnan(columns[0][2])
    assert columns[1][1] == "blue"
    assert columns[1][2] is None  # empty categorical cell
    assert list(target) == ["0", "1", "1", "0"]


def test_load_csv_ignore_drops_columns(tmp_path):
    path = tmp_path / "d.csv"
    write_lines(path, ["id,x,y", "1,0.5,0", "2,0.7,1"])
    schema = DatasetSchema(target="y", ignore={"id"})
    _, names, kinds, _ = load_csv(str(path), schema)
    assert names == ["x"]
    assert kinds == [FeatureKind.CONTINUOUS]


def test_load_csv_without_target(tmp_path):
    path = tmp_path / "d.csv"
    write_lines(path, ["x", "0.5", "0.7"])
    columns, names, kinds, target = load_csv(str(path), DatasetSchema())
    assert target is None
    assert names == ["x"]
    assert columns[0].shape == (2,)


@pytest.mark.parametrize("lines, message", [
    (["x,y", "1.0,0", "2.0"], "row 3: expected 2 cells, got 1"),
    (["x,y", "oops,0"], "row 2, column 'x': cannot parse 'oops'"),
    (["x,y", "1.0,", "2.0,1"], "row 2: missing target value"),
])
def test_load_csv_row_errors(tmp_path, lines, message):
    path = tmp_path / "d.csv"
    write_lines(path, lines)
    with pytest.raises(ValueError, match=message):
        load_csv(str(path), DatasetSchema(target="y"))


def test_load_csv_schema_errors(tmp_path):
    path = tmp_path / "d.csv"
    write_lines(path, ["x,y", "1.0,0"])
    with pytest.raises(ValueError, match="target column 'z'"):
        load_csv(str(path), DatasetSchema(target="z"))
    with pytest.raises(ValueError, match="columns not in header"):
        load_csv(str(path), DatasetSchema(target="y", categorical={"nope"}))
    with pytest.raises(ValueError, match="no feature columns left"):
        load_csv(str(path), DatasetSchema(target="y", ignore={"x"}))

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="is empty"):
        load_csv(str(empty), DatasetSchema())
    headonly = tmp_path / "h.csv"
    headonly.write_text("x,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(str(headonly), DatasetSchema())


def test_load_csv_refuses_a_repeated_column(tmp_path):
    # Both features used to read the first "a", and the second was dropped.
    path = tmp_path / "d.csv"
    write_lines(path, ["a,a,label", "1.0,2.0,0", "3.0,4.0,1"])
    for schema in (DatasetSchema(target="label"), DatasetSchema(ignore={"a"})):
        with pytest.raises(ValueError, match="names column 'a' more than once"):
            load_csv(str(path), schema)


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b"], [["1", "x,with comma"], ["2", "plain"]])
    columns, names, kinds, _ = load_csv(
        str(path), DatasetSchema(categorical={"b"}))
    assert names == ["a", "b"]
    assert list(columns[1]) == ["x,with comma", "plain"]
    # atomic write leaves no temp files behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_csv_bytes_are_crlf_rfc4180(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b,c", 'q"uote'],
              [["1", "x,with comma", ""], [2, 'say "hi"', "line\nbreak"],
               ["", " pad ", "\u00e9"]])
    assert path.read_bytes() == (
        b'a,"b,c","q""uote"\r\n1,"x,with comma",\r\n'
        b'2,"say ""hi""","line\nbreak"\r\n, pad ,\xc3\xa9\r\n')


# ---------------------------------------------------------------------------
# CLI end to end


def run_cli(argv):
    return main([str(a) for a in argv])


def test_train_predict_evaluate_flow(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.agf"
    preds = tmp_path / "preds.csv"

    assert run_cli(["make-data", "--kind", "toy", "--n", "400",
                    "--seed", "3", "--out", data]) == 0
    assert "wrote 400 rows" in capsys.readouterr().out

    assert run_cli(["train", "--data", data, "--target", "label",
                    "--n-trees", "5", "--seed", "11",
                    "--out", model]) == 0
    out = capsys.readouterr().out
    assert "trained 5 trees on 400 rows" in out
    assert "mean per-tree aggregated oob loss:" in out
    assert f"model written to {model}" in out

    assert run_cli(["predict", "--model", model, "--data", data,
                    "--out", preds]) == 0
    assert "wrote 400 predictions" in capsys.readouterr().out
    columns, names, _, _ = load_csv(str(preds),
                                    DatasetSchema(categorical={"prediction"}))
    assert names == ["prediction"]
    assert set(columns[0]) <= {"0", "1"}

    assert run_cli(["predict", "--model", model, "--data", data,
                    "--proba", "--out", preds]) == 0
    capsys.readouterr()
    columns, names, _, _ = load_csv(str(preds), DatasetSchema())
    assert names == ["proba_0", "proba_1"]
    total = columns[0] + columns[1]
    assert np.all(np.abs(total - 1.0) < 1e-9)

    assert run_cli(["evaluate", "--model", model, "--data", data,
                    "--target", "label", "--metric", "auc"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("metric=auc value=")
    value = float(out.split("value=")[1].split()[0])
    assert 0.8 < value <= 1.0  # training data, overlapping classes


def test_train_without_aggregation_reports_plain_loss(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "toy", "--n", "200", "--out", data])
    assert run_cli(["train", "--data", data, "--target", "label",
                    "--n-trees", "2", "--no-aggregation",
                    "--out", model]) == 0
    out = capsys.readouterr().out
    assert "mean per-tree oob loss:" in out
    assert "aggregated" not in out
    assert load_model(str(model)).config.aggregation is False


def test_train_eta_flag_sets_temperature(tmp_path, capsys):
    data = tmp_path / "sig.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "doppler", "--n", "128",
             "--snr", "1", "--out", data])
    assert run_cli(["train", "--data", data, "--target", "y",
                    "--task", "regression", "--n-trees", "2",
                    "--eta", "0.25", "--out", model]) == 0
    capsys.readouterr()
    assert load_model(str(model)).temperature_ == 0.25


def test_predict_rejects_mismatched_columns(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    other = tmp_path / "other.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "toy", "--n", "120", "--out", data])
    run_cli(["train", "--data", data, "--target", "label",
             "--n-trees", "1", "--out", model])
    write_lines(other, ["a,b", "0.1,0.2"])
    capsys.readouterr()

    assert run_cli(["predict", "--model", model, "--data", other,
                    "--out", tmp_path / "p.csv"]) == 1
    err = capsys.readouterr().err
    assert "lacks feature columns" in err


def test_evaluate_rejects_unseen_label(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    bad = tmp_path / "bad.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "toy", "--n", "120", "--out", data])
    run_cli(["train", "--data", data, "--target", "label",
             "--n-trees", "1", "--out", model])
    write_lines(bad, ["x1,x2,label", "0.1,0.2,7"])
    capsys.readouterr()

    assert run_cli(["evaluate", "--model", model, "--data", bad,
                    "--target", "label", "--metric", "auc"]) == 1
    assert "never seen during training" in capsys.readouterr().err


@pytest.mark.parametrize("lines,message", [
    (["x1,x2,label", "0.1,0.2,1", "0.3,0.4, "], "row 3: missing target value"),
    (["x1,x2,y", "0.1,0.2,1"], "target column 'label' not in header")])
def test_evaluate_reads_the_target_with_the_features(tmp_path, capsys, lines,
                                                     message):
    data = tmp_path / "toy.csv"
    bad = tmp_path / "bad.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "toy", "--n", "120", "--out", data])
    run_cli(["train", "--data", data, "--target", "label",
             "--n-trees", "1", "--out", model])
    write_lines(bad, lines)
    capsys.readouterr()

    assert run_cli(["evaluate", "--model", model, "--data", bad,
                    "--target", "label", "--metric", "auc"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # A target that is one of the model's features is refused, not dropped
    # from the features.
    assert run_cli(["evaluate", "--model", model, "--data", data,
                    "--target", "x1", "--metric", "auc"]) == 1
    assert "'x1' is a feature of the model" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["predict", "--out", "preds.csv"],
    ["evaluate", "--target", "label", "--metric", "auc"]])
def test_predict_and_evaluate_open_the_data_once(tmp_path, monkeypatch,
                                                 command):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "toy", "--n", "120", "--out", data])
    run_cli(["train", "--data", data, "--target", "label",
             "--n-trees", "1", "--out", model])
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.chdir(tmp_path)
    assert run_cli([command[0], "--model", model, "--data", data]
                   + command[1:]) == 0
    assert [f for f in opened if f == str(data)] == [str(data)]


def test_cli_reports_missing_file_as_error(tmp_path, capsys):
    assert run_cli(["train", "--data", tmp_path / "nope.csv",
                    "--target", "y", "--out", tmp_path / "m.agf"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_refuses_a_repeated_column(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    twice = tmp_path / "twice.csv"
    model = tmp_path / "model.agf"
    run_cli(["make-data", "--kind", "toy", "--n", "120", "--out", data])
    run_cli(["train", "--data", data, "--target", "label",
             "--n-trees", "1", "--out", model])
    write_lines(twice, ["x1,x1,x2,label"] + [f"{i},{-i},{i / 2},{i % 2}"
                                             for i in range(40)])
    capsys.readouterr()
    for argv in (["train", "--data", twice, "--target", "label",
                  "--out", tmp_path / "m.agf"],
                 ["predict", "--model", model, "--data", twice,
                  "--out", tmp_path / "p.csv"]):
        assert run_cli(argv) == 1
        assert "names column 'x1' more than once" in capsys.readouterr().err
    assert not (tmp_path / "m.agf").exists()
    assert not (tmp_path / "p.csv").exists()


def test_train_refuses_a_one_row_regression_csv(tmp_path, capsys):
    # The bootstrap's RuntimeError used to end in a traceback.
    data = tmp_path / "one.csv"
    write_lines(data, ["x,y", "0.5,1.5"])
    assert run_cli(["train", "--data", data, "--target", "y",
                    "--task", "regression", "--out", tmp_path / "m.agf"]) == 1
    assert capsys.readouterr().err == (
        "error: fitting needs at least 2 rows, got 1\n")


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["make-data", "--kind", "toy", "--n", "not-a-number"])
    assert exc.value.code == 2


def test_verify_command_passes(capsys):
    assert run_cli(["verify", "--trials", "6", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "aggregation identity" in out
    assert "pruning-competitive bound" in out
    assert "VIOLATED" not in out


@pytest.mark.parametrize("argv,message", [
    (["--trials", "0"], "--trials must be >= 1, got 0"),
    (["--max-leaves", "0"], "--max-leaves must be in [1, 16], got 0"),
    (["--max-leaves", "99"], "--max-leaves must be in [1, 16], got 99")])
def test_verify_refuses_settings_it_cannot_run(capsys, argv, message):
    # --trials 0 used to print "worst violation -inf (ok)" and exit 0; the
    # leaf counts failed inside numpy.
    assert run_cli(["verify", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run_cli(["verify", "--trials", "2", "--max-leaves", "16"]) == 0


@pytest.mark.parametrize("snr", ["0", "-1", "nan"])
def test_make_data_refuses_a_snr_that_is_not_positive(tmp_path, capsys, snr):
    # --snr 0 used to write the clean signal and exit 0, --snr nan targets
    # that were all nan.
    out = tmp_path / "sig.csv"
    assert run_cli(["make-data", "--kind", "doppler", "--n", "64",
                    "--snr", snr, "--out", out]) == 1
    assert f"snr must be positive, got {float(snr)}" in capsys.readouterr().err
    assert not out.exists()


def test_make_data_refuses_an_infinite_snr(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    assert run_cli(["make-data", "--kind", "doppler", "--n", "64",
                    "--snr", "inf", "--out", out]) == 1
    assert capsys.readouterr().err == "error: snr must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["make-data", "--kind", "doppler", "--n", "0"],
    ["bench-signals", "--signals", "doppler", "--n", "0", "--repeats", "1",
     "--trees", "1"]], ids=["make-data", "bench-signals"])
def test_signal_commands_refuse_an_empty_grid(tmp_path, capsys, argv):
    # make-data wrote an empty dataset and exited 0; bench-signals died in
    # numpy with "zero-size array to reduction operation maximum".
    out = tmp_path / "out.csv"
    assert run_cli([*argv, "--out", out]) == 1
    assert capsys.readouterr().err == "error: n must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("fraction,message", [
    ("nan", "--test-fraction must be in (0, 1), got nan"),
    ("0", "--test-fraction must be in (0, 1), got 0.0"),
    ("1", "--test-fraction must be in (0, 1), got 1.0"),
    ("1.5", "--test-fraction must be in (0, 1), got 1.5"),
    ("0.999", "--test-fraction 0.999 leaves no training row of 200")],
    ids=["nan", "0", "1", "1.5", "0.999"])
def test_bench_trees_refuses_a_split_without_both_sides(tmp_path, capsys,
                                                        fraction, message):
    # NaN failed with "cannot convert float NaN to integer", and a fraction
    # that left no training row with "classification needs at least two
    # classes".
    data, out = tmp_path / "toy.csv", tmp_path / "bench.csv"
    run_cli(["make-data", "--kind", "toy", "--n", "200", "--out", data])
    capsys.readouterr()
    assert run_cli(["bench-trees", "--data", data, "--target", "label",
                    "--test-fraction", fraction, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bench_trees_writes_ladder_csv(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    out = tmp_path / "bench.csv"
    run_cli(["make-data", "--kind", "toy", "--n", "200", "--out", data])
    assert run_cli(["bench-trees", "--data", data, "--target", "label",
                    "--max-trees", "2", "--seed", "0", "--out", out]) == 0
    assert "wrote 4 rows" in capsys.readouterr().out

    columns, names, _, _ = load_csv(
        str(out), DatasetSchema(categorical={"aggregation"}))
    assert names == ["n_trees", "aggregation", "auc"]
    assert sorted(columns[0]) == [1.0, 1.0, 2.0, 2.0]
    assert sorted(columns[1]) == ["off", "off", "on", "on"]
    assert np.all((columns[2] >= 0.0) & (columns[2] <= 1.0))


def test_bench_signals_writes_one_row_per_cell(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    assert run_cli(["bench-signals", "--signals", "doppler", "--snr", "1",
                    "--repeats", "1", "--n", "64", "--trees", "2",
                    "--seed", "0", "--out", out]) == 0
    capsys.readouterr()
    columns, names, _, _ = load_csv(
        str(out), DatasetSchema(categorical={"signal", "aggregation"}))
    assert names == ["signal", "snr", "repeat", "aggregation", "mse"]
    assert list(columns[0]) == ["doppler", "doppler"]
    assert sorted(columns[3]) == ["off", "on"]
    assert np.all(columns[4] >= 0.0)
