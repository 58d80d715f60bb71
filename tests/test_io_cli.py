"""Model serialization, CSV handling, and the command-line surface."""

import functools
import hashlib
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        # Stored oob counts are 0 without aggregation, and load anyway.
        assert t.state.oob_loss is None and not t.tree.oob_count.any()
    assert np.array_equal(back.predict_proba(cols), forest.predict_proba(cols))


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
    (hlen,) = struct.unpack_from("<Q", raw, 52)
    meta = json.loads(raw[60:60 + hlen].decode("utf-8"))
    arrays, offset = {}, 60 + hlen
    for key, dtype, shape in meta["arrays"]:
        if dtype is None:
            arrays[key] = None
            continue
        arr = np.frombuffer(raw, dtype=dtype, count=int(np.prod(shape)),
                            offset=offset)
        arrays[key] = arr.reshape(shape).copy()
        offset += arr.nbytes
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


def set_tree_field(key, value):
    def edit(meta, arrays):
        meta["trees"][0][key] = value
    return edit


def set_entry(name, index, value):
    def edit(meta, arrays):
        arrays[name][index] = value
    return edit


def narrow_masks(meta, arrays):
    arrays["t0.masks"] = arrays["t0.masks"][:, :1].copy()


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


@pytest.mark.parametrize("name,index,value,message", [
    ("left_child", 0, 10**6, "outside"),     # IndexError at predict before
    ("left_child", 0, 0, "outside"),         # routing looped forever before
    ("parent", 2, 1, "disagree"),
    ("feature", 0, 7, "feature index"),
])
def test_malformed_tree_links_are_rejected(tmp_path, name, index, value,
                                           message):
    path, _ = saved_model_bytes(tmp_path)
    assert load_model(str(path)).trees[0].tree.n_nodes >= 3

    rewrite_model(path, set_entry(f"t0.{name}", index, value))
    with pytest.raises(ModelFormatError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("categorical,edit,message", [
    (False, drop_header_key("y_min"), "lacks the key 'y_min'"),
    (False, set_tree_field("state_temperature", -1.0), "temperature"),
    (False, set_tree_field("state_temperature", float("nan")), "temperature"),
    (False, set_entry("t0.log_agg_weight", 0, np.nan), "log_agg_weight"),
    (False, set_entry("t0.log_agg_weight", 0, -1e300), "log_agg_weight"),
    (False, set_entry("t0.log_agg_weight", 0, 1.0), "log_agg_weight"),
    (False, set_entry("t0.oob_loss", 1, -np.inf), "oob_loss"),
    (False, set_entry("t0.forecasts", (0, 0), -0.5), "forecasts"),
    (False, set_entry("t0.feature_n_bins", 0, 3), "feature_n_bins"),
    (False, set_entry("t0.feature_missing_bin", 0, 99), "feature_missing_bin"),
    (True, narrow_masks, "narrower"),
    (False, set_entry("t0.itb_count", 1, 0), "itb_count"),
    (False, set_entry("t0.oob_count", 1, 0), "oob_count"),
    (False, prepend_thresholds, "119 thresholds for 60 plain bins"),
    (False, set_entry("f0.thresholds", 0, 1e9), "strictly increasing"),
    (False, set_entry("f0.thresholds", 1, np.nan), "not finite"),
    (False, set_feature_field("overflow_bin", 0), "overflow_bin"),
    (False, lambda meta, arrays: meta.update(max_bins=2), "max_bins 2"),
    (True, set_category_bin("a", 200), "category bin outside"),
    (True, set_feature_field("overflow_bin", 0), "overflow_bin"),
], ids=["no-y_min", "negative-temperature", "nan-temperature",
        "nan-log-weight", "tiny-log-weight", "positive-log-weight",
        "negative-oob-loss", "negative-forecast",
        "n_bins-differ", "missing-bin-out-of-range", "narrow-masks",
        "no-itb-rows", "no-oob-rows", "prepended-thresholds",
        "unsorted-thresholds", "nan-threshold", "continuous-overflow-bin",
        "n_bins-over-max_bins", "category-bin-out-of-range",
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
         "u": [0, 1, 2, 255], "b": [False, True]}


@given(st.data())
def test_mutated_model_is_refused_or_predicts_finite(tmp_path_factory, data):
    task = data.draw(st.sampled_from(["classification", "regression"]))
    raw, cols = saved_mixed_forest(task)
    path = tmp_path_factory.mktemp("mutated") / "m.agf"
    path.write_bytes(raw)

    def edit(meta, arrays):
        key = data.draw(st.sampled_from(sorted(
            k for k, a in arrays.items() if a is not None and a.size)))
        arr = arrays[key].reshape(-1)
        arr[data.draw(st.integers(0, arr.size - 1))] = data.draw(
            st.sampled_from(NASTY[arr.dtype.kind]))

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


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b"], [["1", "x,with comma"], ["2", "plain"]])
    columns, names, kinds, _ = load_csv(
        str(path), DatasetSchema(categorical={"b"}))
    assert names == ["a", "b"]
    assert list(columns[1]) == ["x,with comma", "plain"]
    # atomic write leaves no temp files behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


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


def test_cli_reports_missing_file_as_error(tmp_path, capsys):
    assert run_cli(["train", "--data", tmp_path / "nope.csv",
                    "--target", "y", "--out", tmp_path / "m.agf"]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
