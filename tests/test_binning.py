"""Bin layout fitting and the raw-to-bin transform."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggforest import binning
from aggforest.binning import (
    FeatureKind,
    _is_missing_category,
    fit_bins,
    transform,
)
from aggforest.forest import TrainConfig, fit


def test_median_threshold_frozen():
    mapper = fit_bins([np.array([1.0, 2.0, 3.0, 4.0])], ["continuous"],
                      max_bins=2)
    fb = mapper.features[0]
    np.testing.assert_array_equal(fb.thresholds, [2.5])
    assert fb.n_bins == 2 and not fb.has_missing
    # A raw value equal to a threshold lands in the bin to its right.
    binned = transform([np.array([1.0, 2.0, 2.5, 3.0, 4.0])], mapper)
    np.testing.assert_array_equal(binned.entries[:, 0], [0, 0, 1, 1, 1])


def test_distinct_small_values_get_distinct_bins():
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = rng.choice(np.arange(8, dtype=float), size=60)
        mapper = fit_bins([values], ["continuous"], max_bins=256)
        bins = transform([values], mapper).entries[:, 0]
        for a in np.unique(values):
            sel = values == a
            assert len(np.unique(bins[sel])) == 1
            for b in np.unique(values):
                if a < b:
                    assert bins[sel].max() < bins[values == b].min()


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2,
                max_size=200),
       st.integers(2, 32))
def test_binning_monotone_and_bounded(values, max_bins):
    col = np.asarray(values, dtype=np.float64)
    mapper = fit_bins([col], ["continuous"], max_bins)
    fb = mapper.features[0]
    assert 1 <= fb.n_bins <= max_bins
    bins = transform([col], mapper).entries[:, 0].astype(np.int64)
    assert bins.min() >= 0 and bins.max() < fb.n_plain_bins
    order = np.argsort(col, kind="stable")
    assert (np.diff(bins[order]) >= 0).all()


def test_nan_goes_to_reserved_missing_bin():
    col = np.array([0.0, 1.0, np.nan, 2.0, 3.0, np.nan])
    mapper = fit_bins([col], ["continuous"], max_bins=4)
    fb = mapper.features[0]
    assert fb.has_missing
    assert fb.missing_bin == fb.n_bins - 1
    assert fb.n_plain_bins <= 3       # the missing bin eats one budget slot
    binned = transform([col], mapper)
    got = binned.entries[:, 0]
    assert got[2] == fb.missing_bin and got[5] == fb.missing_bin
    assert (got[[0, 1, 3, 4]] < fb.missing_bin).all()
    assert binned.missing_bin[0] == fb.missing_bin


def test_missing_only_at_transform_time_errors():
    mapper = fit_bins([np.array([1.0, 2.0, 3.0])], ["continuous"], 8)
    with pytest.raises(ValueError, match="missing value seen at transform"):
        transform([np.array([1.0, np.nan])], mapper)


def test_categorical_frequency_ranked_bins_and_overflow():
    col = np.array(["a", "a", "a", "b", "b", "c", "d"], dtype=object)
    mapper = fit_bins([col], ["categorical"], max_bins=3)
    fb = mapper.features[0]
    assert fb.kind is FeatureKind.CATEGORICAL
    assert fb.n_bins == 3 and fb.overflow_bin == 2
    assert fb.categories["a"] == 0 and fb.categories["b"] == 1
    assert fb.categories["c"] == 2 and fb.categories["d"] == 2
    # Unseen modalities fall into the overflow bin when there is one.
    binned = transform([np.array(["d", "z", "a"], dtype=object)], mapper)
    np.testing.assert_array_equal(binned.entries[:, 0], [2, 2, 0])


def test_categorical_unseen_goes_to_missing_bin_when_present():
    col = np.array(["a", "b", None, "a"], dtype=object)
    mapper = fit_bins([col], ["categorical"], max_bins=8)
    fb = mapper.features[0]
    assert fb.has_missing and fb.n_bins == 3
    binned = transform([np.array(["b", "new", None], dtype=object)], mapper)
    np.testing.assert_array_equal(binned.entries[:, 0],
                                  [1, fb.missing_bin, fb.missing_bin])


def test_categorical_unseen_without_fallback_errors():
    mapper = fit_bins([np.array(["a", "b"], dtype=object)], ["categorical"], 8)
    with pytest.raises(ValueError, match="unseen category"):
        transform([np.array(["c"], dtype=object)], mapper)


def test_categorical_numeric_modalities():
    col = np.array([3, 3, 7, 7, 7, 11])
    mapper = fit_bins([col], ["categorical"], max_bins=16)
    fb = mapper.features[0]
    assert fb.categories == {7: 0, 3: 1, 11: 2}
    binned = transform([np.array([11, 3, 7])], mapper)
    np.testing.assert_array_equal(binned.entries[:, 0], [2, 1, 0])


@pytest.mark.parametrize("col,plain,nan_bin", [
    (np.array([1.0, 2.0, np.float32("nan"), 1.0], dtype=object),
     {1.0: 0, 2.0: 1}, 2),
    (np.array([np.float32("nan"), 3, 1, np.float32("nan"), 3, 3], dtype=object),
     {3: 0, 1: 2}, 1),
    (np.array([1.0, 2.0, np.nan, 1.0], dtype=np.float32), {1.0: 0, 2.0: 1}, 2),
])
def test_nan_modality_gets_exactly_one_bin(col, plain, nan_bin):
    # A float32 NaN is a modality, not a missing marker: all of a column's
    # NaN modalities share one bin, and no bin is left empty.
    fb = fit_bins([col], ["categorical"], max_bins=8).features[0]
    assert not fb.has_missing and fb.n_bins == len(plain) + 1
    assert {k: b for k, b in fb.categories.items() if k == k} == plain
    assert [b for k, b in fb.categories.items() if k != k] == [nan_bin]


def test_nan_modality_is_found_at_transform():
    # fit transforms its own training column, which used to raise "unseen
    # category" here: a float32 NaN never matched the NaN key of the dict.
    col = np.array([1.0, 2.0, np.float32("nan"), 1.0] * 10, dtype=object)
    forest = fit([col], np.arange(40) % 2, ["categorical"],
                 TrainConfig(n_trees=2, seed=0))
    fb = forest.mapper.features[0]
    nan_bin = [b for k, b in fb.categories.items() if k != k]
    assert nan_bin == [2] and fb.n_bins == 3
    np.testing.assert_array_equal(
        transform([col[:4]], forest.mapper).entries[:, 0], [0, 1, 2, 0])


def test_categorical_mixed_types_error():
    with pytest.raises(ValueError, match="mutually comparable"):
        fit_bins([np.array([1, "a"], dtype=object)], ["categorical"], 8)


def test_empty_string_counts_as_missing_category():
    col = np.array(["x", "", "y"], dtype=object)
    mapper = fit_bins([col], ["categorical"], max_bins=8)
    assert mapper.features[0].has_missing


def test_input_validation():
    with pytest.raises(ValueError, match="max_bins"):
        fit_bins([np.array([1.0])], ["continuous"], max_bins=1)
    with pytest.raises(ValueError, match="kinds"):
        fit_bins([np.array([1.0]), np.array([2.0])], ["continuous"], 8)
    with pytest.raises(ValueError, match="every value is missing"):
        fit_bins([np.array([np.nan, np.nan])], ["continuous"], 8)
    with pytest.raises(ValueError):
        fit_bins([], ["continuous"], 8)
    mapper = fit_bins([np.array([1.0, 2.0])], ["continuous"], 8)
    with pytest.raises(ValueError, match="features"):
        transform([np.array([1.0]), np.array([1.0])], mapper)


def test_two_dim_array_and_column_list_agree():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    kinds = ["continuous"] * 3
    a = transform(X, fit_bins(X, kinds, 8)).entries
    cols = [X[:, j] for j in range(3)]
    b = transform(cols, fit_bins(cols, kinds, 8)).entries
    np.testing.assert_array_equal(a, b)


def test_entry_dtype_tracks_bin_budget():
    rng = np.random.default_rng(1)
    col = rng.normal(size=50)
    assert transform([col], fit_bins([col], ["continuous"], 256)).entries.dtype == np.uint8
    assert transform([col], fit_bins([col], ["continuous"], 300)).entries.dtype == np.uint16


def continuous_fit_columns(n=1000):
    """Continuous training columns of several shapes: one with missing
    values, one constant with missing values (no thresholds at a budget of
    2), one of ints, one of float32 with infinities, and a categorical
    column between them."""
    rng = np.random.default_rng(5)
    gauss = rng.normal(size=n)
    gauss[::11] = np.nan
    constant = np.full(n, 3.0)
    constant[::19] = np.nan
    wide = rng.standard_cauchy(size=n).astype(np.float32)
    wide[::13], wide[::17] = np.inf, -np.inf
    color = rng.choice(np.array(list("abc"), dtype=object), size=n)
    cols = [gauss, constant, color, rng.integers(-5, 60, size=n), wide]
    return cols, ["continuous", "continuous", "categorical", "continuous",
                  "continuous"]


def probe_columns(mapper, cols, rng):
    """For each column of the mapper, values of the column's dtype around
    every threshold: for floats the threshold and its neighbours, signed
    zeros, infinities, subnormals and the extremes, and NaN where the
    feature has a missing bin; for ints the integers on either side.
    Categorical columns are resampled."""
    n = max(3 * (fb.n_bins + 4) for fb in mapper.features)
    out = []
    for fb, col in zip(mapper.features, cols):
        if fb.kind is FeatureKind.CATEGORICAL:
            out.append(rng.choice(col, size=n))
            continue
        if col.dtype.kind == "i":
            t, info = fb.thresholds, np.iinfo(col.dtype)
            v = np.concatenate([np.floor(t), np.ceil(t), np.floor(t) - 1,
                                np.ceil(t) + 1]).astype(col.dtype)
            v = np.append(v, [info.min, info.max, 0])
        else:
            t, info = fb.thresholds.astype(col.dtype), np.finfo(col.dtype)
            edge = np.array([0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
                             -info.smallest_subnormal, info.max, -info.max],
                            dtype=col.dtype)
            v = np.concatenate([t, np.nextafter(t, t.dtype.type(np.inf)),
                                np.nextafter(t, t.dtype.type(-np.inf)), edge])
        v = np.resize(rng.permutation(v), n)
        if fb.has_missing:
            v[rng.random(n) < 0.1] = np.nan
        out.append(v)
    return out


def searchsorted_codes(mapper, cols):
    """The codes of the continuous columns, by one ``np.searchsorted`` per
    column, NaN to the missing bin."""
    out = []
    for fb, col in zip(mapper.features, cols):
        if fb.kind is FeatureKind.CONTINUOUS:
            v = np.asarray(col, dtype=np.float64)
            codes = np.searchsorted(fb.thresholds, v, side="right")
            out.append(np.where(np.isnan(v), fb.missing_bin, codes))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("max_bins", [2, 3, 256, 300])
@pytest.mark.parametrize("block,count", [
    (1 << 16, 1 << 14),       # the defaults
    (7, 0),                   # search only, blocks of one row
    (23, 1 << 30),            # compare every pair, blocks of 5 rows
    (1 << 16, 0),             # search only, one block
])
def test_continuous_codes_match_searchsorted(monkeypatch, max_bins, block,
                                             count):
    monkeypatch.setattr(binning, "_BLOCK_VALUES", block)
    monkeypatch.setattr(binning, "_COUNT_CELLS", count)
    fit_cols, kinds = continuous_fit_columns()
    mapper = fit_bins(fit_cols, kinds, max_bins)
    if max_bins == 2:
        assert mapper.features[1].thresholds.size == 0
    if max_bins == 300:
        assert mapper.features[0].n_bins > 256
    cols = probe_columns(mapper, fit_cols, np.random.default_rng(max_bins))
    want = searchsorted_codes(mapper, cols)
    cont = np.array([fb.kind is FeatureKind.CONTINUOUS
                     for fb in mapper.features])
    got = transform(cols, mapper).entries
    assert got.dtype == (np.uint8 if max_bins <= 256 else np.uint16)
    np.testing.assert_array_equal(got[:, cont], want)
    # A 2-d array of the continuous columns gives the same codes.
    sub = fit_bins([fit_cols[j] for j in np.flatnonzero(cont)],
                   ["continuous"] * int(cont.sum()), max_bins)
    X = np.stack([cols[j] for j in np.flatnonzero(cont)], axis=1)
    np.testing.assert_array_equal(transform(X, sub).entries, want)
    # Each single-row call gives its row of the batch call.
    for i in range(0, got.shape[0], 37):
        one = transform([c[i:i + 1] for c in cols], mapper).entries
        np.testing.assert_array_equal(one[0], got[i])


@pytest.mark.parametrize("block,count", [(1 << 16, 1 << 14), (3, 0),
                                         (3, 1 << 30)])
def test_missing_value_refused_in_any_block(monkeypatch, block, count):
    monkeypatch.setattr(binning, "_BLOCK_VALUES", block)
    monkeypatch.setattr(binning, "_COUNT_CELLS", count)
    rng = np.random.default_rng(2)
    fit_cols = [rng.normal(size=200), rng.normal(size=200)]
    fit_cols[0][::7] = np.nan
    mapper = fit_bins(fit_cols, ["continuous"] * 2, 256)
    cols = [rng.normal(size=40), rng.normal(size=40)]
    cols[0][-1] = np.nan           # feature 0 has a missing bin
    assert transform(cols, mapper).entries[-1, 0] == mapper.features[0].missing_bin
    cols[1][-1] = np.nan           # feature 1 has none, in the last block
    with pytest.raises(ValueError,
                       match="feature 1: missing value seen at transform"):
        transform(cols, mapper)


def per_value_bins(col, fb, j=0):
    """The categorical transform's rule, applied one value at a time."""
    out = []
    for raw in col:
        if _is_missing_category(raw):
            if not fb.has_missing:
                raise ValueError(
                    f"feature {j}: missing value seen at transform time but "
                    "none were present when bins were fit")
            out.append(fb.missing_bin)
            continue
        key = raw.item() if isinstance(raw, np.generic) else raw
        bin_ = fb.categories.get(key, -1)
        if bin_ < 0 and raw != raw:
            # A NaN that is no missing marker is the NaN modality, if any.
            bin_ = next((b for k, b in fb.categories.items() if k != k), -1)
        if bin_ < 0:
            if fb.has_missing:
                bin_ = fb.missing_bin
            elif fb.overflow_bin >= 0:
                bin_ = fb.overflow_bin
            else:
                raise ValueError(
                    f"feature {j}: unseen category {raw!r} and the feature "
                    "has neither a missing bin nor an overflow bin")
        out.append(bin_)
    return out


MIXED = np.array(["b", None, "", float("nan"), np.str_("a"), 3, np.int64(3),
                  "zz", np.float64("nan"), np.float32("nan"), "c", True, 2.5],
                 dtype=object)
NO_MARKERS = np.array([np.str_("d"), "zz", 3, np.int64(7), True,
                       np.float32("nan"), "a"], dtype=object)


@pytest.mark.parametrize("fit_col,max_bins,cols", [
    # A missing bin: missing and unseen values both land there.
    (["a", "b", "a", None, "c", np.float64("nan")], 8,
     [MIXED, NO_MARKERS, np.array(["c", "", "q"])]),
    # An overflow bin and no missing bin.
    (["a", "a", "b", np.str_("c"), "d"], 3,
     [MIXED, MIXED[::-1], NO_MARKERS, np.array(["d", "a", "q"])]),
    # Neither: the first missing or unseen value raises.
    (["a", "b", "c", "d"], 8,
     [MIXED, MIXED[::-1], NO_MARKERS, np.array(["b", "", "q"]),
      np.array(["c", "a"], dtype=object)]),
    # A missing bin and an overflow bin: unseen values take the missing bin.
    (["a", "a", "b", "c", "d", None], 3, [MIXED, NO_MARKERS]),
    # A float32 NaN is a modality, not a missing marker.
    ([1.0, 2.0, np.float32("nan")], 8,
     [np.array([2.0, 1.0]), np.array([2.0, np.nan]),
      np.array([np.float32("nan"), 2.0, np.float32("nan")], dtype=object),
      np.array([2.0, np.nan], dtype=np.float32)]),
    # The NaN modality next to a missing bin: only missing markers take it.
    ([1.0, np.float32("nan"), None, 1.0], 8,
     [np.array([np.float32("nan"), None, np.nan, 1.0, 7.0], dtype=object)]),
    # Float modalities, with NaN as the missing marker.
    ([1.0, 2.0, np.nan, 1.0], 8,
     [np.array([2.0, np.nan, 5.0]), np.array([2.0, np.nan], dtype=np.float32),
      np.array([1, 2, None, "", np.nan], dtype=object)]),
])
def test_categorical_codes_match_the_per_value_rule(fit_col, max_bins, cols):
    raw = np.array(fit_col, dtype=object)
    fb = fit_bins([raw], ["categorical"], max_bins).features[0]
    assert fb.has_missing == any(_is_missing_category(v) for v in raw)
    mapper = fit_bins([raw], ["categorical"], max_bins)
    for col in cols:
        try:
            want = per_value_bins(col, fb)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                transform([col], mapper)
            continue
        np.testing.assert_array_equal(transform([col], mapper).entries[:, 0],
                                      want)
