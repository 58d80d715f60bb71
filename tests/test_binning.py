"""Bin layout fitting and the raw-to-bin transform."""

import re
import time

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
from aggforest.model_io import load_model, save_model


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
    with pytest.raises(ValueError, match="feature 0: .* mutually comparable"):
        fit_bins([np.array(["a", None, 2.5, "b"] * 10, dtype=object)],
                 ["categorical"], 8)


def test_equal_categories_keep_the_first_seen():
    # 1, 1.0 and True are one category; the first in row order stands for
    # it, whatever the order the others come in.
    rng = np.random.default_rng(0)
    rest = [True] * 40 + [1] * 40 + [2] * 30 + [2.0] * 30 + [False] * 10
    col = np.array([1.0] + [rest[i] for i in rng.permutation(len(rest))],
                   dtype=object)
    fb = fit_bins([col], ["categorical"], 8).features[0]
    first_two = next(v for v in col if v == 2)
    assert fb.categories == {1: 0, 2: 1, 0: 2}
    assert [type(k) for k in fb.categories] == [float, type(first_two), bool]
    assert list(fb.categories)[1] is first_two


@pytest.mark.parametrize("col", [
    np.array(["b", "a", "c", "a", "b", "b", np.str_("c"), None] * 9,
             dtype=object),
    np.arange(60) % 7,
    np.array([0.5, -0.0, 0.0, 2.5, np.nan, 0.5] * 9, dtype=np.float32),
    np.array([3, np.int64(3), 1, np.float32("nan"), 2, 2, 1] * 9,
             dtype=object),
])
def test_categorical_layout_matches_a_sort_of_every_value(col):
    # np.unique sorts every value; the dict count sorts the distinct ones.
    fb = fit_bins([col], ["categorical"], 4).features[0]
    present = col[[not _is_missing_category(v) for v in col]]
    nan = present != present
    uniques, counts = np.unique(present[~nan], return_counts=True)
    if nan.any():
        uniques = np.append(uniques, present[nan][:1])
        counts = np.append(counts, np.count_nonzero(nan))
    ranked = [v.item() if isinstance(v, np.generic) else v
              for v in uniques[np.argsort(-counts, kind="stable")]]
    assert list(fb.categories.values()) == [min(b, 3 - fb.has_missing)
                                            for b in range(len(ranked))]
    for key, want in zip(fb.categories, ranked):
        assert type(key) is type(want)
        assert key == want or key != key and want != want


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


def test_max_bins_beyond_uint16_codes_is_refused():
    # Codes are stored as uint16 above 256 bins: with 70000 bins, code
    # 69999 used to wrap to 4463.
    col = np.arange(70000.0)
    with pytest.raises(ValueError, match="max_bins"):
        fit_bins([col], ["continuous"], 70000)
    with pytest.raises(ValueError, match="max_bins"):
        TrainConfig(max_bins=binning.MAX_BINS + 1)
    mapper = fit_bins([col], ["continuous"], binning.MAX_BINS)
    codes = transform([col], mapper).entries[:, 0].astype(np.int64)
    np.testing.assert_array_equal(
        codes, np.searchsorted(mapper.features[0].thresholds, col, "right"))
    assert codes[-1] == binning.MAX_BINS - 1
    mapper.max_bins = 70000
    with pytest.raises(ValueError, match="max_bins"):
        mapper.validate()


def test_complex_continuous_values_are_refused():
    # Casting to float64 used to warn and drop the imaginary part.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = np.arange(30) % 2
    with pytest.raises(ValueError, match="feature 0: continuous values "
                                         "must be real, got complex128"):
        fit([X[:, 0] + 1j, X[:, 1]], y, ["continuous"] * 2,
            TrainConfig(n_trees=2, seed=0))
    with pytest.raises(ValueError, match="feature 1: .* must be real"):
        fit_bins([X[:, 0], X[:, 1].astype(np.complex64)],
                 ["continuous"] * 2, 8)
    forest = fit([X[:, 0], X[:, 1]], y, ["continuous"] * 2,
                 TrainConfig(n_trees=2, seed=0))
    for block in ([np.array([1 + 1j]), np.array([0.5])],
                  [np.full(5000, 0.5), np.full(5000, 1 + 0j)]):
        with pytest.raises(ValueError, match="must be real"):
            forest.predict_proba(block)


def test_non_numeric_continuous_values_are_refused_naming_the_feature():
    # A string used to escape as numpy's bare "could not convert string to
    # float", which names no feature.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    y = np.arange(30) % 2
    config = TrainConfig(n_trees=2, seed=0)
    held = X[:, 1].astype(object)
    held[3] = "x"
    with pytest.raises(ValueError, match="feature 1: continuous values must "
                                         "be real, got object"):
        fit([X[:, 0], held], y, ["continuous"] * 2, config)
    with pytest.raises(ValueError, match="feature 0: .* must be real"):
        fit([np.where(np.arange(30) == 7, "x", X[:, 0].astype(str)), X[:, 1]],
            y, ["continuous"] * 2, config)
    forest = fit([X[:, 0], X[:, 1]], y, ["continuous"] * 2, config)
    for block in ([np.array([0.5]), np.array(["x"])],
                  [np.full(3000, 0.5), np.array(["x"] * 3000, dtype=object)]):
        with pytest.raises(ValueError, match="feature 1: continuous values "
                                             "must be real"):
            forest.predict_proba(block)
    # Numbers held as objects, and numeric strings, are still read.
    want = forest.predict_proba([X[:, 0], X[:, 1]])
    assert np.array_equal(
        forest.predict_proba([X[:, 0].astype(object), X[:, 1].astype(str)]),
        want)


def test_every_continuous_bin_holds_a_training_value():
    # np.quantile's midpoint rule puts thresholds both on values and between
    # them: 10 distinct integers, 100 of each, used to get 14 bins, and 20
    # distinct normal values at max_bins=81 got 38, about half of them empty.
    rng = np.random.default_rng(61)
    ints = rng.permutation(np.repeat(np.arange(10.0), 100))
    normal = np.repeat(rng.normal(size=20), 5)
    gappy = ints.copy()
    gappy[::9] = np.nan
    for col, max_bins, n_bins in ((ints, 256, 10), (ints, 4, 4),
                                  (normal, 81, 20), (gappy, 256, 11),
                                  (np.zeros(50), 256, 1),
                                  # The median, 0, separates no value.
                                  (np.r_[np.zeros(99), 1.0], 2, 1)):
        mapper = fit_bins([col], ["continuous"], max_bins)
        fb = mapper.features[0]
        assert fb.n_bins == n_bins
        codes = transform([col], mapper).entries[:, 0]
        assert (np.bincount(codes, minlength=fb.n_bins) > 0).all()


def test_binned_matrices_share_the_tables_read_only_kinds():
    """A feature's kind is held once, in the mapper's ``BinTable``: every
    matrix the mapper transforms carries that table's read-only arrays."""
    rng = np.random.default_rng(29)
    X = [rng.choice(np.array(["a", "b", None], dtype=object), size=40),
         rng.normal(size=40),
         rng.choice(np.array([3, 1, 4]), size=40)]
    mapper = fit_bins(X, ["categorical", "continuous", "categorical"], 8)
    table = mapper.table
    assert table.is_categorical.dtype == bool
    assert table.is_categorical.tolist() == [True, False, True]
    assert table.continuous.tolist() == [1] and table.categorical == [0, 2]
    for rows in (slice(None), slice(5, 6), slice(0, 0)):
        binned = transform([c[rows] for c in X], mapper)
        for name in ("n_bins", "is_categorical", "missing_bin"):
            shared = getattr(binned, name)
            assert shared is getattr(table, name)
            assert not shared.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.is_categorical[1] = True


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
    2), one of ints, one of float32 with infinities, a categorical column
    between them, and three that load the search grid unevenly: a
    lognormal one, a heavily tied one, and one whose thresholds all fall
    into one grid cell but its two extremes, the largest finite floats,
    whose span overflows."""
    rng = np.random.default_rng(5)
    gauss = rng.normal(size=n)
    gauss[::11] = np.nan
    constant = np.full(n, 3.0)
    constant[::19] = np.nan
    wide = rng.standard_cauchy(size=n).astype(np.float32)
    wide[::13], wide[::17] = np.inf, -np.inf
    color = rng.choice(np.array(list("abc"), dtype=object), size=n)
    tied = np.round(rng.exponential(size=n), 1)
    extremes = rng.normal(size=n)
    extremes[rng.random(n) < 0.2] = np.finfo(np.float64).max
    extremes[rng.random(n) < 0.2] = -np.finfo(np.float64).max
    cols = [gauss, constant, color, rng.integers(-5, 60, size=n), wide,
            rng.lognormal(0.0, 3.0, size=n), tied, extremes]
    return cols, ["continuous", "continuous", "categorical", "continuous",
                  "continuous", "continuous", "continuous", "continuous"]


def cell_counts(mapper):
    """Thresholds per grid cell, one row per continuous feature."""
    grid = mapper.table.grid
    below = grid.start - (np.arange(grid.start.shape[0])
                          * grid.thresholds.shape[1])[:, None]
    count = np.count_nonzero(~np.isnan(mapper.table.thresholds), axis=1)
    return np.diff(below, axis=1, append=count[:, None])


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
            with np.errstate(over="ignore"):    # past the largest float
                v = np.concatenate([t, np.nextafter(t, t.dtype.type(np.inf)),
                                    np.nextafter(t, t.dtype.type(-np.inf)),
                                    edge])
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


def check_codes_match_searchsorted(monkeypatch, max_bins, block, count):
    monkeypatch.setattr(binning, "_BLOCK_VALUES", block)
    monkeypatch.setattr(binning, "_COUNT_CELLS", count)
    fit_cols, kinds = continuous_fit_columns()
    mapper = fit_bins(fit_cols, kinds, max_bins)
    if max_bins == 2:
        assert mapper.features[1].thresholds.size == 0
    if max_bins == 300:
        assert mapper.features[0].n_bins > 256
    if max_bins >= 256 and binning._GRID_CELLS > 1:
        # The last column's thresholds share a cell, but for its extremes.
        thresholds = mapper.features[-1].thresholds
        n = np.count_nonzero(np.abs(thresholds) < 1e300)
        assert cell_counts(mapper)[-1].max() == n >= thresholds.size - 4
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


@pytest.mark.parametrize("max_bins", [2, 3, 256, 300])
@pytest.mark.parametrize("block,count", [
    (1 << 16, 1 << 14),       # the defaults
    (7, 0),                   # search only, blocks of one row
    (23, 1 << 30),            # compare every pair, blocks of 5 rows
    (1 << 16, 0),             # search only, one block
])
def test_continuous_codes_match_searchsorted(monkeypatch, max_bins, block,
                                             count):
    check_codes_match_searchsorted(monkeypatch, max_bins, block, count)


@pytest.mark.parametrize("max_bins", [2, 3, 256, 300])
@pytest.mark.parametrize("block,count", [(1 << 16, 1 << 14), (7, 0)])
def test_one_cell_grid_codes_match_searchsorted(monkeypatch, max_bins, block,
                                                count):
    # A grid of one cell searches every row in full.
    monkeypatch.setattr(binning, "_GRID_CELLS", 1)
    check_codes_match_searchsorted(monkeypatch, max_bins, block, count)


def test_grid_size_is_capped_at_the_largest_budget():
    # 19999 thresholds (W = 32768) take 4096 cells of 4 bytes, 16 KB, not
    # 4 W of them.
    rng = np.random.default_rng(7)
    fit_cols = [rng.normal(size=20_000), rng.lognormal(0.0, 2.0, 20_000)]
    mapper = fit_bins(fit_cols, ["continuous"] * 2, binning.MAX_BINS)
    assert all(fb.n_bins == 20_000 for fb in mapper.features)
    cols = probe_columns(mapper, fit_cols, rng)
    np.testing.assert_array_equal(transform(cols, mapper).entries,
                                  searchsorted_codes(mapper, cols))
    start = mapper.table.grid.start
    assert start.shape == (2, binning._GRID_CELLS) == (2, 4096)
    assert start.nbytes == 2 * 16 * 1024


@pytest.mark.parametrize("max_bins", [2, 3, 256, 300, binning.MAX_BINS])
def test_thresholds_equal_quantiles_of_the_unsorted_column(max_bins):
    # The thresholds come from a sorted copy; they must be bitwise those
    # of np.quantile on the column as given, less each that puts no more
    # values below it than the one before (an empty bin's).
    rng = np.random.default_rng(max_bins)
    with_inf = rng.standard_cauchy(size=3000)
    with_inf[::7], with_inf[::11] = np.inf, -np.inf
    for col in (rng.normal(size=3000), rng.integers(-40, 900, size=3000),
                rng.lognormal(size=3000).astype(np.float32), with_inf):
        present = col.astype(np.float64)
        finite = present[np.isfinite(present)]
        present = np.clip(present, finite.min(), finite.max())
        q = np.arange(1, max_bins) / max_bins
        want = np.unique(np.quantile(present, q, method="midpoint"))
        below = np.searchsorted(np.sort(present), want)
        want = want[np.diff(below, prepend=0) > 0]
        got = binning._fit_continuous(col, 0, max_bins).thresholds
        assert got.tobytes() == want.tobytes()


BIG = np.finfo(np.float64).max
EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, BIG, -BIG, BIG / 2, -0.75 * BIG,
         np.inf, -np.inf]


@given(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGES)),
                min_size=1, max_size=300),
       st.integers(2, 400))
def test_midpoints_are_np_quantile_bit_for_bit(values, slots):
    """The thresholds read from the sorted copy are np.quantile's midpoints
    where those are finite, and a / 2 + b / 2 where b - (b - a) / 2
    overflows: ties, clipped infinities, signed zeros and values near the
    float limits included."""
    col = np.asarray(values, dtype=np.float64)
    finite = col[np.isfinite(col)]
    if finite.size < col.size:
        col = np.clip(col, *((finite.min(), finite.max()) if finite.size
                             else (0.0, 0.0)))
    ordered = np.sort(col)
    q = np.arange(1, slots) / slots
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.quantile(ordered, q, method="midpoint")
    over = ~np.isfinite(want)
    k = (ordered.size - 1) * q[over]
    want[over] = (ordered[np.floor(k).astype(np.intp)] * 0.5
                  + ordered[np.ceil(k).astype(np.intp)] * 0.5)
    got = binning._midpoints(ordered, q)
    assert got.tobytes() == want.tobytes()
    # Fitting keeps each threshold that puts more values below it than the
    # one before (see test_every_continuous_bin_holds_a_training_value).
    want = np.unique(want)
    want = want[np.diff(np.searchsorted(ordered, want), prepend=0) > 0]
    fitted = binning._fit_continuous(np.asarray(values), 0, slots).thresholds
    assert fitted.tobytes() == want.tobytes()


def test_fit_at_the_largest_bin_budget_is_fast():
    # np.quantile partitioned the column for each of 65,535 quantiles:
    # 13.5 s for this fit on a 2-vCPU machine, where it now takes 0.25 s.
    rng = np.random.default_rng(0)
    cols = list(rng.normal(size=(2, 100_000)))
    y = (cols[0] + cols[1] > 0).astype(np.int64)
    start = time.perf_counter()
    forest = fit(cols, y, ["continuous"] * 2,
                 TrainConfig(n_trees=2, max_bins=binning.MAX_BINS, seed=0))
    assert time.perf_counter() - start < 2.0
    assert all(fb.n_bins == binning.MAX_BINS for fb in forest.mapper.features)


def test_overflowing_midpoint_gets_a_finite_threshold(tmp_path):
    # np.quantile's midpoint of -max and max overflows to -inf, which a
    # saved model could not load.
    big = np.finfo(np.float64).max
    col = np.array([-big, big] * 10)
    y = np.arange(20) % 2
    forest = fit([col], y, ["continuous"], TrainConfig(max_bins=2, seed=0))
    (threshold,) = forest.mapper.features[0].thresholds
    assert -big < threshold < big
    path = str(tmp_path / "m.agf")
    save_model(forest, path)
    loaded = load_model(path)
    probe = [np.array([-big, -1.0, 0.0, 1.0, big, np.inf, -np.inf])]
    assert np.array_equal(loaded.predict_proba(probe),
                          forest.predict_proba(probe))
    assert np.array_equal(loaded.predict_proba([col]),
                          forest.predict_proba([col]))
    # Only the overflowing midpoint changes; the others are np.quantile's.
    col = np.concatenate([np.linspace(-big, -big / 2, 5),
                          np.linspace(big / 2, big, 5)])
    got = binning._fit_continuous(col, 0, 3).thresholds
    with np.errstate(over="ignore"):
        want = np.quantile(col, [1 / 3, 2 / 3], method="midpoint")
    assert got.tolist() == want.tolist()
    got = binning._fit_continuous(col, 0, 2).thresholds
    assert np.isfinite(got).all() and col[4] < got[0] < col[5]


def test_scalar_columns_are_refused():
    # One row is a list of columns of length 1, not a list of scalars.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 3))
    y = np.arange(30) % 2
    with pytest.raises(ValueError, match=r"column 0 is not a 1-d array "
                                         r"\(shape \(\)\)"):
        fit([1.0, 2.0, 3.0], y, ["continuous"] * 3, TrainConfig(seed=0))
    forest = fit([X[:, j] for j in range(3)], y, ["continuous"] * 3,
                 TrainConfig(n_trees=2, seed=0))
    with pytest.raises(ValueError, match="column 0 is not a 1-d array"):
        forest.predict_proba([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="column 2 is not a 1-d array"):
        forest.predict([X[:1, 0], X[:1, 1], 3.0])
    one = forest.predict_proba([X[:1, j] for j in range(3)])
    assert np.array_equal(one, forest.predict_proba(X[:1]))


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
