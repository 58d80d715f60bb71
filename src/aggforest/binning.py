"""Feature binning: quantile bins for numeric features, frequency bins for categorical ones."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import itemgetter

import numpy as np

# Largest bin budget: ``transform`` stores codes as uint16 above 256 bins.
MAX_BINS = 1 << 16


class FeatureKind(str, Enum):
    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"


def _as_kind(value) -> FeatureKind:
    if isinstance(value, FeatureKind):
        return value
    try:
        return FeatureKind(value)
    except ValueError:
        raise ValueError(f"unknown feature kind {value!r}") from None


def _is_missing_category(value) -> bool:
    # Categorical missing markers: None, empty string, or a float NaN.
    if value is None:
        return True
    if isinstance(value, str):
        return value == ""
    if isinstance(value, float):
        return np.isnan(value)
    return False


# A model file stores each feature's categorical values as one of these.
KEY_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


def category_key_type(keys, feature) -> str:
    """The name in ``KEY_TYPES`` of the one type of a feature's categorical
    values ("str" for none); ValueError, naming the feature, otherwise."""
    kinds = {type(v) for v in keys} or {str}
    for name, t in KEY_TYPES.items():
        if kinds == {t}:
            return name
    names = ", ".join(sorted(k.__name__ for k in kinds))
    raise ValueError(f"feature {feature}: categorical values of "
                     + (f"mixed types ({names})" if len(kinds) > 1
                        else f"type {names}")
                     + " cannot be stored in a model file")


@dataclass
class FeatureBins:
    """Learned bin layout of a single feature.

    For continuous features ``thresholds`` holds the strictly increasing cut
    points; raw value v maps to the number of thresholds <= v.  For
    categorical features ``categories`` maps each modality seen at fit time to
    its bin.  When missing values were seen at fit time the rightmost bin is
    reserved for them.
    """

    kind: FeatureKind
    n_bins: int
    thresholds: np.ndarray | None = None
    categories: dict = field(default_factory=dict)
    has_missing: bool = False
    overflow_bin: int = -1

    @property
    def missing_bin(self) -> int:
        return self.n_bins - 1 if self.has_missing else -1

    @property
    def n_plain_bins(self) -> int:
        """Number of bins that encode actual (non-missing) values."""
        return self.n_bins - 1 if self.has_missing else self.n_bins


@dataclass
class BinMapper:
    """Per-feature bin layouts plus the global bin budget they were fit with.

    On its first ``transform`` a mapper builds its ``BinTable``: every
    continuous feature's thresholds in one NaN-padded table, and the
    per-feature layout arrays each ``BinnedMatrix`` carries.  The table is
    derived state, never saved or compared, so change ``features`` only
    before transforming with it.
    """

    max_bins: int
    features: list[FeatureBins]

    @property
    def n_features(self) -> int:
        return len(self.features)

    @cached_property
    def table(self) -> BinTable:
        """The search table, built on first use."""
        return BinTable.of(self)

    def validate(self) -> None:
        """Raise ValueError unless ``transform`` gives every value a code
        inside its feature's bins, and those codes fit the entry dtype of
        ``max_bins``: thresholds finite, strictly increasing and one fewer
        than the plain bins, category bins plain, and an overflow bin that
        is none or the last plain bin."""
        check_max_bins(self.max_bins)
        for j, fb in enumerate(self.features):
            n_plain = fb.n_plain_bins
            if not 1 <= fb.n_bins <= self.max_bins:
                raise ValueError(f"feature {j}: n_bins {fb.n_bins} outside "
                                 f"[1, max_bins {self.max_bins}]")
            if fb.overflow_bin not in (-1, n_plain - 1):
                raise ValueError(f"feature {j}: overflow_bin {fb.overflow_bin}"
                                 " is neither -1 nor the last plain bin")
            if fb.kind is FeatureKind.CONTINUOUS:
                thr = fb.thresholds
                if thr.ndim != 1 or thr.shape[0] != n_plain - 1:
                    raise ValueError(f"feature {j}: {thr.size} thresholds for "
                                     f"{n_plain} plain bins")
                if not (np.isfinite(thr).all() and (np.diff(thr) > 0).all()):
                    raise ValueError(f"feature {j}: thresholds are not finite"
                                     " and strictly increasing")
            elif any(not (isinstance(b, int) and 0 <= b < n_plain)
                     for b in fb.categories.values()):
                raise ValueError(f"feature {j}: category bin outside "
                                 f"[0, {n_plain})")


@dataclass(frozen=True)
class BinTable:
    """What ``transform`` reads of a mapper, in arrays, and the per-feature
    layout every ``BinnedMatrix`` it gives shares: ``n_bins``,
    ``is_categorical`` and ``missing_bin``, read-only.  Growth, split search
    and loading read a feature's kind from ``is_categorical`` only.

    Row c of ``thresholds`` holds the thresholds of continuous feature
    ``continuous[c]``, padded with NaN to a width W, a power of two greater
    than every threshold count.  NaN compares false, so the number of
    entries <= v in a row is the number of thresholds <= v: the bin code of
    a non-missing value v, ``np.searchsorted(thresholds, v, side="right")``.
    Blocks of more than a few rows narrow that count through ``grid``.
    """

    continuous: np.ndarray   # (C,) feature index of each continuous column
    categorical: list[int]   # feature index of each categorical column
    thresholds: np.ndarray   # (C, W) float64, NaN-padded
    missing: np.ndarray      # (C,) missing bin of each, -1 when it has none
    n_bins: np.ndarray       # per feature, as in BinnedMatrix
    is_categorical: np.ndarray
    missing_bin: np.ndarray

    @classmethod
    def of(cls, mapper: BinMapper) -> BinTable:
        features = mapper.features
        is_categorical = np.array(
            [fb.kind is FeatureKind.CATEGORICAL for fb in features], dtype=bool)
        continuous = np.flatnonzero(~is_categorical)
        rows = [features[j].thresholds for j in continuous]
        width = 1 << max((r.shape[0] for r in rows), default=0).bit_length()
        thresholds = np.full((len(rows), width), np.nan)
        for c, r in enumerate(rows):
            thresholds[c, :r.shape[0]] = r
        missing_bin = np.array([fb.missing_bin for fb in features],
                               dtype=np.int64)
        n_bins = np.array([fb.n_bins for fb in features], dtype=np.int64)
        # Every BinnedMatrix shares these three.
        for shared in (n_bins, is_categorical, missing_bin):
            shared.flags.writeable = False
        return cls(
            continuous=continuous,
            categorical=np.flatnonzero(is_categorical).tolist(),
            thresholds=thresholds,
            missing=missing_bin[continuous],
            n_bins=n_bins,
            is_categorical=is_categorical,
            missing_bin=missing_bin,
        )

    @cached_property
    def grid(self) -> Grid:
        """The search grid, built on the first block that needs it, so that
        loading a model and single-row calls never pay for it."""
        return Grid.of(self.thresholds)


@dataclass(frozen=True)
class Grid:
    """A uniform grid of G cells over each row's threshold range, which
    narrows the count of thresholds <= v to one cell.

    Value v of row c falls in cell ``_cells(v)``, and each threshold in the
    cell its own value gives.  The cell function is monotone, so every
    threshold in an earlier cell is <= v and every one in a later cell is
    above it.  The count is the number of thresholds in the cells before
    v's cell g, plus those <= v in cell g, which a search of ``steps``
    halvings finds: ``steps`` is the bit length of the largest count in one
    cell.  G is 4 W, at most ``_GRID_CELLS``.
    """

    thresholds: np.ndarray   # the table's, NaN-padded further where a
                             # search would leave its row: at least
                             # n + 2**steps - 1 wide
    low: np.ndarray          # (C,) lowest threshold of each, 0 for none
    scale: np.ndarray        # (C,) cells per unit of value, finite and > 0
    start: np.ndarray        # (C, G) offset in the flat thresholds of row c
                             # plus the thresholds in the cells before g
    steps: int               # halvings that search the fullest cell

    @classmethod
    def of(cls, thresholds: np.ndarray) -> Grid:
        n_cont, width = thresholds.shape
        held = ~np.isnan(thresholds)
        count = held.sum(axis=1)
        n_grid = min(4 * width, _GRID_CELLS)
        rows = np.arange(n_cont)
        low = np.where(count > 0, thresholds[:, 0], 0.0)
        high = np.where(count > 0, thresholds[rows, count - 1], 0.0)
        # A positive, finite scale keeps NaN out of the cells: one
        # threshold gives an infinite scale, a span that overflows 0.
        info = np.finfo(np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = np.clip(n_grid / (high - low), info.tiny, info.max)
            cell = _cells(thresholds, low, scale, n_grid)
        cell[~held] = n_grid
        in_cell = np.bincount(
            (cell + (rows * (n_grid + 1))[:, None]).ravel(),
            minlength=n_cont * (n_grid + 1),
        ).reshape(n_cont, n_grid + 1)[:, :n_grid]
        steps = int(in_cell.max(initial=0)).bit_length()
        pad = int(count.max(initial=0)) + (1 << steps) - 1 - width
        if pad > 0:
            thresholds = np.pad(thresholds, ((0, 0), (0, pad)),
                                constant_values=np.nan)
        start = (np.cumsum(in_cell, axis=1) - in_cell
                 + (rows * thresholds.shape[1])[:, None])
        return cls(thresholds=thresholds, low=low, scale=scale,
                   start=start.astype(_offsets(thresholds.size)), steps=steps)


@dataclass
class BinnedMatrix:
    """Dense matrix of bin indices with the layout metadata growth needs;
    ``transform`` gives each one its mapper's ``BinTable`` arrays."""

    entries: np.ndarray          # (n_rows, n_cols), unsigned integer bins
    n_bins: np.ndarray           # per column, includes the missing bin
    is_categorical: np.ndarray   # per column, bool
    missing_bin: np.ndarray      # per column, -1 when the feature has none

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


def _columns(X) -> list[np.ndarray]:
    """Normalize input to a list of 1-d column arrays."""
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {X.shape}")
        return [X[:, j] for j in range(X.shape[1])]
    cols = [np.asarray(c) for c in X]
    if not cols:
        raise ValueError("no feature columns given")
    for j, c in enumerate(cols):
        if c.ndim != 1:
            raise ValueError(f"column {j} is not a 1-d array (shape {c.shape}); "
                             f"give one row as columns of length 1")
    n = cols[0].shape[0]
    for j, c in enumerate(cols):
        if c.shape[0] != n:
            raise ValueError(f"column {j} is not a 1-d array of length {n}")
    return cols


def _real(col: np.ndarray, j: int) -> np.ndarray:
    """Continuous feature j's values as float64; ValueError, naming the
    feature, unless they are real numbers.  Casting complex values would
    only warn, and drop the imaginary part."""
    why = ""
    if col.dtype.kind != "c":
        try:
            return col.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            why = f" ({exc})"
    raise ValueError(f"feature {j}: continuous values must be real, "
                     f"got {col.dtype}{why}")


def _fit_continuous(col: np.ndarray, j: int, max_bins: int) -> FeatureBins:
    values = _real(col, j)
    missing = np.isnan(values)
    present = values[~missing]
    if present.size == 0:
        raise ValueError(f"feature {j}: every value is missing, cannot fit bins")
    has_missing = bool(missing.any())
    finite = present[np.isfinite(present)]
    if finite.size < present.size:
        # -inf and +inf take the extreme plain bins: the quantiles see them
        # at the ends of the finite range.
        present = np.clip(present, *((finite.min(), finite.max())
                                     if finite.size else (0.0, 0.0)))

    # The missing bin, when present, takes one slot out of the max_bins budget.
    slots = max_bins - 1 if has_missing else max_bins
    if slots >= 2:
        ordered = np.sort(present)
        thresholds = np.unique(_midpoints(ordered, np.arange(1, slots) / slots))
        # A threshold stays only where it puts more values below it than
        # the one before: every bin then holds a training value.
        below = np.searchsorted(ordered, thresholds)
        thresholds = thresholds[np.diff(below, prepend=0) > 0]
    else:
        thresholds = np.empty(0, dtype=np.float64)
    n_bins = thresholds.size + 1 + int(has_missing)
    return FeatureBins(
        kind=FeatureKind.CONTINUOUS,
        n_bins=n_bins,
        thresholds=thresholds,
        has_missing=has_missing,
    )


def _midpoints(ordered: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """``np.quantile(ordered, quantiles, method="midpoint")`` of a sorted,
    finite column, bit for bit, read straight from it, without the
    partitions numpy runs over every quantile's index.

    With k = (n - 1) q, a = ordered[floor k] and b = ordered[ceil k], the
    rule is a + 0 where k is whole (which turns -0.0 into 0.0) and
    b - (b - a) / 2 between.  The second is -inf once b - a overflows, for
    a < b of opposite signs near the float limits; a / 2 + b / 2 then
    stays finite and strictly between them.
    """
    k = (ordered.size - 1) * quantiles
    lo, hi = np.floor(k), np.ceil(k)
    a, b = ordered[lo.astype(np.intp)], ordered[hi.astype(np.intp)]
    with np.errstate(over="ignore"):
        out = np.where(lo == hi, a + 0.0, b - (b - a) * 0.5)
    over = np.flatnonzero(~np.isfinite(out))
    out[over] = a[over] * 0.5 + b[over] * 0.5
    return out


def _fit_categorical(col: np.ndarray, j: int, max_bins: int) -> FeatureBins:
    # One dict pass finds None and ""; NaN, which equals nothing, not even
    # itself, is checked apart.
    missing = np.fromiter(map({None: True, "": True}.get, col.tolist(),
                              repeat(False)), dtype=bool, count=col.shape[0])
    nan = col != col
    for i in np.flatnonzero(nan):
        missing[i] = _is_missing_category(col[i])
    present, nan = col[~missing], nan[~missing]
    if present.size == 0:
        raise ValueError(f"feature {j}: every value is missing, cannot fit bins")
    has_missing = bool(missing.any())

    # One dict count merges equal values, the first seen of them (1, 1.0
    # or True) standing for all; only its keys are sorted.  A NaN that is
    # no missing marker (such as a float32 NaN) is one modality, placed
    # last: no sort can place it, and no dict merges it.
    counts = Counter(present[~nan].tolist())
    try:
        uniques = sorted(counts)
    except TypeError:
        raise ValueError(
            f"feature {j}: categorical values must be mutually comparable "
            "(mixing strings and numbers is not supported)"
        ) from None
    ranked = [(v, counts[v]) for v in uniques]
    if nan.any():
        ranked.append((present[nan][0], int(np.count_nonzero(nan))))

    # Most frequent first; a stable sort on descending count breaks
    # frequency ties by value order.
    ranked = [v for v, _ in sorted(ranked, key=itemgetter(1), reverse=True)]

    # When the modalities outnumber the slots, the sparsest share the last
    # plain bin, the overflow bin.
    slots = max_bins - 1 if has_missing else max_bins
    n_plain = min(len(ranked), slots)
    mapping = {v.item() if isinstance(v, np.generic) else v: min(b, n_plain - 1)
               for b, v in enumerate(ranked)}
    return FeatureBins(
        kind=FeatureKind.CATEGORICAL,
        n_bins=n_plain + int(has_missing),
        categories=mapping,
        has_missing=has_missing,
        overflow_bin=n_plain - 1 if len(ranked) > slots else -1,
    )


def check_max_bins(max_bins: int) -> None:
    """Raise ValueError unless ``max_bins`` is in [2, ``MAX_BINS``]."""
    if not 2 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [2, {MAX_BINS}], got {max_bins}")


def fit_bins(X, kinds, max_bins: int = 256) -> BinMapper:
    """Learn a bin layout for every feature column.

    Parameters
    ----------
    X : 2-d array or sequence of 1-d column arrays
        Raw training features.  Continuous columns must be numeric with NaN
        as the missing marker; categorical columns may hold strings or
        numbers, with None, NaN, or the empty string marking missing values.
    kinds : sequence of FeatureKind or str
        Declared kind of each column.  Kinds are never inferred.
    max_bins : int
        Bin budget per feature, from 2 to ``MAX_BINS``.  The missing bin,
        when a feature has missing values at fit time, counts against the
        budget.
    """
    check_max_bins(max_bins)
    cols = _columns(X)
    kinds = [_as_kind(k) for k in kinds]
    if len(kinds) != len(cols):
        raise ValueError(f"got {len(cols)} columns but {len(kinds)} kinds")
    features = []
    for j, (col, kind) in enumerate(zip(cols, kinds)):
        if kind is FeatureKind.CONTINUOUS:
            features.append(_fit_continuous(col, j, max_bins))
        else:
            features.append(_fit_categorical(col, j, max_bins))
    return BinMapper(max_bins=max_bins, features=features)


# A block of rows holds about _BLOCK_VALUES continuous values; a block of at
# most _COUNT_CELLS (value, table entry) pairs compares every pair instead.
# A feature's grid has 4 cells per table entry, at most _GRID_CELLS.
_BLOCK_VALUES = 1 << 16
_COUNT_CELLS = 1 << 14
_GRID_CELLS = 1 << 12


def _offsets(size: int) -> type:
    """The index dtype for arrays of ``size`` entries: 32-bit offsets
    gather about twice as fast as 64-bit ones."""
    return np.int32 if size < 1 << 31 else np.intp


def _cells(values: np.ndarray, low: np.ndarray, scale: np.ndarray,
           n_grid: int) -> np.ndarray:
    """The grid cell of every non-NaN value of row c: floor((v - low[c]) *
    scale[c]) clipped to [0, n_grid).  Monotone in v."""
    x = values - low[:, None]
    x *= scale[:, None]
    np.clip(x, 0, n_grid - 1, out=x)
    return x.astype(np.int32)


def _count_le(table: BinTable, values: np.ndarray) -> np.ndarray:
    """For every value of row c of ``values``, none NaN, the number of
    thresholds <= it in row c of ``table.thresholds``.

    A tiny block compares every pair.  Otherwise each value starts at the
    first threshold of its grid cell, and a branch-free binary search
    (Khuong and Morin 2017) runs over every value at once: each of the
    grid's ``steps`` halvings is one gather and one compare.
    """
    if values.size * table.thresholds.shape[1] <= _COUNT_CELLS:
        return (table.thresholds[:, None, :] <= values[:, :, None]).sum(axis=2)
    grid = table.grid
    n_cont, width = grid.thresholds.shape
    flat = grid.thresholds.reshape(-1)
    start = grid.start.reshape(-1)
    n_grid = grid.start.shape[1]
    with np.errstate(over="ignore"):
        cell = _cells(values, grid.low, grid.scale, n_grid)
    cell = cell + (np.arange(n_cont, dtype=_offsets(start.size))
                   * n_grid)[:, None]
    at = start[cell]
    half = start.dtype.type(1 << grid.steps >> 1)
    while half > 1:
        at += (flat[at + (half - 1)] <= values) * half
        half >>= 1
    if half:
        at += flat[at] <= values
    return at - (np.arange(n_cont, dtype=at.dtype) * width)[:, None]


def _bin_continuous(cols: list[np.ndarray], table: BinTable,
                    out: np.ndarray) -> None:
    """Write the codes of every continuous column into its row of ``out``
    (features x rows), one block of rows at a time."""
    if table.continuous.size == 0:
        return
    step = max(1, _BLOCK_VALUES // table.continuous.size)
    for lo in range(0, out.shape[1], step):
        # One dtype check per block finds a column of other than real
        # numbers, which is cast apart, to name its feature.
        values = np.array([cols[j][lo:lo + step] for j in table.continuous])
        if values.dtype.kind not in "biuf":
            values = np.array([_real(cols[j][lo:lo + step], j)
                               for j in table.continuous])
        values = values.astype(np.float64, copy=False)
        missing = np.isnan(values)
        if missing.any():
            bad = missing.any(axis=1) & (table.missing < 0)
            if bad.any():
                raise ValueError(
                    f"feature {table.continuous[bad.argmax()]}: missing value "
                    "seen at transform time but none were present when bins "
                    "were fit"
                )
            # The grid search takes no NaN; no threshold is at or below -inf.
            np.copyto(values, -np.inf, where=missing)
            codes = np.where(missing, table.missing[:, None],
                             _count_le(table, values))
        else:
            codes = _count_le(table, values)
        out[table.continuous, lo:lo + step] = codes


def _transform_categorical(col: np.ndarray, fb: FeatureBins, j: int) -> np.ndarray:
    # One dict pass finds every known category; only missing and unseen
    # values are looked at one by one.  A NaN equals no dict key, not even
    # itself, so a NaN that is no missing marker is found by x != x and
    # takes the bin of the NaN modality, when fit saw one.
    codes = list(map(fb.categories.get, col.tolist(), repeat(-1)))
    out = np.array(codes, dtype=np.int64)
    if -1 not in codes:
        return out
    nan_bin = next((b for v, b in fb.categories.items() if v != v), -1)
    for i in np.flatnonzero(out < 0):
        raw = col[i]
        if _is_missing_category(raw):
            if not fb.has_missing:
                raise ValueError(
                    f"feature {j}: missing value seen at transform time but "
                    "none were present when bins were fit"
                )
            out[i] = fb.missing_bin
        elif nan_bin >= 0 and raw != raw:
            out[i] = nan_bin
        elif fb.has_missing:
            out[i] = fb.missing_bin
        elif fb.overflow_bin >= 0:
            out[i] = fb.overflow_bin
        else:
            raise ValueError(
                f"feature {j}: unseen category {raw!r} and the feature has "
                "neither a missing bin nor an overflow bin"
            )
    return out


def transform(X, mapper: BinMapper) -> BinnedMatrix:
    """Map raw feature columns to bin indices using a fitted mapper.

    A continuous value v gets the number of its feature's thresholds <= v,
    found for every continuous column of a block of rows in one search
    (see ``BinTable``); NaN gets the missing bin.  A categorical value gets
    its category's bin by one dict lookup.  A missing value in a feature
    that had none at fit time is refused with ValueError.
    """
    cols = _columns(X)
    if len(cols) != mapper.n_features:
        raise ValueError(
            f"mapper was fit on {mapper.n_features} features, got {len(cols)}"
        )
    table = mapper.table
    dtype = np.uint8 if mapper.max_bins <= 256 else np.uint16
    entries = np.empty((cols[0].shape[0], len(cols)), dtype=dtype, order="F")
    _bin_continuous(cols, table, entries.T)
    for j in table.categorical:
        entries[:, j] = _transform_categorical(cols[j], mapper.features[j], j)
    return BinnedMatrix(entries=entries, n_bins=table.n_bins,
                        is_categorical=table.is_categorical,
                        missing_bin=table.missing_bin)
