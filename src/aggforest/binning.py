"""Feature binning: quantile bins for numeric features, frequency bins for categorical ones."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import repeat

import numpy as np


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
    _table: BinTable | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def n_bins_per_feature(self) -> np.ndarray:
        return np.array([f.n_bins for f in self.features], dtype=np.int64)

    @property
    def table(self) -> BinTable:
        """The search table, built on first use."""
        if self._table is None:
            self._table = BinTable.of(self)
        return self._table

    def validate(self) -> None:
        """Raise ValueError unless ``transform`` gives every value a code
        inside its feature's bins, and those codes fit the entry dtype of
        ``max_bins``: thresholds finite, strictly increasing and one fewer
        than the plain bins, category bins plain, and an overflow bin that
        is none or the last plain bin."""
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
    """What ``transform`` reads of a mapper, in arrays.

    Row c of ``thresholds`` holds the thresholds of continuous feature
    ``continuous[c]``, padded with NaN to a width W, a power of two greater
    than every threshold count.  NaN compares false, so the number of
    entries <= v in a row is the number of thresholds <= v: the bin code of
    a non-missing value v, ``np.searchsorted(thresholds, v, side="right")``.
    """

    continuous: np.ndarray   # (C,) feature index of each continuous column
    categorical: list[int]   # feature index of each categorical column
    thresholds: np.ndarray   # (C, W) float64, NaN-padded
    missing: np.ndarray      # (C,) missing bin of each, -1 when it has none
    n_bins: np.ndarray       # per feature, as in BinnedMatrix
    kinds: np.ndarray
    missing_bin: np.ndarray

    @classmethod
    def of(cls, mapper: BinMapper) -> BinTable:
        features = mapper.features
        continuous = [j for j, fb in enumerate(features)
                      if fb.kind is FeatureKind.CONTINUOUS]
        rows = [features[j].thresholds for j in continuous]
        width = 1 << max((r.shape[0] for r in rows), default=0).bit_length()
        thresholds = np.full((len(rows), width), np.nan)
        for c, r in enumerate(rows):
            thresholds[c, :r.shape[0]] = r
        missing_bin = np.array([fb.missing_bin for fb in features],
                               dtype=np.int64)
        n_bins = mapper.n_bins_per_feature()
        kinds = np.array([fb.kind for fb in features], dtype=object)
        # Every BinnedMatrix shares these three.
        for shared in (n_bins, kinds, missing_bin):
            shared.flags.writeable = False
        return cls(
            continuous=np.array(continuous, dtype=np.intp),
            categorical=[j for j, fb in enumerate(features)
                         if fb.kind is FeatureKind.CATEGORICAL],
            thresholds=thresholds,
            missing=missing_bin[continuous],
            n_bins=n_bins,
            kinds=kinds,
            missing_bin=missing_bin,
        )


@dataclass
class BinnedMatrix:
    """Dense matrix of bin indices with the layout metadata growth needs."""

    entries: np.ndarray          # (n_rows, n_cols), unsigned integer bins
    n_bins: np.ndarray           # per column, includes the missing bin
    kinds: np.ndarray            # per column FeatureKind values as object array
    missing_bin: np.ndarray      # per column, -1 when the feature has none

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def is_categorical(self) -> np.ndarray:
        return np.array([k is FeatureKind.CATEGORICAL for k in self.kinds])


def _columns(X) -> list[np.ndarray]:
    """Normalize input to a list of 1-d column arrays."""
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {X.shape}")
        return [X[:, j] for j in range(X.shape[1])]
    cols = [np.asarray(c) for c in X]
    if not cols:
        raise ValueError("no feature columns given")
    n = cols[0].shape[0]
    for j, c in enumerate(cols):
        if c.ndim != 1 or c.shape[0] != n:
            raise ValueError(f"column {j} is not a 1-d array of length {n}")
    return cols


def _fit_continuous(col: np.ndarray, j: int, max_bins: int) -> FeatureBins:
    values = col.astype(np.float64, copy=False)
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
        quantiles = np.arange(1, slots) / slots
        thresholds = np.quantile(present, quantiles, method="midpoint")
        thresholds = np.unique(thresholds)
    else:
        thresholds = np.empty(0, dtype=np.float64)
    n_bins = thresholds.size + 1 + int(has_missing)
    return FeatureBins(
        kind=FeatureKind.CONTINUOUS,
        n_bins=n_bins,
        thresholds=thresholds,
        has_missing=has_missing,
    )


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

    # A NaN that is no missing marker (such as a float32 NaN) is one
    # modality, placed last: a sort of objects cannot place it, and would
    # leave equal values around it unmerged.
    try:
        uniques, counts = np.unique(present[~nan], return_counts=True)
    except TypeError:
        raise ValueError(
            f"feature {j}: categorical values must be mutually comparable "
            "(mixing strings and numbers is not supported)"
        ) from None
    if nan.any():
        uniques = np.append(uniques, present[nan][:1])
        counts = np.append(counts, np.count_nonzero(nan))

    # Most frequent first; np.unique returns values sorted, so a stable sort
    # on descending count breaks frequency ties by value order.
    order = np.argsort(-counts, kind="stable")
    ranked = uniques[order]

    slots = max_bins - 1 if has_missing else max_bins
    overflow_bin = -1
    if ranked.size <= slots:
        mapping = {v if not isinstance(v, np.generic) else v.item(): b
                   for b, v in enumerate(ranked)}
        n_plain = ranked.size
    else:
        # The sparsest modalities share the last plain bin.
        overflow_bin = slots - 1
        mapping = {}
        for b, v in enumerate(ranked):
            key = v.item() if isinstance(v, np.generic) else v
            mapping[key] = min(b, overflow_bin)
        n_plain = slots
    return FeatureBins(
        kind=FeatureKind.CATEGORICAL,
        n_bins=n_plain + int(has_missing),
        categories=mapping,
        has_missing=has_missing,
        overflow_bin=overflow_bin,
    )


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
        Bin budget per feature, at least 2.  The missing bin, when a feature
        has missing values at fit time, counts against the budget.
    """
    if max_bins < 2:
        raise ValueError(f"max_bins must be >= 2, got {max_bins}")
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
_BLOCK_VALUES = 1 << 16
_COUNT_CELLS = 1 << 14


def _count_le(thresholds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For every value of row c of ``values``, the number of entries <= it
    in row c of ``thresholds``, whose entries are sorted with NaN last.

    A branch-free binary search (Khuong and Morin 2017) runs over every
    value at once: each of the log2 W steps, halves W/2, ..., 1, is one
    gather and one compare.
    """
    n_cont, width = thresholds.shape
    if values.size * width <= _COUNT_CELLS:
        return (thresholds[:, None, :] <= values[:, :, None]).sum(axis=2)
    flat = thresholds.reshape(-1)
    # 32-bit offsets gather about twice as fast as 64-bit ones.
    index = np.int32 if flat.size < 1 << 31 else np.intp
    base = (np.arange(n_cont, dtype=index) * width)[:, None]
    at = np.repeat(base, values.shape[1], axis=1)
    half = index(width >> 1)
    while half:
        at += (flat[at + (half - 1)] <= values) * half
        half >>= 1
    return at - base


def _bin_continuous(cols: list[np.ndarray], table: BinTable,
                    out: np.ndarray) -> None:
    """Write the codes of every continuous column into its row of ``out``
    (features x rows), one block of rows at a time."""
    if table.continuous.size == 0:
        return
    step = max(1, _BLOCK_VALUES // table.continuous.size)
    for lo in range(0, out.shape[1], step):
        values = np.array([cols[j][lo:lo + step] for j in table.continuous],
                          dtype=np.float64)
        codes = _count_le(table.thresholds, values)
        missing = np.isnan(values)
        if missing.any():
            bad = missing.any(axis=1) & (table.missing < 0)
            if bad.any():
                raise ValueError(
                    f"feature {table.continuous[bad.argmax()]}: missing value "
                    "seen at transform time but none were present when bins "
                    "were fit"
                )
            codes = np.where(missing, table.missing[:, None], codes)
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
                        kinds=table.kinds, missing_bin=table.missing_bin)
