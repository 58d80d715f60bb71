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
    """Per-feature bin layouts plus the global bin budget they were fit with."""

    max_bins: int
    features: list[FeatureBins]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def n_bins_per_feature(self) -> np.ndarray:
        return np.array([f.n_bins for f in self.features], dtype=np.int64)


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


def _transform_continuous(col: np.ndarray, fb: FeatureBins, j: int) -> np.ndarray:
    values = col.astype(np.float64, copy=False)
    out = np.searchsorted(fb.thresholds, values, side="right")
    missing = np.isnan(values)
    if missing.any():
        if not fb.has_missing:
            raise ValueError(
                f"feature {j}: missing value seen at transform time but none "
                "were present when bins were fit"
            )
        out[missing] = fb.missing_bin
    return out


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
    """Map raw feature columns to bin indices using a fitted mapper."""
    cols = _columns(X)
    if len(cols) != mapper.n_features:
        raise ValueError(
            f"mapper was fit on {mapper.n_features} features, got {len(cols)}"
        )
    dtype = np.uint8 if mapper.max_bins <= 256 else np.uint16
    n_rows = cols[0].shape[0]
    entries = np.empty((n_rows, len(cols)), dtype=dtype, order="F")
    for j, (col, fb) in enumerate(zip(cols, mapper.features)):
        if fb.kind is FeatureKind.CONTINUOUS:
            binned = _transform_continuous(col, fb, j)
        else:
            binned = _transform_categorical(col, fb, j)
        entries[:, j] = binned
    return BinnedMatrix(
        entries=entries,
        n_bins=mapper.n_bins_per_feature(),
        kinds=np.array([fb.kind for fb in mapper.features], dtype=object),
        missing_bin=np.array([fb.missing_bin for fb in mapper.features], dtype=np.int64),
    )
