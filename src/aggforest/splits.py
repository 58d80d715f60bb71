"""Histogram construction and best-split search over binned features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinnedMatrix

# Cells (pairs x bins x channels) of one block of the batched split search:
# pairs are scanned in blocks of at most this many cells, so that a level
# holding thousands of nodes stays bounded in memory.
_BLOCK_CELLS = 1 << 17
# Most padding cells (pairs x bins) a block of the batched split search may
# hold beyond the cells of its pairs.  Enough pairs share a block to spread
# its fixed cost, and the scan still costs about one pass over the cells.
_BLOCK_SLACK = 2048
# A level numbers its cells from a table over every possible key (pair x
# bin) when there are at most this many keys per (itb row, feature) entry,
# and by sorting the keys otherwise.
_DENSE_KEYS = 8

CLASSIFICATION_CRITERIA = ("gini", "entropy")
REGRESSION_CRITERIA = ("variance",)


@dataclass
class Histogram:
    """Per-feature label statistics of one node's in-the-bag rows.

    ``tables[i]`` has one row per bin of feature ``features[i]``.  For
    classification the columns are bootstrap-weighted class counts; for
    regression they are (weight, weighted sum, weighted sum of squares).
    """

    features: np.ndarray
    tables: list


@dataclass(frozen=True)
class SplitConstraints:
    """Minimum child sizes a candidate split must respect."""

    min_leaf_weight: float = 1.0   # itb bootstrap weight per child
    min_leaf_oob: int = 0          # oob row count per child, 0 disables


@dataclass(frozen=True)
class Split:
    """A binary split of a node's bins.

    Continuous: plain bins <= bin_threshold go left and missing values follow
    missing_goes_left.  A threshold of -1 (legal only with missing values
    going left) sends only the missing bin left.  Categorical: left_mask[b]
    says whether bin b goes left; the missing bin, when the feature has one,
    is covered by the mask like any other bin.  A tree's splits have no gain.
    """

    feature: int
    is_categorical: bool
    bin_threshold: int
    missing_goes_left: bool
    left_mask: np.ndarray | None
    gain: float | None = None


def _stats_weights(table: np.ndarray, classification: bool) -> np.ndarray:
    return table.sum(axis=1) if classification else table[:, 0]


def compute_histogram(rows, weights, features, binned: BinnedMatrix, labels,
                      n_classes: int = 0) -> Histogram:
    """Tally bootstrap-weighted label statistics per (feature, bin).

    ``rows`` are absolute row ids of the node's itb rows, ``weights`` their
    bootstrap multiplicities, and ``labels`` the full label vector (encoded
    class ids, or float targets when n_classes == 0).
    """
    rows = np.asarray(rows)
    weights = np.asarray(weights, dtype=np.float64)
    features = np.asarray(features)
    y = labels[rows]
    # One weight per row and channel: a class's weight is 0 on the rows of
    # the other classes, and adding 0 leaves a sum as it is.
    if n_classes > 0:
        channels = [weights * (y == k) for k in range(n_classes)]
    else:
        y = y.astype(np.float64, copy=False)
        channels = [weights, weights * y, weights * y * y]
    tables = []
    for j in features:
        b, codes = int(binned.n_bins[j]), binned.entries[rows, j]
        tables.append(np.stack([np.bincount(codes, weights=c, minlength=b)
                                for c in channels], axis=1))
    return Histogram(features=features.astype(np.int64), tables=tables)


def sibling_histogram(parent: Histogram, child: Histogram,
                      classification: bool) -> Histogram:
    """Derive one child's histogram as parent minus the other child.

    Count channels must come out non-negative; a negative entry means the
    two histograms do not describe a parent and its child, which is an
    internal error worth failing loudly on.
    """
    if not np.array_equal(parent.features, child.features):
        raise ValueError("parent and child histograms cover different features")
    tables = []
    for pt, ct in zip(parent.tables, child.tables):
        diff = pt - ct
        counts = diff if classification else diff[:, 0]
        if (counts < 0).any():
            raise RuntimeError(
                "sibling histogram subtraction produced a negative count; "
                "histograms are inconsistent"
            )
        tables.append(diff)
    return Histogram(features=parent.features, tables=tables)


def impurity(stats: np.ndarray, criterion: str):
    """Mean impurity of a node from its label statistics.

    Classification stats are per-class weights; regression stats are
    (weight, weighted sum, weighted sum of squares).  Entropy is in nats,
    with 0 log 0 taken as 0 (see ``xlogy``).  Stats of several nodes
    stacked along the first axis give one impurity per node as an array;
    a single node's stats give a float.  The classes are added in order,
    whatever the layout, so a node's impurity is the same bits alone or
    in a stack.
    """
    stats = np.asarray(stats, dtype=np.float64)
    if criterion in ("gini", "entropy"):
        w = _class_sum(stats)
        if (w <= 0).any():
            raise ValueError("impurity of an empty node is undefined")
        p = stats / w[..., None]
        if criterion == "gini":
            out = 1.0 - _class_sum(p * p)
        else:
            out = -_class_sum(xlogy(p, p))
    elif criterion == "variance":
        w, s1, s2 = stats[..., 0], stats[..., 1], stats[..., 2]
        if (w <= 0).any():
            raise ValueError("impurity of an empty node is undefined")
        out = np.maximum(s2 / w - (s1 / w) ** 2, 0.0)
    else:
        raise ValueError(f"unknown impurity criterion {criterion!r}")
    return float(out) if out.ndim == 0 else out


def xlogy(x, y) -> np.ndarray:
    """``x * log(y)``, and exactly 0 where ``x == 0``, without warnings."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def _channel_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of two or more channel rows, added in order, which is what
    ``rows.sum(axis=0)`` gives (numpy reduces a leading axis a row at a
    time) without the reduction's overhead."""
    out = rows[0] + rows[1]
    for r in rows[2:]:
        out += r
    return out


def _class_sum(a: np.ndarray) -> np.ndarray:
    """The sum over the last axis, added in order as ``_channel_sum`` adds;
    numpy's own sum adds a contiguous run of 8 or more pairwise."""
    rows = np.moveaxis(a, -1, 0)
    return _channel_sum(rows) if rows.shape[0] > 1 else rows[0]


def _impw(stats: np.ndarray, w: np.ndarray, criterion: str) -> np.ndarray:
    """Weight-scaled impurity (w * mean impurity), channels on the first axis."""
    if criterion == "gini":
        return w - _channel_sum(stats * stats) / w
    if criterion == "entropy":
        return xlogy(w, w) - _channel_sum(xlogy(stats, stats))
    # variance: channels are (w, sum, sum of squares)
    return stats[2] - stats[1] * stats[1] / stats[0]


def _beats(a: Split, b: Split) -> bool:
    """Deterministic total order: gain, then feature id, then split identity."""
    if a.gain != b.gain:
        return a.gain > b.gain
    if a.feature != b.feature:
        return a.feature < b.feature
    if a.is_categorical:
        return a.left_mask.tobytes() < b.left_mask.tobytes()
    if a.bin_threshold != b.bin_threshold:
        return a.bin_threshold < b.bin_threshold
    return (not a.missing_goes_left) and b.missing_goes_left


def _scan_order(table, order, oob_left, oob_total, criterion, cons, parent_impw,
                w_total, classification):
    """Best prefix split with bins laid out in ``order``.

    ``oob_left[p]``, when not None, counts the oob rows routed left by the
    candidate that closes its left side after position p (this includes rows
    sitting in bins empty of itb rows, which never appear in ``order``).
    Returns (position, gain) of the best admissible prefix, or None.
    np.argmax keeps the first of tied gains, so the earliest boundary wins.
    """
    cum = np.cumsum(table[order], axis=0)
    total = cum[-1]
    cum = cum[:-1]
    wl = cum.sum(axis=1) if classification else cum[:, 0]
    wr = w_total - wl
    valid = (wl >= cons.min_leaf_weight) & (wr >= cons.min_leaf_weight)
    if cons.min_leaf_oob > 0:
        valid &= (oob_left >= cons.min_leaf_oob)
        valid &= (oob_total - oob_left >= cons.min_leaf_oob)
    if not valid.any():
        return None
    impw_l = _impw(cum.T, wl, criterion)
    impw_r = _impw((total - cum).T, wr, criterion)
    gains = np.where(valid, (parent_impw - impw_l - impw_r) / w_total, -np.inf)
    pos = int(np.argmax(gains))
    gain = float(gains[pos])
    if gain <= 0.0:
        return None
    return pos, gain


def find_best_split(hist: Histogram, binned: BinnedMatrix, criterion: str,
                    constraints: SplitConstraints, oob_hist=None,
                    n_classes: int = 0) -> Split | None:
    """Search every sampled feature for the best admissible split.

    Continuous features are scanned left to right in bin order, and again
    with the missing bin moved to the front when the node holds missing
    values, so both missing directions compete.  Categorical features are
    scanned along bins sorted by class proportion (one scan per class beyond
    binary) or by bin mean for regression.  Ties break toward the lowest
    feature id, then the lowest threshold or lexicographically smallest bin
    mask.  ``oob_hist`` holds, per sampled feature, the bin counts of the
    node's oob rows, which the oob floor of ``constraints`` reads.  Returns
    None when no split has positive gain and admissible children.
    """
    classification = n_classes > 0
    node_stats = hist.tables[0].sum(axis=0)
    w_total = float(node_stats.sum() if classification else node_stats[0])
    parent_impw = w_total * impurity(node_stats, criterion)
    check_oob = constraints.min_leaf_oob > 0
    best: Split | None = None

    def consider(cand):
        nonlocal best
        if best is None or _beats(cand, best):
            best = cand

    for idx in range(hist.features.shape[0]):
        j = int(hist.features[idx])
        table = hist.tables[idx]
        w_bins = _stats_weights(table, classification)
        nonempty = np.flatnonzero(w_bins > 0)
        if nonempty.size < 2:
            continue
        oob_bins = oob_hist[idx] if check_oob else None
        oob_total = int(oob_bins.sum()) if check_oob else 0

        if binned.is_categorical[j]:
            # Bins empty of itb rows stay on the right side, so their oob
            # rows count toward the right child only.
            if classification:
                targets = [1] if n_classes == 2 else list(range(n_classes))
                props = [table[nonempty, k] / w_bins[nonempty] for k in targets]
            else:
                props = [table[nonempty, 1] / w_bins[nonempty]]
            for prop in props:
                order = nonempty[np.argsort(prop, kind="stable")]
                oob_left = np.cumsum(oob_bins[order])[:-1] if check_oob else None
                found = _scan_order(table, order, oob_left, oob_total,
                                    criterion, constraints, parent_impw,
                                    w_total, classification)
                if found is not None:
                    pos, gain = found
                    mask = np.zeros(int(binned.n_bins[j]), dtype=bool)
                    mask[order[:pos + 1]] = True
                    consider(Split(j, True, -2, False, mask, gain))
        else:
            missing_bin = int(binned.missing_bin[j])
            oob_below = np.cumsum(oob_bins) if check_oob else None
            # Natural ascending bin order; a missing bin is rightmost.
            found = _scan_order(table, nonempty,
                                oob_below[nonempty[:-1]] if check_oob else None,
                                oob_total, criterion, constraints, parent_impw,
                                w_total, classification)
            if found is not None:
                pos, gain = found
                consider(Split(j, False, int(nonempty[pos]), False, None, gain))
            if missing_bin >= 0 and w_bins[missing_bin] > 0:
                # Second scan with the missing bin prepended to the left side.
                plain = nonempty[nonempty != missing_bin]
                if plain.size >= 1:
                    order = np.concatenate(([missing_bin], plain))
                    if check_oob:
                        n_miss_oob = int(oob_bins[missing_bin])
                        oob_left = np.concatenate(
                            ([n_miss_oob], oob_below[plain[:-1]] + n_miss_oob))
                    else:
                        oob_left = None
                    found = _scan_order(table, order, oob_left, oob_total,
                                        criterion, constraints, parent_impw,
                                        w_total, classification)
                    if found is not None:
                        pos, gain = found
                        thr = -1 if pos == 0 else int(order[pos])
                        consider(Split(j, False, thr, True, None, gain))
    return best


@dataclass
class LevelHistogram:
    """Label statistics of many nodes at once, over the bins their rows hold.

    Pair p = i * m + k stands for node i and its k-th sampled feature
    ``features[i, k]``.  A cell is a bin of a pair holding itb rows; cells
    are sorted by (pair, bin), ``pair`` and ``bin`` name each of them, and
    ``sums[:, c]`` holds cell c's channels (as in ``Histogram``), channels
    first.  One last cell, of pair n * m and with zero sums, pads short
    pairs in the batched search.  With oob rows, ``oob_total`` counts them
    per pair, ``oob_exact`` per cell those in the cell's bin, and
    ``oob_upto`` per cell those whose bin lies above the pair's previous
    cell and at most at this cell's bin.
    """

    n_bins: int
    features: np.ndarray
    pair: np.ndarray
    bin: np.ndarray
    sums: np.ndarray
    oob_total: np.ndarray | None = None
    oob_exact: np.ndarray | None = None
    oob_upto: np.ndarray | None = None


def level_histogram(binned: BinnedMatrix, features: np.ndarray, rows, node,
                    weights, y, n_classes: int = 0, oob_rows=None,
                    oob_node=None) -> LevelHistogram:
    """Tally the itb statistics (and oob counts) of many nodes at once.

    ``features[i]`` lists node i's sampled features, ascending.  Itb row
    ``rows[j]``, with bootstrap weight ``weights[j]`` and label ``y[j]``,
    sits at node ``node[j]``; listing each node's rows in ascending order
    makes every cell sum its rows in the order ``compute_histogram`` does.
    Oob rows are given the same way, or not at all.

    Each (itb row, sampled feature) entry has the key pair * n_bins + bin,
    and the cells, the distinct keys, are numbered in key order by a table
    or by a sort (see ``_number_cells``).  Either way the bincounts add the
    entries in their given order, so both give bitwise the same histogram.
    The numbering's temporaries go before the sums are built, so a level's
    peak memory is that of numbering its keys.
    """
    # ``transform`` stores entries column-major, so this ravel is a view, not
    # a copy: feature f of row r sits at f * n_rows + r.
    codes = binned.entries.ravel(order="F")
    n_bins = int(binned.n_bins.max())
    n, m = features.shape
    # Keys, cells and their counts fit in 32 bits below 2^31 keys.
    key_type = np.int32 if n * m * n_bins < 2 ** 31 else np.int64
    first_key = np.arange(0, n * m * n_bins, n_bins, dtype=key_type)
    first_key = first_key.reshape(n, m)
    offset = features * binned.n_rows

    def keys(r, at):
        return (first_key[at] + codes[offset[at] + r[:, None]]).ravel()

    cell, present, oob = _number_cells(
        keys(rows, node), n * m, n_bins,
        None if oob_rows is None else keys(oob_rows, oob_node))
    size = present.shape[0]
    if m > 1:
        weights, y = np.repeat(weights, m), np.repeat(y, m)
    if n_classes > 0:
        # Cells may be 32-bit; their ids per class take 64 bits.
        sums = np.bincount(np.multiply(cell, n_classes, dtype=np.int64) + y,
                           weights=weights, minlength=size * n_classes)
        sums = np.ascontiguousarray(sums.reshape(size, n_classes).T)
    else:
        # Channels w, w y and w y^2, one at a time, and ``bincount`` takes
        # its ids as intp.
        cell = cell.astype(np.intp)
        sums = np.empty((3, size))
        sums[0] = np.bincount(cell, weights=weights, minlength=size)
        wy = weights * y
        sums[1] = np.bincount(cell, weights=wy, minlength=size)
        wy *= y
        sums[2] = np.bincount(cell, weights=wy, minlength=size)
    return LevelHistogram(n_bins, features, present // n_bins,
                          present % n_bins, sums, *oob)


def _number_cells(k, n_pairs: int, n_bins: int, oob_key=None):
    """Number the distinct keys of ``k`` (pair * n_bins + bin) in key order.

    Returns each key's cell, the present keys followed by the padding key
    n_pairs * n_bins, and the counts ``oob_total``, ``oob_exact`` and
    ``oob_upto`` of ``LevelHistogram`` for the oob keys, or Nones.  The
    temporaries of numbering and placing end with this call.

    With at most ``_DENSE_KEYS`` possible keys per key of ``k``, a table
    over every key counts the present keys below it: a key's cell, and an
    oob key's place among the cells, with no sort.  Otherwise one argsort
    of the keys numbers the runs of equal keys, and the oob keys are sorted
    and placed by one search of sorted needles.
    """
    n_keys = n_pairs * n_bins
    if n_keys <= _DENSE_KEYS * k.shape[0]:
        below = np.zeros(n_keys + 1, dtype=k.dtype)
        below[1:][k] = 1
        np.cumsum(below, out=below)
        cell = below[k]
        present = np.empty(below[-1] + 1, dtype=k.dtype)
        present[cell] = k
        present[-1] = n_keys
        at = None if oob_key is None else below[oob_key]
        del below
    else:
        order = np.argsort(k)
        run = k[order]
        fresh = np.empty(run.shape, dtype=bool)
        fresh[:1] = True
        np.not_equal(run[1:], run[:-1], out=fresh[1:])
        present = np.empty(np.count_nonzero(fresh) + 1, dtype=k.dtype)
        np.compress(fresh, run, out=present[:-1])
        present[-1] = n_keys
        # Each sorted key's run number.  A cumsum over bools would copy
        # them to integers first.
        run[:] = fresh
        np.cumsum(run, out=run)
        run -= 1
        cell = np.empty_like(k)
        cell[order] = run
        del order, run
        if oob_key is not None:
            oob_key = np.sort(oob_key)
            at = np.searchsorted(present, oob_key)
    if oob_key is None:
        return cell, present, (None, None, None)
    # The key of the cell at or above each oob key, and their pairs.
    pair, above = oob_key // n_bins, present[at]
    size = present.shape[0]
    return cell, present, (
        np.bincount(pair, minlength=n_pairs),
        np.bincount(at[above == oob_key], minlength=size),
        np.bincount(at[above // n_bins == pair], minlength=size))


def _best_prefix(cum, oob_left, oob_total, count, w_total, parent_impw,
                 criterion, cons, classification):
    """Best admissible prefix split of many rows of cells at once.

    ``cum`` is (channels x rows x width): the running sums of each row's
    ``count[i]`` cells in scan order, then of zero padding.  ``oob_left``
    (None when not checked) is the running count of the oob rows that join
    the left side.  A prefix closes after any cell but the last.  Returns
    (position, gain) per row with the arithmetic and tie rule (earliest
    position) of ``_scan_order``; gain is -inf where no admissible prefix
    has positive gain.  Padding may divide by zero, so callers silence
    numpy's floating-point warnings.
    """
    wl = _channel_sum(cum) if classification else cum[0]
    wr = w_total[:, None] - wl
    valid = ((np.arange(cum.shape[2]) < count[:, None] - 1)
             & (wl >= cons.min_leaf_weight) & (wr >= cons.min_leaf_weight))
    if oob_left is not None:
        valid &= oob_left >= cons.min_leaf_oob
        valid &= oob_total[:, None] - oob_left >= cons.min_leaf_oob
    impw_l = _impw(cum, wl, criterion)
    impw_r = _impw(cum[:, :, -1:] - cum, wr, criterion)
    gains = np.where(valid, (parent_impw[:, None] - impw_l - impw_r)
                     / w_total[:, None], -np.inf)
    pos = np.argmax(gains, axis=1)
    gain = gains[np.arange(pos.shape[0]), pos]
    gain[gain <= 0.0] = -np.inf
    return pos, gain


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a < b for boolean masks compared as byte strings."""
    differ = a != b
    first = np.argmax(differ, axis=1)
    return differ.any(axis=1) & ~a[np.arange(a.shape[0]), first]


def _scan_blocks(widths: np.ndarray, n_cont: int, channels: int):
    """Cut pairs of descending ``widths`` into the blocks of ``best_splits``.

    Yields (lo, hi) bounds: the first ``n_cont`` pairs and the rest never
    share a block, and a block of more than one pair holds at most
    ``_BLOCK_CELLS`` padded cells with channels and at most ``_BLOCK_SLACK``
    cells of padding (its width times its pairs, less their cells).
    """
    upto = np.concatenate(([0], np.cumsum(widths)))
    lo, n = 0, widths.shape[0]
    while lo < n:
        width = int(widths[lo])
        end = n_cont if lo < n_cont else n
        hi = min(end, lo + max(1, _BLOCK_CELLS // (width * channels)))
        padding = width * np.arange(1, hi - lo + 1) - (upto[lo + 1:hi + 1]
                                                       - upto[lo])
        hi = lo + int(np.searchsorted(padding, _BLOCK_SLACK, side="right"))
        yield lo, hi
        lo = hi


def left_rows(threshold, missing_bin, missing_left, width: int) -> np.ndarray:
    """Rows of ``width`` bytes, bin b at bit b % 8 of byte b // 8 (as masks
    are packed), of the bins that go left at continuous splits: those up to
    ``threshold``, and ``missing_bin`` (-1: none) where ``missing_left``."""
    upto = np.clip(threshold, -1, 8 * width - 1) + 1
    full = upto >> 3
    rows = (np.arange(width) < full[:, None]) * np.uint8(255)
    part = np.flatnonzero(full < width)
    rows[part, full[part]] = (1 << (upto[part] & 7)) - 1
    has = np.flatnonzero(missing_bin >= 0)
    b = missing_bin[has]
    byte, bit = rows[has, b >> 3], (1 << (b & 7)).astype(np.uint8)
    rows[has, b >> 3] = np.where(missing_left[has], byte | bit, byte & ~bit)
    return rows


def goes_left(rows: np.ndarray, at, codes):
    """1 where bin ``codes`` goes left at row ``at`` of ``rows`` (``left_rows``'
    layout), else 0: the rule by which growth and ``Router.step`` route."""
    byte = rows.reshape(-1)[at * rows.shape[1] + (codes >> 3)]
    return (byte >> (codes & 7)) & 1


@dataclass
class NodeSplits:
    """The splits found among many nodes, one entry per node that splits.

    ``node`` gives the node's position, ``left`` packs the bins that go
    left as ``left_rows`` does (the categorical mask, or the bins up to the
    threshold plus the missing bin when missing values go left),
    ``threshold`` is -2 for categorical splits, and ``stats_left`` holds the
    left child's label statistics, summed from the split feature's own table.
    """

    node: np.ndarray
    feature: np.ndarray
    gain: np.ndarray
    threshold: np.ndarray
    missing_left: np.ndarray
    left: np.ndarray
    stats_left: np.ndarray


def best_splits(hist: LevelHistogram, binned: BinnedMatrix, criterion: str,
                constraints: SplitConstraints, n_classes: int = 0) -> NodeSplits:
    """``find_best_split`` for many nodes at once, with the same semantics.

    Every scan of ``find_best_split`` runs as one prefix scan along the cell
    axis over all the (node, feature) pairs it applies to, and candidates
    compete in the same order: gain, then the lowest feature, then the
    lowest threshold with missing values right before left, then the
    smallest categorical mask.  The arithmetic follows ``find_best_split``
    step for step: equal tables give equal gains to the last bit, at any
    class count (``impurity`` adds a node's classes in one order).  Pairs
    are scanned in blocks of one feature kind, widest first, and each
    block is padded to its first pair's width with cells of zero sums.  A
    block holds at most ``_BLOCK_CELLS`` padded cells and at most
    ``_BLOCK_SLACK`` cells of padding (see ``_scan_blocks``), so the work
    follows the cells that hold rows.  Each pair is scanned along its own
    row, and padding adds only zeros after its cells, so the splits do not
    depend on where the blocks are cut.
    """
    classification = n_classes > 0
    n, m = hist.features.shape
    n_pairs = n * m
    n_bins = hist.n_bins
    channels = hist.sums.shape[0]
    pad = hist.pair.shape[0] - 1
    check_oob = hist.oob_total is not None and constraints.min_leaf_oob > 0

    # Node totals as find_best_split takes them: the first feature's cells
    # summed in bin order.
    first = np.flatnonzero(hist.pair % m == 0)[:-1] if m > 1 else slice(-1)
    node_stats = np.array([np.bincount(hist.pair[first] // m, weights=c[first],
                                       minlength=n) for c in hist.sums])
    w_total = node_stats.sum(axis=0) if classification else node_stats[0]
    parent_impw = w_total * impurity(node_stats.T, criterion)

    feat = hist.features.reshape(n_pairs)
    is_cat = binned.is_categorical[feat]
    missing_bin = binned.missing_bin[feat]
    count = np.bincount(hist.pair, minlength=n_pairs + 1)[:n_pairs]
    start = np.cumsum(count) - count
    gain = np.full(n_pairs, -np.inf)
    threshold = np.full(n_pairs, -2, dtype=np.int64)
    missing_left = np.zeros(n_pairs, dtype=bool)
    stats_left = np.zeros((channels, n_pairs))
    cat_left = np.zeros((n_pairs, n_bins), dtype=bool) if is_cat.any() else None

    # Pairs with two cells or more: continuous ones, then categorical ones,
    # each widest first, in blocks of one kind that pad little.
    todo = np.flatnonzero(count >= 2)
    todo = todo[np.lexsort((-count[todo], is_cat[todo]))]
    n_cont = int((~is_cat[todo]).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in _scan_blocks(count[todo], n_cont, channels):
            pairs = todo[lo:hi]
            width = int(count[pairs[0]])
            cnt = count[pairs]
            cols = np.arange(width)
            idx = np.where(cols < cnt[:, None], start[pairs, None] + cols, pad)
            tables = hist.sums[:, idx]
            rows = np.arange(pairs.shape[0])
            w, impw = w_total[pairs // m], parent_impw[pairs // m]
            oob_total = hist.oob_total[pairs] if check_oob else None

            if not is_cat[pairs[0]]:
                # Natural ascending bin order; a missing bin is the last cell.
                cum = np.cumsum(tables, axis=2)
                oob = np.cumsum(hist.oob_upto[idx], axis=1) if check_oob else None
                pos, gain[pairs] = _best_prefix(
                    cum, oob, oob_total, cnt, w, impw, criterion, constraints,
                    classification)
                threshold[pairs] = hist.bin[idx[rows, pos]]
                stats_left[:, pairs] = cum[:, rows, pos]
                last = idx[rows, cnt - 1]
                miss = np.flatnonzero((missing_bin[pairs] >= 0)
                                      & (hist.bin[last] == missing_bin[pairs]))
                if not miss.size:
                    continue
                # Second scan with the missing cell moved to the front.
                c = cnt[miss, None]
                order = np.where(cols == 0, c - 1,
                                 np.where(cols < c, cols - 1, cols))
                cum = np.cumsum(np.take_along_axis(tables[:, miss], order[None],
                                                   axis=2), axis=2)
                if check_oob:
                    # Rows counted with the missing cell from plain bins
                    # above every plain cell never go left here.
                    oob = hist.oob_upto[idx[miss]]
                    oob[rows[:miss.size], c[:, 0] - 1] = hist.oob_exact[last[miss]]
                    oob = np.cumsum(np.take_along_axis(oob, order, axis=1), axis=1)
                    oob_total = oob_total[miss]
                pos, g = _best_prefix(cum, oob, oob_total, c[:, 0], w[miss],
                                      impw[miss], criterion, constraints,
                                      classification)
                thr = np.where(pos == 0, -1,
                               hist.bin[idx[miss, np.maximum(pos - 1, 0)]])
                p = pairs[miss]
                better = (g > gain[p]) | ((g == gain[p]) & (thr < threshold[p]))
                p = p[better]
                gain[p], threshold[p] = g[better], thr[better]
                missing_left[p] = True
                stats_left[:, p] = cum[:, rows[:miss.size][better], pos[better]]
                continue

            # Categorical: bins sorted by class proportion (one scan per
            # class beyond binary) or by mean; padding sorts last.  Oob rows
            # in bins without itb rows stay right.
            exact = hist.oob_exact[idx] if check_oob else None
            w_bins = _channel_sum(tables) if classification else tables[0]
            for channel in (range(n_classes) if n_classes > 2 else (1,)):
                prop = np.where(cols < cnt[:, None], tables[channel] / w_bins,
                                np.inf)
                order = np.argsort(prop, axis=1, kind="stable")
                cum = np.cumsum(np.take_along_axis(tables, order[None], axis=2),
                                axis=2)
                oob = (np.cumsum(np.take_along_axis(exact, order, axis=1), axis=1)
                       if check_oob else None)
                pos, g = _best_prefix(cum, oob, oob_total, cnt, w, impw,
                                      criterion, constraints, classification)
                chosen = cols <= pos[:, None]
                mask = np.zeros((pairs.shape[0], n_bins), dtype=bool)
                mask[np.broadcast_to(rows[:, None], idx.shape)[chosen],
                     hist.bin[np.take_along_axis(idx, order, axis=1)[chosen]]] = True
                better = (g > gain[pairs]) | ((g == gain[pairs])
                                              & _lex_less(mask, cat_left[pairs]))
                p = pairs[better]
                gain[p] = g[better]
                cat_left[p] = mask[better]
                stats_left[:, p] = cum[:, rows[better], pos[better]]

    per_node = gain.reshape(n, m)
    node = np.flatnonzero(per_node.max(axis=1) > -np.inf)
    # The first maximum is the lowest feature.
    pair = node * m + np.argmax(per_node[node], axis=1)
    left = left_rows(threshold[pair], missing_bin[pair], missing_left[pair],
                     (n_bins + 7) // 8)
    if cat_left is not None:
        cat = is_cat[pair]
        left[cat] = np.packbits(cat_left[pair[cat]], axis=1, bitorder="little")
    return NodeSplits(node=node, feature=feat[pair], gain=gain[pair],
                      threshold=threshold[pair], missing_left=missing_left[pair],
                      left=left, stats_left=stats_left[:, pair].T)
