"""Model file format and CSV ingestion.

A model file is:

    bytes 0..7    magic "AGFOREST"
    bytes 8..11   format version, uint32 little-endian
    bytes 12..43  SHA-256 of the payload
    bytes 44..51  payload length, uint64 little-endian
    bytes 52..    payload

The payload is one JSON header (length-prefixed with a uint64) holding all
scalar fields, the bin layout of every feature among them, plus a manifest
of the numpy arrays that follow, then the raw array bytes concatenated in
manifest order, every array little-endian and C-contiguous.  Everything
about the encoding is deterministic, so two equal forests serialize to
identical bytes.

Format version 7 stores the forest as one node table, tree after tree, each
tree breadth first, with one array per field for the whole forest, each
holding only the nodes its field means something at, in the narrowest type
that holds it exactly:

- ``internal``: one bit per node, set at internal nodes, eight to a byte in
  little-endian bit order;
- per internal node: ``feature``, in the narrowest unsigned type that holds
  the count of features less one;
- per continuous split: ``threshold`` plus one, in the narrowest unsigned
  type that holds max_bins less one (one byte up to 256 bins), and a bit of
  ``missing_left``, packed like ``internal``.  A categorical split stores
  neither: its threshold is -2, and its mask holds the missing bin;
- per categorical split: a row of ``masks``, the bins that go left packed
  like ``internal`` in as many bytes as the split feature's bins take; the
  rows of the first categorical feature's splits in node order, then those
  of the next feature;
- per leaf: ``stats``, its class weights, or for regression its weight,
  which are whole numbers (bootstrap draw counts), in the narrowest
  unsigned type that holds their maximum; for regression also
  ``label_sum``, its weighted label sum; an internal node's are the sums of
  its children's;
- per node, with aggregation on: ``oob_loss``, which does not add up;
- per tree: ``roots``, ``oob_loss_mean`` and ``n_oob``, the tree's count of
  out-of-bag rows; the config's n_trees trees, or that many per class
  under one-versus-rest, whose index and class follow from their order;
- per feature i: ``f<i>.thresholds``, empty for a categorical feature.

The other arrays have one type each: float64 for the sums, losses and
thresholds, int64 for the roots and counts, uint8 for the bits and masks.

Load rebuilds the rest through ``Tree.from_heap``, as fitting does: the
child links from breadth-first order, then parents, depths and the
internal nodes' stats, the forecasts from the stats, and the log weights
from the oob losses and the temperature; the trees keep the split rows and
masks as stored, and their bin layout is the mapper's.  First it checks
each array's type, which the header fixes for all but ``stats``, and
widens the split and leaf fields to the types fitting works in: int32
thresholds, -2 at each categorical split, bool missing_left, masks as wide
as the widest feature's bins and float64 stats.  Header values and stored
values that fit never writes, such as y bounds out of order, a threshold
past its feature's bins or mask bits past them, are refused.  Versions 1
and 2, which stored every field at every node, version 3, which also
stored each split's gain, version 4, which also stored each leaf's in-bag
and out-of-bag row counts, version 5, which also stored each regression
leaf's sum w y^2 and each tree's index and class, and version 6, which
stored features and thresholds of every split as int32, one byte per
missing_left, float64 stats and every mask as wide as the widest
feature's, are refused.
"""

from __future__ import annotations

import io
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .aggregation import state_from_losses
from .binning import (KEY_TYPES, BinMapper, FeatureBins, FeatureKind,
                      category_key_type)
from .forest import Forest, TrainConfig
from .tree import STORED, Tree

MAGIC = b"AGFOREST"
FORMAT_VERSION = 7

_PER_TREE = ("roots", "oob_loss_mean", "n_oob")

# Arrays that load widens into new ones; it keeps copies of the others, not
# views of the file's bytes.
_WIDENED = STORED + ("label_sum",)

# The type of each array that keeps one whatever the forest, by its name
# after any "f<i>." prefix; the others' follow from the header or, for
# stats, from their maximum.
_FIXED = {"thresholds": "<f8", "label_sum": "<f8", "oob_loss": "<f8",
          "roots": "<i8", "oob_loss_mean": "<f8", "n_oob": "<i8"}

# float64 holds every whole number up to this one.
_EXACT = 2 ** 53


class ModelFormatError(ValueError):
    """The file is not a readable model of this format version."""


def _le(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.byteorder == ">":
        return arr.astype(arr.dtype.newbyteorder("<"))
    return np.ascontiguousarray(arr)


def save_model(forest: Forest, path: str) -> None:
    """Write the forest atomically (temp file + rename)."""
    import hashlib
    import json

    meta: dict = {
        "config": vars(forest.config).copy(),
        "temperature": forest.temperature_,
        "y_min": forest.y_min_,
        "y_max": forest.y_max_,
        "feature_names": forest.feature_names,
        "max_bins": forest.mapper.max_bins,
        "features": [],
        "arrays": [],
    }
    if forest.classes_ is None:
        meta["classes"] = None
    else:
        meta["classes"] = {"dtype": forest.classes_.dtype.str,
                           "values": forest.classes_.tolist()}

    blobs: list[bytes] = []

    def put(name: str, arr: np.ndarray | None):
        if arr is None:
            meta["arrays"].append([name, None, None])
            return
        arr = _le(np.asarray(arr))
        meta["arrays"].append([name, arr.dtype.str, list(arr.shape)])
        blobs.append(arr.tobytes())

    for j, fb in enumerate(forest.mapper.features):
        cats = fb.categories or {}
        # Load casts every key to the one type, so all keys must have it.
        try:
            key_type = category_key_type(cats, repr(forest.feature_names[j])
                                         if forest.feature_names else j)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        meta["features"].append({
            "kind": fb.kind.value,
            "n_bins": fb.n_bins,
            "has_missing": fb.has_missing,
            "overflow_bin": fb.overflow_bin,
            "key_type": key_type,
            "categories": [[v, b] for v, b in cats.items()],
        })
        put(f"f{j}.thresholds",
            fb.thresholds if fb.thresholds is not None else np.empty(0))

    for name, arr in _encode(forest).items():
        put(name, arr)
    put("oob_loss", forest.state.oob_loss)
    for name in _PER_TREE:
        put(name, getattr(forest, name))

    header = json.dumps(meta, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    payload = struct.pack("<Q", len(header)) + header + b"".join(blobs)
    digest = hashlib.sha256(payload).digest()
    _write_atomically(path, MAGIC + struct.pack("<I", FORMAT_VERSION) + digest
                      + struct.pack("<Q", len(payload)) + payload)


def _uint(top: int) -> np.dtype:
    """The narrowest little-endian unsigned integer type that holds 0..top."""
    return np.dtype(np.min_scalar_type(top)).newbyteorder("<")


def _encode(forest: Forest) -> dict[str, np.ndarray | None]:
    """The table's split and leaf fields as the file stores them, each in
    the narrowest type that holds it exactly (see the module docstring)."""
    s = forest.table.stored()
    layout = forest.mapper.table
    cont = s["threshold"] != -2
    on = s["feature"][~cont]
    masks = [s["masks"][on == j, :(int(layout.n_bins[j]) + 7) // 8]
             for j in layout.categorical]
    regression = forest.config.task == "regression"
    counts = s["stats"][:, :1] if regression else s["stats"]
    top = counts.max(initial=0.0)
    # NaN fails every comparison, so the check asks for the good case.
    if not (counts.min(initial=0.0) >= 0 and top <= _EXACT
            and (counts == np.floor(counts)).all()):
        raise ModelFormatError("stats hold weights that are not whole "
                               "numbers in [0, 2^53]")
    return {
        "internal": np.packbits(s["internal"], bitorder="little"),
        "feature": s["feature"].astype(_uint(layout.n_bins.shape[0] - 1)),
        "threshold": (s["threshold"][cont] + 1).astype(
            _uint(forest.mapper.max_bins - 1)),
        "missing_left": np.packbits(s["missing_left"][cont],
                                    bitorder="little"),
        "masks": np.concatenate([m.ravel() for m in masks]
                                + [np.zeros(0, np.uint8)]),
        "stats": counts.astype(_uint(int(top))),
        "label_sum": s["stats"][:, 1] if regression else None,
    }


def _write_atomically(path: str, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> Forest:
    import hashlib
    import json

    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 52 or raw[:8] != MAGIC:
        raise ModelFormatError(f"{path} is not a model file")
    version = struct.unpack_from("<I", raw, 8)[0]
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version}, expected {FORMAT_VERSION}")
    digest = raw[12:44]
    (length,) = struct.unpack_from("<Q", raw, 44)
    payload = memoryview(raw)[52:]    # slices share the bytes, no copies
    if len(payload) != length:
        raise ModelFormatError(
            f"truncated model file: payload is {len(payload)} bytes, header says {length}")
    if hashlib.sha256(payload).digest() != digest:
        raise ModelFormatError("model file checksum mismatch; file is corrupted")

    (hlen,) = struct.unpack_from("<Q", payload, 0)
    try:
        meta = json.loads(str(payload[8:8 + hlen], "utf-8"))
        return _forest_from(meta, payload[8 + hlen:])
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"model header lacks the key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model header: {exc}") from None


def _forest_from(meta: dict, body) -> Forest:
    arrays: dict[str, np.ndarray | None] = {}
    offset = 0
    for name, dtype, shape in meta["arrays"]:
        if dtype is None:
            arrays[name] = None
            continue
        dt = np.dtype(dtype)
        want = _FIXED.get(name.rpartition(".")[2])
        if want is not None and dt != want:
            raise ModelFormatError(f"{name} is stored as {dt.str}, not {want}")
        count = math.prod(shape)
        arr = np.frombuffer(body, dtype=dt, count=count, offset=offset)
        arrays[name] = (arr.reshape(shape) if name in _WIDENED
                        else arr.reshape(shape).copy())
        offset += count * dt.itemsize

    config = TrainConfig(**meta["config"])
    features = []
    for i, fm in enumerate(meta["features"]):
        thresholds = arrays[f"f{i}.thresholds"]
        kind = FeatureKind(fm["kind"])
        cast = KEY_TYPES[fm["key_type"]]
        cats = {cast(v): b for v, b in fm["categories"]}
        if len(cats) != len(fm["categories"]):
            raise ModelFormatError(
                f"feature {i}: categories collide as {fm['key_type']} keys")
        features.append(FeatureBins(
            kind=kind,
            n_bins=fm["n_bins"],
            thresholds=thresholds if kind is FeatureKind.CONTINUOUS else None,
            categories=cats,
            has_missing=fm["has_missing"],
            overflow_bin=fm["overflow_bin"],
        ))
    mapper = BinMapper(max_bins=meta["max_bins"], features=features)
    try:
        mapper.validate()
    except ValueError as exc:
        raise ModelFormatError(f"bin mapper: {exc}") from None
    if meta["max_bins"] != config.max_bins:
        raise ModelFormatError(f"max_bins {meta['max_bins']!r} is not the "
                               f"config's {config.max_bins}")
    names = meta["feature_names"]
    distinct = type(names) is list and len(set(names)) == len(names)
    if names is not None and not (distinct and len(names) == len(features)):
        raise ModelFormatError(f"feature_names are not {len(features)} "
                               "distinct names, one per feature")

    classes = None
    if meta["classes"] is not None:
        classes = np.array(meta["classes"]["values"],
                           dtype=np.dtype(meta["classes"]["dtype"]))
    ascending = classes is not None and classes.ndim == 1 and (
        classes.shape[0] >= 2 and (classes[1:] > classes[:-1]).all())
    if ascending != (config.task == "classification"):
        raise ModelFormatError("classes are not two or more distinct values "
                               "in ascending order, stored for "
                               "classification only")
    # NaN fails every comparison, so each check asks for the good case.
    temperature, low, high = meta["temperature"], meta["y_min"], meta["y_max"]
    if not (type(temperature) in (int, float) and 0 <= temperature < math.inf):
        raise ModelFormatError(f"temperature {temperature!r} is not a finite "
                               "number >= 0")
    if not (type(low) in (int, float) and type(high) in (int, float)
            and -math.inf < low <= high < math.inf):
        raise ModelFormatError(f"y_min {low!r} and y_max {high!r} are not "
                               "finite numbers in order")
    n_classes = 0 if classes is None else classes.shape[0]
    try:
        if (arrays["oob_loss"] is None) == config.aggregation:
            raise ValueError("oob_loss is stored exactly when aggregation "
                             "is on")
        k = 2 if config.one_vs_rest else n_classes
        stored = _decode(arrays, mapper, k)
        per_tree = {name: arrays[name] for name in _PER_TREE}
        # Sums and forecasts of tampered numbers may overflow; the checks
        # refuse what is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            table = Tree.from_heap(config.task, k, mapper.table,
                                   arrays["roots"], **stored)
            _check(table, arrays["oob_loss"], config, **per_tree)
            state = state_from_losses(table, arrays["oob_loss"], temperature,
                                      config.dirichlet)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    forest = Forest(config=config, mapper=mapper, table=table, state=state,
                    classes_=classes,
                    y_min_=meta["y_min"], y_max_=meta["y_max"],
                    feature_names=meta["feature_names"], **per_tree)
    if forest.roots.shape != forest.index.shape:
        raise ModelFormatError(
            f"{forest.roots.shape[0]} trees stored, not the "
            f"{forest.index.shape[0]} that n_trees={config.n_trees} gives"
            + (f" for each of {n_classes} classes" if config.one_vs_rest
               else ""))
    return forest


def _field(arrays: dict, name: str, dtype) -> np.ndarray:
    """The stored array ``name``; a ValueError unless save wrote it, as
    ``dtype``."""
    arr = arrays[name]
    if arr is None or arr.dtype != dtype:
        stored = "nothing" if arr is None else arr.dtype.str
        raise ValueError(f"{name} is stored as {stored}, not "
                         f"{np.dtype(dtype).str}")
    return arr


def _bits(arrays: dict, name: str, count: int, what: str) -> np.ndarray:
    """``count`` bools, one per ``what``, packed eight to a byte as save
    packs them; a ValueError if bits past them are set."""
    packed = _field(arrays, name, np.uint8)
    if packed.shape != ((count + 7) // 8,):
        raise ValueError(f"{name} does not hold one bit per {what}")
    if count % 8 and packed[-1] >> count % 8:
        raise ValueError(f"{name} sets bits past its {count} {what}s")
    return np.unpackbits(packed, count=count, bitorder="little").view(bool)


def _decode(arrays: dict, mapper: BinMapper, n_classes: int) -> dict:
    """What ``Tree.from_heap`` takes, in the types fitting works in, from
    the arrays ``_encode`` gives; a ValueError names a stored field of a
    type, shape or value that save never writes.  ``from_heap`` checks the
    rest: the trees' shapes, and that each split fits its feature."""
    n_bins = mapper.table.n_bins
    feature = _field(arrays, "feature", _uint(n_bins.shape[0] - 1))
    if feature.ndim != 1:
        raise ValueError("feature does not hold one row per internal node")
    if (feature >= n_bins.shape[0]).any():
        raise ValueError("feature index out of range")
    # A tree of I internal nodes has 2I + 1 nodes.
    internal = _bits(arrays, "internal",
                     2 * feature.shape[0] + arrays["roots"].shape[0], "node")

    # Split indexes, which scatter far faster than a mask of half the splits.
    at_cat = mapper.table.is_categorical.take(feature)
    cont, cat = np.flatnonzero(~at_cat), np.flatnonzero(at_cat)
    shifted = _field(arrays, "threshold", _uint(mapper.max_bins - 1))
    if shifted.shape != cont.shape:
        raise ValueError("threshold does not hold one row per continuous "
                         "split")
    threshold = np.full(feature.shape, -1, dtype=np.int32)
    threshold[cont] = shifted
    threshold -= 1
    missing_left = np.zeros(feature.shape, dtype=bool)
    missing_left[cont] = _bits(arrays, "missing_left", cont.shape[0],
                               "continuous split")

    # Each categorical feature's masks are one block of rows of its width.
    on = feature[cat]
    width = (n_bins + 7) // 8
    flat = _field(arrays, "masks", np.uint8)
    if flat.shape != (int(width[on].sum()),):
        raise ValueError("masks do not hold one row per categorical split, "
                         "as wide as its feature's bins")
    masks = np.zeros((on.shape[0], int(width.max())), dtype=np.uint8)
    at = 0
    for j in mapper.table.categorical:
        rows, w, used = np.flatnonzero(on == j), int(width[j]), n_bins[j] % 8
        block = flat[at:at + rows.shape[0] * w].reshape(-1, w)
        at += block.size
        if used and (block[:, -1] >> used).any():
            raise ValueError(f"masks set bits past the {n_bins[j]} bins of "
                             f"feature {j}")
        masks[rows, :w] = block

    # Weights are whole numbers, in the narrowest type of their maximum.
    stats = arrays["stats"]
    top = (int(stats.max(initial=0))
           if stats is not None and stats.dtype.kind == "u" else 0)
    stats = _field(arrays, "stats", _uint(top))
    if top > _EXACT:
        raise ValueError(f"stats of {top} are not exact in float64")
    label_sum = arrays["label_sum"]
    if (label_sum is None) != (n_classes > 0):
        raise ValueError("label_sum is stored exactly for regression")
    if label_sum is not None:
        if stats.shape != label_sum.shape + (1,):
            raise ValueError("stats and label_sum do not hold one weight and "
                             "one sum per leaf")
        stats = np.column_stack([stats[:, 0], label_sum])
    return dict(internal=internal, feature=feature, threshold=threshold,
                missing_left=missing_left, masks=masks, stats=stats)

def _check(table: Tree, oob_loss, config: TrainConfig, roots, oob_loss_mean,
           n_oob) -> None:
    """Refuse stored numbers that growth never gives: stats or losses that
    are not finite and >= 0, or stats of no weight, which a node without
    in-bag rows would hold; a tree without oob rows."""
    n = table.n_nodes
    stats = table.stats
    width = table.n_classes if config.task == "classification" else 2
    if stats.shape != (n, width):
        raise ValueError(f"stats do not have the shape {(n, width)}")
    # NaN fails every comparison, so each check asks for the good case.
    if config.task == "classification":
        good = (stats >= 0).all() and (stats @ np.ones(width) > 0).all()
    else:
        good = (stats[:, 0] > 0).all()
    if not (good and np.isfinite(stats).all()):
        raise ValueError("stats are not finite and >= 0 with a positive "
                         "total at every node")
    if oob_loss is not None and (oob_loss.shape != (n,) or not (
            (oob_loss >= 0) & (oob_loss < math.inf)).all()):
        raise ValueError("oob_loss is not one finite value >= 0 per node")
    if oob_loss_mean.shape != roots.shape or not (
            (oob_loss_mean >= 0) & (oob_loss_mean < math.inf)).all():
        raise ValueError("oob_loss_mean is not one finite value >= 0 per "
                         "tree")
    if n_oob.shape != roots.shape or not (n_oob >= 1).all():
        raise ValueError("n_oob is not one integer >= 1 per tree")


@dataclass
class DatasetSchema:
    """Which CSV columns mean what."""

    target: str | None = None
    categorical: set[str] = field(default_factory=set)
    ignore: set[str] = field(default_factory=set)


def _parse_float(cell: str, row: int, col: str) -> float:
    text = cell.strip()
    if text == "" or text.lower() == "nan":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"row {row}, column {col!r}: cannot parse {cell!r} as a number"
        ) from None


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """The header row and the data rows of a CSV file, in one read."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        return header, list(reader)


def load_csv(path: str, schema: DatasetSchema):
    """Read a CSV with a header row.

    Returns (columns, feature_names, kinds, target_values).  Continuous cells
    parse as floats with empty or "nan" meaning missing; categorical cells
    stay strings with the empty string meaning missing.  Target values come
    back as raw strings (the caller knows the task) and must be present in
    every row.
    """
    return parse_csv(path, *read_csv(path), schema)


def parse_csv(path: str, header: list[str], rows: list[list[str]],
              schema: DatasetSchema):
    """``load_csv`` of the file ``path`` that ``read_csv`` has read."""
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    twice = [c for i, c in enumerate(header) if c in header[:i]]
    if twice:
        raise ValueError(f"{path} names column {twice[0]!r} more than once")

    if schema.target is not None and schema.target not in header:
        raise ValueError(f"target column {schema.target!r} not in header")
    unknown = (schema.categorical | schema.ignore) - set(header)
    if unknown:
        raise ValueError(f"columns not in header: {sorted(unknown)}")

    feature_names = [c for c in header
                     if c != schema.target and c not in schema.ignore]
    if not feature_names:
        raise ValueError("no feature columns left after applying the schema")

    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"row {r}: expected {len(header)} cells, got {len(row)}")

    columns = []
    kinds = []
    for name in feature_names:
        j = header.index(name)
        if name in schema.categorical:
            col = np.array(
                [row[j].strip() if row[j].strip() != "" else None
                 for row in rows], dtype=object)
            kinds.append(FeatureKind.CATEGORICAL)
        else:
            col = np.array(
                [_parse_float(row[j], r, name)
                 for r, row in enumerate(rows, start=2)], dtype=np.float64)
            kinds.append(FeatureKind.CONTINUOUS)
        columns.append(col)

    target = None
    if schema.target is not None:
        j = header.index(schema.target)
        values = []
        for r, row in enumerate(rows, start=2):
            cell = row[j].strip()
            if cell == "":
                raise ValueError(f"row {r}: missing target value")
            values.append(cell)
        target = np.array(values, dtype=object)
    return columns, feature_names, kinds, target


def write_csv(path: str, header: list[str], rows) -> None:
    """Write rows atomically, UTF-8 with RFC-4180 quoting and CRLF endings."""
    import csv

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomically(path, text.getvalue().encode("utf-8"))
