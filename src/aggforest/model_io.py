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

Format version 6 stores the forest as one node table, tree after tree, each
tree breadth first, with one array per field for the whole forest, each
holding only the nodes its field means something at:

- ``internal``: one bit per node, set at internal nodes, eight to a byte in
  little-endian bit order;
- per internal node: ``feature``, ``threshold`` and ``missing_left``, and
  per categorical split a row of ``masks``, the bins that go left packed
  like ``internal``;
- per leaf: ``stats``, its class weights, or for regression its weight and
  weighted label sum; an internal node's are the sums of its children's;
- per node, with aggregation on: ``oob_loss``, which does not add up;
- per tree: ``roots``, ``oob_loss_mean`` and ``n_oob``, the tree's count of
  out-of-bag rows; the config's n_trees trees, or that many per class
  under one-versus-rest, whose index and class follow from their order;
- per feature i: ``f<i>.thresholds``, empty for a categorical feature.

Load rebuilds the rest through ``Tree.from_heap``, as fitting does: the
child links from breadth-first order, then parents, depths, mask ids and
the internal nodes' stats, the forecasts from the stats, and the log
weights from the oob losses and the temperature; the trees' bin layout is
the mapper's.  Versions 1 and 2, which stored every field at every node,
version 3, which also stored each split's gain, version 4, which also
stored each leaf's in-bag and out-of-bag row counts, and version 5, which
also stored each regression leaf's sum w y^2 and each tree's index and
class, are refused.
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
from .tree import LEAF_FIELDS, SPLIT_FIELDS, STORED, Tree

MAGIC = b"AGFOREST"
FORMAT_VERSION = 6

_PER_TREE = ("roots", "oob_loss_mean", "n_oob")

# Arrays that load scatters into new columns; it keeps copies of the others,
# not views of the file's bytes.
_SCATTERED = ("internal",) + SPLIT_FIELDS + LEAF_FIELDS


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

    stored = forest.table.stored()
    stored["internal"] = np.packbits(stored["internal"], bitorder="little")
    for name in STORED:
        put(name, stored[name])
    put("oob_loss", forest.state.oob_loss)
    for name in _PER_TREE:
        put(name, getattr(forest, name))

    header = json.dumps(meta, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    payload = struct.pack("<Q", len(header)) + header + b"".join(blobs)
    digest = hashlib.sha256(payload).digest()
    _write_atomically(path, MAGIC + struct.pack("<I", FORMAT_VERSION) + digest
                      + struct.pack("<Q", len(payload)) + payload)


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
        count = math.prod(shape)
        arr = np.frombuffer(body, dtype=dt, count=count, offset=offset)
        arrays[name] = (arr.reshape(shape) if name in _SCATTERED
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

    classes = None
    if meta["classes"] is not None:
        classes = np.array(meta["classes"]["values"],
                           dtype=np.dtype(meta["classes"]["dtype"]))
    temperature = meta["temperature"]
    if not (type(temperature) in (int, float) and 0 <= temperature < math.inf):
        raise ModelFormatError(f"temperature {temperature!r} is not a finite "
                               "number >= 0")
    n_classes = 0 if classes is None else classes.shape[0]
    try:
        if (arrays["oob_loss"] is None) == config.aggregation:
            raise ValueError("oob_loss is stored exactly when aggregation "
                             "is on")
        # A tree of I internal nodes has 2I + 1 nodes.
        n = 2 * arrays["feature"].shape[0] + arrays["roots"].shape[0]
        if arrays["internal"].shape != ((n + 7) // 8,):
            raise ValueError(f"internal is not one bit per node of {n}")
        internal = np.unpackbits(arrays["internal"], count=n,
                                 bitorder="little").view(bool)
        per_tree = {name: arrays[name] for name in _PER_TREE}
        # Sums and forecasts of tampered numbers may overflow; the checks
        # refuse what is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            table = Tree.from_heap(
                config.task, 2 if config.one_vs_rest else n_classes,
                mapper.table, arrays["roots"], internal, arrays["masks"],
                **{name: arrays[name] for name in SPLIT_FIELDS + LEAF_FIELDS})
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
    if (n_oob.shape != roots.shape or n_oob.dtype.kind != "i"
            or not (n_oob >= 1).all()):
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
