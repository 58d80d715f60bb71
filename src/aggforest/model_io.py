"""Model file format and CSV ingestion.

A model file is:

    bytes 0..7    magic "AGFOREST"
    bytes 8..11   format version, uint32 little-endian
    bytes 12..43  SHA-256 of the payload
    bytes 44..51  payload length, uint64 little-endian
    bytes 52..    payload

The payload is one JSON header (length-prefixed with a uint64) holding all
scalar fields plus a manifest of the numpy arrays that follow, then the raw
array bytes concatenated in manifest order, every array little-endian and
C-contiguous.  Everything about the encoding is deterministic, so two
equal forests serialize to identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .aggregation import AggregationState
from .binning import BinMapper, FeatureBins, FeatureKind
from .forest import FittedTree, Forest, TrainConfig
from .tree import Tree

MAGIC = b"AGFOREST"
FORMAT_VERSION = 1

_TREE_ARRAYS = ("feature", "threshold", "missing_left", "mask_id", "masks",
                "left_child", "right_child", "parent", "depth", "gain",
                "itb_count", "itb_weight", "oob_count", "stats",
                "feature_n_bins", "feature_missing_bin")


class ModelFormatError(ValueError):
    """The file is not a readable model of this format version."""


def _le(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.byteorder == ">":
        return arr.astype(arr.dtype.newbyteorder("<"))
    return np.ascontiguousarray(arr)


_KEY_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


def _encode_categories(cats: dict) -> tuple[str, list]:
    if not cats:
        return "str", []
    kind = type(next(iter(cats)))
    for name, t in _KEY_TYPES.items():
        if kind is t:
            return name, [[v, b] for v, b in cats.items()]
    raise ModelFormatError(
        f"categorical values of type {kind.__name__} cannot be serialized")


def save_model(forest: Forest, path: str) -> None:
    """Write the forest atomically (temp file + rename)."""
    meta: dict = {
        "config": vars(forest.config).copy(),
        "temperature": forest.temperature_,
        "y_min": forest.y_min_,
        "y_max": forest.y_max_,
        "feature_names": forest.feature_names,
        "max_bins": forest.mapper.max_bins,
        "features": [],
        "trees": [],
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

    for fb in forest.mapper.features:
        key_type, cats = _encode_categories(fb.categories or {})
        meta["features"].append({
            "kind": fb.kind.value,
            "n_bins": fb.n_bins,
            "has_missing": fb.has_missing,
            "overflow_bin": fb.overflow_bin,
            "key_type": key_type,
            "categories": cats,
        })
    for i, fb in enumerate(forest.mapper.features):
        put(f"f{i}.thresholds",
            fb.thresholds if fb.thresholds is not None else np.empty(0))

    for i, b in enumerate(forest.trees):
        meta["trees"].append({
            "index": b.index,
            "class_id": b.class_id,
            "task": b.tree.task,
            "n_classes": b.tree.n_classes,
            "loss": b.state.loss,
            "state_temperature": b.state.temperature,
            "dirichlet": b.state.dirichlet,
            "oob_loss_mean": b.oob_loss_mean,
        })
        for name in _TREE_ARRAYS:
            put(f"t{i}.{name}", getattr(b.tree, name))
        put(f"t{i}.forecasts", b.state.forecasts)
        put(f"t{i}.oob_loss", b.state.oob_loss)
        put(f"t{i}.log_agg_weight", b.state.log_agg_weight)

    header = json.dumps(meta, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    payload = struct.pack("<Q", len(header)) + header + b"".join(blobs)
    digest = hashlib.sha256(payload).digest()
    out = (MAGIC + struct.pack("<I", FORMAT_VERSION) + digest
           + struct.pack("<Q", len(payload)) + payload)

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(out)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> Forest:
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
        arrays[name] = arr.reshape(shape).copy()
        offset += count * dt.itemsize

    config = TrainConfig(**meta["config"])
    features = []
    for i, fm in enumerate(meta["features"]):
        thresholds = arrays[f"f{i}.thresholds"]
        kind = FeatureKind(fm["kind"])
        key_type = _KEY_TYPES[fm["key_type"]]
        cats = {key_type(v): b for v, b in fm["categories"]}
        features.append(FeatureBins(
            kind=kind,
            n_bins=fm["n_bins"],
            thresholds=thresholds if kind is FeatureKind.CONTINUOUS else None,
            categories=cats,
            has_missing=fm["has_missing"],
            overflow_bin=fm["overflow_bin"],
        ))
    mapper = BinMapper(max_bins=meta["max_bins"], features=features)

    layout = (mapper.n_bins_per_feature().tolist(),
              [fb.missing_bin for fb in mapper.features],
              max((fb.n_bins for fb in features
                   if fb.kind is FeatureKind.CATEGORICAL), default=0))
    trees = []
    for i, tm in enumerate(meta["trees"]):
        tree = Tree(task=tm["task"], n_classes=tm["n_classes"],
                    **{name: arrays[f"t{i}.{name}"] for name in _TREE_ARRAYS})
        state = AggregationState(
            loss=tm["loss"],
            temperature=tm["state_temperature"],
            dirichlet=tm["dirichlet"],
            forecasts=arrays[f"t{i}.forecasts"],
            oob_loss=arrays[f"t{i}.oob_loss"],
            log_agg_weight=arrays[f"t{i}.log_agg_weight"],
        )
        try:
            tree.validate()
            _check_tree(tree, state, *layout)
        except ValueError as exc:
            raise ModelFormatError(f"tree {i}: {exc}") from None
        trees.append(FittedTree(tm["index"], tm["class_id"], tree, state,
                                tm["oob_loss_mean"]))

    classes = None
    if meta["classes"] is not None:
        classes = np.array(meta["classes"]["values"],
                           dtype=np.dtype(meta["classes"]["dtype"]))
    return Forest(config=config, mapper=mapper, trees=trees,
                  temperature_=meta["temperature"], classes_=classes,
                  y_min_=meta["y_min"], y_max_=meta["y_max"],
                  feature_names=meta["feature_names"])


def _check_tree(tree: Tree, state: AggregationState, n_bins: list,
                missing: list, widest: int) -> None:
    """Refuse what prediction would read past a node's bits or turn into a
    non-finite value.  A tree's bin layout must be the mapper's, since
    routing reads each split's bits at the codes ``transform`` gives, and
    every number of the aggregation state must be finite and in range."""
    if tree.feature_n_bins.tolist() != n_bins:
        raise ValueError("feature_n_bins differ from the bin mapper's")
    if tree.feature_missing_bin.tolist() != missing:
        raise ValueError("feature_missing_bin differs from the bin mapper's")
    if tree.masks.shape[1] < widest:
        raise ValueError("masks are narrower than the widest categorical "
                         "feature")
    n, temperature = tree.n_nodes, state.temperature
    if not (isinstance(temperature, (int, float))
            and 0 <= temperature < math.inf):
        raise ValueError(f"state temperature {temperature!r} is not a finite "
                         "number >= 0")
    forecasts = state.forecasts
    classification = tree.task == "classification"
    shape = (n, tree.n_classes) if classification else (n,)
    if forecasts is None or forecasts.shape != shape:
        raise ValueError(f"forecasts do not have the shape {shape}")
    if classification:
        # NaN fails the sign test and inf the sum test; a product with ones
        # sums short rows far faster than sum(axis=1).
        total = forecasts @ np.ones(tree.n_classes)
        if not (forecasts.min() > 0 and (np.abs(total - 1.0) <= 1e-9).all()):
            raise ValueError("class forecasts are not positive rows summing "
                             "to 1")
    elif not np.isfinite(forecasts).all():
        raise ValueError("forecasts are not all finite")
    loss, log_w = state.oob_loss, state.log_agg_weight
    if (loss is None) != (log_w is None):
        raise ValueError("oob losses and log weights come only together")
    if loss is None:
        return
    if loss.shape != (n,) or log_w.shape != (n,):
        raise ValueError(f"oob_loss or log_agg_weight is not one value per "
                         f"node of {n}")
    if not ((loss >= 0) & (loss < math.inf)).all():
        raise ValueError("oob_loss is not all finite and >= 0")
    if not np.isfinite(log_w).all():
        raise ValueError("log_agg_weight is not all finite")
    # A node's weight averages its own exp(-temperature * loss) with its
    # children's product, all at most 1: so it is at most 1 and at least
    # half its own, up to rounding relative to the exponent.
    own = -temperature * loss
    if (log_w > 0).any() or (
            own - log_w > math.log(2.0) + 1e-9 * np.abs(own)).any():
        raise ValueError("log_agg_weight is not within [own weight - log 2, "
                         "0]")


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


def load_csv(path: str, schema: DatasetSchema):
    """Read a CSV with a header row.

    Returns (columns, feature_names, kinds, target_values).  Continuous cells
    parse as floats with empty or "nan" meaning missing; categorical cells
    stay strings with the empty string meaning missing.  Target values come
    back as raw strings (the caller knows the task) and must be present in
    every row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")

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
    """Write rows atomically with RFC-4180 quoting."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
