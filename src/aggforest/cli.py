"""Command-line interface: train, predict, evaluate, verify, benchmarks."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .aggregation import predict_aggregated
from .binning import FeatureKind
from .datasets import SIGNAL_NAMES, add_noise, make_toy_classification, signal_grid
from .forest import Forest, TrainConfig, fit
from .metrics import log_loss, mse, multiclass_auc, roc_auc
from .model_io import (
    DatasetSchema,
    ModelFormatError,
    load_csv,
    load_model,
    parse_csv,
    read_csv,
    save_model,
    write_csv,
)
from .reference import (
    aggregate_identity_error,
    max_bound_violation,
    random_grown_instance,
    synthetic_state,
    synthetic_tree,
)

IDENTITY_TOLERANCE = 1e-10
BOUND_TOLERANCE = 1e-9


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _fmt(value: float) -> str:
    return repr(float(value))


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _tree_count_ladder(max_trees: int) -> list[int]:
    ladder = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
    counts = [m for m in ladder if m < max_trees]
    counts.append(max_trees)
    return counts


def _load_features_for_model(path: str, forest: Forest, target=None):
    """Read a CSV and return its columns in the model's feature order and
    its ``target`` cells as raw strings (None without a target)."""
    if forest.feature_names is None:
        raise ValueError(
            "model does not carry feature names; it was not trained from CSV")
    header, rows = read_csv(path)
    if target in forest.feature_names:
        raise ValueError(f"target column {target!r} is a feature of the model")
    missing = [n for n in forest.feature_names if n not in header]
    if missing:
        raise ValueError(f"{path} lacks feature columns: {missing}")
    categorical = {
        name for name, fb in zip(forest.feature_names, forest.mapper.features)
        if fb.kind is FeatureKind.CATEGORICAL
    }
    schema = DatasetSchema(
        target=target,
        categorical=categorical & set(header),
        ignore=set(header) - set(forest.feature_names),
    )
    columns, names, _, y_raw = parse_csv(path, header, rows, schema)
    order = [names.index(n) for n in forest.feature_names]
    return [columns[j] for j in order], y_raw


def _parse_regression_target(raw: np.ndarray) -> np.ndarray:
    out = np.empty(raw.shape[0], dtype=np.float64)
    for i, cell in enumerate(raw):
        try:
            out[i] = float(cell)
        except ValueError:
            raise ValueError(
                f"target value {cell!r} is not a number; regression needs "
                "numeric targets") from None
    return out


def _cmd_train(args) -> int:
    schema = DatasetSchema(
        target=args.target,
        categorical=set(_split_list(args.categorical)),
        ignore=set(_split_list(args.ignore)),
    )
    columns, names, kinds, y_raw = load_csv(args.data, schema)
    if args.task == "regression":
        y = _parse_regression_target(y_raw)
    else:
        y = np.array([str(v) for v in y_raw])
    config = TrainConfig(
        task=args.task,
        n_trees=args.n_trees,
        max_bins=args.max_bins,
        max_features=args.max_features,
        max_depth=args.max_depth,
        temperature=args.eta,
        dirichlet=args.dirichlet,
        aggregation=not args.no_aggregation,
        multiclass={"heuristic": "heuristic", "ovr": "one_vs_rest"}[args.multiclass],
        seed=args.seed,
    )
    start = time.perf_counter()
    forest = fit(columns, y, kinds, config, n_jobs=args.jobs,
                 feature_names=names)
    elapsed = time.perf_counter() - start
    save_model(forest, args.out)
    mean, std = forest.oob_loss_summary()
    kind = "aggregated oob loss" if config.aggregation else "oob loss"
    print(f"trained {len(forest.roots)} trees on {len(y)} rows "
          f"in {elapsed:.2f}s")
    print(f"mean per-tree {kind}: {mean:.6f} (std {std:.6f})")
    print(f"model written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    forest = load_model(args.model)
    columns, _ = _load_features_for_model(args.data, forest)
    if args.proba:
        proba = forest.predict_proba(columns)
        header = [f"proba_{c}" for c in forest.classes_]
        rows = [[_fmt(v) for v in row] for row in proba]
    else:
        pred = forest.predict(columns)
        header = ["prediction"]
        if forest.config.task == "regression":
            rows = [[_fmt(v)] for v in pred]
        else:
            rows = [[str(v)] for v in pred]
    write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def _encode_labels(y_raw: np.ndarray, classes: np.ndarray) -> np.ndarray:
    lookup = {str(c): i for i, c in enumerate(classes)}
    out = np.empty(y_raw.shape[0], dtype=np.int64)
    for i, v in enumerate(y_raw):
        key = str(v)
        if key not in lookup:
            raise ValueError(f"label {v!r} was never seen during training")
        out[i] = lookup[key]
    return out


def _cmd_evaluate(args) -> int:
    forest = load_model(args.model)
    columns, y_raw = _load_features_for_model(args.data, forest, args.target)
    n = y_raw.shape[0]

    if args.metric == "mse":
        if forest.config.task != "regression":
            raise ValueError("mse requires a regression model")
        pred = forest.predict(columns)
        value = mse(pred, _parse_regression_target(y_raw))
        print(f"metric=mse value={value:.6f} n={n}")
        return 0

    if forest.config.task != "classification":
        raise ValueError(f"{args.metric} requires a classification model")
    proba = forest.predict_proba(columns)
    y = _encode_labels(y_raw, forest.classes_)
    if args.metric == "logloss":
        value = log_loss(proba, y)
        print(f"metric=logloss value={value:.6f} n={n}")
        return 0
    if forest.n_classes == 2:
        value = roc_auc(proba[:, 1], y == 1)
        print(f"metric=auc value={value:.6f} n={n}")
    else:
        value, per_class = multiclass_auc(proba, y)
        print(f"metric=auc value={value:.6f} n={n}")
        for c, v in per_class.items():
            print(f"  class {forest.classes_[c]}: auc={v:.6f}")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if not 1 <= args.max_leaves <= 16:
        raise ValueError(f"--max-leaves must be in [1, 16], got {args.max_leaves}")
    worst_identity = 0.0
    for i in range(args.trials):
        task = "classification" if i % 2 == 0 else "regression"
        rng = np.random.default_rng((args.seed, 1, i))
        n_leaves = int(rng.integers(1, args.max_leaves + 1))
        n_classes = int(rng.integers(2, 5))
        tree = synthetic_tree(rng, n_leaves, task, n_classes=n_classes)
        temperature = float(rng.uniform(0.05, 2.0))
        state = synthetic_state(tree, rng, temperature,
                                max_loss=float(rng.uniform(0.5, 30.0)))
        x = np.array([rng.integers(0, 16)])
        fast = predict_aggregated(tree, state, x)
        err = aggregate_identity_error(tree, state, x, fast)
        worst_identity = max(worst_identity, err)
    id_ok = worst_identity <= IDENTITY_TOLERANCE
    print(f"aggregation identity: {args.trials} trials, "
          f"worst relative error {worst_identity:.3e} "
          f"({'ok' if id_ok else 'VIOLATED'})")

    worst_violation = -np.inf
    for i in range(args.trials):
        task = "classification" if i % 2 == 0 else "regression"
        tree, state, binned, labels, sample = random_grown_instance(
            _derived_seed(args.seed, 2, i), task=task)
        violation = max_bound_violation(tree, state, binned.entries, labels,
                                        sample.oob_indices)
        worst_violation = max(worst_violation, violation)
    bound_ok = worst_violation <= BOUND_TOLERANCE
    print(f"pruning-competitive bound: {args.trials} trials, "
          f"worst violation {worst_violation:.3e} "
          f"({'ok' if bound_ok else 'VIOLATED'})")
    return 0 if (id_ok and bound_ok) else 1


def _binary_or_ovr_auc(forest: Forest, columns, y: np.ndarray,
                       max_trees: int) -> float:
    proba = forest.predict_proba(columns, max_trees=max_trees)
    if forest.n_classes == 2:
        return roc_auc(proba[:, 1], y == 1)
    return multiclass_auc(proba, y)[0]


def _cmd_bench_trees(args) -> int:
    if not 0 < args.test_fraction < 1:
        raise ValueError("--test-fraction must be in (0, 1), got "
                         f"{args.test_fraction}")
    schema = DatasetSchema(target=args.target,
                           categorical=set(_split_list(args.categorical)))
    columns, names, kinds, y_raw = load_csv(args.data, schema)
    y = np.array([str(v) for v in y_raw])
    n = y.shape[0]
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(args.test_fraction * n)))
    if n_test >= n:
        raise ValueError(f"--test-fraction {args.test_fraction} leaves no "
                         f"training row of {n}")
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    cols_train = [c[train_idx] for c in columns]
    cols_test = [c[test_idx] for c in columns]
    classes, y_enc = np.unique(y, return_inverse=True)
    y_train, y_test = y[train_idx], y_enc[test_idx]

    counts = _tree_count_ladder(args.max_trees)
    rows = []
    for aggregation in (True, False):
        config = TrainConfig(task="classification", n_trees=args.max_trees,
                             aggregation=aggregation, seed=args.seed)
        forest = fit(cols_train, y_train, kinds, config, n_jobs=args.jobs,
                     feature_names=names)
        for m in counts:
            auc = _binary_or_ovr_auc(forest, cols_test, y_test, m)
            rows.append([m, "on" if aggregation else "off", _fmt(auc)])
    rows.sort(key=lambda r: (r[0], r[1]))
    write_csv(args.out, ["n_trees", "aggregation", "auc"], rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_bench_signals(args) -> int:
    signals = _split_list(args.signals)
    for s in signals:
        if s not in SIGNAL_NAMES:
            raise ValueError(f"unknown signal {s!r}")
    snrs = [float(s) for s in _split_list(args.snr)]
    rows = []
    for si, signal in enumerate(signals):
        t, clean = signal_grid(signal, args.n)
        X = [t]
        for ki, snr in enumerate(snrs):
            for r in range(args.repeats):
                noisy = add_noise(clean, snr,
                                  seed=_derived_seed(args.seed, si, ki, r))
                for aggregation in (True, False):
                    config = TrainConfig(
                        task="regression", n_trees=args.trees,
                        aggregation=aggregation,
                        temperature=args.eta if aggregation else None,
                        seed=_derived_seed(args.seed, si, ki, r, 1))
                    forest = fit(X, noisy, [FeatureKind.CONTINUOUS], config,
                                 n_jobs=args.jobs)
                    err = mse(forest.predict(X), clean)
                    rows.append([signal, _fmt(snr), r,
                                 "on" if aggregation else "off", _fmt(err)])
    write_csv(args.out, ["signal", "snr", "repeat", "aggregation", "mse"], rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_make_data(args) -> int:
    if args.kind == "toy":
        X, y = make_toy_classification(args.n, seed=args.seed)
        header = ["x1", "x2", "label"]
        rows = [[_fmt(X[i, 0]), _fmt(X[i, 1]), str(int(y[i]))]
                for i in range(args.n)]
    else:
        t, clean = signal_grid(args.kind, args.n)
        values = (clean if args.snr is None
                  else add_noise(clean, args.snr, seed=args.seed))
        header = ["t", "y"]
        rows = [[_fmt(t[i]), _fmt(values[i])] for i in range(args.n)]
    write_csv(args.out, header, rows)
    print(f"wrote {args.n} rows to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggforest",
        description="Random forests with exact exponential aggregation "
                    "over all prunings of each tree.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a forest on a CSV file")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--task", choices=["classification", "regression"],
                   default="classification")
    p.add_argument("--categorical", default="",
                   help="comma-separated categorical column names")
    p.add_argument("--ignore", default="",
                   help="comma-separated columns to drop")
    p.add_argument("--n-trees", type=int, default=10)
    p.add_argument("--max-bins", type=int, default=256)
    p.add_argument("--max-features", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--eta", type=float, default=None,
                   help="aggregation temperature (default: task-specific)")
    p.add_argument("--dirichlet", type=float, default=0.5)
    p.add_argument("--no-aggregation", action="store_true")
    p.add_argument("--multiclass", choices=["heuristic", "ovr"],
                   default="heuristic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict rows of a CSV file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--proba", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a model against labels")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--metric", choices=["auc", "logloss", "mse"],
                   required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "verify",
        help="check the aggregation identity and the pruning bound")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-leaves", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench-trees",
                       help="AUC vs tree count, aggregation on and off")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--categorical", default="")
    p.add_argument("--max-trees", type=int, default=10)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench_trees)

    p = sub.add_parser("bench-signals",
                       help="denoising MSE on the benchmark signals")
    p.add_argument("--signals", default="doppler,heavisine")
    p.add_argument("--snr", default="0.5,1")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--eta", type=float, default=1.0,
                   help="aggregation temperature for the benchmark; the "
                        "range-based training default is too cold to show "
                        "the smoothing effect on these signals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench_signals)

    p = sub.add_parser("make-data", help="write a synthetic dataset as CSV")
    p.add_argument("--kind", choices=("toy",) + SIGNAL_NAMES, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--snr", type=float, default=None,
                   help="add noise at this signal-to-noise ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_data)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
