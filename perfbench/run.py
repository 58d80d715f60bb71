"""aggforest benchmark: fit, predict and load on one seeded workload.

    python3 perfbench/run.py --workload signals --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one caller, closed loop, ``n_jobs=1``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` fits once untraced, then fits, predicts, saves and loads once
with every public layer function wrapped (see tracer.py), and reports
per-layer self times and counts.  Both modes check the outputs; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, model sha256,
counts, checks) goes to ``.bench_out/``.  The exit code is 0 only when every
operation succeeded and every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, so one run is one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Single-row calls: at least this many held-out rows, each called once or more.
SINGLE_ROW_CALLS = 200
REFERENCE_ROWS = 32
REFERENCE_TOL = 1e-10
PROBA_SUM_TOL = 1e-9
COVERAGE_TOL = 0.05
# Loads are far cheaper than batch predicts; interleave several per predict.
LOADS_PER_PREDICT = 4

try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim    # glibc only
except (AttributeError, OSError):
    _MALLOC_TRIM = None


def settle() -> None:
    """Give every timed operation the same start: no garbage left to collect
    and no free heap pages kept from earlier operations, so its allocations
    fault in fresh pages as they would in a new process.  Without the trim a
    load takes about 9 or about 19 ms depending on what ran before it."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Ledger:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label, fn, check=None, fresh=True):
        """Time fn(), after settle() when fresh; on an exception or a failed
        check the op counts as failed.  Returns (result, seconds), or
        (None, None) if fn raised."""
        self.attempted += 1
        if fresh:
            settle()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self._fail(label, traceback.format_exc())
            return None, None
        seconds = time.perf_counter() - t0
        if check is not None:
            try:
                problems = check(result)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                self._fail(label, "; ".join(problems))
        return result, seconds

    def check(self, label, problems):
        """A check that is not tied to one timed operation."""
        self.attempted += 1
        if problems:
            self._fail(label, "; ".join(problems))

    def _fail(self, label, message):
        self.failed += 1
        self.problems.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", file=sys.stderr)


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports aggforest."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import aggforest"],
                   env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- output checks ---------------------------------------------------------

def batch_problems(w, forest, pred, y_train, entries_sample, sample):
    """Checks of one batch prediction against the task's invariants and, with
    aggregation on, against the single-row reference fold over every tree."""
    from aggforest.aggregation import predict_aggregated

    problems = []
    if not np.isfinite(pred).all():
        problems.append("non-finite prediction")
    if w.task == "classification":
        worst = float(np.abs(pred.sum(axis=1) - 1.0).max())
        if worst > PROBA_SUM_TOL:
            problems.append(f"probability rows sum to 1 +- {worst:.3g}")
    else:
        lo, hi = float(y_train.min()), float(y_train.max())
        if pred.min() < lo or pred.max() > hi:
            problems.append("regression prediction outside the training range")
    if forest.config.aggregation:
        ref = np.mean([[predict_aggregated(b.tree, b.state, x)
                        for x in entries_sample] for b in forest.trees], axis=0)
        if w.task == "regression":
            ref = np.clip(ref, forest.y_min_, forest.y_max_)
        gap = float(np.abs(ref - pred[sample]).max())
        if gap > REFERENCE_TOL:
            problems.append(f"batch differs from the reference fold by {gap:.3g}")
    return problems


def predictor(w, forest):
    return forest.predict_proba if w.task == "classification" else forest.predict


def test_loss(w, pred) -> float:
    if w.task == "classification":
        return float(-np.log(pred[np.arange(pred.shape[0]), w.y_test]).mean())
    return float(((pred - w.y_test) ** 2).mean())


def spread_rows(w, k):
    """k held-out row ids evenly spaced over the held-out set."""
    return np.linspace(0, w.y_test.shape[0] - 1, k).round().astype(np.int64)


def single_row_calls(ledger, w, forest, batch, rows, until=None):
    """Sequential one-row predictions of `rows` in turn, each checked against
    its batch row; with `until`, stops after the first call that ends past
    that clock time.  The heap is settled once before the sequence, not
    between calls.  Returns the call times and the number of calls."""
    settle()
    times, calls = [], 0
    for i in rows:
        cols = [c[i:i + 1] for c in w.test_cols]
        want = batch[i]
        _, dt = ledger.run(
            "predict1", lambda: predictor(w, forest)(cols),
            lambda got: [] if np.array_equal(got[0], want)
            else [f"row {i} differs from its batch row"], fresh=False)
        calls += 1
        if dt is not None:
            times.append(dt)
        if until is not None and time.perf_counter() >= until:
            break
    return times, calls


# -- untraced run ----------------------------------------------------------

def round_block(ledger, w, forest, y_train, model_path, rows, sample,
                block_end, predict_times, single_times, load_times):
    """One round's batch predicts, single-row calls and loads, each time
    appended to its list; returns the round's first batch prediction, or
    None.

    After a checked batch predict and a save/load round trip the round
    repeats, until block_end and until every row of `rows` has been called:
    single-row calls for as long as the last batch predict took, one batch
    predict, then LOADS_PER_PREDICT loads.  So all three are sampled over
    the whole block rather than in one burst, which a shift in host speed
    within the run would move as a whole."""
    import aggforest

    entries_sample = aggforest.transform([c[sample] for c in w.test_cols],
                                         forest.mapper).entries
    first, slice_s = ledger.run(
        "predict", lambda: predictor(w, forest)(w.test_cols),
        lambda p: batch_problems(w, forest, p, y_train, entries_sample, sample))
    if first is None:
        return None
    predict_times.append(slice_s)

    loaded, dt = ledger.run("load", lambda: aggforest.load_model(model_path))
    if loaded is not None:
        load_times.append(dt)
        _, dt = ledger.run(
            "predict", lambda: predictor(w, loaded)(w.test_cols),
            lambda p: [] if np.array_equal(p, first)
            else ["prediction after save/load differs"])
        if dt is not None:
            predict_times.append(dt)
    row_cycle = itertools.cycle(rows)
    calls = 0
    while calls < len(rows) or time.perf_counter() < block_end:
        times, n = single_row_calls(ledger, w, forest, first, row_cycle,
                                    until=time.perf_counter() + slice_s)
        single_times += times
        calls += n
        _, dt = ledger.run(
            "predict", lambda: predictor(w, forest)(w.test_cols),
            lambda p: [] if np.array_equal(p, first)
            else ["batch prediction not repeatable"])
        if dt is not None:
            predict_times.append(dt)
            slice_s = dt
        for _ in range(LOADS_PER_PREDICT):
            _, dt = ledger.run("load", lambda: aggforest.load_model(model_path))
            if dt is not None:
                load_times.append(dt)
    return first


def run_untraced(w, seconds, ledger, record):
    """Round r fits on training sample r, then spends its share of the time
    left in --seconds on single-row calls, batch predicts and loads (see
    round_block), so every metric samples the whole run.  Set-up is timed
    once before the first round and once after each round."""
    import aggforest

    setup = [measure_setup()]
    config = aggforest.TrainConfig(**w.config)
    rows = spread_rows(w, SINGLE_ROW_CALLS)
    sample = spread_rows(w, REFERENCE_ROWS)
    rounds = len(w.train)
    start = time.perf_counter()
    fit_times, predict_times, single_times, load_times = [], [], [], []
    shas, sizes, losses = [], [], []

    model_path = os.path.join(OUT_DIR, f"model-{w.name}-{os.getpid()}.agf")
    for r, (train_cols, y_train) in enumerate(w.train):
        forest, dt = ledger.run(
            "fit", lambda: aggforest.fit(train_cols, y_train, w.kinds, config))
        if forest is None:
            continue
        fit_times.append(dt)
        # The rounds still to come will fit for about as long as this one.
        left = seconds - (time.perf_counter() - start)
        block_end = (time.perf_counter()
                     + max(0.0, left - (rounds - r - 1) * dt) / (rounds - r))
        aggforest.save_model(forest, model_path)
        try:
            shas.append(sha256_of(model_path))
            sizes.append(os.path.getsize(model_path))
            first = round_block(ledger, w, forest, y_train, model_path,
                                rows[r::rounds], sample, block_end,
                                predict_times, single_times, load_times)
        finally:
            os.remove(model_path)
        if first is not None:
            losses.append(test_loss(w, first))
        setup.append(measure_setup())

    record.update(model_sha256=shas, setup_samples_s=setup,
                  fit_samples_s=fit_times, predict_samples_s=predict_times,
                  predict1_samples_s=single_times, load_samples_s=load_times,
                  test_loss_samples=losses)
    if not (fit_times and predict_times and single_times and load_times):
        return None
    single_ms = np.array(single_times) * 1e3
    return {
        "setup_s": (statistics.median(setup), "s"),
        "fit_s": (statistics.median(fit_times), "s"),
        "predict_rows_per_s": (w.y_test.shape[0]
                               / statistics.median(predict_times), "1/s"),
        "predict1_p50_ms": (float(np.percentile(single_ms, 50)), "ms"),
        "predict1_p95_ms": (float(np.percentile(single_ms, 95)), "ms"),
        "load_s": (statistics.median(load_times), "s"),
        "model_bytes": (statistics.median(sizes), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "test_loss": (statistics.fmean(losses), "loss"),
    }


# -- traced run ------------------------------------------------------------

# (metric suffix, span name): every "_s" metric is summed self time.
FIT_TIMES = (
    ("binning.fit_bins_s", "binning.fit_bins"),
    ("binning.transform_s", "binning.transform"),
    ("sampling.bootstrap_s", "sampling.bootstrap"),
    ("sampling.generator_s", "sampling.generator"),
    ("sampling.subsample_features_s", "sampling.subsample_features"),
    ("splits.compute_histogram_s", "splits.compute_histogram"),
    ("splits.sibling_histogram_s", "splits.sibling_histogram"),
    ("splits.find_best_split_s", "splits.find_best_split"),
    ("splits.impurity_s", "splits.impurity"),
    ("tree.grow_tree_self_s", "tree.grow_tree"),
    ("tree.route_s", "tree.route"),
    ("aggregation.accumulate_oob_losses_s", "aggregation.accumulate_oob_losses"),
    ("aggregation.compute_log_agg_weights_s", "aggregation.compute_log_agg_weights"),
    ("aggregation.predict_fold_self_s", "aggregation.predict_fold"),
    ("aggregation.predict_leaf_only_s", "aggregation.predict_leaf_only"),
    ("forest.fit_self_s", "forest.fit"),
)
FIT_CALLS = (
    ("sampling.generator_calls", "sampling.generator"),
    ("splits.compute_histogram_calls", "splits.compute_histogram"),
    ("splits.sibling_histogram_calls", "splits.sibling_histogram"),
    ("splits.find_best_split_calls", "splits.find_best_split"),
    ("tree.route_calls", "tree.route"),
)
FIT_COUNTS = ("binning.cells", "tree.nodes", "tree.leaves", "tree.max_depth",
              "tree.route_row_steps", "aggregation.oob_node_visits")
PREDICT_TIMES = (
    ("binning.transform_s", "binning.transform"),
    ("tree.route_s", "tree.route"),
    ("aggregation.predict_fold_self_s", "aggregation.predict_fold"),
    ("aggregation.predict_leaf_only_s", "aggregation.predict_leaf_only"),
    ("forest.predict_self_s", ("forest.predict", "forest.predict_proba")),
)
PREDICT_CALLS = (("tree.route_calls", "tree.route"),)
PREDICT_COUNTS = ("binning.cells", "tree.route_row_steps")
IO_TIMES = (("model_io.save_s", "model_io.save"),
            ("model_io.load_s", "model_io.load"))


def layer_metrics(tracer, traced_fit_s, untraced_fit_s):
    layers = tracer.layer_times()

    def total(phase, names, field):
        names = (names,) if isinstance(names, str) else names
        return sum(layers.get((phase, n), (0.0, 0))[field] for n in names)

    out = {}
    for phase, times, calls, counts in (
            ("fit", FIT_TIMES, FIT_CALLS, FIT_COUNTS),
            ("predict", PREDICT_TIMES, PREDICT_CALLS, PREDICT_COUNTS),
            ("io", IO_TIMES, (), ())):
        for metric, names in times:
            out[f"{phase}.{metric}"] = (total(phase, names, 0), "s")
        for metric, names in calls:
            out[f"{phase}.{metric}"] = (total(phase, names, 1), "count")
        for metric in counts:
            out[f"{phase}.{metric}"] = (tracer.counts[phase][metric], "count")
    n_find = total("fit", "splits.find_best_split", 1)
    found = tracer.counts["fit"]["splits.splits_found"]
    out["fit.splits.split_found_ratio"] = (found / n_find if n_find else 0.0,
                                           "ratio")
    layer_sum = sum(out[f"fit.{m}"][0] for m, _ in FIT_TIMES)
    out["fit.traced_fit_s"] = (traced_fit_s, "s")
    out["fit.untraced_fit_s"] = (untraced_fit_s, "s")
    out["fit.trace_overhead_s"] = (traced_fit_s - untraced_fit_s, "s")
    out["fit.self_time_coverage"] = (layer_sum / traced_fit_s, "ratio")
    return out


def run_traced(w, seed, ledger, record):
    import aggforest
    from tracer import Tracer, self_test

    ledger.check("tracer self-test", self_test())
    config = aggforest.TrainConfig(**w.config)
    model_path = os.path.join(OUT_DIR, f"model-{w.name}-{os.getpid()}.agf")
    rows = spread_rows(w, SINGLE_ROW_CALLS)
    sample = spread_rows(w, REFERENCE_ROWS)
    train_cols, y_train = w.train[0]

    plain, untraced_fit_s = ledger.run(
        "fit", lambda: aggforest.fit(train_cols, y_train, w.kinds, config))
    if plain is None:
        return None
    aggforest.save_model(plain, model_path)
    untraced_sha = sha256_of(model_path)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase("fit"):
            forest, traced_fit_s = ledger.run(
                "fit", lambda: aggforest.fit(train_cols, y_train, w.kinds,
                                             config))
        if forest is None:
            return None
        with tracer.phase("predict"):
            pred, _ = ledger.run("predict",
                                 lambda: predictor(w, forest)(w.test_cols))
            if pred is None:
                return None
            single_row_calls(ledger, w, forest, pred, rows)
        with tracer.phase("io"):
            aggforest.save_model(forest, model_path)
            loaded, _ = ledger.run("load",
                                   lambda: aggforest.load_model(model_path))
    finally:
        tracer.uninstall()

    traced_sha = sha256_of(model_path)
    os.remove(model_path)
    ledger.check("traced model equals untraced model",
                 [] if traced_sha == untraced_sha
                 else ["tracing changed the model bytes"])
    entries_sample = aggforest.transform(
        [c[sample] for c in w.test_cols], forest.mapper).entries
    ledger.check("batch prediction",
                 batch_problems(w, forest, pred, y_train, entries_sample,
                                sample))
    if loaded is not None:
        ledger.check("prediction after save/load",
                     [] if np.array_equal(predictor(w, loaded)(w.test_cols), pred)
                     else ["prediction after save/load differs"])

    metrics = layer_metrics(tracer, traced_fit_s, untraced_fit_s)
    coverage = metrics["fit.self_time_coverage"][0]
    ledger.check("fit-phase self times sum to fit_s",
                 [] if abs(coverage - 1.0) <= COVERAGE_TOL
                 else [f"self times cover {coverage:.3f} of fit_s"])
    spans_path = os.path.join(OUT_DIR, f"{w.name}-seed{seed}.spans.jsonl.gz")
    tracer.write(spans_path)
    record.update(model_sha256=traced_sha, spans=len(tracer.names),
                  spans_file=os.path.relpath(spans_path, ROOT),
                  counts={p: dict(c) for p, c in tracer.counts.items()})
    return metrics


# -- entry point -----------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in a process of its own, one after another; the
    last line merges their results, metric names prefixed by workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="signals, wide, mixed-off, or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "aggforest", "__init__.py")):
        print(f"error: no aggforest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import aggforest

    if not os.path.abspath(aggforest.__file__).startswith(SRC + os.sep):
        print(f"error: imported aggforest from {aggforest.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "loadavg_before": os.getloadavg()}
    # The traced run fits on the first training sample only.
    w = (WORKLOADS[args.workload](args.seed, rounds=1) if args.trace
         else WORKLOADS[args.workload](args.seed))
    ledger = Ledger()
    if args.trace:
        metrics = run_traced(w, args.seed, ledger, record)
    else:
        metrics = run_untraced(w, args.seconds, ledger, record)
    record["loadavg_after"] = os.getloadavg()
    if metrics is None:
        ledger.check("run completed", ["an operation failed; see problems"])
        metrics = {}

    correct = ledger.failed == 0
    record.update(correct=correct, attempted=ledger.attempted,
                  failed=ledger.failed,
                  ops_failed_frac=ledger.failed / max(ledger.attempted, 1),
                  problems=ledger.problems,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}  "
          f"python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  commit {env['git_commit']}")
    print(f"loadavg before {record['loadavg_before']}  "
          f"after {record['loadavg_after']}")
    print(f"model sha256 {record.get('model_sha256')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    if "predict1_samples_s" in record:
        print(f"{'predict1 samples':44s} "
              f"{len(record['predict1_samples_s']):>16d} calls")
    print(f"{'ops_failed_frac':44s} {record['ops_failed_frac']:>16.6g} "
          f"({ledger.failed} of {ledger.attempted})")
    print(f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
