"""Span tracing of aggforest's public functions, applied from outside.

The tracer replaces each traced function, in every ``aggforest`` module that
holds a reference to it, by a wrapper that records a span (name, start, end,
parent) and per-call counts; ``uninstall`` puts the originals back.  Nothing
in the library changes.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the part of its interval covered by
its children, so the self times of one phase add up to the phase's duration.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer metric name, owner, attribute): owner is a module or a class; the
# dotted owner path is resolved inside the aggforest package.
TRACED = (
    ("binning.fit_bins", "binning", "fit_bins"),
    ("binning.transform", "binning", "transform"),
    ("sampling.bootstrap", "sampling", "bootstrap"),
    ("sampling.generator", "sampling.RandomSource", "generator"),
    ("sampling.subsample_features", "sampling", "subsample_features"),
    ("splits.compute_histogram", "splits", "compute_histogram"),
    ("splits.sibling_histogram", "splits", "sibling_histogram"),
    ("splits.find_best_split", "splits", "find_best_split"),
    ("splits.impurity", "splits", "impurity"),
    ("tree.grow_tree", "tree", "grow_tree"),
    ("tree.route", "tree.Tree", "route"),
    ("aggregation.accumulate_oob_losses", "aggregation", "accumulate_oob_losses"),
    ("aggregation.compute_log_agg_weights", "aggregation", "compute_log_agg_weights"),
    ("aggregation.predict_fold", "aggregation", "predict_aggregated_batch"),
    ("aggregation.predict_leaf_only", "aggregation", "predict_leaf_only_batch"),
    ("forest.fit", "forest", "fit"),
    ("forest.predict", "forest.Forest", "predict"),
    ("forest.predict_proba", "forest.Forest", "predict_proba"),
    ("model_io.save", "model_io", "save_model"),
    ("model_io.load", "model_io", "load_model"),
)


def _count(name, args, result, counts):
    """Work counts taken at the boundary of one traced call."""
    if name == "binning.transform":
        counts["binning.cells"] += result.entries.size
    elif name == "splits.find_best_split":
        counts["splits.splits_found"] += result is not None
    elif name == "tree.grow_tree":
        counts["tree.nodes"] += result.n_nodes
        counts["tree.leaves"] += result.n_leaves
        counts["tree.max_depth"] = max(counts["tree.max_depth"],
                                       result.max_node_depth)
    elif name == "tree.route":
        tree = args[0]
        counts["tree.route_row_steps"] += int(tree.depth[result].sum())
    elif name == "aggregation.accumulate_oob_losses":
        counts["aggregation.oob_node_visits"] += int(args[0].oob_count.sum())


class Tracer:
    """Records spans as parallel lists; index -1 as parent marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # phase name -> counter name -> value
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A root span that names a benchmark phase."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _current_phase(self) -> str:
        return self.names[self._stack[0]] if self._stack else "none"

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            _count(name, args, result, tracer.counts[tracer._current_phase()])
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in TRACED wherever aggforest refers to it."""
        import aggforest

        modules = [m for k, m in sys.modules.items()
                   if k == "aggforest" or k.startswith("aggforest.")]
        for name, owner_path, attr in TRACED:
            owner = aggforest
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def phase_of(self) -> list[str]:
        out = []
        for i, p in enumerate(self.parents):
            out.append(self.names[i] if p < 0 else out[p])
        return out

    def layer_times(self) -> dict[tuple[str, str], tuple[float, int]]:
        """(phase, span name) -> (total self seconds, calls); roots excluded."""
        totals: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        phases = self.phase_of()
        for i, s in enumerate(self.self_times()):
            if self.parents[i] >= 0:
                acc = totals[phases[i], self.names[i]]
                acc[0] += s
                acc[1] += 1
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path: str) -> None:
        """Spans as gzip'd JSON lines: name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row))
                fh.write("\n")


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the union of the children's intervals, clipped to the
    parent's; children may arrive in any order and may overlap."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def self_test() -> list[str]:
    """Check self_times on a synthetic nested call tree with known answers.

    root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, coverage
    [1, 6] = 5) and c [8, 9]; a has child a1 [2, 3]; b has child b1 [7, 8],
    which lies outside b and is clipped away.  Returns failure messages.
    """
    starts = [0.0, 1.0, 3.0, 8.0, 2.0, 7.0]
    ends = [10.0, 4.0, 6.0, 9.0, 3.0, 8.0]
    parents = [-1, 0, 0, 0, 1, 2]
    expect = [10.0 - 6.0, 3.0 - 1.0, 3.0, 1.0, 1.0, 1.0]
    got = self_times(starts, ends, parents)
    return [f"span {i}: self time {g} != {e}"
            for i, (g, e) in enumerate(zip(got, expect)) if abs(g - e) > 1e-12]
