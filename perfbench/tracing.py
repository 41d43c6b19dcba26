"""Span recording around fedsim's public calls, and the per-layer metrics derived from it.

The wrappers are installed from the benchmark's own files, at the place where
the caller looks a name up: fedsim's modules import functions by name, so a
function is replaced in the importing module's namespace, and a method is
replaced on its class. Nothing under ``src/`` is edited.

A span is one call: name, start, end, the span that was open when it began
(its parent) and a few attributes read from the arguments or the result.
Spans stay in memory and are written out once, when the run ends.

This module imports fedsim only inside ``install``; the harness uses the
metric derivation without importing the program.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time


def _sgd_attrs(args, kwargs, result):
    net, X, _y, cfg = args[:4]
    rows = len(X)
    dims = net.layer_dims
    weights = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    # Per row: forward GEMMs 2*W, weight-gradient GEMMs 2*W, and delta
    # propagation 2*(W - d0*d1), which the first layer does not need.
    flop = 2.0 * rows * (3 * weights - dims[0] * dims[1])
    return {"rows": rows, "batches": math.ceil(rows / cfg.batch_size), "gflop": flop / 1e9}


def _round_attrs(args, kwargs, result):
    clients, cfg = args[1], args[3]
    shard_rows = sum(len(c.shard.train) + len(c.shard.local_test) for c in clients)
    return {
        "train_rows": sum(len(c.shard.train) for c in clients) * cfg.train.local_epochs,
        "data_rows": shard_rows + len(kwargs["holdout"]),
    }


def _combine_attrs(args, kwargs, result):
    models = args[0]
    return {"mb": len(models) * len(models[0]) * 8 / 1e6}


def _rows_of_first_arg(args, kwargs, result):
    return {"rows": len(args[0])}


def _rows_of_second_arg(args, kwargs, result):
    return {"rows": len(args[1])}


def _loaded_attrs(args, kwargs, result):
    return {"rows": len(result), "dropped": result.n_dropped, "dataset": result.name}


def _run_cells_attrs(args, kwargs, result):
    cells = args[1]
    threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
    return {"cells": len(cells), "threads": min(threads, len(cells)) if threads > 1 else 1}


# (module, attribute path, span name, attribute function). The module is the
# one whose namespace the caller reads the name from.
ROUND_POINTS = [
    ("fedsim.federation", "run_round", "federation.run_round", _round_attrs),
    ("fedsim.manifest", "load_csv", "data.load_csv", _loaded_attrs),
]
TRACE_POINTS = ROUND_POINTS + [
    ("fedsim.federation", "setup_repeat", "federation.setup_repeat", None),
    ("fedsim.federation", "ClientState.local_update", "federation.local_update", None),
    ("fedsim.federation", "sgd_epoch", "nn.sgd_epoch", _sgd_attrs),
    ("fedsim.nn", "DenseNetwork.forward", "nn.forward", _rows_of_second_arg),
    ("fedsim.federation", "fedavg", "aggregation.combine", _combine_attrs),
    ("fedsim.federation", "dw_fedavg", "aggregation.combine", _combine_attrs),
    ("fedsim.federation", "update_priority_index", "aggregation.update_priority_index", None),
    ("fedsim.federation", "evaluate_scores", "metrics.evaluate_scores", _rows_of_first_arg),
    ("fedsim.metrics", "auc_rank", "metrics.auc_rank", None),
    ("fedsim.federation", "holdout_split", "data.holdout_split", None),
    ("fedsim.federation", "partition_clients", "data.partition_clients", None),
    ("fedsim.manifest", "min_max_scale", "data.min_max_scale", None),
    ("fedsim.manifest", "resolve_synthetic", "synth.resolve_synthetic", _loaded_attrs),
    ("fedsim.synth", "resolve_synthetic", "synth.resolve_synthetic", _loaded_attrs),
    ("fedsim.manifest", "RunManifest.resolve_dataset", "manifest.resolve_dataset", None),
    ("fedsim.cli", "run_experiment", "cli.run_experiment", None),
    ("fedsim.cli", "run_cells", "cli.run_cells", _run_cells_attrs),
    ("fedsim.cli", "write_round_log", "cli.write_outputs", None),
    ("fedsim.cli", "write_summary_csv", "cli.write_outputs", None),
]


class Tracer:
    """Records one span per wrapped call, with the caller's open span as parent.

    A call made on a pool thread that has no open span of its own gets the
    span open on the thread that created the tracer as its parent, because
    that thread is the one waiting on the pool.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            with self._lock:
                span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "parent": parent, "name": name, "start": start,
                    "end": end, "thread": ident}
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def install(self, points) -> None:
        """Replace each point's attribute with a traced wrapper for the life of the process."""
        for module_name, path, name, attrs in points:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = [(max(a, s["start"]), min(b, s["end"]))
                   for a, b in children.get(s["id"], []) if b > s["start"] and a < s["end"]]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(covered)
    return out


def _cell_intervals(spans: list[dict]) -> list[tuple[float, float]]:
    """(start, end) of each grid cell run by cli.run_cells.

    A cell resolves its dataset and then runs its experiment on the same
    thread, so it spans from that resolve_dataset call to the end of the
    cli.run_experiment call that follows it.
    """
    by_thread: dict[int, list[dict]] = {}
    for s in spans:
        if s["name"] in ("manifest.resolve_dataset", "cli.run_experiment"):
            by_thread.setdefault(s["thread"], []).append(s)
    cells = []
    for seq in by_thread.values():
        seq.sort(key=lambda s: s["start"])
        start = None
        for s in seq:
            if s["name"] == "manifest.resolve_dataset":
                start = s["start"] if start is None else start
            elif start is not None:
                cells.append((start, s["end"]))
                start = None
    return cells


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, by name; layers not entered read 0."""

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def total(name, key):
        return sum(s[key] for s in of(name))

    def ratio(a, b):
        return a / b if b else 0.0

    sgd_s = busy("nn.sgd_epoch")
    batches = total("nn.sgd_epoch", "batches")
    gflop = total("nn.sgd_epoch", "gflop")
    own = self_times(spans)
    csv_s = busy("data.load_csv")
    csv_rows = total("data.load_csv", "rows")
    loads = of("data.load_csv") + of("synth.resolve_synthetic")

    run_cells = of("cli.run_cells")
    cells = _cell_intervals(spans)
    queue_wait = 0.0
    pool_capacity = 0.0
    for rc in run_cells:
        inside = [c for c in cells if rc["start"] <= c[0] <= rc["end"]]
        queue_wait += sum(c[0] - rc["start"] for c in inside)
        pool_capacity += rc["threads"] * (rc["end"] - rc["start"])
    cell_busy = sum(end - start for start, end in cells)

    return {
        "nn.sgd_epoch.s": sgd_s,
        "nn.sgd_epoch.calls": len(of("nn.sgd_epoch")),
        "nn.batches": batches,
        "nn.batch_us": ratio(sgd_s, batches) * 1e6,
        "nn.train_gflop": gflop,
        "nn.train_gflops": ratio(gflop, sgd_s),
        "nn.forward.s": busy("nn.forward"),
        "nn.forward.rows": total("nn.forward", "rows"),
        "federation.setup_repeat.s": busy("federation.setup_repeat"),
        "federation.run_round.s": busy("federation.run_round"),
        "federation.run_round.self_s": sum(own[s["id"]] for s in of("federation.run_round")),
        "federation.local_update.s": busy("federation.local_update"),
        "federation.local_update.calls": len(of("federation.local_update")),
        "aggregation.combine.s": busy("aggregation.combine"),
        "aggregation.combine.calls": len(of("aggregation.combine")),
        "aggregation.combine.mb": total("aggregation.combine", "mb"),
        "aggregation.update_priority_index.s": busy("aggregation.update_priority_index"),
        "metrics.evaluate_scores.s": busy("metrics.evaluate_scores"),
        "metrics.evaluate_scores.rows": total("metrics.evaluate_scores", "rows"),
        "metrics.auc_rank.s": busy("metrics.auc_rank"),
        "data.load_csv.s": csv_s,
        "data.load_csv.rows": csv_rows,
        "data.load_csv.rows_per_s": ratio(csv_rows, csv_s),
        "data.min_max_scale.s": busy("data.min_max_scale"),
        "data.holdout_split.s": busy("data.holdout_split"),
        "data.partition_clients.s": busy("data.partition_clients"),
        "synth.resolve_synthetic.s": busy("synth.resolve_synthetic"),
        "synth.resolve_synthetic.calls": len(of("synth.resolve_synthetic")),
        "manifest.resolve_dataset.s": busy("manifest.resolve_dataset"),
        "manifest.resolve_dataset.calls": len(of("manifest.resolve_dataset")),
        "manifest.loads_per_dataset": ratio(len(loads), len({s["dataset"] for s in loads})),
        "cli.run_cells.s": sum(s["end"] - s["start"] for s in run_cells),
        "cli.cell.queue_wait_s": queue_wait,
        "cli.worker_busy_share": ratio(cell_busy, pool_capacity),
        "cli.write_outputs.s": busy("cli.write_outputs"),
    }
