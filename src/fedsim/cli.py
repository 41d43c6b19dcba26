"""Command line front end: run experiment grids and compare summary files.

Output files embed a hash of the run configuration in their names and
contain no timestamps, so re-running the same manifest with the same seed
produces byte-identical CSV bodies. Wall-clock timings go to a separate
metadata JSON.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .aggregation import AggregationStrategy
from .data import DatasetError, SplitSpec
from .federation import ExperimentConfig, ExperimentResult, run_experiment
from .manifest import (
    ConfigError,
    RunManifest,
    TABLES_GRID_CLIENTS,
    TABLES_GRID_DATASETS,
    TABLES_GRID_ROUNDS,
)
from .metrics import METRIC_NAMES
from .nn import TrainConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_GRID_PRESETS = ("tables23",)


@dataclass(frozen=True)
class GridCell:
    """One experiment: a dataset at one (clients, rounds, strategy) setting."""

    dataset: str
    clients: int
    rounds: int
    strategy: AggregationStrategy

    def slug(self) -> str:
        return f"{self.dataset}_c{self.clients}_r{self.rounds}_{self.strategy.value}"


def expand_grid(manifest: RunManifest) -> list[GridCell]:
    """Cartesian product of the manifest grid, in deterministic order."""
    return [
        GridCell(d, c, r, s)
        for d in manifest.grid_datasets
        for c in manifest.grid_clients
        for r in manifest.grid_rounds
        for s in manifest.grid_strategies
    ]


def cell_config(manifest: RunManifest, cell: GridCell) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=cell.dataset,
        n_clients=cell.clients,
        n_rounds=cell.rounds,
        strategy=cell.strategy,
        alpha=manifest.alpha,
        train=TrainConfig(
            learning_rate=manifest.learning_rate,
            batch_size=manifest.batch_size,
            local_epochs=manifest.local_epochs,
        ),
        split=SplitSpec(holdout_fraction=manifest.holdout_fraction),
        local_test_fraction=manifest.local_test_fraction,
        repeats=manifest.repeats,
        master_seed=manifest.master_seed,
        hidden_dims=manifest.hidden_dims,
    )


def run_hash(manifest: RunManifest, cells: list[GridCell]) -> str:
    """Short stable digest of everything that affects the numbers."""
    payload = json.dumps(
        {
            "cells": [[c.dataset, c.clients, c.rounds, c.strategy.value] for c in cells],
            "alpha": manifest.alpha,
            "learning_rate": manifest.learning_rate,
            "batch_size": manifest.batch_size,
            "local_epochs": manifest.local_epochs,
            "repeats": manifest.repeats,
            "master_seed": manifest.master_seed,
            "holdout_fraction": manifest.holdout_fraction,
            "local_test_fraction": manifest.local_test_fraction,
            "hidden_dims": list(manifest.hidden_dims),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:10]


def summary_row(cell: GridCell, result: ExperimentResult) -> dict[str, str]:
    row = {
        "dataset": cell.dataset,
        "clients": str(cell.clients),
        "rounds": str(cell.rounds),
        "strategy": cell.strategy.value,
    }
    stats = result.summary()
    for metric in METRIC_NAMES:
        mean, std = stats[metric]
        row[f"{metric}_mean"] = f"{mean:.6f}"
        row[f"{metric}_std"] = f"{std:.6f}"
    return row


SUMMARY_FIELDS = ["dataset", "clients", "rounds", "strategy"] + [
    f"{m}_{s}" for m in METRIC_NAMES for s in ("mean", "std")
]


def write_round_log(path: Path, cell: GridCell, result: ExperimentResult) -> None:
    """Per-round trajectory for one cell, one row per (repeat, round)."""
    fields = ["repeat", "round"] + list(METRIC_NAMES)
    fields += [f"acc_client_{i}" for i in range(cell.clients)]
    fields += [f"beta_{i}" for i in range(cell.clients)]
    with path.open("w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for repeat in result.repeats:
            for report in repeat.rounds:
                row = {"repeat": repeat.repeat, "round": report.round}
                for metric, value in report.global_metrics.as_dict().items():
                    row[metric] = f"{value:.6f}"
                for i, acc in enumerate(report.client_local_acc):
                    row[f"acc_client_{i}"] = f"{acc:.6f}"
                for i, beta in enumerate(report.betas_after_update):
                    row[f"beta_{i}"] = f"{beta:.6f}"
                writer.writerow(row)


def write_summary_csv(path: Path, rows: list[dict[str, str]]) -> None:
    with path.open("w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def format_table(headers: list[str], rows: list[dict[str, str]]) -> str:
    """Aligned plain-text table of the ``headers`` columns of ``rows``, ruled under the header."""
    table = [headers] + [[row[h] for h in headers] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_summary_table(rows: list[dict[str, str]]) -> str:
    """Aligned plain-text table of the summary rows."""
    headers = ["dataset", "clients", "rounds", "strategy"] + [
        f"{m}_mean" for m in METRIC_NAMES
    ]
    return format_table(headers, rows)


def run_cells(
    manifest: RunManifest, cells: list[GridCell], threads: int = 1
) -> tuple[list[dict[str, str]], list[ExperimentResult], dict[str, float]]:
    """Run every cell; returns (summary rows, results, wall times by slug)."""
    timings: dict[str, float] = {}

    def one(cell: GridCell) -> tuple[GridCell, ExperimentResult, float]:
        dataset = manifest.resolve_dataset(cell.dataset)
        cfg = cell_config(manifest, cell)
        start = time.perf_counter()
        result = run_experiment(cfg, dataset)
        elapsed = time.perf_counter() - start
        log.info("done %-40s %6.1fs  acc=%.4f", cell.slug(), elapsed,
                 result.summary()["accuracy"][0])
        return cell, result, elapsed

    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, cells))
    else:
        outcomes = [one(cell) for cell in cells]

    rows = []
    results = []
    for cell, result, elapsed in outcomes:
        rows.append(summary_row(cell, result))
        results.append(result)
        timings[cell.slug()] = elapsed
    return rows, results, timings


def cmd_run(args: argparse.Namespace) -> int:
    manifest = RunManifest.load(args.manifest) if args.manifest else RunManifest()
    _apply_overrides(manifest, args)
    manifest.validate_grid_datasets()

    cells = expand_grid(manifest)
    try:  # a bad hyperparameter fails here, before any output is written or cell runs
        for cell in cells:
            cell_config(manifest, cell)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    digest = run_hash(manifest, cells)
    out_dir = Path(args.out) if args.out else manifest.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    log.info("running %d grid cell(s), output under %s", len(cells), out_dir)
    rows, results, timings = run_cells(manifest, cells, threads=args.threads)

    for cell, result in zip(cells, results):
        write_round_log(out_dir / f"rounds_{cell.slug()}_{digest}.csv", cell, result)
    summary_path = out_dir / f"summary_{digest}.csv"
    write_summary_csv(summary_path, rows)
    meta = {
        "run_hash": digest,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_time_s": {slug: round(t, 3) for slug, t in timings.items()},
        "total_wall_time_s": round(sum(timings.values()), 3),
    }
    (out_dir / f"meta_{digest}.json").write_text(json.dumps(meta, indent=2) + "\n")

    print(format_summary_table(rows))
    print(f"\nsummary written to {summary_path}")
    return EXIT_OK


def load_summary(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise ConfigError(f"summary file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [f for f in SUMMARY_FIELDS if rows and f not in rows[0]]
    if not rows or missing:
        raise ConfigError(f"{path}: not a summary CSV (missing {missing or 'rows'})")
    return rows


def compare_rows(
    rows_a: list[dict[str, str]], rows_b: list[dict[str, str]]
) -> list[dict[str, str]]:
    """Pair rows of two summaries and report B minus A in percentage points.

    Rows join on (dataset, clients, rounds, strategy) when both files cover
    the same strategies; otherwise the strategy column is dropped from the
    key so a FedAvg-only file lines up against a DW-only file. Rows of A
    with no partner in B are a key mismatch.
    """
    full = ("dataset", "clients", "rounds", "strategy")
    strategies_differ = {r["strategy"] for r in rows_a} != {r["strategy"] for r in rows_b}
    key_fields = full[:-1] if strategies_differ else full

    def key(row):
        return tuple(row[f] for f in key_fields)

    index_b = {}
    for row in rows_b:
        index_b.setdefault(key(row), row)
    out = []
    for row_a in rows_a:
        row_b = index_b.get(key(row_a))
        if row_b is None:
            raise ConfigError(
                f"key mismatch: no row in the second summary matches {key(row_a)}")
        delta = {
            "dataset": row_a["dataset"],
            "clients": row_a["clients"],
            "rounds": row_a["rounds"],
            "strategy_a": row_a["strategy"],
            "strategy_b": row_b["strategy"],
        }
        for metric in METRIC_NAMES:
            gap = float(row_b[f"{metric}_mean"]) - float(row_a[f"{metric}_mean"])
            delta[f"{metric}_delta_pp"] = f"{gap * 100.0:+.3f}"
        out.append(delta)
    return out


def cmd_compare(args: argparse.Namespace) -> int:
    rows_a = load_summary(Path(args.summary_a))
    rows_b = load_summary(Path(args.summary_b))
    deltas = compare_rows(rows_a, rows_b)

    headers = list(deltas[0].keys())
    print(format_table(headers, deltas))

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with out_path.open("w", newline="\n") as fh:
            writer = csv.DictWriter(fh, fieldnames=headers)
            writer.writeheader()
            writer.writerows(deltas)
        print(f"\ndeltas written to {out_path}")
    return EXIT_OK


def _apply_overrides(manifest: RunManifest, args: argparse.Namespace) -> None:
    if args.grid:
        manifest.grid_datasets = list(TABLES_GRID_DATASETS)
        manifest.grid_clients = list(TABLES_GRID_CLIENTS)
        manifest.grid_rounds = list(TABLES_GRID_ROUNDS)
        manifest.grid_strategies = [AggregationStrategy.FEDAVG, AggregationStrategy.DW_FEDAVG]
    if args.datasets:
        manifest.grid_datasets = [d.strip().lower() for d in args.datasets.split(",") if d.strip()]
    if args.clients:
        manifest.grid_clients = _parse_int_csv(args.clients, "--clients")
    if args.rounds:
        manifest.grid_rounds = _parse_int_csv(args.rounds, "--rounds")
    if args.strategy:
        try:
            manifest.grid_strategies = [
                AggregationStrategy.parse(s) for s in args.strategy.split(",") if s.strip()
            ]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if args.alpha is not None:
        manifest.alpha = args.alpha
    if args.lr is not None:
        manifest.learning_rate = args.lr
    if args.batch_size is not None:
        manifest.batch_size = args.batch_size
    if args.local_epochs is not None:
        manifest.local_epochs = args.local_epochs
    if args.repeats is not None:
        manifest.repeats = args.repeats
    if args.seed is not None:
        manifest.master_seed = args.seed
    if not manifest.grid_datasets:
        raise ConfigError("experiment grid has no datasets")


def _parse_int_csv(raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag}: empty value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Federated averaging simulator for binary malware classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid and write CSV results")
    run.add_argument("--manifest", help="INI manifest with datasets, grid and defaults")
    run.add_argument("--dataset", "--datasets", dest="datasets",
                     help="comma-separated dataset names (overrides the manifest grid)")
    run.add_argument("--clients", help="comma-separated client counts, e.g. 5,10,15")
    run.add_argument("--rounds", help="comma-separated round counts, e.g. 10,20")
    run.add_argument("--strategy", "--strategies", dest="strategy",
                     help="comma-separated strategies: fedavg, dw-fedavg")
    run.add_argument("--alpha", type=float, help="priority reward/penalty factor")
    run.add_argument("--lr", type=float, help="client SGD learning rate")
    run.add_argument("--batch-size", type=int, help="client mini-batch size")
    run.add_argument("--local-epochs", type=int, help="local epochs per round")
    run.add_argument("--repeats", type=int, help="independent repeats per cell")
    run.add_argument("--seed", type=int, help="master seed (repeat r uses seed+r)")
    run.add_argument("--out", help="output directory (default from manifest)")
    run.add_argument("--grid", choices=_GRID_PRESETS,
                     help="preset grid: tables23 = 4 datasets x {5,10,15} clients "
                          "x {10,20} rounds x both strategies")
    run.add_argument("--threads", type=int, default=1,
                     help="run up to N grid cells concurrently")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="diff two summary CSVs (B minus A, in points)")
    compare.add_argument("summary_a", help="baseline summary CSV")
    compare.add_argument("summary_b", help="comparison summary CSV")
    compare.add_argument("--out", help="optional CSV file for the deltas")
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("run failed: %s", exc)
        return EXIT_RUNTIME


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()


__all__ = [
    "EXIT_OK",
    "EXIT_RUNTIME",
    "EXIT_CONFIG",
    "GridCell",
    "expand_grid",
    "cell_config",
    "run_hash",
    "run_cells",
    "write_round_log",
    "write_summary_csv",
    "format_table",
    "format_summary_table",
    "load_summary",
    "compare_rows",
    "build_parser",
    "main",
    "entrypoint",
]
