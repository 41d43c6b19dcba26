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
import io
import itertools
import json
import logging
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

from . import _blas
from .aggregation import AggregationStrategy
from .data import DatasetError, _read_text
from .federation import ExperimentConfig, ExperimentResult, run_family
from .federation import run_experiment  # noqa: F401  (a name perfbench/tracing.py wraps)
from .manifest import GRID_AXES, GRID_PRESETS, SETTINGS, ConfigError, RunManifest
from .metrics import METRIC_NAMES
from .nn import TrainConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class GridCell:
    """One experiment: a dataset at one (clients, rounds, strategy) setting."""

    dataset: str
    clients: int
    rounds: int
    strategy: AggregationStrategy

    def family(self) -> str:
        """The cell's family: the cells of its dataset and client count, which train together."""
        return f"{self.dataset}_c{self.clients}"

    def slug(self) -> str:
        return f"{self.family()}_r{self.rounds}_{self.strategy.value}"


# The columns that name a cell in summary and compare CSVs; the strategy comes last.
CELL_KEY = tuple(f.name for f in fields(GridCell))
_TRAIN_SETTINGS = [name for name in SETTINGS if name in {f.name for f in fields(TrainConfig)}]


def expand_grid(manifest: RunManifest) -> list[GridCell]:
    """Cartesian product of the manifest grid in GRID_AXES order; a repeated cell is a ConfigError."""
    axes = [manifest.grid[axis] for axis in GRID_AXES]
    cells = [GridCell(*values) for values in itertools.product(*axes)]
    repeated = [cell.slug() for i, cell in enumerate(cells) if cell in cells[:i]]
    if repeated:  # it would write a duplicate summary row and overwrite its round log
        raise ConfigError(f"grid cell {repeated[0]} is listed more than once")
    return cells


def cell_config(manifest: RunManifest, cell: GridCell) -> ExperimentConfig:
    """The cell's experiment; each SETTINGS value goes to the config field of its name."""
    settings = dict(manifest.settings)
    train = TrainConfig(**{name: settings.pop(name) for name in _TRAIN_SETTINGS})
    return ExperimentConfig(dataset=cell.dataset, n_clients=cell.clients, n_rounds=cell.rounds,
                            strategy=cell.strategy, train=train, **settings)


def run_hash(manifest: RunManifest, cells: list[GridCell]) -> str:
    """Short stable digest of everything that affects the numbers."""
    payload = dict(manifest.settings)
    payload["cells"] = [[c.dataset, c.clients, c.rounds, c.strategy.value] for c in cells]
    # Manifest dataset entries as written; a grid of synth-* and known names has none.
    entries = {c.dataset: asdict(manifest.datasets[c.dataset])
               for c in cells if c.dataset in manifest.datasets}
    if entries:
        payload["datasets"] = entries
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:10]


def summary_row(cell: GridCell, result: ExperimentResult) -> dict[str, str]:
    row = {name: str(getattr(cell, name)) for name in CELL_KEY}
    stats = result.summary()
    for metric in METRIC_NAMES:
        mean, std = stats[metric]
        row[f"{metric}_mean"] = f"{mean:.6f}"
        row[f"{metric}_std"] = f"{std:.6f}"
    return row


SUMMARY_FIELDS = [*CELL_KEY, *(f"{m}_{s}" for m in METRIC_NAMES for s in ("mean", "std"))]


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
    return format_table([*CELL_KEY, *(f"{m}_mean" for m in METRIC_NAMES)], rows)


class FamilyRun(NamedTuple):
    """One family of a grid run: its cells and their results, its wall time and rounds trained."""

    cells: list[GridCell]
    results: list[ExperimentResult]
    wall_time: float
    rounds_trained: int


def run_cells(
    manifest: RunManifest, configs: dict[GridCell, ExperimentConfig], threads: int = 1,
    on_cell: Callable[[GridCell, ExperimentResult], None] | None = None,
) -> tuple[list[dict[str, str]], dict[str, FamilyRun]]:
    """Run the cells family by family; returns (summary rows, family runs by family name).

    A family is the cells of one dataset and client count (``GridCell.family``).
    Its configs differ only in strategy and rounds, so ``run_family`` trains
    them on one client population. Families start in grid order. Up to
    ``threads`` families run at once, each training on one thread; a lone
    family, or families run one at a time, train on ``threads`` threads each.
    As a family finishes, ``on_cell(cell, result)`` is called for each of its
    finished cells, on the thread that ran it; then the first failed cell in
    grid order, if any, raises its error.
    """
    families: dict[str, list[GridCell]] = {}
    for cell in configs:
        families.setdefault(cell.family(), []).append(cell)

    def one(cells: list[GridCell], family_threads: int) -> FamilyRun:
        dataset = manifest.resolve_dataset(cells[0].dataset)
        start = time.perf_counter()
        family = run_family([configs[cell] for cell in cells], dataset, threads=family_threads)
        elapsed = time.perf_counter() - start
        for cell, result in zip(cells, family.results):
            if not isinstance(result, Exception):
                log.info("done %-40s %6.1fs  acc=%.4f", cell.slug(), elapsed,
                         result.summary()["accuracy"][0])
                if on_cell is not None:
                    on_cell(cell, result)
        for result in family.results:  # the first failed cell in grid order raises
            if isinstance(result, Exception):
                raise result
        return FamilyRun(cells, family.results, elapsed, family.rounds_trained)

    if threads > 1 and len(families) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(one, families.values(), [1] * len(families)))
    else:
        runs = [one(cells, threads) for cells in families.values()]

    results = {cell: result for run in runs for cell, result in zip(run.cells, run.results)}
    return [summary_row(cell, results[cell]) for cell in configs], dict(zip(families, runs))


def cmd_run(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    manifest = RunManifest.load(args.manifest) if args.manifest else RunManifest()
    _apply_overrides(manifest, args)
    manifest.validate_grid_datasets()

    cells = expand_grid(manifest)
    try:  # a bad hyperparameter fails here, before any output is written or cell runs
        configs = {cell: cell_config(manifest, cell) for cell in cells}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # Every grid dataset is loaded here, where a load error exits before any
    # output; the cells read it from the manifest's cache.
    for cell, config in configs.items():
        n_features = manifest.resolve_dataset(cell.dataset).n_features
        try:
            config.check_input_width(n_features)
        except ValueError as exc:
            raise ConfigError(f"dataset '{cell.dataset}': {exc}") from None
    digest = run_hash(manifest, cells)
    out_dir = Path(args.out) if args.out else manifest.output["dir"]
    created = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or a parent that cannot be written
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None

    def save_round_log(cell: GridCell, result: ExperimentResult) -> None:
        # written as the cell's family finishes, so a later failure keeps it
        write_round_log(out_dir / f"rounds_{cell.slug()}_{digest}.csv", cell, result)

    log.info("running %d grid cell(s), output under %s", len(cells), out_dir)
    try:
        # Held across the grid so the thread count read here is the one training ran with.
        with _blas.one_blas_thread() as blas_threads:
            rows, families = run_cells(manifest, configs, threads=args.threads,
                                       on_cell=save_round_log)
    except BaseException:
        if created and not any(out_dir.iterdir()):  # leave no empty directory behind
            out_dir.rmdir()
        raise

    summary_path = out_dir / f"summary_{digest}.csv"
    write_summary_csv(summary_path, rows)
    meta = {
        "run_hash": digest,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # a cell's wall time is its family's, so the total sums families, not cells
        "wall_time_s": {cell.slug(): round(run.wall_time, 3)
                        for run in families.values() for cell in run.cells},
        "total_wall_time_s": round(sum(run.wall_time for run in families.values()), 3),
        "rounds_trained": {name: run.rounds_trained for name, run in families.items()},
        "blas": {"library": _blas.blas_library(), "threads": blas_threads},
    }
    (out_dir / f"meta_{digest}.json").write_text(json.dumps(meta, indent=2) + "\n")

    print(format_summary_table(rows))
    print(f"\nsummary written to {summary_path}")
    return EXIT_OK


def load_summary(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise ConfigError(f"summary file not found: {path}")
    rows = list(csv.DictReader(io.StringIO(_read_text(path), newline="")))
    missing = [f for f in SUMMARY_FIELDS if rows and f not in rows[0]]
    if not rows or missing:
        raise ConfigError(f"{path}: not a summary CSV (missing {missing or 'rows'})")
    for line, row in enumerate(rows, start=2):
        for name in SUMMARY_FIELDS[len(CELL_KEY):]:
            try:
                float(row[name])
            except (TypeError, ValueError):  # TypeError: a short row leaves the cell None
                raise ConfigError(f"{path}:{line}: {name} is not a number: {row[name]!r}") from None
    return rows


def compare_rows(
    rows_a: list[dict[str, str]], rows_b: list[dict[str, str]]
) -> list[dict[str, str]]:
    """Pair rows of two summaries and report B minus A in percentage points.

    Rows join on CELL_KEY (dataset, clients, rounds, strategy) when both
    files cover the same strategies; otherwise the strategy column is dropped
    from the key so a FedAvg-only file lines up against a DW-only file. A row
    of A with no partner in B, or with more than one, is a key mismatch.
    """
    *shared, strategy = CELL_KEY
    strategies_differ = {r[strategy] for r in rows_a} != {r[strategy] for r in rows_b}
    key_fields = shared if strategies_differ else CELL_KEY

    def key(row):
        return tuple(row[f] for f in key_fields)

    index_b: dict[tuple, list[dict[str, str]]] = {}
    for row in rows_b:
        index_b.setdefault(key(row), []).append(row)
    out = []
    for row_a in rows_a:
        matches = index_b.get(key(row_a), [])
        if len(matches) != 1:  # none, or a partner that cannot be told apart from another
            raise ConfigError(f"key mismatch: {len(matches)} rows of the second summary "
                              f"match {key(row_a)}, need exactly 1")
        row_b = matches[0]
        delta = {f: row_a[f] for f in shared}
        delta[f"{strategy}_a"], delta[f"{strategy}_b"] = row_a[strategy], row_b[strategy]
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
    if args.out:  # written before the table is printed, so a path that fails prints nothing
        out_path = Path(args.out)
        try:
            out_path.parent.mkdir(parents=True, exist_ok=True)
            with out_path.open("w", newline="\n") as fh:
                writer = csv.DictWriter(fh, fieldnames=headers)
                writer.writeheader()
                writer.writerows(deltas)
        except OSError as exc:  # a file in the way, or --out naming a directory
            raise ConfigError(f"cannot write {out_path}: {exc.strerror}") from None
    print(format_table(headers, deltas))
    if args.out:
        print(f"\ndeltas written to {out_path}")
    return EXIT_OK


def _apply_overrides(manifest: RunManifest, args: argparse.Namespace) -> None:
    for axis, parse in GRID_AXES.items():
        if args.grid:
            manifest.grid[axis] = list(GRID_PRESETS[args.grid][axis])
        if getattr(args, axis) is not None:
            try:
                manifest.grid[axis] = parse(getattr(args, axis))
            except ValueError as exc:
                raise ConfigError(f"--{axis}: {exc}") from None
    for name in SETTINGS:
        if getattr(args, name, None) is not None:
            manifest.settings[name] = getattr(args, name)


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
    run.add_argument("--strategy", "--strategies", dest="strategies",
                     help="comma-separated strategies: fedavg, dw-fedavg")
    run.add_argument("--alpha", type=float, help="priority reward/penalty factor")
    run.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                     help="client SGD learning rate")
    run.add_argument("--batch-size", type=int, help="client mini-batch size")
    run.add_argument("--local-epochs", type=int, help="local epochs per round")
    run.add_argument("--repeats", type=int, help="independent repeats per cell")
    run.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                     help="master seed (repeat r uses seed+r)")
    run.add_argument("--out", help="output directory (default from manifest)")
    run.add_argument("--grid", choices=GRID_PRESETS,
                     help="preset grid: tables23 = 4 datasets x {5,10,15} clients "
                          "x {10,20} rounds x both strategies")
    run.add_argument("--threads", type=int, default=1,
                     help="run up to N grid families (the cells of one dataset and client "
                          "count) concurrently; a lone family trains its clients on N threads")
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
    "FamilyRun",
    "CELL_KEY",
    "SUMMARY_FIELDS",
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
