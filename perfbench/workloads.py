"""The benchmark's workloads: what one run executes, and why each was chosen.

Every workload is a closed loop with one caller: the harness starts a run,
waits for it to finish, then starts the next. Each run is a fresh process,
because a user pays interpreter start, numpy import, BLAS start-up and the
dataset load on every ``fedsim run``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

# csv-load writes a table of this surrogate's shape (15036 x 215). A
# Kronodroid-shaped one (78137 x 463) takes ~7 s to load, so a run could not
# repeat its set-up often enough to report a steady median.
CSV_SURROGATE = "synth-drebin"
CSV_DATASET = "bench-csv"
MANIFEST_NAME = "bench.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: tuple[str, ...]
    clients: tuple[int, ...]
    strategies: tuple[str, ...]
    rounds: int
    local_epochs: int
    library: bool = False  # run_experiment directly instead of `fedsim run`
    parallel: bool = False  # --threads nproc, checked against a --threads 1 reference
    csv: bool = False  # the dataset is a CSV the harness writes before timing

    @property
    def cells(self) -> int:
        return len(self.datasets) * len(self.clients) * len(self.strategies)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-cell",
            why="one paper cell through run_experiment: local SGD is ~95% of a round, "
                "and cli, manifest and CSV loading are bypassed",
            datasets=("synth-malgenome",), clients=(5,), strategies=("dw-fedavg",),
            rounds=20, local_epochs=5, library=True,
        ),
        Workload(
            name="grid-parallel",
            why="a 2x2x2 grid through fedsim run at --threads nproc: the cell thread pool, "
                "the dataset cache under concurrency and 15-client round glue",
            datasets=("synth-malgenome", "synth-tuandromd"), clients=(5, 15),
            strategies=("fedavg", "dw-fedavg"), rounds=8, local_epochs=1, parallel=True,
        ),
        Workload(
            name="csv-load",
            why="fedsim run on a manifest CSV entry with scale=true: set-up is dominated "
                "by load_csv and min_max_scale",
            datasets=(CSV_DATASET,), clients=(15,), strategies=("dw-fedavg",),
            rounds=15, local_epochs=1, csv=True,
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cli_args(w: Workload, seed: int, out: Path, threads: int) -> list[str]:
    """`fedsim run` arguments of one run; the manifest sits in the run's parent directory."""
    args = [
        "run",
        "--datasets", ",".join(w.datasets),
        "--clients", ",".join(map(str, w.clients)),
        "--rounds", str(w.rounds),
        "--strategies", ",".join(w.strategies),
        "--repeats", "1",
        "--local-epochs", str(w.local_epochs),
        "--seed", str(seed),
        "--threads", str(threads),
        "--out", str(out),
    ]
    if w.csv:
        args += ["--manifest", str(out.parent / MANIFEST_NAME)]
    return args
