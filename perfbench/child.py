"""One benchmark run in a fresh process: the unit that the harness times.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR TRACE THREADS

Imports fedsim from the checkout's ``src`` directory, installs span
wrappers (the round clock always, every layer when TRACE is 1), runs the
workload and writes into OUT_DIR:

- ``summary.csv`` for the library workload (the CLI writes its own);
- ``spans.jsonl``, one span per line;
- ``report.json`` with the start time, peak resident memory and exit code.

Every run of a workload uses the same inputs for a given SEED.
"""
import time

START = time.perf_counter()  # before numpy is imported: a user pays for the import too

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import fedsim  # noqa: E402
from fedsim import cli, synth  # noqa: E402
from fedsim.federation import ExperimentConfig, run_experiment  # noqa: E402
from fedsim.nn import TrainConfig  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Bound before any wrapper is installed, so writing the library workload's
# summary is not recorded as a cli span: that workload does not enter the CLI.
summary_row = cli.summary_row
write_summary_csv = cli.write_summary_csv


def run_library(spec, seed: int, out: Path) -> int:
    dataset = synth.resolve_synthetic(spec.datasets[0])
    cfg = ExperimentConfig(
        dataset=dataset.name,
        n_clients=spec.clients[0],
        n_rounds=spec.rounds,
        strategy=spec.strategies[0],
        train=TrainConfig(local_epochs=spec.local_epochs),
        repeats=1,
        master_seed=seed,
    )
    result = run_experiment(cfg, dataset)
    cell = cli.GridCell(dataset.name, cfg.n_clients, cfg.n_rounds, cfg.strategy)
    write_summary_csv(out / "summary.csv", [summary_row(cell, result)])
    return 0


def main(argv: list[str]) -> int:
    name, seed, out, traced, threads = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1", int(argv[4])
    if not Path(fedsim.__file__).resolve().is_relative_to(SRC):
        print(f"fedsim imported from {fedsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install(tracing.TRACE_POINTS if traced else tracing.ROUND_POINTS)
    if spec.library:
        code = run_library(spec, seed, out)
    else:
        code = cli.main(workloads.cli_args(spec, seed, out, threads))
    with (out / "spans.jsonl").open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    report = {
        "start": START,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    (out / "report.json").write_text(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
