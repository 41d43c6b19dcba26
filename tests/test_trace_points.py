"""The benchmark's trace points still name real attributes of fedsim.

perfbench/tracing.py wraps fedsim functions and methods by module and
attribute path. A rename under src/ that one of those paths misses would
crash every traced benchmark run; this test fails first instead. Its round
attributes read the shards and the holdout of a round's arguments, so they
are checked against a real round.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from fedsim import (
    ExperimentConfig,
    ServerState,
    resolve_synthetic,
    run_experiment,
    run_round,
    setup_repeat,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, path", [
    (point[0], point[1]) for point in load_tracing().TRACE_POINTS
])
def test_trace_point_resolves(module_name, path):
    # the lookup Tracer.install makes before it wraps the attribute
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_round_attrs_count_the_rows_of_a_real_round():
    # run on every benchmark run, traced or not, with a repeat's call of run_round
    dataset = resolve_synthetic("synth-small")
    cfg = ExperimentConfig(dataset=dataset.name, n_clients=3, n_rounds=1, repeats=1,
                           hidden_dims=(8,))
    holdout, clients, params, idx = setup_repeat(cfg, dataset, run_seed=3)
    args = (params, clients, [ServerState(cfg.strategy, params, idx)], cfg)
    kwargs = {"holdout": holdout, "run_seed": 3, "round_num": 1}
    attrs = load_tracing()._round_attrs(args, kwargs, run_round(*args, **kwargs))
    assert attrs["data_rows"] == len(dataset)
    assert attrs["train_rows"] == sum(len(c.shard.train) for c in clients) * cfg.train.local_epochs


def test_a_traced_round_records_its_training(monkeypatch):
    # every trace point wrapped for this test alone, as Tracer.install wraps it for a run
    tracing = load_tracing()
    tracer = tracing.Tracer()
    for module_name, path, name, attrs in tracing.TRACE_POINTS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))
    dataset = resolve_synthetic("synth-small")
    run_experiment(ExperimentConfig(dataset=dataset.name, n_clients=3, n_rounds=3, repeats=1,
                                    hidden_dims=(8,)), dataset, threads=1)
    assert tracing.layer_metrics(tracer.spans)["federation.local_update.calls"] == 3
    rounds = {s["id"] for s in tracer.spans if s["name"] == "federation.run_round"}
    updates = [s for s in tracer.spans if s["name"] == "federation.local_update"]
    assert len(rounds) == 3 and all(s["parent"] in rounds for s in updates)
