"""The simulated federated loop: broadcast, local training, aggregation, evaluation.

One process plays every role. The privacy boundary is the return of
``ClientState.local_update``: a client reads only its own rows of the table
the ``ClientState`` holds, and only parameter vectors and scalar accuracies
reach the server loop. The server additionally owns the global holdout split,
which was never issued to any client.

All randomness derives from (master_seed + repeat index); each client gets an
independent per-round stream. Nothing in a repeat's set-up or rounds reads
the strategy or the round count, so configs that differ only in those (a
family) share each repeat's clients, and the servers whose global vectors
are equal share each round's training.

The clients of a repeat are one ``ClientState``, their models the rows of one
(K, P) array. ``local_update`` writes the broadcast into every row, splits the
stack into contiguous groups of clients, one per thread, and trains each group
for every local epoch in one ``nn.sgd_epochs`` call. Each client's arithmetic
is the one it would do alone, so results depend neither on the stack nor on
the thread count. ``setup_repeat`` checks the table's labels once; training
reads the table in its own dtype and casts only the rows it gathers.
"""
from __future__ import annotations

import logging
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._blas import one_blas_thread
from .aggregation import AggregationStrategy, PriorityIndex, dw_fedavg, fedavg, update_priority_index
from .data import ClientShard, Dataset, holdout_split, partition_clients
from .metrics import METRIC_NAMES, MetricSet, evaluate_scores
from .nn import (DenseNetwork, TrainConfig, _check_labels, _param_count, init_network,
                 predict_labels, sgd_epochs)
from .nn import sgd_epoch  # noqa: F401  (a name perfbench/tracing.py wraps)

# spawn-key domains for deriving independent RNG streams from one run seed
_DOMAIN_HOLDOUT = 0
_DOMAIN_PARTITION = 1
_DOMAIN_INIT = 2
_DOMAIN_CLIENT = 3

log = logging.getLogger(__name__)


def derive_seed(base_seed: int, *key: int) -> int:
    """Collision-free 64-bit child seed for a (base, key...) combination."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _client_rng(run_seed: int, round_num: int, client_id: int) -> np.random.Generator:
    ss = np.random.SeedSequence(run_seed, spawn_key=(_DOMAIN_CLIENT, round_num, client_id))
    return np.random.default_rng(ss)


class Client(NamedTuple):
    """One participant: its id and its private shard of the repeat's table."""

    client_id: int
    shard: ClientShard


@dataclass(eq=False)
class ClientState(Sequence):
    """The client records of one repeat, in client order, and their networks of ``layer_dims``.

    Every client's shard indexes the one table ``data``. Client k's network
    is row k of the (K, P) array ``params``.
    """

    data: Dataset
    clients: list[Client]
    layer_dims: list[int]
    params: np.ndarray

    def __getitem__(self, i):
        return self.clients[i]

    def __len__(self) -> int:
        return len(self.clients)

    def local_update(self, global_params: np.ndarray, cfg: TrainConfig, rngs,
                     threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast ``global_params`` into every row and train every client for cfg.local_epochs.

        Returns what may cross the privacy boundary, in client order: a (K, P)
        copy of the trained stack, whose row k is client k's flat vector, and
        the K scalar local test accuracies. Client k draws its batches from
        ``rngs[k]``. The stack trains as ``min(threads, K)`` contiguous groups,
        each one ``sgd_epochs`` call, the first on the calling thread and each
        other on a helper thread. A FloatingPointError names the lowest client
        id whose training left a parameter non-finite, whatever the split.
        """
        self.params[:] = global_params
        data = self.data

        def train(group: np.ndarray) -> list[float]:
            lo, hi = group[0], group[-1] + 1
            stack, clients = self.params[lo:hi], self.clients[lo:hi]
            sgd_epochs(stack, self.layer_dims, data.features, data.labels,
                       [c.shard.train for c in clients], cfg, rngs[lo:hi], loss=False)
            diverged = [c.client_id for c, row in zip(clients, stack) if not np.isfinite(row).all()]
            if diverged:
                raise FloatingPointError(f"client {min(diverged)}: local training diverged to "
                                         f"non-finite parameters at learning rate {cfg.learning_rate}")
            return [float(np.mean(predict_labels(DenseNetwork(self.layer_dims, row),
                                                 data.features[c.shard.local_test])
                                  == data.labels[c.shard.local_test]))
                    for c, row in zip(clients, stack)]

        first, *rest = np.array_split(np.arange(len(self)), min(threads, len(self)))
        # a pool starts threads only as work is submitted; leaving the block joins
        # every helper, also when a group raised
        with ThreadPoolExecutor(max(len(rest), 1)) as pool:
            helpers = [pool.submit(train, group) for group in rest]
            accs = train(first)
            for helper in helpers:  # in client order, so the lowest diverged id is raised
                accs += helper.result()
        return self.params.copy(), np.array(accs)


@dataclass
class ExperimentConfig:
    """Everything that determines one experiment (all repeats included)."""

    dataset: str
    n_clients: int = 5
    n_rounds: int = 10
    strategy: AggregationStrategy = AggregationStrategy.DW_FEDAVG
    alpha: float = 0.2
    train: TrainConfig = field(default_factory=TrainConfig)
    holdout_fraction: float = 0.20
    local_test_fraction: float = 0.20
    repeats: int = 5
    master_seed: int = 42
    hidden_dims: Sequence[int] = (200, 100, 50)

    def __post_init__(self) -> None:
        if self.n_clients < 2:
            raise ValueError(f"n_clients must be >= 2, got {self.n_clients}")
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}")
        if not 0.0 < self.local_test_fraction < 1.0:
            raise ValueError(f"local_test_fraction must lie in (0, 1), got {self.local_test_fraction}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
        self.check_input_width(1)
        if isinstance(self.strategy, str):
            self.strategy = AggregationStrategy.parse(self.strategy)

    def check_input_width(self, n_features: int) -> None:
        """Raise ValueError if the network at this input width has more parameters than fit an intp."""
        if _param_count([n_features, *self.hidden_dims, 1]) > np.iinfo(np.intp).max:
            raise ValueError(f"hidden_dims {self.hidden_dims} give more parameters than numpy "
                             f"can index at input width {n_features}")


@dataclass
class RoundReport:
    """Per-round outcome: global metrics plus the per-client view."""

    round: int
    global_metrics: MetricSet
    client_local_acc: np.ndarray
    betas_after_update: np.ndarray
    wall_time: float


@dataclass
class RepeatResult:
    repeat: int
    run_seed: int
    rounds: list[RoundReport]

    @property
    def final_metrics(self) -> MetricSet:
        return self.rounds[-1].global_metrics


@dataclass
class ExperimentResult:
    repeats: list[RepeatResult]

    def summary(self) -> dict[str, tuple[float, float]]:
        """metric name -> (mean, population std) of final-round global metrics."""
        out: dict[str, tuple[float, float]] = {}
        finals = [r.final_metrics.as_dict() for r in self.repeats]
        for name in METRIC_NAMES:
            vals = np.array([f[name] for f in finals])
            out[name] = (float(vals.mean()), float(vals.std()))
        return out


@dataclass
class ServerState:
    """One strategy's server in a repeat: its global vector, priority index and round reports.

    A FedAvg server's index never changes, so its reports carry uniform
    betas. ``error`` holds what stopped the server; a stopped server runs no
    further round.
    """

    strategy: AggregationStrategy
    params: np.ndarray
    idx: PriorityIndex
    rounds: list[RoundReport] = field(default_factory=list)
    error: Exception | None = None


def run_round(
    server_params: np.ndarray,
    clients: ClientState,
    servers: Sequence[ServerState],
    cfg: ExperimentConfig,
    *,
    holdout: Dataset,
    run_seed: int,
    round_num: int,
    threads: int = 1,
) -> None:
    """One full federated round for ``servers``, whose global vectors all equal ``server_params``.

    Order of events: ``clients.local_update`` broadcasts the global
    parameters, trains every client locally once (on up to ``threads``
    threads) and returns (parameters, local accuracy) pairs; then, server by
    server, update the priority index (DW strategy only) and aggregate; then
    evaluate each distinct new global model on the holdout once. Each server
    ends the round holding its new vector and index, with the round's report
    appended. ``round_num`` is 1-based.

    A server whose aggregation or evaluation raises keeps the exception in
    ``error`` and its old state. An exception in training propagates: it
    stops every server of the round.
    """
    t0 = time.perf_counter()
    local_params, local_acc = clients.local_update(
        server_params, cfg.train, [_client_rng(run_seed, round_num, c.client_id) for c in clients],
        threads)

    aggregated = []
    for server in servers:
        try:
            if server.strategy is AggregationStrategy.DW_FEDAVG:
                idx = update_priority_index(server.idx, local_acc)
                aggregated.append((server, dw_fedavg(local_params, idx), idx))
            else:
                aggregated.append((server, fedavg(local_params), server.idx))
        except Exception as exc:  # noqa: BLE001 - it stops this server alone
            server.error = exc
    # Free the clients' (K, P) copy before the holdout is scored, and score a
    # network over each new vector itself, not a copy. ``forward`` casts and
    # holds one block of at least 256 holdout rows at a time, never the whole
    # holdout, with the bits of one pass over it.
    del local_params
    scored: list[tuple[np.ndarray, MetricSet]] = []
    for server, new_params, idx in aggregated:
        match = next((pair for pair in scored if np.array_equal(pair[0], new_params)), None)
        if match is None:
            try:
                net = DenseNetwork(clients.layer_dims, new_params)
                match = (new_params, evaluate_scores(net.forward(holdout.features), holdout.labels))
            except Exception as exc:  # noqa: BLE001 - it stops this server alone
                server.error = exc
                continue
            scored.append(match)
        server.params, server.idx = match[0], idx
        server.rounds.append(RoundReport(
            round=round_num,
            global_metrics=match[1],
            client_local_acc=local_acc,
            betas_after_update=idx.betas.copy(),
            wall_time=time.perf_counter() - t0,
        ))


def split_repeat(cfg: ExperimentConfig, dataset: Dataset,
                 run_seed: int) -> tuple[np.ndarray, list[ClientShard]]:
    """One repeat's holdout rows and client shards, index arrays into ``dataset``, or a DatasetError."""
    train, test = holdout_split(dataset, cfg.holdout_fraction,
                                derive_seed(run_seed, _DOMAIN_HOLDOUT))
    return test, partition_clients(dataset, train, cfg.n_clients, cfg.local_test_fraction,
                                   seed=derive_seed(run_seed, _DOMAIN_PARTITION))


def setup_repeat(
    cfg: ExperimentConfig, dataset: Dataset, run_seed: int
) -> tuple[Dataset, ClientState, np.ndarray, PriorityIndex]:
    """Split, shard and initialize one repeat; returns (holdout, clients, params, index).

    The holdout is the one copy of feature rows, in the table's dtype; the
    clients hold ``dataset``, and their shards index it. The labels are checked
    to be 0/1 here, once per repeat, not by each training call. The clients'
    stack is left unset: every round's broadcast overwrites it.
    """
    _check_labels(dataset.labels, len(dataset.features))
    test, shards = split_repeat(cfg, dataset, run_seed)
    holdout = Dataset(dataset.name, dataset.features[test], dataset.labels[test])
    global_net = init_network(dataset.features.shape[1], list(cfg.hidden_dims),
                              seed=derive_seed(run_seed, _DOMAIN_INIT))
    clients = ClientState(dataset, [Client(i, s) for i, s in enumerate(shards)],
                          global_net.layer_dims, np.empty((len(shards), global_net.n_params)))
    return holdout, clients, global_net.params, PriorityIndex.uniform(cfg.n_clients, cfg.alpha)


def _run_servers(cfgs: Sequence[ExperimentConfig], dataset: Dataset, r: int,
                 threads: int) -> tuple[list[RepeatResult | Exception], int]:
    """Repeat ``r`` of the family ``cfgs``: one client population and a server per strategy.

    Returns, per config in order, its ``RepeatResult`` or the error that
    stopped its server before its last round, and the number of trainings.
    No global vector is kept, and nothing of any other repeat is read.

    The server of strategy s runs the longest round count among s's configs,
    in every repeat, or fewer if a round stops it; a config of R rounds reads
    its server's first R reports. Every round, the servers whose global
    vectors are bitwise equal share one ``run_round`` call, so their clients
    train once: the same broadcast and the same per-(run seed, round, client)
    streams give the same training.
    """
    first = cfgs[0]
    horizons = {s: max(cfg.n_rounds for cfg in cfgs if cfg.strategy is s)
                for s in dict.fromkeys(cfg.strategy for cfg in cfgs)}
    run_seed = first.master_seed + r
    start = time.perf_counter()
    trained = 0
    with one_blas_thread():
        holdout, clients, params, idx = setup_repeat(first, dataset, run_seed)
        servers = {strategy: ServerState(strategy, params, idx) for strategy in horizons}
        del params  # the servers' first round replaces it
        for round_num in range(1, max(horizons.values()) + 1):
            live = [s for s in servers.values()
                    if s.error is None and round_num <= horizons[s.strategy]]
            # one group per distinct vector, led by its first server; made before any round runs
            groups = [[s for s in live if np.array_equal(s.params, lead.params)]
                      for i, lead in enumerate(live)
                      if not any(np.array_equal(lead.params, s.params) for s in live[:i])]
            for group in groups:
                trained += 1
                try:
                    run_round(group[0].params, clients, group, first, holdout=holdout,
                              run_seed=run_seed, round_num=round_num, threads=threads)
                except Exception as exc:  # noqa: BLE001 - training failed for the whole group
                    for server in group:
                        server.error = exc
    # a config whose server stopped within its rounds gets the server's error
    results = [RepeatResult(r, run_seed, rounds)
               if len(rounds := servers[cfg.strategy].rounds[:cfg.n_rounds]) == cfg.n_rounds
               else servers[cfg.strategy].error for cfg in cfgs]
    log.info("family %s c%d repeat %d/%d: %d rounds trained for %d reported, %.1fs",
             dataset.name, first.n_clients, r + 1, first.repeats, trained,
             sum(len(result.rounds) for result in results if isinstance(result, RepeatResult)),
             time.perf_counter() - start)
    return results, trained


def _usable_threads(threads: int | None) -> int:
    if threads is None:  # the CPUs this process may run on
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


@dataclass
class FamilyResult:
    """Per config of a family, in the order given, its result or the error that stopped it."""

    results: list[ExperimentResult | Exception]
    rounds_trained: int  # run_round calls, each one training of the clients
    wall_time: float  # seconds


def run_family(cfgs: Sequence[ExperimentConfig], dataset: Dataset,
               threads: int | None = None) -> FamilyResult:
    """Run configs that differ only in strategy and n_rounds, sharing their client training.

    Each repeat is one ``_run_servers`` call, which reads nothing of the
    other repeats: each strategy's server runs to the longest round count
    among its configs, in every repeat. Every result is the one
    ``run_experiment`` gives the config alone, and so is every error: a
    config keeps the error of its lowest failed repeat, and its later
    repeats are dropped. The repeats stop once every config has failed.

    Seed ``master_seed + r`` drives repeat r's holdout split, client
    partition, common initial model and every client's training streams. The
    clients of a round train on up to ``threads`` threads, by default one per
    CPU this process may run on; the results do not depend on it. OpenBLAS
    runs on one thread for the length of the call (see ``fedsim._blas``); the
    caller's thread count is restored on return.
    """
    first = cfgs[0]
    for cfg in cfgs:
        if replace(cfg, strategy=first.strategy, n_rounds=first.n_rounds) != first:
            raise ValueError("a family's configs may differ only in strategy and n_rounds")
    threads = _usable_threads(threads)
    family_start = time.perf_counter()
    results: list[list[RepeatResult] | Exception] = [[] for _ in cfgs]
    trained = 0
    for r in range(first.repeats):
        repeats, repeat_trained = _run_servers(cfgs, dataset, r, threads)
        trained += repeat_trained
        # a config keeps the error of its lowest failed repeat
        results = [result if isinstance(result, Exception)
                   else repeat if isinstance(repeat, Exception) else [*result, repeat]
                   for result, repeat in zip(results, repeats)]
        if all(isinstance(result, Exception) for result in results):
            break
    return FamilyResult([result if isinstance(result, Exception) else ExperimentResult(result)
                         for result in results], trained, time.perf_counter() - family_start)


def run_experiment(cfg: ExperimentConfig, dataset: Dataset,
                   threads: int | None = None) -> ExperimentResult:
    """Execute all repeats of an experiment on an already-loaded dataset: a family of one.

    ``threads`` is as for ``run_family``. Repeat r alone is the one repeat of
    the config with ``master_seed + r`` and ``repeats=1``: the same rounds and
    run seed, under repeat index 0.
    """
    (result,) = run_family([cfg], dataset, threads).results
    if isinstance(result, Exception):
        raise result
    return result
