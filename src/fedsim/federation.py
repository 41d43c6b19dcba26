"""The simulated federated loop: broadcast, local training, aggregation, evaluation.

One process plays every role. The privacy boundary is the ClientState
interface: a client reads only its own rows of the shared table; only
parameter vectors and scalar accuracies reach the server loop. The server
additionally owns the global holdout split, which was never issued to any
client.

All randomness derives from (master_seed + repeat index); each client gets an
independent per-round stream. Nothing in a repeat's set-up or rounds reads
the strategy or the round count, so configs that differ only in those (a
family) share each repeat's clients, and the servers whose global vectors
are equal share each round's training.

The clients of a repeat train as one stack: their models are the rows of one
(K, P) parameter array. ``train_clients`` splits that stack into contiguous
groups of clients, one per thread, and trains each group's SGD steps as one
``nn.sgd_epochs`` call. Each client's arithmetic is the one it would do alone,
so results depend neither on the stack nor on the thread count.
"""
from __future__ import annotations

import logging
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._blas import one_blas_thread
from .aggregation import AggregationStrategy, PriorityIndex, dw_fedavg, fedavg, update_priority_index
from .data import ClientShard, Dataset, holdout_split, partition_clients
from .metrics import METRIC_NAMES, MetricSet, evaluate_scores
from .nn import DenseNetwork, TrainConfig, _param_count, init_network, predict_labels, sgd_epochs
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


@dataclass
class ClientState:
    """A participant: its private shard and current local model."""

    client_id: int
    shard: ClientShard
    model: DenseNetwork

    def receive_global(self, global_params: np.ndarray) -> None:
        """Replace the local model's parameters with the broadcast global ones."""
        self.model.set_vector(global_params)

    def local_update(self, cfg: TrainConfig, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Train the local model in place for cfg.local_epochs, then measure its local test accuracy.

        Returns only what may cross the privacy boundary: the updated flat
        parameter vector and the scalar local test accuracy.

        Raises:
            FloatingPointError: if training left a parameter non-finite
                (typically a learning rate too large for the data).
        """
        (acc,) = _train_stack(self.model.params[None], [self], cfg, [rng])
        return self.model.to_vector(), acc


class ClientStack(tuple):
    """The clients of one repeat, in client order, whose models are the rows of one (K, P) array."""

    def __new__(cls, clients, params: np.ndarray):
        stack = super().__new__(cls, clients)
        stack.params = params
        return stack


def _train_stack(stack: np.ndarray, clients, cfg: TrainConfig, rngs) -> list[float]:
    """Train ``clients`` in place for cfg.local_epochs and return their local test accuracies.

    ``stack[g]`` is ``clients[g].model.params``, and every shard indexes one
    shared table. Raises FloatingPointError, naming the lowest such client id,
    if training left a parameter non-finite.
    """
    data = clients[0].shard.data
    grad = np.empty_like(stack)
    for _ in range(cfg.local_epochs):
        sgd_epochs(stack, clients[0].model.layer_dims, data.features, data.labels,
                   [c.shard.train for c in clients], cfg, rngs, grad, loss=False)
    diverged = [c.client_id for c, row in zip(clients, stack) if not np.isfinite(row).all()]
    if diverged:
        raise FloatingPointError(f"client {min(diverged)}: local training diverged to non-finite "
                                 f"parameters at learning rate {cfg.learning_rate}")
    return [float(np.mean(predict_labels(c.model, data.features[c.shard.local_test])
                          == data.labels[c.shard.local_test])) for c in clients]


def train_clients(clients, cfg: TrainConfig, rngs,
                  threads: int = 1) -> tuple[list[np.ndarray], np.ndarray]:
    """Every client's local update of one round: (parameter vectors, local accuracies) in client order.

    A ``ClientStack`` is split into ``min(threads, K)`` contiguous groups of
    clients; the calling thread trains the first and one helper thread each
    of the others, every group as one stack. Any other list of clients trains
    client by client through ``local_update``. The vectors are copies, not
    views of the client models. A divergence names the lowest diverged client
    id, whatever the split.
    """
    if not isinstance(clients, ClientStack):
        results = [c.local_update(cfg, rng) for c, rng in zip(clients, rngs)]
        return [vec for vec, _ in results], np.array([acc for _, acc in results])

    def train(group: np.ndarray) -> list[float]:
        lo, hi = group[0], group[-1] + 1
        return _train_stack(clients.params[lo:hi], clients[lo:hi], cfg, rngs[lo:hi])

    first, *rest = np.array_split(np.arange(len(clients)), min(threads, len(clients)))
    # a pool starts threads only as work is submitted; leaving the block joins
    # every helper, also when a group raised
    with ThreadPoolExecutor(max(len(rest), 1)) as pool:
        helpers = [pool.submit(train, group) for group in rest]
        accs = train(first)
        for helper in helpers:  # in client order, so the lowest diverged id is raised
            accs += helper.result()
    return list(clients.params.copy()), np.array(accs)


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
    clients: list[ClientState],
    servers: Sequence[ServerState],
    cfg: ExperimentConfig,
    *,
    holdout: Dataset,
    run_seed: int,
    round_num: int,
    threads: int = 1,
) -> None:
    """One full federated round for ``servers``, whose global vectors all equal ``server_params``.

    Order of events: broadcast the global parameters, train every client
    locally once (on up to ``threads`` threads), collect (parameters, local
    accuracy) pairs; then, server by server, update the priority index (DW
    strategy only) and aggregate; then evaluate each distinct new global
    model on the holdout once. Each server ends the round holding its new
    vector and index, with the round's report appended. ``round_num`` is
    1-based.

    A server whose aggregation or evaluation raises keeps the exception in
    ``error`` and its old state. An exception in training propagates: it
    stops every server of the round.
    """
    t0 = time.perf_counter()
    for client in clients:
        client.receive_global(server_params)

    local_params, local_acc = train_clients(
        clients, cfg.train, [_client_rng(run_seed, round_num, c.client_id) for c in clients],
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
    # Free the clients' (K, P) copy before the holdout's activations are
    # allocated, and score a network over each new vector itself, not a copy.
    del local_params
    scored: list[tuple[np.ndarray, MetricSet]] = []
    for server, new_params, idx in aggregated:
        match = next((pair for pair in scored if np.array_equal(pair[0], new_params)), None)
        if match is None:
            try:
                net = DenseNetwork(clients[0].model.layer_dims, new_params)
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


def setup_repeat(
    cfg: ExperimentConfig, dataset: Dataset, run_seed: int
) -> tuple[Dataset, ClientStack, np.ndarray, PriorityIndex]:
    """Split, shard and initialize one repeat; returns (holdout, clients, params, index).

    The holdout is the one copy of feature rows; the shards index ``dataset``.
    """
    train, test = holdout_split(dataset, cfg.holdout_fraction,
                                derive_seed(run_seed, _DOMAIN_HOLDOUT))
    shards = partition_clients(dataset, train, cfg.n_clients, cfg.local_test_fraction,
                               seed=derive_seed(run_seed, _DOMAIN_PARTITION))
    holdout = Dataset(dataset.name, dataset.features[test], dataset.labels[test])
    global_net = init_network(dataset.features.shape[1], list(cfg.hidden_dims),
                              seed=derive_seed(run_seed, _DOMAIN_INIT))
    params = np.tile(global_net.params, (len(shards), 1))
    clients = ClientStack([ClientState(s.client_id, s, DenseNetwork(global_net.layer_dims, row))
                           for s, row in zip(shards, params)], params)
    return holdout, clients, global_net.to_vector(), PriorityIndex.uniform(cfg.n_clients, cfg.alpha)


def _run_servers(
    cfg: ExperimentConfig, dataset: Dataset, r: int, horizons: dict[AggregationStrategy, int],
    threads: int,
) -> tuple[dict[AggregationStrategy, tuple[list[RoundReport], Exception | None]], int]:
    """Repeat ``r`` of one client population and a server per strategy.

    Returns ({strategy: (its server's reports, the error that stopped it)},
    the number of trainings), and keeps no global vector.

    The server of strategy s runs ``horizons[s]`` rounds, or fewer if a round
    stops it. Every round, the servers whose global vectors are bitwise equal
    share one ``run_round`` call, so their clients train once: the same
    broadcast and the same per-(run seed, round, client) streams give the
    same training. ``cfg``'s strategy and round count are not read.
    """
    run_seed = cfg.master_seed + r
    trained = 0
    with one_blas_thread():
        holdout, clients, params, idx = setup_repeat(cfg, dataset, run_seed)
        servers = [ServerState(strategy, params, idx) for strategy in horizons]
        del params  # the servers' first round replaces it
        for round_num in range(1, max(horizons.values()) + 1):
            groups: list[list[ServerState]] = []
            for server in servers:
                if server.error is not None or round_num > horizons[server.strategy]:
                    continue
                group = next((g for g in groups if np.array_equal(g[0].params, server.params)),
                             None)
                if group is None:
                    groups.append([server])
                else:
                    group.append(server)
            for group in groups:
                trained += 1
                try:
                    run_round(group[0].params, clients, group, cfg, holdout=holdout,
                              run_seed=run_seed, round_num=round_num, threads=threads)
                except Exception as exc:  # noqa: BLE001 - training failed for the whole group
                    for server in group:
                        server.error = exc
    return {server.strategy: (server.rounds, server.error) for server in servers}, trained


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


def run_family(cfgs: Sequence[ExperimentConfig], dataset: Dataset,
               threads: int | None = None) -> FamilyResult:
    """Run configs that differ only in strategy and n_rounds, sharing their client training.

    Each repeat sets up one client population and one server per strategy,
    run to the longest round count among that strategy's configs; a config
    of R rounds reads its server's first R rounds. Every result is the one
    ``run_experiment`` gives the config alone, and so is every error: a
    server stopped in round k fails, from that repeat on, the configs of its
    strategy with k rounds or more, while its shorter configs complete. Later
    repeats run each server only to its longest config still running.
    ``threads`` is as for ``run_repeat``.
    """
    first = cfgs[0]
    for cfg in cfgs:
        if replace(cfg, strategy=first.strategy, n_rounds=first.n_rounds) != first:
            raise ValueError("a family's configs may differ only in strategy and n_rounds")
    threads = _usable_threads(threads)
    results: list[list[RepeatResult] | Exception] = [[] for _ in cfgs]
    trained = 0
    for r in range(first.repeats):
        horizons: dict[AggregationStrategy, int] = {}
        for cfg, result in zip(cfgs, results):
            if not isinstance(result, Exception):
                horizons[cfg.strategy] = max(horizons.get(cfg.strategy, 0), cfg.n_rounds)
        if not horizons:
            break
        start = time.perf_counter()
        servers, repeat_trained = _run_servers(first, dataset, r, horizons, threads)
        trained += repeat_trained
        reported = 0
        for i, cfg in enumerate(cfgs):
            if isinstance(results[i], Exception):
                continue
            reports, error = servers[cfg.strategy]
            if len(reports) < cfg.n_rounds:  # stopped in a round this config has
                results[i] = error
            else:
                results[i].append(RepeatResult(r, first.master_seed + r, reports[:cfg.n_rounds]))
                reported += cfg.n_rounds
        log.info("family %s c%d repeat %d/%d: %d rounds trained for %d reported, %.1fs",
                 dataset.name, first.n_clients, r + 1, first.repeats, repeat_trained, reported,
                 time.perf_counter() - start)
    return FamilyResult([result if isinstance(result, Exception) else ExperimentResult(result)
                         for result in results], trained)


def run_repeat(cfg: ExperimentConfig, dataset: Dataset, r: int,
               threads: int | None = None) -> RepeatResult:
    """Run repeat ``r`` of an experiment on an already-loaded dataset: a family of one.

    Seed ``master_seed + r`` drives the holdout split, the client partition,
    the common initial model and every client's training streams. The clients
    of a round train on up to ``threads`` threads, by default one per CPU this
    process may run on; the results do not depend on it. OpenBLAS runs on one
    thread for the length of the call (see ``fedsim._blas``); the caller's
    thread count is restored on return.
    """
    servers, _ = _run_servers(cfg, dataset, r, {cfg.strategy: cfg.n_rounds},
                              _usable_threads(threads))
    reports, error = servers[cfg.strategy]
    if error is not None:
        raise error
    return RepeatResult(repeat=r, run_seed=cfg.master_seed + r, rounds=reports)


def run_experiment(cfg: ExperimentConfig, dataset: Dataset,
                   threads: int | None = None) -> ExperimentResult:
    """Execute all repeats of an experiment on an already-loaded dataset: a family of one.

    ``threads`` is as for ``run_repeat``.
    """
    (result,) = run_family([cfg], dataset, threads).results
    if isinstance(result, Exception):
        raise result
    return result
