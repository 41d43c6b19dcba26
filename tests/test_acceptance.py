"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints one PASS/FAIL line with the
measured values, and enforces the stated tolerance and runtime budget.

The benchmark reproductions (criteria 5-8) prefer the real feature tables
when they are installed (manifest entry, $FEDSIM_DATA_DIR or ./data; see
README). Without them, each run falls back to the bundled synthetic
surrogate of the same shape and difficulty; the printed line records which
data source was used.
"""
import csv
import inspect
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import fedsim.federation as federation
from fedsim.aggregation import PriorityIndex, dw_fedavg, fedavg, update_priority_index
from fedsim.cli import main
from fedsim.data import Dataset
from fedsim.federation import ExperimentConfig, ServerState, run_round
from fedsim.manifest import ConfigError, RunManifest
from fedsim.metrics import Confusion, accuracy, auc_rank, f1, fpr
from fedsim.nn import DenseNetwork, init_network, loss_and_gradient
from fedsim.synth import resolve_synthetic

MASTER_SEED = 42
REPEATS = 5


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {marker} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class ReproductionRuns:
    """Caches the expensive benchmark runs so several criteria can share them."""

    def __init__(self):
        self._datasets = {}
        self._runs = {}

    def dataset(self, name):
        if name not in self._datasets:
            try:
                ds = RunManifest().resolve_dataset(name)
                mode = "real csv"
            except ConfigError:
                ds = resolve_synthetic(f"synth-{name}")
                mode = "surrogate"
            self._datasets[name] = (ds, mode)
        return self._datasets[name]

    def family(self, name, clients, strategies, rounds=10):
        """Per strategy, its (summary, wall time, data source), the strategies run as one family.

        A family trains its strategies on one client population, sharing the
        rounds in which their global models are equal; the wall time is the
        family's.
        """
        keys = [(name, clients, strategy) for strategy in strategies]
        if not all(key in self._runs for key in keys):
            ds, mode = self.dataset(name)
            cfgs = [ExperimentConfig(
                dataset=ds.name, n_clients=clients, n_rounds=rounds,
                strategy=strategy, repeats=REPEATS, master_seed=MASTER_SEED)
                for strategy in strategies]
            family = federation.run_family(cfgs, ds)
            for key, result in zip(keys, family.results):
                if isinstance(result, Exception):
                    raise result
                self._runs[key] = (result.summary(), family.wall_time, mode)
        return [self._runs[key] for key in keys]

    def run(self, name, clients, strategy, rounds=10):
        return self.family(name, clients, [strategy], rounds)[0]


@pytest.fixture(scope="module")
def repro():
    return ReproductionRuns()


def test_criterion_1_gradient_check():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(0, 4))
        dims = [int(rng.integers(2, 6))] + [int(rng.integers(1, 5)) for _ in range(depth)]
        net = init_network(dims[0], dims[1:], seed=int(rng.integers(0, 2**31)))
        # generic parameters keep pre-activations off the exact ReLU kink
        net.params[:] = rng.normal(scale=0.5, size=net.n_params)
        X = rng.normal(size=(5, net.input_dim))
        y = rng.integers(0, 2, size=5)
        _, grad = loss_and_gradient(net, X, y)

        base = net.params.copy()
        eps = 1e-5
        fd = np.empty_like(base)
        probe = DenseNetwork(net.layer_dims, base.copy())
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] = base[i] + eps
            probe.params[:] = bumped
            up, _ = loss_and_gradient(probe, X, y)
            bumped[i] = base[i] - eps
            probe.params[:] = bumped
            down, _ = loss_and_gradient(probe, X, y)
            fd[i] = (up - down) / (2 * eps)

        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-10)
        worst = max(worst, float((np.abs(grad - fd) / denom).max()))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-4 and elapsed < 10.0,
           f"gradient vs central differences: max rel err {worst:.2e} "
           f"over 20 networks in {elapsed:.1f}s (limits 1e-4, 10s)")


def test_criterion_2_aggregation_oracles():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    bitwise_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 11))
        length = int(rng.integers(5, 120))
        models = [rng.normal(size=length) for _ in range(n)]

        mean_oracle = np.zeros(length)
        for vec in models:
            for j in range(length):
                mean_oracle[j] += vec[j] / n
        worst = max(worst, float(np.abs(fedavg(models) - mean_oracle).max()))

        raw = rng.random(n) + 1e-3
        betas = raw / raw.sum()
        idx = PriorityIndex(betas=betas, prev_acc=np.zeros(n))
        weighted_oracle = np.zeros(length)
        for w, vec in zip(betas, models):
            for j in range(length):
                weighted_oracle[j] += w * vec[j]
        worst = max(worst, float(np.abs(dw_fedavg(models, idx) - weighted_oracle).max()))

        uniform = PriorityIndex.uniform(n)
        bitwise_ok &= bool(np.array_equal(dw_fedavg(models, uniform), fedavg(models)))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-12 and bitwise_ok and elapsed < 5.0,
           f"averaging vs brute-force loops: max abs dev {worst:.2e} on 100 "
           f"populations, uniform-weight bitwise equality "
           f"{'held' if bitwise_ok else 'BROKE'}, {elapsed:.1f}s (limits 1e-12, 5s)")


def test_criterion_3_priority_index_suite():
    start = time.perf_counter()

    idx = PriorityIndex(betas=np.full(4, 0.25), prev_acc=np.full(4, 0.5),
                        alpha=0.2, round=1)
    out = update_priority_index(idx, [0.6, 0.5, 0.5, 0.5])
    hand = np.array([0.2857, 0.2381, 0.2381, 0.2381])
    hand_err = float(np.abs(out.betas - hand).max())
    exact_err = float(np.abs(out.betas - np.array([0.30, 0.25, 0.25, 0.25]) / 1.05).max())

    rng = np.random.default_rng(99)
    props_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        raw = rng.random(n) + 1e-3
        idx = PriorityIndex(betas=raw / raw.sum(), prev_acc=rng.random(n),
                            alpha=0.2, round=int(rng.integers(1, 6)))
        curr = rng.random(n)
        out = update_priority_index(idx, curr)
        props_ok &= bool((out.betas > 0).all())
        props_ok &= abs(float(out.betas.sum()) - 1.0) <= 1e-9

        lone = int(rng.integers(0, n))
        lone_curr = idx.prev_acc.copy()
        lone_curr[lone] = min(lone_curr[lone] + 0.05, 1.0)
        if lone_curr[lone] > idx.prev_acc[lone]:
            bumped = update_priority_index(idx, lone_curr)
            props_ok &= bool(bumped.betas[lone] > idx.betas[lone])

        perm = rng.permutation(n)
        perm_out = update_priority_index(
            PriorityIndex(betas=idx.betas[perm], prev_acc=idx.prev_acc[perm],
                          alpha=0.2, round=idx.round), curr[perm])
        props_ok &= bool(np.abs(perm_out.betas - out.betas[perm]).max() <= 1e-12)
    elapsed = time.perf_counter() - start
    report(3, hand_err < 1e-4 and exact_err < 1e-12 and props_ok and elapsed < 5.0,
           f"hand example dev {hand_err:.1e} (exact form {exact_err:.1e}), "
           f"simplex/monotonicity/permutation held on 1000 cases, "
           f"{elapsed:.1f}s (limit 5s)")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(8, 80))
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, size=n) / 6.0  # heavy exact ties
        else:
            scores = rng.random(n)
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        pos = scores[truth == 1]
        neg = scores[truth == 0]
        wins = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    wins += 1.0
                elif p == q:
                    wins += 0.5
        oracle = wins / (pos.size * neg.size)
        worst = max(worst, abs(auc_rank(scores, truth) - oracle))

    c = Confusion(tp=50, tn=40, fp=5, fn=5)
    hand_ok = (abs(accuracy(c) - 0.90) < 1e-12
               and abs(f1(c) - 50 / 55) < 1e-12
               and abs(fpr(c) - 5 / 45) < 1e-12)
    edges_ok = (auc_rank([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
                and auc_rank([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0)
    report(4, worst < 1e-12 and hand_ok and edges_ok,
           f"auc vs pairwise oracle: max abs dev {worst:.2e} on 500 instances "
           f"with ties; accuracy/F1/FPR hand arithmetic "
           f"{'matched' if hand_ok else 'FAILED'}")


@pytest.mark.slow
def test_criterion_5_malgenome_reproduction(repro):
    (dw, elapsed, mode), (fa, _, _) = repro.family("malgenome", 5, ["dw-fedavg", "fedavg"])
    acc_dw, acc_fa = dw["accuracy"][0], fa["accuracy"][0]
    ok = (acc_dw >= 0.97 and acc_fa >= 0.97
          and abs(acc_dw - 0.994) <= 0.02
          and dw["fpr"][0] <= 0.03 and fa["fpr"][0] <= 0.03
          and elapsed <= 300.0)
    report(5, ok,
           f"malgenome ({mode}) 5 clients/10 rounds: dw acc {acc_dw:.4f} "
           f"(target 0.994 +- 0.02), fedavg acc {acc_fa:.4f} (floor 0.97), "
           f"fpr {dw['fpr'][0]:.4f}/{fa['fpr'][0]:.4f} (cap 0.03), "
           f"{elapsed:.0f}s (cap 300s)")


@pytest.mark.slow
def test_criterion_6_tuandromd_reproduction(repro):
    (dw, elapsed, mode), (fa, _, _) = repro.family("tuandromd", 5, ["dw-fedavg", "fedavg"])
    acc_dw, acc_fa = dw["accuracy"][0], fa["accuracy"][0]
    ok = (abs(acc_dw - 0.9861) <= 0.02 and abs(acc_fa - 0.9880) <= 0.02
          and dw["f1"][0] >= 0.97 and fa["f1"][0] >= 0.97
          and elapsed <= 300.0)
    report(6, ok,
           f"tuandromd ({mode}) 5 clients/10 rounds: dw acc {acc_dw:.4f} "
           f"(target 0.9861 +- 0.02), fedavg acc {acc_fa:.4f} (target 0.9880 "
           f"+- 0.02), f1 {dw['f1'][0]:.4f}/{fa['f1'][0]:.4f} (floor 0.97), "
           f"{elapsed:.0f}s (cap 300s)")


@pytest.mark.slow
def test_criterion_7_drebin_reproduction(repro):
    dw, elapsed, mode = repro.run("drebin", 5, "dw-fedavg")
    acc = dw["accuracy"][0]
    ok = abs(acc - 0.9828) <= 0.02 and dw["auc"][0] >= 0.98 and elapsed <= 900.0
    report(7, ok,
           f"drebin ({mode}) 5 clients/10 rounds: dw acc {acc:.4f} "
           f"(target 0.9828 +- 0.02), auc {dw['auc'][0]:.4f} (floor 0.98), "
           f"{elapsed:.0f}s (cap 900s)")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("FEDSIM_RUN_KRONODROID"),
                    reason="large optional run; set FEDSIM_RUN_KRONODROID=1")
def test_criterion_7_kronodroid_optional(repro):
    dw, elapsed, mode = repro.run("kronodroid", 5, "dw-fedavg")
    acc = dw["accuracy"][0]
    report(7, abs(acc - 0.9596) <= 0.03,
           f"kronodroid ({mode}) 5 clients/10 rounds: dw acc {acc:.4f} "
           f"(target 0.9596 +- 0.03), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_client_scaling_trend(repro):
    names = ["malgenome", "tuandromd", "drebin"]
    if os.environ.get("FEDSIM_RUN_KRONODROID"):
        names.append("kronodroid")
    gaps = []
    ok = True
    for name in names:
        acc5 = repro.run(name, 5, "dw-fedavg")[0]["accuracy"][0]
        acc15 = repro.run(name, 15, "dw-fedavg")[0]["accuracy"][0]
        gap = acc15 - acc5
        gaps.append(f"{name} {gap:+.4f}")
        # soft assertion: only a clear inversion (> 0.01 improvement when
        # adding clients) counts as failure
        ok &= gap <= 0.01
    report(8, ok,
           "accuracy(15 clients) - accuracy(5 clients) per dataset: "
           + ", ".join(gaps) + " (fail above +0.01)")


def test_criterion_9_byte_identical_summaries(tmp_path):
    manifest = tmp_path / "repro.ini"
    manifest.write_text(
        "[grid]\n"
        "datasets = synth-small\n"
        "clients = 3\n"
        "rounds = 3\n"
        "strategies = fedavg, dw-fedavg\n"
        "[defaults]\n"
        "repeats = 2\n"
        "master_seed = 42\n",
        encoding="utf-8")
    bodies = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        summary = next(out.glob("summary_*.csv"))
        bodies.append((summary.name, summary.read_bytes()))
    same_name = bodies[0][0] == bodies[1][0]
    same_bytes = bodies[0][1] == bodies[1][1]
    report(9, same_name and same_bytes,
           f"two invocations of one manifest+seed: filenames "
           f"{'match' if same_name else 'DIFFER'}, bodies "
           f"{'byte-identical' if same_bytes else 'DIFFER'} "
           f"({len(bodies[0][1])} bytes)")


def test_criterion_10_privacy_boundary(monkeypatch):
    # 1. the server round loop never mentions client shards or raw data
    source = inspect.getsource(run_round)
    refs = [token for token in (".shard", ".train.", ".local_test") if token in source]

    # 2. data-free stand-in clients satisfy the whole server-side interface;
    #    any access to shard rows would raise AttributeError
    class StubClients:
        def __init__(self, dims, vecs):
            self.layer_dims = dims
            self.records = [SimpleNamespace(client_id=i) for i in range(len(vecs))]
            self._vecs = vecs

        def __iter__(self):
            return iter(self.records)

        def __len__(self):
            return len(self.records)

        def local_update(self, global_params, cfg, rngs, threads=1):
            self.received = np.asarray(global_params).copy()
            return [v.copy() for v in self._vecs], np.array([0.5 + 0.1 * c.client_id
                                                             for c in self.records])

    net = init_network(4, [3], seed=0)
    dims = net.layer_dims
    rng = np.random.default_rng(0)
    stubs = StubClients(dims, [rng.normal(size=net.n_params) for _ in range(3)])
    holdout = Dataset(name="holdout", features=rng.random((20, 4)),
                      labels=np.array([0, 1] * 10))
    cfg = ExperimentConfig(dataset="stub", n_clients=3, n_rounds=1,
                           strategy="dw-fedavg", repeats=1)

    # 3. record what actually crosses into the aggregation functions
    crossed = []

    def spy_dw(models, idx, **kw):
        crossed.extend(models)
        return dw_fedavg(models, idx, **kw)

    monkeypatch.setattr(federation, "dw_fedavg", spy_dw)
    server = ServerState(cfg.strategy, net.params.copy(), PriorityIndex.uniform(3))
    run_round(server.params, stubs, [server], cfg, holdout=holdout, run_seed=1, round_num=1)
    rep = server.rounds[-1]

    stub_ok = np.array_equal(getattr(stubs, "received", None), net.params)
    types_ok = all(isinstance(m, np.ndarray) and m.ndim == 1 for m in crossed)
    acc_ok = np.allclose(rep.client_local_acc, [0.5, 0.6, 0.7])
    report(10, not refs and stub_ok and types_ok and acc_ok,
           f"server loop source references to shard data: {refs or 'none'}; "
           f"round ran on data-free stub clients; aggregation received "
           f"{len(crossed)} flat parameter vectors and scalar accuracies only")
