"""Federated loop tests: round mechanics, determinism and seed derivation."""
import dataclasses
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fedsim import cli, federation, nn
from fedsim.aggregation import AggregationStrategy, PriorityIndex, dw_fedavg, update_priority_index
from fedsim.data import Dataset
from fedsim.federation import (
    ClientState,
    ExperimentConfig,
    ServerState,
    _client_rng,
    derive_seed,
    run_experiment,
    run_family,
    run_round,
    setup_repeat,
)
from fedsim.nn import TrainConfig
from fedsim.synth import make_two_cluster, resolve_synthetic


def small_config(**overrides):
    defaults = dict(
        dataset="synth-small",
        n_clients=3,
        n_rounds=2,
        strategy=AggregationStrategy.DW_FEDAVG,
        train=TrainConfig(local_epochs=2),
        repeats=1,
        master_seed=11,
        hidden_dims=(8,),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def alone(clients, i):
    """Client ``i`` of ``clients`` as a ClientState of one, with a stack of its own."""
    return ClientState(clients.data, clients[i:i + 1], clients.layer_dims,
                       np.empty((1, clients.params.shape[1])))


def server_round(params, clients, idx, cfg, **kwargs):
    """run_round for one server of cfg's strategy; returns its (params, index, report)."""
    server = ServerState(cfg.strategy, params, idx)
    run_round(params, clients, [server], cfg, **kwargs)
    if server.error is not None:
        raise server.error
    return server.params, server.idx, server.rounds[-1]


@pytest.fixture(scope="module")
def small_dataset():
    return resolve_synthetic("synth-small")


class TestSeedDerivation:
    def test_deterministic_and_domain_separated(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 3, 1, 0) != derive_seed(42, 3, 0, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(n_clients=1)
        with pytest.raises(ValueError):
            small_config(n_rounds=0)
        with pytest.raises(ValueError):
            small_config(repeats=0)
        for field, value in [("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5),
                             ("holdout_fraction", 0.0), ("holdout_fraction", 1.0),
                             ("local_test_fraction", 0.0), ("local_test_fraction", 1.0),
                             ("hidden_dims", (8, 0))]:
            with pytest.raises(ValueError, match=field):
                small_config(**{field: value})

    def test_network_is_sized_at_the_input_width(self):
        cfg = small_config(hidden_dims=(3_000_000_000_000_000_000,))  # fits at input width 1
        with pytest.raises(ValueError, match="hidden_dims .* at input width 30"):
            cfg.check_input_width(30)

    def test_strategy_string_is_parsed(self):
        cfg = small_config(strategy="fedavg")
        assert cfg.strategy is AggregationStrategy.FEDAVG


class TestRunRound:
    def test_zero_learning_rate_is_a_fixed_point(self, small_dataset):
        cfg = small_config(n_clients=4, train=TrainConfig(learning_rate=0.0))
        holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=5)
        new_params, _, report = server_round(
            params, clients, idx, cfg, holdout=holdout, run_seed=5, round_num=1)
        np.testing.assert_allclose(new_params, params, rtol=1e-12, atol=1e-15)
        assert report.round == 1

    def test_single_client_reduction(self, small_dataset):
        for strategy in AggregationStrategy:
            cfg = small_config(strategy=strategy)
            holdout, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=3)
            solo = alone(clients, 0)
            idx = PriorityIndex.uniform(1)
            new_params, _, _ = server_round(
                params, solo, idx, cfg, holdout=holdout, run_seed=3, round_num=1)
            np.testing.assert_array_equal(new_params, solo.params[0])

    def test_round_one_strategy_equivalence_is_bitwise(self, small_dataset):
        results = {}
        for strategy in AggregationStrategy:
            cfg = small_config(strategy=strategy)
            holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=9)
            new_params, _, _ = server_round(
                params, clients, idx, cfg, holdout=holdout, run_seed=9, round_num=1)
            results[strategy] = new_params
        np.testing.assert_array_equal(results[AggregationStrategy.FEDAVG],
                                      results[AggregationStrategy.DW_FEDAVG])

    def test_stack_rows_are_the_clients_in_client_order(self, small_dataset):
        # at run seed 5 the 7 clients' shard lengths are not in client order
        _, clients, params, _ = setup_repeat(small_config(n_clients=7), small_dataset, run_seed=5)
        assert [c.client_id for c in clients] == [*range(7)]
        lengths = [len(c.shard.train) for c in clients]
        assert lengths != sorted(lengths, reverse=True)
        assert clients.params.shape == (7, params.size)
        assert clients.layer_dims == [small_dataset.n_features, 8, 1]

    def test_returned_vectors_are_copies_of_the_client_models(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=5)
        vecs, _ = clients.local_update(params, cfg.train,
                                       [_client_rng(5, 1, c.client_id) for c in clients])
        trained = clients.params[0].copy()
        vecs[0][:] = 0.0
        assert clients.params[0].tobytes() == trained.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("strategy", list(AggregationStrategy))
    def test_client_vectors_are_freed_before_the_holdout_is_scored(
            self, small_dataset, monkeypatch, strategy, threads):
        combined, freed_at_scoring = [], []

        def spy_on(real):
            def combine(models, *args):
                # the rows are views of one (K, P) copy of the client stack
                combined.append(weakref.ref(models[0].base))
                return real(models, *args)
            return combine

        def evaluate(scores, labels):
            freed_at_scoring.append(combined[-1]() is None)
            return real_evaluate(scores, labels)

        for name in ("fedavg", "dw_fedavg"):
            monkeypatch.setattr(federation, name, spy_on(getattr(federation, name)))
        real_evaluate = federation.evaluate_scores
        monkeypatch.setattr(federation, "evaluate_scores", evaluate)
        run_experiment(small_config(strategy=strategy), small_dataset, threads=threads)
        assert freed_at_scoring == [True, True]  # one per round

    def test_matches_clients_trained_one_by_one(self, small_dataset):
        # 7 clients hold 72-74 training rows, not in client order, so every
        # epoch ends in batches of 8, 9 and 10 rows
        cfg = small_config(n_clients=7)
        holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=5)
        _, others, alone_params, alone_idx = setup_repeat(cfg, small_dataset, run_seed=5)
        solos = [alone(others, i) for i in range(cfg.n_clients)]
        assert len({len(c.shard.train) for c in clients}) == 3
        for round_num in (1, 2):
            params, idx, report = server_round(params, clients, idx, cfg, holdout=holdout,
                                               run_seed=5, round_num=round_num)
            results = []
            for solo in solos:
                (vec,), (acc,) = solo.local_update(
                    alone_params, cfg.train, [_client_rng(5, round_num, solo[0].client_id)])
                results.append((vec, acc))
            accs = np.array([acc for _, acc in results])
            alone_idx = update_priority_index(alone_idx, accs)
            alone_params = dw_fedavg([vec for vec, _ in results], alone_idx)
            assert params.tobytes() == alone_params.tobytes()
            assert report.client_local_acc.tolist() == accs.tolist()
            for row, solo in zip(clients.params, solos, strict=True):
                assert row.tobytes() == solo.params[0].tobytes()

    def test_betas_stay_uniform_in_round_one_and_move_later(self, small_dataset):
        cfg = small_config(n_rounds=3)
        result = run_experiment(cfg, small_dataset)
        rounds = result.repeats[0].rounds
        np.testing.assert_array_equal(rounds[0].betas_after_update,
                                      np.full(cfg.n_clients, 1 / cfg.n_clients))
        for report in rounds:
            assert abs(report.betas_after_update.sum() - 1.0) <= 1e-9
            assert report.client_local_acc.size == cfg.n_clients

    def test_a_server_whose_scoring_raises_keeps_its_old_state(self, small_dataset, monkeypatch):
        cfg = small_config()
        holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=5)
        _, alone_clients, _, _ = setup_repeat(cfg, small_dataset, run_seed=5)
        fedavg_params, _, report = server_round(
            params, alone_clients, idx, dataclasses.replace(cfg, strategy=AggregationStrategy.FEDAVG),
            holdout=holdout, run_seed=5, round_num=1)
        # round one gives both servers one vector; the first scoring of it raises, so the
        # second server scores it again
        calls = []
        real_evaluate = federation.evaluate_scores

        def evaluate(scores, labels):
            calls.append(1)
            if len(calls) == 1:
                raise FloatingPointError("scoring failed")
            return real_evaluate(scores, labels)

        monkeypatch.setattr(federation, "evaluate_scores", evaluate)
        failing = ServerState(AggregationStrategy.DW_FEDAVG, params.copy(), idx)
        other = ServerState(AggregationStrategy.FEDAVG, params.copy(), idx)
        old_params = failing.params
        run_round(params, clients, [failing, other], cfg, holdout=holdout, run_seed=5, round_num=1)
        assert len(calls) == 2
        assert isinstance(failing.error, FloatingPointError)
        assert failing.params is old_params and failing.params.tobytes() == params.tobytes()
        assert failing.idx is idx and failing.rounds == []
        assert other.error is None and [r.round for r in other.rounds] == [1]
        assert other.params.tobytes() == fedavg_params.tobytes() != params.tobytes()
        assert other.rounds[0].global_metrics == report.global_metrics


class TestSetupRepeat:
    def test_shards_index_the_dataset_and_leave_out_only_the_holdout_rows(self, small_dataset):
        holdout, clients, _, _ = setup_repeat(small_config(n_clients=4), small_dataset, run_seed=5)
        assert clients.data is small_dataset
        dealt = np.concatenate([np.concatenate([c.shard.train, c.shard.local_test])
                                for c in clients])
        assert np.unique(dealt).size == dealt.size
        rest = np.setdiff1d(np.arange(len(small_dataset)), dealt)
        assert rest.size == len(holdout)
        assert holdout.features.tobytes() == small_dataset.features[rest].tobytes()
        assert holdout.labels.tobytes() == small_dataset.labels[rest].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "uint8"])
    def test_the_holdout_is_the_only_copy_of_feature_rows(self, dtype):
        ds = resolve_synthetic("synth-drebin")
        ds = Dataset(ds.name, ds.features.astype(dtype), ds.labels)
        cfg = ExperimentConfig(dataset=ds.name, n_clients=5)
        tracemalloc.start()
        try:
            holdout, clients, params, _ = setup_repeat(cfg, ds, run_seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert holdout.features.dtype == dtype
        if dtype is np.float64:
            # the holdout alone is 0.2 of the features
            assert peak < 0.5 * ds.features.nbytes
        else:
            # a byte per cell is small next to the networks: beyond the holdout, the
            # clients' stack and the global vector, less than half a copy of the table
            held = holdout.features.nbytes + clients.params.nbytes + params.nbytes
            assert peak < held + 0.5 * ds.features.nbytes

    def test_the_labels_are_checked_once_per_repeat(self, small_dataset, monkeypatch):
        counts = {"setup": 0, "training": 0}
        real = nn._check_labels

        def counting(key):
            def check(*args):
                counts[key] += 1
                return real(*args)
            return check

        monkeypatch.setattr(federation, "_check_labels", counting("setup"))
        monkeypatch.setattr(nn, "_check_labels", counting("training"))
        run_experiment(small_config(n_rounds=3, repeats=2, train=TrainConfig(local_epochs=2)),
                       small_dataset, threads=2)
        assert counts == {"setup": 2, "training": 0}

    def test_labels_that_are_not_0_1_are_rejected_at_set_up(self, small_dataset):
        bad = Dataset(small_dataset.name, small_dataset.features, small_dataset.labels * 2)
        with pytest.raises(ValueError, match="0/1"):
            setup_repeat(small_config(), bad, run_seed=5)


class TestTableDtype:
    """A 0/1 table held as uint8 trains and scores to the bits of its float64 copy."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_uint8_family_matches_its_float64_copy(self, small_dataset, threads, tmp_path):
        assert small_dataset.features.dtype == np.uint8
        wide = Dataset(small_dataset.name, small_dataset.features.astype(np.float64),
                       small_dataset.labels)
        # 6 clients hold 85 or 86 training rows: every epoch ends in a step of 21- and
        # 22-row batches, which gathers client by client
        cfgs = [small_config(n_clients=6, strategy=strategy, n_rounds=rounds, repeats=2)
                for strategy in AggregationStrategy for rounds in (1, 3)]
        outputs = []
        for ds in (small_dataset, wide):
            family = run_family(cfgs, ds, threads)
            assert not any(isinstance(r, Exception) for r in family.results)
            files = []
            for i, (cfg, result) in enumerate(zip(cfgs, family.results)):
                cell = cli.GridCell(ds.name, cfg.n_clients, cfg.n_rounds, cfg.strategy)
                path = tmp_path / f"rounds_{ds.features.dtype}_{i}.csv"
                cli.write_round_log(path, cell, result)
                files.append((path.read_bytes(), cli.summary_row(cell, result),
                              [(report.global_metrics, report.client_local_acc.tobytes(),
                                report.betas_after_update.tobytes())
                               for repeat in result.repeats for report in repeat.rounds]))
            outputs.append(files)
        assert outputs[0] == outputs[1]


class TestRunExperiment:
    def test_identical_master_seed_identical_summaries(self, small_dataset):
        cfg = small_config(repeats=2)
        a = run_experiment(cfg, small_dataset).summary()
        b = run_experiment(cfg, small_dataset).summary()
        assert a == b

    def test_different_master_seed_differs(self, small_dataset):
        a = run_experiment(small_config(master_seed=1), small_dataset).summary()
        b = run_experiment(small_config(master_seed=2), small_dataset).summary()
        assert a != b

    def test_two_cluster_dataset_reaches_high_accuracy(self):
        ds = make_two_cluster(n_samples=400, seed=0)
        for strategy in AggregationStrategy:
            cfg = ExperimentConfig(dataset="two-cluster", n_clients=5, n_rounds=10,
                                   strategy=strategy, repeats=1, master_seed=0,
                                   hidden_dims=(16, 8))
            result = run_experiment(cfg, ds)
            assert result.summary()["accuracy"][0] >= 0.95

    def test_round_reports_are_complete(self, small_dataset):
        cfg = small_config(n_rounds=4, repeats=2)
        result = run_experiment(cfg, small_dataset)
        assert len(result.repeats) == 2
        for repeat in result.repeats:
            assert [r.round for r in repeat.rounds] == [1, 2, 3, 4]
            for report in repeat.rounds:
                for value in report.global_metrics.as_dict().values():
                    assert 0.0 <= value <= 1.0
        stats = result.summary()
        assert set(stats) == {"accuracy", "f1", "auc", "fpr"}

    def test_a_repeat_run_alone_matches_it_inside_the_experiment(self, small_dataset):
        # repeat r alone is the one repeat of the config seeded master_seed + r
        cfg = small_config(n_rounds=2, repeats=3)
        whole = run_experiment(cfg, small_dataset)
        for r in (2, 0):
            shifted = dataclasses.replace(cfg, master_seed=cfg.master_seed + r, repeats=1)
            (alone,), inside = run_experiment(shifted, small_dataset).repeats, whole.repeats[r]
            assert (alone.repeat, inside.repeat) == (0, r)
            assert alone.run_seed == inside.run_seed == 11 + r
            assert len(alone.rounds) == len(inside.rounds) == cfg.n_rounds
            for a, b in zip(alone.rounds, inside.rounds):
                assert a.global_metrics == b.global_metrics
                assert a.client_local_acc.tobytes() == b.client_local_acc.tobytes()
                assert a.betas_after_update.tobytes() == b.betas_after_update.tobytes()

    def test_repeat_seeds_are_master_seed_plus_index(self, small_dataset):
        result = run_experiment(small_config(repeats=3, master_seed=20), small_dataset)
        assert [r.run_seed for r in result.repeats] == [20, 21, 22]


class TestFamily:
    """Configs that differ only in strategy and rounds train together, each as if alone."""

    def count_trainings(self, monkeypatch):
        calls, real = [], ClientState.local_update
        monkeypatch.setattr(ClientState, "local_update",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        return calls

    @staticmethod
    def assert_same_result(result, ref):
        for repeat, ref_repeat in zip(result.repeats, ref.repeats, strict=True):
            assert (repeat.repeat, repeat.run_seed) == (ref_repeat.repeat, ref_repeat.run_seed)
            for a, b in zip(repeat.rounds, ref_repeat.rounds, strict=True):
                assert a.round == b.round
                assert a.global_metrics == b.global_metrics
                assert a.client_local_acc.tobytes() == b.client_local_acc.tobytes()
                assert a.betas_after_update.tobytes() == b.betas_after_update.tobytes()

    def test_one_config_trains_once_per_round(self, small_dataset, monkeypatch):
        calls = self.count_trainings(monkeypatch)
        run_experiment(small_config(n_rounds=3, repeats=2), small_dataset, threads=1)
        assert len(calls) == 3 * 2

    def test_each_result_is_the_config_run_alone(self, small_dataset, monkeypatch):
        cfgs = [small_config(n_rounds=n, strategy=s, repeats=2)
                for n in (2, 4) for s in AggregationStrategy]
        alone = [run_experiment(cfg, small_dataset, threads=1) for cfg in cfgs]
        calls = self.count_trainings(monkeypatch)
        family = run_family(cfgs, small_dataset, threads=1)
        assert family.rounds_trained == len(calls) <= 2 * (2 * 4 - 1)
        for result, ref in zip(family.results, alone, strict=True):
            self.assert_same_result(result, ref)

    def test_a_failing_server_fails_only_its_own_longer_configs(self, small_dataset, monkeypatch):
        def dw_fedavg(models, idx):
            if idx.round == 2:
                raise RuntimeError("dw round 2")
            return real(models, idx)

        real = federation.dw_fedavg
        monkeypatch.setattr(federation, "dw_fedavg", dw_fedavg)
        cfgs = [small_config(n_rounds=n, strategy=s) for n in (1, 3) for s in AggregationStrategy]
        results = run_family(cfgs, small_dataset, threads=1).results
        assert [isinstance(r, Exception) for r in results] == [False, False, False, True]
        assert str(results[3]) == "dw round 2"
        with pytest.raises(RuntimeError, match="dw round 2"):
            run_experiment(cfgs[3], small_dataset, threads=1)

    def test_a_config_failing_in_two_repeats_reports_the_first(self, small_dataset, monkeypatch):
        seeds, raised = [], []

        def client_rng(run_seed, round_num, client_id):  # notes the repeat being trained
            seeds.append(run_seed)
            return real_rng(run_seed, round_num, client_id)

        def dw_fedavg(models, idx):  # round 3 fails in repeats 1 and 2, with their seeds
            if idx.round == 3 and seeds[-1] != 11:
                raised.append(f"dw round 3 of seed {seeds[-1]}")
                raise RuntimeError(raised[-1])
            return real_dw(models, idx)

        real_rng, real_dw = federation._client_rng, federation.dw_fedavg
        monkeypatch.setattr(federation, "_client_rng", client_rng)
        monkeypatch.setattr(federation, "dw_fedavg", dw_fedavg)
        cfgs = [small_config(n_rounds=n, strategy=s, repeats=3)
                for n in (2, 3) for s in AggregationStrategy]
        results = run_family(cfgs, small_dataset, threads=1).results
        assert raised == ["dw round 3 of seed 12", "dw round 3 of seed 13"]
        assert [isinstance(r, Exception) for r in results] == [False, False, False, True]
        assert str(results[3]) == "dw round 3 of seed 12"
        with pytest.raises(RuntimeError, match="^dw round 3 of seed 12$"):
            run_experiment(cfgs[3], small_dataset, threads=1)
        for cfg, result in zip(cfgs[:3], results):
            assert [repeat.run_seed for repeat in result.repeats] == [11, 12, 13]
            self.assert_same_result(result, run_experiment(cfg, small_dataset, threads=1))

    def test_configs_that_differ_in_more_are_not_a_family(self, small_dataset):
        with pytest.raises(ValueError, match="differ only in strategy and n_rounds"):
            run_family([small_config(), small_config(n_clients=4)], small_dataset)


class TestThreads:
    """A round's client stack split across threads: the same bits, and errors as unsplit."""

    def test_results_do_not_depend_on_the_thread_count(self, small_dataset):
        cfg = small_config(n_clients=5, n_rounds=2, repeats=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the interpreter lock often
        try:
            runs = {t: run_experiment(cfg, small_dataset, threads=t)
                    for t in (1, 2, cfg.n_clients + 1)}
        finally:
            sys.setswitchinterval(interval)
        for result in runs.values():
            for repeat, ref in zip(result.repeats, runs[1].repeats, strict=True):
                assert (repeat.repeat, repeat.run_seed) == (ref.repeat, ref.run_seed)
                for a, b in zip(repeat.rounds, ref.rounds, strict=True):
                    assert a.global_metrics == b.global_metrics
                    assert a.client_local_acc.tobytes() == b.client_local_acc.tobytes()
                    assert a.betas_after_update.tobytes() == b.betas_after_update.tobytes()

    def test_two_threads_train_the_clients_on_two_threads(self, small_dataset, monkeypatch):
        seen, real = set(), federation.sgd_epochs

        def spy(*args, **kwargs):
            seen.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "sgd_epochs", spy)
        run_experiment(small_config(n_clients=4), small_dataset, threads=2)
        assert len(seen) >= 2

    def test_threads_below_one_is_an_error(self, small_dataset):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_experiment(small_config(), small_dataset, threads=0)

    # numpy warns of the overflow this case provokes on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2, 3, 5, 6])
    def test_divergence_names_the_lowest_diverged_client(self, small_dataset, threads):
        # clients 3 and 4 of 5 overflow: at 2 threads both sit in the helper's
        # group, at 3 and 5 threads each in a group of its own
        cfg = small_config(n_clients=5)
        blown = Dataset(small_dataset.name, small_dataset.features.astype(np.float64),
                        small_dataset.labels)
        _, clients, params, _ = setup_repeat(cfg, blown, run_seed=5)
        for client in clients[3:]:
            blown.features[client.shard.train] = 1e300
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=r"^client 3: local training diverged"):
            clients.local_update(params, cfg.train,
                                 [_client_rng(5, 1, c.client_id) for c in clients], threads)
        assert threading.active_count() == before
        assert all(np.isfinite(row).all() for row in clients.params[:3])


@pytest.mark.slow
class TestPoorClient:
    """The paper's motivating case: one client whose local model is poor."""

    def final_round(self, strategy):
        ds = resolve_synthetic("synth-malgenome")
        cfg = ExperimentConfig(dataset=ds.name, n_clients=5, n_rounds=10, strategy=strategy,
                               repeats=1, master_seed=42)
        # the shards index the table they are given: flip a copy of the labels, not ds's own
        flipped = Dataset(ds.name, ds.features, ds.labels.copy())
        holdout, clients, params, idx = setup_repeat(cfg, flipped, run_seed=42)
        # client 0 trains on flipped labels; the holdout and local test rows stay clean
        train = clients[0].shard.train
        flipped.labels[train] = 1 - flipped.labels[train]
        for round_num in range(1, cfg.n_rounds + 1):
            params, idx, report = server_round(params, clients, idx, cfg, holdout=holdout,
                                               run_seed=42, round_num=round_num)
        return report

    def test_dw_fedavg_down_weights_a_client_with_flipped_labels(self):
        fedavg = self.final_round(AggregationStrategy.FEDAVG)
        dw = self.final_round(AggregationStrategy.DW_FEDAVG)
        assert dw.global_metrics.accuracy >= fedavg.global_metrics.accuracy
        assert int(np.argmin(dw.betas_after_update)) == 0


class TestClientState:
    def rngs(self, clients):
        return [np.random.default_rng(c.client_id) for c in clients]

    def test_local_update_returns_vectors_and_scalar_accuracies(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=1)
        vecs, accs = clients.local_update(params, cfg.train, self.rngs(clients))
        assert len(vecs) == accs.size == cfg.n_clients
        for vec, acc in zip(vecs, accs):
            assert isinstance(vec, np.ndarray)
            assert vec.ndim == 1
            assert vec.size == params.size
            assert isinstance(acc, float)
            assert 0.0 <= acc <= 1.0

    def test_local_update_trains_the_stack_in_place(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=1)
        buffer = clients.params
        vecs, _ = clients.local_update(params, cfg.train, self.rngs(clients))
        assert clients.params is buffer
        np.testing.assert_array_equal(clients.params, vecs)
        assert not any(np.array_equal(vec, params) for vec in vecs)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_local_update_trains_on_the_table_it_holds(self, small_dataset, threads):
        # the splits read only the labels and the seeds, so both tables deal the same shards
        cfg = small_config()
        other = Dataset(small_dataset.name, 1 - small_dataset.features, small_dataset.labels)
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=5)
        _, on_other, _, _ = setup_repeat(cfg, other, run_seed=5)
        assert [c.shard.train.tolist() for c in clients] == [c.shard.train.tolist() for c in on_other]
        moved = dataclasses.replace(clients, data=other, params=np.empty_like(clients.params))
        vecs, accs = moved.local_update(params, cfg.train, self.rngs(moved), threads)
        expected, expected_accs = on_other.local_update(params, cfg.train, self.rngs(on_other), threads)
        assert vecs.tobytes() == expected.tobytes()
        assert accs.tolist() == expected_accs.tolist()
        own, _ = clients.local_update(params, cfg.train, self.rngs(clients), threads)
        assert own.tobytes() != vecs.tobytes()

    def test_the_broadcast_overwrites_the_local_models(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=1)
        first, _ = clients.local_update(params, cfg.train, self.rngs(clients))
        clients.params[:] = np.nan  # a stale stack leaves no trace in the next update
        again, _ = clients.local_update(params, cfg.train, self.rngs(clients))
        np.testing.assert_array_equal(again, first)
        clients.local_update(params, TrainConfig(learning_rate=0.0), self.rngs(clients))
        np.testing.assert_array_equal(clients.params, np.tile(params, (cfg.n_clients, 1)))
