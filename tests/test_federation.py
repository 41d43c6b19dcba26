"""Federated loop tests: round mechanics, determinism and seed derivation."""
import tracemalloc

import numpy as np
import pytest

from fedsim.aggregation import AggregationStrategy, PriorityIndex, dw_fedavg, update_priority_index
from fedsim.data import Dataset
from fedsim.federation import (
    ClientState,
    ExperimentConfig,
    _client_rng,
    derive_seed,
    run_experiment,
    run_repeat,
    run_round,
    setup_repeat,
    train_clients,
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
                             ("local_test_fraction", 0.0), ("local_test_fraction", 1.0),
                             ("hidden_dims", (8, 0))]:
            with pytest.raises(ValueError, match=field):
                small_config(**{field: value})

    def test_strategy_string_is_parsed(self):
        cfg = small_config(strategy="fedavg")
        assert cfg.strategy is AggregationStrategy.FEDAVG


class TestRunRound:
    def test_zero_learning_rate_is_a_fixed_point(self, small_dataset):
        cfg = small_config(n_clients=4, train=TrainConfig(learning_rate=0.0))
        holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=5)
        new_params, _, report = run_round(
            params, clients, idx, cfg, holdout=holdout, run_seed=5, round_num=1)
        np.testing.assert_allclose(new_params, params, rtol=1e-12, atol=1e-15)
        assert report.round == 1

    def test_single_client_reduction(self, small_dataset):
        for strategy in AggregationStrategy:
            cfg = small_config(strategy=strategy)
            holdout, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=3)
            solo = [clients[0]]
            idx = PriorityIndex.uniform(1)
            new_params, _, _ = run_round(
                params, solo, idx, cfg, holdout=holdout, run_seed=3, round_num=1)
            np.testing.assert_array_equal(new_params, solo[0].model.to_vector())

    def test_round_one_strategy_equivalence_is_bitwise(self, small_dataset):
        results = {}
        for strategy in AggregationStrategy:
            cfg = small_config(strategy=strategy)
            holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=9)
            new_params, _, _ = run_round(
                params, clients, idx, cfg, holdout=holdout, run_seed=9, round_num=1)
            results[strategy] = new_params
        np.testing.assert_array_equal(results[AggregationStrategy.FEDAVG],
                                      results[AggregationStrategy.DW_FEDAVG])

    def test_stack_rows_are_the_clients_in_client_order(self, small_dataset):
        # at run seed 5 the 7 clients' shard lengths are not in client order
        _, clients, _, _ = setup_repeat(small_config(n_clients=7), small_dataset, run_seed=5)
        for i, client in enumerate(clients):
            assert np.shares_memory(clients.params[i], client.model.params)

    def test_returned_vectors_are_copies_of_the_client_models(self, small_dataset):
        cfg = small_config()
        _, clients, _, _ = setup_repeat(cfg, small_dataset, run_seed=5)
        vecs, _ = train_clients(clients, cfg.train,
                                [_client_rng(5, 1, c.client_id) for c in clients])
        trained = clients[0].model.params.copy()
        vecs[0][:] = 0.0
        assert clients[0].model.params.tobytes() == trained.tobytes()

    def test_matches_clients_trained_one_by_one(self, small_dataset):
        # 7 clients hold 72-74 training rows, not in client order, so every
        # epoch ends in batches of 8, 9 and 10 rows
        cfg = small_config(n_clients=7)
        holdout, clients, params, idx = setup_repeat(cfg, small_dataset, run_seed=5)
        _, alone, alone_params, alone_idx = setup_repeat(cfg, small_dataset, run_seed=5)
        assert len({len(c.shard.train) for c in clients}) == 3
        for round_num in (1, 2):
            params, idx, report = run_round(params, clients, idx, cfg, holdout=holdout,
                                            run_seed=5, round_num=round_num)
            results = []
            for client in alone:
                client.receive_global(alone_params)
                results.append(client.local_update(
                    cfg.train, _client_rng(5, round_num, client.client_id)))
            accs = np.array([acc for _, acc in results])
            alone_idx = update_priority_index(alone_idx, accs)
            alone_params = dw_fedavg([vec for vec, _ in results], alone_idx)
            assert params.tobytes() == alone_params.tobytes()
            assert report.client_local_acc.tolist() == accs.tolist()
            for client, ref in zip(clients, alone):
                assert client.model.params.tobytes() == ref.model.params.tobytes()

    def test_betas_stay_uniform_in_round_one_and_move_later(self, small_dataset):
        cfg = small_config(n_rounds=3)
        result = run_experiment(cfg, small_dataset)
        rounds = result.repeats[0].rounds
        np.testing.assert_array_equal(rounds[0].betas_after_update,
                                      np.full(cfg.n_clients, 1 / cfg.n_clients))
        for report in rounds:
            assert abs(report.betas_after_update.sum() - 1.0) <= 1e-9
            assert report.client_local_acc.size == cfg.n_clients


class TestSetupRepeat:
    def test_shards_index_the_dataset_and_leave_out_only_the_holdout_rows(self, small_dataset):
        holdout, clients, _, _ = setup_repeat(small_config(n_clients=4), small_dataset, run_seed=5)
        assert all(c.shard.data is small_dataset for c in clients)
        dealt = np.concatenate([np.concatenate([c.shard.train, c.shard.local_test])
                                for c in clients])
        assert np.unique(dealt).size == dealt.size
        rest = np.setdiff1d(np.arange(len(small_dataset)), dealt)
        assert rest.size == len(holdout)
        assert holdout.features.tobytes() == small_dataset.features[rest].tobytes()
        assert holdout.labels.tobytes() == small_dataset.labels[rest].tobytes()

    def test_the_holdout_is_the_only_copy_of_feature_rows(self):
        ds = resolve_synthetic("synth-drebin")
        cfg = ExperimentConfig(dataset=ds.name, n_clients=5)
        tracemalloc.start()
        try:
            setup_repeat(cfg, ds, run_seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the holdout alone is 0.2 of the features
        assert peak < 0.5 * ds.features.nbytes


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
        cfg = small_config(n_rounds=2, repeats=3)
        whole = run_experiment(cfg, small_dataset)
        for r in (2, 0):
            alone, inside = run_repeat(cfg, small_dataset, r), whole.repeats[r]
            assert (alone.repeat, alone.run_seed) == (inside.repeat, inside.run_seed) == (r, 11 + r)
            assert len(alone.rounds) == len(inside.rounds) == cfg.n_rounds
            for a, b in zip(alone.rounds, inside.rounds):
                assert a.global_metrics == b.global_metrics
                assert a.client_local_acc.tobytes() == b.client_local_acc.tobytes()
                assert a.betas_after_update.tobytes() == b.betas_after_update.tobytes()

    def test_repeat_seeds_are_master_seed_plus_index(self, small_dataset):
        result = run_experiment(small_config(repeats=3, master_seed=20), small_dataset)
        assert [r.run_seed for r in result.repeats] == [20, 21, 22]


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
            params, idx, report = run_round(params, clients, idx, cfg, holdout=holdout,
                                            run_seed=42, round_num=round_num)
        return report

    def test_dw_fedavg_down_weights_a_client_with_flipped_labels(self):
        fedavg = self.final_round(AggregationStrategy.FEDAVG)
        dw = self.final_round(AggregationStrategy.DW_FEDAVG)
        assert dw.global_metrics.accuracy >= fedavg.global_metrics.accuracy
        assert int(np.argmin(dw.betas_after_update)) == 0


class TestClientState:
    def test_local_update_returns_vector_and_scalar_accuracy(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=1)
        client = clients[0]
        client.receive_global(params)
        vec, acc = client.local_update(cfg.train, np.random.default_rng(0))
        assert isinstance(vec, np.ndarray)
        assert vec.ndim == 1
        assert vec.size == client.model.n_params
        assert isinstance(acc, float)
        assert 0.0 <= acc <= 1.0

    def test_local_update_trains_the_client_model_in_place(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=1)
        client = clients[0]
        model, buffer = client.model, client.model.params
        vec, _ = client.local_update(cfg.train, np.random.default_rng(0))
        assert client.model is model and client.model.params is buffer
        np.testing.assert_array_equal(client.model.params, vec)
        assert not np.array_equal(vec, params)

    def test_receive_global_overwrites_local_model(self, small_dataset):
        cfg = small_config()
        _, clients, params, _ = setup_repeat(cfg, small_dataset, run_seed=1)
        client = clients[0]
        client.local_update(cfg.train, np.random.default_rng(0))
        client.receive_global(params)
        np.testing.assert_array_equal(client.model.to_vector(), params)
