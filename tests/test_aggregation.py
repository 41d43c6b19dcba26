"""Aggregation unit tests: averaging oracles and priority-index behavior."""
import numpy as np
import pytest

from fedsim.aggregation import (
    AggregationStrategy,
    PriorityIndex,
    dw_fedavg,
    fedavg,
    update_priority_index,
)


def oracle_weighted_sum(models, weights):
    """Independent element-by-element weighted sum."""
    out = [0.0] * len(models[0])
    for w, vec in zip(weights, models):
        for j, v in enumerate(vec):
            out[j] += w * v
    return np.array(out)


def random_simplex(rng, n):
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


class TestStrategy:
    def test_parse_accepts_spellings(self):
        assert AggregationStrategy.parse("fedavg") is AggregationStrategy.FEDAVG
        assert AggregationStrategy.parse("DW-FedAvg") is AggregationStrategy.DW_FEDAVG
        assert AggregationStrategy.parse("dw_fedavg") is AggregationStrategy.DW_FEDAVG

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            AggregationStrategy.parse("median")


class TestFedavg:
    def test_idempotent_on_copies(self):
        vec = np.array([1.5, -2.0, 0.25, 8.0])
        np.testing.assert_array_equal(fedavg([vec.copy(), vec.copy()]), vec)

    def test_two_vector_mean(self):
        out = fedavg([np.array([0.0, 0.0]), np.array([2.0, 4.0])])
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_matches_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            models = [rng.normal(size=40) for _ in range(n)]
            expected = oracle_weighted_sum(models, [1.0 / n] * n)
            np.testing.assert_allclose(fedavg(models), expected, rtol=0, atol=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fedavg([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            fedavg([np.zeros(3), np.zeros(4)])


class TestDwFedavg:
    def test_uniform_betas_equal_fedavg_bitwise(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 7, 10):
            models = [rng.normal(size=64) for _ in range(n)]
            idx = PriorityIndex.uniform(n)
            np.testing.assert_array_equal(dw_fedavg(models, idx), fedavg(models))

    def test_near_degenerate_weight_returns_first_model(self):
        eps = 1e-9
        n = 4
        betas = np.full(n, eps / (n - 1))
        betas[0] = 1.0 - eps
        idx = PriorityIndex(betas=betas, prev_acc=np.zeros(n))
        models = [np.full(8, float(i + 1)) for i in range(n)]
        np.testing.assert_allclose(dw_fedavg(models, idx), models[0], rtol=0, atol=1e-7)

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            models = [rng.normal(size=32) for _ in range(n)]
            betas = random_simplex(rng, n)
            idx = PriorityIndex(betas=betas, prev_acc=np.zeros(n))
            expected = oracle_weighted_sum(models, betas)
            np.testing.assert_allclose(dw_fedavg(models, idx), expected, rtol=0, atol=1e-12)

    def test_model_count_mismatch_rejected(self):
        idx = PriorityIndex.uniform(3)
        with pytest.raises(ValueError, match="betas"):
            dw_fedavg([np.zeros(4), np.zeros(4)], idx)


class TestPriorityIndexType:
    def test_uniform_construction(self):
        idx = PriorityIndex.uniform(5)
        np.testing.assert_array_equal(idx.betas, np.full(5, 0.2))
        np.testing.assert_array_equal(idx.prev_acc, np.zeros(5))
        assert idx.round == 0

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PriorityIndex(betas=np.array([0.5, 0.6]), prev_acc=np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            PriorityIndex(betas=np.array([1.0, 0.0]), prev_acc=np.zeros(2))

    def test_rejects_bad_alpha_and_acc(self):
        with pytest.raises(ValueError, match="alpha"):
            PriorityIndex(betas=np.array([0.5, 0.5]), prev_acc=np.zeros(2), alpha=1.0)
        with pytest.raises(ValueError, match="prev_acc"):
            PriorityIndex(betas=np.array([0.5, 0.5]), prev_acc=np.array([0.1, 1.5]))


class TestPriorityUpdate:
    def test_first_round_adopts_baseline_without_touching_betas(self):
        idx = PriorityIndex.uniform(5)
        out = update_priority_index(idx, [0.4, 0.5, 0.6, 0.7, 0.8])
        np.testing.assert_array_equal(out.betas, np.full(5, 0.2))
        np.testing.assert_array_equal(out.prev_acc, [0.4, 0.5, 0.6, 0.7, 0.8])
        assert out.round == 1

    def test_hand_computed_single_improver(self):
        # four clients, alpha 0.2, client 0 improves, the rest hold steady:
        # raw betas [0.30, 0.25, 0.25, 0.25], normalizer 1.05
        idx = PriorityIndex(betas=np.full(4, 0.25), prev_acc=np.full(4, 0.5),
                            alpha=0.2, round=1)
        out = update_priority_index(idx, [0.6, 0.5, 0.5, 0.5])
        expected = np.array([0.30, 0.25, 0.25, 0.25]) / 1.05
        np.testing.assert_allclose(out.betas, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            out.betas, [0.2857, 0.2381, 0.2381, 0.2381], rtol=0, atol=1e-4)

    def test_uniform_worsening_restores_previous_betas(self):
        rng = np.random.default_rng(3)
        betas = random_simplex(rng, 6)
        idx = PriorityIndex(betas=betas, prev_acc=np.full(6, 0.9), alpha=0.2, round=3)
        out = update_priority_index(idx, np.full(6, 0.6))
        np.testing.assert_allclose(out.betas, betas, rtol=0, atol=1e-12)

    def test_exact_tie_leaves_beta_untouched(self):
        idx = PriorityIndex(betas=np.array([0.5, 0.5]), prev_acc=np.array([0.75, 0.5]),
                            round=2)
        out = update_priority_index(idx, [0.75, 0.75])
        # client 0 tied exactly, client 1 improved
        raw = np.array([0.5, 0.6])
        np.testing.assert_allclose(out.betas, raw / raw.sum(), rtol=0, atol=1e-12)

    def test_prev_acc_refreshes_every_round(self):
        idx = PriorityIndex.uniform(3)
        idx = update_priority_index(idx, [0.5, 0.5, 0.5])
        idx = update_priority_index(idx, [0.6, 0.4, 0.5])
        np.testing.assert_array_equal(idx.prev_acc, [0.6, 0.4, 0.5])
        assert idx.round == 2

    def test_repeated_rewards_compound_geometrically(self):
        # k consecutive strict improvements multiply the raw beta by (1+alpha)^k
        alpha = 0.2
        k = 6
        idx = PriorityIndex(betas=np.full(2, 0.5), prev_acc=np.array([0.1, 0.5]),
                            alpha=alpha, round=1)
        acc = 0.1
        for _ in range(k):
            acc += 0.05
            idx = update_priority_index(idx, [acc, 0.5])
        ratio = idx.betas[0] / idx.betas[1]
        assert ratio == pytest.approx((1 + alpha) ** k, rel=1e-12)

    def test_input_index_is_not_mutated(self):
        idx = PriorityIndex(betas=np.full(4, 0.25), prev_acc=np.full(4, 0.5), round=2)
        before = idx.betas.copy()
        update_priority_index(idx, [0.9, 0.1, 0.5, 0.5])
        np.testing.assert_array_equal(idx.betas, before)

    def test_curr_acc_validation(self):
        idx = PriorityIndex.uniform(3)
        with pytest.raises(ValueError, match="shape"):
            update_priority_index(idx, [0.5, 0.5])
        with pytest.raises(ValueError, match="lie in"):
            update_priority_index(idx, [0.5, 0.5, 1.5])


class TestRandomizedProperties:
    def test_simplex_monotonicity_permutation(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            betas = random_simplex(rng, n)
            prev = rng.random(n)
            idx = PriorityIndex(betas=betas, prev_acc=prev, alpha=0.2,
                                round=int(rng.integers(1, 5)))
            curr = rng.random(n)
            out = update_priority_index(idx, curr)

            # simplex preservation
            assert (out.betas > 0).all()
            assert abs(out.betas.sum() - 1.0) <= 1e-9

            # monotone response: a lone strict improver gains normalized weight
            lone = int(rng.integers(0, n))
            lone_curr = prev.copy()
            lone_curr[lone] = min(prev[lone] + 0.1, 1.0)
            if lone_curr[lone] > prev[lone]:
                bumped = update_priority_index(idx, lone_curr)
                assert bumped.betas[lone] > idx.betas[lone]

            # permutation equivariance of the update and of the aggregate
            perm = rng.permutation(n)
            perm_idx = PriorityIndex(betas=betas[perm], prev_acc=prev[perm],
                                     alpha=0.2, round=idx.round)
            perm_out = update_priority_index(perm_idx, curr[perm])
            np.testing.assert_allclose(perm_out.betas, out.betas[perm],
                                       rtol=0, atol=1e-12)

            models = [rng.normal(size=8) for _ in range(n)]
            agg = dw_fedavg(models, out)
            perm_agg = dw_fedavg([models[j] for j in perm], perm_out)
            np.testing.assert_allclose(perm_agg, agg, rtol=0, atol=1e-12)
