"""Network unit tests: shapes, forward oracle, gradients, SGD behavior."""
import numpy as np
import pytest

from fedsim.nn import (
    PROB_CLIP,
    DenseNetwork,
    TrainConfig,
    _sigmoid,
    init_network,
    loss_and_gradient,
    predict_labels,
    sgd_epoch,
    sgd_epochs,
)
from fedsim.synth import make_two_cluster


def oracle_forward(net, X):
    """Reference forward pass written independently of DenseNetwork.forward."""
    a = np.asarray(X, dtype=float)
    for k in range(len(net.weights)):
        z = a.dot(net.weights[k]) + net.biases[k]
        a = np.maximum(z, 0.0) if k < len(net.weights) - 1 else 1.0 / (1.0 + np.exp(-z))
    return a.ravel()


def two_branch_sigmoid(z):
    """Reference sigmoid: each sign's branch computed on its own entries."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def finite_difference_grad(net, X, y, eps=1e-5):
    """Central differences of the loss over every flattened parameter."""
    base = net.to_vector()
    grad = np.empty_like(base)
    for i in range(base.size):
        probe = net.copy()
        bumped = base.copy()
        bumped[i] = base[i] + eps
        probe.set_vector(bumped)
        up, _ = loss_and_gradient(probe, X, y)
        bumped[i] = base[i] - eps
        probe.set_vector(bumped)
        down, _ = loss_and_gradient(probe, X, y)
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def train_for_local_epochs(net, X, y, cfg, seed):
    """cfg.local_epochs SGD epochs on a copy of net, one shuffle stream seeded by seed.

    Returns (the trained copy, the last epoch's loss); net itself is left as it was.
    """
    net = net.copy()
    rng = np.random.default_rng(seed)
    for _ in range(cfg.local_epochs):
        loss = sgd_epoch(net, X, y, cfg, rng)
    return net, loss


def random_small_net(rng, generic_params=False):
    depth = int(rng.integers(0, 4))
    dims = [int(rng.integers(2, 6))] + [int(rng.integers(1, 5)) for _ in range(depth)]
    net = init_network(dims[0], dims[1:], seed=int(rng.integers(0, 2**31)))
    if generic_params:
        # Fresh nets have zero biases, so a fully dead ReLU layer can place a
        # downstream pre-activation exactly on the kink, where central
        # differences and the subgradient legitimately disagree. Generic
        # (continuous random) parameters avoid that measure-zero geometry.
        net.set_vector(rng.normal(scale=0.5, size=net.n_params))
    return net


class TestInit:
    def test_default_benchmark_shape_parameter_count(self):
        net = init_network(215, [200, 100, 50], 42)
        expected = 215 * 200 + 200 + 200 * 100 + 100 + 100 * 50 + 50 + 50 * 1 + 1
        assert net.n_params == expected
        assert net.to_vector().size == expected
        assert net.n_layers == 4

    def test_degenerate_logistic_regression(self):
        net = init_network(2, [], 0)
        assert net.layer_dims == [2, 1]
        assert net.n_params == 3

    def test_same_seed_bit_identical(self):
        a = init_network(10, [4, 3], 7)
        b = init_network(10, [4, 3], 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_glorot_bounds_and_zero_biases(self):
        net = init_network(30, [20], 1)
        limit0 = np.sqrt(6.0 / (30 + 20))
        assert np.abs(net.weights[0]).max() < limit0
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_network(0, [3], 0)
        with pytest.raises(ValueError):
            init_network(3, [0], 0)


class TestParamVector:
    def test_round_trip_exact_for_random_nets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            net = random_small_net(rng)
            vec = net.to_vector()
            clone = DenseNetwork.from_vector(net.layer_dims, vec)
            for wa, wb in zip(net.weights, clone.weights):
                assert np.array_equal(wa, wb)
            for ba, bb in zip(net.biases, clone.biases):
                assert np.array_equal(ba, bb)
            assert np.array_equal(clone.to_vector(), vec)

    def test_set_vector_rejects_wrong_length(self):
        net = init_network(3, [2], 0)
        with pytest.raises(ValueError, match="length"):
            net.set_vector(np.zeros(net.n_params + 1))
        with pytest.raises(ValueError, match="length"):
            DenseNetwork.from_vector([3, 2, 1], np.zeros(net.n_params - 1))

    def test_layers_are_views_of_the_one_parameter_buffer(self):
        net = init_network(4, [3, 2], 1)
        buffer = net.params
        for arr in net.weights + net.biases:
            assert arr.base is buffer
        net.set_vector(np.arange(net.n_params, dtype=float))
        assert net.params is buffer
        assert net.weights[0][0].tolist() == [0.0, 1.0, 2.0]
        assert net.biases[0].tolist() == [12.0, 13.0, 14.0]
        net.weights[1][:] = -1.0
        assert np.all(net.params[15:21] == -1.0)
        assert not np.shares_memory(net.copy().params, buffer)


class TestForward:
    def test_all_zero_parameters_give_half(self):
        net = init_network(4, [3], 0)
        net.set_vector(np.zeros(net.n_params))
        out = net.forward(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.all(out == 0.5)

    def test_single_layer_hand_case(self):
        net = DenseNetwork.from_vector([2, 1], [1.0, 1.0, 0.0])
        assert net.forward([[0.0, 0.0]])[0] == 0.5

    def test_matches_reference_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            net = random_small_net(rng)
            X = rng.normal(size=(int(rng.integers(1, 9)), net.input_dim))
            np.testing.assert_allclose(net.forward(X), oracle_forward(net, X),
                                       rtol=0, atol=1e-12)

    def test_outputs_in_open_unit_interval(self):
        rng = np.random.default_rng(6)
        net = init_network(5, [4, 3], 1)
        out = net.forward(rng.normal(size=(50, 5)) * 10)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_sigmoid_is_byte_equal_to_the_two_branch_formula(self):
        rng = np.random.default_rng(8)
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 709.8, -709.8,
                 745.2, -745.2, 1e308, -1e308]
        z = np.concatenate([rng.normal(0, 1, 2000), rng.normal(0, 40, 2000),
                            rng.uniform(-800, 800, 2000), edges])
        assert _sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
        stack = rng.normal(0, 5, (5, 32, 1))
        assert _sigmoid(stack).tobytes() == two_branch_sigmoid(stack).tobytes()
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_dimension_mismatch_rejected(self):
        net = init_network(4, [], 0)
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((3, 5)))


class TestLossAndGradient:
    def test_confident_correct_prediction_loss_near_zero(self):
        net = DenseNetwork.from_vector([1, 1], [30.0, 0.0])
        loss, _ = loss_and_gradient(net, [[1.0]], [1])
        assert 0.0 <= loss < 1e-6

    def test_half_probability_loss_is_ln_two(self):
        net = init_network(3, [2], 0)
        net.set_vector(np.zeros(net.n_params))
        loss, _ = loss_and_gradient(net, [[0.2, 0.4, 0.6]], [1])
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            net = random_small_net(rng, generic_params=True)
            X = rng.normal(size=(4, net.input_dim))
            y = rng.integers(0, 2, size=4)
            _, grad = loss_and_gradient(net, X, y)
            fd = finite_difference_grad(net, X, y)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-10)
            assert (np.abs(grad - fd) / denom).max() < 1e-4

    def test_loss_is_the_bce_of_the_forward_pass(self):
        # training and scoring share one forward pass, so the loss SGD
        # descends is exactly the BCE of the probabilities forward() reports
        rng = np.random.default_rng(15)
        depths = set()
        for _ in range(40):
            net = random_small_net(rng, generic_params=True)
            depths.add(net.n_layers - 1)
            X = rng.normal(size=(int(rng.integers(1, 9)), net.input_dim))
            y = rng.integers(0, 2, size=X.shape[0])
            clipped = np.clip(net.forward(X).reshape(-1, 1), PROB_CLIP, 1.0 - PROB_CLIP)
            y_col = y.astype(np.float64).reshape(-1, 1)
            bce = float(-np.mean(y_col * np.log(clipped) + (1.0 - y_col) * np.log(1.0 - clipped)))
            loss, _ = loss_and_gradient(net, X, y)
            assert np.float64(loss).tobytes() == np.float64(bce).tobytes()
        assert depths == {0, 1, 2, 3}

    def test_non_binary_labels_rejected(self):
        net = init_network(2, [], 0)
        with pytest.raises(ValueError, match="0/1"):
            loss_and_gradient(net, [[1.0, 2.0]], [2])

    def test_label_length_mismatch_rejected(self):
        net = init_network(2, [], 0)
        with pytest.raises(ValueError):
            loss_and_gradient(net, [[1.0, 2.0]], [1, 0])


class TestSgd:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(8)
        net = init_network(4, [3], 2)
        before = net.to_vector()
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, size=20)
        sgd_epoch(net, X, y, TrainConfig(learning_rate=0.0), np.random.default_rng(1))
        assert np.array_equal(net.to_vector(), before)

    def test_single_sample_single_batch_is_one_gradient_step(self):
        net = init_network(3, [2], 4)
        X = np.array([[0.5, -1.0, 2.0]])
        y = np.array([1])
        _, grad = loss_and_gradient(net, X, y)
        expected = net.to_vector() - 0.1 * grad
        stepped = net.copy()
        sgd_epoch(stepped, X, y, TrainConfig(learning_rate=0.1, batch_size=1),
                  np.random.default_rng(0))
        assert np.array_equal(stepped.to_vector(), expected)

    def test_trains_the_given_network_in_place(self):
        rng = np.random.default_rng(9)
        net = init_network(3, [2], 5)
        buffer, views = net.params, net.weights + net.biases
        before = net.to_vector()
        loss = sgd_epoch(net, rng.normal(size=(10, 3)), rng.integers(0, 2, 10),
                         TrainConfig(), np.random.default_rng(0))
        assert type(loss) is float and np.isfinite(loss)
        assert net.params is buffer
        assert all(a is b for a, b in zip(net.weights + net.biases, views))
        assert not np.array_equal(net.to_vector(), before)

    def test_short_final_batch_is_trained_on(self):
        # 5 samples at batch_size 4 leaves a 1-sample tail; with lr > 0 the
        # tail gradient must move the parameters relative to stopping early.
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 0, 1, 1])
        net = init_network(3, [], 6)
        full = net.copy()
        sgd_epoch(full, X, y, TrainConfig(learning_rate=0.5, batch_size=4),
                  np.random.default_rng(3))
        # replay the same permutation by hand, stopping after the full batch
        perm = np.random.default_rng(3).permutation(5)
        partial = net.copy()
        _, g = loss_and_gradient(partial, X[perm[:4]], y[perm[:4]])
        partial.set_vector(partial.to_vector() - 0.5 * g)
        assert not np.array_equal(full.to_vector(), partial.to_vector())

    def test_epochs_match_a_reference_loop_bit_for_bit(self):
        # 70 rows at batch_size 32 leave a 6-row tail batch in every epoch
        rng = np.random.default_rng(13)
        X = rng.normal(size=(70, 5))
        y = rng.integers(0, 2, size=70)
        cfg = TrainConfig(learning_rate=0.3, batch_size=32)
        net = init_network(5, [6, 4], 7)
        trained, ref = net.copy(), net.copy()
        train_rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(3):
            loss = sgd_epoch(trained, X, y, cfg, train_rng)
            perm = ref_rng.permutation(70)
            ref_loss = 0.0
            for start in range(0, 70, 32):
                idx = perm[start:start + 32]
                batch_loss, grad = loss_and_gradient(ref, X[idx], y[idx])
                ref_loss += batch_loss * idx.size
                ref.params -= cfg.learning_rate * grad
            assert trained.params.tobytes() == ref.params.tobytes()
            assert np.float64(loss).tobytes() == np.float64(ref_loss / 70).tobytes()
        assert not np.array_equal(trained.params, net.params)

    @pytest.mark.parametrize("sizes", [(70, 69, 64, 33), (33, 70, 64, 69)],
                             ids=["longest-first", "unordered"])
    @pytest.mark.parametrize("batch_size", [32, 7, 1])
    def test_a_stack_trains_like_its_networks_alone(self, sizes, batch_size):
        # unequal sets give a step's batches several sizes, so the stack splits
        # into runs of equal size; unordered, rows of one size are not adjacent
        rng = np.random.default_rng(16)
        nets = [init_network(5, [6, 4], seed) for seed in range(len(sizes))]
        Xs = [rng.normal(size=(n, 5)) for n in sizes]
        ys = [rng.integers(0, 2, size=n) for n in sizes]
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size)
        stack = np.array([net.params for net in nets])
        stack_rngs = [np.random.default_rng(seed) for seed in range(len(sizes))]
        alone_rngs = [np.random.default_rng(seed) for seed in range(len(sizes))]
        for _ in range(3):
            losses = sgd_epochs(stack, nets[0].layer_dims, Xs, ys, cfg, stack_rngs,
                                np.empty_like(stack))
            alone = [sgd_epoch(net, X, y, cfg, r) for net, X, y, r in zip(nets, Xs, ys, alone_rngs)]
            assert stack.tobytes() == np.array([net.params for net in nets]).tobytes()
            assert losses.tobytes() == np.array(alone).tobytes()
        assert len({net.params.tobytes() for net in nets}) == len(nets)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, size=40)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3)
        net = init_network(4, [3], 9)
        a, _ = train_for_local_epochs(net, X, y, cfg, 21)
        b, _ = train_for_local_epochs(net, X, y, cfg, 21)
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_separable_toy_set_reaches_full_accuracy(self):
        ds = make_two_cluster(n_samples=200, seed=0)
        net = init_network(2, [], seed=1)
        cfg = TrainConfig(learning_rate=0.5, batch_size=32, local_epochs=200)
        trained, _ = train_for_local_epochs(net, ds.features, ds.labels, cfg, 2)
        pred = predict_labels(trained, ds.features)
        assert np.mean(pred == ds.labels) == 1.0

    def test_parameters_stay_finite_after_training(self):
        rng = np.random.default_rng(12)
        X = rng.integers(0, 2, size=(100, 10)).astype(float)
        y = rng.integers(0, 2, size=100)
        net = init_network(10, [8, 4], 3)
        trained, loss = train_for_local_epochs(net, X, y, TrainConfig(local_epochs=10), 4)
        assert np.isfinite(trained.to_vector()).all()
        assert np.isfinite(loss)

    def test_empty_train_set_rejected(self):
        net = init_network(2, [], 0)
        with pytest.raises(ValueError):
            sgd_epoch(net, np.zeros((0, 2)), np.zeros(0), TrainConfig(), np.random.default_rng(0))


class TestPredictLabels:
    def test_exact_half_probability_is_malware(self):
        net = init_network(4, [3], 0)
        net.set_vector(np.zeros(net.n_params))
        assert np.all(predict_labels(net, np.zeros((5, 4))) == 1)

    def test_threshold_separates(self):
        # logistic identity: w=1, b=0, so inputs are the logits
        net = DenseNetwork.from_vector([1, 1], [1.0, 0.0])
        logit = lambda p: np.log(p / (1.0 - p))
        out = predict_labels(net, [[logit(0.2)], [logit(0.9)]])
        assert out.tolist() == [0, 1]


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(local_epochs=0)
