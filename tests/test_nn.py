"""Network unit tests: shapes, forward oracle, gradients, SGD behavior."""
import tracemalloc

import numpy as np
import pytest

from fedsim import _blas, nn
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


def copy_of(net):
    """A network over a copy of ``net``'s parameters."""
    return DenseNetwork(net.layer_dims, net.params.copy())


def finite_difference_grad(net, X, y, eps=1e-5):
    """Central differences of the loss over every flattened parameter."""
    base = net.params.copy()
    grad = np.empty_like(base)
    for i in range(base.size):
        probe = copy_of(net)
        bumped = base.copy()
        bumped[i] = base[i] + eps
        probe.params[:] = bumped
        up, _ = loss_and_gradient(probe, X, y)
        bumped[i] = base[i] - eps
        probe.params[:] = bumped
        down, _ = loss_and_gradient(probe, X, y)
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def train_for_local_epochs(net, X, y, cfg, seed):
    """cfg.local_epochs SGD epochs on a copy of net, one shuffle stream seeded by seed.

    Returns (the trained copy, the last epoch's loss); net itself is left as it was.
    """
    net = copy_of(net)
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
        net.params[:] = rng.normal(scale=0.5, size=net.n_params)
    return net


class TestInit:
    def test_default_benchmark_shape_parameter_count(self):
        net = init_network(215, [200, 100, 50], 42)
        expected = 215 * 200 + 200 + 200 * 100 + 100 + 100 * 50 + 50 + 50 * 1 + 1
        assert net.n_params == expected
        assert net.params.size == expected
        assert len(net.weights) == 4

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
            vec = net.params.copy()
            rebuilt = DenseNetwork(net.layer_dims, vec)
            for wa, wb in zip(net.weights, rebuilt.weights):
                assert np.array_equal(wa, wb)
            for ba, bb in zip(net.biases, rebuilt.biases):
                assert np.array_equal(ba, bb)
            assert np.array_equal(rebuilt.params, vec)

    def test_constructor_rejects_wrong_length(self):
        net = init_network(3, [2], 0)
        with pytest.raises(ValueError, match="length"):
            DenseNetwork([3, 2, 1], np.zeros(net.n_params + 1))
        with pytest.raises(ValueError, match="length"):
            DenseNetwork([3, 2, 1], np.zeros(net.n_params - 1))

    def test_layers_are_views_of_the_one_parameter_buffer(self):
        net = init_network(4, [3, 2], 1)
        buffer = net.params
        for arr in net.weights + net.biases:
            assert arr.base is buffer
        net.params[:] = np.arange(net.n_params, dtype=float)
        assert net.params is buffer
        assert net.weights[0][0].tolist() == [0.0, 1.0, 2.0]
        assert net.biases[0].tolist() == [12.0, 13.0, 14.0]
        net.weights[1][:] = -1.0
        assert np.all(net.params[15:21] == -1.0)
        assert not np.shares_memory(copy_of(net).params, buffer)
        assert DenseNetwork(net.layer_dims, buffer).params is buffer  # wrapped, not copied


class TestForward:
    def test_all_zero_parameters_give_half(self):
        net = init_network(4, [3], 0)
        net.params[:] = 0.0
        out = net.forward(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.all(out == 0.5)

    def test_single_layer_hand_case(self):
        net = DenseNetwork([2, 1], [1.0, 1.0, 0.0])
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
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_an_empty_batch_gives_no_scores(self, dtype):
        out = init_network(4, [3], 0).forward(np.zeros((0, 4), dtype=dtype))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_a_uint8_batch_is_not_copied_to_float64(self):
        # a float64 copy of this table is 8 MB; one block of it and its activations are not
        X = np.random.default_rng(27).integers(0, 2, size=(16384, 64), dtype=np.uint8)
        net = init_network(64, [32, 16], 0)
        tracemalloc.start()
        try:
            net.forward(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.size * 8

    @pytest.mark.parametrize("n", [100, 256, 257, 511, 512 + 39, 3 * 256 + 1, 3007])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_blocks_give_the_bits_of_one_pass(self, n, dtype):
        rng = np.random.default_rng(n)
        net = init_network(215, [200, 100, 50], n)
        net.params[:] = rng.normal(scale=0.2, size=net.n_params)
        X = (rng.integers(0, 2, size=(n, 215)) if dtype == np.uint8
             else rng.normal(size=(n, 215))).astype(dtype)
        # at one BLAS thread, as every experiment scores (see fedsim._blas)
        with _blas.one_blas_thread():
            whole = nn._forward(*nn._layer_views(net.params[None], net.layer_dims),
                                X.astype(np.float64)[None])[-1].ravel()
            assert net.forward(X).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n, blocks", [(100, [100]), (256, [256]), (511, [511]),
                                           (512, [256, 256]), (1000, [256, 256, 488])])
    def test_rows_are_scored_in_blocks_of_at_least_256(self, n, blocks, monkeypatch):
        real, seen = nn._forward, []

        def spy(weights, biases, X):
            seen.append((X.shape[1], X.dtype))
            return real(weights, biases, X)

        monkeypatch.setattr(nn, "_forward", spy)
        X = np.random.default_rng(n).integers(0, 2, size=(n, 6), dtype=np.uint8)
        out = init_network(6, [4], 0).forward(X)
        assert seen == [(m, np.float64) for m in blocks]
        assert out.shape == (n,)


class TestLossAndGradient:
    def test_confident_correct_prediction_loss_near_zero(self):
        net = DenseNetwork([1, 1], [30.0, 0.0])
        loss, _ = loss_and_gradient(net, [[1.0]], [1])
        assert 0.0 <= loss < 1e-6

    def test_half_probability_loss_is_ln_two(self):
        net = init_network(3, [2], 0)
        net.params[:] = 0.0
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
            depths.add(len(net.weights) - 1)
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
        before = net.params.copy()
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, size=20)
        sgd_epoch(net, X, y, TrainConfig(learning_rate=0.0), np.random.default_rng(1))
        assert np.array_equal(net.params, before)

    def test_single_sample_single_batch_is_one_gradient_step(self):
        net = init_network(3, [2], 4)
        X = np.array([[0.5, -1.0, 2.0]])
        y = np.array([1])
        _, grad = loss_and_gradient(net, X, y)
        expected = net.params - 0.1 * grad
        stepped = copy_of(net)
        sgd_epoch(stepped, X, y, TrainConfig(learning_rate=0.1, batch_size=1),
                  np.random.default_rng(0))
        assert np.array_equal(stepped.params, expected)

    def test_trains_the_given_network_in_place(self):
        rng = np.random.default_rng(9)
        net = init_network(3, [2], 5)
        buffer, views = net.params, net.weights + net.biases
        before = net.params.copy()
        loss = sgd_epoch(net, rng.normal(size=(10, 3)), rng.integers(0, 2, 10),
                         TrainConfig(), np.random.default_rng(0))
        assert type(loss) is float and np.isfinite(loss)
        assert net.params is buffer
        assert all(a is b for a, b in zip(net.weights + net.biases, views))
        assert not np.array_equal(net.params, before)

    def test_short_final_batch_is_trained_on(self):
        # 5 samples at batch_size 4 leaves a 1-sample tail; with lr > 0 the
        # tail gradient must move the parameters relative to stopping early.
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 0, 1, 1])
        net = init_network(3, [], 6)
        full = copy_of(net)
        sgd_epoch(full, X, y, TrainConfig(learning_rate=0.5, batch_size=4),
                  np.random.default_rng(3))
        # replay the same permutation by hand, stopping after the full batch
        perm = np.random.default_rng(3).permutation(5)
        partial = copy_of(net)
        _, g = loss_and_gradient(partial, X[perm[:4]], y[perm[:4]])
        partial.params -= 0.5 * g
        assert not np.array_equal(full.params, partial.params)

    def test_epochs_match_a_reference_loop_bit_for_bit(self):
        # 70 rows at batch_size 32 leave a 6-row tail batch in every epoch
        rng = np.random.default_rng(13)
        X = rng.normal(size=(70, 5))
        y = rng.integers(0, 2, size=70)
        cfg = TrainConfig(learning_rate=0.3, batch_size=32)
        net = init_network(5, [6, 4], 7)
        trained, ref = copy_of(net), copy_of(net)
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
        # into runs of equal size; unordered, rows of one size are not adjacent.
        # Each network's rows are a scattered subset of one shared table.
        rng = np.random.default_rng(16)
        nets = [init_network(5, [6, 4], seed) for seed in range(len(sizes))]
        X = rng.normal(size=(sum(sizes), 5))
        y = rng.integers(0, 2, size=sum(sizes))
        rows = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size, local_epochs=1)
        stack = np.array([net.params for net in nets])
        stack_rngs = [np.random.default_rng(seed) for seed in range(len(sizes))]
        alone_rngs = [np.random.default_rng(seed) for seed in range(len(sizes))]
        for _ in range(3):
            losses = sgd_epochs(stack, nets[0].layer_dims, X, y, rows, cfg, stack_rngs)
            alone = [sgd_epoch(net, X[r], y[r], cfg, rng)
                     for net, r, rng in zip(nets, rows, alone_rngs)]
            assert stack.tobytes() == np.array([net.params for net in nets]).tobytes()
            assert losses.tobytes() == np.array(alone).tobytes()
        assert len({net.params.tobytes() for net in nets}) == len(nets)

    def test_negative_rows_train_on_the_rows_indexing_reads(self):
        # features and labels of a batch must come from the same rows
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40)
        cfg = TrainConfig(learning_rate=0.3, batch_size=7)
        nets = [init_network(5, [6, 4], 0) for _ in range(2)]
        for net, rows in zip(nets, (np.arange(10, 30), np.arange(10, 30) - 40)):
            sgd_epochs(net.params[None], net.layer_dims, X, y, [rows], cfg,
                       [np.random.default_rng(1)])
        assert nets[0].params.tobytes() == nets[1].params.tobytes()

    @pytest.mark.parametrize("sizes, batch_size", [
        ((64, 96, 32), 32),  # every set a multiple of the batch: no ragged tail
        ((70, 64, 100), 32),  # the shortest set ends on a whole batch, the others go on
        ((5, 9, 7), 16),  # no set fills a batch: every step is in the ragged tail
    ], ids=["no-tail", "shortest-ends-on-a-batch", "all-tail"])
    def test_whole_batch_and_tail_steps_train_like_the_networks_alone(self, sizes, batch_size):
        rng = np.random.default_rng(18)
        nets = [init_network(5, [6, 4], seed) for seed in range(len(sizes))]
        X = rng.normal(size=(sum(sizes), 5))
        y = rng.integers(0, 2, size=sum(sizes))
        rows = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size, local_epochs=1)
        stack = np.array([net.params for net in nets])
        stack_rngs = [np.random.default_rng(seed) for seed in range(len(sizes))]
        alone_rngs = [np.random.default_rng(seed) for seed in range(len(sizes))]
        for _ in range(2):
            losses = sgd_epochs(stack, nets[0].layer_dims, X, y, rows, cfg, stack_rngs)
            alone = [sgd_epoch(net, X[r], y[r], cfg, rng)
                     for net, r, rng in zip(nets, rows, alone_rngs)]
            assert stack.tobytes() == np.array([net.params for net in nets]).tobytes()
            assert losses.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("local_epochs", [1, 3])
    @pytest.mark.parametrize("sizes, batch_size", [((64, 96, 32), 32), ((5, 9, 7), 16)],
                             ids=["no-tail", "all-tail"])
    def test_one_call_trains_every_local_epoch(self, sizes, batch_size, local_epochs):
        rng = np.random.default_rng(24)
        nets = [init_network(5, [6, 4], seed) for seed in range(len(sizes))]
        X = rng.normal(size=(sum(sizes), 5))
        y = rng.integers(0, 2, size=sum(sizes))
        rows = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size, local_epochs=local_epochs)
        stack = np.array([net.params for net in nets])
        losses = sgd_epochs(stack, nets[0].layer_dims, X, y, rows, cfg,
                            [np.random.default_rng(seed) for seed in range(len(sizes))])
        alone = []
        for seed, (net, r) in enumerate(zip(nets, rows)):
            net_rng = np.random.default_rng(seed)
            epoch_losses = [sgd_epoch(net, X[r], y[r], cfg, net_rng) for _ in range(local_epochs)]
            alone.append(epoch_losses[-1])
        assert stack.tobytes() == np.array([net.params for net in nets]).tobytes()
        assert losses.tobytes() == np.array(alone).tobytes()

    def test_networks_rows_and_generators_must_agree_in_number(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40)
        start = np.array([init_network(5, [6, 4], seed).params for seed in range(2)])
        two_sets = [np.arange(20), np.arange(20, 40)]
        one_rng, two_rngs = [np.random.default_rng(0)], [np.random.default_rng(s) for s in range(2)]
        for stack, rows, rngs in ((start.copy(), two_sets, one_rng),
                                  (start.copy(), two_sets[:1], two_rngs),
                                  (start[:1].copy(), two_sets, two_rngs)):
            with pytest.raises(ValueError, match="networks but"):
                sgd_epochs(stack, [5, 6, 4, 1], X, y, rows, TrainConfig(batch_size=7), rngs)
            assert stack.tobytes() == start[: len(stack)].tobytes()

    @pytest.mark.parametrize("batch_size", [32, 7])
    def test_skipping_the_loss_leaves_the_same_stack(self, batch_size):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(200, 5))
        y = rng.integers(0, 2, size=200)
        rows = np.split(rng.permutation(200), [64, 133])
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size)
        start = np.array([init_network(5, [6, 4], seed).params for seed in range(3)])
        stacks = []
        for loss in (True, False):
            stack, rngs = start.copy(), [np.random.default_rng(seed) for seed in range(3)]
            for _ in range(2):
                out = sgd_epochs(stack, [5, 6, 4, 1], X, y, rows, cfg, rngs, loss=loss)
                assert (out is None) is (not loss)
            stacks.append(stack)
        assert stacks[0].tobytes() == stacks[1].tobytes()
        assert stacks[0].tobytes() != start.tobytes()

    @pytest.mark.parametrize("sizes, batch_size, steps", [
        ((32, 32, 32), 16, 2),  # every set is whole batches: one stack step each
        ((256, 256, 256), 16, 16),
        ((64, 96, 32), 32, 3),  # a run of two networks, then one network alone
        ((5, 9, 7), 16, 3),  # one step of three runs of one network
    ], ids=["32-rows", "256-rows", "no-tail", "all-tail"])
    def test_layer_views_are_built_once_per_call(self, sizes, batch_size, steps, monkeypatch):
        # one view of the stack and one of the gradient, however many steps, runs and epochs
        rng = np.random.default_rng(20)
        X = rng.normal(size=(sum(sizes), 5))
        y = rng.integers(0, 2, size=sum(sizes))
        stack = np.array([init_network(5, [6, 4], seed).params for seed in range(3)])
        calls, backward_calls = [], []
        build, step = nn._layer_views, nn._backward
        monkeypatch.setattr(nn, "_layer_views", lambda *a: calls.append(1) or build(*a))
        monkeypatch.setattr(nn, "_backward", lambda *a: backward_calls.append(1) or step(*a))
        sgd_epochs(stack, [5, 6, 4, 1], X, y, np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1]),
                   TrainConfig(batch_size=batch_size, local_epochs=5),
                   [np.random.default_rng(s) for s in range(3)])
        assert len(backward_calls) == 5 * steps  # steps: _backward calls in one epoch
        assert len(calls) == 2

    def test_a_row_out_of_range_raises_before_any_training(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40)
        net = init_network(5, [6, 4], 0)
        before = net.params.copy()
        with pytest.raises(IndexError):
            sgd_epochs(net.params[None], net.layer_dims, X, y, [np.arange(20, 41)],
                       TrainConfig(batch_size=7), [np.random.default_rng(1)])
        assert net.params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("sizes, batch_size", [((64, 96, 32), 32), ((70, 64, 100), 32),
                                                   ((5, 9, 7), 16)])
    def test_a_uint8_table_trains_like_its_float64_copy(self, sizes, batch_size):
        rng = np.random.default_rng(22)
        X = rng.integers(0, 2, size=(sum(sizes), 5), dtype=np.uint8)
        y = rng.integers(0, 2, size=sum(sizes))
        rows = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
        cfg = TrainConfig(learning_rate=0.3, batch_size=batch_size)
        start = np.array([init_network(5, [6, 4], seed).params for seed in range(len(sizes))])
        out = []
        for table in (X, X.astype(np.float64)):
            stack, rngs = start.copy(), [np.random.default_rng(s) for s in range(len(sizes))]
            losses = [sgd_epochs(stack, [5, 6, 4, 1], table, y, rows, cfg, rngs) for _ in range(2)]
            out.append((stack.tobytes(), np.array(losses).tobytes()))
        assert out[0] == out[1]

    def test_a_uint8_table_is_not_copied_to_float64(self):
        # a float64 copy of this table is 8 MB; what one epoch needs besides is under 1 MB
        rng = np.random.default_rng(23)
        X = rng.integers(0, 2, size=(16384, 64), dtype=np.uint8)
        y = rng.integers(0, 2, size=len(X)).astype(np.float64)
        stack = np.array([init_network(64, [8], seed).params for seed in range(4)])
        tracemalloc.start()
        try:
            sgd_epochs(stack, [64, 8, 1], X, y, np.split(np.arange(len(X)), 4), TrainConfig(),
                       [np.random.default_rng(s) for s in range(4)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.size * 8

    def test_one_epoch_of_a_uint8_table_is_not_copied_to_float64(self):
        # sgd_epoch reads the table as sgd_epochs does: a float64 copy of it would be 8 MB
        rng = np.random.default_rng(26)
        X = rng.integers(0, 2, size=(16384, 64), dtype=np.uint8)
        y = rng.integers(0, 2, size=len(X))
        net = init_network(64, [8], 0)
        tracemalloc.start()
        try:
            sgd_epoch(net, X, y, TrainConfig(), np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.size * 8

    def test_a_table_of_the_wrong_shape_is_rejected(self):
        net = init_network(5, [3], 0)
        for X, y in ((np.zeros((10, 4)), np.zeros(10)), (np.zeros((10, 5)), np.zeros(9)),
                     (np.zeros(10), np.zeros(10)), (np.zeros(()), np.zeros(1))):
            with pytest.raises(ValueError, match="expected a table of shape"):
                sgd_epochs(net.params[None], net.layer_dims, X, y, [np.arange(5)], TrainConfig(),
                           [np.random.default_rng(0)])
            with pytest.raises(ValueError):
                sgd_epoch(net, X, y, TrainConfig(), np.random.default_rng(0))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, size=40)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3)
        net = init_network(4, [3], 9)
        a, _ = train_for_local_epochs(net, X, y, cfg, 21)
        b, _ = train_for_local_epochs(net, X, y, cfg, 21)
        assert np.array_equal(a.params, b.params)

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
        assert np.isfinite(trained.params).all()
        assert np.isfinite(loss)

    def test_empty_train_set_rejected(self):
        net = init_network(2, [], 0)
        with pytest.raises(ValueError):
            sgd_epoch(net, np.zeros((0, 2)), np.zeros(0), TrainConfig(), np.random.default_rng(0))


class TestPredictLabels:
    def test_exact_half_probability_is_malware(self):
        net = init_network(4, [3], 0)
        net.params[:] = 0.0
        assert np.all(predict_labels(net, np.zeros((5, 4))) == 1)

    def test_threshold_separates(self):
        # logistic identity: w=1, b=0, so inputs are the logits
        net = DenseNetwork([1, 1], [1.0, 0.0])
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
