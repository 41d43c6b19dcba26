"""Dense feed-forward binary classifier with hand-rolled backprop and SGD.

Implements the base model of the simulator: an MLP with ReLU hidden layers
and a single sigmoid output unit, trained with mini-batch SGD on binary
cross-entropy. Everything runs on numpy; there is no autodiff framework
underneath, which keeps the gradient path checkable against finite
differences.

A network's parameters live in one flat float64 buffer in the canonical
layout (layer 0 weights row-major, layer 0 biases, layer 1 weights, ...) that
the aggregation arithmetic works on; the per-layer weight and bias arrays are
views into it, and gradients are written into a buffer of the same layout.

One layer loop (``_forward``) computes the activations both for scoring
(``DenseNetwork.forward``) and for backprop, so the network that scores a
model is the one SGD trained. It runs on a stack of G networks, the rows of
a (G, P) parameter array, with one batch each: every GEMM is one 3-D
``np.matmul`` and every elementwise step one numpy call across the stack.
``sgd_epochs`` trains such a stack in place; ``sgd_epoch`` is the stack of
one. Each network's arithmetic is the one it would do alone, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Probabilities are clamped away from {0, 1} before taking logs so the loss
# stays finite for saturated outputs.
PROB_CLIP = 1e-7


@dataclass
class TrainConfig:
    """Hyperparameters for local SGD training."""

    learning_rate: float = 0.01
    batch_size: int = 32
    local_epochs: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.learning_rate < np.inf:  # also rejects nan
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")


@dataclass
class DenseNetwork:
    """A fully-connected net over one flat parameter buffer.

    ``layer_dims`` is (input_dim, hidden..., 1) and ``params`` holds every
    parameter in the canonical layout. ``weights[k]``, of shape
    (layer_dims[k], layer_dims[k+1]), and ``biases[k]``, of shape
    (layer_dims[k+1],), are views into ``params``, so writing either changes
    the other. Hidden activations are ReLU, the output activation is sigmoid.
    """

    layer_dims: list[int]
    params: np.ndarray = field(repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.layer_dims = list(self.layer_dims)
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        weights, biases = _layer_views(self.params[None], self.layer_dims)
        self.weights = [w[0] for w in weights]
        self.biases = [b[0, 0] for b in biases]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def n_params(self) -> int:
        return self.params.size

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(self.layer_dims, self.params.copy())

    def to_vector(self) -> np.ndarray:
        """A copy of all parameters in the canonical ordering."""
        return self.params.copy()

    def set_vector(self, values: np.ndarray) -> None:
        """Load parameters in place from a flat vector (inverse of to_vector)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.params.shape:
            raise ValueError(f"expected a flat vector of length {self.n_params}, got shape {values.shape}")
        self.params[:] = values

    @classmethod
    def from_vector(cls, layer_dims: list[int], values: np.ndarray) -> "DenseNetwork":
        return cls(layer_dims, np.array(values, dtype=np.float64))

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``batch``."""
        X = _check_batch(batch, self.input_dim)
        return _forward(*_layer_views(self.params[None], self.layer_dims), X[None])[-1].ravel()


def _layer_views(stack: np.ndarray, layer_dims: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into a (G, P) stack of flat buffers in the canonical layout.

    ``weights[k]`` has shape (G, layer_dims[k], layer_dims[k+1]) and
    ``biases[k]`` (G, 1, layer_dims[k+1]), so that a bias broadcasts over a
    stack of batches. This is the only place the layout is spelled out.
    """
    size = _param_count(layer_dims)
    if stack.ndim != 2 or stack.shape[1] != size:
        raise ValueError(f"expected flat vectors of length {size}, got shape {stack.shape[1:]}")
    n = stack.shape[0]
    weights, biases = [], []
    pos = 0
    for rows, cols in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(stack[:, pos : pos + rows * cols].reshape(n, rows, cols))
        pos += rows * cols
        biases.append(stack[:, None, pos : pos + cols])
        pos += cols
    return weights, biases


def _param_count(layer_dims: list[int]) -> int:
    return sum((rows + 1) * cols for rows, cols in zip(layer_dims[:-1], layer_dims[1:]))


def _check_batch(batch, input_dim: int) -> np.ndarray:
    a = np.asarray(batch, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != input_dim:
        raise ValueError(f"expected a batch of shape (n, {input_dim}), got {a.shape}")
    return a


def _check_labels(labels, n_rows: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1 or y.size != n_rows:
        raise ValueError(f"labels must be a vector of length {n_rows}, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must contain only 0/1 values")
    return y.astype(np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of -|z| never overflows: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def init_network(input_dim: int, hidden_dims: list[int], seed: int) -> DenseNetwork:
    """Build a network with Glorot-uniform weights and zero biases.

    Deterministic for a fixed seed. ``hidden_dims`` may be empty, which yields
    plain logistic regression.
    """
    dims = [int(input_dim), *[int(h) for h in hidden_dims], 1]
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer dimensions must be >= 1, got {dims[:-1]}")
    rng = np.random.default_rng(seed)
    net = DenseNetwork(dims, np.zeros(_param_count(dims)))
    for w in net.weights:
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return net


def _forward(weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation for a stack of batches ``X`` (G, n, d), one per network.

    Returns X, each hidden ReLU output and the output probability, each of
    shape (G, n, width). ``weights`` and ``biases`` are ``_layer_views`` of
    the networks' (G, P) stack. The one forward pass: evaluation reads the
    last entry, backprop reads them all.
    """
    acts = [X]
    for k in range(len(weights)):
        z = acts[-1] @ weights[k]
        z += biases[k]
        acts.append(np.maximum(z, 0.0, out=z) if k < len(weights) - 1 else _sigmoid(z))
    return acts


def _backward(views, X: np.ndarray, y: np.ndarray, grad_views) -> np.ndarray:
    """Mean BCE loss of each network on its batch; writes the gradients through ``grad_views``.

    ``views`` and ``grad_views`` are the ``_layer_views`` of a (G, P)
    parameter stack and of a gradient buffer of the same shape; ``X`` is
    (G, n, d) and ``y`` is (G, n). Returns the G losses.
    """
    weights, _ = views
    n = X.shape[1]
    acts = _forward(*views, X)  # acts[-1] is the output probability

    clipped = np.clip(acts[-1], PROB_CLIP, 1.0 - PROB_CLIP)
    y_col = y[:, :, None]
    loss = -np.mean(y_col * np.log(clipped) + (1.0 - y_col) * np.log(1.0 - clipped), axis=(1, 2))

    grad_w, grad_b = grad_views
    delta = acts[-1]  # the probability is not read again, so delta takes over its buffer
    delta -= y_col
    delta /= n  # d(mean BCE)/d(z_out) for the sigmoid output
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].transpose(0, 2, 1), delta, out=grad_w[k])
        np.sum(delta, axis=1, keepdims=True, out=grad_b[k])
        if k > 0:
            # a ReLU unit passes gradient where its output is positive; the
            # activation is not read again, so the next delta takes over its buffer
            passes = acts[k] > 0.0
            delta = np.matmul(delta, weights[k].transpose(0, 2, 1), out=acts[k])
            np.multiply(delta, passes, out=delta)
    return loss


def loss_and_gradient(net: DenseNetwork, batch, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient as a flat parameter vector."""
    X = _check_batch(batch, net.input_dim)
    y = _check_labels(labels, X.shape[0])
    grad = np.empty_like(net.params)
    loss = _backward(_layer_views(net.params[None], net.layer_dims), X[None], y[None],
                     _layer_views(grad[None], net.layer_dims))
    return float(loss[0]), grad


def sgd_epochs(stack: np.ndarray, layer_dims: list[int], Xs, ys, cfg: TrainConfig, rngs,
               grad: np.ndarray) -> np.ndarray:
    """One epoch of mini-batch SGD for each network of a (G, P) stack, updating ``stack`` in place.

    Network g trains on ``Xs[g]``, ``ys[g]`` in the shuffle order drawn from
    ``rngs[g]``, with the arithmetic it would do alone; its final short batch
    is trained on like any other. At each step the networks whose batches
    have equal size train as one stack: when the rows are ordered by set
    size, longest first, each such group is a contiguous slice. ``grad`` is
    scratch of the stack's shape. Returns each network's mean per-sample
    loss over the epoch.
    """
    Xs = [_check_batch(X, layer_dims[0]) for X in Xs]
    ys = [_check_labels(y, X.shape[0]) for X, y in zip(Xs, ys)]
    sizes = np.array([X.shape[0] for X in Xs])
    if not sizes.all():
        raise ValueError("cannot train on an empty set")
    perms = [rng.permutation(size) for rng, size in zip(rngs, sizes)]
    y_perm = np.zeros((len(Xs), sizes.max()))
    for row, (y, perm) in enumerate(zip(ys, perms)):
        y_perm[row, : perm.size] = y[perm]
    batch = np.empty((len(Xs), min(cfg.batch_size, sizes.max()), layer_dims[0]))
    loss_sum = np.zeros(len(Xs))
    for start in range(0, sizes.max(), cfg.batch_size):
        batch_sizes = np.clip(sizes - start, 0, cfg.batch_size)
        for row in np.flatnonzero(batch_sizes):
            np.take(Xs[row], perms[row][start : start + batch_sizes[row]], axis=0,
                    out=batch[row, : batch_sizes[row]], mode="clip")  # "raise" would buffer out
        edges = [0, *(np.flatnonzero(np.diff(batch_sizes)) + 1), len(Xs)]
        for lo, hi in zip(edges[:-1], edges[1:]):  # runs of rows with equal batch sizes
            n = int(batch_sizes[lo])
            if n:
                loss = _backward(_layer_views(stack[lo:hi], layer_dims), batch[lo:hi, :n],
                                 y_perm[lo:hi, start : start + n], _layer_views(grad[lo:hi], layer_dims))
                loss_sum[lo:hi] += loss * n
                grad[lo:hi] *= cfg.learning_rate
                stack[lo:hi] -= grad[lo:hi]
    return loss_sum / sizes


def sgd_epoch(net: DenseNetwork, X, y, cfg: TrainConfig, rng: np.random.Generator) -> float:
    """One pass of mini-batch SGD over the training set, updating ``net`` in place.

    Returns the mean per-sample loss over the epoch. The shuffle order comes
    from ``rng``; the final short batch is trained on like any other. This is
    ``sgd_epochs`` on a stack of one network.
    """
    stack = net.params[None]
    return float(sgd_epochs(stack, net.layer_dims, [X], [y], cfg, [rng], np.empty_like(stack))[0])


def predict_labels(net: DenseNetwork, batch) -> np.ndarray:
    """Hard 0/1 labels; probability 0.5 is classified positive (malware)."""
    return (net.forward(batch) >= 0.5).astype(np.int64)
