"""Dense feed-forward binary classifier with hand-rolled backprop and SGD.

Implements the base model of the simulator: an MLP with ReLU hidden layers
and a single sigmoid output unit, trained with mini-batch SGD on binary
cross-entropy. Everything runs on numpy; there is no autodiff framework
underneath, which keeps the gradient path checkable against finite
differences.

Parameters flatten to a canonical vector layout (layer 0 weights row-major,
layer 0 biases, layer 1 weights, ...) used by the aggregation arithmetic.
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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")


@dataclass
class DenseNetwork:
    """A fully-connected net as plain parameter arrays.

    ``layer_dims`` is (input_dim, hidden..., 1); ``weights[k]`` has shape
    (layer_dims[k], layer_dims[k+1]) and ``biases[k]`` shape (layer_dims[k+1],).
    Hidden activations are ReLU, the output activation is sigmoid.
    """

    layer_dims: list[int]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters into the canonical ordering."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def set_vector(self, values: np.ndarray) -> None:
        """Load parameters in place from a flat vector (inverse of to_vector)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size != self.n_params:
            raise ValueError(f"expected a flat vector of length {self.n_params}, got shape {values.shape}")
        pos = 0
        for k, (rows, cols) in enumerate(zip(self.layer_dims[:-1], self.layer_dims[1:])):
            self.weights[k] = values[pos : pos + rows * cols].reshape(rows, cols).copy()
            pos += rows * cols
            self.biases[k] = values[pos : pos + cols].copy()
            pos += cols

    @classmethod
    def from_vector(cls, layer_dims: list[int], values: np.ndarray) -> "DenseNetwork":
        net = cls(
            layer_dims=list(layer_dims),
            weights=[np.zeros((r, c)) for r, c in zip(layer_dims[:-1], layer_dims[1:])],
            biases=[np.zeros(c) for c in layer_dims[1:]],
        )
        net.set_vector(values)
        return net

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``batch``."""
        a = _check_batch(batch, self.input_dim)
        for k in range(self.n_layers - 1):
            a = np.maximum(a @ self.weights[k] + self.biases[k], 0.0)
        z = a @ self.weights[-1] + self.biases[-1]
        return _sigmoid(z).ravel()


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
    # Split by sign to avoid overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_network(input_dim: int, hidden_dims: list[int], seed: int) -> DenseNetwork:
    """Build a network with Glorot-uniform weights and zero biases.

    Deterministic for a fixed seed. ``hidden_dims`` may be empty, which yields
    plain logistic regression.
    """
    dims = [int(input_dim), *[int(h) for h in hidden_dims], 1]
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer dimensions must be >= 1, got {dims[:-1]}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(layer_dims=dims, weights=weights, biases=biases)


def _backward(net: DenseNetwork, X: np.ndarray, y: np.ndarray):
    """Mean BCE loss plus per-layer gradients for one batch."""
    n = X.shape[0]
    acts = [X]
    pre = []
    a = X
    for k in range(net.n_layers - 1):
        z = a @ net.weights[k] + net.biases[k]
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    z_out = a @ net.weights[-1] + net.biases[-1]
    prob = _sigmoid(z_out)

    clipped = np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)
    y_col = y.reshape(-1, 1)
    loss = float(-np.mean(y_col * np.log(clipped) + (1.0 - y_col) * np.log(1.0 - clipped)))

    grad_w = [None] * net.n_layers
    grad_b = [None] * net.n_layers
    delta = (prob - y_col) / n  # d(mean BCE)/d(z_out) for the sigmoid output
    for k in range(net.n_layers - 1, -1, -1):
        grad_w[k] = acts[k].T @ delta
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ net.weights[k].T) * (pre[k - 1] > 0.0)
    return loss, grad_w, grad_b


def loss_and_gradient(net: DenseNetwork, batch, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient as a flat parameter vector."""
    X = _check_batch(batch, net.input_dim)
    y = _check_labels(labels, X.shape[0])
    loss, grad_w, grad_b = _backward(net, X, y)
    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.ravel())
        parts.append(gb)
    return loss, np.concatenate(parts)


def sgd_epoch(
    net: DenseNetwork,
    X,
    y,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[DenseNetwork, float]:
    """One pass of mini-batch SGD over the training set.

    Returns a new network (the input is not mutated) and the mean per-sample
    loss over the epoch. The shuffle order comes from ``rng``, or from
    ``cfg.seed`` when no generator is supplied; the final short batch is
    trained on like any other.
    """
    X = _check_batch(X, net.input_dim)
    y = _check_labels(y, X.shape[0])
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty set")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    net = net.copy()
    lr = cfg.learning_rate
    perm = rng.permutation(n)
    loss_sum = 0.0
    for start in range(0, n, cfg.batch_size):
        idx = perm[start : start + cfg.batch_size]
        loss, grad_w, grad_b = _backward(net, X[idx], y[idx])
        loss_sum += loss * idx.size
        for k in range(net.n_layers):
            net.weights[k] -= lr * grad_w[k]
            net.biases[k] -= lr * grad_b[k]
    return net, loss_sum / n


def train_epochs(
    net: DenseNetwork,
    X,
    y,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[DenseNetwork, float]:
    """Run cfg.local_epochs SGD epochs; returns the net and last epoch's mean loss."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    loss = float("nan")
    for _ in range(cfg.local_epochs):
        net, loss = sgd_epoch(net, X, y, cfg, rng)
    return net, loss


def predict_labels(net: DenseNetwork, batch) -> np.ndarray:
    """Hard 0/1 labels; probability 0.5 is classified positive (malware)."""
    return (net.forward(batch) >= 0.5).astype(np.int64)
