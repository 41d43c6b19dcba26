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
model is the one SGD trained. ``sgd_epoch`` updates a network in place and
returns the epoch's mean loss.
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
        self.weights, self.biases = _layer_views(self.params, self.layer_dims)

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
        return _forward(self, _check_batch(batch, self.input_dim))[-1].ravel()


def _layer_views(flat: np.ndarray, layer_dims: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into a flat buffer in the canonical layout.

    This is the only place the layout is spelled out.
    """
    size = _param_count(layer_dims)
    if flat.ndim != 1 or flat.size != size:
        raise ValueError(f"expected a flat vector of length {size}, got shape {flat.shape}")
    weights, biases = [], []
    pos = 0
    for rows, cols in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[pos : pos + rows * cols].reshape(rows, cols))
        pos += rows * cols
        biases.append(flat[pos : pos + cols])
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
    net = DenseNetwork(dims, np.zeros(_param_count(dims)))
    for w in net.weights:
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return net


def _forward(net: DenseNetwork, X: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation for batch ``X``: X, each hidden ReLU output, the output probability.

    The one forward pass: evaluation reads the last entry, backprop reads them all.
    """
    acts = [X]
    for k in range(net.n_layers):
        z = acts[-1] @ net.weights[k]
        z += net.biases[k]
        acts.append(np.maximum(z, 0.0, out=z) if k < net.n_layers - 1 else _sigmoid(z))
    return acts


def _backward(net: DenseNetwork, X: np.ndarray, y: np.ndarray,
              grad_views: tuple[list[np.ndarray], list[np.ndarray]]) -> float:
    """Mean BCE loss for one batch; writes its gradient through ``grad_views``.

    ``grad_views`` are the per-layer (weights, biases) views of a flat buffer
    in the canonical layout, as built by ``_layer_views``.
    """
    n = X.shape[0]
    acts = _forward(net, X)  # acts[-1] is the output probability

    clipped = np.clip(acts[-1], PROB_CLIP, 1.0 - PROB_CLIP)
    y_col = y.reshape(-1, 1)
    loss = float(-np.mean(y_col * np.log(clipped) + (1.0 - y_col) * np.log(1.0 - clipped)))

    grad_w, grad_b = grad_views
    delta = acts[-1]  # the probability is not read again, so delta takes over its buffer
    delta -= y_col
    delta /= n  # d(mean BCE)/d(z_out) for the sigmoid output
    for k in range(net.n_layers - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grad_w[k])
        np.sum(delta, axis=0, out=grad_b[k])
        if k > 0:
            # a ReLU unit passes gradient where its output is positive
            delta = delta @ net.weights[k].T
            np.multiply(delta, acts[k] > 0.0, out=delta)
    return loss


def loss_and_gradient(net: DenseNetwork, batch, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient as a flat parameter vector."""
    X = _check_batch(batch, net.input_dim)
    y = _check_labels(labels, X.shape[0])
    grad = np.empty_like(net.params)
    loss = _backward(net, X, y, _layer_views(grad, net.layer_dims))
    return loss, grad


def sgd_epoch(net: DenseNetwork, X, y, cfg: TrainConfig, rng: np.random.Generator) -> float:
    """One pass of mini-batch SGD over the training set, updating ``net`` in place.

    Returns the mean per-sample loss over the epoch. The shuffle order comes
    from ``rng``; the final short batch is trained on like any other. One
    gradient buffer serves every batch.
    """
    X = _check_batch(X, net.input_dim)
    y = _check_labels(y, X.shape[0])
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty set")

    grad = np.empty_like(net.params)
    grad_views = _layer_views(grad, net.layer_dims)
    perm = rng.permutation(n)
    loss_sum = 0.0
    for start in range(0, n, cfg.batch_size):
        idx = perm[start : start + cfg.batch_size]
        loss_sum += _backward(net, X[idx], y[idx], grad_views) * idx.size
        grad *= cfg.learning_rate
        net.params -= grad
    return loss_sum / n


def predict_labels(net: DenseNetwork, batch) -> np.ndarray:
    """Hard 0/1 labels; probability 0.5 is classified positive (malware)."""
    return (net.forward(batch) >= 0.5).astype(np.int64)
