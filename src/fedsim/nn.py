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
``sgd_epochs`` trains such a stack in place, ``sgd_epoch`` one network for one
epoch. Each network's arithmetic is the one it would do alone, bit for bit.

One ``sgd_epochs`` call runs every local epoch, with its layer views, batch
buffers and gradient scratch built once, and computes the loss only in the last
epoch, when asked. It plans its steps once, as runs of adjacent networks whose
batches have one size, and every step of every epoch gathers a run's batches by
indexing the table and trains the run as one stack. The table is read in its
own dtype (a 0/1 table as uint8) and only each gathered batch is cast to
float64, so training never copies the table.

``DenseNetwork.forward`` scores its rows in blocks of ``_SCORE_ROWS`` (256),
so a call holds one block's float64 copy and activations, not the whole
batch's: a 15627-row Kronodroid-shaped holdout peaks near 2 MB, not 102 MB.
The tail rows join the last block, so no block has fewer than 256 rows
unless the whole batch does. OpenBLAS takes another kernel path for a GEMM
of few rows, and a last block of 1-39 rows changed the last bits of some of
its scores; blocks of at least 256 rows give the bits of one pass over the
whole batch at one BLAS thread, the count every experiment runs at (see
``fedsim._blas``).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Probabilities are clamped away from {0, 1} before taking logs so the loss
# stays finite for saturated outputs.
PROB_CLIP = 1e-7

# The fewest rows DenseNetwork.forward scores in one block (see the module docstring).
_SCORE_ROWS = 256


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
    A contiguous float64 ``params`` is used as it is, not copied; a buffer of
    the wrong length is a ValueError.
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
    def n_params(self) -> int:
        return self.params.size

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``batch``.

        ``batch`` is read in its own dtype and scored in blocks of
        ``_SCORE_ROWS`` rows, the last block taking the tail, so no block is
        smaller unless the whole batch is. Only one block at a time is cast to
        float64 and has its activations held.
        """
        X = _check_batch(batch, self.input_dim)
        views = _layer_views(self.params[None], self.layer_dims)
        out = np.empty(len(X))
        start = 0
        for stop in [*range(_SCORE_ROWS, len(X) - _SCORE_ROWS + 1, _SCORE_ROWS), len(X)]:
            block = X[start:stop].astype(np.float64, copy=False)
            out[start:stop] = _forward(*views, block[None])[-1].ravel()
            start = stop
        return out


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
    """``batch`` as an (n, input_dim) array in its own dtype, or a ValueError."""
    a = np.asarray(batch)
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


def _backward(views, X: np.ndarray, y: np.ndarray, grad_views, loss: bool = True) -> np.ndarray | None:
    """Mean BCE loss of each network on its batch; writes the gradients through ``grad_views``.

    ``views`` and ``grad_views`` are the ``_layer_views`` of a (G, P)
    parameter stack and of a gradient buffer of the same shape; ``X`` is
    (G, n, d) and ``y`` is (G, n). Returns the G losses, or None without
    computing them when ``loss`` is false; the gradients are the same.
    """
    weights, _ = views
    n = X.shape[1]
    acts = _forward(*views, X)  # acts[-1] is the output probability

    y_col = y[:, :, None]
    batch_loss = None
    if loss:
        clipped = acts[-1].clip(PROB_CLIP, 1.0 - PROB_CLIP)
        batch_loss = -(y_col * np.log(clipped) + (1.0 - y_col) * np.log(1.0 - clipped)).mean(axis=(1, 2))

    grad_w, grad_b = grad_views
    delta = acts[-1]  # the probability is not read again, so delta takes over its buffer
    delta -= y_col
    delta /= n  # d(mean BCE)/d(z_out) for the sigmoid output
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].transpose(0, 2, 1), delta, out=grad_w[k])
        delta.sum(axis=1, keepdims=True, out=grad_b[k])
        if k > 0:
            # a ReLU unit passes gradient where its output is positive; the
            # activation is not read again, so the next delta takes over its buffer
            passes = acts[k] > 0.0
            delta = np.matmul(delta, weights[k].transpose(0, 2, 1), out=acts[k])
            np.multiply(delta, passes, out=delta)
    return batch_loss


def loss_and_gradient(net: DenseNetwork, batch, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient as a flat parameter vector."""
    X = _check_batch(batch, net.input_dim).astype(np.float64, copy=False)
    y = _check_labels(labels, X.shape[0])
    grad = np.empty_like(net.params)
    loss = _backward(_layer_views(net.params[None], net.layer_dims), X[None], y[None],
                     _layer_views(grad[None], net.layer_dims))
    return float(loss[0]), grad


def sgd_epochs(stack: np.ndarray, layer_dims: list[int], X, y, rows, cfg: TrainConfig, rngs, *,
               loss: bool = True) -> np.ndarray | None:
    """``cfg.local_epochs`` epochs of mini-batch SGD for each network of a (G, P) stack, in place.

    Network g trains on the rows ``rows[g]`` of the shared table ``X``, ``y``
    in a shuffle order drawn from ``rngs[g]`` each epoch, with the arithmetic
    it would do alone; its final short batch is trained on like any other.
    The call plans its steps once: each step trains every run of adjacent
    networks whose batches have one size as one stack, which is the whole
    stack while every network still has a whole batch. Every step of every
    epoch gathers each run's batches by indexing ``X`` and trains the run.
    Returns each network's mean per-sample loss over the last epoch, or None
    without computing any loss when ``loss`` is false.

    Only shapes are checked: ``y`` must already hold 0/1 labels (see
    ``_check_labels``). ``X`` is read in its own dtype: each batch is
    gathered in that dtype and cast to float64 as it enters the step.
    """
    X, y = np.asarray(X), np.asarray(y)
    if X.ndim != 2 or X.shape[1] != layer_dims[0] or y.shape != X.shape[:1]:
        raise ValueError(f"expected a table of shape (n, {layer_dims[0]}) and n labels, "
                         f"got {X.shape} and {y.shape}")
    if not len(stack) == len(rows) == len(rngs):
        raise ValueError(f"{len(stack)} networks but {len(rows)} row sets and {len(rngs)} generators")
    grad = np.empty_like(stack)
    sizes = np.array([r.size for r in rows])
    if not sizes.all():
        raise ValueError("cannot train on an empty set")
    bs = cfg.batch_size
    order = np.zeros((len(rows), sizes.max()), dtype=np.intp)  # shuffled rows, zero-padded
    batch = np.empty((len(rows), min(bs, sizes.max()), layer_dims[0]))
    views, grad_views = _layer_views(stack, layer_dims), _layer_views(grad, layer_dims)
    plan = []  # (start, lo, hi, batch size, views, gradient views) per run, in step order
    for start in range(0, sizes.max(), bs):
        batch_sizes = (sizes - start).clip(0, bs)
        edges = [0, *(np.flatnonzero(np.diff(batch_sizes)) + 1), len(rows)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if batch_sizes[lo]:
                w, b, gw, gb = ([a[lo:hi] for a in part] for part in (*views, *grad_views))
                plan.append((start, lo, hi, int(batch_sizes[lo]), (w, b), (gw, gb)))
    loss_sum = np.zeros(len(rows))
    for epoch in range(cfg.local_epochs):
        for g, (rng, r) in enumerate(zip(rngs, rows)):
            order[g, : r.size] = r[rng.permutation(r.size)]
        # raises on a row out of range, before any training
        y_perm = y.take(order).astype(np.float64, copy=False)
        epoch_loss = loss and epoch == cfg.local_epochs - 1
        for start, lo, hi, m, run_views, run_grad_views in plan:
            batch[lo:hi, :m] = X[order[lo:hi, start : start + m]]
            batch_loss = _backward(run_views, batch[lo:hi, :m],
                                   y_perm[lo:hi, start : start + m], run_grad_views, epoch_loss)
            if epoch_loss:
                loss_sum[lo:hi] += batch_loss * m
            grad[lo:hi] *= cfg.learning_rate
            stack[lo:hi] -= grad[lo:hi]
    return loss_sum / sizes if loss else None


def sgd_epoch(net: DenseNetwork, X, y, cfg: TrainConfig, rng: np.random.Generator) -> float:
    """One pass of mini-batch SGD over the training set, updating ``net`` in place.

    Returns the mean per-sample loss over the epoch; ``cfg.local_epochs`` is
    not read. The shuffle order comes from ``rng``; the final short batch is
    trained on like any other. This is ``sgd_epochs`` on a stack of one network.
    """
    X = np.asarray(X)  # read in its own dtype; sgd_epochs checks its shape
    y = _check_labels(y, len(X) if X.ndim else 0)
    return float(sgd_epochs(net.params[None], net.layer_dims, X, y, [np.arange(len(X))],
                            replace(cfg, local_epochs=1), [rng])[0])


def predict_labels(net: DenseNetwork, batch) -> np.ndarray:
    """Hard 0/1 labels; probability 0.5 is classified positive (malware)."""
    return (net.forward(batch) >= 0.5).astype(np.int64)
