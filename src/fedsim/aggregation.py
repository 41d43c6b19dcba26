"""Server-side model combination: FedAvg, DW-FedAvg and priority-index updates.

FedAvg builds the global model as the unweighted mean of client parameter
vectors. DW-FedAvg replaces the mean with a convex combination whose weights
(the priority index ``betas``) are rewarded or penalized each round based on
whether a client's local test accuracy improved or degraded.

Both aggregators share one summation kernel, so DW-FedAvg with uniform betas
reproduces FedAvg bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

BETA_SUM_TOL = 1e-9


class AggregationStrategy(Enum):
    FEDAVG = "fedavg"
    DW_FEDAVG = "dw-fedavg"

    @classmethod
    def parse(cls, name: str) -> "AggregationStrategy":
        key = name.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown aggregation strategy {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class PriorityIndex:
    """The server's per-client weight state for DW-FedAvg.

    ``betas`` always lies on the simplex (positive, summing to 1),
    ``prev_acc`` holds the accuracies the next update will compare against,
    ``alpha`` is the reward/penalty factor and ``round`` counts completed
    updates.
    """

    betas: np.ndarray
    prev_acc: np.ndarray
    alpha: float = 0.2
    round: int = 0

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        prev = np.asarray(self.prev_acc, dtype=np.float64)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "prev_acc", prev)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1-D vector")
        if prev.shape != betas.shape:
            raise ValueError(f"prev_acc shape {prev.shape} does not match betas shape {betas.shape}")
        if not (betas > 0).all():
            raise ValueError("betas must be strictly positive")
        if abs(float(betas.sum()) - 1.0) > BETA_SUM_TOL:
            raise ValueError(f"betas must sum to 1 (got {betas.sum()!r})")
        if ((prev < 0) | (prev > 1)).any():
            raise ValueError("prev_acc entries must lie in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.round < 0:
            raise ValueError("round must be non-negative")

    @property
    def n_clients(self) -> int:
        return self.betas.size

    @classmethod
    def uniform(cls, n_clients: int, alpha: float = 0.2) -> "PriorityIndex":
        """Fresh index with equal priority 1/n for every client."""
        if n_clients < 1:
            raise ValueError("need at least one client")
        return cls(
            betas=np.full(n_clients, 1.0 / n_clients),
            prev_acc=np.zeros(n_clients),
            alpha=alpha,
            round=0,
        )


def _stack_models(models) -> list[np.ndarray]:
    vecs = [np.asarray(m, dtype=np.float64) for m in models]
    if not vecs:
        raise ValueError("cannot aggregate an empty model list")
    length = vecs[0].size
    for i, v in enumerate(vecs):
        if v.ndim != 1 or v.size != length:
            raise ValueError(f"model {i} has shape {v.shape}, expected flat vector of length {length}")
    return vecs


def _weighted_combination(vecs: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    # One accumulation order for both strategies; required for the bitwise
    # uniform-betas == fedavg equivalence.
    out = np.zeros_like(vecs[0])
    for w, v in zip(weights, vecs):
        out += w * v
    return out


def fedavg(models) -> np.ndarray:
    """Coordinate-wise arithmetic mean of the client parameter vectors."""
    vecs = _stack_models(models)
    weights = np.full(len(vecs), 1.0 / len(vecs))
    return _weighted_combination(vecs, weights)


def dw_fedavg(models, idx: PriorityIndex) -> np.ndarray:
    """Priority-weighted combination sum_i betas[i] * model[i].

    The betas lie on the simplex, so this is a convex combination that
    reduces to plain FedAvg under equal priorities.
    """
    vecs = _stack_models(models)
    betas = np.asarray(idx.betas, dtype=np.float64)
    if betas.size != len(vecs):
        raise ValueError(f"{len(vecs)} models but {betas.size} betas")
    if abs(float(betas.sum()) - 1.0) > BETA_SUM_TOL:
        raise ValueError(f"betas must sum to 1 (got {betas.sum()!r})")
    return _weighted_combination(vecs, betas)


def update_priority_index(idx: PriorityIndex, curr_acc) -> PriorityIndex:
    """Advance the priority index one round given current client accuracies.

    The first update only adopts ``curr_acc`` as the comparison baseline and
    leaves the (uniform) betas untouched. Every later update rewards clients
    whose accuracy strictly improved with ``beta += beta*alpha``, penalizes
    strict degradation with ``beta -= beta*alpha``, leaves exact ties alone,
    then re-scales betas to sum to 1 and stores ``curr_acc`` as the new
    baseline.
    """
    curr = np.asarray(curr_acc, dtype=np.float64)
    if curr.shape != idx.betas.shape:
        raise ValueError(f"curr_acc shape {curr.shape} does not match betas shape {idx.betas.shape}")
    if ((curr < 0) | (curr > 1)).any():
        raise ValueError("curr_acc entries must lie in [0, 1]")

    new_round = idx.round + 1
    if new_round == 1:
        return PriorityIndex(betas=idx.betas.copy(), prev_acc=curr.copy(),
                             alpha=idx.alpha, round=new_round)

    betas = idx.betas.copy()
    betas[curr > idx.prev_acc] *= 1.0 + idx.alpha
    betas[curr < idx.prev_acc] *= 1.0 - idx.alpha
    betas /= betas.sum()
    return PriorityIndex(betas=betas, prev_acc=curr.copy(), alpha=idx.alpha, round=new_round)
