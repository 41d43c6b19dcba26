"""Binary classification metrics: accuracy, F1, rank-based AUC and FPR.

The positive class is malware (label 1) everywhere. All functions are pure
and operate on plain numpy arrays.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np


class MetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


@dataclass(frozen=True)
class Confusion:
    """2x2 contingency counts for a batch of binary predictions."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    """The four reported scores of a classifier on one evaluation set."""

    accuracy: float
    f1: float
    auc: float
    fpr: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


METRIC_NAMES = tuple(f.name for f in fields(MetricSet))


def _as_binary(vec, what: str) -> np.ndarray:
    arr = np.asarray(vec)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D vector, got shape {arr.shape}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} must contain only 0/1 values")
    return arr.astype(np.int64)


def confusion(pred, truth) -> Confusion:
    """Count the standard 2x2 contingency of predictions vs ground truth."""
    p = _as_binary(pred, "pred")
    t = _as_binary(truth, "truth")
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {t.size} labels")
    if p.size == 0:
        raise ValueError("cannot build a confusion matrix from empty vectors")
    tp = int(np.sum((p == 1) & (t == 1)))
    tn = int(np.sum((p == 0) & (t == 0)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    return Confusion(tp=tp, tn=tn, fp=fp, fn=fn)


def accuracy(c: Confusion) -> float:
    return (c.tp + c.tn) / c.total


def f1(c: Confusion) -> float:
    """F1 in closed form, tp / (tp + (fp+fn)/2). Degenerate all-zero case is 1."""
    denom = c.tp + 0.5 * (c.fp + c.fn)
    if denom == 0:
        return 1.0
    return c.tp / denom


def fpr(c: Confusion) -> float:
    """False positive rate fp / (fp + tn). Defined as 0 when no true negatives exist."""
    denom = c.fp + c.tn
    if denom == 0:
        return 0.0
    return c.fp / denom


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks over ascending order; tied values get the average rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    # Sorted positions first..last (0-based) of each run of equal values share
    # the average of ranks first+1..last+1; NaN never equals itself, so each
    # NaN is a run of its own.
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], values.size] - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def auc_rank(scores, truth) -> float:
    """AUC from the rank-sum of positives.

    Computes (sum of positive ranks - n_pos*(n_pos+1)/2) / (n_pos*n_neg) with
    midranks for ties, which equals the normalized Mann-Whitney U statistic.

    Raises:
        MetricError: if only one class is present in ``truth``.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = _as_binary(truth, "truth")
    if s.size != t.size:
        raise ValueError(f"length mismatch: {s.size} scores vs {t.size} labels")
    n_pos = int(np.sum(t == 1))
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC is undefined when only one class is present")
    ranks = _midranks(s)
    rank_sum_pos = float(ranks[t == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_scores(scores, truth) -> MetricSet:
    """Score a probability vector against 0/1 labels.

    Labels are predicted positive when the score is >= 0.5 (ties are
    classified as malware).
    """
    s = np.asarray(scores, dtype=np.float64)
    pred = (s >= 0.5).astype(np.int64)
    c = confusion(pred, truth)
    return MetricSet(accuracy=accuracy(c), f1=f1(c), auc=auc_rank(s, truth), fpr=fpr(c))
