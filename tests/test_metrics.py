"""Metric unit tests: confusion counting, closed forms and rank-based AUC."""
import numpy as np
import pytest

from fedsim.metrics import (
    Confusion,
    MetricError,
    accuracy,
    auc_rank,
    confusion,
    evaluate_scores,
    f1,
    fpr,
)


def oracle_confusion(pred, truth):
    """Independent per-pair counting loop."""
    tp = tn = fp = fn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 0 and t == 0:
            tn += 1
        elif p == 1 and t == 0:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def oracle_auc(scores, truth):
    """Brute-force pair counting: wins + half-ties over all pos/neg pairs."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_all_correct(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)

    def test_all_false_positive(self):
        c = confusion([1, 1], [0, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 2, 0)

    def test_matches_counting_loop_on_random_pairs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pred = rng.integers(0, 2, size=1000)
            truth = rng.integers(0, 2, size=1000)
            c = confusion(pred, truth)
            assert (c.tp, c.tn, c.fp, c.fn) == oracle_confusion(pred, truth)
            assert c.total == 1000

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1, 0], [1])
        with pytest.raises(ValueError, match=r"^pred must be a 1-D vector, got shape \(2, 2\)$"):
            confusion([[1, 0], [0, 1]], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            confusion([0, 2], [0, 1])


class TestClosedForms:
    def test_hand_arithmetic(self):
        c = Confusion(tp=50, tn=40, fp=5, fn=5)
        assert accuracy(c) == pytest.approx(0.90, abs=1e-12)
        assert f1(c) == pytest.approx(50 / 55, abs=1e-12)
        assert fpr(c) == pytest.approx(5 / 45, abs=1e-12)

    def test_no_false_positives(self):
        assert fpr(Confusion(tp=3, tn=7, fp=0, fn=2)) == 0.0

    def test_perfect_classifier(self):
        c = Confusion(tp=10, tn=10, fp=0, fn=0)
        assert accuracy(c) == 1.0
        assert f1(c) == 1.0
        assert fpr(c) == 0.0

    def test_degenerate_f1_defined_as_one(self):
        # all-negative predictions on all-negative truth: tp = fp = fn = 0
        assert f1(Confusion(tp=0, tn=5, fp=0, fn=0)) == 1.0

    def test_degenerate_fpr_defined_as_zero(self):
        # no negatives in the evaluated set
        assert fpr(Confusion(tp=5, tn=0, fp=0, fn=1)) == 0.0

    def test_f1_equals_harmonic_mean_form(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tp, tn, fp, fn = rng.integers(0, 30, size=4)
            if tp + fp == 0 or tp + fn == 0:
                continue
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            if precision + recall == 0:
                continue
            c = Confusion(int(tp), int(tn), int(fp), int(fn))
            assert f1(c) == pytest.approx(
                2 * precision * recall / (precision + recall), abs=1e-12)


class TestAucRank:
    def test_perfect_separation(self):
        assert auc_rank([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted_separation(self):
        assert auc_rank([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_scores(self):
        assert auc_rank([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_matches_pairwise_oracle_with_ties(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 60))
            # coarse grid forces plenty of exact score ties
            scores = rng.integers(0, 8, size=n) / 8.0
            truth = rng.integers(0, 2, size=n)
            if truth.min() == truth.max():
                truth[0] = 1 - truth[0]
            assert auc_rank(scores, truth) == pytest.approx(
                oracle_auc(scores, truth), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        scores = rng.random(80)
        truth = rng.integers(0, 2, size=80)
        truth[0], truth[1] = 0, 1
        base = auc_rank(scores, truth)
        assert auc_rank(3.0 * scores + 2.0, truth) == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(12)
        scores = rng.random(60)
        truth = rng.integers(0, 2, size=60)
        truth[0], truth[1] = 0, 1
        base = auc_rank(scores, truth)
        # negating scores or flipping labels each complements the AUC;
        # applying both undoes the complement again
        assert auc_rank(-scores, truth) == pytest.approx(1.0 - base, abs=1e-12)
        assert auc_rank(scores, 1 - truth) == pytest.approx(1.0 - base, abs=1e-12)
        assert auc_rank(-scores, 1 - truth) == pytest.approx(base, abs=1e-12)

    def test_single_class_is_an_error(self):
        with pytest.raises(MetricError, match="one class"):
            auc_rank([0.1, 0.9], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            auc_rank([0.1, 0.2, 0.3], [0, 1])
        with pytest.raises(ValueError, match=r"^truth must be a 1-D vector, got shape \(1, 2\)$"):
            auc_rank([0.1, 0.9], [[0, 1]])


class TestEvaluateScores:
    def test_threshold_ties_count_as_malware(self):
        m = evaluate_scores([0.5, 0.4], [1, 0])
        assert m.accuracy == 1.0

    def test_values_populate_all_fields(self):
        rng = np.random.default_rng(4)
        scores = rng.random(200)
        truth = (scores + rng.normal(0, 0.3, 200) > 0.5).astype(int)
        truth[0], truth[1] = 0, 1
        m = evaluate_scores(scores, truth)
        d = m.as_dict()
        assert set(d) == {"accuracy", "f1", "auc", "fpr"}
        for v in d.values():
            assert 0.0 <= v <= 1.0
