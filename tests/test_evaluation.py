import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from cvsqi.errors import SingleClassDataset, ValidationError
from cvsqi.evaluation import METRICS, evaluate_scores, roc_auc, split_by_subject
from cvsqi.manifold import select_threshold
from cvsqi.preprocess import CvsCycle


def evaluate(verdicts, labels):
    """evaluate_scores with the verdicts as the scores."""
    return evaluate_scores(np.asarray(verdicts, dtype=float), verdicts, labels)


def counts(report, labels):
    """(tp, tn, fp, fn) from sensitivity and specificity and the class sizes."""
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    tp = round(report["sensitivity"] * n_pos)
    tn = round(report["specificity"] * n_neg)
    return tp, tn, n_neg - tn, n_pos - tp


def two_class_labels(rng, n):
    y = rng.integers(0, 2, size=n)
    if y.sum() in (0, n):
        y[0] = 1 - y[0]
    return y


class TestConfusion:
    def test_all_correct(self):
        y = np.array([1, 0, 1, 1, 0])
        assert counts(evaluate(y, y), y) == (3, 2, 0, 0)

    def test_inverted_predictions_swap_counts(self, seed):
        rng = np.random.default_rng(seed)
        y = two_class_labels(rng, 50)
        p = rng.integers(0, 2, size=50)
        tp, tn, fp, fn = counts(evaluate(p, y), y)
        tpi, tni, fpi, fni = counts(evaluate(1 - p, y), y)
        assert (tpi, fni) == (fn, tp)
        assert (tni, fpi) == (fp, tn)

    def test_matches_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        y = two_class_labels(rng, 80)
        p = rng.integers(0, 2, size=80)
        report = evaluate(p, y)
        tp = tn = fp = fn = 0
        for pi, yi in zip(p, y):
            if pi == 1 and yi == 1:
                tp += 1
            elif pi == 0 and yi == 0:
                tn += 1
            elif pi == 1:
                fp += 1
            else:
                fn += 1
        assert [report[k] for k in METRICS[:5]] == [
            (tp + tn) / 80, tp / (tp + fp), tn / (tn + fn), tp / (tp + fn), tn / (tn + fp)]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=r"^predictions \(3,\) vs labels \(4,\)$"):
            evaluate_scores(np.zeros(4), np.zeros(3, dtype=int), np.array([1, 0, 1, 0]))


class TestMetrics:
    def test_hand_arithmetic(self):
        # tp=90, fn=2, tn=5, fp=3
        y = np.array([1] * 92 + [0] * 8)
        p = np.array([1] * 90 + [0] * 2 + [0] * 5 + [1] * 3)
        m = evaluate(p, y)
        assert list(m) == [*METRICS, "undefined"]
        assert m["accuracy"] == pytest.approx(0.95)
        assert m["ppv"] == pytest.approx(90 / 93)
        assert m["npv"] == pytest.approx(5 / 7)
        assert m["sensitivity"] == pytest.approx(90 / 92)
        assert m["specificity"] == pytest.approx(0.625)
        assert m["undefined"] == []

    def test_all_true_positive_leaves_npv_undefined(self):
        # one class has no ROC, hence no metrics row
        with pytest.raises(SingleClassDataset):
            evaluate(np.ones(10, dtype=int), np.ones(10, dtype=int))
        # two classes, no negative verdict: tn + fn is zero
        y = np.array([1] * 10 + [0] * 2)
        m = evaluate(np.ones(12, dtype=int), y)
        assert m["accuracy"] == 10 / 12
        assert m["npv"] is None
        assert m["undefined"] == ["npv"]

    def test_all_positive_predictor(self):
        y = np.array([1] * 8 + [0] * 2)
        m = evaluate(np.ones(10, dtype=int), y)
        assert m["sensitivity"] == 1.0
        assert m["specificity"] == 0.0

    def test_identity_predictor_scores_one(self, seed):
        y = two_class_labels(np.random.default_rng(seed), 60)
        m = evaluate(y, y)
        assert all(m[name] == 1.0 for name in METRICS)


def mann_whitney_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    concordant = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                concordant += 1
            elif p == n:
                ties += 1
    return (concordant + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        _, auc = roc_auc(scores, labels)
        assert auc == 1.0

    def test_all_ties_give_half(self):
        _, auc = roc_auc(np.ones(10), np.array([1] * 5 + [0] * 5))
        assert auc == 0.5

    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(30):
            n = int(rng.integers(4, 200))
            scores = np.round(rng.normal(size=n), 1)   # induce ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            _, auc = roc_auc(scores, labels)
            assert abs(auc - mann_whitney_auc(scores, labels)) < 1e-12

    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=100)
        labels = rng.integers(0, 2, size=100)
        if labels.sum() in (0, 100):
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels)
        for transform in (np.exp, np.arctan, lambda s: 3 * s + 7,
                          lambda s: s ** 3):
            _, auc_t = roc_auc(transform(scores), labels)
            assert auc_t == pytest.approx(auc, abs=1e-12)

    def test_curve_monotone(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=60), 1)
        labels = rng.integers(0, 2, size=60)
        if labels.sum() in (0, 60):
            labels[0] = 1 - labels[0]
        curve, _ = roc_auc(scores, labels)
        fpr = [p[0] for p in curve]
        tpr = [p[1] for p in curve]
        assert fpr == sorted(fpr)
        assert tpr == sorted(tpr)
        assert curve[0] == (0.0, 0.0)
        assert curve[-1] == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataset):
            roc_auc(np.arange(5.0), np.ones(5, dtype=int))


class TestYoudenConsistency:
    def test_j_equals_sens_plus_spec_minus_one(self, seed):
        # the J of the selected threshold is the one the reported metrics give
        rng = np.random.default_rng(seed)
        for n in (5, 50, 500):
            r = rng.uniform(0, 2, size=n)
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            d, j = select_threshold(r, y)
            m = evaluate_scores(-r, (r <= d).astype(int), y)
            assert j == pytest.approx(m["sensitivity"] + m["specificity"] - 1.0,
                                      abs=1e-12)


def make_cycles(sizes):
    cycles = []
    for sid, n in sizes.items():
        for i in range(n):
            cycles.append(CvsCycle(subject_id=sid, t_start_ms=800 * i,
                                   samples=np.array([0.0, 1.0])))
    return cycles


class TestSplitBySubject:
    def test_ten_equal_subjects(self):
        cycles = make_cycles({f"s{i}": 50 for i in range(10)})
        train, val, test = split_by_subject(cycles, seed=0)
        assert len({c.subject_id for c in train}) == 8
        assert len({c.subject_id for c in val}) == 1
        assert len({c.subject_id for c in test}) == 1
        assert len(train) == 400

    def test_subject_sets_disjoint(self, seed):
        rng = np.random.default_rng(seed)
        sizes = {f"s{i}": int(rng.integers(10, 100)) for i in range(9)}
        parts = split_by_subject(make_cycles(sizes), seed=seed)
        sets = [{c.subject_id for c in p} for p in parts]
        for a, b in itertools.combinations(sets, 2):
            assert not (a & b)
        assert all(len(p) > 0 for p in parts)

    def test_deterministic(self):
        cycles = make_cycles({f"s{i}": 20 + i for i in range(7)})
        a = split_by_subject(cycles, seed=3)
        b = split_by_subject(cycles, seed=3)
        for pa, pb in zip(a, b):
            assert [c.subject_id for c in pa] == [c.subject_id for c in pb]

    def test_near_exhaustive_optimum_on_six_subjects(self, seed):
        rng = np.random.default_rng(seed)
        sizes = {f"s{i}": int(rng.integers(20, 120)) for i in range(6)}
        total = sum(sizes.values())
        targets = (0.8, 0.1, 0.1)

        def deviation(counts):
            return max(abs(c / total - t) for c, t in zip(counts, targets))

        best = np.inf
        for assign in itertools.product(range(3), repeat=6):
            if len(set(assign)) < 3:
                continue
            counts = [0, 0, 0]
            for sid, a in zip(sizes, assign):
                counts[a] += sizes[sid]
            best = min(best, deviation(counts))

        parts = split_by_subject(make_cycles(sizes), seed=seed)
        achieved = deviation([len(p) for p in parts])
        assert achieved <= best + 0.05

    def test_too_few_subjects(self):
        with pytest.raises(ValidationError, match="^need at least 3 subjects, got 2$"):
            split_by_subject(make_cycles({"a": 5, "b": 5}))
