"""The paper's six metrics of one model, ROC/AUC, and the subject-disjoint split.

Threshold selection by Youden's J lives in manifold.select_threshold.
"""
from __future__ import annotations

import numpy as np

from .errors import SingleClassDataset, ValidationError

# one row of the paper's results table, in its column order
METRICS = ("accuracy", "ppv", "npv", "sensitivity", "specificity", "auc")


def evaluate_scores(scores, verdicts, labels) -> dict:
    """The METRICS of (score, verdict) per cycle against eval labels, plus
    "undefined": the metrics whose denominator is zero, each reported as None.

    The normal (quality-1) class is positive; AUC comes from roc_auc.
    """
    _, auc = roc_auc(scores, labels)
    p = np.asarray(verdicts, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape:
        raise ValidationError(f"predictions {p.shape} vs labels {y.shape}")
    tp = int(np.sum((p == 1) & (y == 1)))
    tn = int(np.sum((p == 0) & (y == 0)))
    fp = int(np.sum((p == 1) & (y == 0)))
    fn = int(np.sum((p == 0) & (y == 1)))

    def ratio(num, den):
        return num / den if den > 0 else None

    report = {"accuracy": (tp + tn) / y.size, "ppv": ratio(tp, tp + fp),
              "npv": ratio(tn, tn + fn), "sensitivity": ratio(tp, tp + fn),
              "specificity": ratio(tn, tn + fp), "auc": auc}
    report["undefined"] = [k for k in METRICS if report[k] is None]
    return report


def roc_auc(scores, labels) -> tuple[list[tuple[float, float]], float]:
    """ROC curve (threshold +inf -> -inf) and trapezoidal AUC, with tie grouping.

    Higher score means more positive.  Returns ([(fpr, tpr), ...], auc).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape:
        raise ValidationError(f"scores {s.shape} vs labels {y.shape}")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassDataset("ROC needs both classes present")

    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted == 1)
    fp = np.cumsum(y_sorted == 0)
    # keep only the last index of each tied score group
    last = np.r_[np.flatnonzero(np.diff(s_sorted) != 0), s_sorted.size - 1]
    tpr = np.r_[0.0, tp[last] / n_pos]
    fpr = np.r_[0.0, fp[last] / n_neg]
    auc = float(np.trapezoid(tpr, fpr))
    return list(zip(fpr.tolist(), tpr.tolist())), auc


SPLIT_FRACTIONS = (0.8, 0.1, 0.1)   # train, val, test


def split_by_subject(cycles, seed: int = 0):
    """Partition cycles into (train, val, test) with disjoint subject sets.

    Greedy largest-first bin packing toward the SPLIT_FRACTIONS of the
    cycles; deterministic under seed; every split is guaranteed non-empty.
    """
    by_subject: dict[str, list] = {}
    for c in cycles:
        by_subject.setdefault(c.subject_id, []).append(c)
    subjects = list(by_subject)
    if len(subjects) < 3:
        raise ValidationError(f"need at least 3 subjects, got {len(subjects)}")

    rng = np.random.default_rng(seed)
    rng.shuffle(subjects)
    subjects.sort(key=lambda s: -len(by_subject[s]))   # stable: seeded order within ties

    total = sum(len(v) for v in by_subject.values())
    targets = [f * total for f in SPLIT_FRACTIONS]
    assigned: list[list[str]] = [[], [], []]
    counts = [0, 0, 0]
    for sid in subjects:
        deficits = [targets[i] - counts[i] for i in range(3)]
        i = int(np.argmax(deficits))
        assigned[i].append(sid)
        counts[i] += len(by_subject[sid])
    # guarantee non-empty splits by stealing the smallest subject from the
    # most populated split
    for i in range(3):
        if not assigned[i]:
            donor = max(range(3), key=lambda j: (len(assigned[j]), counts[j]))
            sid = min(assigned[donor], key=lambda s: len(by_subject[s]))
            assigned[donor].remove(sid)
            assigned[i].append(sid)
            counts[donor] -= len(by_subject[sid])
            counts[i] += len(by_subject[sid])

    out = []
    for group in assigned:
        split = []
        for sid in group:
            split.extend(by_subject[sid])
        out.append(split)
    return tuple(out)
