"""Multi-label evaluation: confusion counts, F1 family, and AUC.

Example-based F1 averages the per-document F1 between predicted and
true label sets; the label-based scores pool counts (micro), average
per-label F1 (macro), or weight it by support (weighted).  AUC is the
Mann-Whitney statistic with ties counted half.

Every metric reads one canonical order (documents sorted by id, labels
in vocabulary order).  Counts and ranks are exact integer and
half-integer numpy arithmetic; every float sum runs left to right in
plain Python, so each value is exactly reproducible by a naive
reimplementation and is invariant to how prediction records were stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from mldistill.predictions import PredictionSet

DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    auc: float | None
    counts: ConfusionCounts


@dataclass(frozen=True)
class MetricsReport:
    example_f1: float
    micro_f1: float
    macro_f1: float
    weighted_f1: float
    per_label: dict[str, LabelMetrics]


def _ratio(num: float, den: float) -> float:
    # Empty-denominator quotients are defined as 0.
    return num / den if den > 0 else 0.0


def prf1(c: ConfusionCounts) -> tuple[float, float, float]:
    """(precision, recall, F1) with the 0/0 -> 0 convention."""
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return precision, recall, f1


def _canonical(pred: PredictionSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probs, predicted, true) over the canonical document order; the last two are boolean."""
    _, probs, truth = pred.canonical_arrays()
    return probs, probs >= DECISION_THRESHOLD, truth == 1


def _confusion(predicted: np.ndarray, true: np.ndarray) -> list[ConfusionCounts]:
    tp = np.count_nonzero(predicted & true, axis=0).tolist()
    fp = np.count_nonzero(predicted & ~true, axis=0).tolist()
    fn = np.count_nonzero(~predicted & true, axis=0).tolist()
    tn = np.count_nonzero(~predicted & ~true, axis=0).tolist()
    return [ConfusionCounts(*c) for c in zip(tp, fp, fn, tn)]


def _example_f1(predicted: np.ndarray, true: np.ndarray) -> float:
    sizes = np.count_nonzero(true, axis=1) + np.count_nonzero(predicted, axis=1)
    inter = np.count_nonzero(predicted & true, axis=1)
    terms = np.where(sizes == 0, 1.0, 2.0 * inter / np.maximum(sizes, 1))
    total = 0.0
    for term in terms.tolist():  # left to right: np.sum is pairwise, sum() compensates from 3.12
        total += term
    return total / len(terms)


def example_f1(pred: PredictionSet) -> float:
    """Mean per-document F1 between predicted and true label sets.

    A document with both sets empty counts as a perfect 1.0.
    """
    _, predicted, true = _canonical(pred)
    return _example_f1(predicted, true)


def _label_based(counts: list[ConfusionCounts]) -> tuple[float, float, float]:
    """(micro, macro, weighted) F1 from per-label counts."""
    tp = sum(c.tp for c in counts)
    fp = sum(c.fp for c in counts)
    fn = sum(c.fn for c in counts)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    micro = _ratio(2.0 * precision * recall, precision + recall)
    macro = 0.0
    for c in counts:
        macro += prf1(c)[2]
    supports = [c.tp + c.fn for c in counts]
    denominator = float(sum(supports))
    weighted = 0.0
    if denominator > 0:
        for c, support in zip(counts, supports):
            weighted += (support / denominator) * prf1(c)[2]
    return micro, macro / len(counts), weighted


def _auc(values: np.ndarray, positive: np.ndarray) -> float | None:
    """AUC from tie-averaged ranks, which is exactly the fraction of
    (positive, negative) pairs ordered correctly; None if one class is absent."""
    n = len(values)
    pos = int(np.count_nonzero(positive))
    neg = n - pos
    if pos == 0 or neg == 0:
        return None
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n)
    # Each tie group [start, end) shares the mean of its 1-based ranks.
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    # Half-integers summing far below 2**52: exact in any order.
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def full_report(pred: PredictionSet) -> MetricsReport:
    """Every metric from one canonical view of the set."""
    probs, predicted, true = _canonical(pred)
    counts = _confusion(predicted, true)
    per_label = {}
    for j, (name, c) in enumerate(zip(pred.labels, counts)):
        precision, recall, f1 = prf1(c)
        label_auc = _auc(probs[:, j], true[:, j])
        per_label[name] = LabelMetrics(precision=precision, recall=recall, f1=f1, auc=label_auc, counts=c)
    micro, macro, weighted = _label_based(counts)
    return MetricsReport(_example_f1(predicted, true), micro, macro, weighted, per_label)


def _fixed(value: float | None) -> float | None:
    # Reports print 6 decimal places; round through the text form so the
    # JSON shows exactly that many digits.
    return None if value is None else float(format(value, ".6f"))


def report_to_dict(report: MetricsReport) -> dict:
    labels = {}
    for name, lm in report.per_label.items():
        labels[name] = {
            "precision": _fixed(lm.precision),
            "recall": _fixed(lm.recall),
            "f1": _fixed(lm.f1),
            "auc": _fixed(lm.auc),
            "tp": lm.counts.tp,
            "fp": lm.counts.fp,
            "fn": lm.counts.fn,
            "tn": lm.counts.tn,
        }
    return {
        "example_f1": _fixed(report.example_f1),
        "micro_f1": _fixed(report.micro_f1),
        "macro_f1": _fixed(report.macro_f1),
        "weighted_f1": _fixed(report.weighted_f1),
        "labels": labels,
    }


def render_report(report: MetricsReport, meta: dict | None = None) -> str:
    payload = report_to_dict(report)
    if meta:
        payload["_meta"] = meta
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
