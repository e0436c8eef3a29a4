"""Multi-label evaluation: confusion counts, F1 family, and AUC.

Example-based F1 averages the per-document F1 between predicted and
true label sets; the label-based scores pool counts (micro), average
per-label F1 (macro), or weight it by support (weighted).  AUC is the
Mann-Whitney statistic with ties counted half.

All arithmetic runs in plain Python floats over a canonical order
(documents sorted by id, labels in vocabulary order), so every value is
exactly reproducible by a naive reimplementation and is invariant to
how prediction records were stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from mldistill.errors import DataError
from mldistill.predictions import PredictionSet

DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


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


def _predicted(prob: float) -> int:
    return 1 if prob >= DECISION_THRESHOLD else 0


def confusion_per_label(pred: PredictionSet) -> list[ConfusionCounts]:
    rows = pred.canonical_rows()
    counts = []
    for j in range(pred.num_labels):
        tp = fp = fn = tn = 0
        for _, probs, truth in rows:
            yhat = _predicted(probs[j])
            y = truth[j]
            if yhat == 1 and y == 1:
                tp += 1
            elif yhat == 1 and y == 0:
                fp += 1
            elif yhat == 0 and y == 1:
                fn += 1
            else:
                tn += 1
        counts.append(ConfusionCounts(tp, fp, fn, tn))
    return counts


def example_f1(pred: PredictionSet) -> float:
    """Mean per-document F1 between predicted and true label sets.

    A document with both sets empty counts as a perfect 1.0.
    """
    rows = pred.canonical_rows()
    total = 0.0
    for _, probs, truth in rows:
        true_size = sum(truth)
        pred_size = sum(_predicted(p) for p in probs)
        inter = sum(1 for p, y in zip(probs, truth) if _predicted(p) == 1 and y == 1)
        if true_size == 0 and pred_size == 0:
            total += 1.0
        else:
            total += 2.0 * inter / (true_size + pred_size)
    return total / len(rows)


def micro_f1(pred: PredictionSet) -> float:
    counts = confusion_per_label(pred)
    tp = sum(c.tp for c in counts)
    fp = sum(c.fp for c in counts)
    fn = sum(c.fn for c in counts)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return _ratio(2.0 * precision * recall, precision + recall)


def macro_f1(pred: PredictionSet) -> float:
    counts = confusion_per_label(pred)
    total = 0.0
    for c in counts:
        total += prf1(c)[2]
    return total / len(counts)


def weighted_f1(pred: PredictionSet) -> float:
    """Support-weighted mean of per-label F1; weights are positives_j
    normalized to sum to 1."""
    counts = confusion_per_label(pred)
    supports = [c.tp + c.fn for c in counts]
    denominator = float(sum(supports))
    if denominator <= 0:
        return 0.0
    total = 0.0
    for c, support in zip(counts, supports):
        total += (support / denominator) * prf1(c)[2]
    return total


def auc(scores: list[tuple[float, int]]) -> float | None:
    """Mann-Whitney AUC with ties counted half; None if one class is absent.

    Computed from tie-averaged ranks, which is exactly the fraction of
    (positive, negative) pairs ordered correctly.
    """
    n = len(scores)
    pos = sum(1 for _, bit in scores if bit == 1)
    neg = n - pos
    if pos == 0 or neg == 0:
        return None
    values = [float(s) for s, _ in scores]
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg_rank
        i = j + 1
    rank_sum = 0.0
    for idx, (_, bit) in enumerate(scores):
        if bit == 1:
            rank_sum += ranks[idx]
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def auc_per_label(pred: PredictionSet) -> list[float | None]:
    rows = pred.canonical_rows()
    out = []
    for j in range(pred.num_labels):
        out.append(auc([(probs[j], truth[j]) for _, probs, truth in rows]))
    return out


def full_report(pred: PredictionSet) -> MetricsReport:
    counts = confusion_per_label(pred)
    aucs = auc_per_label(pred)
    per_label = {}
    for name, c, label_auc in zip(pred.labels, counts, aucs):
        precision, recall, f1 = prf1(c)
        per_label[name] = LabelMetrics(precision=precision, recall=recall, f1=f1, auc=label_auc, counts=c)
    return MetricsReport(
        example_f1=example_f1(pred),
        micro_f1=micro_f1(pred),
        macro_f1=macro_f1(pred),
        weighted_f1=weighted_f1(pred),
        per_label=per_label,
    )


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


def read_report(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed metrics report: {exc.msg}") from exc
