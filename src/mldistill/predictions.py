"""Out-of-fold prediction sets and their line-delimited file format.

A PredictionSet holds exactly one (probability, true bit) pair per
(validation document, label) accumulated across all folds.  The file
format round-trips bit-exactly so metrics and statistics can run on
externally produced predictions.
"""

from __future__ import annotations

import json
from pathlib import Path

from mldistill.errors import DataError

PREDICTIONS_FORMAT = "mldistill-predictions/1"


class PredictionSet:
    """Per-(document, label) predicted probability, truth, and fold."""

    def __init__(self, labels: list[str] | tuple[str, ...]):
        if not labels:
            raise ValueError("PredictionSet needs at least one label")
        self.labels: tuple[str, ...] = tuple(labels)
        self.doc_ids: list[str] = []
        self._doc_index: dict[str, int] = {}
        self._probs: list[list[float | None]] = []
        self._truth: list[list[int | None]] = []
        self.fold_of: dict[str, int] = {}

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    def __len__(self) -> int:
        return sum(1 for row in self._probs for p in row if p is not None)

    def add(self, doc_id: str, label_index: int, prob: float, true_bit: int, fold: int) -> None:
        if not 0 <= label_index < self.num_labels:
            raise ValueError(f"label index {label_index} out of range")
        prob = float(prob)
        if not 0.0 <= prob <= 1.0:
            raise DataError(f"probability {prob} outside [0, 1] for doc {doc_id!r}")
        if true_bit not in (0, 1):
            raise DataError(f"true bit must be 0 or 1, got {true_bit!r}")
        idx = self._doc_index.get(doc_id)
        if idx is None:
            idx = len(self.doc_ids)
            self._doc_index[doc_id] = idx
            self.doc_ids.append(doc_id)
            self._probs.append([None] * self.num_labels)
            self._truth.append([None] * self.num_labels)
            self.fold_of[doc_id] = int(fold)
        elif self.fold_of[doc_id] != int(fold):
            raise DataError(f"doc {doc_id!r} recorded in two folds")
        if self._probs[idx][label_index] is not None:
            raise DataError(f"duplicate prediction for doc {doc_id!r}, label index {label_index}")
        self._probs[idx][label_index] = prob
        self._truth[idx][label_index] = int(true_bit)

    def validate_complete(self) -> None:
        """Every stored document must carry a prediction for every label."""
        if not self.doc_ids:
            raise DataError("prediction set is empty")
        for idx, doc_id in enumerate(self.doc_ids):
            for j in range(self.num_labels):
                if self._probs[idx][j] is None:
                    raise DataError(f"missing prediction for doc {doc_id!r}, label {self.labels[j]!r}")

    def canonical_rows(self) -> list[tuple[str, list[float], list[int]]]:
        """(doc_id, probs, truth) rows, documents sorted by id.

        Metric code iterates this order, so permuting how records were
        inserted (or stored on disk) can never change a metric bit.
        """
        self.validate_complete()
        out = []
        for doc_id in sorted(self.doc_ids):
            idx = self._doc_index[doc_id]
            out.append((doc_id, [float(p) for p in self._probs[idx]], [int(t) for t in self._truth[idx]]))
        return out


def write_predictions(pred: PredictionSet, path: str | Path, meta: dict | None = None) -> None:
    """Write the header line plus one record per (document, label)."""
    pred.validate_complete()
    header = {"_meta": {"format": PREDICTIONS_FORMAT, "labels": list(pred.labels), **(meta or {})}}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for doc_id in pred.doc_ids:
            idx = pred._doc_index[doc_id]
            fold = pred.fold_of[doc_id]
            for j, name in enumerate(pred.labels):
                record = {
                    "doc_id": doc_id,
                    "label": name,
                    "prob": pred._probs[idx][j],
                    "true": pred._truth[idx][j],
                    "fold": fold,
                }
                fh.write(json.dumps(record) + "\n")


def _integral(value, field: str) -> int:
    # int() would truncate 0.7 to 0; JSON numbers arrive as int or float.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def read_predictions(path: str | Path) -> PredictionSet:
    """Read a predictions file; the header is optional for external files."""
    records: list[tuple[int, dict]] = []
    labels: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: malformed prediction record ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DataError(f"line {lineno}: prediction record is not an object")
            if "_meta" in obj:
                meta = obj["_meta"]
                if isinstance(meta, dict) and isinstance(meta.get("labels"), list):
                    labels = [str(x) for x in meta["labels"]]
                continue
            for key in ("doc_id", "label", "prob", "true", "fold"):
                if key not in obj:
                    raise DataError(f"line {lineno}: missing field {key!r}")
            records.append((lineno, obj))
    if not records:
        raise DataError("prediction file contains no records")
    if labels is None:
        labels = sorted({str(obj["label"]) for _, obj in records})
    label_index = {name: j for j, name in enumerate(labels)}
    pred = PredictionSet(labels)
    for lineno, obj in records:
        name = str(obj["label"])
        if name not in label_index:
            raise DataError(f"line {lineno}: label {name!r} not in header label list")
        try:
            true_bit, fold = _integral(obj["true"], "true"), _integral(obj["fold"], "fold")
            pred.add(str(obj["doc_id"]), label_index[name], float(obj["prob"]), true_bit, fold)
        except (DataError, ValueError, TypeError) as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    pred.validate_complete()
    return pred
