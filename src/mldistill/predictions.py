"""Out-of-fold prediction sets and their line-delimited file format.

A PredictionSet holds exactly one (probability, true bit) pair per
(validation document, label) accumulated across all folds.  The file
format round-trips bit-exactly so metrics and statistics can run on
externally produced predictions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from mldistill.errors import DataError

PREDICTIONS_FORMAT = "mldistill-predictions/1"

# Truth value of a (document, label) cell that has no prediction yet.
MISSING = -1


class PredictionSet:
    """Per-(document, label) predicted probability, truth, and fold, in
    (documents x labels) arrays whose rows follow insertion order."""

    def __init__(self, labels: list[str] | tuple[str, ...]):
        if not labels:
            raise ValueError("PredictionSet needs at least one label")
        self.labels: tuple[str, ...] = tuple(labels)
        self.doc_ids: list[str] = []
        self._doc_index: dict[str, int] = {}
        self._probs = np.zeros((0, len(self.labels)))
        self._truth = np.full((0, len(self.labels)), MISSING, dtype=np.int8)
        self.fold_of: dict[str, int] = {}

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._truth != MISSING))

    def add(self, doc_id: str, label_index: int, prob: float, true_bit: int, fold: int) -> None:
        if not 0 <= label_index < len(self.labels):
            raise ValueError(f"label index {label_index} out of range")
        prob = float(prob)
        if not 0.0 <= prob <= 1.0:
            raise DataError(f"probability {prob} outside [0, 1] for doc {doc_id!r}")
        if true_bit not in (0, 1):
            raise DataError(f"true bit must be 0 or 1, got {true_bit!r}")
        idx = self._doc_index.get(doc_id)
        if idx is None:
            idx = len(self.doc_ids)
            if idx == len(self._truth):
                self._grow()
            self._doc_index[doc_id] = idx
            self.doc_ids.append(doc_id)
            self.fold_of[doc_id] = int(fold)
        elif self.fold_of[doc_id] != int(fold):
            raise DataError(f"doc {doc_id!r} recorded in two folds")
        if self._truth[idx, label_index] != MISSING:
            raise DataError(f"duplicate prediction for doc {doc_id!r}, label index {label_index}")
        self._probs[idx, label_index] = prob
        self._truth[idx, label_index] = int(true_bit)

    def _grow(self) -> None:
        extra = max(16, len(self._truth))
        self._probs = np.concatenate([self._probs, np.zeros((extra, len(self.labels)))])
        self._truth = np.concatenate([self._truth, np.full((extra, len(self.labels)), MISSING, dtype=np.int8)])

    def validate_complete(self) -> None:
        """Every stored document must carry a prediction for every label."""
        if not self.doc_ids:
            raise DataError("prediction set is empty")
        missing = np.flatnonzero(self._truth[: self.num_docs] == MISSING)
        if missing.size:
            idx, j = divmod(int(missing[0]), self.num_labels)
            raise DataError(f"missing prediction for doc {self.doc_ids[idx]!r}, label {self.labels[j]!r}")

    def canonical_arrays(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(doc_ids, probs, truth) with documents sorted by id.

        Metric code reads this order, so permuting how records were
        inserted (or stored on disk) can never change a metric bit.
        """
        self.validate_complete()
        order = sorted(range(self.num_docs), key=self.doc_ids.__getitem__)
        return [self.doc_ids[i] for i in order], self._probs[order], self._truth[order]

    def canonical_rows(self) -> list[tuple[str, list[float], list[int]]]:
        """(doc_id, probs, truth) rows in the canonical order, as Python lists."""
        doc_ids, probs, truth = self.canonical_arrays()
        return list(zip(doc_ids, probs.tolist(), truth.tolist()))


def write_predictions(pred: PredictionSet, path: str | Path, meta: dict | None = None) -> None:
    """Write the header line plus one record per (document, label)."""
    pred.validate_complete()
    header = {"_meta": {"format": PREDICTIONS_FORMAT, "labels": list(pred.labels), **(meta or {})}}
    n = pred.num_docs
    rows = zip(pred.doc_ids, pred._probs[:n].tolist(), pred._truth[:n].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for doc_id, probs, truth in rows:
            fold = pred.fold_of[doc_id]
            for name, prob, true_bit in zip(pred.labels, probs, truth):
                record = {
                    "doc_id": doc_id,
                    "label": name,
                    "prob": prob,
                    "true": true_bit,
                    "fold": fold,
                }
                fh.write(json.dumps(record) + "\n")


def _integral(value, field: str) -> int:
    # int() would truncate 0.7 to 0; JSON numbers arrive as int or float.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _header_labels(obj: dict) -> list[str] | None:
    meta = obj["_meta"]
    if isinstance(meta, dict) and isinstance(meta.get("labels"), list):
        return [str(x) for x in meta["labels"]]
    return None


def _final_labels(fh) -> list[str]:
    """The last header's label list, else the sorted record labels.  Lines
    that do not parse are skipped here and reported by the loading pass."""
    labels, names = None, set()
    for line in fh:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "_meta" in obj:
            header = _header_labels(obj)
            labels = labels if header is None else header
        elif isinstance(obj, dict) and "label" in obj:
            names.add(str(obj["label"]))
    return sorted(names) if labels is None else labels


def _load(lines, final: list[str] | None) -> PredictionSet | None:
    """Add each record as its line parses; the first faulty line raises.
    Without ``final`` labels, the last header before the first record gives
    them, and the pass gives up (None) when they prove not to be final."""
    labels, pred, label_index = final, None, {}
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {lineno}: malformed prediction record ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"line {lineno}: prediction record is not an object")
        if "_meta" in obj:
            header = _header_labels(obj)
            if final is None and header is not None and header != labels:
                if pred is not None:
                    return None
                labels = header
            continue
        if pred is None:
            if final is None and not labels:
                return None
            pred = PredictionSet(labels)
            label_index = {name: j for j, name in enumerate(labels)}
        for key in ("doc_id", "label", "prob", "true", "fold"):
            if key not in obj:
                raise DataError(f"line {lineno}: missing field {key!r}")
        name = str(obj["label"])
        if name not in label_index:
            if final is None:
                return None
            raise DataError(f"line {lineno}: label {name!r} not in header label list")
        try:
            true_bit, fold = _integral(obj["true"], "true"), _integral(obj["fold"], "fold")
            pred.add(str(obj["doc_id"]), label_index[name], float(obj["prob"]), true_bit, fold)
        except (DataError, ValueError, TypeError) as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    if pred is None:
        raise DataError("prediction file contains no records")
    pred.validate_complete()
    return pred


def read_predictions(path: str | Path) -> PredictionSet:
    """Read a predictions file, streaming each record into the set.

    One pass suffices when a header with the label list precedes the first
    record.  Otherwise (no header, or a later one that changes the list:
    the last header wins) the file is scanned for its final label list and
    loaded again.  A faulty file reports its first faulty line.
    """
    with open(path, encoding="utf-8") as fh:
        pred = _load(enumerate(fh), None)
        if pred is None:
            fh.seek(0)
            labels = _final_labels(fh)
            fh.seek(0)
            pred = _load(enumerate(fh), labels)
    return pred
