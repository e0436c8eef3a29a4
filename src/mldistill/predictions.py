"""Out-of-fold prediction sets and their line-delimited file format.

A PredictionSet holds exactly one (probability, true bit) pair per
(validation document, label) accumulated across all folds.  The file
format round-trips bit-exactly so metrics and statistics can run on
externally produced predictions.
"""

from __future__ import annotations

import json
from itertools import compress, count, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from mldistill.errors import DataError

PREDICTIONS_FORMAT = "mldistill-predictions/1"

# Truth value of a (document, label) cell that has no prediction yet.
MISSING = -1

# Records a reader gathers before adding them to the set in one call.
CHUNK_RECORDS = 4096

_FIELDS = ("doc_id", "label", "prob", "true", "fold")
_record_fields = itemgetter(*_FIELDS)
_scan_once = json.JSONDecoder().scan_once


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, (bool, np.bool_))


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in a non-empty ``mask``, or None."""
    i = int(mask.argmax())
    return i if mask[i] else None


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
        self.add_many([doc_id], [label_index], [prob], [true_bit], [fold])

    def add_many(self, doc_ids, label_indices, probs, truth, folds) -> None:
        """Add one (probability, true bit, fold) per (document, label) cell,
        given as equal-length sequences.  Every number, range, fold and
        repeated cell is checked before anything is written, so a call that
        raises leaves the set unchanged.  A new document's row follows the
        order in which documents first appear."""
        if not len(doc_ids):
            return
        columns = []
        for field, values in (("prob", probs), ("true", truth), ("fold", folds)):
            if not all(map(_is_number_type, set(map(type, values)))):
                bad = next(v for v in values if not _is_number_type(type(v)))
                raise DataError(f"{field} must be a number, got {bad!r}")
            try:
                columns.append(np.array(values, dtype=float))
            except OverflowError:
                raise DataError(f"{field} must be a number within the float range") from None
        prob, bit, fold = columns
        for field, values, column in (("true", truth, bit), ("fold", folds, fold)):
            i = _first(~(np.isfinite(column) & (column == np.trunc(column))))
            if i is not None:
                raise DataError(f"{field} must be an integer, got {values[i]!r}")
        j = np.array(label_indices, dtype=np.intp)
        i = _first((j < 0) | (j >= self.num_labels))
        if i is not None:
            raise ValueError(f"label index {label_indices[i]} out of range")
        i = _first(~((prob >= 0.0) & (prob <= 1.0)))
        if i is not None:
            raise DataError(f"probability {float(prob[i])} outside [0, 1] for doc {doc_ids[i]!r}")
        i = _first((bit != 0) & (bit != 1))
        if i is not None:
            raise DataError(f"true bit must be 0 or 1, got {int(bit[i])!r}")

        # u[i]: record i's document among this call's documents, which are
        # numbered in first-appearance order; first[k]: where document k
        # first appears.
        docs = dict(zip(dict.fromkeys(doc_ids), count()))
        u = np.fromiter(map(docs.__getitem__, doc_ids), np.intp, len(doc_ids))
        first = np.searchsorted(np.maximum.accumulate(u), np.arange(len(docs)))
        row = np.fromiter(map(self._doc_index.get, docs, repeat(-1)), np.intp, len(docs))
        new = row < 0
        doc_fold = np.where(new, fold[first], np.fromiter(map(self.fold_of.get, docs, repeat(0)), float, len(docs)))
        i = _first(fold != doc_fold[u])
        if i is not None:
            raise DataError(f"doc {doc_ids[i]!r} recorded in two folds")
        start, num_new = self.num_docs, int(np.count_nonzero(new))
        row[new] = np.arange(start, start + num_new)
        rows = row[u]
        self._reserve(start + num_new)
        cells = rows * self.num_labels + j
        order = np.argsort(cells, kind="stable")
        repeated = self._truth[rows, j] != MISSING
        repeated[order[1:][cells[order[1:]] == cells[order[:-1]]]] = True
        i = _first(repeated)
        if i is not None:
            raise DataError(f"duplicate prediction for doc {doc_ids[i]!r}, label index {label_indices[i]}")

        new_docs = list(compress(docs, new.tolist()))
        self._doc_index.update(zip(new_docs, count(start)))
        self.doc_ids.extend(new_docs)
        self.fold_of.update(zip(new_docs, map(int, doc_fold[new].tolist())))
        self._probs[rows, j] = prob
        self._truth[rows, j] = bit

    def _reserve(self, num_docs: int) -> None:
        if num_docs > len(self._truth):
            extra = max(16, len(self._truth), num_docs - len(self._truth))
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


def _parse(line: str):
    """``json.loads(line)``: the same value, or the same error.  A line that
    is one JSON value, then at most a newline, takes one call of the C
    scanner inside ``json.loads``; any other line goes to ``json.loads``."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end >= 0 and line[end:] in ("\n", ""):
        return obj
    return json.loads(line)


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
            obj = _parse(line)
        except ValueError:  # malformed, or an integer past int's digit limit
            continue
        if isinstance(obj, dict) and "_meta" in obj:
            header = _header_labels(obj)
            labels = labels if header is None else header
        elif isinstance(obj, dict) and "label" in obj:
            names.add(str(obj["label"]))
    return sorted(names) if labels is None else labels


def _add_chunk(pred: PredictionSet, chunk: list[tuple]) -> None:
    """Add (line, doc_id, label index, prob, true, fold) records in one
    call.  If that call fails, the records are added again one at a time,
    so the error names the first faulty line."""
    linenos, doc_ids, label_indices, probs, truth, folds = zip(*chunk)
    try:
        pred.add_many(list(map(str, doc_ids)), label_indices, probs, truth, folds)
    except DataError:
        for lineno, doc_id, *values in chunk:
            try:
                pred.add(str(doc_id), *values)
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        raise


def _load(lines, final: list[str] | None) -> PredictionSet | None:
    """Add the records in chunks of CHUNK_RECORDS; the first faulty line
    raises, so a fault found while parsing first adds the records before
    it.  Without ``final`` labels, the last header before the first record
    gives them, and the pass gives up (None) when they prove not to be
    final."""
    labels, pred, label_index, chunk = final, None, {}, []

    def flush() -> None:
        if chunk:
            _add_chunk(pred, chunk)
            chunk.clear()

    for lineno, line in lines:
        try:
            obj = _parse(line)
        except ValueError as exc:  # malformed, or an integer past int's digit limit
            if not line.strip():
                continue
            flush()
            raise DataError(f"line {lineno}: malformed prediction record ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict):
            flush()
            raise DataError(f"line {lineno}: prediction record is not an object")
        if "_meta" in obj:
            header = _header_labels(obj)
            if final is None and header is not None and header != labels:
                if pred is not None:
                    flush()
                    return None
                labels = header
            continue
        if pred is None:
            if final is None and not labels:
                return None
            pred = PredictionSet(labels)
            label_index = {name: j for j, name in enumerate(labels)}
        try:
            doc_id, name, prob, true_bit, fold = _record_fields(obj)
        except KeyError:
            flush()
            key = next(key for key in _FIELDS if key not in obj)
            raise DataError(f"line {lineno}: missing field {key!r}") from None
        j = label_index.get(name if type(name) is str else str(name))
        if j is None:
            flush()
            if final is None:
                return None
            raise DataError(f"line {lineno}: label {str(name)!r} not in header label list")
        chunk.append((lineno, doc_id, j, prob, true_bit, fold))
        if len(chunk) == CHUNK_RECORDS:
            flush()
    if pred is None:
        raise DataError("prediction file contains no records")
    flush()
    pred.validate_complete()
    return pred


def read_predictions(path: str | Path) -> PredictionSet:
    """Read a predictions file, adding its records to the set in chunks.

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
