"""Out-of-fold prediction sets and their line-delimited file format.

A PredictionSet holds exactly one (probability, true bit) pair per
(validation document, label) accumulated across all folds.  The file
format round-trips bit-exactly so metrics and statistics can run on
externally produced predictions.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress, count, cycle, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from mldistill.errors import DataError, utf8_fault

PREDICTIONS_FORMAT = "mldistill-predictions/1"

# Truth value of a (document, label) cell that has no prediction yet.
MISSING = -1

# Lines a reader takes at a time, and records it adds to the set in one call.
CHUNK_RECORDS = 4096

_FIELDS = ("doc_id", "label", "prob", "true", "fold")
_record_fields = itemgetter(*_FIELDS)
_scan_once = json.JSONDecoder().scan_once

# Most labels a file may have for its documents to be matched whole: the
# per-document pattern grows with the label list, and so does the time to
# compile it.  At 256 labels a block holds at least 16 documents.
_LANE_MAX_LABELS = 256

# The values of a record line as write_predictions writes it.  An id has no
# escape, control character or undecoded byte; prob is a JSON number with a
# fraction or an exponent (a float to json); a fold is a JSON integer of at
# most 15 digits, which a float holds exactly, as add_many stores it.  Digits
# are [0-9]: \d also matches digits that int() reads and JSON does not.
_DOC_ID = r'"([^"\\\x00-\x1f\ud800-\udfff]*)"'
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_FOLD = r"(-?(?:0|[1-9][0-9]{0,14}))"


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, (bool, np.bool_))


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in a non-empty ``mask``, or None."""
    i = int(mask.argmax())
    return i if mask[i] else None


def _check_values(doc_ids, probs: np.ndarray, truth: np.ndarray) -> None:
    """Raise for the first probability outside [0, 1], then for the first
    true bit not 0 or 1; row i of ``probs`` and ``truth`` is ``doc_ids[i]``'s."""
    i = _first(~((probs >= 0.0) & (probs <= 1.0)).ravel())
    if i is not None:
        doc = doc_ids[np.unravel_index(i, probs.shape)[0]]
        raise DataError(f"probability {float(probs.flat[i])} outside [0, 1] for doc {doc!r}")
    i = _first(((truth != 0) & (truth != 1)).ravel())
    if i is not None:
        raise DataError(f"true bit must be 0 or 1, got {int(truth.flat[i])!r}")


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
        _check_values(doc_ids, prob, bit)

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

    def add_documents(self, doc_ids, probs, truth, folds) -> None:
        """Add whole documents: row i of the (documents x labels) arrays
        ``probs`` and ``truth``, in label order, for new document
        ``doc_ids[i]`` in fold ``folds[i]``.  Every probability, true bit
        and id (distinct, and new to the set) is checked before anything is
        written, so a call that raises leaves the set unchanged."""
        n = len(doc_ids)
        probs, truth = np.asarray(probs, dtype=float), np.asarray(truth)
        if probs.shape != (n, self.num_labels) or truth.shape != probs.shape or len(folds) != n:
            raise ValueError(f"need {n} x {self.num_labels} probabilities and true bits, and {n} folds")
        if not n:
            return
        _check_values(doc_ids, probs, truth)
        if len(set(doc_ids)) < n or not self._doc_index.keys().isdisjoint(doc_ids):
            seen: set[str] = set()
            doc = next(d for d in doc_ids if d in self._doc_index or d in seen or seen.add(d))
            raise DataError(f"duplicate prediction for doc {doc!r}, label index 0")

        start = self.num_docs
        self._reserve(start + n)
        self._probs[start : start + n] = probs
        self._truth[start : start + n] = truth
        self._doc_index.update(zip(doc_ids, count(start)))
        self.doc_ids.extend(doc_ids)
        self.fold_of.update(zip(doc_ids, map(int, folds)))

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
        if utf8_fault(line) is not None:
            continue
        try:
            obj = _parse(line)
        except (ValueError, RecursionError):  # malformed, nested too deep, or an integer of too many digits
            continue
        if isinstance(obj, dict) and "_meta" in obj:
            header = _header_labels(obj)
            labels = labels if header is None else header
        elif isinstance(obj, dict) and "label" in obj:
            names.add(str(obj["label"]))
    return sorted(names) if labels is None else labels


def _add_records(pred: PredictionSet, linenos, doc_ids, label_indices, probs, truth, folds) -> None:
    """Add records given as columns in one call.  If that call fails, they
    are added again one at a time, so the error names the first faulty
    line."""
    try:
        pred.add_many(doc_ids, label_indices, probs, truth, folds)
    except DataError:
        for lineno, *record in zip(linenos, doc_ids, label_indices, probs, truth, folds):
            try:
                pred.add_many(*([value] for value in record))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        raise


def _document_pattern(labels: tuple[str, ...]) -> re.Pattern:
    """One document as ``write_predictions`` writes it: a record line per
    label, in the list's order, with the id and the fold of the first line
    repeated on the others.  The groups are the id, the first line's prob
    and true, the fold, then each further line's prob and true."""

    def line(doc_id: str, name: str, fold: str) -> str:
        return rf'\{{"doc_id": {doc_id}, "label": {name}, "prob": {_FLOAT}, "true": ([01]), "fold": {fold}\}}\n'

    first, *rest = (re.escape(json.dumps(name)) for name in labels)
    lines = [line(_DOC_ID, first, _FOLD), *(line(r'"\1"', name, r"\4") for name in rest)]
    return re.compile("^" + "".join(lines), re.M)


def _document_columns(pattern: re.Pattern, block: list[str], num_labels: int) -> tuple | None:
    """(doc_ids, probs, truth, folds) of a block whose lines are whole
    documents that ``pattern`` matches, with (documents x labels) probs and
    truth; None for any other block."""
    text = "".join(block)
    # A block that does not start with such a document pays for no search.
    if not pattern.match(text):
        return None
    groups = pattern.findall(text)
    # Each match is num_labels whole lines, so a short count leaves a line out.
    if len(groups) * num_labels != len(block):
        return None
    stride = 2 * num_labels + 2
    values = list(chain.from_iterable(groups))
    prob_at = {1, *range(4, stride, 2)}
    is_prob = [k in prob_at for k in range(stride)]
    is_true = [k - 1 in prob_at for k in range(stride)]
    probs = np.array(list(map(float, compress(values, cycle(is_prob))))).reshape(len(groups), num_labels)
    # Each true is one digit, 0 or 1.
    truth = np.frombuffer("".join(compress(values, cycle(is_true))).encode(), np.int8) - ord("0")
    return values[::stride], probs, truth.reshape(probs.shape), list(map(int, values[3::stride]))


def _load(fh, final: list[str] | None) -> PredictionSet | None:
    """Read ``fh`` in blocks of lines.  Once the set exists, and it has at
    most _LANE_MAX_LABELS distinct labels, a block of CHUNK_RECORDS // L
    whole documents (L labels) as ``write_predictions`` writes them is added
    in one call; any other block is parsed line by line and added in chunks
    of CHUNK_RECORDS.  Such blocks start where the records read since the
    set was made are a multiple of L: after a block parsed line by line,
    lines are parsed one at a time until they are.  The first faulty line
    raises, so a fault found while parsing first adds the records before
    it.  Without ``final`` labels, the last header before the first record
    gives them, and the pass gives up (None) when they prove not to be
    final."""
    labels, pred, label_index, chunk = final, None, {}, []
    # The lines of a document while whole documents may be matched (else
    # 0), their pattern once built, and the records read since the set was
    # made.
    doc_lines, documents, records = 0, None, 0

    def flush() -> None:
        if chunk:
            linenos, doc_ids, *columns = zip(*chunk)
            _add_records(pred, linenos, list(map(str, doc_ids)), *columns)
            chunk.clear()

    def block_size() -> int:
        if not doc_lines:
            return CHUNK_RECORDS
        begun = records % doc_lines  # records read of a document not yet whole
        return doc_lines - begun if begun else CHUNK_RECORDS // doc_lines * doc_lines

    end = 0
    for block in iter(lambda: list(islice(fh, block_size())), []):
        start, end = end, end + len(block)
        if doc_lines and not records % doc_lines:
            documents = documents or _document_pattern(pred.labels)
            columns = _document_columns(documents, block, doc_lines)
            if columns is not None:
                flush()
                try:
                    pred.add_documents(*columns)
                    records += len(block)
                    continue
                except DataError:
                    pass  # the line-by-line lane below names the faulty line
        for lineno, line in enumerate(block, start):
            fault = utf8_fault(line)
            if fault is not None:
                flush()
                raise DataError(f"line {lineno}: {fault}")
            try:
                obj = _parse(line)
            except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or an integer of too many digits
                if not line.strip():
                    continue
                flush()
                reason = getattr(exc, "msg", exc)
                raise DataError(f"line {lineno}: malformed prediction record ({reason})") from exc
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
                if labels:
                    pred = PredictionSet(labels)
                    label_index = {name: j for j, name in enumerate(labels)}
                    if len(label_index) == len(labels) <= min(_LANE_MAX_LABELS, CHUNK_RECORDS):
                        doc_lines = len(labels)
                elif final is None:
                    return None
                elif "label" not in obj:  # the final label list is empty, and this record has none
                    raise DataError(f"line {lineno}: missing field 'label'")
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
            records += 1
            if len(chunk) == CHUNK_RECORDS:
                flush()
    if pred is None:
        raise DataError("prediction file contains no records")
    flush()
    pred.validate_complete()
    return pred


def read_predictions(path: str | Path) -> PredictionSet:
    """Read a predictions file, adding its records to the set in chunks.

    Blocks of whole documents as ``write_predictions`` writes them are
    added a document to a row; any other block is parsed line by line,
    with the same checks.
    One pass suffices when a header with the label list precedes the first
    record.  Otherwise (no header, or a later one that changes the list:
    the last header wins) the file is scanned for its final label list and
    loaded again.  A faulty file reports its first faulty line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        pred = _load(fh, None)
        if pred is None:
            fh.seek(0)
            labels = _final_labels(fh)
            fh.seek(0)
            pred = _load(fh, labels)
    return pred
