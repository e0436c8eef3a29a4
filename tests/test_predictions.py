import io
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from mldistill import predictions
from mldistill.errors import DataError
from mldistill.metrics import full_report, render_report
from mldistill.predictions import PredictionSet, read_predictions, write_predictions


def sample_set():
    pred = PredictionSet(["alpha", "beta"])
    pred.add_many(
        ["d0", "d0", "d1", "d1"], [0, 1, 0, 1], [0.123456789012345, 0.9, 1 / 3, 0.25], [1, 0, 0, 1], [0, 0, 1, 1]
    )
    return pred


class TestPredictionSet:
    def test_duplicate_rejected(self):
        pred = PredictionSet(["a"])
        pred.add_many(["d"], [0], [0.5], [1], [0])
        with pytest.raises(DataError, match="duplicate"):
            pred.add_many(["d"], [0], [0.6], [1], [0])

    def test_doc_cannot_span_folds(self):
        pred = PredictionSet(["a", "b"])
        pred.add_many(["d"], [0], [0.5], [1], [0])
        with pytest.raises(DataError, match="two folds"):
            pred.add_many(["d"], [1], [0.5], [1], [1])

    def test_probability_range_enforced(self):
        pred = PredictionSet(["a"])
        with pytest.raises(DataError):
            pred.add_many(["d"], [0], [1.5], [1], [0])

    def test_failed_bulk_add_writes_nothing(self):
        pred = PredictionSet(["a", "b"])
        pred.add_many(["d0"], [0], [0.5], [1], [0])
        with pytest.raises(DataError, match="duplicate prediction for doc 'd0', label index 0"):
            pred.add_many(["d1", "d1", "d0"], [0, 1, 0], [0.1, 0.2, 0.3], [0, 1, 0], [1, 1, 0])
        assert pred.doc_ids == ["d0"] and pred.fold_of == {"d0": 0} and len(pred) == 1
        pred.add_many(["d1", "d0", "d1"], [1, 1, 0], [0.2, 0.4, 0.1], [1, 0, 0], [1, 0, 1])
        assert pred.canonical_rows() == [("d0", [0.5, 0.4], [1, 0]), ("d1", [0.1, 0.2], [0, 1])]
        assert pred.fold_of == {"d0": 0, "d1": 1}

    def test_failed_add_documents_writes_nothing(self):
        pred = PredictionSet(["a", "b"])
        pred.add_many(["d0"], [0], [0.5], [1], [0])
        rows, bits = [[0.1, 0.2], [0.3, 0.4]], [[0, 1], [1, 0]]
        for doc_ids, probs, truth, message in [
            (["d1", "d2"], [[0.1, 0.2], [0.3, 1.5]], bits, "probability 1.5 outside [0, 1] for doc 'd2'"),
            (["d1", "d2"], rows, [[0, 1], [2, 0]], "true bit must be 0 or 1, got 2"),
            (["d1", "d1"], rows, bits, "duplicate prediction for doc 'd1', label index 0"),
            (["d1", "d0"], rows, bits, "duplicate prediction for doc 'd0', label index 0"),
        ]:
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                pred.add_documents(doc_ids, probs, truth, [1, 1])
            assert pred.doc_ids == ["d0"] and pred.fold_of == {"d0": 0} and len(pred) == 1
        pred.add_documents(["d2", "d1"], rows, bits, [-3, 2])
        pred.add_many(["d0"], [1], [0.6], [0], [0])
        assert pred.canonical_rows() == [
            ("d0", [0.5, 0.6], [1, 0]), ("d1", [0.3, 0.4], [1, 0]), ("d2", [0.1, 0.2], [0, 1]),
        ]
        assert pred.doc_ids == ["d0", "d2", "d1"] and pred.fold_of == {"d0": 0, "d2": -3, "d1": 2}

    def test_incomplete_detected(self):
        pred = PredictionSet(["a", "b"])
        pred.add_many(["d"], [0], [0.5], [1], [0])
        with pytest.raises(DataError, match="missing"):
            pred.validate_complete()


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        pred = sample_set()
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path, meta={"version": "x"})
        again = read_predictions(path)
        assert again.labels == pred.labels
        assert again.canonical_rows() == pred.canonical_rows()
        assert again.fold_of == pred.fold_of

    def test_report_equal_after_round_trip(self, tmp_path):
        pred = sample_set()
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        again = read_predictions(path)
        assert render_report(full_report(again)) == render_report(full_report(pred))

    def test_rewrite_is_byte_identical(self, tmp_path):
        pred = sample_set()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_predictions(pred, p1, meta={"k": 1})
        write_predictions(pred, p2, meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()


class TestExternalFiles:
    def test_headerless_file_accepted(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        rows = [
            {"doc_id": "x", "label": "zed", "prob": 0.75, "true": 1, "fold": 2},
            {"doc_id": "x", "label": "ay", "prob": 0.25, "true": 0, "fold": 2},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        pred = read_predictions(path)
        # without a header, labels are sorted by name
        assert pred.labels == ("ay", "zed")
        assert len(pred) == 2

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="line 1"):
            read_predictions(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "x", "label": "a", "prob": 0.5}\n', encoding="utf-8")
        with pytest.raises(DataError, match="true"):
            read_predictions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            read_predictions(path)

    @pytest.mark.parametrize(
        "field, value",
        [("true", 0.7), ("true", 1.9), ("true", float("nan")), ("fold", 1.5), ("fold", float("inf"))],
    )
    def test_non_integral_bit_or_fold_rejected(self, tmp_path, field, value):
        # int() would silently truncate these instead
        good = {"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(good) + "\n" + json.dumps({**good, "doc_id": "y", field: value}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=f"line 1: {field} must be an integer"):
            read_predictions(path)

    @pytest.mark.parametrize("field", ["prob", "true", "fold"])
    @pytest.mark.parametrize("value", ["0.5", "1", True, False, None, [1], {"v": 1}])
    def test_non_number_rejected_naming_field(self, tmp_path, field, value):
        # float() and int() would coerce "0.5", "1" and booleans instead
        good = {"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(good) + "\n" + json.dumps({**good, "doc_id": "y", field: value}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=rf"^line 1: {field} must be a number, got "):
            read_predictions(path)

    @pytest.mark.parametrize("field", ["prob", "true", "fold"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, field):
        good = {"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(good) + "\n" + json.dumps({**good, "doc_id": "y", field: 10**400}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=f"^line 1: {field} must be a number within the float range$"):
            read_predictions(path)

    @pytest.mark.parametrize("true_bit, fold", [(1, 2), (1.0, 2.0)])
    def test_integral_bit_and_fold_accepted(self, tmp_path, true_bit, fold):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            json.dumps({"doc_id": "x", "label": "a", "prob": 0.5, "true": true_bit, "fold": fold}) + "\n",
            encoding="utf-8",
        )
        pred = read_predictions(path)
        assert pred.canonical_rows() == [("x", [0.5], [1])]
        assert pred.fold_of == {"x": 2}


def collect_then_add(path):
    """The reader that preceded streaming: keep every record, fix the labels
    from the last header (else the sorted record labels), then add."""
    records, labels = [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            if "_meta" in obj:
                labels = obj["_meta"]["labels"]
            else:
                records.append(obj)
    labels = labels if labels is not None else sorted({obj["label"] for obj in records})
    pred = PredictionSet(labels)
    for obj in records:
        pred.add_many([obj["doc_id"]], [labels.index(obj["label"])], [obj["prob"]], [obj["true"]], [obj["fold"]])
    return pred


def record_lines(seed):
    rng = np.random.default_rng(seed)
    lines = []
    for doc in ["9", "10", "d2", "d10", "x"]:
        fold = int(rng.integers(0, 3))
        for name in ("b", "a", "c"):
            prob, true_bit = float(np.round(rng.random(), 3)), int(rng.integers(0, 2))
            lines.append(json.dumps({"doc_id": doc, "label": name, "prob": prob, "true": true_bit, "fold": fold}))
    rng.shuffle(lines)
    return lines


def header(labels):
    return json.dumps({"_meta": {"format": "mldistill-predictions/1", "labels": list(labels)}})


def record_parse_calls(monkeypatch):
    """The list of lines ``predictions._parse`` is called on from now on."""
    calls = []
    real_parse = predictions._parse
    monkeypatch.setattr(predictions, "_parse", lambda line: calls.append(line) or real_parse(line))
    return calls


class TestStreamingRead:
    @pytest.mark.parametrize(
        "layout",
        [
            "header_first",
            "headerless",
            "header_after_records",
            "second_header_adds",
            "second_header_reorders",
            "blank_lines",
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_loads_same_set_as_collect_then_add(self, tmp_path, layout, seed):
        lines = record_lines(seed)
        if layout == "header_first":
            lines.insert(0, header(["c", "a", "b"]))
        elif layout == "header_after_records":
            lines.insert(7, header(["c", "b", "a"]))
        elif layout == "second_header_adds":
            # the first list lacks "c", the last one wins
            lines[:0] = [header(["a", "b"]), lines.pop(), header(["b", "a"])]
            lines.insert(9, header(["c", "b", "a"]))
        elif layout == "second_header_reorders":
            lines.insert(0, header(["a", "b", "c"]))
            lines.insert(9, header(["c", "a", "b"]))
        elif layout == "blank_lines":
            lines[:0] = [header(["a", "b", "c"]), ""]
            lines.insert(5, "   ")
        path = tmp_path / "pred.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, expected = read_predictions(path), collect_then_add(path)
        assert got.labels == expected.labels
        assert got.canonical_rows() == expected.canonical_rows()
        assert got.fold_of == expected.fold_of
        assert got.doc_ids == expected.doc_ids

    def test_header_first_parses_each_line_once(self, tmp_path, monkeypatch):
        pred = sample_set()
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        calls = record_parse_calls(monkeypatch)
        again = read_predictions(path)
        assert again.canonical_rows() == pred.canonical_rows()
        assert calls == path.read_text(encoding="utf-8").splitlines(keepends=True)

    @pytest.mark.parametrize("with_header", [True, False])
    def test_first_faulty_line_is_reported(self, tmp_path, with_header):
        good = {"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}
        lines = [
            json.dumps(good),
            json.dumps({**good, "doc_id": "y", "prob": 1.5}),
            json.dumps({**good, "doc_id": "z"}),
            json.dumps({**good, "doc_id": "w"}),
            "not json",
        ]
        if with_header:
            lines[0] = header(["a"])
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"^line 1: probability 1.5 outside \[0, 1\]"):
            read_predictions(path)

    @pytest.mark.parametrize(
        "later",
        [
            "not json",
            "[1]",
            '{"doc_id": "v", "label": "a", "prob": 0.5}',
            '{"doc_id": "v", "label": "zz", "prob": 0.5, "true": 1, "fold": 0}',
            pytest.param('{"doc_id": "v", "label": "a", "prob": 0.5, "true": 1, "fold": 1' + "0" * 5000 + "}",
                         id="integer_past_digit_limit"),
        ],
    )
    @pytest.mark.parametrize("with_header", [True, False])
    def test_pending_fault_precedes_later_line_fault(self, tmp_path, with_header, later):
        # The faulty record waits in a chunk when the later line is read.
        good = {"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}
        lines = [header(["a"]), json.dumps({**good, "true": 2}), json.dumps({**good, "doc_id": "y"}), later]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[0 if with_header else 1 :]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"^line {int(with_header)}: true bit must be 0 or 1, got 2$"):
            read_predictions(path)


def _reference_integral(value, field):
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _reference_final_labels(fh):
    labels, names = None, set()
    for line in fh:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "_meta" in obj:
            header = predictions._header_labels(obj)
            labels = labels if header is None else header
        elif isinstance(obj, dict) and "label" in obj:
            names.add(str(obj["label"]))
    return sorted(names) if labels is None else labels


def _reference_load(lines, final):
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
            header = predictions._header_labels(obj)
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
            true_bit, fold = _reference_integral(obj["true"], "true"), _reference_integral(obj["fold"], "fold")
            pred.add_many([str(obj["doc_id"])], [label_index[name]], [float(obj["prob"])], [true_bit], [fold])
        except (DataError, ValueError, TypeError) as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    if pred is None:
        raise DataError("prediction file contains no records")
    pred.validate_complete()
    return pred


def streamed_reference(path):
    """The reader that preceded chunked adds: each line is parsed by
    json.loads, checked and added on its own, so the first faulty line
    raises; the same one or two passes as read_predictions."""
    with open(path, encoding="utf-8") as fh:
        pred = _reference_load(enumerate(fh), None)
        if pred is None:
            fh.seek(0)
            labels = _reference_final_labels(fh)
            fh.seek(0)
            pred = _reference_load(enumerate(fh), labels)
    return pred


def outcome(read, path):
    """('ok', labels, rows, doc_ids, fold_of) or ('error', message)."""
    try:
        pred = read(path)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", pred.labels, pred.canonical_rows(), pred.doc_ids, pred.fold_of)


CHUNK = 8  # records per chunk in the fault matrix: 36 records span 5 chunks


def fault_records(seed):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(12):
        fold = int(rng.integers(0, 3))
        for name in ("b", "a", "c"):
            prob, true_bit = float(np.round(rng.random(), 3)), int(rng.integers(0, 2))
            records.append({"doc_id": f"d{i}", "label": name, "prob": prob, "true": true_bit, "fold": fold})
    rng.shuffle(records)
    return records


def inject(fault, records, p):
    """The record lines with record p made faulty (unchanged for None)."""
    lines = [json.dumps(r) for r in records]
    rec = dict(records[p])
    if fault == "malformed":
        lines[p] = lines[p][:-9]
    elif fault == "leading_space":
        lines[p] = " " + lines[p]
    elif fault == "trailing_data":
        lines[p] += " 1"
    elif fault == "bom":
        lines[p] = "\ufeff" + lines[p]
    else:
        if fault == "nan":
            rec["prob"] = float("nan")
        elif fault == "missing_field":
            del rec["fold"]
        elif fault == "unknown_label":
            rec["label"] = "zz"
        elif fault == "prob_range":
            rec["prob"] = 1.5
        elif fault == "non_integral_bit":
            rec["true"] = 0.5
        elif fault == "fold_conflict":
            rec["fold"] += 1
        elif fault == "repeat_in_chunk":
            rec = records[p + 1 if p % CHUNK == 0 else p - 1]
        elif fault == "repeat_across_chunks":
            rec = records[p - CHUNK]
        lines[p] = json.dumps(rec)
    return lines


def _redump(line, change):
    """``line`` with its record passed through ``change`` and dumped again
    (unchanged if the line is not a JSON object)."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return line
    return json.dumps(change(rec)) if isinstance(rec, dict) else line


# Record layouts other than write_predictions', each given to records 19 and
# 20 (the fault matrix's faults sit at records 8, 15 and 16).
OTHER_LAYOUTS = [
    "two_records_on_one_line",
    "record_split_over_two_lines",
    "header_mid_block",
    "reordered_keys",
    "extra_key",
    "escaped_id",
    "float_true",
]


def other_layout(layout, lines):
    a, b = lines[19:21]
    replacement = {
        "two_records_on_one_line": [a + " " + b],
        "record_split_over_two_lines": [*a.split(", ", 1), b],
        "header_mid_block": [a, header(["c", "a", "b"]), b],
        "reordered_keys": [_redump(a, lambda r: dict(reversed(r.items()))), b],
        "extra_key": [_redump(a, lambda r: {**r, "note": 1}), b],
        "escaped_id": [a.replace('"doc_id": "d', '"doc_id": "\\u0064', 1), b],
        "float_true": [_redump(a, lambda r: {**r, "true": float(r.get("true", 0))}), b],
    }[layout]
    return [header(["c", "a", "b"]), *lines[:19], *replacement, *lines[21:]]


def lay_out(layout, lines):
    if layout in OTHER_LAYOUTS:
        return other_layout(layout, lines)
    if layout == "header_first" or layout == "no_final_newline":
        return [header(["c", "a", "b"]), *lines]
    if layout == "late_header":
        return [*lines[:12], header(["c", "b", "a"]), *lines[12:]]
    if layout == "header_replaces_list":
        return [header(["a", "b", "c"]), *lines[:13], header(["b", "c", "a"]), *lines[13:]]
    if layout == "blank_lines":
        return [header(["a", "b", "c"]), *lines[:5], "", *lines[5:17], "   ", *lines[17:]]
    return lines


FAULTS = [
    None,
    "malformed",
    "leading_space",
    "trailing_data",
    "bom",
    "nan",
    "missing_field",
    "unknown_label",
    "prob_range",
    "non_integral_bit",
    "fold_conflict",
    "repeat_in_chunk",
    "repeat_across_chunks",
]


class TestChunkedRead:
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize(
        "layout",
        ["header_first", "headerless", "late_header", "header_replaces_list", "blank_lines", "no_final_newline",
         *OTHER_LAYOUTS],
    )
    def test_same_outcome_as_streamed_reference(self, tmp_path, monkeypatch, layout, fault):
        monkeypatch.setattr(predictions, "CHUNK_RECORDS", CHUNK)
        path = tmp_path / "pred.jsonl"
        end = "" if layout == "no_final_newline" else "\n"
        # the first record of a chunk, its last record and the record after it
        for p in ([0] if fault is None else [CHUNK, 2 * CHUNK - 1, 2 * CHUNK]):
            for seed in range(2):
                lines = lay_out(layout, inject(fault, fault_records(seed), p))
                path.write_text("\n".join(lines) + end, encoding="utf-8")
                assert outcome(read_predictions, path) == outcome(streamed_reference, path), (p, seed)

    def test_many_chunks_at_full_size(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 2 * predictions.CHUNK_RECORDS // 3 + 7
        doc_ids, folds = [f"doc{i}" for i in range(n)], [i % 4 for i in range(n)]
        pred = PredictionSet(["b", "a", "c"])
        for j in range(3):
            pred.add_many(doc_ids, [j] * n, np.round(rng.random(n), 3).tolist(), rng.integers(0, 2, n).tolist(), folds)
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        assert outcome(read_predictions, path) == outcome(streamed_reference, path)


GROUP_CHUNK = 9  # lines a block in the grouped matrix: 3 documents of 3 labels

# Faults of a file's document grouping, and values that read otherwise
# than as written, each given to a whole document.
GROUP_FAULTS = [
    "missing_label_line",
    "labels_out_of_order",
    "fold_changes_in_document",
    "document_repeated_in_block",
    "document_repeated_across_blocks",
    "true_minus_zero",
    "fold_beyond_float_precision",
]


def grouped_records(seed, labels):
    """12 documents' records in the order write_predictions writes them."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(12):
        fold = int(rng.integers(0, 3))
        for name in labels:
            prob, true_bit = float(np.round(rng.random(), 3)), int(rng.integers(0, 2))
            records.append({"doc_id": f"d{i}", "label": name, "prob": prob, "true": true_bit, "fold": fold})
    return records


def inject_into_document(fault, records, d, num_labels):
    """The record lines with document d made faulty: a FAULTS entry goes to
    its first line."""
    first = d * num_labels
    if fault not in GROUP_FAULTS:
        return inject(fault, records, first)
    lines = [json.dumps(r) for r in records]
    doc = slice(first, first + num_labels)
    if fault == "missing_label_line":
        del lines[first + 1]
    elif fault == "labels_out_of_order":
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    elif fault == "fold_changes_in_document":
        last = records[first + num_labels - 1]
        lines[first + num_labels - 1] = json.dumps({**last, "fold": last["fold"] + 1})
    elif fault == "document_repeated_in_block":
        other = first + (num_labels if d % 3 == 0 else -num_labels)  # blocks start at documents 3, 6 and 9
        lines[doc] = lines[other : other + num_labels]
    elif fault == "document_repeated_across_blocks":
        lines[doc] = lines[first - 3 * num_labels : first - 2 * num_labels]
    elif fault == "true_minus_zero":
        lines[first + 1] = re.sub(r'"true": [01]', '"true": -0', lines[first + 1])
    elif fault == "fold_beyond_float_precision":  # kept as the float nearest to it
        lines[doc] = [json.dumps({**r, "fold": 12345678901234567}) for r in records[doc]]
    return lines


class TestDocumentLane:
    @pytest.mark.parametrize("fault", [*FAULTS, *GROUP_FAULTS])
    @pytest.mark.parametrize("layout", ["header_first", "headerless", "header_then_blank_line"])
    def test_same_outcome_as_streamed_reference(self, tmp_path, monkeypatch, layout, fault):
        # Each layout reaches a document boundary at document 3, so blocks of
        # whole documents start at documents 3, 6 and 9.
        monkeypatch.setattr(predictions, "CHUNK_RECORDS", GROUP_CHUNK)
        labels = ("a", "b", "c") if layout == "headerless" else ("c", "a", "b")
        path = tmp_path / "pred.jsonl"
        # a block's first document, its last document and the document after it
        for d in ([0] if fault is None else [6, 8, 9]):
            for seed in range(2):
                lines = inject_into_document(fault, grouped_records(seed, labels), d, len(labels))
                if layout == "header_first":
                    lines.insert(0, header(labels))
                elif layout == "header_then_blank_line":
                    lines[:0] = [header(labels), ""]
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                assert outcome(read_predictions, path) == outcome(streamed_reference, path), (d, seed)

    @pytest.mark.parametrize("layout, aligning", [("header_first", 1), ("header_then_blank_line", 2)])
    def test_lines_after_the_first_block_align_to_a_document(self, tmp_path, monkeypatch, layout, aligning):
        monkeypatch.setattr(predictions, "CHUNK_RECORDS", GROUP_CHUNK)
        lines = [header(["c", "a", "b"]), *(json.dumps(r) for r in grouped_records(0, ("c", "a", "b")))]
        if layout == "header_then_blank_line":
            lines.insert(1, "")
        path = tmp_path / "pred.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls = record_parse_calls(monkeypatch)
        assert outcome(read_predictions, path) == outcome(streamed_reference, path)
        assert calls == [line + "\n" for line in lines[: GROUP_CHUNK + aligning]]

    def test_perfbench_shape_parses_only_the_first_block_and_its_alignment(self, tmp_path, monkeypatch):
        # A header, then 10 labels a document: the first block holds the
        # header and 409.5 documents, so 5 lines align the next block.
        n = 3 * predictions.CHUNK_RECORDS // 10 + 17
        rng = np.random.default_rng(14)
        pred = PredictionSet([f"topic_{j:02d}" for j in range(10)])
        doc_ids = [str(i) for i in range(n)]
        for j in range(10):
            pred.add_many(doc_ids, [j] * n, np.round(rng.random(n), 3).tolist(), rng.integers(0, 2, n).tolist(),
                          [i % 5 for i in range(n)])
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        calls = record_parse_calls(monkeypatch)
        again = read_predictions(path)
        assert calls == path.read_text(encoding="utf-8").splitlines(keepends=True)[: predictions.CHUNK_RECORDS + 5]
        assert again.canonical_rows() == pred.canonical_rows()
        assert again.fold_of == pred.fold_of and again.doc_ids == pred.doc_ids

    def test_labels_that_json_escapes_take_the_lane(self, tmp_path, monkeypatch):
        # Each label is matched as the text json.dumps writes for it.
        n = predictions.CHUNK_RECORDS // 4 + 5
        pred = PredictionSet(['q"uote', "back\\slash", "é", "{1}+."])
        doc_ids = [f"d{i}" for i in range(n)]
        for j in range(4):
            pred.add_many(doc_ids, [j] * n, [j / 4] * n, [j % 2] * n, [7] * n)
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        calls = record_parse_calls(monkeypatch)
        again = read_predictions(path)
        # the header and 4,095 records, then 1 line to a document boundary
        assert calls == path.read_text(encoding="utf-8").splitlines(keepends=True)[: predictions.CHUNK_RECORDS + 1]
        assert again.labels == pred.labels and again.canonical_rows() == pred.canonical_rows()

    @pytest.mark.parametrize(
        "num_labels, num_docs, built",
        [
            (predictions._LANE_MAX_LABELS, 20, True),
            (predictions._LANE_MAX_LABELS + 1, 20, False),
            (3, 20, False),  # one block, which holds the header
        ],
    )
    def test_pattern_built_once_a_block_reaches_the_lane(self, tmp_path, monkeypatch, num_labels, num_docs, built):
        pred = PredictionSet([f"label {j}" for j in range(num_labels)])
        doc_ids = [f"d{i}" for i in range(num_docs)]
        for j in range(num_labels):
            pred.add_many(doc_ids, [j] * num_docs, [0.5] * num_docs, [j % 2] * num_docs, [0] * num_docs)
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        patterns, build = [], predictions._document_pattern
        monkeypatch.setattr(predictions, "_document_pattern", lambda names: patterns.append(names) or build(names))
        again = read_predictions(path)
        assert patterns == ([pred.labels] if built else [])
        assert again.canonical_rows() == pred.canonical_rows() and again.doc_ids == pred.doc_ids

    def test_repeated_header_label_reads_line_by_line(self, tmp_path, monkeypatch):
        # Both records of a repeated label fill its last column, so the
        # file fails as a duplicate, as one record at a time would.  The
        # first block and its alignment hold one record a document, so the
        # duplicates first come in a block of whole documents.
        monkeypatch.setattr(predictions, "CHUNK_RECORDS", GROUP_CHUNK)
        labels = ("c", "a", "c")
        first = [{"doc_id": f"x{i}", "label": "a", "prob": 0.5, "true": 1, "fold": 0} for i in range(GROUP_CHUNK)]
        lines = [header(labels), *(json.dumps(r) for r in [*first, *grouped_records(0, labels)])]
        path = tmp_path / "pred.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = outcome(streamed_reference, path)
        assert expected[0] == "error" and outcome(read_predictions, path) == expected


class TestArrayStorage:
    def test_grows_past_initial_capacity(self):
        pred = PredictionSet(["a", "b"])
        for i in range(100):
            pred.add_many([f"d{i}"], [1], [i / 100], [i % 2], [i % 3])
            pred.add_many([f"d{i}"], [0], [1 - i / 100], [1 - i % 2], [i % 3])
        assert len(pred) == 200 and pred.num_docs == 100
        assert pred.canonical_rows()[0] == ("d0", [1.0, 0.0], [1, 0])
        with pytest.raises(DataError, match="duplicate"):
            pred.add_many(["d57"], [1], [0.5], [1], [57 % 3])

    def test_first_missing_cell_reported(self):
        pred = PredictionSet(["a", "b", "c"])
        pred.add_many(["d1"], [0], [0.5], [1], [0])
        pred.add_many(["d0"], [2], [0.5], [1], [0])
        pred.add_many(["d1"], [2], [0.5], [1], [0])
        with pytest.raises(DataError, match="missing prediction for doc 'd1', label 'b'"):
            pred.validate_complete()
        assert len(pred) == 3


# Text the fuzz splices into record lines: JSON syntax, whitespace, an
# escape, a digit that int() reads and JSON does not, an undecoded byte,
# and numbers at the edges of the record layout.
FUZZ_PIECES = [
    *'{}[]:,"\\ .-+eE0189', "\t", "\n", "\x00", "\x1f", "\x7f", "é", "٣", "\udce9", "\\u0041", "\\n",
    "1e400", "-1e400", "-0", "-0.0", "0.0", "1.", ".5", "01", "1E+2", "5e-324", "NaN", "Infinity", "true", "null",
    "123456789012345678", "1234567890123456789", "-123456789012345678",
]


def fuzz_line(rng, line):
    """``line`` with one to three pieces inserted, replacing or deleting
    text at random places."""
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(line) + 1))
        j = min(len(line), i + int(rng.integers(0, 4)))
        piece = "" if rng.random() < 0.2 else FUZZ_PIECES[int(rng.integers(0, len(FUZZ_PIECES)))]
        line = line[:i] + piece + line[j:]
    return line


# A record line's values, each in group 1.
JSON_VALUE = re.compile(r'": ("[^"]*"|[^,}]*)')


def typed_bits(value):
    """A value's type and exact content: -0.0 differs from 0.0."""
    return (type(value), struct.pack("<d", value) if isinstance(value, float) else value)


class TestFastLane:
    def test_accepted_lines_are_json_records_of_the_captured_values(self):
        rng = np.random.default_rng(1301)
        labels = ("a", "label two", "é")
        pattern = predictions._document_pattern(labels)
        documents = [
            ("d1", [0.5, 1e-05, 0.25], [1, 0, 1], 0), ("", [0.0, 1.0, 0.75], [0, 0, 1], 12),
            ("x y", [0.123456789012345, 0.5, 0.0], [1, 1, 0], -3), ("10", [1.0, 0.0, 0.5], [0, 1, 1], 123456789),
            ("d", [0.3, 0.7, 2e-3], [1, 0, 0], 4),
        ]
        # Blocks of two documents, so that the id and fold captured on a
        # document's first line are matched again on its other lines.
        canonical = [
            [
                json.dumps({"doc_id": doc, "label": name, "prob": prob, "true": bit, "fold": fold}) + "\n"
                for doc, probs, bits, fold in pair
                for name, prob, bit in zip(labels, probs, bits)
            ]
            for pair in zip(documents, documents[1:] + documents[:1])
        ]
        mutants_accepted = 0
        for n in range(30_000):
            lines = list(canonical[n % len(canonical)])
            k = int(rng.integers(0, len(lines)))
            if n % 2:  # within one value, where most accepted mutants lie
                spans = [match.span(1) for match in JSON_VALUE.finditer(lines[k])]
                i, j = spans[int(rng.integers(0, len(spans)))]
                lines[k] = lines[k][:i] + fuzz_line(rng, lines[k][i:j]) + lines[k][j:]
            else:
                lines[k] = fuzz_line(rng, lines[k])
            text = "".join(lines)
            block = list(io.StringIO(text))  # a reader's lines end at each newline
            columns = predictions._document_columns(pattern, block, len(labels))
            if columns is None:
                continue
            mutants_accepted += block not in canonical
            doc_ids, probs, truth, folds = columns
            assert len(block) == len(doc_ids) * len(labels)
            for line, (i, j) in zip(block, np.ndindex(probs.shape)):
                obj = json.loads(line)
                assert list(obj) == ["doc_id", "label", "prob", "true", "fold"], line
                expected = [doc_ids[i], labels[j], float(probs[i, j]), int(truth[i, j]), folds[i]]
                assert list(map(typed_bits, obj.values())) == list(map(typed_bits, expected)), line
        assert mutants_accepted > 300

    def test_write_predictions_output_takes_the_fast_lane(self, tmp_path, monkeypatch):
        n = 2 * predictions.CHUNK_RECORDS // 3 + 100
        rng = np.random.default_rng(13)
        pred = PredictionSet(["b", "a", "c"])
        doc_ids = [f"doc{i}" for i in range(n)]
        probs = rng.random(n).tolist()
        probs[:4] = [0.0, 1.0, 1e-05, 5e-324]
        for j in range(3):
            pred.add_many(doc_ids, [j] * n, probs, rng.integers(0, 2, n).tolist(), [i % 5 for i in range(n)])
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        calls = record_parse_calls(monkeypatch)
        again = read_predictions(path)
        assert calls == path.read_text(encoding="utf-8").splitlines(keepends=True)[: predictions.CHUNK_RECORDS]
        assert again.canonical_rows() == pred.canonical_rows()
        assert again.fold_of == pred.fold_of and again.doc_ids == pred.doc_ids

    def test_escaped_doc_id_sends_its_block_to_per_line_lane(self, tmp_path, monkeypatch):
        n = 2 * predictions.CHUNK_RECORDS
        pred = PredictionSet(["a"])
        doc_ids = [f"d{i}" for i in range(n)]
        doc_ids[n // 2 + 100] = "dé\U0001f600"  # mid-way through the second block
        pred.add_many(doc_ids, [0] * n, np.random.default_rng(3).random(n).tolist(), [i % 2 for i in range(n)],
                      [i % 3 for i in range(n)])
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        calls = record_parse_calls(monkeypatch)
        again = read_predictions(path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # The first block holds the header; the escaped line's whole block
        # is read line by line, and every other block takes the fast lane.
        size = predictions.CHUNK_RECORDS
        escaped = [i for i, line in enumerate(lines) if "\\u00e9" in line]
        assert len(escaped) == 1 and escaped[0] >= size
        block = escaped[0] // size * size
        assert calls == [*lines[:size], *lines[block : block + size]]
        assert again.canonical_rows() == pred.canonical_rows() and again.doc_ids == pred.doc_ids

    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_undecoded_byte_names_its_line(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(predictions, "CHUNK_RECORDS", CHUNK)
        lines = [header(["c", "a", "b"]).encode(), *(json.dumps(r).encode() for r in fault_records(0))]
        bad = block * CHUNK + 3
        lines[bad] = lines[bad].replace(b'"doc_id": "d', b'"doc_id": "\xe9', 1)
        path = tmp_path / "pred.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=rf"^line {bad}: not valid UTF-8 \(byte 0xe9\)$"):
            read_predictions(path)

    def test_undecoded_line_adds_no_label(self, tmp_path):
        # Skipped like a malformed line when a headerless file's labels are
        # gathered, so it cannot shift the label index an earlier fault names.
        good = b'{"doc_id": "x", "label": "b", "prob": 0.5, "true": 1, "fold": 0}\n'
        path = tmp_path / "pred.jsonl"
        path.write_bytes(good + good + b'{"doc_id": "y", "label": "a\xe9", "prob": 0.5, "true": 1, "fold": 0}\n')
        with pytest.raises(DataError, match=r"^line 1: duplicate prediction for doc 'x', label index 0$"):
            read_predictions(path)

    def test_other_line_in_block_with_empty_label(self, tmp_path, monkeypatch):
        # A line of another layout captures no label, which must not pass
        # for the label "".
        monkeypatch.setattr(predictions, "CHUNK_RECORDS", CHUNK)
        n = 2 * CHUNK
        doc_ids = [f"d{i}" for i in range(n)]
        doc_ids[n - 3] = "dé"
        pred = PredictionSet(["", "a"])
        for j in range(2):
            pred.add_many(doc_ids, [j] * n, [0.25] * n, [1] * n, [0] * n)
        path = tmp_path / "pred.jsonl"
        write_predictions(pred, path)
        again = read_predictions(path)
        assert again.canonical_rows() == pred.canonical_rows() and again.doc_ids == pred.doc_ids
