import json

import pytest

from mldistill.errors import DataError
from mldistill.metrics import full_report, render_report
from mldistill.predictions import PredictionSet, read_predictions, write_predictions


def sample_set():
    pred = PredictionSet(["alpha", "beta"])
    values = [
        ("d0", 0, 0.123456789012345, 1, 0),
        ("d0", 1, 0.9, 0, 0),
        ("d1", 0, 1 / 3, 0, 1),
        ("d1", 1, 0.25, 1, 1),
    ]
    for doc, j, p, t, fold in values:
        pred.add(doc, j, p, t, fold)
    return pred


class TestPredictionSet:
    def test_duplicate_rejected(self):
        pred = PredictionSet(["a"])
        pred.add("d", 0, 0.5, 1, 0)
        with pytest.raises(DataError, match="duplicate"):
            pred.add("d", 0, 0.6, 1, 0)

    def test_doc_cannot_span_folds(self):
        pred = PredictionSet(["a", "b"])
        pred.add("d", 0, 0.5, 1, 0)
        with pytest.raises(DataError, match="two folds"):
            pred.add("d", 1, 0.5, 1, 1)

    def test_probability_range_enforced(self):
        pred = PredictionSet(["a"])
        with pytest.raises(DataError):
            pred.add("d", 0, 1.5, 1, 0)

    def test_incomplete_detected(self):
        pred = PredictionSet(["a", "b"])
        pred.add("d", 0, 0.5, 1, 0)
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
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        pred = read_predictions(path)
        # without a header, labels are sorted by name
        assert pred.labels == ("ay", "zed")
        assert len(pred) == 2

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}\nnot json\n')
        with pytest.raises(DataError, match="line 1"):
            read_predictions(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "x", "label": "a", "prob": 0.5}\n')
        with pytest.raises(DataError, match="true"):
            read_predictions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
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
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "doc_id": "y", field: value}) + "\n")
        with pytest.raises(DataError, match=f"line 1: {field} must be an integer"):
            read_predictions(path)

    @pytest.mark.parametrize("true_bit, fold", [(1, 2), (1.0, 2.0)])
    def test_integral_bit_and_fold_accepted(self, tmp_path, true_bit, fold):
        path = tmp_path / "ext.jsonl"
        path.write_text(json.dumps({"doc_id": "x", "label": "a", "prob": 0.5, "true": true_bit, "fold": fold}) + "\n")
        pred = read_predictions(path)
        assert pred.canonical_rows() == [("x", [0.5], [1])]
        assert pred.fold_of == {"x": 2}
