"""Metrics against a naive brute-force oracle, exactly (bit-equal)."""

import numpy as np
import pytest

from mldistill.errors import DataError
from mldistill.metrics import (
    ConfusionCounts,
    LabelMetrics,
    MetricsReport,
    example_f1,
    full_report,
    prf1,
)
from mldistill.predictions import PredictionSet

from conftest import canonical_rows


def build_prediction_set(probs, truth, labels=None, doc_ids=None, fold=0):
    """probs/truth: (n_docs, n_labels) nested lists."""
    n, width = len(probs), len(probs[0])
    labels = labels or [f"L{j}" for j in range(width)]
    doc_ids = doc_ids or [f"d{i}" for i in range(n)]
    pred = PredictionSet(labels)
    pred.add_documents(doc_ids, probs, truth, [fold] * n)
    return pred


def auc_of(scores):
    """The report's AUC for one label whose (probability, true bit) pairs are ``scores``."""
    pred = build_prediction_set([[s] for s, _ in scores], [[bit] for _, bit in scores])
    return full_report(pred).per_label["L0"].auc


# ---------------------------------------------------------------------------
# Naive oracle: recompute everything from the raw matrices with loops.
# Iteration order matches the canonical order (docs sorted by id, labels
# in list order) so equality can be exact.
# ---------------------------------------------------------------------------


def oracle_metrics(probs, truth, doc_ids):
    order = sorted(range(len(doc_ids)), key=lambda i: doc_ids[i])
    n_labels = len(probs[0])

    def decide(p):
        return 1 if p >= 0.5 else 0

    total = 0.0
    for i in order:
        y_set = {j for j in range(n_labels) if truth[i][j] == 1}
        p_set = {j for j in range(n_labels) if decide(probs[i][j]) == 1}
        if not y_set and not p_set:
            total += 1.0
        else:
            total += 2.0 * len(y_set & p_set) / (len(y_set) + len(p_set))
    ex_f1 = total / len(order)

    per_label = []
    for j in range(n_labels):
        tp = fp = fn = tn = 0
        for i in order:
            yhat, y = decide(probs[i][j]), truth[i][j]
            if yhat and y:
                tp += 1
            elif yhat and not y:
                fp += 1
            elif not yhat and y:
                fn += 1
            else:
                tn += 1
        per_label.append((tp, fp, fn, tn))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    def f1_of(tp, fp, fn):
        precision = ratio(tp, tp + fp)
        recall = ratio(tp, tp + fn)
        return ratio(2.0 * precision * recall, precision + recall)

    tp = sum(c[0] for c in per_label)
    fp = sum(c[1] for c in per_label)
    fn = sum(c[2] for c in per_label)
    micro_p = ratio(tp, tp + fp)
    micro_r = ratio(tp, tp + fn)
    mic = ratio(2.0 * micro_p * micro_r, micro_p + micro_r)

    mac_total = 0.0
    for c in per_label:
        mac_total += f1_of(c[0], c[1], c[2])
    mac = mac_total / n_labels

    supports = [c[0] + c[2] for c in per_label]
    denom = float(sum(supports))
    weighted = 0.0
    if denom > 0:
        for c, support in zip(per_label, supports):
            weighted += (support / denom) * f1_of(c[0], c[1], c[2])

    aucs = []
    for j in range(n_labels):
        pos = [probs[i][j] for i in order if truth[i][j] == 1]
        neg = [probs[i][j] for i in order if truth[i][j] == 0]
        if not pos or not neg:
            aucs.append(None)
            continue
        wins = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    wins += 1.0
                elif p == q:
                    wins += 0.5
        aucs.append(wins / (len(pos) * len(neg)))

    return ex_f1, mic, mac, weighted, aucs


class TestPrf1:
    def test_perfect(self):
        assert prf1(ConfusionCounts(2, 0, 0, 5)) == (1.0, 1.0, 1.0)

    def test_direct_evaluation(self):
        precision, recall, f1 = prf1(ConfusionCounts(1, 1, 3, 0))
        assert precision == 0.5
        assert recall == 0.25
        assert f1 == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_over_zero_convention(self):
        assert prf1(ConfusionCounts(0, 0, 0, 4)) == (0.0, 0.0, 0.0)


class TestExampleF1:
    def test_perfect_match(self):
        pred = build_prediction_set([[0.9, 0.1], [0.2, 0.8]], [[1, 0], [0, 1]])
        assert example_f1(pred) == 1.0

    def test_partial_match(self):
        pred = build_prediction_set([[0.9, 0.1]], [[1, 1]])
        assert example_f1(pred) == pytest.approx(2 / 3, abs=1e-15)

    def test_both_empty_counts_one(self):
        pred = build_prediction_set([[0.1, 0.2]], [[0, 0]])
        assert example_f1(pred) == 1.0


class TestLabelBasedF1:
    def test_micro_single_label_equals_label_f1(self):
        pred = build_prediction_set([[0.9], [0.1], [0.7]], [[1], [1], [0]])
        counts = ConfusionCounts(1, 1, 1, 0)
        assert full_report(pred).micro_f1 == prf1(counts)[2]

    def test_micro_pooled_counts(self):
        # label 0: tp=1 fp=0 fn=1; label 1: tp=1 fp=1 fn=0
        probs = [[0.9, 0.9], [0.1, 0.9], [0.1, 0.1]]
        truth = [[1, 1], [1, 0], [0, 0]]
        pred = build_prediction_set(probs, truth)
        assert full_report(pred).micro_f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_macro_mean(self):
        # one perfect label, one always-wrong label
        probs = [[0.9, 0.9], [0.1, 0.9]]
        truth = [[1, 0], [0, 0]]
        pred = build_prediction_set(probs, truth)
        assert full_report(pred).macro_f1 == pytest.approx(0.5)

    def test_weighted_uniform_support_equals_macro(self):
        probs = [[0.9, 0.1], [0.1, 0.9], [0.9, 0.2], [0.3, 0.9]]
        truth = [[1, 0], [0, 1], [0, 1], [1, 0]]
        pred = build_prediction_set(probs, truth)
        report = full_report(pred)
        assert report.weighted_f1 == pytest.approx(report.macro_f1, abs=1e-15)

    def test_weighted_degenerate_support(self):
        probs = [[0.9, 0.1], [0.9, 0.4]]
        truth = [[1, 0], [0, 0]]
        pred = build_prediction_set(probs, truth)
        counts = ConfusionCounts(1, 1, 0, 0)
        assert full_report(pred).weighted_f1 == pytest.approx(prf1(counts)[2])

    def test_weighted_arithmetic(self):
        # supports 3 and 1, F1 0.8 and 0.4 -> 0.75*0.8 + 0.25*0.4 = 0.7
        # construct: label0 tp=2 fn=1 fp=0 -> p=1, r=2/3, f1=0.8
        #            label1 tp=1 fn=0 fp=4 -> p=0.2, r=1, f1=1/3... use direct check instead
        probs = [[0.9, 0.9], [0.9, 0.1], [0.1, 0.1], [0.1, 0.9], [0.2, 0.9], [0.1, 0.9], [0.3, 0.9]]
        truth = [[1, 1], [1, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]
        pred = build_prediction_set(probs, truth)
        ex, mic, mac, weighted, _ = oracle_metrics(probs, truth, [f"d{i}" for i in range(7)])
        assert full_report(pred).weighted_f1 == weighted


class TestAuc:
    def test_perfectly_separated(self):
        assert auc_of([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]) == 1.0

    def test_all_ties(self):
        assert auc_of([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]) == 0.5

    def test_pair_enumeration(self):
        assert auc_of([(0.9, 1), (0.8, 0), (0.7, 1), (0.1, 0)]) == 0.75

    def test_single_class_undefined(self):
        assert auc_of([(0.9, 1), (0.5, 1)]) is None
        assert auc_of([(0.9, 0)]) is None

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = [(float(p), int(b)) for p, b in zip(rng.random(40), rng.integers(0, 2, 40))]
        base = auc_of(scores)
        squeezed = [(0.1 + 0.5 * p ** 3, b) for p, b in scores]
        assert auc_of(squeezed) == base


class TestOracleEquality:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            width = int(rng.integers(1, 4))
            probs = [[float(p) for p in rng.random(width)] for _ in range(n)]
            truth = [[int(b) for b in rng.integers(0, 2, width)] for _ in range(n)]
            doc_ids = [f"d{i}" for i in range(n)]
            pred = build_prediction_set(probs, truth, doc_ids=doc_ids)
            ex, mic, mac, weighted, aucs = oracle_metrics(probs, truth, doc_ids)
            report = full_report(pred)
            assert example_f1(pred) == ex
            assert report.example_f1 == ex
            assert report.micro_f1 == mic
            assert report.macro_f1 == mac
            assert report.weighted_f1 == weighted
            assert [m.auc for m in report.per_label.values()] == aucs

    def test_six_by_three_report(self):
        rng = np.random.default_rng(42)
        probs = [[float(p) for p in rng.random(3)] for _ in range(6)]
        truth = [[int(b) for b in rng.integers(0, 2, 3)] for _ in range(6)]
        doc_ids = [f"d{i}" for i in range(6)]
        pred = build_prediction_set(probs, truth, doc_ids=doc_ids)
        report = full_report(pred)
        ex, mic, mac, weighted, aucs = oracle_metrics(probs, truth, doc_ids)
        assert (report.example_f1, report.micro_f1, report.macro_f1, report.weighted_f1) == (ex, mic, mac, weighted)
        assert [report.per_label[f"L{j}"].auc for j in range(3)] == aucs


class TestInvariants:
    def test_macro_between_min_and_max_label_f1(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, width = int(rng.integers(2, 8)), int(rng.integers(2, 4))
            probs = [[float(p) for p in rng.random(width)] for _ in range(n)]
            truth = [[int(b) for b in rng.integers(0, 2, width)] for _ in range(n)]
            pred = build_prediction_set(probs, truth)
            report = full_report(pred)
            label_f1s = [m.f1 for m in report.per_label.values()]
            assert min(label_f1s) - 1e-12 <= report.macro_f1 <= max(label_f1s) + 1e-12
            assert min(label_f1s) - 1e-12 <= report.weighted_f1 <= max(label_f1s) + 1e-12

    def test_record_order_does_not_change_metrics(self):
        rng = np.random.default_rng(11)
        n, width = 6, 3
        probs = [[float(p) for p in rng.random(width)] for _ in range(n)]
        truth = [[int(b) for b in rng.integers(0, 2, width)] for _ in range(n)]
        labels = [f"L{j}" for j in range(width)]
        records = [(f"d{i}", j, probs[i][j], truth[i][j]) for i in range(n) for j in range(width)]

        def build(order):
            pred = PredictionSet(labels)
            doc_ids, label_indices, ps, ts = zip(*order)
            pred.add_many(doc_ids, label_indices, ps, ts, [0] * len(order))
            return pred

        base = build(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        other = build(shuffled)
        assert example_f1(base) == example_f1(other)
        assert full_report(base) == full_report(other)

    def test_micro_invariant_to_label_list_order(self):
        rng = np.random.default_rng(21)
        n = 5
        probs = [[float(p) for p in rng.random(2)] for _ in range(n)]
        truth = [[int(b) for b in rng.integers(0, 2, 2)] for _ in range(n)]
        forward = build_prediction_set(probs, truth, labels=["A", "B"])
        swapped = build_prediction_set(
            [[row[1], row[0]] for row in probs], [[row[1], row[0]] for row in truth], labels=["B", "A"]
        )
        assert full_report(forward).micro_f1 == full_report(swapped).micro_f1
        assert full_report(forward).macro_f1 == full_report(swapped).macro_f1

    def test_counts_sum_to_pairs(self):
        pred = build_prediction_set([[0.9, 0.1], [0.2, 0.8], [0.6, 0.6]], [[1, 0], [0, 1], [1, 1]])
        report = full_report(pred)
        for metrics in report.per_label.values():
            c = metrics.counts
            assert c.tp + c.fp + c.fn + c.tn == 3

    def test_empty_prediction_set_rejected(self):
        pred = PredictionSet(["L0"])
        with pytest.raises(DataError):
            example_f1(pred)


# ---------------------------------------------------------------------------
# The list-based implementation that preceded the array one, kept verbatim in
# its arithmetic: rows sorted by id, counts and sums in plain Python loops.
# The array implementation must give an equal report, bit for bit.
# ---------------------------------------------------------------------------


def list_based_report(doc_ids, probs, truth, labels):
    rows = [(doc_ids[i], probs[i], truth[i]) for i in sorted(range(len(doc_ids)), key=lambda i: doc_ids[i])]

    def predicted(p):
        return 1 if p >= 0.5 else 0

    counts = []
    for j in range(len(labels)):
        tp = fp = fn = tn = 0
        for _, ps, ys in rows:
            yhat, y = predicted(ps[j]), ys[j]
            if yhat == 1 and y == 1:
                tp += 1
            elif yhat == 1 and y == 0:
                fp += 1
            elif yhat == 0 and y == 1:
                fn += 1
            else:
                tn += 1
        counts.append(ConfusionCounts(tp, fp, fn, tn))

    total = 0.0
    for _, ps, ys in rows:
        true_size = sum(ys)
        pred_size = sum(predicted(p) for p in ps)
        inter = sum(1 for p, y in zip(ps, ys) if predicted(p) == 1 and y == 1)
        total += 1.0 if true_size == 0 and pred_size == 0 else 2.0 * inter / (true_size + pred_size)
    example = total / len(rows)

    tp, fp, fn = sum(c.tp for c in counts), sum(c.fp for c in counts), sum(c.fn for c in counts)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    micro = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    macro = 0.0
    for c in counts:
        macro += prf1(c)[2]
    macro = macro / len(counts)

    supports = [c.tp + c.fn for c in counts]
    denominator = float(sum(supports))
    weighted = 0.0
    if denominator > 0:
        for c, support in zip(counts, supports):
            weighted += (support / denominator) * prf1(c)[2]

    def rank_auc(scores):
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
            k = i
            while k + 1 < n and values[order[k + 1]] == values[order[i]]:
                k += 1
            for t in range(i, k + 1):
                ranks[order[t]] = (i + k) / 2.0 + 1.0
            i = k + 1
        rank_sum = 0.0
        for idx, (_, bit) in enumerate(scores):
            if bit == 1:
                rank_sum += ranks[idx]
        return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)

    per_label = {}
    for j, (name, c) in enumerate(zip(labels, counts)):
        p, r, f1 = prf1(c)
        label_auc = rank_auc([(ps[j], ys[j]) for _, ps, ys in rows])
        per_label[name] = LabelMetrics(precision=p, recall=r, f1=f1, auc=label_auc, counts=c)
    return MetricsReport(example_f1=example, micro_f1=micro, macro_f1=macro, weighted_f1=weighted, per_label=per_label)


def grid_instance(rng, n_docs, width):
    """Ids whose text order differs from insertion and numeric order,
    probabilities on a 3-decimal grid (AUC sees ties), a one-class label
    and documents with empty true and predicted sets."""
    doc_ids = ["9", "10", "d2", "d10", "100", "0"] + [str(k) for k in rng.permutation(1000)[: n_docs - 6] + 11]
    rng.shuffle(doc_ids)
    probs = np.round(rng.random((n_docs, width)), 3)
    truth = (rng.random((n_docs, width)) < 0.4).astype(int)
    truth[:, 0] = 0  # one class only: AUC None
    empty = rng.choice(n_docs, size=3, replace=False)
    truth[empty] = 0
    probs[empty] = np.round(rng.random((3, width)) * 0.499, 3)
    return doc_ids, probs.tolist(), truth.tolist()


class TestListBasedEquality:
    @pytest.mark.parametrize("seed", range(6))
    def test_full_report_equals_list_based(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_docs, width = int(rng.integers(6, 400)), int(rng.integers(1, 6))
        doc_ids, probs, truth = grid_instance(rng, n_docs, width)
        labels = [f"L{j}" for j in range(width)]
        pred = build_prediction_set(probs, truth, labels=labels, doc_ids=doc_ids, fold=seed)
        expected = list_based_report(doc_ids, probs, truth, labels)
        report = full_report(pred)
        assert report == expected
        assert report.per_label["L0"].auc is None
        assert example_f1(pred) == expected.example_f1

    def test_canonical_order_is_text_order(self):
        pred = build_prediction_set([[0.1]] * 4, [[0]] * 4, doc_ids=["9", "10", "d2", "d10"])
        assert [row[0] for row in canonical_rows(pred)] == ["10", "9", "d10", "d2"]
