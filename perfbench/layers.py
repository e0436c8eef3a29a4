"""Per-layer metrics from the spans one traced command wrote.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Each metric is documented in README.md, with the
end-to-end metric and workload it should move.
"""

import json
from collections import defaultdict

TRAIN_SPANS = ("distill.train_teacher", "distill.train_student")
FORWARD_SPANS = ("model.forward_batch.teacher", "model.forward_batch.student")
FEATURIZE_SPANS = ("corpus.vectorizer_fit", "corpus.vectorizer_transform")
OUTPUT_SPANS = ("experiment.save_run_outputs", "experiment.write_text_atomic")

# name -> unit, in the order of BENCHMARK.json.
PER_LAYER = {
    "corpus.tokenize_s": "s",
    "corpus.featurize_s": "s",
    "corpus.featurize_calls": "count",
    "splits.kfold_s": "s",
    "model.teacher_forward_calls": "count",
    "model.student_forward_calls": "count",
    "model.forward_s": "s",
    "model.backward_s": "s",
    "model.sgd_step_s": "s",
    "model.sgd_steps": "count",
    "model.init_calls": "count",
    "model.init_s": "s",
    "distill.train_teacher_s": "s",
    "distill.train_student_s": "s",
    "distill.train_self_s": "s",
    "distill.val_predict_s": "s",
    "distill.fold_parallelism": "ratio",
    "predictions.read_s": "s",
    "predictions.write_s": "s",
    "predictions.add_calls": "count",
    "predictions.canonical_rows_calls": "count",
    "predictions.canonical_rows_s": "s",
    "metrics.full_report_s": "s",
    "metrics.report_self_s": "s",
    "hypertune.objective_calls": "count",
    "hypertune.objective_s": "s",
    "hypertune.wait_s": "s",
    "hypertune.nonfinite_ratio": "ratio",
    "experiment.threads_peak": "count",
    "experiment.output_write_s": "s",
    "trace.overhead_s": "s",
}


def _covered(interval, children):
    """Length of the part of interval that the union of children covers."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children if min(e, hi) > max(s, lo))
    total, reach = 0.0, lo
    for s, e in clipped:
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


class Trace:
    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        self.counters = payload["counters"]
        self.missing = payload["missing"]
        self.swarm = payload["swarm"]
        self.threads_peak = payload["threads_peak"]
        self.by_name = defaultdict(list)  # name -> [(span id, start, end, parent id, extra)]
        self.name_of = {}
        self.children = defaultdict(list)  # parent id -> [(start, end)]
        for sid, name, start, end, parent, extra in payload["spans"]:
            self.by_name[name].append((sid, start, end, parent, extra))
            self.name_of[sid] = name
            self.children[parent].append((start, end))

    def count(self, *names):
        return sum(len(self.by_name[n]) for n in names)

    def total(self, *names):
        return sum(end - start for n in names for _, start, end, _, _ in self.by_name[n])

    def self_time(self, *names):
        out = 0.0
        for n in names:
            for sid, start, end, _, _ in self.by_name[n]:
                out += (end - start) - _covered((start, end), self.children[sid])
        return out

    def swarm_wait(self):
        """Summed over iterations: the iteration's span (first objective start
        to last objective end) minus an even split of its objective time
        across the swarm's workers."""
        if not self.swarm:
            return 0.0
        per_iteration = defaultdict(list)
        for _, start, end, _, extra in self.by_name["hypertune.objective"]:
            per_iteration[extra["iteration"]].append((start, end))
        wait = 0.0
        for calls in per_iteration.values():
            makespan = max(e for _, e in calls) - min(s for s, _ in calls)
            busy = sum(e - s for s, e in calls)
            wait += makespan - busy / min(self.swarm["workers"], len(calls))
        return wait

    def nonfinite_ratio(self):
        calls = self.by_name["hypertune.objective"]
        return sum(1 for *_, extra in calls if not extra.get("finite")) / len(calls) if calls else 0.0

    def val_forward_s(self):
        return sum(
            end - start
            for n in FORWARD_SPANS
            for _, start, end, parent, _ in self.by_name[n]
            if self.name_of.get(parent) not in TRAIN_SPANS
        )


def layer_metrics(trace, overhead_s):
    """Every PER_LAYER metric, as name -> value."""
    t = trace
    dispatch = t.total("experiment.dispatch_mode")
    return {
        "corpus.tokenize_s": t.total("corpus.tokenize"),
        "corpus.featurize_s": t.total(*FEATURIZE_SPANS),
        "corpus.featurize_calls": t.count("corpus.vectorizer_fit"),
        "splits.kfold_s": t.total("splits.stratified_kfold"),
        "model.teacher_forward_calls": t.count("model.forward_batch.teacher"),
        "model.student_forward_calls": t.count("model.forward_batch.student"),
        "model.forward_s": t.total(*FORWARD_SPANS),
        "model.backward_s": t.total("model.backward_batch"),
        "model.sgd_step_s": t.total("model.sgd_step"),
        "model.sgd_steps": t.count("model.sgd_step"),
        "model.init_calls": t.count("model.init_model"),
        "model.init_s": t.total("model.init_model"),
        "distill.train_teacher_s": t.total("distill.train_teacher"),
        "distill.train_student_s": t.total("distill.train_student"),
        "distill.train_self_s": t.self_time(*TRAIN_SPANS),
        "distill.val_predict_s": t.val_forward_s(),
        "distill.fold_parallelism": t.total(*TRAIN_SPANS) / dispatch if dispatch else 0.0,
        "predictions.read_s": t.total("predictions.read_predictions"),
        "predictions.write_s": t.total("predictions.write_predictions"),
        "predictions.add_calls": t.counters.get("predictions.add", 0),
        "predictions.canonical_rows_calls": t.count("predictions.canonical_rows"),
        "predictions.canonical_rows_s": t.total("predictions.canonical_rows"),
        "metrics.full_report_s": t.total("metrics.full_report"),
        "metrics.report_self_s": t.self_time("metrics.full_report"),
        "hypertune.objective_calls": t.count("hypertune.objective"),
        "hypertune.objective_s": t.total("hypertune.objective"),
        "hypertune.wait_s": t.swarm_wait(),
        "hypertune.nonfinite_ratio": t.nonfinite_ratio(),
        "experiment.threads_peak": t.threads_peak,
        "experiment.output_write_s": t.total(*OUTPUT_SPANS),
        "trace.overhead_s": overhead_s,
    }
