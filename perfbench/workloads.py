"""The four workloads: how each makes its inputs and checks its outputs.

Every input is made from the benchmark seed before timing starts; the
program receives only the written files.  `check` returns the failure
messages (none when the command's outputs are correct), the data files
whose bytes must repeat across runs of one workload and seed, and the
F1 the command reported.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

F1_FLOOR = 0.90  # acceptance criterion 9
PROGRAM_SEED = "7"  # the run seed of the ROADMAP Baseline; only the corpus follows the benchmark seed
TUNE_PARTICLES = 4
TUNE_ITERATIONS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run", "tune" or "evaluate"
    docs: int
    labels: int
    args: tuple
    why: str
    # Commands a timed run makes at least.  tune-w2 straggles (about one
    # command in five runs 15% slow), which a median of three absorbs.
    min_commands: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-seq", "run", 1000, 10,
            ("run", "--mode", "sequential_kd", "--preset", "trial_and_error", "--workers", "1"),
            "the paper's main method: per-step model and distill overhead, no thread pool",
        ),
        Workload(
            "run-brc-w2", "run", 1000, 10,
            ("run", "--mode", "binary_relevance_kd_contrastive", "--preset", "trial_and_error", "--workers", "2"),
            "fresh models per (fold, label), teacher hidden state every step, fold threads under the GIL",
        ),
        Workload(
            "tune-w2", "tune", 300, 5,
            ("tune", "--workers", "2", "--pso.n", str(TUNE_PARTICLES), "--pso.max_iters", str(TUNE_ITERATIONS),
             "--pso.threshold", "0", "--pso.patience", "2"),
            "particle pools nest fold pools; every objective call re-featurizes all folds",
            min_commands=3,
        ),
        Workload(
            "evaluate-50k", "evaluate", 50000, 10, ("evaluate",),
            "no training: the predictions read path and the metrics do all the work",
        ),
    )
}


def prevalences(num_labels):
    """Imbalanced prevalences from 0.45 down to 0.08."""
    return [0.45 - (0.45 - 0.08) * j / (num_labels - 1) for j in range(num_labels)]


class Inputs:
    """The generated input files of one workload and seed, and what the
    checks need to know about them."""

    def __init__(self, workload, seed, input_dir):
        self.workload = workload
        self.seed = seed
        self.dir = input_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        if workload.kind == "evaluate":
            self._write_predictions()
        else:
            self._write_corpus()

    def cli_args(self, out_dir):
        w = self.workload
        if w.kind == "evaluate":
            return [*w.args, "--predictions", str(self.predictions), "--out", str(out_dir)]
        return [*w.args, "--seed", PROGRAM_SEED, "--corpus", str(self.corpus), "--vocab", str(self.vocab),
                "--out", str(out_dir)]

    @property
    def predictions_per_command(self):
        """Out-of-fold (doc, label) predictions one command produces or
        scores; tune makes a full set per objective call."""
        per_pass = self.workload.docs * self.workload.labels
        return per_pass * TUNE_PARTICLES * TUNE_ITERATIONS if self.workload.kind == "tune" else per_pass

    def _write_corpus(self):
        from mldistill.corpus import save_corpus, save_vocab
        from mldistill.synthetic import generate_synthetic

        corpus = generate_synthetic(self.workload.docs, num_labels=self.workload.labels, seed=self.seed)
        self.corpus, self.vocab = self.dir / "corpus.jsonl", self.dir / "vocab.txt"
        save_corpus(corpus, self.corpus)
        save_vocab(corpus.vocab, self.vocab)
        self.doc_ids = [d.id for d in corpus.documents]
        self.label_names = list(corpus.vocab.labels)

    def _write_predictions(self):
        """Overlapping classes, so every per-label F1 lies strictly between
        0 and 1; probabilities on a 3-decimal grid, so AUC sees ties."""
        n, num_labels = self.workload.docs, self.workload.labels
        rng = np.random.default_rng([self.seed % 2**64, 50_000])
        truth = (rng.random((n, num_labels)) < np.array(prevalences(num_labels))).astype(np.int64)
        centre = np.where(truth == 1, 0.64, 0.36)
        probs = np.round(np.clip(centre + rng.normal(0.0, 0.2, size=(n, num_labels)), 0.0, 1.0), 3)
        self.label_names = [f"topic_{j:02d}" for j in range(num_labels)]
        truth, probs = truth.tolist(), probs.tolist()
        self.predictions = self.dir / "predictions.jsonl"
        header = {"_meta": {"format": "mldistill-predictions/1", "labels": self.label_names}}
        lines = [json.dumps(header, sort_keys=True)]
        for i in range(n):
            for j, name in enumerate(self.label_names):
                lines.append(
                    f'{{"doc_id": "{i}", "label": "{name}", "prob": {probs[i][j]!r}, '
                    f'"true": {truth[i][j]}, "fold": {i % 5}}}'
                )
        self.predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.oracle = naive_report(probs, truth)

    def check(self, exit_code, stdout, out_dir):
        """(failures, data files, reported F1) for one finished command."""
        if exit_code != 0:
            return [f"exit code {exit_code}"], [], None
        from mldistill.errors import DataError, UsageError

        try:
            if self.workload.kind == "run":
                return self._check_run(stdout, out_dir)
            if self.workload.kind == "tune":
                return self._check_tune(stdout, out_dir)
            return self._check_evaluate(stdout, out_dir)
        except (OSError, ValueError, KeyError, IndexError, AttributeError, DataError, UsageError) as exc:
            # A missing file or line, or a best_config.txt that --config rejects.
            return [f"unreadable output: {exc!r}"], [], None

    def _check_run(self, stdout, out_dir):
        failures = []
        pairs = set()
        records = 0
        with open(out_dir / "predictions.jsonl", encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "_meta" not in obj:
                    records += 1
                    pairs.add((obj["doc_id"], obj["label"]))
        expected = {(d, name) for d in self.doc_ids for name in self.label_names}
        if records != len(expected) or pairs != expected:
            failures.append(f"{records} records over {len(pairs)} (doc, label) pairs, expected one per {len(expected)}")
        report = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        f1 = report["example_f1"]
        if f1 < F1_FLOOR:
            failures.append(f"example_f1 {f1} below {F1_FLOOR}")
        printed = re.search(r"^example_f1 (\S+)", stdout, re.M).group(1)
        if printed != f"{f1:.6f}":
            failures.append(f"printed example_f1 {printed} != metrics.json {f1:.6f}")
        return failures, ["predictions.jsonl", "metrics.json"], f1

    def _check_tune(self, stdout, out_dir):
        from mldistill.config import parse_config_file, resolve_config

        failures = []
        lines = (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        iterations = [json.loads(line)["iteration"] for line in lines[1:]]
        if iterations != list(range(1, TUNE_ITERATIONS + 1)):
            failures.append(f"trace iterations {iterations}, expected 1..{TUNE_ITERATIONS}")
        best_config = out_dir / "best_config.txt"
        resolve_config(parse_config_file(best_config), {})  # what --config does; raises if it cannot load
        score = best_score(best_config)
        if score < F1_FLOOR:
            failures.append(f"best_score {score} below {F1_FLOOR}")
        printed = re.search(r"^best example_f1 (\S+)", stdout, re.M).group(1)
        if printed != f"{score:.6f}":
            failures.append(f"printed best example_f1 {printed} != best_config.txt {score:.6f}")
        return failures, ["trace.jsonl", "best_config.txt"], score

    def _check_evaluate(self, stdout, out_dir):
        failures = []
        report = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        printed = re.search(r"^example_f1 (\S+)", stdout, re.M).group(1)
        oracle = self.oracle
        for name, got in (("printed example_f1", printed),
                          ("example_f1", f"{report['example_f1']:.6f}"),
                          ("micro_f1", f"{report['micro_f1']:.6f}")):
            want = f"{oracle[name.split()[-1]]:.6f}"
            if got != want:
                failures.append(f"{name} {got} != naive {want}")
        for name, counts in zip(self.label_names, oracle["counts"]):
            got = report["labels"][name]
            if (got["tp"], got["fp"], got["fn"], got["tn"]) != counts:
                failures.append(f"{name} confusion counts differ from naive {counts}")
            if not 0.0 < got["f1"] < 1.0:
                failures.append(f"{name} F1 {got['f1']} not strictly between 0 and 1")
        return failures, ["metrics.json"], report["example_f1"]


def best_score(best_config):
    text = Path(best_config).read_text(encoding="utf-8")
    return float(re.search(r"^# best example-based F1: (\S+)$", text, re.M).group(1))


def naive_report(probs, truth):
    """Example-based and micro F1 by the textbook definitions, over documents
    sorted by id as text, in plain Python floats."""
    docs = sorted(range(len(probs)), key=str)
    num_labels = len(probs[0])
    counts = [[0, 0, 0, 0] for _ in range(num_labels)]  # tp, fp, fn, tn
    total = 0.0
    for i in docs:
        predicted = [1 if p >= 0.5 else 0 for p in probs[i]]
        true_size, pred_size = sum(truth[i]), sum(predicted)
        inter = sum(1 for p, y in zip(predicted, truth[i]) if p == 1 and y == 1)
        total += 1.0 if true_size == 0 and pred_size == 0 else 2.0 * inter / (true_size + pred_size)
        for j, (p, y) in enumerate(zip(predicted, truth[i])):
            counts[j][(0 if y else 1) if p else (2 if y else 3)] += 1
    tp = sum(c[0] for c in counts)
    fp = sum(c[1] for c in counts)
    fn = sum(c[2] for c in counts)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    micro = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {"example_f1": total / len(docs), "micro_f1": micro, "counts": [tuple(c) for c in counts]}
