"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion lines; every criterion asserts its stated tolerance and
runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from mldistill import parallel
from mldistill.cli import main as cli_main
from mldistill.config import DistillConfig, SwarmConfig
from mldistill.distill import (
    distill_sequential,
    hard_loss,
    kd_loss,
    soft_loss,
    teacher_cv_predictions,
)
from mldistill.hypertune import Dimension, HyperSpace, pso_optimize
from mldistill.metrics import example_f1, full_report
from mldistill.model import default_student_spec, default_teacher_spec, softmax
from mldistill.splits import stratified_kfold
from mldistill.stats import anova, describe, f_sf, t_quantile, t_two_sided_p
from mldistill.synthetic import generate_synthetic

from conftest import make_corpus
from test_losses import check_gradients
from test_metrics import auc_of, build_prediction_set, oracle_metrics
from test_stats import f_sf_oracle, t_sf_oracle


def passed(number: int, name: str) -> None:
    print(f"[acceptance {number:02d}] {name}: PASS")


def test_criterion_01_loss_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = rng.normal(scale=4, size=2)
        temperature = float(rng.uniform(0.5, 6.0))
        assert abs(soft_loss(z, z, temperature)) <= 1e-12

    for _ in range(50):
        z_s = rng.normal(scale=3, size=2)
        z_t = rng.normal(scale=3, size=2)
        temperature = float(rng.uniform(1.0, 5.0))
        soft = soft_loss(z_s, z_t, temperature)
        hard = hard_loss(z_s, 1)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = DistillConfig(alpha=alpha, temperature=temperature)
            assert abs(kd_loss(z_s, z_t, 1, cfg) - (alpha * soft + (1 - alpha) * hard)) <= 1e-12
        # independent recomputation of the temperature-squared KL
        sig_s = softmax(z_s / temperature)
        sig_t = softmax(z_t / temperature)
        kl = float(np.sum(sig_t * (np.log(sig_t) - np.log(sig_s))))
        assert abs(soft - temperature ** 2 * kl) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passed(1, f"loss algebra ({elapsed:.2f}s)")


def test_criterion_02_gradient_check():
    started = time.perf_counter()
    worst = check_gradients(trials=100, seed=20260810)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    passed(2, f"gradient check, max rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_metrics_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(10_000):
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
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    passed(3, f"metrics vs brute-force oracle, 10000 cases bit-equal ({elapsed:.1f}s)")


def test_criterion_04_auc_matches_pairwise_brute_force():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        # quantized scores so ties actually occur
        scores = [(float(rng.integers(0, 6)) / 5.0, int(rng.integers(0, 2))) for _ in range(n)]
        pos = [s for s, b in scores if b == 1]
        neg = [s for s, b in scores if b == 0]
        got = auc_of(scores)
        if not pos or not neg:
            assert got is None
            continue
        wins = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    wins += 1.0
                elif p == q:
                    wins += 0.5
        assert got == wins / (len(pos) * len(neg))
        checked += 1
    assert checked >= 150
    passed(4, f"AUC equals Mann-Whitney pair counting on {checked} tied vectors")


def test_criterion_05_confidence_interval_reproduction():
    base = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    scores = list(0.8270 + 0.0089 * base / base.std(ddof=1))
    d = describe(scores)
    assert d.mean == pytest.approx(0.8270, abs=1e-12)
    assert d.sd == pytest.approx(0.0089, abs=1e-12)
    assert abs(d.ci_low - 0.8159) <= 1e-4
    assert abs(d.ci_high - 0.8380) <= 1e-4
    assert t_quantile(0.975, 4) == pytest.approx(2.776, abs=5e-4)
    passed(5, f"95% CI [{d.ci_low:.4f}, {d.ci_high:.4f}] reproduces [0.8159, 0.8380]")


def test_criterion_06_pso_sphere_convergence():
    started = time.perf_counter()
    space = HyperSpace(tuple(Dimension(f"x{i}", -5.0, 5.0, "continuous") for i in range(4)))

    def objective(x):
        return -float(np.sum(x * x))

    def serial(positions):
        return [objective(x) for x in positions]

    def forked(positions):
        return parallel.map(objective, positions, 4)

    def swarm(seed, max_iters):
        return SwarmConfig(n=10, w=0.7, c1=1.5, c2=1.5, max_iters=max_iters, threshold=0.0, seed=seed)

    best_values = []
    for seed in (101, 202, 303, 404, 505):
        pos_s, score_s, trace_s = pso_optimize(space, serial, swarm(seed, 100))
        # The forked evaluator forks four workers per iteration, so it runs
        # the first ten iterations, which must equal the serial trace's.
        pos_p, score_p, trace_p = pso_optimize(space, forked, swarm(seed, 10))
        assert trace_p == trace_s[:10]
        assert score_p == trace_p[-1].gbest_score and tuple(pos_p) == trace_p[-1].gbest_position
        scores = [t.gbest_score for t in trace_s]
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        best_values.append(-score_s)
    elapsed = time.perf_counter() - started
    assert sum(1 for v in best_values if v <= 1e-2) >= 4
    assert elapsed < 5.0
    passed(6, f"sphere best values {['%.1e' % v for v in best_values]} ({elapsed:.1f}s)")


def test_criterion_07_early_stopping_contract():
    space = HyperSpace((Dimension("x", 0.0, 1.0, "continuous"),))
    n = 4
    gbest_per_iteration = [0.5, 0.5005, 0.6, 0.7]  # improvements 0.5, 0.0005, ...
    calls = {"count": 0}

    def scripted(positions):
        iteration = calls["count"] // n
        calls["count"] += len(positions)
        return [gbest_per_iteration[min(iteration, len(gbest_per_iteration) - 1)]] * len(positions)

    cfg = SwarmConfig(n=n, max_iters=50, threshold=0.001, patience=1, seed=0)
    _, score, trace = pso_optimize(space, scripted, cfg)
    assert len(trace) == 2
    assert score == 0.5005
    passed(7, "early stop fires after the second iteration exactly")


def test_criterion_08_stratification():
    label_sets = []
    for i in range(100):
        if i < 50:
            label_sets.append(["A"])
        elif i < 70:
            label_sets.append(["B"])
        elif i < 80:
            label_sets.append(["C"])
        else:
            label_sets.append([])
    corpus = make_corpus(label_sets, ["A", "B", "C"])
    matrix = corpus.label_matrix()
    for seed in range(20):
        folds = stratified_kfold(corpus, 5, seed=seed)
        assert folds.fold_sizes() == [20] * 5
        for j, ideal in enumerate([10, 4, 2]):
            per_fold = [0] * 5
            for i, d in enumerate(corpus.documents):
                if matrix[i, j]:
                    per_fold[folds.fold_of[d.id]] += 1
            assert all(abs(c - ideal) <= 1 for c in per_fold)
    passed(8, "20 seeds: equal folds, per-label positives within +-1 of {10, 4, 2}")


def test_criterion_09_end_to_end_desk_run():
    started = time.perf_counter()
    corpus = generate_synthetic(1000, num_labels=10, seed=90210)
    folds = stratified_kfold(corpus, 5, seed=11)
    teacher_spec = default_teacher_spec(32768)
    student_spec = default_student_spec(32768)
    trial = DistillConfig()  # the trial-and-error preset values

    teacher_preds = teacher_cv_predictions(corpus, folds, teacher_spec, trial, seed=7)
    teacher_f1 = example_f1(teacher_preds)
    assert teacher_f1 >= 0.95

    student_preds = distill_sequential(corpus, folds, teacher_spec, student_spec, trial, seed=7)
    student_f1 = example_f1(student_preds)
    assert student_f1 >= 0.90

    hard_only = distill_sequential(
        corpus, folds, teacher_spec, student_spec,
        DistillConfig(alpha=0.0), seed=7,
    )
    hard_f1 = example_f1(hard_only)
    assert student_f1 >= hard_f1 - 0.02

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    passed(
        9,
        f"teacher {teacher_f1:.3f}, distilled {student_f1:.3f}, hard-only {hard_f1:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_10_ablation_shape(tmp_path):
    started = time.perf_counter()
    corpus = generate_synthetic(400, num_labels=4, seed=606, label_correlation=0.6)
    data = tmp_path / "data"
    data.mkdir()
    from mldistill.corpus import save_corpus, save_vocab

    save_corpus(corpus, data / "corpus.jsonl")
    save_vocab(corpus.vocab, data / "vocab.txt")
    out = tmp_path / "ablation"
    code = cli_main(
        [
            "ablate",
            "--corpus", str(data / "corpus.jsonl"),
            "--vocab", str(data / "vocab.txt"),
            "--out", str(out),
            "--seed", "3",
            "--run.k", "3",
            "--run.feature_dim", "4096",
            "--distill.epochs", "25",
        ]
    )
    assert code == 0
    lines = [l for l in (out / "ablation.tsv").read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
    rows = {parts[0]: float(parts[1]) for parts in (l.split("\t") for l in lines[1:])}
    assert len(rows) == 4
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert len(set(manifest["row_fold_hashes"])) == 1
    assert rows["sequential_kd"] >= rows["binary_relevance_kd"] - 0.02
    elapsed = time.perf_counter() - started
    passed(
        10,
        f"4 ablation rows, shared folds, sequential {rows['sequential_kd']:.3f} vs "
        f"binary relevance {rows['binary_relevance_kd']:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_11_statistics():
    result = anova([[0.0, 0.0], [1.0, 1.0]])
    assert result.eta_squared == 1.0
    assert result.p_value == 0.0
    assert result.f_statistic == math.inf

    rng = np.random.default_rng(11)
    for _ in range(25):
        t = float(rng.uniform(0.05, 6.0))
        df = int(rng.integers(1, 40))
        assert t_two_sided_p(t, df) == pytest.approx(2 * t_sf_oracle(t, df), abs=1e-6)
    for _ in range(25):
        f = float(rng.uniform(0.05, 8.0))
        d1 = int(rng.integers(1, 12))
        d2 = int(rng.integers(2, 40))
        assert f_sf(f, d1, d2) == pytest.approx(f_sf_oracle(f, d1, d2), abs=1e-6)
    passed(11, "eta^2 = 1 exactly on separated groups; t/F tails match integration to 1e-6")


def test_criterion_12_determinism_audit(tmp_path):
    data = tmp_path / "data"
    code = cli_main(["generate-synthetic", "--docs", "40", "--labels", "2", "--out", str(data), "--seed", "5"])
    assert code == 0
    common = [
        "--corpus", str(data / "corpus.jsonl"),
        "--vocab", str(data / "vocab.txt"),
        "--seed", "21",
        "--run.k", "2",
        "--run.feature_dim", "512",
        "--distill.epochs", "2",
    ]

    run_outputs = {}
    for workers in (1, 2):
        for attempt in ("a", "b"):
            out = tmp_path / f"run-w{workers}-{attempt}"
            assert cli_main(["run", *common, "--workers", str(workers), "--out", str(out)]) == 0
            run_outputs[(workers, attempt)] = (
                (out / "predictions.jsonl").read_bytes(),
                (out / "metrics.json").read_bytes(),
            )
    reference = run_outputs[(1, "a")]
    assert all(v == reference for v in run_outputs.values())

    tune_outputs = {}
    for workers in (1, 2):
        for attempt in ("a", "b"):
            out = tmp_path / f"tune-w{workers}-{attempt}"
            code = cli_main(
                ["tune", *common, "--workers", str(workers), "--out", str(out),
                 "--pso.n", "2", "--pso.max_iters", "2", "--pso.threshold", "0"]
            )
            assert code == 0
            tune_outputs[(workers, attempt)] = (
                (out / "trace.jsonl").read_bytes(),
                (out / "best_config.txt").read_bytes(),
            )
    reference = tune_outputs[(1, "a")]
    assert all(v == reference for v in tune_outputs.values())
    passed(12, "run and tune outputs byte-identical across reruns and worker counts")
