"""End-to-end experiment orchestration shared by the CLI and tests.

A run fixes the fold assignment from the seed, dispatches the selected
training mode, evaluates the resulting out-of-fold predictions, and
assembles an audit manifest.  Output files are written to temporary
names and atomically renamed, so a failed run never leaves a partial
report behind.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import mldistill
from mldistill import parallel
from mldistill.config import RunConfig, check_corpus, swarm_settings
from mldistill.corpus import Corpus
from mldistill.distill import (
    DistillConfig,
    TrainingMode,
    baseline_classifier_chains,
    distill_binary_relevance,
    distill_sequential,
)
from mldistill.hypertune import HyperSpace, SwarmConfig, TraceEntry, decode, decode_values, pso_optimize
from mldistill.metrics import MetricsReport, example_f1, full_report, render_report
from mldistill.model import EncoderSpec
from mldistill.predictions import PredictionSet, write_predictions
from mldistill.seeding import derive_seed
from mldistill.splits import FoldAssignment, stratified_kfold


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_via(path: str | Path, writer: Callable[[Path], None]) -> None:
    """Run a file writer against a temp name, then atomically rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        writer(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encoder_specs(config: RunConfig) -> tuple[EncoderSpec, EncoderSpec]:
    teacher = EncoderSpec(
        input_dim=config.feature_dim,
        hidden_sizes=config.teacher_hidden,
        activation=config.activation,
        role="teacher",
    )
    student = EncoderSpec(
        input_dim=config.feature_dim,
        hidden_sizes=config.student_hidden,
        activation=config.activation,
        role="student",
    )
    return teacher, student


def folds_for(corpus: Corpus, config: RunConfig) -> FoldAssignment:
    return stratified_kfold(corpus, config.k, derive_seed(config.seed, "folds"))


def dispatch_mode(
    corpus: Corpus,
    folds: FoldAssignment,
    config: RunConfig,
    mode: TrainingMode | None = None,
    distill_cfg: DistillConfig | None = None,
    seed: int | None = None,
) -> PredictionSet:
    """Run one training mode end to end, its folds on up to
    ``config.workers`` processes, and return its predictions."""
    mode = mode if mode is not None else config.mode
    cfg = distill_cfg if distill_cfg is not None else config.distill
    seed = config.seed if seed is None else seed
    label_order = config.resolved.get("run.label_order")

    if mode.variant == "classifier_chains_baseline":
        return baseline_classifier_chains(
            corpus, folds, cfg, seed, feature_dim=config.feature_dim, label_order=label_order, workers=config.workers
        )

    teacher_spec, student_spec = _encoder_specs(config)
    runner = distill_sequential if mode.is_sequential else distill_binary_relevance
    return runner(
        corpus,
        folds,
        teacher_spec,
        student_spec,
        cfg,
        seed,
        contrastive_weight=mode.contrastive_weight,
        lr_scale=config.lr_scale,
        label_order=label_order,
        workers=config.workers,
    )


def base_meta(config: RunConfig) -> dict:
    return {"version": mldistill.__version__, "config": config.audit_dict()}


@dataclass
class RunResult:
    predictions: PredictionSet
    report: MetricsReport
    folds: FoldAssignment
    manifest: dict


def run_experiment(corpus: Corpus, config: RunConfig) -> RunResult:
    check_corpus(config, corpus)
    started = time.perf_counter()
    stage = "fold assignment"
    try:
        folds = folds_for(corpus, config)
        stage = "training"
        predictions = dispatch_mode(corpus, folds, config)
        stage = "evaluation"
        report = full_report(predictions)
    except (ValueError, ArithmeticError) as exc:
        raise RuntimeError(f"{stage} stage failed: {exc}") from exc
    manifest = {
        "version": mldistill.__version__,
        "command": "run",
        "mode": config.mode.variant,
        "preset": config.preset,
        "seed": config.seed,
        "documents": len(corpus),
        "labels": list(corpus.vocab.labels),
        "fold_hash": folds.content_hash(),
        "config": config.audit_dict(),
        "workers": config.workers,
        "wall_clock_seconds": time.perf_counter() - started,
        "peak_rss_kb": parallel.peak_rss_kb(),
    }
    return RunResult(predictions=predictions, report=report, folds=folds, manifest=manifest)


ABLATION_VARIANTS = (
    "binary_relevance_kd",
    "binary_relevance_kd_contrastive",
    "sequential_kd_contrastive",
    "sequential_kd",
)


@dataclass
class AblationRow:
    variant: str
    example_f1: float
    micro_f1: float
    macro_f1: float
    weighted_f1: float
    fold_hash: str


def run_ablation(corpus: Corpus, config: RunConfig) -> tuple[list[AblationRow], dict]:
    """All four distillation variants on one shared fold assignment."""
    check_corpus(config, corpus)
    started = time.perf_counter()
    folds = folds_for(corpus, config)
    shared_hash = folds.content_hash()
    contrastive_weight = config.resolved.get("run.contrastive_weight", 0.5)

    rows = []
    for variant in ABLATION_VARIANTS:
        if variant.endswith("_contrastive"):
            mode = TrainingMode(variant=variant, contrastive_weight=contrastive_weight)
        else:
            mode = TrainingMode(variant=variant)
        predictions = dispatch_mode(corpus, folds, config, mode=mode)
        report = full_report(predictions)
        rows.append(
            AblationRow(
                variant=variant,
                example_f1=report.example_f1,
                micro_f1=report.micro_f1,
                macro_f1=report.macro_f1,
                weighted_f1=report.weighted_f1,
                fold_hash=folds.content_hash(),
            )
        )

    hashes = {row.fold_hash for row in rows}
    if hashes != {shared_hash}:
        raise AssertionError("ablation variants diverged from the shared fold assignment")
    manifest = {
        "version": mldistill.__version__,
        "command": "ablate",
        "seed": config.seed,
        "fold_hash": shared_hash,
        "row_fold_hashes": [row.fold_hash for row in rows],
        "config": config.audit_dict(),
        "workers": config.workers,
        "wall_clock_seconds": time.perf_counter() - started,
        "peak_rss_kb": parallel.peak_rss_kb(),
    }
    return rows, manifest


def render_ablation_table(rows: list[AblationRow], meta: dict | None = None) -> str:
    lines = []
    if meta:
        lines.append("# " + json.dumps(meta, sort_keys=True))
    lines.append("approach\tf1\tmicro_f1\tmacro_f1\tweighted_f1")
    for row in rows:
        lines.append(
            f"{row.variant}\t{row.example_f1:.6f}\t{row.micro_f1:.6f}"
            f"\t{row.macro_f1:.6f}\t{row.weighted_f1:.6f}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class TuneResult:
    best_config: DistillConfig
    best_score: float
    trace: list[TraceEntry]
    manifest: dict


def run_tuning(corpus: Corpus, config: RunConfig, space: HyperSpace) -> TuneResult:
    """Swarm-search the hyperparameter space; the objective is the
    example-based F1 of a full cross-validated run of the configured
    training mode at the decoded position."""
    check_corpus(config, corpus)
    started = time.perf_counter()
    folds = folds_for(corpus, config)
    objective_seed = derive_seed(config.seed, "tune-objective")

    def objective(position: np.ndarray) -> float:
        try:
            trial_cfg = decode(position, space)
            predictions = dispatch_mode(corpus, folds, config, distill_cfg=trial_cfg, seed=objective_seed)
            return example_f1(predictions)
        except (ValueError, ArithmeticError):
            return -math.inf

    settings = swarm_settings(config)
    swarm_cfg = SwarmConfig(seed=derive_seed(config.seed, "swarm"), parallelism=config.workers, **settings)
    best_pos, best_score, trace = pso_optimize(space, objective, swarm_cfg)
    best_config = decode(best_pos, space)
    manifest = {
        "version": mldistill.__version__,
        "command": "tune",
        "seed": config.seed,
        "fold_hash": folds.content_hash(),
        "swarm": settings,
        "iterations_run": len(trace),
        "best_score": best_score,
        "config": config.audit_dict(),
        "workers": config.workers,
        "wall_clock_seconds": time.perf_counter() - started,
        "peak_rss_kb": parallel.peak_rss_kb(),
    }
    return TuneResult(best_config=best_config, best_score=best_score, trace=trace, manifest=manifest)


def render_trace(trace: list[TraceEntry], space: HyperSpace, meta: dict | None = None) -> str:
    """Line-delimited trace: iteration, best score, decoded best config."""
    lines = []
    header = {"_meta": {"format": "mldistill-trace/1", **(meta or {})}}
    lines.append(json.dumps(header, sort_keys=True))
    for entry in trace:
        record = {
            "iteration": entry.iteration,
            "gbest_score": entry.gbest_score,
            "gbest_config": decode_values(np.array(entry.gbest_position), space),
            "nonfinite_particles": list(entry.nonfinite_particles),
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def render_best_config(result: TuneResult, meta: dict | None = None) -> str:
    """The decoded best configuration in the config-file format."""
    cfg = result.best_config
    lines = [
        "# tuned configuration (loadable via --config)",
        f"# best example-based F1: {result.best_score!r}",
    ]
    if meta:
        lines.append("# " + json.dumps(meta, sort_keys=True))
    lines += [
        f"distill.temperature = {cfg.temperature!r}",
        f"distill.alpha = {cfg.alpha!r}",
        f"distill.learning_rate = {cfg.learning_rate!r}",
        f"distill.batch_size = {cfg.batch_size}",
        f"distill.epochs = {cfg.epochs}",
        f"distill.max_length = {cfg.max_length}",
    ]
    return "\n".join(lines) + "\n"


def save_run_outputs(result: RunResult, out_dir: str | Path, config: RunConfig) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = base_meta(config)
    paths = {
        "predictions": out_dir / "predictions.jsonl",
        "metrics": out_dir / "metrics.json",
        "manifest": out_dir / "manifest.json",
    }
    write_via(paths["predictions"], lambda tmp: write_predictions(result.predictions, tmp, meta=meta))
    write_text_atomic(paths["metrics"], render_report(result.report, meta=meta))
    write_text_atomic(paths["manifest"], json.dumps(result.manifest, indent=2, sort_keys=True) + "\n")
    return paths
