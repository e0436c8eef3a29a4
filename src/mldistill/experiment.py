"""End-to-end experiment orchestration shared by the CLI and tests.

A run fixes the fold assignment from the seed, dispatches the selected
training mode, evaluates the resulting out-of-fold predictions, and
assembles an audit manifest.  Nothing here writes a file: the CLI
commits a command's outputs, all of them or none.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

import mldistill
from mldistill import parallel
from mldistill.config import DistillConfig, RunConfig, SwarmConfig, TrainingMode, swarm_settings
from mldistill.corpus import Corpus
from mldistill.distill import baseline_classifier_chains, distill_binary_relevance, distill_sequential
from mldistill.errors import UsageError
from mldistill.hypertune import HyperSpace, TraceEntry, decode, decode_values, pso_optimize
from mldistill.metrics import MetricsReport, example_f1, full_report, render_report
from mldistill.model import EncoderSpec
from mldistill.predictions import PredictionSet, write_predictions
from mldistill.seeding import derive_seed
from mldistill.splits import FoldAssignment, stratified_kfold


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


def check_corpus(config: RunConfig, corpus: Corpus) -> None:
    """Reject settings that cannot run on ``corpus``, before any training."""
    if config.k > len(corpus):
        raise UsageError(f"run.k must not exceed the corpus size {len(corpus)}, got {config.k}")
    order = config.resolved.get("run.label_order")
    if order is not None and sorted(order) != list(range(len(corpus.vocab))):
        raise UsageError(
            f"run.label_order must be a permutation of 0..{len(corpus.vocab) - 1}, got {','.join(map(str, order))}"
        )


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
    """Run one training mode end to end, its work units on up to
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


def manifest(command: str, seed: int, started: float, **extra) -> dict:
    """A command's audit manifest: version, command, seed, the ``extra``
    fields, the wall time since ``started``, and the peak RSS with workers."""
    return {
        "version": mldistill.__version__,
        "command": command,
        "seed": seed,
        **extra,
        "wall_clock_seconds": time.perf_counter() - started,
        "peak_rss_kb": parallel.peak_rss_kb(),
    }


@dataclass
class RunResult:
    predictions: PredictionSet
    report: MetricsReport
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
    audit = manifest(
        "run",
        config.seed,
        started,
        mode=config.mode.variant,
        preset=config.preset,
        documents=len(corpus),
        labels=list(corpus.vocab.labels),
        fold_hash=folds.content_hash(),
        config=config.audit_dict(),
        workers=config.workers,
    )
    return RunResult(predictions=predictions, report=report, manifest=audit)


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

    rows = []
    for variant in ABLATION_VARIANTS:
        if variant.endswith("_contrastive"):
            mode = TrainingMode(variant=variant, contrastive_weight=config.resolved["run.contrastive_weight"])
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
    return rows, manifest(
        "ablate",
        config.seed,
        started,
        fold_hash=shared_hash,
        row_fold_hashes=[row.fold_hash for row in rows],
        config=config.audit_dict(),
        workers=config.workers,
    )


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
    audit = manifest(
        "tune",
        config.seed,
        started,
        fold_hash=folds.content_hash(),
        swarm=settings,
        iterations_run=len(trace),
        best_score=best_score,
        config=config.audit_dict(),
        workers=config.workers,
    )
    return TuneResult(best_config=best_config, best_score=best_score, trace=trace, manifest=audit)


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
    lines += [f"distill.{f.name} = {getattr(cfg, f.name)!r}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def run_outputs(result: RunResult, config: RunConfig) -> list:
    """The run's predictions writer, metrics text and manifest, in that order.
    ``write_predictions`` is looked up here, in this module, when the run
    ends, so perfbench's timer that rebinds it here sees the write."""
    meta = base_meta(config)
    return [
        partial(write_predictions, result.predictions, meta=meta),
        render_report(result.report, meta=meta),
        result.manifest,
    ]
