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
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

import mldistill
from mldistill import hypertune, parallel
from mldistill.config import DistillConfig, RunConfig, key_values
from mldistill.corpus import Corpus
from mldistill.distill import Fit, chains_fit, cross_validate, distillation_fit, raise_first_failure
from mldistill.errors import UsageError
from mldistill.hypertune import HyperSpace, TraceEntry, decode, decode_values
from mldistill.metrics import MetricsReport, example_f1, full_report, render_report
from mldistill.model import EncoderSpec
from mldistill.predictions import PredictionSet, write_predictions
from mldistill.seeding import derive_seed
from mldistill.splits import FoldAssignment, stratified_kfold


def _encoder_specs(config: RunConfig) -> tuple[EncoderSpec, EncoderSpec]:
    teacher = EncoderSpec(
        input_dim=config.run.feature_dim,
        hidden_sizes=config.model.teacher_hidden,
        activation=config.model.activation,
        role="teacher",
    )
    student = EncoderSpec(
        input_dim=config.run.feature_dim,
        hidden_sizes=config.model.student_hidden,
        activation=config.model.activation,
        role="student",
    )
    return teacher, student


def check_corpus(config: RunConfig, corpus: Corpus) -> None:
    """Reject settings that cannot run on ``corpus``, before any training."""
    if config.run.k > len(corpus):
        raise UsageError(f"run.k must not exceed the corpus size {len(corpus)}, got {config.run.k}")
    order = config.run.label_order
    if order is not None and sorted(order) != list(range(len(corpus.vocab))):
        raise UsageError(
            f"run.label_order must be a permutation of 0..{len(corpus.vocab) - 1}, got {','.join(map(str, order))}"
        )


def folds_for(corpus: Corpus, config: RunConfig) -> FoldAssignment:
    return stratified_kfold(corpus, config.run.k, derive_seed(config.run.seed, "folds"))


def mode_fit(config: RunConfig, cfg: DistillConfig, seed: int) -> Fit:
    """The fit of ``config``'s training mode under the hyperparameters ``cfg``."""
    mode = config.run.mode
    if mode == "classifier_chains_baseline":
        return chains_fit(cfg, seed, config.run.feature_dim)
    teacher, student = _encoder_specs(config)
    weight = config.run.contrastive_weight if mode.endswith("_contrastive") else None
    fresh_per_label = not mode.startswith("sequential")
    return distillation_fit(teacher, ((student, weight),), cfg, seed, fresh_per_label, config.run.lr_scale)


def cross_validate_fits(corpus: Corpus, folds: FoldAssignment, config: RunConfig, fits: list[Fit]) -> list:
    """``cross_validate`` of ``fits``, their work units on up to ``run.workers`` processes."""
    return cross_validate(corpus, folds, fits, config.run.label_order, config.run.workers)


def dispatch_mode(corpus: Corpus, folds: FoldAssignment, config: RunConfig) -> PredictionSet:
    """Run the configured training mode end to end and return its predictions."""
    fit = mode_fit(config, config.distill, config.run.seed)
    return raise_first_failure(cross_validate_fits(corpus, folds, config, [fit]))[0]


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
        config.run.seed,
        started,
        mode=config.run.mode,
        preset=config.run.preset,
        documents=len(corpus),
        labels=list(corpus.vocab.labels),
        fold_hash=folds.content_hash(),
        config=config.audit_dict(),
        workers=config.run.workers,
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


def run_ablation(corpus: Corpus, config: RunConfig) -> tuple[list[AblationRow], dict]:
    """All four distillation variants on one shared fold assignment: two
    fits, binary relevance and sequential, each distilling every teacher it
    trains into a KD student and a contrastive one."""
    check_corpus(config, corpus)
    started = time.perf_counter()
    folds = folds_for(corpus, config)
    teacher, student = _encoder_specs(config)
    kd, contrastive = (student, None), (student, config.run.contrastive_weight)
    fits = [  # their outputs in ABLATION_VARIANTS order
        distillation_fit(teacher, (kd, contrastive), config.distill, config.run.seed, True, config.run.lr_scale),
        distillation_fit(teacher, (contrastive, kd), config.distill, config.run.seed, False, config.run.lr_scale),
    ]
    results = raise_first_failure(cross_validate_fits(corpus, folds, config, fits))
    rows = []
    for variant, predictions in zip(ABLATION_VARIANTS, results, strict=True):
        report = full_report(predictions)
        rows.append(AblationRow(variant, report.example_f1, report.micro_f1, report.macro_f1, report.weighted_f1))
    fold_hash = folds.content_hash()
    return rows, manifest(
        "ablate",
        config.run.seed,
        started,
        fold_hash=fold_hash,
        row_fold_hashes=[fold_hash] * len(rows),
        config=config.audit_dict(),
        workers=config.run.workers,
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
    objective_seed = derive_seed(config.run.seed, "tune-objective")

    def position_fit(position: np.ndarray) -> Fit | None:
        try:
            return mode_fit(config, decode(position, space), objective_seed)
        except (ValueError, ArithmeticError):
            return None

    def evaluate(positions: list[np.ndarray]) -> list[float]:
        """Each position's example F1, from one fold loop over the fits of all
        positions; -inf where a position fails to decode or its fit fails."""
        fits = [position_fit(position) for position in positions]
        results = iter(cross_validate_fits(corpus, folds, config, [fit for fit in fits if fit is not None]))
        scored = [next(results) if fit is not None else None for fit in fits]
        return [example_f1(r) if isinstance(r, PredictionSet) else -math.inf for r in scored]

    swarm_cfg = replace(config.pso, seed=derive_seed(config.run.seed, "swarm"))
    best_pos, best_score, trace = hypertune.pso_optimize(space, evaluate, swarm_cfg)
    best_config = decode(best_pos, space)
    audit = manifest(
        "tune",
        config.run.seed,
        started,
        fold_hash=folds.content_hash(),
        swarm=key_values(config.pso),
        iterations_run=len(trace),
        best_score=best_score,
        config=config.audit_dict(),
        workers=config.run.workers,
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
