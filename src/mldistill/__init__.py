"""Desk-scale knowledge distillation for multi-label text classification.

The package trains a small teacher network and distills it into an even
smaller student, label by label, under stratified cross-validation.  It
ships the full evaluation suite (example-based and label-based F1, AUC),
a particle-swarm hyperparameter tuner, replication statistics, and a CLI
that orchestrates end-to-end experiments.  Folds and particles run on
forked worker processes, up to the ``--workers`` cap.
"""

__version__ = "0.1.0"

from mldistill.corpus import (
    Corpus,
    Document,
    HashingTfidfVectorizer,
    LabelVocabulary,
    featurize,
    load_corpus,
    tokenize,
)
from mldistill.distill import (
    DistillConfig,
    TrainingMode,
    baseline_classifier_chains,
    contrastive_loss,
    distill_binary_relevance,
    distill_sequential,
    hard_loss,
    kd_loss,
    soft_loss,
    teacher_cv_predictions,
)
from mldistill.hypertune import (
    HyperSpace,
    SwarmConfig,
    decode,
    default_space,
    pso_optimize,
)
from mldistill.metrics import MetricsReport, auc, example_f1, full_report, macro_f1, micro_f1, weighted_f1
from mldistill.model import EncoderSpec, ModelState, init_model, sgd_step, softmax_t
from mldistill.predictions import PredictionSet, read_predictions, write_predictions
from mldistill.splits import FoldAssignment, stratified_kfold, stratified_sample
from mldistill.stats import anova, describe, t_test

__all__ = [
    "Corpus",
    "Document",
    "DistillConfig",
    "EncoderSpec",
    "FoldAssignment",
    "HashingTfidfVectorizer",
    "HyperSpace",
    "LabelVocabulary",
    "MetricsReport",
    "ModelState",
    "PredictionSet",
    "SwarmConfig",
    "TrainingMode",
    "anova",
    "auc",
    "baseline_classifier_chains",
    "contrastive_loss",
    "decode",
    "default_space",
    "describe",
    "distill_binary_relevance",
    "distill_sequential",
    "example_f1",
    "featurize",
    "full_report",
    "hard_loss",
    "init_model",
    "kd_loss",
    "load_corpus",
    "macro_f1",
    "micro_f1",
    "pso_optimize",
    "read_predictions",
    "sgd_step",
    "soft_loss",
    "softmax_t",
    "stratified_kfold",
    "stratified_sample",
    "t_test",
    "teacher_cv_predictions",
    "tokenize",
    "weighted_f1",
    "write_predictions",
]
