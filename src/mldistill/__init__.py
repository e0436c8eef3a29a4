"""Desk-scale knowledge distillation for multi-label text classification.

The package trains a small teacher network and distills it into an even
smaller student, label by label, under stratified cross-validation.  It
ships the full evaluation suite (example-based and label-based F1, AUC),
a particle-swarm hyperparameter tuner, replication statistics, and a CLI
that orchestrates end-to-end experiments.  The training commands' work
units run on forked worker processes, up to the ``--workers`` cap.
"""

import importlib

__version__ = "0.1.0"

# The names the README's library example imports from the package, each
# loaded from its module on first use (PEP 562), so that ``import
# mldistill`` loads no submodule.  Every other name is imported from its
# module.
_LIBRARY_NAMES = {
    "DistillConfig": "config",
    "default_space": "hypertune",
    "distill_sequential": "distill",
    "example_f1": "metrics",
    "full_report": "metrics",
    "pso_optimize": "hypertune",
    "stratified_kfold": "splits",
}


def __getattr__(name: str):
    if name not in _LIBRARY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LIBRARY_NAMES[name]}"), name)
