"""Run configuration: presets, the flat key-value config format, and
the resolution order defaults < preset < config file < command line.

Every key in the registry can be set in a config file (``key = value``
per line, '#' comments) or overridden by a CLI flag of the same name.
The fully resolved mapping is embedded into every output file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from mldistill.corpus import DEFAULT_FEATURE_DIM, Corpus
from mldistill.distill import DEFAULT_LR_SCALE, DistillConfig, TrainingMode
from mldistill.errors import DataError, UsageError
from mldistill.hypertune import SwarmConfig
from mldistill.model import ACTIVATIONS, STUDENT_HIDDEN, TEACHER_HIDDEN

PRESETS: dict[str, DistillConfig] = {
    "trial_and_error": DistillConfig(
        temperature=2.0, alpha=0.5, learning_rate=2e-5, batch_size=16, epochs=5, max_length=128
    ),
    "pso_selected": DistillConfig(
        temperature=2.79, alpha=0.1, learning_rate=1e-5, batch_size=8, epochs=5, max_length=512
    ),
}

PRESET_NAMES = ("trial_and_error", "pso_selected", "custom")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    # float() accepts "nan" and "inf"; the range checks compare, and every
    # comparison with NaN is False.
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


def _parse_optional_int_tuple(raw: str) -> tuple[int, ...] | None:
    if not raw.strip():
        return None
    return _parse_int_tuple(raw)


# key -> (parser, default)
KEY_REGISTRY: dict[str, tuple[Any, Any]] = {
    "run.mode": (str, "sequential_kd"),
    "run.preset": (str, "custom"),
    "run.k": (int, 5),
    "run.seed": (int, 0),
    "run.feature_dim": (int, DEFAULT_FEATURE_DIM),
    "run.lr_scale": (_parse_float, DEFAULT_LR_SCALE),
    "run.workers": (int, 1),
    "run.contrastive_weight": (_parse_float, 0.5),
    "run.label_order": (_parse_optional_int_tuple, None),
    "distill.temperature": (_parse_float, 2.0),
    "distill.alpha": (_parse_float, 0.5),
    "distill.learning_rate": (_parse_float, 2e-5),
    "distill.batch_size": (int, 16),
    "distill.epochs": (int, 5),
    "distill.max_length": (int, 128),
    "model.teacher_hidden": (_parse_int_tuple, TEACHER_HIDDEN),
    "model.student_hidden": (_parse_int_tuple, STUDENT_HIDDEN),
    "model.activation": (str, "tanh"),
    "pso.n": (int, 10),
    "pso.w": (_parse_float, 0.7),
    "pso.c1": (_parse_float, 1.5),
    "pso.c2": (_parse_float, 1.5),
    "pso.max_iters": (int, 10),
    "pso.threshold": (_parse_float, 0.001),
    "pso.patience": (int, 1),
    "pso.relative_threshold": (_parse_bool, False),
}

_DISTILL_KEYS = (
    "distill.temperature",
    "distill.alpha",
    "distill.learning_rate",
    "distill.batch_size",
    "distill.epochs",
    "distill.max_length",
)


@dataclass(frozen=True)
class RunConfig:
    mode: TrainingMode
    distill: DistillConfig
    preset: str = "custom"
    k: int = 5
    seed: int = 0
    feature_dim: int = DEFAULT_FEATURE_DIM
    lr_scale: float = DEFAULT_LR_SCALE
    workers: int = 1
    teacher_hidden: tuple[int, ...] = TEACHER_HIDDEN
    student_hidden: tuple[int, ...] = STUDENT_HIDDEN
    activation: str = "tanh"
    resolved: dict[str, Any] = field(default_factory=dict, compare=False)

    def audit_dict(self) -> dict[str, Any]:
        """The fully resolved key-value mapping embedded in outputs.

        run.workers is excluded: it is execution infrastructure (like
        wall-clock time) and never changes results, so outputs stay
        byte-identical across worker counts.  Manifests record it
        separately.
        """
        out = {}
        for key, value in sorted(self.resolved.items()):
            if key == "run.workers":
                continue
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise DataError(f"config line {lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in KEY_REGISTRY:
                raise DataError(f"config line {lineno}: unknown key {key!r}")
            values[key] = raw.strip()
    return values


def resolve_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Apply the resolution order and build a validated RunConfig.

    ``file_values`` and ``overrides`` map registry keys to raw strings;
    overrides win.  A preset replaces the six distillation defaults
    before either source is applied, so explicit settings still win over
    the preset.
    """
    raw: dict[str, str] = {}
    raw.update(file_values or {})
    raw.update(overrides or {})

    parsed: dict[str, Any] = {key: default for key, (_, default) in KEY_REGISTRY.items()}
    preset = raw["run.preset"].strip() if "run.preset" in raw else parsed["run.preset"]
    if preset not in PRESET_NAMES:
        raise UsageError(f"unknown preset {preset!r}; choose from {PRESET_NAMES}")
    parsed["run.preset"] = preset
    if preset != "custom":
        parsed.update({key: getattr(PRESETS[preset], key.partition(".")[2]) for key in _DISTILL_KEYS})

    for key, raw_value in raw.items():
        if key == "run.preset":
            continue
        parser, _ = KEY_REGISTRY[key]
        try:
            parsed[key] = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc

    try:
        distill = DistillConfig(**{key.partition(".")[2]: parsed[key] for key in _DISTILL_KEYS})
        if not 0.0 <= parsed["run.contrastive_weight"] <= 1.0:
            raise ValueError(f"run.contrastive_weight must lie in [0, 1], got {parsed['run.contrastive_weight']}")
        variant = parsed["run.mode"]
        if variant.endswith("_contrastive"):
            mode = TrainingMode(variant=variant, contrastive_weight=parsed["run.contrastive_weight"])
        else:
            mode = TrainingMode(variant=variant)
        if parsed["run.k"] < 2:
            raise ValueError("run.k must be >= 2")
        if parsed["run.workers"] < 1:
            raise ValueError("run.workers must be >= 1")
        if parsed["run.feature_dim"] < 2:
            raise ValueError("run.feature_dim must be >= 2")
        if parsed["run.lr_scale"] <= 0:
            raise ValueError("run.lr_scale must be positive")
        for key in ("model.teacher_hidden", "model.student_hidden"):
            if min(parsed[key]) < 1:
                raise ValueError(f"{key} widths must be positive, got {','.join(map(str, parsed[key]))}")
        if parsed["model.activation"] not in ACTIVATIONS:
            raise ValueError(f"model.activation must be one of {ACTIVATIONS}, got {parsed['model.activation']!r}")
        config = RunConfig(
            mode=mode,
            distill=distill,
            preset=preset,
            k=parsed["run.k"],
            seed=parsed["run.seed"],
            feature_dim=parsed["run.feature_dim"],
            lr_scale=parsed["run.lr_scale"],
            workers=parsed["run.workers"],
            teacher_hidden=tuple(parsed["model.teacher_hidden"]),
            student_hidden=tuple(parsed["model.student_hidden"]),
            activation=parsed["model.activation"],
            resolved=parsed,
        )
        SwarmConfig(**swarm_settings(config))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def check_corpus(config: RunConfig, corpus: Corpus) -> None:
    """Reject settings that cannot run on ``corpus``, before any training."""
    if config.k > len(corpus):
        raise UsageError(f"run.k must not exceed the corpus size {len(corpus)}, got {config.k}")
    order = config.resolved.get("run.label_order")
    if order is not None and sorted(order) != list(range(len(corpus.vocab))):
        raise UsageError(
            f"run.label_order must be a permutation of 0..{len(corpus.vocab) - 1}, got {','.join(map(str, order))}"
        )


def swarm_settings(config: RunConfig) -> dict[str, Any]:
    parsed = config.resolved
    return {
        "n": parsed["pso.n"],
        "w": parsed["pso.w"],
        "c1": parsed["pso.c1"],
        "c2": parsed["pso.c2"],
        "max_iters": parsed["pso.max_iters"],
        "threshold": parsed["pso.threshold"],
        "patience": parsed["pso.patience"],
        "relative_threshold": parsed["pso.relative_threshold"],
    }
