"""Run settings, each declared once: defaults, presets, the flat key-value
config format, and the resolution order defaults < preset < config file <
command line.

The ``distill.*`` and ``pso.*`` keys derive from the fields of
``DistillConfig`` and ``SwarmConfig``.  Every key in the registry can be
set in a config file (``key = value`` per line, '#' comments) or
overridden by a CLI flag of the same name.  The fully resolved mapping is
embedded into every output file.  Nothing from the package but ``errors``
is imported, so reading settings loads neither numpy nor scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from mldistill.errors import DataError, UsageError, input_lines

DEFAULT_FEATURE_DIM = 32768
TEACHER_HIDDEN = (128, 64)
STUDENT_HIDDEN = (32,)
ACTIVATIONS = ("tanh", "relu")

# Bridges the config-level learning rate (quoted at transformer
# fine-tuning scale) to plain SGD on randomly initialized desk-scale
# encoders, which needs O(0.1..1) steps to move at all.  5e3 keeps the
# presets well inside the converging regime and maps the lower end of
# the tuning range onto it too.
DEFAULT_LR_SCALE = 5e3

DEFAULT_CONTRASTIVE_WEIGHT = 0.5

MODE_VARIANTS = (
    "sequential_kd",
    "binary_relevance_kd",
    "sequential_kd_contrastive",
    "binary_relevance_kd_contrastive",
    "classifier_chains_baseline",
)


@dataclass(frozen=True)
class DistillConfig:
    """The six tunable hyperparameters of a training run."""

    temperature: float = 2.0
    alpha: float = 0.5
    learning_rate: float = 2e-5
    batch_size: int = 16
    epochs: int = 5
    max_length: int = 128

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("distill.temperature must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("distill.alpha must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("distill.learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("distill.batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("distill.epochs must be >= 1")
        if self.max_length < 1:
            raise ValueError("distill.max_length must be >= 1")


@dataclass(frozen=True)
class TrainingMode:
    variant: str
    contrastive_weight: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in MODE_VARIANTS:
            raise ValueError(f"unknown training mode {self.variant!r}")
        if self.is_contrastive:
            weight = self.contrastive_weight
            if weight is None:
                object.__setattr__(self, "contrastive_weight", DEFAULT_CONTRASTIVE_WEIGHT)
            elif not 0.0 <= weight <= 1.0:
                raise ValueError("contrastive_weight must lie in [0, 1]")
        elif self.contrastive_weight is not None:
            raise ValueError(f"contrastive_weight is only valid for contrastive variants, not {self.variant!r}")

    @property
    def is_contrastive(self) -> bool:
        return self.variant.endswith("_contrastive")

    @property
    def is_sequential(self) -> bool:
        return self.variant.startswith("sequential")


@dataclass(frozen=True)
class SwarmConfig:
    n: int = 10
    w: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    max_iters: int = 10
    threshold: float = 0.001
    patience: int = 1
    seed: int = 0
    parallelism: int = 1
    relative_threshold: bool = False

    def __post_init__(self) -> None:
        # Named by their config keys: resolve_config builds one to check them.
        for key in ("n", "max_iters", "patience"):
            if getattr(self, key) < 1:
                raise ValueError(f"pso.{key} must be >= 1")
        for key in ("w", "c1", "c2"):
            if getattr(self, key) < 0:
                raise ValueError(f"pso.{key} must be non-negative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


PRESETS: dict[str, DistillConfig] = {
    "trial_and_error": DistillConfig(),
    "pso_selected": DistillConfig(
        temperature=2.79, alpha=0.1, learning_rate=1e-5, batch_size=8, epochs=5, max_length=512
    ),
}

PRESET_NAMES = (*PRESETS, "custom")


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


# SwarmConfig fields that no pso.* key sets: run.seed and run.workers give them.
_RUN_FIELDS = ("seed", "parallelism")


def _as_keys(settings: DistillConfig | SwarmConfig, prefix: str) -> dict[str, Any]:
    """``{prefix.field: value}`` for each field of ``settings`` that a key sets."""
    return {f"{prefix}.{f.name}": getattr(settings, f.name) for f in fields(settings) if f.name not in _RUN_FIELDS}


def _from_keys(parsed: dict[str, Any], cls: type, prefix: str) -> dict[str, Any]:
    """The keyword arguments of ``cls`` held in ``parsed``'s ``prefix.*`` keys."""
    return {key.partition(".")[2]: parsed[key] for key in _as_keys(cls(), prefix)}


# A derived key is parsed by the type of its default.
_PARSERS = {float: _parse_float, bool: _parse_bool, int: int}

# key -> (parser, default)
KEY_REGISTRY: dict[str, tuple[Any, Any]] = {
    "run.mode": (str, "sequential_kd"),
    "run.preset": (str, "custom"),
    "run.k": (int, 5),
    "run.seed": (int, 0),
    "run.feature_dim": (int, DEFAULT_FEATURE_DIM),
    "run.lr_scale": (_parse_float, DEFAULT_LR_SCALE),
    "run.workers": (int, 1),
    "run.contrastive_weight": (_parse_float, DEFAULT_CONTRASTIVE_WEIGHT),
    "run.label_order": (_parse_optional_int_tuple, None),
    **{key: (_PARSERS[type(value)], value) for key, value in _as_keys(DistillConfig(), "distill").items()},
    "model.teacher_hidden": (_parse_int_tuple, TEACHER_HIDDEN),
    "model.student_hidden": (_parse_int_tuple, STUDENT_HIDDEN),
    "model.activation": (str, "tanh"),
    **{key: (_PARSERS[type(value)], value) for key, value in _as_keys(SwarmConfig(), "pso").items()},
}


@dataclass(frozen=True)
class RunConfig:
    """A resolved run; only ``resolve_config`` builds one."""

    mode: TrainingMode
    distill: DistillConfig
    preset: str
    k: int
    seed: int
    feature_dim: int
    lr_scale: float
    workers: int
    teacher_hidden: tuple[int, ...]
    student_hidden: tuple[int, ...]
    activation: str
    resolved: dict[str, Any] = field(compare=False)

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
    for lineno, line in input_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise DataError(f"line {lineno}: expected 'key = value'")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in KEY_REGISTRY:
            raise DataError(f"line {lineno}: unknown key {key!r}")
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
        parsed.update(_as_keys(PRESETS[preset], "distill"))

    for key, raw_value in raw.items():
        if key == "run.preset":
            continue
        parser, _ = KEY_REGISTRY[key]
        try:
            parsed[key] = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc

    try:
        distill = DistillConfig(**_from_keys(parsed, DistillConfig, "distill"))
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


def swarm_settings(config: RunConfig) -> dict[str, Any]:
    return _from_keys(config.resolved, SwarmConfig, "pso")
