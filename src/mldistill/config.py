"""Run settings, each declared once: defaults, presets, the flat key-value
config format, and the resolution order defaults < preset < config file <
command line.

Each key section is one frozen dataclass whose fields declare its keys,
defaults and parsers, and whose ``__post_init__`` checks them:
``RunSettings`` (``run.*``), ``DistillConfig`` (``distill.*``),
``ModelSettings`` (``model.*``) and ``SwarmConfig`` (``pso.*``).  Every
key in the registry can be set in a config file (``key = value`` per
line, '#' comments) or overridden by a CLI flag of the same name.  The
fully resolved mapping is embedded into every output file.  Nothing from
the package but ``errors`` is imported, so reading settings loads
neither numpy nor scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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

MODE_VARIANTS = (
    "sequential_kd",
    "binary_relevance_kd",
    "sequential_kd_contrastive",
    "binary_relevance_kd_contrastive",
    "classifier_chains_baseline",
)


@dataclass(frozen=True)
class RunSettings:
    """The ``run.*`` keys: the training mode, its folds, seed and scale."""

    mode: str = "sequential_kd"
    preset: str = "custom"
    k: int = 5
    seed: int = 0
    feature_dim: int = DEFAULT_FEATURE_DIM
    lr_scale: float = DEFAULT_LR_SCALE
    workers: int = 1
    contrastive_weight: float = 0.5
    # An optional permutation of the label indices for the sequential and
    # chain order; check_corpus tests it against the vocabulary.
    label_order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.preset not in PRESET_NAMES:
            raise ValueError(f"run.preset must be one of {PRESET_NAMES}, got {self.preset!r}")
        if not 0.0 <= self.contrastive_weight <= 1.0:
            raise ValueError(f"run.contrastive_weight must lie in [0, 1], got {self.contrastive_weight}")
        if self.mode not in MODE_VARIANTS:
            raise ValueError(f"run.mode must be one of {MODE_VARIANTS}, got {self.mode!r}")
        if self.k < 2:
            raise ValueError("run.k must be >= 2")
        if self.workers < 1:
            raise ValueError("run.workers must be >= 1")
        if self.feature_dim < 2:
            raise ValueError("run.feature_dim must be >= 2")
        if self.lr_scale <= 0:
            raise ValueError("run.lr_scale must be positive")


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
class ModelSettings:
    """The ``model.*`` keys: the teacher's and the student's encoder."""

    teacher_hidden: tuple[int, ...] = TEACHER_HIDDEN
    student_hidden: tuple[int, ...] = STUDENT_HIDDEN
    activation: str = "tanh"

    def __post_init__(self) -> None:
        for key in ("teacher_hidden", "student_hidden"):
            widths = getattr(self, key)
            if min(widths) < 1:
                raise ValueError(f"model.{key} widths must be positive, got {','.join(map(str, widths))}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"model.activation must be one of {ACTIVATIONS}, got {self.activation!r}")


@dataclass(frozen=True)
class SwarmConfig:
    n: int = 10
    w: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    max_iters: int = 10
    threshold: float = 0.001
    patience: int = 1
    # No pso.* key sets it: run_tuning derives it from run.seed.
    seed: int = field(default=0, metadata={"keyless": True})
    relative_threshold: bool = False

    def __post_init__(self) -> None:
        for key in ("n", "max_iters", "patience"):
            if getattr(self, key) < 1:
                raise ValueError(f"pso.{key} must be >= 1")
        for key in ("w", "c1", "c2"):
            if getattr(self, key) < 0:
                raise ValueError(f"pso.{key} must be non-negative")


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


# A key is parsed by its field's annotation.
_PARSERS = {
    "str": str,
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[int, ...] | None": _parse_optional_int_tuple,
}

# Each key section and the dataclass whose fields declare its keys.
_SECTIONS = {"run": RunSettings, "distill": DistillConfig, "model": ModelSettings, "pso": SwarmConfig}


def key_values(section: Any) -> dict[str, Any]:
    """``{field: value}`` for each field of a settings section that a key sets."""
    return {f.name: getattr(section, f.name) for f in fields(section) if not f.metadata.get("keyless")}


# key -> (parser, default)
KEY_REGISTRY: dict[str, tuple[Any, Any]] = {
    f"{prefix}.{f.name}": (_PARSERS[f.type], f.default)
    for prefix, cls in _SECTIONS.items()
    for f in fields(cls)
    if not f.metadata.get("keyless")
}


@dataclass(frozen=True)
class RunConfig:
    """A resolved run, one settings section per key prefix; only
    ``resolve_config`` builds one."""

    run: RunSettings
    distill: DistillConfig
    model: ModelSettings
    pso: SwarmConfig

    def audit_dict(self) -> dict[str, Any]:
        """The fully resolved key-value mapping embedded in outputs.

        run.workers is excluded: it is execution infrastructure (like
        wall-clock time) and never changes results, so outputs stay
        byte-identical across worker counts.  Manifests record it
        separately.
        """
        out = {
            f"{prefix}.{name}": list(value) if isinstance(value, tuple) else value
            for prefix in _SECTIONS
            for name, value in key_values(getattr(self, prefix)).items()
        }
        del out["run.workers"]
        return dict(sorted(out.items()))


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
    raw = {**(file_values or {}), **(overrides or {})}
    sections: dict[str, dict[str, Any]] = {prefix: {} for prefix in _SECTIONS}
    for key, raw_value in raw.items():
        parser, _ = KEY_REGISTRY[key]
        try:
            value = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc
        prefix, _, name = key.partition(".")
        sections[prefix][name] = value

    # An unknown preset leaves the defaults here; RunSettings rejects it.
    preset = PRESETS.get(sections["run"].get("preset"), DistillConfig())
    try:
        distill = replace(preset, **sections["distill"])
        run = RunSettings(**sections["run"])
        model = ModelSettings(**sections["model"])
        pso = SwarmConfig(**sections["pso"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(run, distill, model, pso)
