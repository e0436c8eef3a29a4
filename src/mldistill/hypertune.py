"""Parallel particle swarm optimization over a box-constrained space.

Each particle keeps a personal best; the swarm keeps a global best.
Velocities blend inertia with pulls toward both bests, scaled by
per-dimension uniform random vectors.  Integer dimensions travel in
continuous space and are rounded only when a position is decoded into a
configuration.  The particles of each iteration may be evaluated in
parallel, on worker processes forked once per run (``parallel.forked``);
each particle owns a counter-based random stream and scores are merged
in particle order, so the result is bit-identical at every worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from mldistill import parallel
from mldistill.config import DistillConfig, SwarmConfig
from mldistill.errors import DataError, input_lines
from mldistill.seeding import particle_rng


@dataclass(frozen=True)
class Dimension:
    name: str
    lower: float
    upper: float
    kind: str  # "continuous" or "integer"

    def __post_init__(self) -> None:
        if self.kind not in ("continuous", "integer"):
            raise ValueError(f"unknown dimension kind {self.kind!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"dimension {self.name!r} needs finite bounds")
        if not self.lower < self.upper:
            raise ValueError(f"dimension {self.name!r} needs lower < upper")


@dataclass(frozen=True)
class HyperSpace:
    dimensions: tuple[Dimension, ...]

    def __len__(self) -> int:
        return len(self.dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def lower(self) -> np.ndarray:
        return np.array([d.lower for d in self.dimensions], dtype=np.float64)

    @property
    def upper(self) -> np.ndarray:
        return np.array([d.upper for d in self.dimensions], dtype=np.float64)


DIMENSION_NAMES = tuple(f.name for f in fields(DistillConfig))


def default_space() -> HyperSpace:
    """The six-dimensional tuning space with its default ranges."""
    return HyperSpace(
        (
            Dimension("temperature", 2.0, 4.0, "continuous"),
            Dimension("alpha", 0.1, 0.9, "continuous"),
            Dimension("learning_rate", 0.0001, 0.001, "continuous"),
            Dimension("batch_size", 8, 64, "integer"),
            Dimension("epochs", 3, 5, "integer"),
            Dimension("max_length", 128, 512, "integer"),
        )
    )


def space_to_json(space: HyperSpace) -> str:
    dims = [{"name": d.name, "lower": d.lower, "upper": d.upper, "kind": d.kind} for d in space.dimensions]
    return json.dumps(dims, indent=2) + "\n"


def load_space(path: str | Path) -> HyperSpace:
    try:
        raw = json.loads("".join(line for _, line in input_lines(path)))
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or an integer of too many digits
        raise DataError(f"malformed space file: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(raw, list) or not raw:
        raise DataError("space file must be a non-empty list of dimensions")
    dims = []
    for i, item in enumerate(raw):
        try:
            dims.append(
                Dimension(
                    name=str(item["name"]),
                    lower=float(item["lower"]),
                    upper=float(item["upper"]),
                    kind=str(item.get("kind", "continuous")),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"space file dimension {i}: {exc}") from exc
    space = HyperSpace(tuple(dims))
    for name in space.names:
        if name not in DIMENSION_NAMES or space.names.count(name) > 1:
            raise DataError(f"space file: dimension {name!r} is unknown or repeated")
    # A missing name fails to decode.  Each DistillConfig check bounds one
    # coordinate and decoding is monotone in each, so the two corners
    # stand for the whole box.
    try:
        decode(space.lower, space)
        decode(space.upper, space)
    except ValueError as exc:
        raise DataError(f"space file: {exc}") from exc
    return space


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def decode_values(position: np.ndarray, space: HyperSpace) -> dict[str, float | int]:
    """Continuous dims pass through; integer dims round half away from
    zero, then clamp to the bounds."""
    out: dict[str, float | int] = {}
    for value, dim in zip(np.asarray(position, dtype=np.float64), space.dimensions):
        if dim.kind == "integer":
            rounded = _round_half_away(float(value))
            rounded = min(max(rounded, _round_half_away(dim.lower)), _round_half_away(dim.upper))
            out[dim.name] = rounded
        else:
            out[dim.name] = float(value)
    return out


def decode(position: np.ndarray, space: HyperSpace) -> DistillConfig:
    """Decode a position into a training configuration by dimension name.
    Each value takes its field's type: an integer field truncates the
    value of a continuous dimension."""
    values = decode_values(position, space)
    missing = set(DIMENSION_NAMES) - set(values)
    if missing:
        raise ValueError(f"missing dimensions {', '.join(sorted(missing))}")
    return DistillConfig(**{f.name: type(f.default)(values[f.name]) for f in fields(DistillConfig)})


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    pbest_pos: np.ndarray
    pbest_score: float


@dataclass
class SwarmState:
    particles: list[Particle]
    gbest_pos: np.ndarray | None = None
    gbest_score: float = -math.inf
    prev_best: float = -math.inf
    no_improv_count: int = 0
    iteration: int = 0


def init_swarm(space: HyperSpace, cfg: SwarmConfig) -> SwarmState:
    """Positions uniform within bounds, velocities uniform in half the
    range either way, one independent random stream per particle."""
    lower, upper = space.lower, space.upper
    half_range = (upper - lower) / 2.0
    particles = []
    for i in range(cfg.n):
        rng = particle_rng(cfg.seed, i)
        position = rng.uniform(lower, upper)
        velocity = rng.uniform(-half_range, half_range)
        particles.append(
            Particle(position=position, velocity=velocity, pbest_pos=position.copy(), pbest_score=-math.inf)
        )
    return SwarmState(particles=particles)


def velocity_update(
    particle: Particle, gbest_pos: np.ndarray, cfg: SwarmConfig, rng: np.random.Generator
) -> Particle:
    """Inertia + cognitive + social pull, then move; no clamping here."""
    dim = particle.position.shape[0]
    r1 = rng.random(dim)
    r2 = rng.random(dim)
    velocity = (
        cfg.w * particle.velocity
        + cfg.c1 * r1 * (particle.pbest_pos - particle.position)
        + cfg.c2 * r2 * (gbest_pos - particle.position)
    )
    particle.velocity = velocity
    particle.position = particle.position + velocity
    return particle


def apply_constraints(position: np.ndarray, space: HyperSpace) -> np.ndarray:
    """Clamp every coordinate into its [lower, upper] box."""
    return np.clip(np.asarray(position, dtype=np.float64), space.lower, space.upper)


def constrain_particle(particle: Particle, space: HyperSpace) -> Particle:
    """Clamp the position; zero the velocity on every clamped dimension
    so particles do not oscillate against the box walls."""
    clamped = apply_constraints(particle.position, space)
    particle.velocity[clamped != particle.position] = 0.0
    particle.position = clamped
    return particle


def early_stop_check(state: SwarmState, threshold: float, patience: int, relative: bool = False) -> bool:
    """Count consecutive iterations whose global-best improvement fell
    short of the threshold; stop once the count reaches the patience."""
    improvement = state.gbest_score - state.prev_best
    cutoff = threshold * abs(state.prev_best) if relative else threshold
    if improvement < cutoff:
        state.no_improv_count += 1
    else:
        state.no_improv_count = 0
    state.prev_best = state.gbest_score
    return state.no_improv_count >= patience


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    gbest_score: float
    gbest_position: tuple[float, ...]
    nonfinite_particles: tuple[int, ...] = ()


def pso_optimize(
    space: HyperSpace,
    objective: Callable[[np.ndarray], float],
    cfg: SwarmConfig,
) -> tuple[np.ndarray, float, list[TraceEntry]]:
    """Run the swarm and return (best position, best score, trace).

    The objective is maximized and must be a pure function of the
    position.  Non-finite objective values are treated as -inf and the
    offending particle indices are flagged in the trace entry.  With
    ``parallelism > 1`` the particles are evaluated on up to that many
    processes, forked once per run, so at most that many objective calls
    are live at once.
    """
    state = init_swarm(space, cfg)
    rngs = [particle_rng(cfg.seed, i) for i in range(cfg.n)]
    trace: list[TraceEntry] = []

    def evaluate(position: np.ndarray) -> float:
        return float(objective(position.copy()))

    with parallel.forked(evaluate, min(cfg.parallelism, cfg.n)) as run:
        for iteration in range(1, cfg.max_iters + 1):
            state.iteration = iteration
            positions = [p.position.copy() for p in state.particles]
            raw_scores = run(positions)

            nonfinite = tuple(i for i, s in enumerate(raw_scores) if not math.isfinite(s))
            scores = [s if math.isfinite(s) else -math.inf for s in raw_scores]

            for i, particle in enumerate(state.particles):
                if scores[i] > particle.pbest_score:
                    particle.pbest_score = scores[i]
                    particle.pbest_pos = positions[i].copy()
                if scores[i] > state.gbest_score:
                    state.gbest_score = scores[i]
                    state.gbest_pos = positions[i].copy()

            assert state.gbest_score == max(p.pbest_score for p in state.particles)

            if state.gbest_pos is not None:
                for i, particle in enumerate(state.particles):
                    velocity_update(particle, state.gbest_pos, cfg, rngs[i])
                    constrain_particle(particle, space)

            trace.append(
                TraceEntry(
                    iteration=iteration,
                    gbest_score=state.gbest_score,
                    gbest_position=tuple(float(x) for x in (state.gbest_pos if state.gbest_pos is not None else [])),
                    nonfinite_particles=nonfinite,
                )
            )

            if early_stop_check(state, cfg.threshold, cfg.patience, cfg.relative_threshold):
                break

    if state.gbest_pos is None:
        raise ValueError("no particle produced a finite objective value")
    return state.gbest_pos.copy(), state.gbest_score, trace
