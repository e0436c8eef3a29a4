import json
import math

import numpy as np
import pytest

from mldistill import hypertune, parallel
from mldistill.config import SwarmConfig, resolve_config
from mldistill.experiment import run_tuning
from mldistill.hypertune import (
    Dimension,
    HyperSpace,
    Particle,
    SwarmState,
    constrain_particle,
    decode,
    decode_values,
    default_space,
    early_stop_check,
    init_swarm,
    load_space,
    pso_optimize,
    space_to_json,
    velocity_update,
)
from mldistill.synthetic import generate_synthetic


def box(dim=4, lo=-5.0, hi=5.0):
    return HyperSpace(tuple(Dimension(f"x{i}", lo, hi, "continuous") for i in range(dim)))


class TestInitSwarm:
    def test_positions_within_bounds(self):
        space = box()
        state = init_swarm(space, SwarmConfig(n=25, seed=3))
        for p in state.particles:
            assert np.all(p.position >= space.lower) and np.all(p.position <= space.upper)
            assert np.all(np.abs(p.velocity) <= (space.upper - space.lower) / 2)
            assert p.pbest_score == -math.inf
            assert np.array_equal(p.pbest_pos, p.position)

    def test_deterministic(self):
        a = init_swarm(box(), SwarmConfig(n=5, seed=9))
        b = init_swarm(box(), SwarmConfig(n=5, seed=9))
        for pa, pb in zip(a.particles, b.particles):
            assert np.array_equal(pa.position, pb.position)
            assert np.array_equal(pa.velocity, pb.velocity)

    def test_degenerate_near_point_dimension(self):
        space = HyperSpace((Dimension("eps", 0.0, 1e-9, "continuous"),))
        state = init_swarm(space, SwarmConfig(n=3, seed=1))
        for p in state.particles:
            assert 0.0 <= p.position[0] <= 1e-9


class TestDecode:
    def test_rounding_rules(self):
        values = decode_values(np.array([2.79, 0.5, 5e-4, 8.4, 4.5, 300.0]), default_space())
        assert values["batch_size"] == 8
        assert values["epochs"] == 5  # half away from zero
        assert values["temperature"] == 2.79  # continuous passthrough
        assert values["max_length"] == 300

    def test_decode_to_config(self):
        cfg = decode(np.array([2.0, 0.5, 2e-4, 16.2, 3.7, 128.0]), default_space())
        assert cfg.batch_size == 16 and cfg.epochs == 4 and cfg.max_length == 128
        assert cfg.temperature == 2.0 and cfg.alpha == 0.5

    def test_integer_clamped_after_rounding(self):
        space = HyperSpace((Dimension("n", 3, 5, "integer"),))
        assert decode_values(np.array([5.0]), space)["n"] == 5
        assert decode_values(np.array([4.5]), space)["n"] == 5

    def test_missing_dimension_rejected(self):
        with pytest.raises(ValueError):
            decode(np.array([1.0]), HyperSpace((Dimension("temperature", 2, 4, "continuous"),)))

    def test_integer_field_truncates_continuous_dimension(self):
        space = HyperSpace(
            tuple(Dimension(d.name, d.lower, d.upper, "continuous") if d.name == "batch_size" else d
                  for d in default_space().dimensions)
        )
        cfg = decode(np.array([2.0, 0.5, 2e-4, 8.9, 3.0, 128.0]), space)
        assert type(cfg.batch_size) is int and cfg.batch_size == 8
        assert type(cfg.temperature) is float


class FixedOnesRng:
    """Stands in for a Generator: r1 = r2 = all-ones."""

    def random(self, size):
        return np.ones(size)


class TestVelocityUpdate:
    def test_fixed_point_at_consensus(self):
        x = np.array([1.0, 2.0])
        p = Particle(position=x.copy(), velocity=np.zeros(2), pbest_pos=x.copy(), pbest_score=1.0)
        velocity_update(p, x.copy(), SwarmConfig(n=1, w=0.7), FixedOnesRng())
        assert np.array_equal(p.velocity, np.zeros(2))
        assert np.array_equal(p.position, x)

    def test_hand_evaluated_one_dimension(self):
        p = Particle(position=np.array([0.0]), velocity=np.array([1.0]), pbest_pos=np.array([2.0]), pbest_score=0.0)
        velocity_update(p, np.array([4.0]), SwarmConfig(n=1, w=0.7, c1=1.5, c2=1.5), FixedOnesRng())
        assert p.velocity[0] == pytest.approx(9.7, abs=1e-12)
        assert p.position[0] == pytest.approx(9.7, abs=1e-12)

    def test_pure_inertia(self):
        p = Particle(position=np.array([1.0]), velocity=np.array([2.0]), pbest_pos=np.array([5.0]), pbest_score=0.0)
        velocity_update(p, np.array([-3.0]), SwarmConfig(n=1, w=0.5, c1=0.0, c2=0.0), FixedOnesRng())
        assert p.velocity[0] == pytest.approx(1.0)


def clamped(position, space):
    """The position ``constrain_particle`` moves a still particle at ``position`` to."""
    still = Particle(position=position, velocity=np.zeros(position.size), pbest_pos=position, pbest_score=0.0)
    return constrain_particle(still, space).position


class TestConstrainParticle:
    def test_in_bounds_unchanged(self):
        space = box(2)
        x = np.array([1.0, -2.0])
        assert np.array_equal(clamped(x, space), x)

    def test_clamping(self):
        space = HyperSpace((Dimension("a", 0.1, 5.0, "continuous"),))
        assert clamped(np.array([10.0]), space)[0] == 5.0
        assert clamped(np.array([-3.0]), space)[0] == 0.1


class TestEarlyStop:
    def make_state(self, gbest, prev):
        state = SwarmState(particles=[])
        state.gbest_score = gbest
        state.prev_best = prev
        return state

    def test_small_improvement_triggers_with_patience_one(self):
        state = self.make_state(gbest=0.5005, prev=0.5)
        assert early_stop_check(state, threshold=0.001, patience=1) is True

    def test_large_improvement_resets(self):
        state = self.make_state(gbest=0.55, prev=0.5)
        state.no_improv_count = 3
        assert early_stop_check(state, threshold=0.001, patience=4) is False
        assert state.no_improv_count == 0

    def test_patience_three_counts_exactly(self):
        state = self.make_state(gbest=1.0, prev=1.0)
        assert early_stop_check(state, 0.001, 3) is False
        assert early_stop_check(state, 0.001, 3) is False
        assert early_stop_check(state, 0.001, 3) is True

    def test_prev_best_updated(self):
        state = self.make_state(gbest=0.7, prev=0.1)
        early_stop_check(state, 0.001, 1)
        assert state.prev_best == 0.7

    def test_relative_threshold_flag(self):
        absolute = self.make_state(gbest=0.505, prev=0.5)
        assert early_stop_check(absolute, 0.001, 1, relative=False) is False
        relative = self.make_state(gbest=0.505, prev=0.5)
        # cutoff = 0.02 * |prev| = 0.01 exceeds the 0.005 improvement
        assert early_stop_check(relative, 0.02, 1, relative=True) is True

    def test_relative_threshold_first_iteration_never_stops(self):
        import math

        state = self.make_state(gbest=0.4, prev=-math.inf)
        assert early_stop_check(state, 0.02, 1, relative=True) is False


class TestPsoOptimize:
    def test_converges_to_target_one_dimension(self):
        space = HyperSpace((Dimension("x", -5.0, 5.0, "continuous"),))
        target = 1.7
        for seed in (1, 2, 3, 4, 5):
            cfg = SwarmConfig(n=8, max_iters=100, threshold=0.0, seed=seed)
            pos, score, _ = pso_optimize(space, lambda ps: [-float((x[0] - target) ** 2) for x in ps], cfg)
            assert abs(pos[0] - target) < 1e-3

    def test_constant_objective_stops_after_patience(self):
        cfg = SwarmConfig(n=3, max_iters=50, threshold=0.001, patience=1, seed=0)
        _, _, trace = pso_optimize(box(2), lambda ps: [0.25] * len(ps), cfg)
        # first iteration improves from -inf; the second shows zero improvement
        assert len(trace) == 2

    def test_gbest_nondecreasing_and_in_bounds(self):
        space = box(3)
        cfg = SwarmConfig(n=6, max_iters=30, threshold=0.0, seed=5)
        rng = np.random.default_rng(2)
        anchor = rng.uniform(-4, 4, size=3)
        pos, _, trace = pso_optimize(space, lambda ps: [-float(np.sum((x - anchor) ** 2)) for x in ps], cfg)
        scores = [t.gbest_score for t in trace]
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        assert np.all(pos >= space.lower) and np.all(pos <= space.upper)

    def test_serial_and_parallel_identical(self):
        space = box(4)

        def objective(x):
            return -float(np.sum(x * x))

        results = []
        for evaluate in (lambda ps: [objective(x) for x in ps], lambda ps: parallel.map(objective, ps, 4)):
            pos, score, trace = pso_optimize(space, evaluate, SwarmConfig(n=10, max_iters=25, threshold=0.0, seed=77))
            results.append((pos.tolist(), score, trace))
        assert results[0] == results[1]

    def test_nonfinite_objective_flagged(self):
        space = HyperSpace((Dimension("x", -1.0, 1.0, "continuous"),))

        def objective(x):
            return math.nan if x[0] > 0 else float(x[0])

        cfg = SwarmConfig(n=6, max_iters=3, threshold=0.0, seed=8)
        pos, score, trace = pso_optimize(space, lambda ps: [objective(x) for x in ps], cfg)
        assert any(t.nonfinite_particles for t in trace)
        assert math.isfinite(score)
        assert pos[0] <= 0

    def test_pbest_scores_nondecreasing(self):
        space = box(2)
        cfg = SwarmConfig(n=4, max_iters=15, threshold=0.0, seed=13)
        state = init_swarm(space, cfg)
        history = {i: [] for i in range(cfg.n)}

        # track pbest through a manual mirror of the loop via trace scores
        def objective(x):
            return -float(np.sum(x * x))

        pos, score, trace = pso_optimize(space, lambda ps: [objective(x) for x in ps], cfg)
        # weaker but meaningful: the returned best matches the trace maximum
        assert score == max(t.gbest_score for t in trace)

    def test_stock_default_settings_accepted(self):
        cfg = SwarmConfig()
        assert (cfg.n, cfg.w, cfg.c1, cfg.c2, cfg.max_iters) == (10, 0.7, 1.5, 1.5, 10)
        assert (cfg.threshold, cfg.patience) == (0.001, 1)

    def test_iterations_never_exceed_max_iters(self):
        space = box(2)
        rng = np.random.default_rng(9)

        def noisy(x):
            # strictly improving objective: early stop never fires
            return float(rng.random())

        cfg = SwarmConfig(n=3, max_iters=7, threshold=0.0, seed=2)
        _, _, trace = pso_optimize(space, lambda ps: [noisy(x) for x in ps], cfg)
        assert len(trace) <= 7

    def test_velocity_zeroed_on_clamped_dimensions(self):
        space = HyperSpace(
            (Dimension("a", -1.0, 1.0, "continuous"), Dimension("b", -1.0, 1.0, "continuous"))
        )
        p = Particle(
            position=np.array([3.0, 0.5]),
            velocity=np.array([2.0, 0.25]),
            pbest_pos=np.zeros(2),
            pbest_score=0.0,
        )
        constrain_particle(p, space)
        assert np.array_equal(p.position, np.array([1.0, 0.5]))
        assert p.velocity[0] == 0.0  # clamped dimension
        assert p.velocity[1] == 0.25  # untouched dimension


class TestSpaceFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(space_to_json(default_space()), encoding="utf-8")
        space = load_space(path)
        assert space == default_space()

    def test_default_ranges(self):
        space = default_space()
        by_name = {d.name: d for d in space.dimensions}
        assert (by_name["temperature"].lower, by_name["temperature"].upper) == (2.0, 4.0)
        assert (by_name["alpha"].lower, by_name["alpha"].upper) == (0.1, 0.9)
        assert (by_name["learning_rate"].lower, by_name["learning_rate"].upper) == (0.0001, 0.001)
        assert (by_name["batch_size"].lower, by_name["batch_size"].upper) == (8, 64)
        assert (by_name["epochs"].lower, by_name["epochs"].upper) == (3, 5)
        assert (by_name["max_length"].lower, by_name["max_length"].upper) == (128, 512)

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda dims: dims[:3] + dims[4:], "batch_size"),
            (lambda dims: dims + [{"name": "bogus", "lower": 0.0, "upper": 1.0, "kind": "continuous"}], "bogus"),
            (lambda dims: dims + [dict(dims[1])], "alpha"),
            (lambda dims: [dict(d, lower=-4.0, upper=-2.0) if d["name"] == "temperature" else d for d in dims],
             "temperature"),
            (lambda dims: [dict(d, lower=0.2) if d["name"] == "batch_size" else d for d in dims], "batch_size"),
            (lambda dims: [dict(d, upper=math.inf) if d["name"] == "epochs" else d for d in dims], "epochs"),
            (lambda dims: [dict(d, lower=math.nan) if d["name"] == "alpha" else d for d in dims], "alpha"),
        ],
        ids=["missing", "unknown", "duplicate", "bad-bounds", "rounds-to-zero", "infinite-bound", "nan-bound"],
    )
    def test_unusable_space_is_data_error_naming_dimension(self, tmp_path, change, named):
        from mldistill.errors import DataError

        path = tmp_path / "space.json"
        path.write_text(json.dumps(change(json.loads(space_to_json(default_space())))), encoding="utf-8")
        with pytest.raises(DataError, match=named):
            load_space(path)

    def test_malformed_space_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "x", "lower": 1.0}]), encoding="utf-8")
        from mldistill.errors import DataError

        with pytest.raises(DataError):
            load_space(path)


class TestTuneEvaluate:
    """``tune`` scores the positions of a swarm iteration in one fold loop."""

    def test_failing_particles_score_minus_inf_and_the_rest_as_alone(self, monkeypatch):
        corpus = generate_synthetic(60, num_labels=2, seed=21)
        # relu is unbounded, so a huge learning rate diverges into a non-finite step
        keys = {"run.k": "2", "run.feature_dim": "256", "model.activation": "relu", "run.workers": "3"}
        captured = {}

        def capture(space, evaluate, cfg):
            captured["evaluate"] = evaluate
            return space.lower, 0.0, []

        monkeypatch.setattr(hypertune, "pso_optimize", capture)
        run_tuning(corpus, resolve_config(overrides=keys), default_space())
        evaluate = captured["evaluate"]
        # (temperature, alpha, learning_rate, batch_size, epochs, max_length)
        good = [np.array([3.0, 0.5, 5e-4, 16, 3, 128]), np.array([2.5, 0.3, 2e-4, 8, 3, 200])]
        diverging = np.array([3.0, 0.5, 1e150, 16, 3, 128])
        undecodable = np.array([3.0, 2.0, 5e-4, 16, 3, 128])  # alpha outside [0, 1]
        scores = evaluate([good[0], diverging, undecodable, good[1]])
        assert scores[1] == scores[2] == -math.inf
        assert [scores[0], scores[3]] == [evaluate([p])[0] for p in good]
        assert all(math.isfinite(s) for s in (scores[0], scores[3]))
