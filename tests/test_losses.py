"""Loss algebra and exact-gradient checks against central finite differences."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from mldistill.config import DistillConfig
from mldistill.distill import (
    _NORM_FLOOR,
    contrastive_grads,
    contrastive_loss,
    hard_loss,
    kd_loss,
    kd_loss_grad,
    soft_loss,
)
from mldistill.model import (
    EncoderSpec,
    RowSliceGrad,
    backward_batch,
    forward_batch,
    init_model,
    softmax,
    sparse_batches,
)

from conftest import dense, linalg_norm_contrastive_grads, three_softmax_kd_loss_grad

GRAD_EPS = 1e-5
GRAD_RTOL = 1e-4
GRAD_FLOOR = 1e-6  # below this magnitude finite differences are pure roundoff


class TestSoftLoss:
    def test_zero_for_identical_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(scale=5, size=2)
            temperature = rng.uniform(0.5, 5)
            assert abs(soft_loss(z, z, temperature)) <= 1e-12

    def test_hand_evaluated_kl(self):
        # teacher uniform, student [0.9, 0.1] at T = 1
        z_s = np.log([0.9, 0.1])
        z_t = np.array([0.0, 0.0])
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert soft_loss(z_s, z_t, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.51083, abs=1e-5)

    def test_temperature_scaling_matches_recomputation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z_s = rng.normal(scale=3, size=2)
            z_t = rng.normal(scale=3, size=2)
            for temperature in (1.0, 2.0):
                sig_s = softmax(z_s / temperature)
                sig_t = softmax(z_t / temperature)
                kl = float(np.sum(sig_t * (np.log(sig_t) - np.log(sig_s))))
                assert soft_loss(z_s, z_t, temperature) == pytest.approx(temperature ** 2 * kl, abs=1e-10)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z_s = rng.normal(scale=4, size=2)
            z_t = rng.normal(scale=4, size=2)
            value = soft_loss(z_s, z_t, rng.uniform(0.5, 5))
            assert value >= 0.0
            sig_equal = np.allclose(softmax(z_s), softmax(z_t), atol=1e-12)
            if value <= 1e-12:
                assert sig_equal

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            soft_loss([0.0, 0.0], [0.0, 0.0], 0.0)


class TestHardLoss:
    def test_uniform_prediction(self):
        assert hard_loss([0.0, 0.0], 0) == pytest.approx(math.log(2), abs=1e-12)
        assert hard_loss([0.0, 0.0], 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_closed_form(self):
        assert hard_loss([0.0, math.log(3)], 1) == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_confident_correct_is_stable(self):
        value = hard_loss([-1000.0, 1000.0], 1)
        assert math.isfinite(value)
        assert abs(value) < 1e-12


class TestKdLoss:
    def test_degenerate_weights(self):
        z_s = np.array([0.4, -0.2])
        z_t = np.array([1.0, 0.3])
        cfg0 = DistillConfig(alpha=0.0, temperature=2.0)
        cfg1 = DistillConfig(alpha=1.0, temperature=2.0)
        assert kd_loss(z_s, z_t, 1, cfg0) == hard_loss(z_s, 1)
        assert kd_loss(z_s, z_t, 1, cfg1) == soft_loss(z_s, z_t, 2.0)

    def test_affine_in_alpha(self):
        rng = np.random.default_rng(3)
        z_s = rng.normal(size=2)
        z_t = rng.normal(size=2)
        soft = soft_loss(z_s, z_t, 3.0)
        hard = hard_loss(z_s, 0)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = DistillConfig(alpha=alpha, temperature=3.0)
            assert kd_loss(z_s, z_t, 0, cfg) == pytest.approx(alpha * soft + (1 - alpha) * hard, abs=1e-12)

    def test_convex_combination_identity(self):
        # soft == hard == L forces the combination to equal L
        z = np.array([0.0, 0.0])
        cfg = DistillConfig(alpha=0.5, temperature=1.0)
        # soft(z, z) = 0 and hard = ln 2; use alpha = 0.5 on equal values instead:
        value = kd_loss(z, z, 0, cfg)
        assert value == pytest.approx(0.5 * math.log(2), abs=1e-12)


class TestContrastiveLoss:
    def test_aligned(self):
        projection = np.eye(3)
        h = np.array([1.0, 2.0, -1.0])
        assert contrastive_loss(h, 2.5 * h, projection) == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel(self):
        projection = np.eye(3)
        h = np.array([1.0, 0.5, 0.0])
        assert contrastive_loss(h, -h, projection) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal(self):
        projection = np.eye(2)
        assert contrastive_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), projection) == pytest.approx(1.0)

    def test_zero_vector_rule(self):
        projection = np.eye(2)
        assert contrastive_loss(np.zeros(2), np.ones(2), projection) == 1.0
        assert contrastive_loss(np.ones(2), np.zeros(2), projection) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.ones(3), np.ones(2), np.eye(3))

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            projection = rng.normal(size=(3, 4))
            value = contrastive_loss(rng.normal(size=4), rng.normal(size=3), projection)
            assert 0.0 <= value <= 2.0


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------


def _loss_value(model, x, label, kind, y, z_t, h_t, cfg, projection):
    cache = forward_batch(model, x, label)
    z_s = cache.logits[0]
    if kind == "hard":
        return hard_loss(z_s, y)
    if kind == "soft":
        return soft_loss(z_s, z_t, cfg.temperature)
    if kind == "kd":
        return kd_loss(z_s, z_t, y, cfg)
    return contrastive_loss(cache.hidden[0], h_t, projection)


def _analytic_grads(model, x, label, kind, y, z_t, h_t, cfg, projection):
    """The gradients ``train_student`` steps on, for a batch of one row."""
    cache = forward_batch(model, x, label)
    targets = np.eye(2)[[y]]
    dhidden = None
    d_projection = None
    if kind == "hard":
        dlogits = kd_loss_grad(cache.logits, targets, None, cfg)
    elif kind == "soft":
        dlogits = kd_loss_grad(cache.logits, targets, z_t[None], replace(cfg, alpha=1.0))
    elif kind == "kd":
        dlogits = kd_loss_grad(cache.logits, targets, z_t[None], cfg)
    else:
        dlogits = np.zeros((1, 2))
        dhidden, d_projection = contrastive_grads(cache.hidden, h_t[None], projection)
    grads = backward_batch(model, cache, dlogits, dhidden_extra=dhidden)
    return grads, d_projection


def _param_pairs(model, grads, label, projection=None, d_projection=None):
    (dW0, db0), *deeper = grads.layers
    assert isinstance(dW0, RowSliceGrad)
    pairs = [(model.layers[0][0], dense(dW0)), (model.layers[0][1], db0)]
    for (W, b), (dW, db) in zip(model.layers[1:], deeper):
        pairs += [(W, dW), (b, db)]
    pairs.append((model.heads[label][0], grads.head[0]))
    pairs.append((model.heads[label][1], grads.head[1]))
    if projection is not None:
        pairs.append((projection, d_projection))
    return pairs


def check_gradients(trials: int, seed: int, kinds=("hard", "soft", "kd", "contrastive"), compact=False) -> float:
    """Max relative FD error across seeded random small models.

    Each trial's input is one row, planned once as a ``SparseBatch``, the
    form every training batch takes.  With ``compact`` the model's first
    layer holds only some columns of the input space, and the row leaves
    some of those at zero, so the first-layer gradient covers a strict
    subset of its rows.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        input_dim = int(rng.integers(3, 17))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(h) for h in rng.integers(2, 9, size=depth))
        spec = EncoderSpec(input_dim=input_dim, hidden_sizes=hidden, activation="tanh", role="student")
        columns = None
        if compact:
            columns = np.sort(rng.choice(input_dim, size=int(rng.integers(2, input_dim + 1)), replace=False))
        model = init_model(spec, 2, seed=int(rng.integers(1 << 30)), columns=columns)
        teacher_width = int(rng.integers(2, 9))
        projection = rng.normal(size=(teacher_width, spec.hidden_dim))
        width = model.layers[0][0].shape[0]
        x = rng.normal(size=width)
        if compact:
            x[rng.choice(width, size=int(rng.integers(1, width)), replace=False)] = 0.0
        (x,) = sparse_batches(sparse.csr_matrix(x[None]), 1, np.arange(1))
        z_t = rng.normal(scale=2, size=2)
        h_t = rng.normal(size=teacher_width)
        y = int(rng.integers(0, 2))
        label = int(rng.integers(0, 2))
        cfg = DistillConfig(
            temperature=float(rng.uniform(2.0, 4.0)),
            alpha=float(rng.uniform(0.1, 0.9)),
            learning_rate=1e-3,
        )
        for kind in kinds:
            grads, d_projection = _analytic_grads(model, x, label, kind, y, z_t, h_t, cfg, projection)
            if compact:
                assert grads.layers[0][0].rows.size < width
            proj = projection if kind == "contrastive" else None
            for arr, analytic in _param_pairs(model, grads, label, proj, d_projection):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    original = arr[idx]
                    arr[idx] = original + GRAD_EPS
                    upper = _loss_value(model, x, label, kind, y, z_t, h_t, cfg, projection)
                    arr[idx] = original - GRAD_EPS
                    lower = _loss_value(model, x, label, kind, y, z_t, h_t, cfg, projection)
                    arr[idx] = original
                    fd = (upper - lower) / (2 * GRAD_EPS)
                    rel = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), GRAD_FLOOR)
                    worst = max(worst, rel)
    return worst


class TestGradients:
    def test_all_losses_match_finite_differences(self):
        assert check_gradients(trials=25, seed=1234) < GRAD_RTOL

    def test_kd_gradient_over_hyperparameter_ranges(self):
        # temperature in [2, 4] and alpha in [0.1, 0.9], the tuning ranges
        assert check_gradients(trials=15, seed=99, kinds=("kd",)) < GRAD_RTOL

    def test_compact_first_layer_with_zero_columns(self):
        # the first-layer gradient is a RowSliceGrad over a strict subset of
        # W0's rows; the rows it leaves out must have zero finite difference
        assert check_gradients(trials=15, seed=4321, compact=True) < GRAD_RTOL


class TestRewrittenGradientsExact:
    """``kd_loss_grad``'s one stacked softmax and ``contrastive_grads``'s
    inline row norms give the bits of the forms they replaced."""

    @pytest.mark.parametrize("alpha", [0.0, 0.35, 1.0])
    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    def test_kd_loss_grad_equals_three_softmaxes(self, alpha, temperature):
        rng = np.random.default_rng(17)
        cfg = DistillConfig(alpha=alpha, temperature=temperature)
        for n in (1, 2, 7, 64):
            for scale in (1e-3, 1.0, 3e2, 1e4):
                z_s, z_t = rng.normal(scale=scale, size=(2, n, 2))
                targets = np.eye(2)[rng.integers(0, 2, size=n)]
                for teacher in (z_t, None):
                    got = kd_loss_grad(z_s, targets, teacher, cfg)
                    assert np.array_equal(got, three_softmax_kd_loss_grad(z_s, targets, teacher, cfg))

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_contrastive_grads_equal_linalg_norm_form(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 3e2):
            hidden_s = rng.normal(scale=scale, size=(n, 4))
            hidden_t = rng.normal(scale=scale, size=(n, 6))
            projection = rng.normal(size=(6, 4))
            # rows on both sides of the norm floor, for either input
            hidden_s[0] *= 0.1 * _NORM_FLOOR / np.linalg.norm(hidden_s[0] @ projection.T)
            hidden_t[-1] *= 10.0 * _NORM_FLOOR / np.linalg.norm(hidden_t[-1])
            if n > 2:
                hidden_t[1] = 0.0
            got = contrastive_grads(hidden_s, hidden_t, projection)
            ref = linalg_norm_contrastive_grads(hidden_s, hidden_t, projection)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))
            assert not got[0][0].any()  # below the floor: the constant fallback
            if n > 1:
                assert got[0][-1].any()  # just above it
