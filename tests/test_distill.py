"""Training procedures: teacher fine-tuning, sequential and binary-
relevance distillation, and the classifier-chains baseline."""

import copy
import cProfile
import dataclasses
import os
import pstats
import time

import numpy as np
import pytest
from scipy import sparse

from mldistill import distill
from mldistill.config import DEFAULT_LR_SCALE, DistillConfig
from mldistill.corpus import tokenize
from mldistill.distill import (
    chains_fit,
    contrastive_grads,
    distill_sequential,
    distillation_fit,
    hard_loss,
    teacher_cv_predictions,
    train_student,
)
from mldistill.metrics import example_f1
from mldistill.model import (
    ModelState,
    RowSliceGrad,
    SparseBatch,
    default_student_spec,
    default_teacher_spec,
    forward_batch,
    glorot_uniform,
    init_model,
)
from mldistill.seeding import rng_for
from mldistill.splits import stratified_kfold
from mldistill.synthetic import generate_synthetic

from conftest import (
    canonical_rows,
    cross_validated,
    featurize,
    linalg_norm_contrastive_grads,
    make_corpus,
    three_softmax_kd_loss_grad,
)

DIM = 2048


def models_equal(a, b) -> bool:
    return all(np.array_equal(wa, wb) and np.array_equal(ba, bb) for (wa, ba), (wb, bb) in zip(a.layers, b.layers)) and all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb) for (wa, ba), (wb, bb) in zip(a.heads, b.heads)
    )


def relevance_fit(teacher, student, cfg, seed):
    """Binary-relevance KD: a fresh teacher and student per (fold, label)."""
    return distillation_fit(teacher, ((student, None),), cfg, seed, True, DEFAULT_LR_SCALE)


def mean_hard_loss(model, X, y, label):
    logits = forward_batch(model, X, label).logits
    return float(np.mean([hard_loss(z, int(t)) for z, t in zip(logits, y)]))


class TestDistillConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            DistillConfig(temperature=0.0)
        with pytest.raises(ValueError):
            DistillConfig(alpha=1.5)
        with pytest.raises(ValueError):
            DistillConfig(epochs=0)
        with pytest.raises(ValueError):
            DistillConfig(batch_size=0)


class TestTrainTeacher:
    """Teacher fine-tuning: ``train_student`` without a teacher trains on
    the hard loss alone."""

    def test_loss_decreases_on_separable_data(self, small_corpus):
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 0]
        teacher = init_model(default_teacher_spec(DIM), 3, seed=4)
        cfg = DistillConfig(epochs=3)
        before = mean_hard_loss(teacher, X, y, 0)
        teacher, _ = train_student(X, y, 0, teacher, None, cfg, rng_for(0, "t"), lr=0.5)
        after = mean_hard_loss(teacher, X, y, 0)
        assert after < before

    def test_zero_lr_leaves_parameters(self, small_corpus):
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 0]
        teacher = init_model(default_teacher_spec(DIM), 3, seed=4)
        snapshot = copy.deepcopy(teacher)
        teacher, _ = train_student(X, y, 0, teacher, None, cfg=DistillConfig(epochs=2), rng=rng_for(0, "t"), lr=0.0)
        assert models_equal(teacher, snapshot)

    def test_empty_split_rejected(self):
        from scipy import sparse

        teacher = init_model(default_teacher_spec(8), 1, seed=0)
        empty = sparse.csr_matrix((0, 8))
        with pytest.raises(ValueError):
            train_student(empty, np.zeros(0), 0, teacher, None, DistillConfig(), rng_for(0, "t"), lr=0.1)

    def test_deterministic(self, small_corpus):
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 1]
        results = []
        for _ in range(2):
            teacher = init_model(default_teacher_spec(DIM), 3, seed=4)
            teacher, _ = train_student(X, y, 1, teacher, None, DistillConfig(epochs=2), rng_for(5, "t"), lr=0.3)
            results.append(teacher)
        assert models_equal(results[0], results[1])


class TestStudentEquivalences:
    def test_alpha_zero_equals_teacher_ignored(self, small_corpus):
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 0]
        teacher = init_model(default_teacher_spec(DIM), 3, seed=9)
        cfg = DistillConfig(alpha=0.0, epochs=2)
        with_teacher = init_model(default_student_spec(DIM), 3, seed=10)
        without_teacher = copy.deepcopy(with_teacher)
        with_teacher, _ = train_student(X, y, 0, with_teacher, teacher, cfg, rng_for(1, "s"), lr=0.4)
        without_teacher, _ = train_student(X, y, 0, without_teacher, None, cfg, rng_for(1, "s"), lr=0.4)
        assert models_equal(with_teacher, without_teacher)

    def test_no_teacher_ignores_alpha(self, small_corpus):
        # without a teacher the hard loss keeps full weight at every alpha
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 0]
        start = init_model(default_student_spec(DIM), 3, seed=10)
        trained = []
        for alpha in (0.0, 0.5):
            model, _ = train_student(
                X, y, 0, copy.deepcopy(start), None, DistillConfig(alpha=alpha, epochs=2), rng_for(1, "s"), lr=0.4
            )
            trained.append(model)
        assert models_equal(trained[0], trained[1])

    def test_distillation_moves_student_toward_teacher(self, small_corpus):
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 0]
        teacher = init_model(default_teacher_spec(DIM), 3, seed=9)
        teacher, _ = train_student(X, y, 0, teacher, None, DistillConfig(epochs=4), rng_for(2, "t"), lr=0.5)
        student = init_model(default_student_spec(DIM), 3, seed=10)
        cfg = DistillConfig(alpha=1.0, temperature=2.0, epochs=20)
        student, _ = train_student(X, y, 0, student, teacher, cfg, rng_for(3, "s"), lr=1.0)
        t_logits = forward_batch(teacher, X, 0).logits
        s_logits = forward_batch(student, X, 0).logits
        t_hard = np.argmax(t_logits, axis=1)
        s_hard = np.argmax(s_logits, axis=1)
        assert (t_hard == s_hard).mean() > 0.9


def reference_backward(model, cache, dlogits, dhidden_extra=None):
    """``backward_batch`` as it was before the flat gradient buffer: a fresh
    array per gradient, as (per-layer (dW, db) pairs, head (dW, db))."""
    W_head, _ = model.heads[cache.label]
    hidden = cache.activations[-1]
    head = (hidden.T @ dlogits, dlogits.sum(axis=0))
    da = dlogits @ W_head.T
    if dhidden_extra is not None:
        da += dhidden_extra
    layers = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        a_out, a_in = cache.activations[idx + 1], cache.activations[idx]
        dz = 1.0 - a_out * a_out if model.spec.activation == "tanh" else (a_out > 0.0).astype(a_out.dtype)
        dz *= da
        W, _ = model.layers[idx]
        if idx == 0:
            dW = RowSliceGrad(rows=a_in.active, block=a_in.active_block().T @ dz, shape=W.shape)
        else:
            dW = a_in.T @ dz
            da = dz @ W.T
        layers[idx] = (dW, dz.sum(axis=0))
    return layers, head


def _write_then_check_sgd_step(model, layer_grads, head_grads, label, lr):
    """The SGD step as it was before updates were checked ahead of writes,
    one array at a time."""
    for idx, ((dW, db), (W, b)) in enumerate(zip(layer_grads, model.layers)):
        if isinstance(dW, RowSliceGrad):
            W[dW.rows] -= lr * dW.block
        else:
            W -= lr * dW
        b -= lr * db
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"non-finite parameters in encoder layer {idx}")
    dW, db = head_grads
    W, b = model.heads[label]
    W -= lr * dW
    b -= lr * db
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ValueError(f"non-finite parameters in head {label}")
    return model


def per_batch_train_student(X, y, label, student, teacher, cfg, rng, lr, projection=None, beta=None):
    """Reference for ``train_student``: the loop that indexes the rows of
    every batch out of X, forwards the teacher on every batch, and steps
    with the per-array algebra above and the three-softmax and
    ``np.linalg.norm`` gradients, checking parameters after writing them."""
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            Xb, yb = X[batch], y[batch]
            cache = forward_batch(student, Xb, label)
            onehot = np.zeros((batch.size, 2))
            onehot[np.arange(batch.size), yb.astype(np.int64)] = 1.0
            teacher_cache = None
            if teacher is not None and cfg.alpha > 0.0:
                teacher_cache = forward_batch(teacher, Xb, label)
            z_t = None if teacher_cache is None else teacher_cache.logits
            dlogits = three_softmax_kd_loss_grad(cache.logits, onehot, z_t, cfg)
            dhidden = d_proj = None
            if projection is not None and teacher is not None:
                if teacher_cache is None:
                    teacher_cache = forward_batch(teacher, Xb, label)
                d_hidden_s, d_proj_sum = linalg_norm_contrastive_grads(cache.hidden, teacher_cache.hidden, projection)
                dlogits *= 1.0 - beta
                dhidden = (beta / batch.size) * d_hidden_s
                d_proj = (beta / batch.size) * d_proj_sum
            layer_grads, head_grads = reference_backward(student, cache, dlogits, dhidden_extra=dhidden)
            student = _write_then_check_sgd_step(student, layer_grads, head_grads, label, lr)
            if d_proj is not None:
                projection -= lr * d_proj
    return student, projection


# (alpha, with a teacher, with a projection)
STEP_CASES = {
    "no_teacher": (0.5, False, False),
    "kd_alpha_half": (0.5, True, False),
    "kd_alpha_zero": (0.0, True, False),
    "kd_contrastive": (0.5, True, True),
}


def _step_case(small_corpus, case, batch_size):
    alpha, with_teacher, with_projection = STEP_CASES[case]
    X = featurize(small_corpus, dim=DIM, max_length=64)
    y = small_corpus.label_matrix()[:, 1]
    teacher = init_model(default_teacher_spec(DIM), 3, seed=9) if with_teacher else None
    student = init_model(default_student_spec(DIM), 3, seed=10)
    projection = None
    if with_projection:
        projection = glorot_uniform(np.random.default_rng(11), teacher.spec.hidden_dim, student.spec.hidden_dim)
    cfg = DistillConfig(alpha=alpha, epochs=2, batch_size=batch_size)
    return X, y, student, teacher, projection, cfg


class TestTrainingStep:
    """``train_student`` forwards the teacher on each step's batch, gathers
    batches from one permutation per epoch and checks updates before
    writing them; none of that may move a bit."""

    # 60 documents: 7 leaves a partial last batch of 4, and 1 runs every
    # row through the single-row matrix products
    @pytest.mark.parametrize("batch_size", [7, 1])
    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_matches_per_batch_loop(self, small_corpus, case, batch_size):
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, batch_size)
        ref_student, ref_projection = per_batch_train_student(
            X, y, 1, copy.deepcopy(student), teacher, cfg, rng_for(3, "s"), 0.4,
            projection=None if projection is None else projection.copy(), beta=0.5,
        )
        new_student, new_projection = train_student(
            X, y, 1, copy.deepcopy(student), teacher, cfg, rng_for(3, "s"), lr=0.4,
            projection=None if projection is None else projection.copy(), contrastive_weight=0.5,
        )
        assert models_equal(new_student, ref_student)
        assert not models_equal(new_student, student)
        if projection is not None:
            assert np.array_equal(new_projection, ref_projection)

    @pytest.mark.parametrize("case", ["kd_alpha_half", "kd_contrastive", "kd_alpha_zero"])
    def test_teacher_forwarded_per_step(self, small_corpus, monkeypatch, case):
        # a step forwards the teacher on its own batch, when it reads the teacher's logits or hidden state
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, 7)
        calls = []

        def counting_forward(model, Xb, label):
            calls.append((model.spec.role, Xb))
            return forward_batch(model, Xb, label)

        monkeypatch.setattr(distill, "forward_batch", counting_forward)
        train_student(
            X, y, 1, student, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=projection, contrastive_weight=0.5
        )
        per_step = ["student"] if case == "kd_alpha_zero" else ["student", "teacher"]
        assert [role for role, _ in calls] == per_step * 2 * 9  # two epochs of ceil(60 / 7) batches
        assert all(isinstance(Xb, SparseBatch) for _, Xb in calls)
        assert all(Xb is calls[i - 1][1] for i, (role, Xb) in enumerate(calls) if role == "teacher")

    @pytest.mark.parametrize("case", ["no_teacher", "kd_alpha_half"])
    def test_one_set_operation_per_epoch(self, small_corpus, monkeypatch, case):
        # the batches' active columns are planned once per epoch, not per
        # step, and their rows gathered with no scipy matrix built
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, 7)
        calls, matrices = [], []
        unique, csr_init = np.unique, sparse.csr_matrix.__init__

        def counting_unique(*args, **kwargs):
            calls.append(args[0].size)
            return unique(*args, **kwargs)

        def counting_csr_init(self, *args, **kwargs):
            matrices.append(args)
            csr_init(self, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        monkeypatch.setattr(sparse.csr_matrix, "__init__", counting_csr_init)
        train_student(X, y, 1, student, teacher, cfg, rng_for(3, "s"), lr=0.4)
        assert len(calls) == cfg.epochs
        assert calls == [X.nnz] * len(calls)
        assert matrices == []

    def test_nonfinite_projection_step_writes_nothing(self, small_corpus, monkeypatch):
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, "kd_contrastive", 7)

        def nan_projection_grad(*args):
            d_hidden, d_proj = contrastive_grads(*args)
            d_proj[0, 0] = np.nan
            return d_hidden, d_proj

        monkeypatch.setattr(distill, "contrastive_grads", nan_projection_grad)
        trained, start_projection = copy.deepcopy(student), projection.copy()
        with pytest.raises(ValueError, match="contrastive projection"):
            train_student(
                X, y, 1, trained, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=projection,
                contrastive_weight=0.5,
            )
        assert models_equal(trained, student)
        assert np.array_equal(projection, start_projection)

    @pytest.mark.parametrize(
        "nan_in, message",
        [(("hidden", "projection"), "contrastive projection"), (("hidden",), "encoder layer 0 weights")],
        ids=["projection_and_encoder", "encoder_only"],
    )
    def test_nonfinite_step_names_projection_first(self, small_corpus, monkeypatch, nan_in, message):
        # a NaN at the hidden layer reaches every encoder gradient; the
        # projection is named ahead of them, as it is checked ahead of them
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, "kd_contrastive", 7)

        def nan_grads(*args):
            d_hidden, d_proj = contrastive_grads(*args)
            for name, grad in (("hidden", d_hidden), ("projection", d_proj)):
                if name in nan_in:
                    grad[0, 0] = np.nan
            return d_hidden, d_proj

        monkeypatch.setattr(distill, "contrastive_grads", nan_grads)
        trained, start_projection = copy.deepcopy(student), projection.copy()
        with pytest.raises(ValueError, match=message):
            train_student(
                X, y, 1, trained, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=projection,
                contrastive_weight=0.5,
            )
        assert models_equal(trained, student)
        assert np.array_equal(projection, start_projection)

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_fewer_calls_than_reference_loop(self, small_corpus, case):
        # both loops take the same steps, so their total calls compare as
        # their calls per step do
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, 7)

        def profiled_calls(train, teacher, **kwargs):
            profile = cProfile.Profile()
            proj = None if projection is None else projection.copy()
            profile.runcall(train, X, y, 1, copy.deepcopy(student), teacher, cfg, rng_for(3, "s"), projection=proj, **kwargs)
            return pstats.Stats(profile).total_calls

        reference = profiled_calls(per_batch_train_student, teacher, lr=0.4, beta=0.5)
        assert profiled_calls(train_student, teacher, lr=0.4, contrastive_weight=0.5) <= 0.8 * reference


class TestCompactColumns:
    """Training on only the columns the documents touch, from a first layer
    of only those rows, gives the full-width bits: no other row of W0 is
    ever read or written."""

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_train_student_matches_full_width(self, small_corpus, case):
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, 7)
        train, val = slice(0, 45), slice(45, 60)
        columns = np.unique(X.indices)
        compact = init_model(student.spec, 3, seed=10, columns=columns)
        compact_teacher = None if teacher is None else init_model(teacher.spec, 3, seed=9, columns=columns)
        start = copy.deepcopy(student)

        def proj():
            return None if projection is None else projection.copy()

        X_full, X_compact = X[train], X[train][:, columns]
        full, full_projection = train_student(
            X_full, y[train], 1, student, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=proj(),
            contrastive_weight=0.5,
        )
        compact, compact_projection = train_student(
            X_compact, y[train], 1, compact, compact_teacher, cfg, rng_for(3, "s"), lr=0.4,
            projection=proj(), contrastive_weight=0.5,
        )
        assert not models_equal(full, start)
        (W0, b0), untouched = full.layers[0], np.setdiff1d(np.arange(DIM), columns)
        assert np.array_equal(W0[untouched], start.layers[0][0][untouched])
        full_rows = ModelState(full.spec, [(W0[columns], b0), *full.layers[1:]], full.heads)
        assert models_equal(compact, full_rows)
        if projection is not None:
            assert np.array_equal(compact_projection, full_projection)
        assert np.array_equal(
            forward_batch(compact, X[val][:, columns], 1).logits, forward_batch(full, X[val], 1).logits
        )

    def test_train_logistic_matches_full_width(self, small_corpus):
        X = featurize(small_corpus, dim=DIM, max_length=64)
        y = small_corpus.label_matrix()[:, 0].astype(np.float64)
        train, val = slice(0, 45), slice(45, 60)
        columns = np.unique(X.indices)
        w, b = distill._train_logistic(X[train], y[train], 2, 7, 1.0, rng_for(3, "c"))
        compact_w, compact_b = distill._train_logistic(X[train][:, columns], y[train], 2, 7, 1.0, rng_for(3, "c"))
        assert w.any() and np.array_equal(compact_w, w[columns]) and compact_b == b
        assert np.array_equal(
            distill._sigmoid(X[val][:, columns] @ compact_w + compact_b), distill._sigmoid(X[val] @ w + b)
        )


@pytest.fixture(scope="module")
def cv_setup():
    corpus = generate_synthetic(90, num_labels=2, seed=21)
    folds = stratified_kfold(corpus, 3, seed=77)
    teacher = default_teacher_spec(DIM)
    student = default_student_spec(DIM)
    cfg = DistillConfig(epochs=2)
    return corpus, folds, teacher, student, cfg


class TestCrossValidatedRuns:
    def test_prediction_set_complete(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        for fresh_per_label in (False, True):
            fit = distillation_fit(teacher, ((student, None),), cfg, 5, fresh_per_label, DEFAULT_LR_SCALE)
            assert len(cross_validated(corpus, folds, fit)) == len(corpus) * len(corpus.vocab)

    def test_one_label_modes_coincide(self):
        corpus = generate_synthetic(40, num_labels=1, seed=31)
        folds = stratified_kfold(corpus, 2, seed=3)
        teacher, student = default_teacher_spec(DIM), default_student_spec(DIM)
        cfg = DistillConfig(epochs=2)
        sequential = distill_sequential(corpus, folds, teacher, student, cfg, seed=7)
        relevance = cross_validated(corpus, folds, relevance_fit(teacher, student, cfg, 7))
        assert canonical_rows(sequential) == canonical_rows(relevance)

    def test_binary_relevance_label_independence(self):
        # swapping label 0's targets must leave label 1's predictions alone
        base = generate_synthetic(40, num_labels=2, seed=13)
        flipped_docs = []
        from mldistill.corpus import Corpus, Document

        for d in base.documents:
            bits = (1 - d.label_set[0], d.label_set[1])
            flipped_docs.append(Document(id=d.id, text=d.text, label_set=bits))
        flipped = Corpus(tuple(flipped_docs), base.vocab)

        folds_a = stratified_kfold(base, 2, seed=3)
        teacher, student = default_teacher_spec(DIM), default_student_spec(DIM)
        cfg = DistillConfig(epochs=2)
        fit = relevance_fit(teacher, student, cfg, 9)
        preds_a = cross_validated(base, folds_a, fit)
        preds_b = cross_validated(flipped, folds_a, fit)
        probs_a = {doc: p[1] for doc, p, _ in canonical_rows(preds_a)}
        probs_b = {doc: p[1] for doc, p, _ in canonical_rows(preds_b)}
        assert probs_a == probs_b

    def test_sequential_carry_over_changes_later_labels(self, cv_setup):
        # same seeds: the first trained label sees identical data and
        # initialization in both modes, so any divergence on the second
        # label is the carried encoder state
        corpus, folds, teacher, student, cfg = cv_setup
        sequential = distill_sequential(corpus, folds, teacher, student, cfg, seed=5)
        relevance = cross_validated(corpus, folds, relevance_fit(teacher, student, cfg, 5))
        seq_rows = {doc: probs for doc, probs, _ in canonical_rows(sequential)}
        rel_rows = {doc: probs for doc, probs, _ in canonical_rows(relevance)}
        first = [(seq_rows[d][0], rel_rows[d][0]) for d in seq_rows]
        second = [(seq_rows[d][1], rel_rows[d][1]) for d in seq_rows]
        assert all(a == b for a, b in first)
        assert any(a != b for a, b in second)

    def test_seed_changes_values_not_coverage(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        a = distill_sequential(corpus, folds, teacher, student, cfg, seed=1)
        b = distill_sequential(corpus, folds, teacher, student, cfg, seed=2)
        keys_a = [(doc, tuple(t)) for doc, _, t in canonical_rows(a)]
        keys_b = [(doc, tuple(t)) for doc, _, t in canonical_rows(b)]
        assert keys_a == keys_b
        assert canonical_rows(a) != canonical_rows(b)

    def test_contrastive_variant_runs_complete(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        preds = distill_sequential(corpus, folds, teacher, student, cfg, seed=5, contrastive_weight=0.5)
        assert len(preds) == len(corpus) * len(corpus.vocab)

    def test_teacher_only_predictions_complete_and_accurate(self):
        corpus = generate_synthetic(120, num_labels=2, seed=3)
        folds = stratified_kfold(corpus, 3, seed=11)
        preds = teacher_cv_predictions(corpus, folds, default_teacher_spec(DIM), DistillConfig(epochs=8), seed=2)
        assert len(preds) == len(corpus) * 2
        assert example_f1(preds) > 0.9

    @pytest.mark.parametrize(
        "run",
        [
            lambda c, f, t, s, cfg: distill_sequential(c, f, t, s, cfg, seed=5),
            lambda c, f, t, s, cfg: teacher_cv_predictions(c, f, t, cfg, seed=5),
            lambda c, f, t, s, cfg: cross_validated(c, f, chains_fit(cfg, 5, DIM)),
        ],
        ids=["distill_sequential", "teacher_cv_predictions", "chains_fit"],
    )
    def test_fold_mismatch_rejected(self, cv_setup, run):
        corpus, folds, teacher, student, cfg = cv_setup
        other = generate_synthetic(10, num_labels=2, seed=1)
        other_folds = stratified_kfold(other, 2, seed=1)
        with pytest.raises(ValueError, match="fold assignment"):
            run(corpus, other_folds, teacher, student, cfg)

    def test_label_order_permutation_changes_sequence_not_coverage(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        forward_order = distill_sequential(corpus, folds, teacher, student, cfg, seed=5)
        reversed_order = distill_sequential(
            corpus, folds, teacher, student, cfg, seed=5, label_order=[1, 0]
        )
        assert len(reversed_order) == len(forward_order)
        assert canonical_rows(forward_order) != canonical_rows(reversed_order)

    def test_invalid_label_order_rejected(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        with pytest.raises(ValueError, match="permutation"):
            distill_sequential(corpus, folds, teacher, student, cfg, seed=5, label_order=[0, 0])


class TestWorkUnits:
    """Binary relevance spreads (fold, label) units over the workers; chained
    labels keep a fold's whole label order in one unit.  The calling process
    featurizes each fold once, before it forks, and the workers inherit the
    features."""

    @staticmethod
    def record_schedule(monkeypatch, log, corpus, folds):
        """Log (pid, fold, label) per teacher ``train_student`` call and
        (pid, fold) per ``_fold_features`` call, from workers too."""
        rng_for, train_student, fold_features = distill.rng_for, distill.train_student, distill._fold_features
        fold_of = {tuple(folds.val_indices(corpus, fold)): fold for fold in range(folds.k)}
        streams = {}  # id of a live training stream -> the names it was derived from

        def write(*fields):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

        def named_rng(*names):
            rng = rng_for(*names)
            streams[id(rng)] = names
            return rng

        def recording_train(X, y, label, student, teacher, cfg, rng, **kwargs):
            if teacher is None:
                _, _, _, fold, j = streams[id(rng)]
                write("train", fold, j)
            return train_student(X, y, label, student, teacher, cfg, rng, **kwargs)

        def recording_features(tokens, train_idx, val_idx, dim, max_length):
            write("features", fold_of[tuple(val_idx)])
            return fold_features(tokens, train_idx, val_idx, dim, max_length)

        monkeypatch.setattr(distill, "rng_for", named_rng)
        monkeypatch.setattr(distill, "train_student", recording_train)
        monkeypatch.setattr(distill, "_fold_features", recording_features)

        def read(kind):
            rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
            return [tuple(map(int, (pid, *rest))) for pid, what, *rest in rows if what == kind]

        return read

    def test_binary_relevance_spreads_fold_label_units(self, cv_setup, tmp_path, monkeypatch):
        corpus, folds, teacher, student, cfg = cv_setup
        read = self.record_schedule(monkeypatch, tmp_path / "log", corpus, folds)
        cross_validated(corpus, folds, relevance_fit(teacher, student, cfg, 5), workers=2)
        trained, featurized = read("train"), read("features")
        units = sorted((fold, j) for _, fold, j in trained)
        assert units == [(fold, j) for fold in range(folds.k) for j in range(len(corpus.vocab))]
        pids = {pid for pid, _, _ in trained}
        assert len(pids) == 2 and os.getpid() not in pids
        # both idle workers take a unit of the first fold
        assert {pid for pid, fold, _ in trained if fold == 0} == pids
        assert featurized == [(os.getpid(), fold) for fold in range(folds.k)]

    def test_sequential_fold_trains_its_labels_in_order_in_one_process(self, cv_setup, tmp_path, monkeypatch):
        corpus, folds, teacher, student, cfg = cv_setup
        read = self.record_schedule(monkeypatch, tmp_path / "log", corpus, folds)
        distill_sequential(corpus, folds, teacher, student, cfg, seed=5, label_order=[1, 0], workers=2)
        trained = read("train")
        for fold in range(folds.k):
            mine = [(pid, j) for pid, f, j in trained if f == fold]
            assert [j for _, j in mine] == [1, 0]
            assert len({pid for pid, _ in mine}) == 1
        assert os.getpid() not in {pid for pid, _, _ in trained}
        assert read("features") == [(os.getpid(), fold) for fold in range(folds.k)]

    @pytest.mark.parametrize("max_lengths, featurized", [((128, 512), 1), ((8, 128), 2)], ids=["uncut", "truncating"])
    def test_fits_share_the_features_of_the_tokens_they_keep(self, cv_setup, monkeypatch, max_lengths, featurized):
        """No document here is longer than 19 tokens, so ``max_length`` 128
        and 512 cut none and their fits share each fold's features; 8 cuts,
        so its fit gets features of its own, and they differ.  Two workers
        inherit the features and predict what one process does."""
        corpus, folds, _, _, cfg = cv_setup
        assert max(len(tokenize(d.text)) for d in corpus.documents) == 19
        fold_features, built = distill._fold_features, []

        def recording_features(*args):
            built.append(fold_features(*args))
            return built[-1]

        monkeypatch.setattr(distill, "_fold_features", recording_features)
        fits = [chains_fit(dataclasses.replace(cfg, max_length=n), 4, DIM) for n in max_lengths]
        results = [canonical_rows(result) for result in distill.cross_validate(corpus, folds, fits)]
        assert len(built) == featurized * folds.k
        assert [canonical_rows(result) for result in distill.cross_validate(corpus, folds, fits, workers=2)] == results
        assert results == [canonical_rows(cross_validated(corpus, folds, fit)) for fit in fits]
        assert (results[0] == results[1]) == (featurized == 1)
        if featurized == 2:

            def bits(features):
                columns, X_train, X_val = features
                return [columns.tobytes()] + [a.tobytes() for X in (X_train, X_val) for a in (X.data, X.indices)]

            assert all(bits(built[fold]) != bits(built[folds.k + fold]) for fold in range(folds.k))


class TestFoldLoop:
    """One fold loop runs the units of many fits; each fit's result is its
    predictions or the error of its first failing unit, in unit order."""

    @staticmethod
    def failing(fit, fold_to_fail, message):
        """``fit`` with its units of ``fold_to_fail`` raising ``message``."""

        def fit_fold(fold, *args):
            if fold == fold_to_fail:
                raise ValueError(message)
            yield from fit.fit_fold(fold, *args)

        return dataclasses.replace(fit, fit_fold=fit_fold)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failing_fit_leaves_the_others_as_their_solo_runs(self, cv_setup, workers):
        corpus, folds, teacher, student, cfg = cv_setup
        sequential = distill.distillation_fit(teacher, ((student, None),), cfg, 5, False, DEFAULT_LR_SCALE)
        independent = distill.distillation_fit(teacher, ((student, 0.5),), cfg, 5, True, DEFAULT_LR_SCALE)
        chains = distill.chains_fit(cfg, 5, DIM)
        fits = [sequential, self.failing(independent, 1, "unit broke"), chains]
        results = distill.cross_validate(corpus, folds, fits, workers=workers)
        assert type(results[1]) is ValueError and str(results[1]) == "unit broke"
        for fit, result in ((sequential, results[0]), (chains, results[2])):
            assert canonical_rows(result) == canonical_rows(cross_validated(corpus, folds, fit))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failing_student_fails_every_output_of_its_fit(self, cv_setup, monkeypatch, workers):
        """The second student of each binary-relevance unit fails: both of that
        fit's outputs carry its error, and each output of the other fits equals
        its one-output run."""
        corpus, folds, teacher, student, cfg = cv_setup
        train = distill.train_student

        def failing_train(*args, contrastive_weight=None, **kwargs):
            if contrastive_weight == 0.25:
                raise ArithmeticError("student broke")
            return train(*args, contrastive_weight=contrastive_weight, **kwargs)

        monkeypatch.setattr(distill, "train_student", failing_train)
        pair = distill.distillation_fit(teacher, ((student, None), (student, 0.25)), cfg, 5, True, DEFAULT_LR_SCALE)
        kd, contrastive = (student, None), (student, 0.5)
        sequential = distill.distillation_fit(teacher, (contrastive, kd), cfg, 5, False, DEFAULT_LR_SCALE)
        chains = distill.chains_fit(cfg, 5, DIM)
        results = distill.cross_validate(corpus, folds, [chains, pair, sequential], workers=workers)
        assert len(results) == 5
        assert type(results[1]) is ArithmeticError and str(results[1]) == "student broke"
        assert results[2] is results[1]
        assert canonical_rows(results[0]) == canonical_rows(cross_validated(corpus, folds, chains))
        for one, result in zip((contrastive, kd), results[3:]):
            solo = distill.distillation_fit(teacher, (one,), cfg, 5, False, DEFAULT_LR_SCALE)
            assert canonical_rows(result) == canonical_rows(cross_validated(corpus, folds, solo))

    def test_shared_teacher_stays_frozen(self, cv_setup, monkeypatch):
        """A unit's two students train against one teacher, whose ``flat`` and
        ``W0`` bytes neither of them changes."""
        corpus, folds, teacher, student, cfg = cv_setup
        train = distill.train_student
        served = []  # per student trained: (the teacher, its bytes before, its bytes after)

        def recording_train(X, y, label, model, teacher, *args, **kwargs):
            if teacher is None:
                return train(X, y, label, model, teacher, *args, **kwargs)
            before = teacher.flat.tobytes() + teacher.layers[0][0].tobytes()
            trained = train(X, y, label, model, teacher, *args, **kwargs)
            served.append((teacher, before, teacher.flat.tobytes() + teacher.layers[0][0].tobytes()))
            return trained

        monkeypatch.setattr(distill, "train_student", recording_train)
        fit = distill.distillation_fit(teacher, ((student, None), (student, 0.5)), cfg, 5, False, DEFAULT_LR_SCALE)
        distill.cross_validate(corpus, folds, [fit])
        assert len(served) == 2 * folds.k * len(corpus.vocab)
        for (first, *first_bytes), (second, *second_bytes) in zip(served[::2], served[1::2]):
            assert first is second
            assert len({*first_bytes, *second_bytes}) == 1

    def test_failed_fit_skips_its_later_units(self, cv_setup):
        corpus, folds, _, _, cfg = cv_setup
        chains = distill.chains_fit(cfg, 5, DIM)
        trained = []

        def fit_fold(fold, *args):
            trained.append(fold)
            if fold == 1:
                raise ValueError("unit broke")
            yield from chains.fit_fold(fold, *args)

        results = distill.cross_validate(corpus, folds, [dataclasses.replace(chains, fit_fold=fit_fold), chains])
        assert trained == [0, 1]
        assert str(results[0]) == "unit broke" and results[0].__traceback__ is None
        assert canonical_rows(results[1]) == canonical_rows(distill.cross_validate(corpus, folds, [chains])[0])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_failing_unit_raises_whichever_fails_first(self, cv_setup, workers):
        """Fold 0's unit fails last in time, and its message is the one raised."""
        corpus, folds, _, _, cfg = cv_setup

        def fit_fold(fold, *args):
            if fold == 0 and workers > 1:
                time.sleep(0.2)
            raise ValueError(f"fold {fold} broke")

        failing = dataclasses.replace(chains_fit(cfg, 5, DIM), fit_fold=fit_fold)
        with pytest.raises(ValueError, match="^fold 0 broke$"):
            cross_validated(corpus, folds, failing, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_featurization_error_raises(self, cv_setup, workers):
        """``EncoderSpec`` takes a one-column input, which the vectorizer refuses."""
        corpus, folds, teacher, student, cfg = cv_setup
        teacher, student = (dataclasses.replace(spec, input_dim=1) for spec in (teacher, student))
        with pytest.raises(ValueError, match="^feature dim must be >= 2, got 1$"):
            distill_sequential(corpus, folds, teacher, student, cfg, seed=5, workers=workers)

    def test_detached_student_is_refused(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        X = featurize(corpus, DIM)
        model = init_model(student, len(corpus.vocab), seed=1)
        model.flat = model.flat.copy()
        with pytest.raises(RuntimeError, match="is detached"):
            train_student(X, corpus.label_matrix()[:, 0], 0, model, None, cfg, np.random.default_rng(0), lr=0.1)


class TestClassifierChains:
    def test_single_label_plain_classifier(self):
        corpus = generate_synthetic(150, num_labels=1, seed=41)
        folds = stratified_kfold(corpus, 3, seed=2)
        preds = cross_validated(corpus, folds, chains_fit(DistillConfig(epochs=10), 3, DIM, lr=2.0))
        assert len(preds) == len(corpus)
        assert example_f1(preds) > 0.9

    def test_chain_feature_carries_copied_label(self):
        # label B is defined as exactly label A; the chain input solves B
        rng = np.random.default_rng(8)
        label_sets, texts = [], []
        for i in range(80):
            has = bool(rng.random() < 0.5)
            names = ["A", "B"] if has else []
            # B has no keyword of its own: text only ever reveals A
            words = [f"w{int(k)}" for k in rng.integers(0, 50, size=8)]
            if has:
                words += ["akey"] * 3
            label_sets.append(names)
            texts.append(" ".join(words))
        corpus = make_corpus(label_sets, ["A", "B"], texts=texts)
        folds = stratified_kfold(corpus, 4, seed=5)
        preds = cross_validated(corpus, folds, chains_fit(DistillConfig(epochs=8), 6, DIM))
        per_doc = {doc: (p, t) for doc, p, t in canonical_rows(preds)}
        tp = fp = fn = 0
        for doc, (p, t) in per_doc.items():
            yhat = 1 if p[1] >= 0.5 else 0
            if yhat and t[1]:
                tp += 1
            elif yhat and not t[1]:
                fp += 1
            elif not yhat and t[1]:
                fn += 1
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.99

    def test_deterministic(self, cv_setup):
        corpus, folds, _, _, cfg = cv_setup
        a = cross_validated(corpus, folds, chains_fit(cfg, 4, DIM))
        b = cross_validated(corpus, folds, chains_fit(cfg, 4, DIM))
        assert canonical_rows(a) == canonical_rows(b)

    def test_complete_prediction_set(self, cv_setup):
        corpus, folds, _, _, cfg = cv_setup
        preds = cross_validated(corpus, folds, chains_fit(cfg, 4, DIM))
        assert len(preds) == len(corpus) * len(corpus.vocab)


class TestEndToEndQuality:
    def test_distilled_student_learns_separable_corpus(self):
        corpus = generate_synthetic(150, num_labels=3, seed=17)
        folds = stratified_kfold(corpus, 3, seed=4)
        cfg = DistillConfig(epochs=30)
        preds = distill_sequential(
            corpus, folds, default_teacher_spec(DIM), default_student_spec(DIM), cfg, seed=12
        )
        chains = cross_validated(corpus, folds, chains_fit(cfg, 12, DIM, lr=2.0))
        assert example_f1(chains) >= 0.95  # separability oracle
        assert example_f1(preds) >= 0.90
