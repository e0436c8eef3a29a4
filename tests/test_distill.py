"""Training procedures: teacher fine-tuning, sequential and binary-
relevance distillation, and the classifier-chains baseline."""

import os

import numpy as np
import pytest
from scipy import sparse

from mldistill import distill
from mldistill.config import DistillConfig, TrainingMode
from mldistill.distill import (
    baseline_classifier_chains,
    contrastive_grads,
    distill_binary_relevance,
    distill_sequential,
    hard_loss,
    kd_loss_grad,
    teacher_cv_predictions,
    train_student,
)
from mldistill.metrics import example_f1
from mldistill.model import (
    RowSliceGrad,
    backward_batch,
    default_student_spec,
    default_teacher_spec,
    forward_batch,
    glorot_uniform,
    init_model,
)
from mldistill.seeding import rng_for
from mldistill.splits import stratified_kfold
from mldistill.synthetic import generate_synthetic

from conftest import featurize, make_corpus

DIM = 2048


def models_equal(a, b) -> bool:
    return all(np.array_equal(wa, wb) and np.array_equal(ba, bb) for (wa, ba), (wb, bb) in zip(a.layers, b.layers)) and all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb) for (wa, ba), (wb, bb) in zip(a.heads, b.heads)
    )


def mean_hard_loss(model, X, y, label):
    logits = forward_batch(model, X, label).logits
    return float(np.mean([hard_loss(z, int(t)) for z, t in zip(logits, y)]))


class TestTrainingModeType:
    def test_contrastive_weight_defaults_for_contrastive(self):
        mode = TrainingMode("sequential_kd_contrastive")
        assert mode.contrastive_weight == 0.5

    def test_contrastive_weight_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            TrainingMode("sequential_kd", contrastive_weight=0.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            TrainingMode("magic")


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
        snapshot = teacher.copy()
        teacher, _ = train_student(X, y, 0, teacher, None, cfg=DistillConfig(epochs=2), rng=rng_for(0, "t"), lr=0.0)
        assert models_equal(teacher, snapshot)

    def test_empty_split_rejected(self):
        from scipy import sparse

        teacher = init_model(default_teacher_spec(8), 1, seed=0)
        empty = sparse.csr_matrix((0, 8))
        with pytest.raises(ValueError):
            train_student(empty, np.zeros(0), 0, teacher, None, DistillConfig(), rng_for(0, "t"))

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
        without_teacher = with_teacher.copy()
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
                X, y, 0, start.copy(), None, DistillConfig(alpha=alpha, epochs=2), rng_for(1, "s"), lr=0.4
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


def _write_then_check_sgd_step(model, grads, lr):
    """The SGD step as it was before updates were checked ahead of writes."""
    for idx, ((dW, db), (W, b)) in enumerate(zip(grads.layers, model.layers)):
        if isinstance(dW, RowSliceGrad):
            W[dW.rows] -= lr * dW.block
        else:
            W -= lr * dW
        b -= lr * db
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"non-finite parameters in encoder layer {idx}")
    dW, db = grads.head
    W, b = model.heads[grads.head_label]
    W -= lr * dW
    b -= lr * db
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ValueError(f"non-finite parameters in head {grads.head_label}")
    return model


def per_batch_train_student(X, y, label, student, teacher, cfg, rng, lr, projection=None, beta=None):
    """Reference for ``train_student``: the loop that indexes the rows of
    every batch out of X, forwards the teacher on every batch, and checks
    parameters after writing them."""
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
            dlogits = kd_loss_grad(cache.logits, onehot, None if teacher_cache is None else teacher_cache.logits, cfg)
            dhidden = d_proj = None
            if projection is not None and teacher is not None:
                if teacher_cache is None:
                    teacher_cache = forward_batch(teacher, Xb, label)
                d_hidden_s, d_proj_sum = contrastive_grads(cache.hidden, teacher_cache.hidden, projection)
                dlogits *= 1.0 - beta
                dhidden = (beta / batch.size) * d_hidden_s
                d_proj = (beta / batch.size) * d_proj_sum
            grads = backward_batch(student, cache, dlogits, dhidden_extra=dhidden)
            student = _write_then_check_sgd_step(student, grads, lr)
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
    """``train_student`` forwards the teacher once per call, gathers batches
    from one permutation per epoch and checks updates before writing them;
    none of that may move a bit."""

    # 60 documents: 7 leaves a partial last batch of 4, and 1 runs every
    # row through the single-row matrix products
    @pytest.mark.parametrize("batch_size", [7, 1])
    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_matches_per_batch_loop(self, small_corpus, case, batch_size):
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, batch_size)
        ref_student, ref_projection = per_batch_train_student(
            X, y, 1, student.copy(), teacher, cfg, rng_for(3, "s"), 0.4,
            projection=None if projection is None else projection.copy(), beta=0.5,
        )
        new_student, new_projection = train_student(
            X, y, 1, student.copy(), teacher, cfg, rng_for(3, "s"), lr=0.4,
            projection=None if projection is None else projection.copy(), contrastive_weight=0.5,
        )
        assert models_equal(new_student, ref_student)
        assert not models_equal(new_student, student)
        if projection is not None:
            assert np.array_equal(new_projection, ref_projection)

    @pytest.mark.parametrize("case, expected", [("kd_alpha_half", 1), ("kd_contrastive", 1), ("kd_alpha_zero", 0)])
    def test_teacher_forwarded_once_per_call(self, small_corpus, monkeypatch, case, expected):
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, 7)
        roles = []

        def counting_forward(model, *args):
            roles.append(model.spec.role)
            return forward_batch(model, *args)

        monkeypatch.setattr(distill, "forward_batch", counting_forward)
        train_student(X, y, 1, student, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=projection)
        assert roles.count("teacher") == expected
        assert roles.count("student") == 2 * 9  # two epochs of ceil(60 / 7) batches

    @pytest.mark.parametrize("case, extra", [("no_teacher", 0), ("kd_alpha_half", 1)])
    def test_one_set_operation_per_epoch(self, small_corpus, monkeypatch, case, extra):
        # the batches' active columns are planned once per epoch, not per
        # step; the teacher's whole-split pass plans its one batch
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, case, 7)
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(args[0].size)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        train_student(X, y, 1, student, teacher, cfg, rng_for(3, "s"), lr=0.4)
        assert len(calls) == cfg.epochs + extra
        assert calls == [X.nnz] * len(calls)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", [23, 1, 0])
    def test_row_permutation_equals_scipy_row_index(self, index_dtype, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 40)) * (rng.random((n, 40)) < 0.2) * (np.arange(n) % 3 != 0)[:, None]
        X = sparse.csr_matrix(x)  # every third row is empty
        X.indices, X.indptr = X.indices.astype(index_dtype), X.indptr.astype(index_dtype)
        for order in (rng.permutation(n), np.arange(n)):
            got, ref = distill._permute_rows(X, order), X[order]
            assert type(got) is type(ref) and got.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_nonfinite_projection_step_writes_nothing(self, small_corpus, monkeypatch):
        X, y, student, teacher, projection, cfg = _step_case(small_corpus, "kd_contrastive", 7)

        def nan_projection_grad(*args):
            d_hidden, d_proj = contrastive_grads(*args)
            d_proj[0, 0] = np.nan
            return d_hidden, d_proj

        monkeypatch.setattr(distill, "contrastive_grads", nan_projection_grad)
        trained, start_projection = student.copy(), projection.copy()
        with pytest.raises(ValueError, match="contrastive projection"):
            train_student(X, y, 1, trained, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=projection)
        assert models_equal(trained, student)
        assert np.array_equal(projection, start_projection)


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
        start = student.copy()

        def proj():
            return None if projection is None else projection.copy()

        full, full_projection = train_student(
            X[train], y[train], 1, student, teacher, cfg, rng_for(3, "s"), lr=0.4, projection=proj()
        )
        compact, compact_projection = train_student(
            X[train][:, columns], y[train], 1, compact, compact_teacher, cfg, rng_for(3, "s"), lr=0.4,
            projection=proj(),
        )
        assert not models_equal(full, start)
        (W0, b0), untouched = full.layers[0], np.setdiff1d(np.arange(DIM), columns)
        assert np.array_equal(W0[untouched], start.layers[0][0][untouched])
        full_rows = full.copy()
        full_rows.layers[0] = (W0[columns], b0)
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
        for runner in (distill_sequential, distill_binary_relevance):
            preds = runner(corpus, folds, teacher, student, cfg, seed=5)
            assert len(preds) == len(corpus) * len(corpus.vocab)

    def test_one_label_modes_coincide(self):
        corpus = generate_synthetic(40, num_labels=1, seed=31)
        folds = stratified_kfold(corpus, 2, seed=3)
        teacher, student = default_teacher_spec(DIM), default_student_spec(DIM)
        cfg = DistillConfig(epochs=2)
        sequential = distill_sequential(corpus, folds, teacher, student, cfg, seed=7)
        relevance = distill_binary_relevance(corpus, folds, teacher, student, cfg, seed=7)
        assert sequential.canonical_rows() == relevance.canonical_rows()

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
        preds_a = distill_binary_relevance(base, folds_a, teacher, student, cfg, seed=9)
        preds_b = distill_binary_relevance(flipped, folds_a, teacher, student, cfg, seed=9)
        probs_a = {doc: p[1] for doc, p, _ in preds_a.canonical_rows()}
        probs_b = {doc: p[1] for doc, p, _ in preds_b.canonical_rows()}
        assert probs_a == probs_b

    def test_sequential_carry_over_changes_later_labels(self, cv_setup):
        # same seeds: the first trained label sees identical data and
        # initialization in both modes, so any divergence on the second
        # label is the carried encoder state
        corpus, folds, teacher, student, cfg = cv_setup
        sequential = distill_sequential(corpus, folds, teacher, student, cfg, seed=5)
        relevance = distill_binary_relevance(corpus, folds, teacher, student, cfg, seed=5)
        seq_rows = {doc: probs for doc, probs, _ in sequential.canonical_rows()}
        rel_rows = {doc: probs for doc, probs, _ in relevance.canonical_rows()}
        first = [(seq_rows[d][0], rel_rows[d][0]) for d in seq_rows]
        second = [(seq_rows[d][1], rel_rows[d][1]) for d in seq_rows]
        assert all(a == b for a, b in first)
        assert any(a != b for a, b in second)

    def test_seed_changes_values_not_coverage(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        a = distill_sequential(corpus, folds, teacher, student, cfg, seed=1)
        b = distill_sequential(corpus, folds, teacher, student, cfg, seed=2)
        keys_a = [(doc, tuple(t)) for doc, _, t in a.canonical_rows()]
        keys_b = [(doc, tuple(t)) for doc, _, t in b.canonical_rows()]
        assert keys_a == keys_b
        assert a.canonical_rows() != b.canonical_rows()

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
            lambda c, f, t, s, cfg: baseline_classifier_chains(c, f, cfg, seed=5, feature_dim=DIM),
        ],
        ids=["distill_sequential", "teacher_cv_predictions", "baseline_classifier_chains"],
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
        assert forward_order.canonical_rows() != reversed_order.canonical_rows()

    def test_invalid_label_order_rejected(self, cv_setup):
        corpus, folds, teacher, student, cfg = cv_setup
        with pytest.raises(ValueError, match="permutation"):
            distill_sequential(corpus, folds, teacher, student, cfg, seed=5, label_order=[0, 0])


class TestWorkUnits:
    """Binary relevance spreads (fold, label) units over the workers; chained
    labels keep a fold's whole label order in one unit.  A process featurizes
    a fold once, however many of its units it runs."""

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
        distill_binary_relevance(corpus, folds, teacher, student, cfg, seed=5, workers=2)
        trained, featurized = read("train"), read("features")
        units = sorted((fold, j) for _, fold, j in trained)
        assert units == [(fold, j) for fold in range(folds.k) for j in range(len(corpus.vocab))]
        pids = {pid for pid, _, _ in trained}
        assert len(pids) == 2 and os.getpid() not in pids
        # both idle workers take a unit of the first fold
        assert {pid for pid, fold, _ in trained if fold == 0} == pids
        assert len(set(featurized)) == len(featurized)
        assert {(pid, fold) for pid, fold, _ in trained} == set(featurized)

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
        assert sorted(read("features")) == sorted({(pid, fold) for pid, fold, _ in trained})


class TestClassifierChains:
    def test_single_label_plain_classifier(self):
        corpus = generate_synthetic(150, num_labels=1, seed=41)
        folds = stratified_kfold(corpus, 3, seed=2)
        preds = baseline_classifier_chains(corpus, folds, DistillConfig(epochs=10), seed=3, feature_dim=DIM, lr=2.0)
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
        preds = baseline_classifier_chains(corpus, folds, DistillConfig(epochs=8), seed=6, feature_dim=DIM)
        per_doc = {doc: (p, t) for doc, p, t in preds.canonical_rows()}
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
        a = baseline_classifier_chains(corpus, folds, cfg, seed=4, feature_dim=DIM)
        b = baseline_classifier_chains(corpus, folds, cfg, seed=4, feature_dim=DIM)
        assert a.canonical_rows() == b.canonical_rows()

    def test_complete_prediction_set(self, cv_setup):
        corpus, folds, _, _, cfg = cv_setup
        preds = baseline_classifier_chains(corpus, folds, cfg, seed=4, feature_dim=DIM)
        assert len(preds) == len(corpus) * len(corpus.vocab)


class TestEndToEndQuality:
    def test_distilled_student_learns_separable_corpus(self):
        corpus = generate_synthetic(150, num_labels=3, seed=17)
        folds = stratified_kfold(corpus, 3, seed=4)
        cfg = DistillConfig(epochs=30)
        preds = distill_sequential(
            corpus, folds, default_teacher_spec(DIM), default_student_spec(DIM), cfg, seed=12
        )
        chains = baseline_classifier_chains(corpus, folds, cfg, seed=12, feature_dim=DIM, lr=2.0)
        assert example_f1(chains) >= 0.95  # separability oracle
        assert example_f1(preds) >= 0.90
