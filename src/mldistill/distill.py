"""Distillation losses and the cross-validated multi-label training procedures.

The student trains against a temperature-scaled combination of two
terms: the KL divergence from the frozen teacher's softened distribution
to the student's (scaled by T^2 to compensate for the softening), and
the ordinary cross entropy against the true bit.  The teacher is
fine-tuned by the same training loop on the hard loss alone.  Each loss
is written twice: a value on one row (``soft_loss``, ``hard_loss``,
``kd_loss``, ``contrastive_loss``), and one batched gradient
(``kd_loss_grad``, ``contrastive_grads``).  ``train_student`` steps
only on the batched gradients, and the finite-difference tests
differentiate the values against them.

Every mode runs through one fold loop, ``cross_validate``, which takes
a list of fits: runs that have not started, each a generator that trains
fresh models on a work unit of one fold and some of its labels, and yields
each label's validation probabilities, one array per output of the fit.
It checks the folds and the label order, featurizes each fold once per key
(IDF from its training part only, narrowed to the hashed columns its
documents touch), then runs the units of every fit on one ``parallel.map``,
serially or on forked workers that inherit the features, and records the
out-of-fold predictions in unit order.  A unit holds the whole label order
when labels are chained, one label in the binary-relevance variants, whose
labels never interact, so two workers split an odd number of folds evenly.
``run`` passes one fit, ``ablate`` two fits of one teacher and two
students each, and ``tune`` every particle of a swarm iteration.  Labels
train in vocabulary order unless a permutation is given.  A distillation
unit fine-tunes the teacher once per label and distills that frozen
teacher into each of its students, each student step forwarding the
teacher on its own batch (with none, ``teacher_cv_predictions`` records
the teacher alone); the classifier-chains baseline trains one
logistic classifier per label.  Epochs are innermost.  In the sequential
variants the encoders persist across labels within a fold, which is the
channel that carries cross-label information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse

from mldistill import parallel
from mldistill.config import DEFAULT_LR_SCALE, DistillConfig
from mldistill.corpus import Corpus, HashingTfidfVectorizer, tokenize
from mldistill.model import (
    EncoderSpec,
    ModelState,
    backward_batch,
    forward_batch,
    glorot_uniform,
    init_model,
    sgd_step,
    softmax,
    sparse_batches,
)
from mldistill.predictions import PredictionSet
from mldistill.seeding import derive_seed, rng_for
from mldistill.splits import FoldAssignment

BASELINE_LEARNING_RATE = 1.0


# ---------------------------------------------------------------------------
# Losses (and their exact gradients with respect to the student side)
# ---------------------------------------------------------------------------


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def soft_loss(z_s, z_t, temperature: float) -> float:
    """T^2-scaled KL(teacher || student) on temperature-softened logits."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    log_s = _log_softmax(np.asarray(z_s, dtype=np.float64) / temperature)
    log_t = _log_softmax(np.asarray(z_t, dtype=np.float64) / temperature)
    sigma_t = np.exp(log_t)
    return float(temperature * temperature * np.sum(sigma_t * (log_t - log_s)))


def hard_loss(z_s, y: int) -> float:
    """Cross entropy of the student logits against the true bit."""
    log_s = _log_softmax(np.asarray(z_s, dtype=np.float64))
    return float(-log_s[..., int(y)])


def kd_loss(z_s, z_t, y: int, cfg: DistillConfig) -> float:
    """alpha * soft + (1 - alpha) * hard, exactly."""
    return cfg.alpha * soft_loss(z_s, z_t, cfg.temperature) + (1.0 - cfg.alpha) * hard_loss(z_s, y)


def kd_loss_grad(z_s: np.ndarray, targets: np.ndarray, z_t: np.ndarray | None, cfg: DistillConfig) -> np.ndarray:
    """d/d z_s of the mean ``kd_loss`` over rows of logits, given one-hot
    ``targets``; ``z_t=None`` takes the hard loss alone at full weight.

    Per row: (sigma_s - y) for the hard term and T * (sigma_s^T - sigma_t^T)
    for the T^2-scaled soft term.  The three softmaxes are one, over the
    stacked rows [z_s; z_s / T; z_t / T]: each row's is computed alone.
    """
    n = len(z_s)
    if z_t is None:
        grad = softmax(z_s) - targets
    else:
        t = cfg.temperature
        sigma = softmax(np.concatenate((z_s, z_s / t, z_t / t)))
        grad = sigma[:n] - targets
        grad *= 1.0 - cfg.alpha
        grad += cfg.alpha * t * (sigma[n : 2 * n] - sigma[2 * n :])
    grad /= n
    return grad


_NORM_FLOOR = 1e-12


def contrastive_loss(h_s: np.ndarray, h_t: np.ndarray, projection: np.ndarray) -> float:
    """1 - cos(P h_s, h_t); degenerate (near-zero-norm) vectors score 1."""
    h_s = np.asarray(h_s, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    if projection.shape != (h_t.shape[0], h_s.shape[0]):
        raise ValueError(
            f"projection shape {projection.shape} incompatible with |h_t|={h_t.shape[0]}, |h_s|={h_s.shape[0]}"
        )
    u = projection @ h_s
    nu = float(np.linalg.norm(u))
    nt = float(np.linalg.norm(h_t))
    if nu < _NORM_FLOOR or nt < _NORM_FLOOR:
        return 1.0
    return float(1.0 - (u @ h_t) / (nu * nt))


def contrastive_grads(
    hidden_s: np.ndarray, hidden_t: np.ndarray, projection: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the summed per-row ``contrastive_loss``: (d / d hidden_s,
    d / d projection), zero on rows where the loss is the constant fallback.
    The row norms are computed as ``np.linalg.norm(u, axis=1)`` computes them."""
    u = hidden_s @ projection.T
    nu = np.sqrt((u * u).sum(axis=1))
    nt = np.sqrt((hidden_t * hidden_t).sum(axis=1))
    valid = (nu >= _NORM_FLOOR) & (nt >= _NORM_FLOOR)
    denom = np.where(valid, nu * nt, 1.0)
    cos = np.where(valid, (u * hidden_t).sum(axis=1) / denom, 0.0)
    d_u = -(hidden_t / denom[:, None] - (cos / np.where(valid, nu * nu, 1.0))[:, None] * u)
    d_u[~valid] = 0.0
    return d_u @ projection, d_u.T @ hidden_s


# ---------------------------------------------------------------------------
# Mini-batch training
# ---------------------------------------------------------------------------


def _onehot(y: np.ndarray) -> np.ndarray:
    out = np.zeros((y.shape[0], 2))
    out[np.arange(y.shape[0]), y.astype(np.int64)] = 1.0
    return out


def train_student(
    X: sparse.csr_matrix,
    y: np.ndarray,
    label: int,
    student: ModelState,
    teacher: ModelState | None,
    cfg: DistillConfig,
    rng: np.random.Generator,
    lr: float,
    projection: np.ndarray | None = None,
    contrastive_weight: float | None = None,
) -> tuple[ModelState, np.ndarray | None]:
    """Train the student with the combined loss against a frozen teacher.

    A step forwards the teacher on its own batch when it reads the
    teacher's logits (``alpha > 0``) or hidden state (a projection).
    ``teacher=None`` trains on the hard loss alone at full weight, which is
    how the teacher itself is fine-tuned.  When a projection matrix is
    given, with its ``contrastive_weight`` beta, the total loss becomes
    (1 - beta) * combined + beta * contrastive and the projection is
    trained jointly.

    Each step checks every update, the projection's included, before it
    writes any of them, and works in place, bit for bit, on a student whose
    arrays are views into its ``flat``, as checked first.
    """
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty split")
    student.check_packed()
    soft = teacher is not None and cfg.alpha > 0.0
    contrastive = teacher is not None and projection is not None
    targets = _onehot(y)
    for _ in range(cfg.epochs):
        for Xb in sparse_batches(X, cfg.batch_size, rng.permutation(n)):
            cache = forward_batch(student, Xb, label)
            if soft or contrastive:
                teacher_cache = forward_batch(teacher, Xb, label)
            dlogits = kd_loss_grad(cache.logits, targets[Xb.rows], teacher_cache.logits if soft else None, cfg)

            dhidden = d_projection = None
            if contrastive:
                d_hidden_s, d_proj_sum = contrastive_grads(cache.hidden, teacher_cache.hidden, projection)
                dlogits *= 1.0 - contrastive_weight
                dhidden = (contrastive_weight / Xb.rows.size) * d_hidden_s
                d_projection = (contrastive_weight / Xb.rows.size) * d_proj_sum
            grads = backward_batch(student, cache, dlogits, dhidden_extra=dhidden)
            student = sgd_step(student, grads, lr, projection, d_projection)
    return student, projection


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def _resolve_label_order(num_labels: int, label_order) -> list[int]:
    """Vocabulary order unless an explicit permutation is supplied."""
    if label_order is None:
        return list(range(num_labels))
    order = [int(j) for j in label_order]
    if sorted(order) != list(range(num_labels)):
        raise ValueError(f"label_order must be a permutation of 0..{num_labels - 1}")
    return order


def _fold_features(
    tokens: list[list[str]],
    train_idx: list[int],
    val_idx: list[int],
    dim: int,
    max_length: int,
) -> tuple[np.ndarray, sparse.csr_matrix, sparse.csr_matrix]:
    """(columns, X_train, X_val): a fold's TF-IDF rows (IDF from its training
    part) narrowed to the sorted hashed ``columns`` they touch, ``columns[c]``
    becoming c.  The map is monotonic, so every sparse product keeps its bits."""
    vectorizer = HashingTfidfVectorizer(dim=dim, max_length=max_length)
    vectorizer.fit([tokens[i] for i in train_idx])
    X_train = vectorizer.transform([tokens[i] for i in train_idx])
    X_val = vectorizer.transform([tokens[i] for i in val_idx])
    columns = np.unique(np.concatenate([X_train.indices, X_val.indices]))

    def narrow(X: sparse.csr_matrix) -> sparse.csr_matrix:
        indices = np.searchsorted(columns, X.indices)
        return sparse.csr_matrix((X.data, indices, X.indptr), shape=(X.shape[0], columns.size))

    return columns, narrow(X_train), narrow(X_val)


@dataclass(frozen=True)
class Fit:
    """A cross-validated run not yet started: its folds are featurized with
    ``dim`` hashed columns and ``max_length`` tokens, and ``fit_fold(fold,
    X_train, Y_train, X_val, labels, columns)`` trains fresh models on one
    fold, whose features hold only the hashed ``columns`` its documents
    touch, and yields for each label in ``labels`` a tuple of ``outputs``
    arrays of validation positive-class probabilities.
    ``fresh_per_label`` makes each label a unit."""

    dim: int
    max_length: int
    fit_fold: Callable[..., Iterator[tuple[np.ndarray, ...]]]
    fresh_per_label: bool = False
    outputs: int = 1


def cross_validate(
    corpus: Corpus, folds: FoldAssignment, fits: Sequence[Fit], label_order=None, workers: int = 1
) -> list[PredictionSet | ValueError | ArithmeticError]:
    """Out-of-fold predictions of every output of every fit run on every fold.

    The work units are ``(fit, fold, labels)``, fit-major, then fold-major:
    one per fold with the whole label order when labels are chained, one
    per (fold, label) when the fit's labels are independent.  The caller
    featurizes each distinct (fold, dim, tokens ``max_length`` keeps) once,
    in unit order, raising any error there, and the units run on one
    ``parallel.map`` over up to ``workers`` forked processes, which inherit
    those features.  The checks and the recording of predictions, in unit
    order, stay in the caller, so the output does not depend on
    ``workers``.  The results are flat, in fit order and then output order:
    each output's ``PredictionSet``, or for every output of a failed fit
    the ``ValueError`` or ``ArithmeticError`` of its first failing unit in
    unit order.  A process takes its units in unit order and skips a fit's
    units once one has failed.  Any other exception ends the map.
    """
    if set(folds.fold_of) != {d.id for d in corpus.documents}:
        raise ValueError("fold assignment does not cover exactly the corpus documents")
    order = _resolve_label_order(len(corpus.vocab), label_order)
    labels_matrix = corpus.label_matrix()
    tokens = [tokenize(d.text) for d in corpus.documents]
    splits = []
    for fold in range(folds.k):
        train_idx = folds.train_indices(corpus, fold)
        val_idx = folds.val_indices(corpus, fold)
        if not train_idx or not val_idx:
            raise ValueError(f"fold {fold} leaves an empty training or validation split")
        splits.append((train_idx, val_idx))
    units = [
        (f, fold, labels)
        for f, fit in enumerate(fits)
        for fold in range(folds.k)
        for labels in ([[j] for j in order] if fit.fresh_per_label else [order])
    ]
    longest = max(map(len, tokens), default=0)  # a max_length at or above it cuts no document
    kept = [min(fit.max_length, longest) for fit in fits]
    keys = dict.fromkeys((fold, fits[f].dim, kept[f]) for f, fold, _ in units)  # in unit order
    features = {(fold, dim, n): _fold_features(tokens, *splits[fold], dim, n) for fold, dim, n in keys}
    failed: set[int] = set()  # the fits with a unit that failed in this process

    def run_unit(unit: tuple[int, int, list[int]]) -> list[np.ndarray] | ValueError | ArithmeticError | None:
        f, fold, labels = unit
        if f in failed:
            return None  # skipped: an earlier unit of this fit failed
        fit, (train_idx, _) = fits[f], splits[fold]
        columns, X_train, X_val = features[fold, fit.dim, kept[f]]
        try:
            return list(fit.fit_fold(fold, X_train, labels_matrix[train_idx], X_val, labels, columns))
        except (ValueError, ArithmeticError) as exc:
            failed.add(f)
            return exc.with_traceback(None)  # the failing frames need not stay alive

    def collect(f: int) -> list[PredictionSet | ValueError | ArithmeticError]:
        predictions = [PredictionSet(corpus.vocab.labels) for _ in range(fits[f].outputs)]
        try:
            for (g, fold, labels), per_label in zip(units, outcomes):
                if g != f:
                    continue
                if isinstance(per_label, Exception):
                    return [per_label] * len(predictions)
                _, val_idx = splits[fold]
                val_ids = [corpus.documents[i].id for i in val_idx]
                n = len(val_ids)
                for j, probs in zip(labels, per_label, strict=True):
                    truth = labels_matrix[val_idx, j].tolist()
                    for output, p in zip(predictions, probs, strict=True):
                        output.add_many(val_ids, [j] * n, p.tolist(), truth, [fold] * n)
            for output in predictions:
                output.validate_complete()
        except (ValueError, ArithmeticError) as exc:
            return [exc.with_traceback(None)] * len(predictions)
        return predictions

    outcomes = parallel.map(run_unit, units, workers)
    return [result for f in range(len(fits)) for result in collect(f)]


def raise_first_failure(results: list) -> list[PredictionSet]:
    """``cross_validate``'s results, if no fit failed; else the first failure raises."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def distillation_fit(
    teacher_spec: EncoderSpec, students: tuple[tuple[EncoderSpec, float | None], ...], cfg: DistillConfig,
    seed: int, fresh_per_label: bool, lr_scale: float,
) -> Fit:
    """Per label: fine-tune the teacher on the hard loss, then distill that
    frozen teacher into each student, a (spec, contrastive weight or None)
    pair, and record each student's validation probabilities, in order.

    With no students the teacher's own probabilities are recorded.
    Sequential runs initialize once per fold and carry the encoders across
    labels; ``fresh_per_label`` trains each (fold, label) as its own work
    unit, from models of its own.  Each student draws its init, projection
    and batches from the keys it would draw alone, and the teacher is only
    read while students train, so each output equals its one-student fit.
    """
    if any(spec.input_dim != teacher_spec.input_dim for spec, _ in students):
        raise ValueError("teacher and student must share the feature dimensionality")
    lr = cfg.learning_rate * lr_scale

    def fit_fold(fold, X_train, Y_train, X_val, labels, columns):
        """Models drawn for the first of ``labels`` carry across the rest;
        every model's first layer holds only the fold's ``columns``."""
        num_labels, first = Y_train.shape[1], labels[0]
        teacher = init_model(teacher_spec, num_labels, derive_seed(seed, "init", "teacher", fold, first), columns)
        trained = []  # each student's (model, projection)
        for spec, weight in students:
            student = init_model(spec, num_labels, derive_seed(seed, "init", "student", fold, first), columns)
            projection = None
            if weight is not None:
                proj_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "init", "projection", fold, first)))
                projection = glorot_uniform(proj_rng, teacher_spec.hidden_dim, spec.hidden_dim)
            trained.append((student, projection))
        for j in labels:
            teacher, _ = train_student(
                X_train, Y_train[:, j], j, teacher, None, cfg, rng_for(seed, "batches", "teacher", fold, j), lr=lr
            )
            trained = [
                train_student(
                    X_train, Y_train[:, j], j, student, teacher, cfg, rng_for(seed, "batches", "student", fold, j),
                    lr=lr, projection=projection, contrastive_weight=weight,
                )
                for (student, projection), (_, weight) in zip(trained, students)
            ]
            recorded = [student for student, _ in trained] or [teacher]
            yield tuple(softmax(forward_batch(model, X_val, j).logits)[:, 1] for model in recorded)

    return Fit(teacher_spec.input_dim, cfg.max_length, fit_fold, fresh_per_label, max(len(students), 1))


def distill_sequential(
    corpus: Corpus,
    folds: FoldAssignment,
    teacher_spec: EncoderSpec,
    student_spec: EncoderSpec,
    cfg: DistillConfig,
    seed: int,
    contrastive_weight: float | None = None,
    lr_scale: float = DEFAULT_LR_SCALE,
    label_order=None,
    workers: int = 1,
) -> PredictionSet:
    """Teacher and student encoders persist across labels within a fold."""
    fit = distillation_fit(teacher_spec, ((student_spec, contrastive_weight),), cfg, seed, False, lr_scale)
    return raise_first_failure(cross_validate(corpus, folds, [fit], label_order, workers))[0]


def teacher_cv_predictions(
    corpus: Corpus,
    folds: FoldAssignment,
    teacher_spec: EncoderSpec,
    cfg: DistillConfig,
    seed: int,
    lr_scale: float = DEFAULT_LR_SCALE,
) -> PredictionSet:
    """Out-of-fold predictions of the teacher alone (no distillation).

    This is the sequential fit with no student, so the recorded teacher
    is the one every student distills from.
    """
    fit = distillation_fit(teacher_spec, (), cfg, seed, False, lr_scale)
    return raise_first_failure(cross_validate(corpus, folds, [fit]))[0]


# ---------------------------------------------------------------------------
# Classifier-chains baseline
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _train_logistic(
    X: sparse.csr_matrix,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        for Xb in sparse_batches(X, batch_size, rng.permutation(X.shape[0])):
            g = (_sigmoid(Xb @ w + b) - y[Xb.rows]) / Xb.rows.size
            w[Xb.active] -= lr * (Xb.active_block().T @ g)
            b -= lr * float(g.sum())
    return w, b


def chains_fit(cfg: DistillConfig, seed: int, feature_dim: int, lr: float = BASELINE_LEARNING_RATE) -> Fit:
    """TF-IDF + chained linear classifiers trained with logistic loss.

    Classifier j sees the feature row plus the bits of the labels
    earlier in the chain: the true bits while training, its own
    thresholded predictions at validation time.
    """

    def fit_fold(fold, X_train, Y_train, X_val, order, columns):
        y_train = Y_train.astype(np.float64)
        chain_train = np.zeros((X_train.shape[0], 0))
        chain_val = np.zeros((X_val.shape[0], 0))
        for j in order:
            X_j = sparse.hstack([X_train, sparse.csr_matrix(chain_train)], format="csr")
            w, b = _train_logistic(X_j, y_train[:, j], cfg.epochs, cfg.batch_size, lr, rng_for(seed, "chain", fold, j))
            X_val_j = sparse.hstack([X_val, sparse.csr_matrix(chain_val)], format="csr")
            probs = _sigmoid(np.asarray(X_val_j @ w) + b)
            yield (probs,)
            chain_train = np.hstack([chain_train, y_train[:, j][:, None]])
            chain_val = np.hstack([chain_val, (probs >= 0.5).astype(np.float64)[:, None]])

    return Fit(feature_dim, cfg.max_length, fit_fold)

