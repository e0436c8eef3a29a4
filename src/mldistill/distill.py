"""Distillation losses and the cross-validated multi-label training procedures.

The student trains against a temperature-scaled combination of two
terms: the KL divergence from the frozen teacher's softened distribution
to the student's (scaled by T^2 to compensate for the softening), and
the ordinary cross entropy against the true bit.  The teacher is
fine-tuned by the same training loop on the hard loss alone.

Every mode runs through one fold loop, ``_cross_validate``.  It checks
the folds and the label order, then runs the folds, serially or on
forked worker processes (``parallel.map``): each fold is featurized (IDF
from its training part only) and trained, and its out-of-fold
predictions are recorded in fold order.  A mode supplies a
per-fold generator that trains label by label, in vocabulary order
unless a permutation is given, and yields each label's validation
probabilities.  The distillation modes fine-tune the teacher and
distill it into the student (``teacher_cv_predictions`` records the
teacher alone); the classifier-chains baseline trains one logistic
classifier per label.  Epochs are innermost.  In the sequential variants
the encoders persist across labels within a fold, which is the channel
that carries cross-label information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy import sparse

from mldistill import parallel
from mldistill.corpus import Corpus, HashingTfidfVectorizer, tokenize
from mldistill.model import (
    EncoderSpec,
    ModelState,
    SparseBatch,
    backward_batch,
    forward_batch,
    forward_rows,
    glorot_uniform,
    init_model,
    sgd_step,
    softmax_t,
    sparse_batches,
)
from mldistill.predictions import PredictionSet
from mldistill.seeding import derive_seed, rng_for
from mldistill.splits import FoldAssignment

# Bridges the config-level learning rate (quoted at transformer
# fine-tuning scale) to plain SGD on randomly initialized desk-scale
# encoders, which needs O(0.1..1) steps to move at all.  5e3 keeps the
# presets well inside the converging regime and maps the lower end of
# the tuning range onto it too.
DEFAULT_LR_SCALE = 5e3

DEFAULT_CONTRASTIVE_WEIGHT = 0.5
BASELINE_LEARNING_RATE = 1.0

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


def soft_loss_grad(z_s, z_t, temperature: float) -> np.ndarray:
    """d soft_loss / d z_s = T * (sigma_s - sigma_t)."""
    sigma_s = softmax_t(z_s, temperature)
    sigma_t = softmax_t(z_t, temperature)
    return temperature * (sigma_s - sigma_t)


def hard_loss(z_s, y: int) -> float:
    """Cross entropy of the student logits against the true bit."""
    log_s = _log_softmax(np.asarray(z_s, dtype=np.float64))
    return float(-log_s[..., int(y)])


def hard_loss_grad(z_s, y: int) -> np.ndarray:
    grad = softmax_t(z_s, 1.0)
    grad[..., int(y)] -= 1.0
    return grad


def kd_loss(z_s, z_t, y: int, cfg: DistillConfig) -> float:
    """alpha * soft + (1 - alpha) * hard, exactly."""
    return cfg.alpha * soft_loss(z_s, z_t, cfg.temperature) + (1.0 - cfg.alpha) * hard_loss(z_s, y)


def kd_loss_grad(z_s, z_t, y: int, cfg: DistillConfig) -> np.ndarray:
    return cfg.alpha * soft_loss_grad(z_s, z_t, cfg.temperature) + (1.0 - cfg.alpha) * hard_loss_grad(z_s, y)


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
    h_s: np.ndarray, h_t: np.ndarray, projection: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d loss / d h_s, d loss / d projection); zero where the loss is the
    constant fallback."""
    h_s = np.asarray(h_s, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    u = projection @ h_s
    nu = float(np.linalg.norm(u))
    nt = float(np.linalg.norm(h_t))
    if nu < _NORM_FLOOR or nt < _NORM_FLOOR:
        return np.zeros_like(h_s), np.zeros_like(projection)
    cos = (u @ h_t) / (nu * nt)
    d_u = -(h_t / (nu * nt) - cos * u / (nu * nu))
    return projection.T @ d_u, np.outer(d_u, h_s)


def _batch_contrastive(
    hidden_s: np.ndarray, hidden_t: np.ndarray, projection: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-row contrastive losses and gradients.

    Returns (losses, d/d hidden_s, d/d projection summed over rows).
    """
    u = hidden_s @ projection.T
    nu = np.linalg.norm(u, axis=1)
    nt = np.linalg.norm(hidden_t, axis=1)
    valid = (nu >= _NORM_FLOOR) & (nt >= _NORM_FLOOR)
    denom = np.where(valid, nu * nt, 1.0)
    cos = np.where(valid, (u * hidden_t).sum(axis=1) / denom, 0.0)
    losses = np.where(valid, 1.0 - cos, 1.0)
    d_u = -(hidden_t / denom[:, None] - (cos / np.where(valid, nu * nu, 1.0))[:, None] * u)
    d_u[~valid] = 0.0
    return losses, d_u @ projection, d_u.T @ hidden_s


# ---------------------------------------------------------------------------
# Mini-batch training
# ---------------------------------------------------------------------------


def _epoch_batches(
    X: sparse.csr_matrix, batch_size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, SparseBatch]]:
    """Seeded shuffle once per epoch; yields (row ids, rows of X) per batch,
    the last partial batch kept.

    The matrix is permuted once per epoch and split into contiguous row
    ranges of it by ``sparse_batches``, which plans every batch's active
    columns at once: the same rows in the same order as indexing the rows
    of every batch, with no per-step sparse matrix or set operation.
    """
    n = X.shape[0]
    order = rng.permutation(n)
    for start, batch in zip(range(0, n, batch_size), sparse_batches(X[order], batch_size)):
        yield order[start : start + batch_size], batch


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
    lr: float | None = None,
    projection: np.ndarray | None = None,
    contrastive_weight: float | None = None,
) -> tuple[ModelState, np.ndarray | None]:
    """Train the student with the combined loss against a frozen teacher.

    ``teacher=None`` trains on the hard loss alone at full weight, which
    is how the teacher itself is fine-tuned.  When a projection matrix is
    given the total loss becomes (1 - beta) * combined + beta *
    contrastive and the projection is trained jointly.

    The teacher is forwarded once per call, over the whole split, and only
    when its logits (``alpha > 0``) or its hidden state (a projection) are
    needed; each batch takes its rows from that pass through
    ``forward_rows``.  Each step checks every update, the projection's
    included, before it writes any of them.
    """
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty split")
    lr = cfg.learning_rate if lr is None else lr
    beta = contrastive_weight
    if projection is not None and beta is None:
        beta = DEFAULT_CONTRASTIVE_WEIGHT
    soft = teacher is not None and cfg.alpha > 0.0
    contrastive = teacher is not None and projection is not None
    teacher_cache = forward_batch(teacher, X, label) if soft or contrastive else None
    targets = _onehot(y)
    for _ in range(cfg.epochs):
        for rows, Xb in _epoch_batches(X, cfg.batch_size, rng):
            cache = forward_batch(student, Xb, label)
            dlogits = softmax_t(cache.logits, 1.0) - targets[rows]
            if teacher_cache is not None:
                teacher_hidden, teacher_logits = forward_rows(teacher, teacher_cache, rows)
            if teacher is not None:
                dlogits *= 1.0 - cfg.alpha
            if soft:
                dlogits += cfg.alpha * cfg.temperature * (
                    softmax_t(cache.logits, cfg.temperature) - softmax_t(teacher_logits, cfg.temperature)
                )
            dlogits /= rows.size

            dhidden = None
            new_projection = None
            if contrastive:
                _, d_hidden_s, d_proj_sum = _batch_contrastive(cache.hidden, teacher_hidden, projection)
                dlogits *= 1.0 - beta
                dhidden = (beta / rows.size) * d_hidden_s
                new_projection = projection - lr * ((beta / rows.size) * d_proj_sum)
                if not np.isfinite(new_projection).all():
                    raise ValueError("non-finite gradient step in contrastive projection")

            grads = backward_batch(student, cache, dlogits, dhidden_extra=dhidden)
            student = sgd_step(student, grads, lr)
            if new_projection is not None:
                projection[...] = new_projection
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
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    # IDF statistics come from the training portion only.
    vectorizer = HashingTfidfVectorizer(dim=dim, max_length=max_length)
    vectorizer.fit([tokens[i] for i in train_idx])
    X_train = vectorizer.transform([tokens[i] for i in train_idx])
    X_val = vectorizer.transform([tokens[i] for i in val_idx])
    return X_train, X_val


def _cross_validate(
    corpus: Corpus,
    folds: FoldAssignment,
    dim: int,
    max_length: int,
    label_order,
    fit_fold: Callable[..., Iterator[np.ndarray]],
    workers: int = 1,
) -> PredictionSet:
    """Out-of-fold predictions of ``fit_fold`` run on every fold.

    ``fit_fold(fold, X_train, Y_train, X_val, order)`` trains on one fold
    and yields the validation positive-class probabilities of each label
    in ``order``, one array per label.  The folds are featurized and
    trained on up to ``workers`` forked processes (``parallel.map``).  The
    checks, the token lists and the recording of predictions, in fold
    order, stay in the caller, so the output does not depend on
    ``workers``.
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

    def run_fold(fold: int) -> list[np.ndarray]:
        train_idx, val_idx = splits[fold]
        X_train, X_val = _fold_features(tokens, train_idx, val_idx, dim, max_length)
        return list(fit_fold(fold, X_train, labels_matrix[train_idx], X_val, order))

    predictions = PredictionSet(corpus.vocab.labels)
    for fold, per_label in enumerate(parallel.map(run_fold, range(folds.k), workers)):
        _, val_idx = splits[fold]
        val_ids = [corpus.documents[i].id for i in val_idx]
        for j, probs in zip(order, per_label, strict=True):
            for doc_id, prob, true_bit in zip(val_ids, probs, labels_matrix[val_idx, j]):
                predictions.add(doc_id, j, float(prob), int(true_bit), fold)
    predictions.validate_complete()
    return predictions


def _run_distillation(
    corpus: Corpus,
    folds: FoldAssignment,
    teacher_spec: EncoderSpec,
    student_spec: EncoderSpec | None,
    cfg: DistillConfig,
    seed: int,
    fresh_per_label: bool,
    contrastive_weight: float | None,
    lr_scale: float,
    label_order=None,
    workers: int = 1,
) -> PredictionSet:
    """Per label: fine-tune the teacher on the hard loss, then distill it
    into the student and record the student's validation probabilities.

    Without a ``student_spec`` the teacher's own probabilities are
    recorded.  Sequential runs initialize once per fold and carry the
    encoders across labels; ``fresh_per_label`` initializes anew for each
    label.
    """
    if student_spec is not None and teacher_spec.input_dim != student_spec.input_dim:
        raise ValueError("teacher and student must share the feature dimensionality")
    lr = cfg.learning_rate * lr_scale

    def fit_fold(fold, X_train, Y_train, X_val, order):
        num_labels = Y_train.shape[1]
        teacher = student = projection = None
        for j in order:
            if teacher is None or fresh_per_label:
                # drop the previous label's models before allocating the next
                teacher = student = projection = None
                teacher = init_model(teacher_spec, num_labels, derive_seed(seed, "init", "teacher", fold, j))
                if student_spec is not None:
                    student = init_model(student_spec, num_labels, derive_seed(seed, "init", "student", fold, j))
                if contrastive_weight is not None:
                    proj_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "init", "projection", fold, j)))
                    projection = glorot_uniform(proj_rng, teacher_spec.hidden_dim, student_spec.hidden_dim)

            teacher, _ = train_student(
                X_train, Y_train[:, j], j, teacher, None, cfg, rng_for(seed, "batches", "teacher", fold, j), lr=lr
            )
            if student_spec is None:
                yield softmax_t(forward_batch(teacher, X_val, j).logits, 1.0)[:, 1]
                continue
            student, projection = train_student(
                X_train,
                Y_train[:, j],
                j,
                student,
                teacher,
                cfg,
                rng_for(seed, "batches", "student", fold, j),
                lr=lr,
                projection=projection,
                contrastive_weight=contrastive_weight,
            )
            yield softmax_t(forward_batch(student, X_val, j).logits, 1.0)[:, 1]

    return _cross_validate(corpus, folds, teacher_spec.input_dim, cfg.max_length, label_order, fit_fold, workers)


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
    return _run_distillation(
        corpus, folds, teacher_spec, student_spec, cfg, seed,
        fresh_per_label=False, contrastive_weight=contrastive_weight, lr_scale=lr_scale,
        label_order=label_order, workers=workers,
    )


def distill_binary_relevance(
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
    """Fresh teacher and student per (fold, label): labels never interact."""
    return _run_distillation(
        corpus, folds, teacher_spec, student_spec, cfg, seed,
        fresh_per_label=True, contrastive_weight=contrastive_weight, lr_scale=lr_scale,
        label_order=label_order, workers=workers,
    )


def teacher_cv_predictions(
    corpus: Corpus,
    folds: FoldAssignment,
    teacher_spec: EncoderSpec,
    cfg: DistillConfig,
    seed: int,
    lr_scale: float = DEFAULT_LR_SCALE,
) -> PredictionSet:
    """Out-of-fold predictions of the teacher alone (no distillation).

    This is the sequential run without a student, so the recorded
    teacher is the one the student distills from.
    """
    return _run_distillation(
        corpus, folds, teacher_spec, None, cfg, seed,
        fresh_per_label=False, contrastive_weight=None, lr_scale=lr_scale,
    )


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
        for rows, Xb in _epoch_batches(X, batch_size, rng):
            g = (_sigmoid(Xb @ w + b) - y[rows]) / rows.size
            w[Xb.active] -= lr * (Xb.active_block().T @ g)
            b -= lr * float(g.sum())
    return w, b


def baseline_classifier_chains(
    corpus: Corpus,
    folds: FoldAssignment,
    cfg: DistillConfig,
    seed: int,
    feature_dim: int = 32768,
    lr: float = BASELINE_LEARNING_RATE,
    label_order=None,
    workers: int = 1,
) -> PredictionSet:
    """TF-IDF + chained linear classifiers trained with logistic loss.

    Classifier j sees the feature row plus the bits of the labels
    earlier in the chain: the true bits while training, its own
    thresholded predictions at validation time.
    """

    def fit_fold(fold, X_train, Y_train, X_val, order):
        y_train = Y_train.astype(np.float64)
        chain_train = np.zeros((X_train.shape[0], 0))
        chain_val = np.zeros((X_val.shape[0], 0))
        for j in order:
            X_j = sparse.hstack([X_train, sparse.csr_matrix(chain_train)], format="csr")
            w, b = _train_logistic(X_j, y_train[:, j], cfg.epochs, cfg.batch_size, lr, rng_for(seed, "chain", fold, j))
            X_val_j = sparse.hstack([X_val, sparse.csr_matrix(chain_val)], format="csr")
            probs = _sigmoid(np.asarray(X_val_j @ w) + b)
            yield probs
            chain_train = np.hstack([chain_train, y_train[:, j][:, None]])
            chain_val = np.hstack([chain_val, (probs >= 0.5).astype(np.float64)[:, None]])

    return _cross_validate(corpus, folds, feature_dim, cfg.max_length, label_order, fit_fold, workers)
