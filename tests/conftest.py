import numpy as np
import pytest

from mldistill.corpus import Corpus, Document, HashingTfidfVectorizer, LabelVocabulary, tokenize
from mldistill.distill import _NORM_FLOOR as NORM_FLOOR
from mldistill.distill import cross_validate, raise_first_failure
from mldistill.model import softmax
from mldistill.synthetic import generate_synthetic


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """60 keyword-separable docs over 3 labels; fast to train on."""
    return generate_synthetic(60, num_labels=3, seed=101)


@pytest.fixture(scope="session")
def two_label_corpus() -> Corpus:
    return generate_synthetic(80, num_labels=2, seed=55)


def make_corpus(label_sets: list[list[str]], vocab_names: list[str], texts: list[str] | None = None) -> Corpus:
    vocab = LabelVocabulary(tuple(vocab_names))
    docs = []
    for i, names in enumerate(label_sets):
        bits = [1 if v in names else 0 for v in vocab_names]
        text = texts[i] if texts else f"doc number {i} text"
        docs.append(Document(id=str(i), text=text, label_set=tuple(bits)))
    return Corpus(tuple(docs), vocab)


def featurize(corpus: Corpus, dim: int, max_length: int | None = None):
    """Hashed TF-IDF features for a whole corpus, IDF fitted on it."""
    tokens = [tokenize(d.text) for d in corpus.documents]
    return HashingTfidfVectorizer(dim=dim, max_length=max_length).fit(tokens).transform(tokens)


def cross_validated(corpus: Corpus, folds, fit, label_order=None, workers: int = 1):
    """The predictions of ``fit``'s one output, cross-validated alone; a failure raises."""
    return raise_first_failure(cross_validate(corpus, folds, [fit], label_order, workers))[0]


def dense(grad) -> np.ndarray:
    """A ``RowSliceGrad`` at full size: its block on its rows, zeros elsewhere."""
    out = np.zeros(grad.shape)
    out[grad.rows] = grad.block
    return out


# The step algebra as it was written before the flat-parameter step: the
# references the rewritten gradients must equal bit for bit.


def three_softmax_kd_loss_grad(z_s, targets, z_t, cfg) -> np.ndarray:
    """``kd_loss_grad`` with one ``softmax`` call per softmax."""
    grad = softmax(z_s) - targets
    if z_t is not None:
        grad *= 1.0 - cfg.alpha
        grad += cfg.alpha * cfg.temperature * (softmax(z_s / cfg.temperature) - softmax(z_t / cfg.temperature))
    grad /= len(z_s)
    return grad


def linalg_norm_contrastive_grads(hidden_s, hidden_t, projection):
    """``contrastive_grads`` with its row norms taken by ``np.linalg.norm``."""
    u = hidden_s @ projection.T
    nu = np.linalg.norm(u, axis=1)
    nt = np.linalg.norm(hidden_t, axis=1)
    valid = (nu >= NORM_FLOOR) & (nt >= NORM_FLOOR)
    denom = np.where(valid, nu * nt, 1.0)
    cos = np.where(valid, (u * hidden_t).sum(axis=1) / denom, 0.0)
    d_u = -(hidden_t / denom[:, None] - (cos / np.where(valid, nu * nu, 1.0))[:, None] * u)
    d_u[~valid] = 0.0
    return d_u @ projection, d_u.T @ hidden_s
