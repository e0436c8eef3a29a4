import numpy as np
import pytest

from mldistill.corpus import Corpus, Document, HashingTfidfVectorizer, LabelVocabulary, tokenize
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


def dense(grad) -> np.ndarray:
    """A ``RowSliceGrad`` at full size: its block on its rows, zeros elsewhere."""
    out = np.zeros(grad.shape)
    out[grad.rows] = grad.block
    return out
