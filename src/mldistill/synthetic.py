"""Keyword-separable synthetic corpora for tests and demos.

Each label owns a marker token; a document carries the label exactly
when the marker appears in its text.  Label bits are drawn from
per-label prevalences, optionally chained so that neighbouring labels
correlate.  Real corpora cannot be bundled, so this generator is the
substrate for every end-to-end check.
"""

from __future__ import annotations

import numpy as np

from mldistill.corpus import Corpus, Document, LabelVocabulary
from mldistill.seeding import rng_for

TOKENS_PER_DOC = (8, 16)  # the fewest and the most filler tokens of a document
FILLER_VOCAB = 200
KEYWORD_COPIES = 3  # how often a document repeats the marker of each of its labels


def default_prevalences(num_labels: int) -> list[float]:
    """Imbalanced prevalences from 0.45 down to 0.08, like real topic data."""
    if num_labels == 1:
        return [0.3]
    return [0.45 - (0.45 - 0.08) * j / (num_labels - 1) for j in range(num_labels)]


def generate_synthetic(
    num_docs: int,
    num_labels: int = 10,
    seed: int = 0,
    label_correlation: float = 0.0,
) -> Corpus:
    if num_docs < 1:
        raise ValueError("num_docs must be >= 1")
    if num_labels < 1:
        raise ValueError("num_labels must be >= 1")
    if not 0.0 <= label_correlation < 1.0:
        raise ValueError("label_correlation must lie in [0, 1)")
    prevalences = default_prevalences(num_labels)

    rng = rng_for(seed, "synthetic")
    vocab = LabelVocabulary(tuple(f"topic_{j:02d}" for j in range(num_labels)))
    fillers = [f"word{i:03d}" for i in range(FILLER_VOCAB)]
    markers = [f"marker{j:02d}" for j in range(num_labels)]

    documents = []
    for i in range(num_docs):
        bits = np.zeros(num_labels, dtype=np.int64)
        for j in range(num_labels):
            if j > 0 and rng.random() < label_correlation:
                bits[j] = bits[j - 1]
            else:
                bits[j] = 1 if rng.random() < prevalences[j] else 0
        n_tokens = int(rng.integers(TOKENS_PER_DOC[0], TOKENS_PER_DOC[1] + 1))
        tokens = [fillers[int(k)] for k in rng.integers(0, FILLER_VOCAB, size=n_tokens)]
        for j in range(num_labels):
            if bits[j]:
                tokens.extend([markers[j]] * KEYWORD_COPIES)
        rng.shuffle(tokens)
        documents.append(Document(id=str(i), text=" ".join(tokens), label_set=tuple(int(b) for b in bits)))
    return Corpus(tuple(documents), vocab)
