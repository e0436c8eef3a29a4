"""Corpus ingestion, tokenization, and hashed TF-IDF features.

A corpus is a list of documents, each carrying raw text and a label
bit-vector over an ordered label vocabulary.  Features are signed
hashed TF-IDF rows, L2-normalized, stored sparse.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from mldistill.config import DEFAULT_FEATURE_DIM
from mldistill.errors import DataError, utf8_fault

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered label names; position in the list is the label index."""

    labels: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise DataError("label vocabulary is empty")
        if any(not name for name in self.labels):
            raise DataError("label vocabulary contains an empty name")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("label vocabulary contains duplicates")
        object.__setattr__(self, "index", {name: j for j, name in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label_set: tuple[int, ...]  # one bit per vocabulary label

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise DataError(f"document {self.id!r} has empty text")


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    vocab: LabelVocabulary

    def __post_init__(self) -> None:
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate document ids in corpus")
        width = len(self.vocab)
        for d in self.documents:
            if len(d.label_set) != width:
                raise DataError(f"document {d.id!r} label_set width != |vocab|")

    def __len__(self) -> int:
        return len(self.documents)

    def label_matrix(self) -> np.ndarray:
        """(n_docs, n_labels) 0/1 matrix in corpus order."""
        return np.array([d.label_set for d in self.documents], dtype=np.int8).reshape(
            len(self.documents), len(self.vocab)
        )

    def prevalence(self) -> np.ndarray:
        """Per-label positive fraction."""
        if not self.documents:
            raise DataError("prevalence of an empty corpus is undefined")
        return self.label_matrix().mean(axis=0)

    def subset(self, indices: list[int]) -> "Corpus":
        return Corpus(tuple(self.documents[i] for i in indices), self.vocab)


def load_vocab(path: str | Path) -> LabelVocabulary:
    """Read one label per line; line order defines the label index.  Blank
    lines are skipped; a repeated label is rejected with its 0-based line."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines()):
        fault = utf8_fault(line)
        if fault is not None:
            raise DataError(f"vocabulary line {lineno}: {fault}")
        name = line.strip()
        if name in first_line:
            raise DataError(f"vocabulary line {lineno}: duplicate label {name!r} (first on line {first_line[name]})")
        if name:
            first_line[name] = lineno
    return LabelVocabulary(tuple(first_line))


def save_vocab(vocab: LabelVocabulary, path: str | Path) -> None:
    Path(path).write_text("".join(name + "\n" for name in vocab.labels), encoding="utf-8")


def load_corpus(path: str | Path, vocab_path: str | Path) -> Corpus:
    """Load a line-delimited corpus file against a vocabulary file.

    Each line is a JSON object with fields ``text`` (string), ``labels``
    (list of label names) and an optional ``id`` (defaults to the
    0-based line number).  Unknown labels, malformed records, empty text
    and repeated ids are rejected with the offending line number.
    """
    vocab = load_vocab(vocab_path)
    documents: list[Document] = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh):
            fault = utf8_fault(line)
            if fault is not None:
                raise DataError(f"line {lineno}: {fault}")
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # malformed, or an integer past int's digit limit
                raise DataError(f"line {lineno}: malformed record ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(record, dict):
                raise DataError(f"line {lineno}: record is not an object")
            text = record.get("text")
            labels = record.get("labels")
            if not isinstance(text, str) or not text.strip():
                raise DataError(f"line {lineno}: missing or empty 'text'")
            if not isinstance(labels, list) or any(not isinstance(x, str) for x in labels):
                raise DataError(f"line {lineno}: 'labels' must be a list of strings")
            bits = [0] * len(vocab)
            for name in labels:
                if name not in vocab.index:
                    raise DataError(f"line {lineno}: unknown label {name!r}")
                bits[vocab.index[name]] = 1
            doc_id = str(record.get("id", lineno))
            if doc_id in first_line:
                raise DataError(f"line {lineno}: duplicate document id {doc_id!r} (first on line {first_line[doc_id]})")
            first_line[doc_id] = lineno
            documents.append(Document(id=doc_id, text=text, label_set=tuple(bits)))
    return Corpus(tuple(documents), vocab)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the line-delimited corpus format read by :func:`load_corpus`."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in corpus.documents:
            names = [corpus.vocab.labels[j] for j, bit in enumerate(d.label_set) if bit]
            fh.write(json.dumps({"id": d.id, "text": d.text, "labels": names}) + "\n")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def _hash_token(token: str) -> tuple[int, int]:
    """Stable (bucket-hash, sign) pair for a token.

    The first 8 digest bytes index the bucket; one extra bit decides the
    sign, which cancels the expected bias of hash collisions.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9).digest()
    bucket = int.from_bytes(digest[:8], "little")
    sign = 1 if digest[8] & 1 else -1
    return bucket, sign


class HashingTfidfVectorizer:
    """Signed feature hashing combined with smooth IDF weighting.

    ``fit`` learns document frequencies from a token-list iterable (the
    training portion when used inside cross-validation); ``transform``
    maps token lists to L2-normalized sparse rows.  Tokens beyond
    ``max_length`` per document are ignored.
    """

    def __init__(self, dim: int = DEFAULT_FEATURE_DIM, max_length: int | None = None):
        if dim < 2:
            raise ValueError(f"feature dim must be >= 2, got {dim}")
        self.dim = dim
        self.max_length = max_length
        self.df_: dict[str, int] | None = None
        self.n_docs_: int = 0
        self._hash_cache: dict[str, tuple[int, int]] = {}

    def _tokens(self, tokens: list[str]) -> list[str]:
        if self.max_length is not None:
            return tokens[: self.max_length]
        return tokens

    def fit(self, docs_tokens: list[list[str]]) -> "HashingTfidfVectorizer":
        if not docs_tokens:
            raise ValueError("cannot fit vectorizer on an empty corpus")
        df: Counter[str] = Counter()
        for tokens in docs_tokens:
            df.update(set(self._tokens(tokens)))
        self.df_ = dict(df)
        self.n_docs_ = len(docs_tokens)
        return self

    def idf(self, token: str) -> float:
        """ln((1 + N) / (1 + df)) + 1 over the fitted corpus."""
        if self.df_ is None:
            raise ValueError("vectorizer is not fitted")
        return math.log((1 + self.n_docs_) / (1 + self.df_.get(token, 0))) + 1.0

    def _bucket_sign(self, token: str) -> tuple[int, int]:
        cached = self._hash_cache.get(token)
        if cached is None:
            bucket, sign = _hash_token(token)
            cached = (bucket % self.dim, sign)
            self._hash_cache[token] = cached
        return cached

    def transform(self, docs_tokens: list[list[str]]) -> sparse.csr_matrix:
        if self.df_ is None:
            raise ValueError("vectorizer is not fitted")
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for tokens in docs_tokens:
            counts = Counter(self._tokens(tokens))
            row: dict[int, float] = {}
            for token, tf in counts.items():
                bucket, sign = self._bucket_sign(token)
                row[bucket] = row.get(bucket, 0.0) + sign * tf * self.idf(token)
            cols = sorted(row)
            values = [row[c] for c in cols]
            norm = math.sqrt(sum(v * v for v in values))
            if norm > 0.0:
                values = [v / norm for v in values]
            indices.extend(cols)
            data.extend(values)
            indptr.append(len(indices))
        matrix = sparse.csr_matrix(
            (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
            shape=(len(docs_tokens), self.dim),
        )
        return matrix
