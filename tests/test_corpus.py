import json
import math

import numpy as np
import pytest

from mldistill.corpus import (
    HashingTfidfVectorizer,
    LabelVocabulary,
    load_corpus,
    save_corpus,
    tokenize,
)
from mldistill.errors import DataError
from mldistill.synthetic import generate_synthetic

from conftest import featurize, make_corpus


def write_corpus_file(tmp_path, lines, vocab=("A", "B")):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(x) + "\n" for x in lines))
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("".join(v + "\n" for v in vocab))
    return corpus_path, vocab_path


class TestLoadCorpus:
    def test_two_line_file(self, tmp_path):
        corpus_path, vocab_path = write_corpus_file(
            tmp_path,
            [{"text": "alpha beta", "labels": ["A"]}, {"text": "gamma", "labels": ["A", "B"]}],
        )
        corpus = load_corpus(corpus_path, vocab_path)
        assert len(corpus) == 2
        assert corpus.documents[0].label_set == (1, 0)
        assert corpus.documents[1].label_set == (1, 1)
        # ids default to line numbers, order preserved
        assert [d.id for d in corpus.documents] == ["0", "1"]

    def test_unknown_label_names_line(self, tmp_path):
        corpus_path, vocab_path = write_corpus_file(
            tmp_path,
            [{"text": "x y", "labels": ["A"]}, {"text": "z", "labels": ["C"]}],
        )
        with pytest.raises(DataError) as exc:
            load_corpus(corpus_path, vocab_path)
        assert "'C'" in str(exc.value)
        assert "line 1" in str(exc.value)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        corpus_path, vocab_path = write_corpus_file(tmp_path, [])
        corpus = load_corpus(corpus_path, vocab_path)
        assert len(corpus) == 0

    def test_empty_text_rejected(self, tmp_path):
        corpus_path, vocab_path = write_corpus_file(tmp_path, [{"text": "   ", "labels": []}])
        with pytest.raises(DataError, match="line 0"):
            load_corpus(corpus_path, vocab_path)

    def test_malformed_record_rejected(self, tmp_path):
        corpus_path, vocab_path = write_corpus_file(tmp_path, [])
        corpus_path.write_text("{not json}\n")
        with pytest.raises(DataError, match="line 0"):
            load_corpus(corpus_path, vocab_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        corpus_path, vocab_path = write_corpus_file(
            tmp_path,
            [{"id": "d", "text": "x", "labels": []}, {"id": "d", "text": "y", "labels": []}],
        )
        with pytest.raises(DataError, match="duplicate"):
            load_corpus(corpus_path, vocab_path)

    def test_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "out.jsonl"
        save_corpus(small_corpus, path)
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text("".join(v + "\n" for v in small_corpus.vocab.labels))
        again = load_corpus(path, vocab_path)
        assert [d.id for d in again.documents] == [d.id for d in small_corpus.documents]
        assert [d.label_set for d in again.documents] == [d.label_set for d in small_corpus.documents]


class TestVocabulary:
    def test_index_matches_order(self):
        vocab = LabelVocabulary(("x", "y", "z"))
        assert [vocab.index[name] for name in vocab.labels] == [0, 1, 2]

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            LabelVocabulary(("x", "x"))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            LabelVocabulary(())


class TestTokenize:
    def test_splits_and_lowercases(self):
        assert tokenize("Tumor-promoting inflammation!") == ["tumor", "promoting", "inflammation"]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_idempotent(self):
        assert tokenize("p53 P53") == ["p53", "p53"]

    def test_drops_empty_fragments(self):
        assert tokenize("--a__b  c--") == ["a", "b", "c"]


def brute_force_tfidf(docs_tokens, dim, max_length):
    """Independent dict-based recomputation of the hashing TF-IDF pipeline."""
    from mldistill.corpus import _hash_token

    truncated = [toks[:max_length] for toks in docs_tokens]
    n = len(truncated)
    df = {}
    for toks in truncated:
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    rows = []
    for toks in truncated:
        weights = {}
        for t in set(toks):
            tf = toks.count(t)
            idf = math.log((1 + n) / (1 + df[t])) + 1.0
            h, sign = _hash_token(t)
            b = h % dim
            weights[b] = weights.get(b, 0.0) + sign * tf * idf
        norm = math.sqrt(sum(v * v for v in weights.values()))
        if norm > 0:
            weights = {b: v / norm for b, v in weights.items()}
        rows.append(weights)
    return rows


class TestFeaturize:
    def test_single_token_doc_unit_weight(self):
        corpus = make_corpus([[]], ["A"], texts=["hello"])
        X = featurize(corpus, dim=64)
        row = X.getrow(0)
        assert row.nnz == 1
        assert abs(abs(row.data[0]) - 1.0) < 1e-12

    def test_idf_is_one_when_token_everywhere(self):
        vec = HashingTfidfVectorizer(dim=64)
        vec.fit([["shared", "a"], ["shared", "b"], ["shared", "c"]])
        assert vec.idf("shared") == pytest.approx(math.log(4 / 4) + 1.0)

    def test_disjoint_tokens_disjoint_support(self):
        corpus = make_corpus([[], []], ["A"], texts=["apple banana cherry", "dates elderberry fig"])
        X = featurize(corpus, dim=2 ** 20)
        s0 = set(X.getrow(0).indices.tolist())
        s1 = set(X.getrow(1).indices.tolist())
        assert s0 and s1 and not (s0 & s1)

    def test_matches_brute_force_recomputation(self):
        corpus = generate_synthetic(25, num_labels=2, seed=3)
        from mldistill.corpus import tokenize as tok

        docs_tokens = [tok(d.text) for d in corpus.documents]
        X = featurize(corpus, dim=512, max_length=10)
        expected = brute_force_tfidf(docs_tokens, dim=512, max_length=10)
        for i, weights in enumerate(expected):
            row = X.getrow(i)
            got = dict(zip(row.indices.tolist(), row.data.tolist()))
            assert set(got) == set(weights)
            for b in weights:
                assert got[b] == pytest.approx(weights[b], abs=1e-12)

    def test_row_norms_unit(self, small_corpus):
        X = featurize(small_corpus, dim=1024, max_length=64)
        for i in range(len(small_corpus)):
            row = X.getrow(i)
            if row.nnz:
                assert abs(np.sqrt((row.data ** 2).sum()) - 1.0) < 1e-9

    def test_max_length_truncates(self):
        corpus = make_corpus([[]], ["A"], texts=["one two three four five six"])
        short = featurize(corpus, dim=2 ** 16, max_length=2)
        assert short.getrow(0).nnz == 2

    def test_determinism(self, small_corpus):
        a = featurize(small_corpus, dim=256, max_length=32)
        b = featurize(small_corpus, dim=256, max_length=32)
        assert (a != b).nnz == 0

    def test_dim_validation(self, small_corpus):
        with pytest.raises(ValueError):
            featurize(small_corpus, dim=1)

    def test_empty_corpus_rejected(self):
        corpus = make_corpus([], ["A"])
        with pytest.raises(ValueError):
            featurize(corpus, dim=16)

    def test_idf_from_training_portion_only(self):
        vec = HashingTfidfVectorizer(dim=128)
        vec.fit([["seen", "twice"], ["seen"]])
        # unseen tokens take the df=0 smoothed value
        assert vec.idf("novel") == pytest.approx(math.log(3 / 1) + 1.0)
        matrix = vec.transform([["novel"]])
        assert matrix.getrow(0).nnz == 1
