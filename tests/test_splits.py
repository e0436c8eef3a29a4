import itertools

import numpy as np
import pytest

from mldistill.splits import stratified_kfold, stratified_sample
from mldistill.synthetic import generate_synthetic

from conftest import fold_sizes, make_corpus


def nested_counts_corpus():
    """100 docs: labels A (50), B (20), C (10) on disjoint blocks."""
    label_sets = []
    for i in range(100):
        if i < 50:
            label_sets.append(["A"])
        elif i < 70:
            label_sets.append(["B"])
        elif i < 80:
            label_sets.append(["C"])
        else:
            label_sets.append([])
    return make_corpus(label_sets, ["A", "B", "C"])


class TestStratifiedKFold:
    def test_forced_allocation_one_positive_per_fold(self):
        corpus = make_corpus([["A"]] * 5 + [[]] * 5, ["A"])
        folds = stratified_kfold(corpus, 5, seed=0)
        counts = [0] * 5
        for d in corpus.documents:
            if d.label_set[0]:
                counts[folds.fold_of[d.id]] += 1
        assert counts == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("seed", range(20))
    def test_positive_counts_within_one_of_ideal(self, seed):
        corpus = nested_counts_corpus()
        folds = stratified_kfold(corpus, 5, seed=seed)
        assert sorted(fold_sizes(corpus, folds)) == [20] * 5
        matrix = corpus.label_matrix()
        for j, ideal in enumerate([10, 4, 2]):
            per_fold = [0] * 5
            for i, d in enumerate(corpus.documents):
                if matrix[i, j]:
                    per_fold[folds.fold_of[d.id]] += 1
            for count in per_fold:
                assert abs(count - ideal) <= 1

    def test_leave_one_out(self):
        corpus = make_corpus([["A"]] * 3 + [[]] * 3, ["A"])
        folds = stratified_kfold(corpus, 6, seed=1)
        assert fold_sizes(corpus, folds) == [1] * 6

    def test_partition_property(self, small_corpus):
        folds = stratified_kfold(small_corpus, 4, seed=3)
        assert set(folds.fold_of) == {d.id for d in small_corpus.documents}
        sizes = fold_sizes(small_corpus, folds)
        assert sum(sizes) == len(small_corpus)
        assert max(sizes) - min(sizes) <= 1

    def test_determinism(self, small_corpus):
        a = stratified_kfold(small_corpus, 5, seed=9)
        b = stratified_kfold(small_corpus, 5, seed=9)
        assert a.fold_of == b.fold_of

    def test_k_validation(self, small_corpus):
        with pytest.raises(ValueError):
            stratified_kfold(small_corpus, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(small_corpus, len(small_corpus) + 1, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deviation_bound_on_random_corpora(self, seed):
        corpus = generate_synthetic(90, num_labels=4, seed=seed)
        k = 5
        folds = stratified_kfold(corpus, k, seed=seed)
        matrix = corpus.label_matrix()
        positives = matrix.sum(axis=0)
        for j in range(4):
            per_fold = [0] * k
            for i, d in enumerate(corpus.documents):
                if matrix[i, j]:
                    per_fold[folds.fold_of[d.id]] += 1
            bound = 1 + (1 if positives[j] % k != 0 else 0)
            for count in per_fold:
                assert abs(count - positives[j] / k) <= bound


class TestStratifiedSample:
    def test_identity_at_full_size(self, small_corpus):
        sample = stratified_sample(small_corpus, len(small_corpus), seed=5)
        assert [d.id for d in sample.documents] == [d.id for d in small_corpus.documents]

    def test_single_label_proportionality(self):
        corpus = make_corpus([["A"]] * 40 + [[]] * 60, ["A"])
        sample = stratified_sample(corpus, 50, seed=7)
        positives = sum(d.label_set[0] for d in sample.documents)
        assert abs(positives - 20) <= 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_multi_label_deviation_at_most_one(self, seed):
        # prevalences 0.5 / 0.2 / 0.1 over 100 docs, sample half
        corpus = nested_counts_corpus()
        sample = stratified_sample(corpus, 50, seed=seed)
        matrix = sample.label_matrix()
        for j, ideal in enumerate([25, 10, 5]):
            assert abs(int(matrix[:, j].sum()) - ideal) <= 1

    def test_small_instance_matches_exhaustive_feasibility(self):
        # 12 docs, 2 labels; exhaustive search certifies a deviation <= 1
        # subset exists, then the greedy result must achieve it too.
        label_sets = [["A"]] * 6 + [["B"]] * 3 + [[]] * 3
        corpus = make_corpus(label_sets, ["A", "B"])
        size = 6
        matrix = corpus.label_matrix()
        ideals = [round(size * p) for p in corpus.prevalence()]

        def deviation(indices):
            sub = matrix[list(indices)]
            return max(abs(int(sub[:, j].sum()) - ideals[j]) for j in range(2))

        best = min(deviation(c) for c in itertools.combinations(range(12), size))
        assert best <= 1  # feasibility certificate
        sample = stratified_sample(corpus, size, seed=3)
        picked = [int(d.id) for d in sample.documents]
        assert deviation(picked) <= 1

    def test_order_preserved(self):
        corpus = make_corpus([["A"]] * 10 + [[]] * 10, ["A"])
        sample = stratified_sample(corpus, 10, seed=2)
        ids = [int(d.id) for d in sample.documents]
        assert ids == sorted(ids)

    def test_determinism(self, small_corpus):
        a = stratified_sample(small_corpus, 30, seed=4)
        b = stratified_sample(small_corpus, 30, seed=4)
        assert [d.id for d in a.documents] == [d.id for d in b.documents]

    def test_size_validation(self, small_corpus):
        with pytest.raises(ValueError):
            stratified_sample(small_corpus, 0, seed=0)
        with pytest.raises(ValueError):
            stratified_sample(small_corpus, len(small_corpus) + 1, seed=0)


def test_sampling_changes_with_seed_but_keeps_prevalence():
    corpus = generate_synthetic(120, num_labels=3, seed=8)
    samples = [stratified_sample(corpus, 60, seed=s) for s in range(3)]
    memberships = [tuple(d.id for d in s.documents) for s in samples]
    assert len(set(memberships)) > 1
    base = corpus.prevalence()
    for s in samples:
        assert np.abs(s.prevalence() - base).max() <= 2 / 60 + 1e-9
