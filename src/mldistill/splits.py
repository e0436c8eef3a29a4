"""Topic-distribution-preserving sampling and stratified k-fold splits.

Multi-label stratification uses greedy iterative stratification:
documents are placed in order of their rarest unassigned label, each
into the group with the greatest remaining demand for that label, with
ties broken by smallest current group size and then lowest group index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from mldistill.corpus import Corpus
from mldistill.seeding import rng_for


@dataclass(frozen=True)
class FoldAssignment:
    """Document id -> fold index, for a k-fold partition."""

    k: int
    fold_of: dict[str, int]

    def val_indices(self, corpus: Corpus, fold: int) -> list[int]:
        return [i for i, d in enumerate(corpus.documents) if self.fold_of[d.id] == fold]

    def train_indices(self, corpus: Corpus, fold: int) -> list[int]:
        return [i for i, d in enumerate(corpus.documents) if self.fold_of[d.id] != fold]

    def content_hash(self) -> str:
        """Stable digest of the assignment, for run manifests."""
        payload = json.dumps({"k": self.k, "folds": sorted(self.fold_of.items())})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _greedy_assign(
    label_matrix: np.ndarray,
    capacities: list[int],
    demands: np.ndarray,
    order: np.ndarray,
) -> np.ndarray:
    """Assign each row of ``label_matrix`` to one of len(capacities) groups.

    ``demands`` is (n_labels, n_groups) of real-valued remaining demand
    per label and group; ``order`` fixes the processing order among
    documents competing for the same label.
    """
    n_docs, n_labels = label_matrix.shape
    assignment = np.full(n_docs, -1, dtype=np.int64)
    sizes = [0] * len(capacities)
    remaining = capacities[:]
    rank = np.empty(n_docs, dtype=np.int64)
    rank[order] = np.arange(n_docs)

    unassigned_pos = [set(np.flatnonzero(label_matrix[:, j]).tolist()) for j in range(n_labels)]

    def place(doc: int, group: int) -> None:
        assignment[doc] = group
        sizes[group] += 1
        remaining[group] -= 1
        for j in np.flatnonzero(label_matrix[doc]):
            demands[j, group] -= 1.0
            unassigned_pos[j].discard(doc)

    while True:
        counts = [(len(s), j) for j, s in enumerate(unassigned_pos) if s]
        if not counts:
            break
        _, label = min(counts)
        docs = sorted(unassigned_pos[label], key=lambda d: rank[d])
        for doc in docs:
            best = min(
                (g for g in range(len(capacities)) if remaining[g] > 0),
                key=lambda g: (-demands[label, g], sizes[g], g),
            )
            place(doc, best)

    # Documents with no positive labels: fill by remaining capacity.
    leftovers = [d for d in order if assignment[d] < 0]
    for doc in leftovers:
        best = min(
            (g for g in range(len(capacities)) if remaining[g] > 0),
            key=lambda g: (-remaining[g], sizes[g], g),
        )
        place(doc, best)
    return assignment


def stratified_kfold(corpus: Corpus, k: int, seed: int) -> FoldAssignment:
    """Partition a corpus into k folds balancing every label's positives.

    Fold sizes differ by at most one; for each label and fold the
    positive count stays within +-1 of the proportional ideal whenever
    the greedy placement can achieve it.
    """
    n = len(corpus)
    if k < 2 or k > n:
        raise ValueError(f"k must satisfy 2 <= k <= |corpus| = {n}, got {k}")
    label_matrix = corpus.label_matrix().astype(np.int64)
    positives = label_matrix.sum(axis=0).astype(np.float64)

    q, r = divmod(n, k)
    capacities = [q + 1 if f < r else q for f in range(k)]
    demands = np.tile((positives / k)[:, None], (1, k))
    order = rng_for(seed, "kfold").permutation(n)

    assignment = _greedy_assign(label_matrix, capacities, demands, order)
    fold_of = {d.id: int(assignment[i]) for i, d in enumerate(corpus.documents)}
    return FoldAssignment(k=k, fold_of=fold_of)


def stratified_sample(corpus: Corpus, size: int, seed: int) -> Corpus:
    """Select ``size`` documents preserving per-label prevalence.

    Runs the same greedy placement with two groups (sample, remainder)
    whose demands are the prevalence-proportional positive counts.  The
    sample keeps the original corpus order.
    """
    n = len(corpus)
    if size < 1 or size > n:
        raise ValueError(f"size must satisfy 1 <= size <= |corpus| = {n}, got {size}")
    if size == n:
        return corpus
    label_matrix = corpus.label_matrix().astype(np.int64)
    positives = label_matrix.sum(axis=0).astype(np.float64)

    capacities = [size, n - size]
    demands = np.stack([positives * (size / n), positives * ((n - size) / n)], axis=1)
    order = rng_for(seed, "sample").permutation(n)

    assignment = _greedy_assign(label_matrix, capacities, demands, order)
    selected = [i for i in range(n) if assignment[i] == 0]
    return corpus.subset(selected)
