"""Shared builders for random test instances."""
from __future__ import annotations

import numpy as np

from coocvec import CooccurrenceStats, SparseMatrix


def make_stats(pairs: dict[tuple[int, int], float], n_words: int) -> CooccurrenceStats:
    return CooccurrenceStats.from_pairs(pairs, n_words)


def weighted_problem(
    n_rows: int,
    n_cols: int,
    targets: dict[tuple[int, int], float],
    weights: dict[tuple[int, int], float],
) -> tuple[SparseMatrix, np.ndarray]:
    """Targets and their weight column from (i, j) -> value dicts on one support."""
    matrix = SparseMatrix.from_entries(n_rows, n_cols, targets)
    return matrix, np.array([weights[key] for key in zip(matrix.i.tolist(), matrix.j.tolist())])


def random_stats(
    rng: np.random.Generator, n_words: int = 6, density: float = 0.5, symmetric: bool = False
) -> CooccurrenceStats:
    """Random sparse counts; symmetric mirrors every off-diagonal entry."""
    pairs: dict[tuple[int, int], float] = {}
    for i in range(n_words):
        for j in range(n_words):
            if symmetric and j < i:
                continue
            if rng.random() < density:
                v = float(np.round(rng.uniform(0.5, 8.0), 3))
                pairs[(i, j)] = v
                if symmetric and i != j:
                    pairs[(j, i)] = v
    if not pairs:
        j = min(1, n_words - 1)
        pairs[(0, j)] = 1.0
        if symmetric and j != 0:
            pairs[(j, 0)] = 1.0
    return CooccurrenceStats.from_pairs(pairs, n_words)


def random_count_tuples(
    rng: np.random.Generator, n: int, zero_fraction: float = 0.0
) -> list[tuple[float, float, float, float, float]]:
    """Random (n_wc, n_w, n_c, total, k) tuples with well-scaled PMI values."""
    out = []
    for _ in range(n):
        n_w = float(np.exp(rng.uniform(-1.0, 3.0)))
        n_c = float(np.exp(rng.uniform(-1.0, 3.0)))
        total = float(np.exp(rng.uniform(1.0, 5.0))) + n_w + n_c
        if zero_fraction > 0.0 and rng.random() < zero_fraction:
            n_wc = 0.0
        else:
            n_wc = float(np.exp(rng.uniform(-2.0, 2.5)))
        k = float(rng.uniform(1.0, 8.0))
        out.append((n_wc, n_w, n_c, total, k))
    return out


def random_corpus(
    rng: np.random.Generator,
    n_records: int = 20,
    max_len: int = 12,
    alphabet: str = "abcdefgh",
) -> list[list[str]]:
    records = []
    for _ in range(n_records):
        length = int(rng.integers(1, max_len + 1))
        records.append([alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(length)])
    return records
