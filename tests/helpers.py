"""Shared builders for random test instances."""
from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from coocvec import CooccurrenceStats, SparseMatrix, Vocabulary, encode_text
from coocvec.corpus import Encoded
from oracles import encode_by_lookup


def encode_records(records, min_count: int = 1) -> tuple[Vocabulary, Encoded]:
    """Lists of tokens through encode_text, one line per record."""
    return encode_text("".join(" ".join(record) + "\n" for record in records), min_count)


def lookup_encoded(records, vocab: Vocabulary) -> Encoded:
    """Records encoded token by token against vocab; an empty record keeps its index too."""
    ids, rec = encode_by_lookup(records, vocab.words)
    return Encoded(np.array(ids, dtype=np.int64), np.array(rec, dtype=np.int64), len(records))


def sparse(
    rows: int, cols: int, entries: dict[tuple[int, int], float], implicit_value=0.0
) -> SparseMatrix:
    """A SparseMatrix from an (i, j) -> value dict, through its (i, j, v) columns."""
    ij = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    return SparseMatrix(rows, cols, ij[:, 0], ij[:, 1], list(entries.values()), implicit_value)


def from_dense(A, implicit_value=0.0) -> SparseMatrix:
    """A SparseMatrix storing every entry of the array A that differs from implicit_value."""
    A = np.asarray(A, dtype=float)
    i, j = np.nonzero(A != implicit_value)
    return SparseMatrix(*A.shape, i, j, A[i, j], implicit_value)


def make_stats(pairs: dict[tuple[int, int], float], n_words: int) -> CooccurrenceStats:
    return CooccurrenceStats.from_counts(sparse(n_words, n_words, pairs))


def same_pairs(a: SparseMatrix, b: SparseMatrix) -> bool:
    """Whether a and b store the same (i, j) pairs with equal values."""
    return all(np.array_equal(x, y) for x, y in ((a.i, b.i), (a.j, b.j), (a.v, b.v)))


def weighted_problem(
    n_rows: int,
    n_cols: int,
    targets: dict[tuple[int, int], float],
    weights: dict[tuple[int, int], float],
) -> tuple[SparseMatrix, np.ndarray]:
    """Targets and their weight column from (i, j) -> value dicts on one support."""
    matrix = sparse(n_rows, n_cols, targets)
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
    return make_stats(pairs, n_words)


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


def bench_gen():
    """The benchmark's corpus generator, loaded from bench/gen.py."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(bench, "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_marginals_match_counts(stats: CooccurrenceStats) -> None:
    """Stored weights are positive; the marginals and the total are their sums."""
    c = stats.counts
    assert (c.v > 0).all()
    row = np.bincount(c.i, weights=c.v, minlength=c.rows)
    col = np.bincount(c.j, weights=c.v, minlength=c.cols)
    np.testing.assert_allclose(stats.row_marginal, row, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(stats.col_marginal, col, rtol=1e-9, atol=1e-12)
    assert stats.total == pytest.approx(float(row.sum()), rel=1e-9, abs=1e-12)
