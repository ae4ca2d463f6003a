"""Nearest neighbours and word-similarity correlation.

Cosine similarity of or with an all-zero vector is defined as 0, and a zero
query has no meaningful neighbours at all under cosine.  An embedding with
cells so large that a dot product of two rows could overflow is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientPairsError, check_at_least, check_choice
from .vectors import Embedding

METRICS = ("cosine", "dot")


def _check_range(emb: Embedding) -> None:
    """Refuse a cell above sqrt(max_float / (2 dim)), where a dot product could overflow."""
    limit = math.sqrt(np.finfo(float).max / (2 * max(emb.dim, 1)))
    largest = float(np.abs(emb.vectors).max(initial=0.0))
    if largest > limit:
        raise DomainError(f"cell magnitude {largest!r} exceeds {limit:.6g}; similarities overflow")


def _cosine(dots: np.ndarray, norms: np.ndarray, other_norms) -> np.ndarray:
    """dots / (norms * other_norms), and 0 wherever either norm is 0."""
    nz = (norms > 0.0) & (other_norms > 0.0)
    return np.divide(dots, norms * other_norms, out=np.zeros(dots.shape), where=nz)


def _cosine_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row times the power of two that puts its largest |cell| in [0.5, 1).

    Scaling by a power of two is exact and a cosine ignores each row's scale,
    so cosines keep their value, while the squares inside the norm of a row of
    tiny cells no longer underflow.
    """
    _, e = np.frexp(np.abs(vectors).max(axis=1, initial=0.0))
    return np.ldexp(vectors, -e[:, None])


def _similarities(emb: Embedding, qi: int, metric: str) -> np.ndarray | None:
    """Similarity of row qi against every row; None when undefined for the query."""
    vectors = _cosine_rows(emb.vectors) if metric == "cosine" else emb.vectors
    q = vectors[qi]
    scores = vectors @ q
    if metric == "dot":
        return scores
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return None
    return _cosine(scores, np.linalg.norm(vectors, axis=1), qn)


def neighbors(emb: Embedding, word: str, n: int, metric: str = "cosine") -> list[tuple[str, float]]:
    """Top-n most similar words, excluding the query itself.

    Ties are broken by word id ascending; a zero-vector query under cosine
    has an empty answer.
    """
    check_choice("metric", metric, METRICS)
    check_at_least("n", n, 0)
    qi = emb.index(word)
    _check_range(emb)
    sims = _similarities(emb, qi, metric)
    if sims is None:
        return []
    order = np.lexsort((np.arange(len(sims)), -sims))
    top = order[order != qi][:n].tolist()
    return list(zip(map(emb.words.__getitem__, top), sims[top].tolist()))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties at sorted positions i..j share (i + j) / 2 + 1, NaNs never tie."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True, equal_nan=False
    )
    end = np.cumsum(counts)
    start = end - counts
    return (0.5 * (start + end - 1) + 1.0)[inverse]


@dataclass
class SpearmanReport:
    coefficient: float
    coverage: float
    n_scored: int


def spearman(
    emb: Embedding,
    dataset: list[tuple[str, str, float]],
    metric: str = "cosine",
) -> SpearmanReport:
    """Rank correlation between model similarities and human scores.

    Pairs with an out-of-vocabulary word are dropped and reported through
    coverage; fewer than two scorable pairs is an error.  Ranks use average
    tie handling, and a constant similarity list correlates as 0.
    """
    check_choice("metric", metric, METRICS)
    _check_range(emb)
    if not dataset:
        raise InsufficientPairsError("similarity dataset is empty")
    first, second, human = zip(*dataset)
    rows = np.stack([emb.indices(first), emb.indices(second)])
    scored = (rows >= 0).all(axis=0)
    n_scored = int(scored.sum())
    if n_scored < 2:
        raise InsufficientPairsError(
            f"need at least 2 scorable pairs, found {n_scored} of {len(dataset)}"
        )
    a, b = rows[:, scored]
    vectors = _cosine_rows(emb.vectors) if metric == "cosine" else emb.vectors
    model_sims = np.einsum("ij,ij->i", vectors[a], vectors[b])
    if metric == "cosine":
        norms = np.linalg.norm(vectors, axis=1)
        model_sims = _cosine(model_sims, norms[a], norms[b])
    r_model = average_ranks(model_sims)
    r_human = average_ranks(np.array(human)[scored])
    dm = r_model - r_model.mean()
    dh = r_human - r_human.mean()
    denom = math.sqrt(float(dm @ dm) * float(dh @ dh))
    rho = float(dm @ dh) / denom if denom > 0.0 else 0.0
    return SpearmanReport(
        coefficient=rho,
        coverage=n_scored / len(dataset),
        n_scored=n_scored,
    )
