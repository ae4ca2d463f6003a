"""Nearest neighbours and word-similarity correlation.

Vectors may carry minus-infinity markers from the logistic closed form; the
masked entries hold 0.0, so dot products treat them as absent mass.  Cosine
similarity of or with an all-zero vector is defined as 0, and a zero query
has no meaningful neighbours at all under cosine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPairsError, InvalidOptionError
from .vectors import Embedding

METRICS = ("cosine", "dot")


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise InvalidOptionError(f"metric must be one of {METRICS}, got {metric!r}")


def _cosine(dots: np.ndarray, norms: np.ndarray, other_norms) -> np.ndarray:
    """dots / (norms * other_norms), and 0 wherever either norm is 0."""
    nz = (norms > 0.0) & (other_norms > 0.0)
    return np.divide(dots, norms * other_norms, out=np.zeros(dots.shape), where=nz)


def _similarities(emb: Embedding, q: np.ndarray, metric: str) -> np.ndarray | None:
    """Similarity of q against every row; None when undefined for the query."""
    scores = emb.vectors @ q
    if metric == "dot":
        return scores
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return None
    return _cosine(scores, np.linalg.norm(emb.vectors, axis=1), qn)


def neighbors(emb: Embedding, word: str, n: int, metric: str = "cosine") -> list[tuple[str, float]]:
    """Top-n most similar words, excluding the query itself.

    Ties are broken by word id ascending; a zero-vector query under cosine
    has an empty answer.
    """
    _check_metric(metric)
    if n < 0:
        raise InvalidOptionError(f"n must be non-negative, got {n}")
    qi = emb.index(word)
    sims = _similarities(emb, emb.vectors[qi], metric)
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
    _check_metric(metric)
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
    model_sims = np.einsum("ij,ij->i", emb.vectors[a], emb.vectors[b])
    if metric == "cosine":
        norms = np.linalg.norm(emb.vectors, axis=1)
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
