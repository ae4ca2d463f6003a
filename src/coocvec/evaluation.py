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


def _similarities(emb: Embedding, q: np.ndarray, metric: str) -> np.ndarray | None:
    """Similarity of q against every row; None when undefined for the query."""
    scores = emb.vectors @ q
    if metric == "dot":
        return scores
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return None
    norms = np.linalg.norm(emb.vectors, axis=1)
    out = np.zeros(len(emb.words))
    nz = norms > 0.0
    out[nz] = scores[nz] / (norms[nz] * qn)
    return out


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
    order = sorted((i for i in range(len(emb.words)) if i != qi), key=lambda i: (-sims[i], i))
    return [(emb.words[i], float(sims[i])) for i in order[:n]]


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


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
    model_sims = []
    human = []
    for w1, w2, score in dataset:
        if w1 not in emb or w2 not in emb:
            continue
        v1 = emb.vector(w1)
        v2 = emb.vector(w2)
        if metric == "dot":
            s = float(v1 @ v2)
        else:
            n1 = float(np.linalg.norm(v1))
            n2 = float(np.linalg.norm(v2))
            s = float(v1 @ v2) / (n1 * n2) if n1 > 0.0 and n2 > 0.0 else 0.0
        model_sims.append(s)
        human.append(score)
    if len(model_sims) < 2:
        raise InsufficientPairsError(
            f"need at least 2 scorable pairs, found {len(model_sims)} of {len(dataset)}"
        )
    r_model = average_ranks(np.array(model_sims))
    r_human = average_ranks(np.array(human))
    dm = r_model - r_model.mean()
    dh = r_human - r_human.mean()
    denom = math.sqrt(float(dm @ dm) * float(dh @ dh))
    rho = float(dm @ dh) / denom if denom > 0.0 else 0.0
    return SpearmanReport(
        coefficient=rho,
        coverage=len(model_sims) / len(dataset),
        n_scored=len(model_sims),
    )
