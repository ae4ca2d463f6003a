"""Convex sparse word-vector model trained by proximal descent.

Each corpus position t yields training examples (target word, context input
z); the model scores word w against context z as W[w] . z and minimizes

    sum_w l1 * |W[w]|_1  +  (1/T) sum_examples f(W; target, z)

where f is either the full softmax cross-entropy over the vocabulary or the
negative-sampling objective

    f = -log sigmoid(W[target] . z) - sum_j log sigmoid(-W[neg_j] . z).

Everything is convex in W, so training needs no symmetry breaking: W starts
at zero.  Context inputs come in three shapes: one indicator per context
word (single), a summed bag over the window (bag), or one vocabulary-sized
block per window slot (positional).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Vocabulary, WindowSpec
from .errors import DimensionMismatchError
from .vectors import Embedding

CONTEXT_MODES = ("single", "bag", "positional")
OBJECTIVES = ("softmax", "negative_sampling")
NOISE_KINDS = ("unigram", "uniform")
SOFTMAX_MAX_VOCAB = 2000


@dataclass(frozen=True)
class ContextSpec:
    """How window contents are turned into context input vectors."""

    mode: str = "bag"
    window: WindowSpec = WindowSpec(left=2, right=2)
    weighting: str = "constant"

    def __post_init__(self) -> None:
        if self.mode not in CONTEXT_MODES:
            raise ValueError(f"mode must be one of {CONTEXT_MODES}, got {self.mode!r}")
        if self.weighting not in ("constant", "reciprocal"):
            raise ValueError(f"weighting must be constant or reciprocal, got {self.weighting!r}")

    def rho(self, offset: int) -> float:
        return 1.0 / abs(offset) if self.weighting == "reciprocal" else 1.0


def context_dim(spec: ContextSpec, n_words: int) -> int:
    if spec.mode == "positional":
        return (spec.window.left + spec.window.right) * n_words
    return n_words


def feature_names(spec: ContextSpec, words: Sequence[str]) -> list[str]:
    """Human-readable name per input coordinate, in coordinate order."""
    if spec.mode != "positional":
        return list(words)
    names = []
    for off in spec.window.offsets():
        names.extend(f"{off:+d}:{w}" for w in words)
    return names


def build_context(ids: Sequence[int], t: int, spec: ContextSpec, n_words: int) -> list[dict[int, float]]:
    """Context input vectors for position t of one record.

    single:     one sparse indicator e_c per in-window context occurrence
    bag:        one vector summing rho(offset) into coordinate c
    positional: one vector with rho(offset) at (slot block, c); slot blocks
                follow window order, leftmost offset first

    Returns an empty list when the window around t is empty.
    """
    window = spec.window
    occupied: list[tuple[int, int]] = []
    for slot, off in enumerate(window.offsets()):
        s = t + off
        if 0 <= s < len(ids):
            occupied.append((slot, off))
    if not occupied:
        return []
    if spec.mode == "single":
        return [{ids[t + off]: 1.0} for _, off in occupied]
    z: dict[int, float] = {}
    for slot, off in occupied:
        c = ids[t + off]
        coord = slot * n_words + c if spec.mode == "positional" else c
        z[coord] = z.get(coord, 0.0) + spec.rho(off)
    return [z]


@dataclass
class Example:
    target: int
    idx: np.ndarray
    val: np.ndarray


def _to_example(target: int, z: dict[int, float]) -> Example:
    items = sorted(z.items())
    return Example(
        target=target,
        idx=np.array([i for i, _ in items], dtype=np.int64),
        val=np.array([v for _, v in items]),
    )


def build_examples(
    records: Iterable[Sequence[str]], vocab: Vocabulary, spec: ContextSpec
) -> list[Example]:
    """Expand a corpus into (target, context input) training examples."""
    n = len(vocab)
    out: list[Example] = []
    for record in records:
        ids = [vocab.index[t] for t in record if t in vocab.index]
        for t in range(len(ids)):
            for z in build_context(ids, t, spec, n):
                out.append(_to_example(ids[t], z))
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and objective settings for the convex model."""

    l1: float = 0.0
    objective: str = "negative_sampling"
    k_neg: int = 5
    noise: str = "unigram"
    epochs: int = 1
    step_initial: float = 0.025
    full_batch: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if self.l1 < 0:
            raise ValueError("l1 strength must be non-negative")
        if self.k_neg < 1 and self.objective == "negative_sampling":
            raise ValueError("negative sampling needs k_neg >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


def noise_distribution(vocab: Vocabulary, kind: str) -> np.ndarray:
    """Probability each word is drawn as a negative."""
    if kind == "uniform":
        return np.full(len(vocab), 1.0 / len(vocab))
    return vocab.freq.astype(float) / float(vocab.total_tokens)


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * |.|_1: shrink toward zero by t, clipping at zero."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _softplus_vec(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, t)


def _sigmoid_vec(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _scores(W: np.ndarray, ex: Example) -> np.ndarray:
    return W[:, ex.idx] @ ex.val


def softmax_loss_grad(W: np.ndarray, ex: Example) -> tuple[float, np.ndarray]:
    """Cross-entropy of the target under softmax scores, with its W-gradient."""
    if W.shape[0] > SOFTMAX_MAX_VOCAB:
        raise DimensionMismatchError(
            f"softmax objective is limited to {SOFTMAX_MAX_VOCAB} words, got {W.shape[0]}"
        )
    s = _scores(W, ex)
    m = float(s.max())
    lse = m + math.log(float(np.exp(s - m).sum()))
    loss = lse - float(s[ex.target])
    p = np.exp(s - lse)
    p[ex.target] -= 1.0
    grad = np.zeros_like(W)
    grad[:, ex.idx] = np.outer(p, ex.val)
    return loss, grad


def negative_sampling_loss_grad(
    W: np.ndarray, ex: Example, negatives: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Negative-sampling objective for one example and fixed negative draws."""
    s_t = float(W[ex.target, ex.idx] @ ex.val)
    loss = float(np.logaddexp(0.0, -s_t))
    coef: dict[int, float] = {ex.target: -_sigmoid_scalar(-s_t)}
    for j in negatives:
        s_j = float(W[j, ex.idx] @ ex.val)
        loss += float(np.logaddexp(0.0, s_j))
        coef[j] = coef.get(j, 0.0) + _sigmoid_scalar(s_j)
    grad = np.zeros_like(W)
    for row, c in coef.items():
        grad[row, ex.idx] += c * ex.val
    return loss, grad


def _sigmoid_scalar(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


@dataclass
class _Aggregate:
    """Examples grouped by context input, for deterministic full batches."""

    z_idx: list[np.ndarray]
    z_val: list[np.ndarray]
    z_count: np.ndarray
    pos_rows: list[np.ndarray]
    pos_counts: list[np.ndarray]
    n_examples: int


def _aggregate(examples: list[Example]) -> _Aggregate:
    keyed: dict[tuple, int] = {}
    z_idx: list[np.ndarray] = []
    z_val: list[np.ndarray] = []
    counts: list[float] = []
    pos: list[dict[int, float]] = []
    for ex in examples:
        key = (tuple(ex.idx.tolist()), tuple(ex.val.tolist()))
        g = keyed.get(key)
        if g is None:
            g = len(z_idx)
            keyed[key] = g
            z_idx.append(ex.idx)
            z_val.append(ex.val)
            counts.append(0.0)
            pos.append({})
        counts[g] += 1.0
        pos[g][ex.target] = pos[g].get(ex.target, 0.0) + 1.0
    return _Aggregate(
        z_idx=z_idx,
        z_val=z_val,
        z_count=np.array(counts),
        pos_rows=[np.array(sorted(p), dtype=np.int64) for p in pos],
        pos_counts=[np.array([p[r] for r in sorted(p)]) for p in pos],
        n_examples=len(examples),
    )


def full_batch_smooth(
    W: np.ndarray, agg: _Aggregate, cfg: TrainConfig, noise: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean smooth loss over all examples and its exact gradient.

    For negative sampling the per-example negative draws are replaced by
    their expectation under the noise distribution, which turns the batch
    into one deterministic weighted sum per distinct context input.
    """
    G = np.zeros_like(W)
    loss = 0.0
    for g in range(len(agg.z_idx)):
        idx, val = agg.z_idx[g], agg.z_val[g]
        s = W[:, idx] @ val
        rows, row_counts = agg.pos_rows[g], agg.pos_counts[g]
        if cfg.objective == "softmax":
            if W.shape[0] > SOFTMAX_MAX_VOCAB:
                raise DimensionMismatchError(
                    f"softmax objective is limited to {SOFTMAX_MAX_VOCAB} words"
                )
            m = float(s.max())
            lse = m + math.log(float(np.exp(s - m).sum()))
            p = np.exp(s - lse)
            coef = agg.z_count[g] * p
            np.add.at(coef, rows, -row_counts)
            loss += float(agg.z_count[g] * lse - row_counts @ s[rows])
        else:
            loss += float(row_counts @ _softplus_vec(-s[rows]))
            loss += float(cfg.k_neg * agg.z_count[g] * (noise @ _softplus_vec(s)))
            coef = cfg.k_neg * agg.z_count[g] * noise * _sigmoid_vec(s)
            np.add.at(coef, rows, -row_counts * _sigmoid_vec(-s[rows]))
        G[:, idx] += np.outer(coef, val)
    scale = 1.0 / agg.n_examples
    return loss * scale, G * scale


def corpus_objective(
    W: np.ndarray, examples: list[Example], cfg: TrainConfig, noise: np.ndarray
) -> float:
    """Full objective: mean smooth loss (expected negatives) plus L1 term."""
    agg = _aggregate(examples)
    smooth, _ = full_batch_smooth(W, agg, cfg, noise)
    return smooth + cfg.l1 * float(np.abs(W).sum())


def train(
    records: Iterable[Sequence[str]],
    vocab: Vocabulary,
    spec: ContextSpec,
    cfg: TrainConfig,
) -> Embedding:
    """Fit the convex model by stochastic (or full-batch) proximal descent.

    Stochastic mode visits examples in a seeded shuffle with step size
    decaying linearly from step_initial to zero, taking a gradient step on
    the smooth part and soft-thresholding every touched coordinate by
    step * l1.  Full-batch mode applies deterministic whole-gradient steps
    at constant step_initial with the full proximal map.  Single-threaded
    and reproducible for a fixed config and seed.
    """
    if cfg.objective == "softmax" and len(vocab) > SOFTMAX_MAX_VOCAB:
        raise DimensionMismatchError(
            f"softmax objective is limited to {SOFTMAX_MAX_VOCAB} words, got {len(vocab)}"
        )
    n = len(vocab)
    m = context_dim(spec, n)
    W = np.zeros((n, m))
    examples = build_examples(records, vocab, spec)
    noise = noise_distribution(vocab, cfg.noise)
    rng = np.random.default_rng(cfg.seed)

    if cfg.full_batch:
        agg = _aggregate(examples)
        eta = cfg.step_initial
        for _ in range(cfg.epochs):
            _, G = full_batch_smooth(W, agg, cfg, noise)
            W = soft_threshold(W - eta * G, eta * cfg.l1)
    elif examples:
        noise_cdf = np.cumsum(noise)
        noise_cdf[-1] = 1.0
        total_steps = cfg.epochs * len(examples)
        step = 0
        for _ in range(cfg.epochs):
            for e in rng.permutation(len(examples)):
                ex = examples[e]
                eta = cfg.step_initial * (1.0 - step / total_steps)
                step += 1
                if eta <= 0.0:
                    continue
                if cfg.objective == "softmax":
                    s = _scores(W, ex)
                    mx = float(s.max())
                    lse = mx + math.log(float(np.exp(s - mx).sum()))
                    coef = np.exp(s - lse)
                    coef[ex.target] -= 1.0
                    W[:, ex.idx] -= eta * np.outer(coef, ex.val)
                    W[:, ex.idx] = soft_threshold(W[:, ex.idx], eta * cfg.l1)
                else:
                    draws = np.searchsorted(noise_cdf, rng.random(cfg.k_neg), side="right")
                    coef: dict[int, float] = {}
                    s_t = float(W[ex.target, ex.idx] @ ex.val)
                    coef[ex.target] = -_sigmoid_scalar(-s_t)
                    for j in draws:
                        s_j = float(W[j, ex.idx] @ ex.val)
                        coef[j] = coef.get(j, 0.0) + _sigmoid_scalar(s_j)
                    for row, c in coef.items():
                        W[row, ex.idx] = soft_threshold(
                            W[row, ex.idx] - eta * c * ex.val, eta * cfg.l1
                        )
    return Embedding(
        words=list(vocab.words),
        vectors=W,
        meta={
            "mode": spec.mode,
            "left": str(spec.window.left),
            "right": str(spec.window.right),
            "weighting": spec.weighting,
        },
    )


def explain(model: Embedding, names: Sequence[str], word: str, top_n: int = 10) -> list[tuple[str, float]]:
    """Largest-magnitude input coordinates of one word's vector, by name.

    Sorted by |weight| descending with ties broken by coordinate order;
    exact zeros are omitted, so a zero vector explains to an empty list.
    """
    v = model.vector(word)
    if len(names) != len(v):
        raise DimensionMismatchError(f"{len(names)} names for {len(v)} coordinates")
    ranked = sorted(
        ((i, w) for i, w in enumerate(v) if w != 0.0),
        key=lambda iw: (-abs(iw[1]), iw[0]),
    )
    return [(names[i], float(w)) for i, w in ranked[:top_n]]
