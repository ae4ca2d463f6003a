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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .closed_form import _sigmoid
from .corpus import Vocabulary, WindowSpec, encode, window_pairs
from .errors import DimensionMismatchError, InvalidOptionError, check_seed
from .vectors import Embedding, SparseMatrix

CONTEXT_MODES = ("single", "bag", "positional")
OBJECTIVES = ("softmax", "negative_sampling")
NOISE_KINDS = ("unigram", "uniform")


@dataclass(frozen=True)
class ContextSpec:
    """How window contents are turned into context input vectors.

    A context word at offset off counts window.positional(off): 1, or 1/|off|
    with reciprocal positional weighting.
    """

    mode: str = "bag"
    window: WindowSpec = WindowSpec(left=2, right=2)

    def __post_init__(self) -> None:
        if self.mode not in CONTEXT_MODES:
            raise InvalidOptionError(f"mode must be one of {CONTEXT_MODES}, got {self.mode!r}")


def context_dim(spec: ContextSpec, n_words: int) -> int:
    if spec.mode == "positional":
        return (spec.window.left + spec.window.right) * n_words
    return n_words


def feature_names(spec: ContextSpec, words: Sequence[str]) -> list[str]:
    """Human-readable name per input coordinate, in coordinate order."""
    if spec.mode != "positional":
        return list(words)
    return [f"{off:+d}:{w}" for off in spec.window.offsets() for w in words]


@dataclass
class Example:
    target: int
    idx: np.ndarray
    val: np.ndarray


@dataclass
class Examples:
    """Examples in CSR form: examples[e] is Example(target[e], idx[lo:hi], val[lo:hi])
    for lo, hi = indptr[e], indptr[e + 1], an input of one or more ascending coordinates."""

    target: np.ndarray
    indptr: np.ndarray
    idx: np.ndarray
    val: np.ndarray

    def __len__(self) -> int:
        return len(self.target)

    def __getitem__(self, e: int) -> Example:
        e = range(len(self))[e]  # the IndexError past the end also stops iteration
        lo, hi = self.indptr[e], self.indptr[e + 1]
        return Example(int(self.target[e]), self.idx[lo:hi], self.val[lo:hi])


def build_examples(
    records: Iterable[Sequence[str]], vocab: Vocabulary, spec: ContextSpec
) -> Examples:
    """Expand a corpus into (target, context input) training examples, in corpus order.

    single:     one indicator e_c per in-window context occurrence, in window order
    bag:        per position, positional(offset) summed into coordinate c
    positional: per position, positional(offset) at (slot block, c); slot blocks
                follow window order, leftmost offset first

    Positions whose window holds no in-vocabulary word give no example.
    """
    n = len(vocab)
    win = spec.window
    width = win.left + win.right
    m = context_dim(spec, n)
    single = spec.mode == "single"
    ids, rec = encode(records, vocab)
    # Z has one row per (position, slot) and one column per input coordinate;
    # bag and positional inputs sum all slots of a position into its slot-0 row
    keys, vals = [np.empty(0, np.int64)], [np.empty(0)]
    for slot, off, t, c in window_pairs(rec, win):
        coord = ids[c] + slot * n if spec.mode == "positional" else ids[c]
        keys.append((t * width + (slot if single else 0)) * m + coord)
        vals.append(np.full(len(t), 1.0 if single else win.positional(off)))
    Z = SparseMatrix.summed(len(ids) * width, m, np.concatenate(keys), np.concatenate(vals))
    starts = np.flatnonzero(np.diff(Z.i, prepend=-1))
    return Examples(ids[Z.i[starts] // width], np.append(starts, Z.nnz), Z.j, Z.v)


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
            raise InvalidOptionError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.noise not in NOISE_KINDS:
            raise InvalidOptionError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if not 0.0 <= self.l1 < np.inf:
            raise InvalidOptionError(f"l1 strength must be a finite number >= 0, got {self.l1}")
        if self.k_neg < 1 and self.objective == "negative_sampling":
            raise InvalidOptionError(f"negative sampling needs k_neg >= 1, got {self.k_neg}")
        if self.epochs < 0:
            raise InvalidOptionError(f"epochs must be non-negative, got {self.epochs}")
        if not 0.0 < self.step_initial < np.inf:
            raise InvalidOptionError(f"step must be a finite number > 0, got {self.step_initial}")
        check_seed(self.seed)


def noise_distribution(vocab: Vocabulary, kind: str) -> np.ndarray:
    """Probability each word is drawn as a negative."""
    if kind == "uniform":
        return np.full(len(vocab), 1.0 / len(vocab))
    return vocab.freq.astype(float) / float(vocab.total_tokens)


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * |.|_1: shrink toward zero by t, clipping at zero."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _kernel(
    S: np.ndarray,
    count: np.ndarray | float,
    target: np.ndarray | int,
    t_count: np.ndarray | float,
    neg_weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Smooth loss over a block of scores S (vocabulary rows x inputs) and dLoss/dS.

    Column b scores an input seen count[b] times; target[p], a flat index into
    S, is a target t_count[p] times (each pair once).  SGD passes one example
    as a 1-D column with scalar counts.  neg_weight=None is softmax
    cross-entropy: count times each column's log-sum-exp, minus the target
    scores.  Otherwise it is negative sampling: each target adds
    softplus(-score), and each score is a negative neg_weight times (SGD: the
    draw counts; full batch: k * noise * count, so count goes unused).
    """
    s_t = S.flat[target]
    if neg_weight is None:
        lse = S.max(axis=0)
        lse += np.log(np.exp(S - lse).sum(axis=0))
        loss = np.dot(count, lse) - np.dot(t_count, s_t)
        dS, d_t = count * np.exp(S - lse), t_count
    else:
        loss = np.dot(t_count, np.logaddexp(0.0, -s_t)) + np.sum(neg_weight * np.logaddexp(0.0, S))
        dS, d_t = neg_weight * _sigmoid(S), t_count * _sigmoid(-s_t)
    dS.flat[target] -= d_t
    return float(loss), dS


def _example_coef(
    W: np.ndarray, ex: Example, negatives: np.ndarray | None = None
) -> tuple[float, slice | np.ndarray, np.ndarray]:
    """Loss of one example and its gradient outer(coef, ex.val) at W[rows, ex.idx].

    negatives=None means softmax, whose gradient touches every row (rows is
    a full slice); negative sampling touches the target and the drawn rows
    (rows is a column of row ids), each drawn row weighted by its draw count.
    """
    rows, target, draws = slice(None), ex.target, None
    if negatives is not None:
        rows, at = np.unique(np.append(np.int64(ex.target), negatives), return_inverse=True)
        rows, target = rows[:, None], at[0]
        draws = np.bincount(at[1:], minlength=len(rows)).astype(float)
    loss, coef = _kernel(W[rows, ex.idx] @ ex.val, 1.0, target, 1.0, draws)
    return loss, rows, coef


def _example_grad(W: np.ndarray, ex: Example, negatives) -> tuple[float, np.ndarray]:
    loss, rows, coef = _example_coef(W, ex, negatives)
    grad = np.zeros_like(W)
    grad[rows, ex.idx] = np.outer(coef, ex.val)
    return loss, grad


def softmax_loss_grad(W: np.ndarray, ex: Example) -> tuple[float, np.ndarray]:
    """Cross-entropy of the target under softmax scores, with its W-gradient."""
    return _example_grad(W, ex, None)


def negative_sampling_loss_grad(
    W: np.ndarray, ex: Example, negatives: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Negative-sampling objective for one example and fixed negative draws."""
    return _example_grad(W, ex, np.asarray(negatives, dtype=np.int64))


@dataclass
class _Aggregate:
    """Examples grouped by context input, for deterministic full batches.

    Group g's input (z_idx[g], z_val[g], padded with (0, 0.0)) occurs z_count[g]
    times; target t_row[p] occurs t_count[p] times in group t_group[p], sorted.
    """

    z_idx: np.ndarray
    z_val: np.ndarray
    z_count: np.ndarray
    t_group: np.ndarray
    t_row: np.ndarray
    t_count: np.ndarray
    n_examples: int


def _aggregate(examples: Examples) -> _Aggregate:
    lens = np.diff(examples.indptr)
    filled = np.arange(lens.max()) < lens[:, None]
    idx = np.zeros(filled.shape, dtype=np.int64)
    val = np.zeros(filled.shape)
    idx[filled] = examples.idx
    val[filled] = examples.val
    keys = np.concatenate([idx, val.view(np.int64)], axis=1)
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    group = group.reshape(-1)
    pairs, t_count = np.unique(np.stack([group, examples.target], axis=1), axis=0, return_counts=True)
    return _Aggregate(
        z_idx=idx[first],
        z_val=val[first],
        z_count=np.bincount(group, minlength=len(first)).astype(float),
        t_group=pairs[:, 0],
        t_row=pairs[:, 1],
        t_count=t_count.astype(float),
        n_examples=len(examples),
    )


# Context groups per full-batch block: the block's products stay small
# single-threaded BLAS calls and its arrays stay small at any vocabulary.
BLOCK_GROUPS = 32


def full_batch_smooth(
    W: np.ndarray, agg: _Aggregate, cfg: TrainConfig, noise: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean smooth loss over all examples and its exact gradient.

    For negative sampling the per-example negative draws are replaced by
    their expectation under the noise distribution, which turns the batch
    into one deterministic weighted sum per distinct context input.  Groups
    are taken BLOCK_GROUPS at a time: with Z the block's inputs as a dense
    matrix over the coordinates they touch, S = W Z^T scores them and
    G += coef Z collects the gradient.
    """
    G = np.zeros_like(W)
    loss = 0.0
    n_groups = len(agg.z_count)
    starts = range(0, n_groups, BLOCK_GROUPS)
    edges = np.searchsorted(agg.t_group, np.append(starts, n_groups))
    for a, lo, hi in zip(starts, edges, edges[1:]):
        idx, val = agg.z_idx[a : a + BLOCK_GROUPS], agg.z_val[a : a + BLOCK_GROUPS]
        cols, at = np.unique(idx, return_inverse=True)
        Z = np.zeros((len(idx), len(cols)))
        np.add.at(Z, (np.arange(len(idx))[:, None], at.reshape(idx.shape)), val)
        S = W[:, cols] @ Z.T
        count = agg.z_count[a : a + BLOCK_GROUPS]
        target = agg.t_row[lo:hi] * len(count) + agg.t_group[lo:hi] - a
        neg_weight = None if cfg.objective == "softmax" else cfg.k_neg * count * noise[:, None]
        part, coef = _kernel(S, count, target, agg.t_count[lo:hi], neg_weight)
        loss += part
        G[:, cols] += coef @ Z
    scale = 1.0 / agg.n_examples
    return loss * scale, G * scale


def corpus_objective(
    W: np.ndarray, examples: Examples, cfg: TrainConfig, noise: np.ndarray
) -> float:
    """Full objective: mean smooth loss (expected negatives) plus L1 term.

    Without examples the smooth part is 0, so only the L1 term is left.
    """
    smooth = full_batch_smooth(W, _aggregate(examples), cfg, noise)[0] if examples else 0.0
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
    n = len(vocab)
    W = np.zeros((n, context_dim(spec, n)))
    examples = build_examples(records, vocab, spec)
    noise = noise_distribution(vocab, cfg.noise)
    rng = np.random.default_rng(cfg.seed)

    if cfg.full_batch and examples:
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
            order = rng.permutation(len(examples))
            # the epoch's draws at once: the same generator stream as one draw per example
            negatives = [None] * len(order)
            if cfg.objective == "negative_sampling":
                u = rng.random((len(order), cfg.k_neg))
                negatives = np.searchsorted(noise_cdf, u, side="right")
            for e, neg in zip(order, negatives):
                ex = examples[e]
                eta = cfg.step_initial * (1.0 - step / total_steps)
                step += 1
                _, rows, coef = _example_coef(W, ex, neg)
                W[rows, ex.idx] = soft_threshold(
                    W[rows, ex.idx] - eta * np.outer(coef, ex.val), eta * cfg.l1
                )
    return Embedding(
        words=list(vocab.words),
        vectors=W,
        meta={
            "mode": spec.mode,
            "left": str(spec.window.left),
            "right": str(spec.window.right),
            "weighting": spec.window.positional_weight,
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
