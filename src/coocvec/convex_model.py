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
SOFTMAX_MAX_VOCAB = 2000


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
    names = []
    for off in spec.window.offsets():
        names.extend(f"{off:+d}:{w}" for w in words)
    return names


@dataclass
class Example:
    target: int
    idx: np.ndarray
    val: np.ndarray


def build_examples(
    records: Iterable[Sequence[str]], vocab: Vocabulary, spec: ContextSpec
) -> list[Example]:
    """Expand a corpus into (target, context input) training examples, in corpus order.

    single:     one indicator e_c per in-window context occurrence, in window order
    bag:        per position, positional(offset) summed into coordinate c
    positional: per position, positional(offset) at (slot block, c); slot blocks
                follow window order, leftmost offset first

    Positions whose window holds no in-vocabulary word give no example.
    """
    n = len(vocab)
    win = spec.window
    width = len(win.offsets())
    m = context_dim(spec, n)
    single = spec.mode == "single"
    ids, rec = encode(records, vocab)
    # Z has one row per (position, slot) and one column per input coordinate;
    # bag and positional inputs sum all slots of a position into its slot-0 row
    keys, vals = [], []
    for slot, (off, t, c) in enumerate(window_pairs(rec, win.offsets())):
        coord = ids[c] + slot * n if spec.mode == "positional" else ids[c]
        keys.append((t * width + (slot if single else 0)) * m + coord)
        vals.append(np.full(len(t), 1.0 if single else win.positional(off)))
    Z = SparseMatrix.summed(len(ids) * width, m, np.concatenate(keys), np.concatenate(vals))
    starts = np.flatnonzero(np.diff(Z.i, prepend=-1))
    targets = ids[Z.i[starts] // width].tolist()
    cuts = starts[1:]
    return [Example(t, i, v) for t, i, v in zip(targets, np.split(Z.j, cuts), np.split(Z.v, cuts))]


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
        if self.l1 < 0:
            raise InvalidOptionError(f"l1 strength must be non-negative, got {self.l1}")
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


def _softplus(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, t)


def _softmax_kernel(
    S: np.ndarray, count: np.ndarray, t_row: np.ndarray, t_col: np.ndarray, t_count: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over score columns S (vocabulary x B) and dLoss/dS.

    Column b scores an input seen count[b] times, t_count[p] of them with
    target t_row[p] in column t_col[p] (each pair once).  dLoss/dS is count
    times each column's softmax, minus t_count at the targets.
    """
    if S.shape[0] > SOFTMAX_MAX_VOCAB:
        raise DimensionMismatchError(
            f"softmax objective is limited to {SOFTMAX_MAX_VOCAB} words, got {S.shape[0]}"
        )
    lse = S.max(axis=0)
    lse += np.log(np.exp(S - lse).sum(axis=0))
    coef = count * np.exp(S - lse)
    coef[t_row, t_col] -= t_count
    return float(count @ lse - t_count @ S[t_row, t_col]), coef


def _ns_kernel(
    s_pos: np.ndarray, pos_count: np.ndarray, s_neg: np.ndarray, neg_weight: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative-sampling loss and its derivatives in s_pos and s_neg.

    Target score s_pos[p] occurs pos_count[p] times; negative scores count
    neg_weight times (SGD: draw counts; full batch: k * noise * occurrences).
    The derivatives are -pos_count * sigmoid(-s_pos) and neg_weight * sigmoid(s_neg).
    """
    loss = pos_count @ _softplus(-s_pos) + np.sum(neg_weight * _softplus(s_neg))
    return float(loss), -pos_count * _sigmoid(-s_pos), neg_weight * _sigmoid(s_neg)


def _example_coef(
    W: np.ndarray, ex: Example, negatives: np.ndarray | None = None
) -> tuple[float, slice | np.ndarray, np.ndarray]:
    """Loss of one example and its gradient outer(coef, ex.val) at W[rows, ex.idx].

    negatives=None means softmax, whose gradient touches every row (rows is
    a full slice); negative sampling touches the target and the drawn rows
    (rows is a column of row ids), each drawn row weighted by its draw count.
    """
    one = np.ones(1)
    if negatives is None:
        S = (W[:, ex.idx] @ ex.val)[:, None]
        loss, coef = _softmax_kernel(S, one, np.array([ex.target]), np.array([0]), one)
        return loss, slice(None), coef[:, 0]
    rows, at = np.unique(np.append(np.int64(ex.target), negatives), return_inverse=True)
    rows = rows[:, None]
    s = W[rows, ex.idx] @ ex.val
    draws = np.bincount(at[1:], minlength=len(rows)).astype(float)
    loss, c_pos, coef = _ns_kernel(s[at[:1]], one, s, draws)
    coef[at[0]] += c_pos[0]
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


def _aggregate(examples: list[Example]) -> _Aggregate:
    lens = np.array([len(ex.idx) for ex in examples])
    filled = np.arange(lens.max()) < lens[:, None]
    idx = np.zeros(filled.shape, dtype=np.int64)
    val = np.zeros(filled.shape)
    idx[filled] = np.concatenate([ex.idx for ex in examples])
    val[filled] = np.concatenate([ex.val for ex in examples])
    keys = np.concatenate([idx, val.view(np.int64)], axis=1)
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    group = group.reshape(-1)
    targets = np.array([ex.target for ex in examples], dtype=np.int64)
    pairs, t_count = np.unique(np.stack([group, targets], axis=1), axis=0, return_counts=True)
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
        rows, group, t_count = agg.t_row[lo:hi], agg.t_group[lo:hi] - a, agg.t_count[lo:hi]
        if cfg.objective == "softmax":
            part, coef = _softmax_kernel(S, count, rows, group, t_count)
        else:
            neg_weight = cfg.k_neg * count * noise[:, None]
            part, c_pos, coef = _ns_kernel(S[rows, group], t_count, S, neg_weight)
            coef[rows, group] += c_pos
        loss += part
        G[:, cols] += coef @ Z
    scale = 1.0 / agg.n_examples
    return loss * scale, G * scale


def corpus_objective(
    W: np.ndarray, examples: list[Example], cfg: TrainConfig, noise: np.ndarray
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
            for e in rng.permutation(len(examples)):
                ex = examples[e]
                eta = cfg.step_initial * (1.0 - step / total_steps)
                step += 1
                if eta <= 0.0:
                    continue
                negatives = None
                if cfg.objective == "negative_sampling":
                    negatives = np.searchsorted(noise_cdf, rng.random(cfg.k_neg), side="right")
                _, rows, coef = _example_coef(W, ex, negatives)
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
