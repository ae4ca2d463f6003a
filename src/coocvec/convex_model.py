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
from typing import Sequence

import numpy as np

from .corpus import Encoded, Vocabulary, WindowSpec, window_pairs
from .errors import DimensionMismatchError, DivergenceError, InvalidOptionError, check_at_least
from .errors import check_choice
from .vectors import Embedding, SparseMatrix

CONTEXT_MODES = ("single", "bag", "positional")
OBJECTIVES = ("softmax", "negative_sampling")
NOISE_KINDS = ("unigram", "uniform")


@dataclass(frozen=True)
class ContextSpec:
    """How window contents are turned into context input vectors.

    A context word at offset off counts window.positional(off): 1, or 1/|off|
    with reciprocal positional weighting.  No example reads a subsampling
    setting, so a window with one is refused (InvalidOptionError).
    """

    mode: str = "bag"
    window: WindowSpec = WindowSpec(left=2, right=2)

    def __post_init__(self) -> None:
        check_choice("mode", self.mode, CONTEXT_MODES)
        if self.window.subsample_threshold is not None or self.window.context_threshold():
            raise InvalidOptionError("the convex model's windows take no subsampling")


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


def build_examples(tokens: Encoded, vocab: Vocabulary, spec: ContextSpec) -> Examples:
    """Expand an encoded corpus into (target, context input) training examples, in corpus order.

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
    ids, rec, _ = tokens
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
        check_choice("objective", self.objective, OBJECTIVES)
        check_choice("noise", self.noise, NOISE_KINDS)
        check_at_least("l1", self.l1, 0)
        if self.objective == "negative_sampling":
            check_at_least("k_neg", self.k_neg, 1)
        check_at_least("epochs", self.epochs, 0)
        check_at_least("step", self.step_initial, 0, strict=True)
        check_at_least("seed", self.seed, 0)


def noise_distribution(vocab: Vocabulary, kind: str) -> np.ndarray:
    """Probability each word is drawn as a negative."""
    if kind == "uniform":
        return np.full(len(vocab), 1.0 / len(vocab))
    return vocab.freq.astype(float) / float(vocab.total_tokens)


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * |.|_1: shrink toward zero by t, clipping at zero."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _prox_step(W: np.ndarray, G: np.ndarray, eta: float, l1: float) -> np.ndarray:
    """soft_threshold(W - eta * G, eta * l1), computed in the buffers of G and W.

    The same operations in the same order as the expression, so the bits
    match it and no further array of W's shape is made.  The result is in
    G's buffer; W's is used up.
    """
    G *= eta
    np.subtract(W, G, out=G)
    np.abs(G, out=W)
    W -= eta * l1
    np.maximum(W, 0.0, out=W)
    np.sign(G, out=G)
    G *= W
    return G


def _kernel(
    S: np.ndarray,
    count: np.ndarray | float,
    target: np.ndarray | int,
    t_count: np.ndarray | float,
    neg_weight: np.ndarray | None = None,
    loss: bool = True,
) -> tuple[float, np.ndarray]:
    """Smooth loss over a block of scores S (vocabulary rows x inputs) and dLoss/dS.

    Column b scores an input seen count[b] times; target[p], a flat index into
    S, is a target t_count[p] times (each pair once).  SGD passes one example
    as a 1-D column with scalar counts.  neg_weight=None is softmax
    cross-entropy: count times each column's log-sum-exp, minus the target
    scores.  Otherwise it is negative sampling: each target adds
    softplus(-score), and each score is a negative neg_weight times (SGD: the
    draw counts; full batch: k * noise * count, so count goes unused).
    loss=False skips the loss, which then reads 0.0: training steps take
    dLoss/dS alone.
    """
    s_t = S.flat[target]
    value = 0.0
    if neg_weight is None:
        lse = S.max(axis=0)
        lse += np.log(np.exp(S - lse).sum(axis=0))
        if loss:
            value = np.dot(count, lse) - np.dot(t_count, s_t)
        dS, d_t = count * np.exp(S - lse), t_count
    else:
        if loss:
            value = np.dot(t_count, np.logaddexp(0.0, -s_t))
            value += np.sum(neg_weight * np.logaddexp(0.0, S))
        # sigmoid(S) and sigmoid(-s_t), overflow-free, from one exp(-|S|)
        e = np.exp(-np.abs(S))
        e_t = e.flat[target]
        dS = neg_weight * (np.where(S >= 0, 1.0, e) / (1.0 + e))
        d_t = t_count * (np.where(s_t <= 0, 1.0, e_t) / (1.0 + e_t))
    dS.flat[target] -= d_t
    return float(value), dS


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
    # groups in ascending order of their padded (idx, value bits) rows; the
    # stable sort makes each group's first example its earliest one
    keys = np.concatenate([idx, val.view(np.int64)], axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first = order[starts]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    base = int(examples.target.max()) + 1
    pairs, t_count = np.unique(group * base + examples.target, return_counts=True)
    return _Aggregate(
        z_idx=idx[first],
        z_val=val[first],
        z_count=np.bincount(group, minlength=len(first)).astype(float),
        t_group=pairs // base,
        t_row=pairs % base,
        t_count=t_count.astype(float),
        n_examples=len(examples),
    )


# Context groups per full-batch block: the block's products stay small
# single-threaded BLAS calls and its arrays stay small at any vocabulary.
BLOCK_GROUPS = 32


def _accumulate(
    W: np.ndarray, agg: _Aggregate, cfg: TrainConfig, noise: np.ndarray, G: np.ndarray,
    loss: bool = True,
) -> float:
    """Add the summed smooth gradient over all examples into G; return the summed loss.

    For negative sampling the per-example negative draws are replaced by
    their expectation under the noise distribution, which turns the batch
    into one deterministic weighted sum per distinct context input.  Groups
    are taken BLOCK_GROUPS at a time: with Z the block's inputs as a dense
    matrix over the coordinates they touch, S = W Z^T scores them and
    G += coef Z collects the gradient.  loss=False leaves the loss at 0.0.
    """
    total = 0.0
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
        part, coef = _kernel(S, count, target, agg.t_count[lo:hi], neg_weight, loss)
        total += part
        G[:, cols] += coef @ Z
    return total


def full_batch_smooth(
    W: np.ndarray, agg: _Aggregate, cfg: TrainConfig, noise: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean smooth loss over all examples and its exact gradient (see _accumulate)."""
    G = np.zeros_like(W)
    scale = 1.0 / agg.n_examples
    loss = _accumulate(W, agg, cfg, noise, G) * scale
    G *= scale
    return loss, G


def corpus_objective(
    W: np.ndarray, examples: Examples, cfg: TrainConfig, noise: np.ndarray
) -> float:
    """Full objective: mean smooth loss (expected negatives) plus L1 term.

    Without examples the smooth part is 0, so only the L1 term is left.
    """
    smooth = full_batch_smooth(W, _aggregate(examples), cfg, noise)[0] if examples else 0.0
    return smooth + cfg.l1 * float(np.abs(W).sum())


# SGD steps per table block: the block's draws and rows are arrays of
# BLOCK_STEPS x (k_neg + 1) entries, so an epoch's tables do not grow with
# the corpus.
BLOCK_STEPS = 256


def _step_tables(
    target: np.ndarray, rng: np.random.Generator, noise_cdf: np.ndarray, cfg: TrainConfig
) -> tuple[list, list, list]:
    """Rows, draw counts and target position of each SGD step in a block.

    Softmax touches every row: rows are full slices and the target's place
    is its word.  Negative sampling draws the block's negatives at once (the
    same generator stream as one draw per step); a step's rows are its
    target and draws, distinct and ascending as a column of row ids, each
    weighted by how often it was drawn, and at is the target's place among
    them.
    """
    if cfg.objective == "softmax":
        return [slice(None)] * len(target), [None] * len(target), target.tolist()
    drawn = np.searchsorted(noise_cdf, rng.random((len(target), cfg.k_neg)), side="right")
    cand = np.sort(np.concatenate([target[:, None], drawn], axis=1), axis=1)
    new = np.ones(cand.shape, dtype=bool)
    new[:, 1:] = cand[:, 1:] != cand[:, :-1]
    first = np.flatnonzero(new)
    rows = cand.ravel()[first]
    n_rows = new.sum(axis=1)
    draws = np.diff(np.append(first, cand.size)) - (rows == np.repeat(target, n_rows))
    at = (new & (cand < target[:, None])).sum(axis=1)
    ptr = np.append(0, np.cumsum(n_rows)).tolist()
    rows, draws = rows[:, None], draws.astype(float)
    steps = list(zip(ptr, ptr[1:]))
    return [rows[p:q] for p, q in steps], [draws[p:q] for p, q in steps], at.tolist()


def train(tokens: Encoded, vocab: Vocabulary, spec: ContextSpec, cfg: TrainConfig) -> Embedding:
    """Fit the convex model by stochastic (or full-batch) proximal descent.

    Stochastic mode visits examples in a seeded shuffle with step size
    decaying linearly from step_initial to zero, taking a gradient step on
    the smooth part and soft-thresholding every touched coordinate by
    step * l1.  Full-batch mode applies deterministic whole-gradient steps
    at constant step_initial with the full proximal map.  Neither mode
    evaluates the loss.  Single-threaded and reproducible for a fixed config
    and seed.  A weight that leaves the float range is refused (DivergenceError).
    """
    n = len(vocab)
    W = np.zeros((n, context_dim(spec, n)))
    examples = build_examples(tokens, vocab, spec)
    noise = noise_distribution(vocab, cfg.noise)
    rng = np.random.default_rng(cfg.seed)

    with np.errstate(over="ignore", invalid="ignore"):  # a weight out of range is refused below
        if cfg.full_batch and examples:
            agg = _aggregate(examples)
            eta, scale = cfg.step_initial, 1.0 / len(examples)
            G = np.empty_like(W)
            for _ in range(cfg.epochs):
                G.fill(0.0)
                _accumulate(W, agg, cfg, noise, G, loss=False)
                G *= scale
                # the new weights land in G's buffer; the old W's is the next gradient's
                W, G = _prox_step(W, G, eta, cfg.l1), W
        elif examples:
            noise_cdf = np.cumsum(noise)
            noise_cdf[-1] = 1.0
            total_steps = cfg.epochs * len(examples)
            step = 0
            for _ in range(cfg.epochs):
                order = rng.permutation(len(examples))
                for a in range(0, len(order), BLOCK_STEPS):
                    block = order[a : a + BLOCK_STEPS]
                    rows, draws, at = _step_tables(examples.target[block], rng, noise_cdf, cfg)
                    lo, hi = examples.indptr[block].tolist(), examples.indptr[block + 1].tolist()
                    for r, d, t, i, j in zip(rows, draws, at, lo, hi):
                        idx, val = examples.idx[i:j], examples.val[i:j]
                        eta = cfg.step_initial * (1.0 - step / total_steps)
                        step += 1
                        Wr = W[r, idx]
                        _, coef = _kernel(Wr @ val, 1.0, t, 1.0, d, loss=False)
                        W[r, idx] = _prox_step(Wr, coef[:, None] * val, eta, cfg.l1)
    if not np.isfinite(W).all():
        raise DivergenceError(f"weights left the float range at step {cfg.step_initial!r}; "
                              "a lower step (--step) avoids it")
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
