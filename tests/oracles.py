"""Independent numeric references for the closed-form results.

Everything here re-derives its math from scratch (own loss formulas, scipy
root finding and statistics) so that agreement with the package is a real
cross-check and not the same code evaluated twice.
"""
from __future__ import annotations

import math
import sys
from collections import Counter

import numpy as np
import scipy.optimize
import scipy.stats


def _ref_loss(kind: str, x: float, y: float) -> float:
    yx = y * x
    if kind == "logistic":
        return math.log1p(math.exp(-abs(yx))) + max(-yx, 0.0)
    if kind == "squared":
        return 0.5 * (x - y) ** 2
    if kind == "squared_hinge":
        return 0.5 * max(1.0 - yx, 0.0) ** 2
    if kind == "hinge":
        return max(1.0 - yx, 0.0)
    if kind == "huber":
        return 0.5 * max(1.0 - yx, 0.0) ** 2 if yx >= -1.0 else -2.0 * yx
    raise ValueError(kind)


def _ref_loss_slope(kind: str, x: float, y: float) -> float:
    yx = y * x
    if kind == "logistic":
        return -y / (1.0 + math.exp(yx))
    if kind == "squared":
        return x - y
    if kind == "squared_hinge":
        return -y * max(1.0 - yx, 0.0)
    if kind == "huber":
        if yx < -1.0:
            return -2.0 * y
        return -y * (1.0 - yx) if yx <= 1.0 else 0.0
    raise ValueError(kind)


def ref_rho(kind: str, n_wc: float, n_w: float, n_c: float, total: float, k: float):
    """The per-pair objective as a plain function of the score."""
    m = k * n_w * n_c / total

    def rho(x: float) -> float:
        return n_wc * _ref_loss(kind, x, 1.0) + m * _ref_loss(kind, x, -1.0)

    return rho


def minimize_rho(
    kind: str, n_wc: float, n_w: float, n_c: float, total: float, k: float
) -> float:
    """Numerically minimize the per-pair objective.

    The hinge objective is piecewise linear with its minimum at a margin
    vertex, so the two vertices are compared directly (ties resolve to +1,
    where the whole segment between them is flat).  The smooth losses are
    convex with a monotone slope, handled by root-finding the slope.
    """
    rho = ref_rho(kind, n_wc, n_w, n_c, total, k)
    if kind == "hinge":
        lo, hi = rho(-1.0), rho(1.0)
        scale = max(1.0, abs(lo), abs(hi))
        if hi <= lo + 1e-12 * scale:
            return 1.0
        return -1.0
    m = k * n_w * n_c / total

    def slope(x: float) -> float:
        return n_wc * _ref_loss_slope(kind, x, 1.0) + m * _ref_loss_slope(kind, x, -1.0)

    # the minimizer lies between 0 and pmi - log k = log(n_wc / m), a zero count's at -inf;
    # beyond log of the smallest normal float the slope's terms lose their bits
    reach = 1.0 + abs(math.log(n_wc) - math.log(m)) if n_wc > 0.0 else math.inf
    half = min(-math.log(sys.float_info.min), max(60.0, reach))
    lo, hi = -half, half
    if slope(lo) >= 0.0:
        return lo
    if slope(hi) <= 0.0:
        return hi
    return float(scipy.optimize.brentq(slope, lo, hi, xtol=1e-14, rtol=8.9e-16))


def reg_objective(pmi: float, k: float, lam: float, kind: str):
    """The normalized regularized pair objective as a function of the score."""
    e_p = math.exp(pmi)

    def obj(x: float) -> float:
        data = e_p * (math.log1p(math.exp(-abs(x))) + max(-x, 0.0))
        data += k * (math.log1p(math.exp(-abs(x))) + max(x, 0.0))
        reg = 0.5 * lam * x * x if kind == "l2" else lam * abs(x)
        return data + reg

    return obj


def reg_root(pmi: float, k: float, lam: float, kind: str) -> float:
    """Reference minimizer of the regularized pair objective."""
    e_p = math.exp(pmi)

    def h(x: float) -> float:
        # stationarity residual of the smooth part: -d/dx of the data term
        return (e_p - k * math.exp(x)) / (1.0 + math.exp(x)) if x <= 0 else (
            (e_p * math.exp(-x) - k) / (math.exp(-x) + 1.0)
        )

    if kind == "l2":
        g = lambda x: h(x) - lam * x
        if g(-50.0) <= 0.0:
            return -50.0
        if g(50.0) >= 0.0:
            return 50.0
        return float(scipy.optimize.brentq(g, -50.0, 50.0, xtol=1e-14, rtol=8.9e-16))
    h0 = h(0.0)
    if abs(h0) <= lam:
        return 0.0
    if h0 > lam:
        g = lambda x: h(x) - lam
        if g(50.0) >= 0.0:
            return 50.0
        return float(scipy.optimize.brentq(g, 0.0, 50.0, xtol=1e-14, rtol=8.9e-16))
    g = lambda x: h(x) + lam
    if g(-50.0) <= 0.0:
        return -50.0
    return float(scipy.optimize.brentq(g, -50.0, 0.0, xtol=1e-14, rtol=8.9e-16))


def absent_pair_root(k: float, lam: float, kind: str) -> float:
    """Reference regularized score of a pair with zero joint count (pmi = -inf), lam > 0.

    L1: log lam - log(k - lam) below the threshold (lam < k / 2), else 0.
    L2: -t, with t the root of the log form of the stationarity condition,
    log k - softplus(t) - log lam - log t = 0, found by brentq in t: unlike
    lam x = h(x), it takes no e^x, which underflows to 0 past x = -745.
    """
    if kind == "l1":
        return math.log(lam) - math.log(k - lam) if lam < k / 2.0 else 0.0

    def g(t: float) -> float:
        return math.log(k) - (t + math.log1p(math.exp(-t))) - math.log(lam) - math.log(t)

    return -float(scipy.optimize.brentq(g, 5e-324, 3000.0, xtol=1e-300, rtol=8.9e-16))


def spearman_ref(model_sims, human_scores) -> float:
    """Rank-then-Pearson reference correlation via scipy."""
    rho, _ = scipy.stats.spearmanr(model_sims, human_scores)
    return float(rho)


def tokenize_whole(text: str) -> list[list[str]]:
    """Records as the whole text's splitlines() gives them: each non-blank line's split."""
    return [line.split() for line in text.splitlines() if line.split()]


def vocabulary_by_counter(records, min_count: int) -> tuple[list[str], list[int]]:
    """Words with count >= min_count and their counts, by (-count, word), from a Counter."""
    counts: Counter[str] = Counter()
    for record in records:
        counts.update(record)
    kept = [(w, c) for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    return [w for w, _ in kept], [c for _, c in kept]


def encode_by_lookup(records, words: list[str]) -> tuple[list[int], list[int]]:
    """Each in-vocabulary token's word id and record index, token by token."""
    index = {w: p for p, w in enumerate(words)}
    pairs = [(index[t], r) for r, record in enumerate(records) for t in record if t in index]
    return [w for w, _ in pairs], [r for _, r in pairs]


def brute_count_dense(
    records_ids: list[list[int]], n_words: int, left: int, right: int, reciprocal: bool = False
) -> np.ndarray:
    """Window counting by direct enumeration, no shared code with the package."""
    dense = np.zeros((n_words, n_words))
    for ids in records_ids:
        for t, w in enumerate(ids):
            for off in range(-left, right + 1):
                if off == 0:
                    continue
                s = t + off
                if 0 <= s < len(ids):
                    dense[w, ids[s]] += (1.0 / abs(off)) if reciprocal else 1.0
    return dense


def brute_examples(
    records: list[list[str]], index: dict[str, int], mode: str, left: int, right: int,
    reciprocal: bool = False,
) -> list[tuple[int, list[tuple[int, float]]]]:
    """Convex-model examples as (target, sorted context items), one position at a time."""
    n_words = len(index)
    offsets = [off for off in range(-left, right + 1) if off != 0]
    out = []
    for record in records:
        ids = [index[t] for t in record if t in index]
        for t, w in enumerate(ids):
            z: dict[int, float] = {}
            for slot, off in enumerate(offsets):
                s = t + off
                if not 0 <= s < len(ids):
                    continue
                if mode == "single":
                    out.append((w, [(ids[s], 1.0)]))
                    continue
                coord = slot * n_words + ids[s] if mode == "positional" else ids[s]
                z[coord] = z.get(coord, 0.0) + ((1.0 / abs(off)) if reciprocal else 1.0)
            if z:
                out.append((w, sorted(z.items())))
    return out


def brute_neighbors(vectors: np.ndarray, words: list[str], qi: int, metric: str):
    """All words ranked against the query by brute-force similarity."""
    q = vectors[qi]
    sims = []
    for i, v in enumerate(vectors):
        if i == qi:
            continue
        if metric == "dot":
            s = float(v @ q)
        else:
            nv, nq = np.linalg.norm(v), np.linalg.norm(q)
            s = float(v @ q) / (nv * nq) if nv > 0 and nq > 0 else 0.0
        sims.append((i, s))
    sims.sort(key=lambda t: (-t[1], t[0]))
    return [(words[i], s) for i, s in sims]


def example_loss_grad(W, ex, negatives=None):
    """Loss of one convex-model example, its W-gradient and the rows the gradient touches.

    negatives=None is softmax, whose gradient touches every row (a full
    slice); negative sampling touches the target and the drawn rows, np.unique
    of both as a column of row ids, each drawn row weighted by its draw count.
    The scores go through the training kernel, and its dLoss/dS is scattered
    as outer(dLoss/dS, ex.val) into a zero array of W's shape.
    """
    from coocvec.convex_model import _kernel

    rows, target, draws = slice(None), ex.target, None
    if negatives is not None:
        rows, at = np.unique(np.append(np.int64(ex.target), negatives), return_inverse=True)
        rows, target = rows[:, None], at[0]
        draws = np.bincount(at[1:], minlength=len(rows)).astype(float)
    loss, coef = _kernel(W[rows, ex.idx] @ ex.val, 1.0, target, 1.0, draws)
    grad = np.zeros_like(W)
    grad[rows, ex.idx] = np.outer(coef, ex.val)
    return loss, grad, rows


def sgd_per_example(tokens, vocab, spec, cfg) -> np.ndarray:
    """The convex model's SGD weights, drawing each example's negatives just before its step.

    `train` draws a block of steps' negatives at once from the same generator
    stream and reads each step's rows from tables, so its weights must match
    this loop's, which takes np.unique of every step's draws, bit for bit.
    """
    from coocvec.convex_model import (
        build_examples,
        context_dim,
        noise_distribution,
        soft_threshold,
    )

    n = len(vocab)
    W = np.zeros((n, context_dim(spec, n)))
    examples = build_examples(tokens, vocab, spec)
    noise = noise_distribution(vocab, cfg.noise)
    rng = np.random.default_rng(cfg.seed)
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
            _, grad, rows = example_loss_grad(W, ex, negatives)
            W[rows, ex.idx] = soft_threshold(
                W[rows, ex.idx] - eta * grad[rows, ex.idx], eta * cfg.l1
            )
    return W


def full_batch_train(tokens, vocab, spec, cfg) -> np.ndarray:
    """The convex model's full-batch weights by the public pieces: each epoch takes
    the mean gradient from full_batch_smooth (loss and all) and applies
    soft_threshold(W - step * G, step * l1) as a fresh array."""
    from coocvec.convex_model import (
        _aggregate,
        build_examples,
        context_dim,
        full_batch_smooth,
        noise_distribution,
        soft_threshold,
    )

    n = len(vocab)
    W = np.zeros((n, context_dim(spec, n)))
    examples = build_examples(tokens, vocab, spec)
    if examples:
        agg = _aggregate(examples)
        noise = noise_distribution(vocab, cfg.noise)
        for _ in range(cfg.epochs):
            _, G = full_batch_smooth(W, agg, cfg, noise)
            W = soft_threshold(W - cfg.step_initial * G, cfg.step_initial * cfg.l1)
    return W


def _write_whole(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_embedding_whole(emb, path: str, prov=None) -> None:
    """The text embedding writer that formats the whole matrix at once, for byte comparison."""
    from coocvec.formats import _comment_lines

    lines = [f"{len(emb.words)} {emb.dim}"] + _comment_lines(prov, emb.meta)
    rows = emb.vectors.tolist()  # Python floats, whose str is their repr
    lines += [" ".join([word, *map(str, row)]) for word, row in zip(emb.words, rows)]
    _write_whole(path, lines)


def write_triplets_whole(header_lines: list[str], mat, path: str) -> None:
    """The text triplet writer that formats every stored pair at once, for byte comparison."""
    rows = zip(mat.i.tolist(), mat.j.tolist(), mat.v.tolist())
    _write_whole(path, header_lines + [f"{i} {j} {v!r}" for i, j, v in rows])


def randomized_svd_whole(A: np.ndarray, dim: int, seed: int, oversample: int = 8,
                         power_iters: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """truncated_svd's subspace iteration with every product taken on the whole array A."""
    sketch = min(dim + oversample, *A.shape)
    Q, _ = np.linalg.qr(A @ np.random.default_rng(seed).standard_normal((A.shape[1], sketch)))
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    Ub, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    return (Q @ Ub)[:, :dim], s[:dim], Vt[:dim].T


def als_residual(targets, weights, W, C) -> float:
    """The weighted squared residual 0.5 * sum alpha (w_i . c_j - x_ij)^2 over the stored
    targets, with weights a matrix stored on the targets' support."""
    assert np.array_equal(weights.i, targets.i) and np.array_equal(weights.j, targets.j)
    scores = np.einsum("ij,ij->i", W[targets.i], C[targets.j])
    return 0.5 * float(np.sum(weights.v * (scores - targets.v) ** 2))


def aggregate_by_unique(examples):
    """The full batch's grouping by np.unique over padded rows: groups in
    ascending order of their (idx, value bits) rows, first = earliest example."""
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
    return {
        "z_idx": idx[first],
        "z_val": val[first],
        "z_count": np.bincount(group, minlength=len(first)).astype(float),
        "t_group": pairs[:, 0],
        "t_row": pairs[:, 1],
        "t_count": t_count.astype(float),
    }


def two_pass_solve(stats, kind: str, k: float, weights: bool):
    """Scores and, given weights, curvature weights as two passes built them: a gather
    and a `solve_pair` for the scores, checked first, then another of each for the
    weights.  Not an independent derivation but a byte pin on the one-pass
    `solve_stats`: the same values and the same refusals, in the same order."""
    from coocvec import DomainError, solve_pair

    logistic = kind == "logistic"
    x = solve_pair(kind, *stats.pair_counts(), stats.total, k).x_star
    scores = stats.pair_matrix(x, None if logistic else -1.0, "score")
    if not weights:
        return scores, None
    alpha = solve_pair(kind, *stats.pair_counts(), stats.total, k).alpha
    if alpha is None:
        raise DomainError(f"{kind} loss has no curvature weights")
    return scores, stats.pair_matrix(alpha, 0.0 if logistic else None, "curvature weight")
