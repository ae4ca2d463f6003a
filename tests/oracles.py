"""Independent numeric references for the closed-form results.

Everything here re-derives its math from scratch (own loss formulas, scipy
root finding and statistics) so that agreement with the package is a real
cross-check and not the same code evaluated twice.
"""
from __future__ import annotations

import math

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

    lo, hi = -60.0, 60.0
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


def spearman_ref(model_sims, human_scores) -> float:
    """Rank-then-Pearson reference correlation via scipy."""
    rho, _ = scipy.stats.spearmanr(model_sims, human_scores)
    return float(rho)


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


def sgd_per_example(records, vocab, spec, cfg) -> np.ndarray:
    """The convex model's SGD weights, drawing each example's negatives just before its step.

    `train` draws an epoch's negatives at once from the same generator
    stream, so its weights must match this loop's bit for bit.
    """
    from coocvec.convex_model import (
        _example_coef,
        build_examples,
        context_dim,
        noise_distribution,
        soft_threshold,
    )

    n = len(vocab)
    W = np.zeros((n, context_dim(spec, n)))
    examples = build_examples(records, vocab, spec)
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
            _, rows, coef = _example_coef(W, ex, negatives)
            W[rows, ex.idx] = soft_threshold(
                W[rows, ex.idx] - eta * np.outer(coef, ex.val), eta * cfg.l1
            )
    return W


def write_embedding_whole(emb, path: str, prov=None) -> None:
    """The text embedding writer that formats the whole matrix at once, for byte comparison."""
    from coocvec.formats import _comment_lines, _write_text

    lines = [f"{len(emb.words)} {emb.dim}"] + _comment_lines(prov, emb.meta)
    rows = emb.vectors.tolist()  # Python floats, whose str is their repr
    lines += [" ".join([word, *map(str, row)]) for word, row in zip(emb.words, rows)]
    _write_text(path, lines)
