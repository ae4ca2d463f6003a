"""Independent numpy references for the benchmark's output checks.

Nothing here calls coocvec: files are parsed from their documented layout
and every expected value is recomputed from the generated inputs or from
the counts file, so a check fails when the program's answer changes.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

_TRIPLET = np.dtype([("i", "<u4"), ("j", "<u4"), ("v", "<f8")])
REL_TOL = 1e-9


@dataclass
class Triplets:
    """A triplet file: header fields plus (i, j, v) columns sorted by (i, j)."""

    head: list[str]
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.v)


def read_triplets(path: str) -> Triplets:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == b"CWB1":
        (hlen,) = struct.unpack_from("<I", blob, 4)
        header = blob[8 : 8 + hlen].decode("utf-8").splitlines()
        (n,) = struct.unpack_from("<Q", blob, 8 + hlen)
        data = np.frombuffer(blob, dtype=_TRIPLET, count=n, offset=16 + hlen)
        body = [h for h in header if h and not h.startswith("#")]
        return Triplets(body[0].split(), data["i"].astype(np.int64),
                        data["j"].astype(np.int64), data["v"].astype(float))
    lines = [ln for ln in blob.decode("utf-8").split("\n") if ln and not ln.startswith("#")]
    cells = np.array(" ".join(lines[1:]).split(), dtype=float).reshape(-1, 3)
    return Triplets(lines[0].split(), cells[:, 0].astype(np.int64),
                    cells[:, 1].astype(np.int64), cells[:, 2])


def read_embedding(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln and not ln.startswith("#")]
    n, dim = (int(x) for x in lines[0].split())
    words = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split(" ")
        words.append(parts[0])
        rows.append(parts[1:])
    vectors = np.array(rows, dtype=float).reshape(len(rows), -1)
    if vectors.shape != (n, dim):
        raise ValueError(f"{path}: header says {n}x{dim}, body is {vectors.shape}")
    return words, vectors


def read_kv(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        pairs = [ln.split("\t") for ln in fh.read().split("\n") if ln and not ln.startswith("#")]
    return {p[0]: p[1] for p in pairs}


def close(got: np.ndarray, want: np.ndarray, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= abs_ + rel * np.abs(want)))


# ------------------------------------------------------------------ counting


def vocabulary(ids: np.ndarray, min_count: int, word) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(rank -> vocab id or -1, vocab freq, vocab words) in the documented order.

    Words are ordered by descending count, ties broken by the word string.
    """
    freq = np.bincount(ids)
    kept = np.flatnonzero(freq >= min_count)
    order = sorted(kept.tolist(), key=lambda r: (-int(freq[r]), word(r)))
    to_vid = np.full(len(freq), -1, dtype=np.int64)
    to_vid[order] = np.arange(len(order))
    return to_vid, freq[order], [word(r) for r in order]


def kept_stream(corpus, to_vid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-vocabulary ids in corpus order and the record each one belongs to."""
    vid = to_vid[corpus.ids]
    rec = np.repeat(np.arange(len(corpus.lengths)), corpus.lengths)
    keep = vid >= 0
    return vid[keep], rec[keep]


def window_slots(rec: np.ndarray, left: int, right: int) -> int:
    """In-record (target, offset) slots a window of this shape visits."""
    lengths = np.bincount(rec)
    slots = 0
    for off in list(range(1, left + 1)) + list(range(1, right + 1)):
        slots += int(np.maximum(lengths - off, 0).sum())
    return slots


def reference_counts(vid, rec, n_words, freq, left, right, reciprocal, tau):
    """Dense V x V weighted counts from shifted-id bincounts."""
    total_tokens = float(freq.sum())
    weight = np.ones(n_words)
    if tau is not None:
        weight = np.minimum(1.0, np.sqrt(tau / (freq / total_tokens)))
    counts = np.zeros(n_words * n_words)
    for off in list(range(-left, 0)) + list(range(1, right + 1)):
        if off > 0:
            t, c, same = vid[:-off], vid[off:], rec[:-off] == rec[off:]
        else:
            t, c, same = vid[-off:], vid[:off], rec[-off:] == rec[:off]
        t, c = t[same], c[same]
        p3 = 1.0 / abs(off) if reciprocal else 1.0
        counts += np.bincount(t * n_words + c, weights=weight[t] * weight[c] * p3,
                              minlength=n_words * n_words)
    return counts.reshape(n_words, n_words)


def check_counts(tri: Triplets, ref: np.ndarray) -> list[str]:
    errs = []
    n = ref.shape[0]
    if int(tri.head[0]) != n:
        errs.append(f"counts: V={tri.head[0]}, reference V={n}")
        return errs
    want_i, want_j = np.nonzero(ref)
    if not (np.array_equal(want_i, tri.i) and np.array_equal(want_j, tri.j)):
        errs.append(f"counts: support differs ({tri.nnz} stored, {len(want_i)} expected)")
        return errs
    if not close(tri.v, ref[want_i, want_j]):
        errs.append("counts: values differ from the bincount reference")
    if not math.isclose(float(tri.head[1]), float(ref.sum()), rel_tol=REL_TOL):
        errs.append(f"counts: total {tri.head[1]} vs reference {ref.sum()!r}")
    dense = np.zeros((n, n))
    dense[tri.i, tri.j] = tri.v
    if not close(dense, dense.T):
        errs.append("counts: not symmetric")
    return errs


def marginals(tri: Triplets) -> tuple[np.ndarray, np.ndarray, float]:
    n = int(tri.head[0])
    row = np.bincount(tri.i, weights=tri.v, minlength=n)
    col = np.bincount(tri.j, weights=tri.v, minlength=n)
    return row, col, float(tri.head[1])


def pair_pmi(counts: Triplets) -> np.ndarray:
    row, col, total = marginals(counts)
    return np.log(counts.v * total / (row[counts.i] * col[counts.j]))


def check_pmi_matrix(mat: Triplets, counts: Triplets, k: float) -> list[str]:
    """Positive variant: stored entries are exactly pmi - log k where positive."""
    value = pair_pmi(counts) - math.log(k)
    keep = value > 0.0
    if not (np.array_equal(mat.i, counts.i[keep]) and np.array_equal(mat.j, counts.j[keep])):
        return [f"pmi k={k}: support differs ({mat.nnz} stored, {int(keep.sum())} expected)"]
    if not close(mat.v, value[keep]):
        return [f"pmi k={k}: entries differ from log(n_wc |D| / n_w n_c) - log k"]
    return []


# ---------------------------------------------------------------- closed forms


def closed_forms(counts: Triplets, loss: str, k: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-pair minimizer and curvature for every stored (positive) pair."""
    row, col, total = marginals(counts)
    n_wc = counts.v
    neg = k * row[counts.i] * col[counts.j] / total
    delta = n_wc + neg
    if loss == "logistic":
        return np.log(n_wc / neg), n_wc * neg / delta
    if loss == "hinge":
        x = np.where(n_wc * total >= k * row[counts.i] * col[counts.j], 1.0, -1.0)
        return x, None
    return (n_wc - neg) / (n_wc + neg), delta


def check_solution(sol: Triplets, alpha: Triplets | None, counts: Triplets, loss: str, k: float):
    errs = []
    x, a = closed_forms(counts, loss, k)
    implicit = "implicit=none" if loss == "logistic" else "implicit=-1.0"
    if implicit not in sol.head:
        errs.append(f"solve {loss}: header {sol.head} lacks {implicit}")
    if not (np.array_equal(sol.i, counts.i) and np.array_equal(sol.j, counts.j)):
        errs.append(f"solve {loss}: support differs from the counts")
    elif not close(sol.v, x):
        errs.append(f"solve {loss}: entries differ from the closed form")
    if alpha is not None:
        if not (np.array_equal(alpha.i, counts.i) and close(alpha.v, a)):
            errs.append(f"solve {loss}: curvature weights differ from the closed form")
    return errs


def soft_threshold_l1(pmi: np.ndarray, k: float, lam: float) -> np.ndarray:
    e_p = np.exp(pmi)
    h0 = (e_p - k) / 2.0
    out = np.zeros_like(pmi)
    pos = h0 > lam
    neg = h0 < -lam
    out[pos] = np.log((e_p[pos] - lam) / (k + lam))
    out[neg] = np.log((e_p[neg] + lam) / (k - lam))
    return out


def check_l1(reg: Triplets, counts: Triplets, k: float, lam: float) -> list[str]:
    want = soft_threshold_l1(pair_pmi(counts), k, lam)
    if not np.array_equal(reg.i, counts.i):
        return ["regularize l1: support differs from the counts"]
    if not close(reg.v, want):
        return ["regularize l1: entries differ from the soft-threshold formula"]
    return []


def h_fn(pmi: np.ndarray, k: float, x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))
    big = x > 0.0
    out = np.empty_like(x)
    out[big] = (np.exp(pmi[big] - x[big]) - k) / (ex[big] + 1.0)
    out[~big] = (np.exp(pmi[~big]) - k * ex[~big]) / (1.0 + ex[~big])
    return out


def l2_fallback_mask(counts: Triplets, k: float) -> np.ndarray:
    """Pairs on which the chord is undefined (pmi - log k <= 0)."""
    return pair_pmi(counts) - math.log(k) <= 0.0


def check_l2(reg: Triplets, counts: Triplets, k: float, lam: float) -> list[str]:
    """Finite, same sign as pmi - log k, inside |pmi - log k|, residual <= chord's."""
    pmi = pair_pmi(counts)
    a = pmi - math.log(k)
    x = reg.v
    errs = []
    if not np.array_equal(reg.i, counts.i):
        return ["regularize l2: support differs from the counts"]
    if not np.all(np.isfinite(x)):
        errs.append("regularize l2: non-finite entries")
    # Where pmi is exactly log k the root is 0, and bisection stops within an
    # ulp of it on either side; the |x| bound below covers those pairs.
    signed = a != 0.0
    if np.any(np.sign(x[signed]) != np.sign(a[signed])):
        errs.append("regularize l2: sign differs from pmi - log k")
    if np.any(np.abs(x) > np.abs(a) * (1 + 1e-12) + 1e-15):
        errs.append("regularize l2: |x| exceeds |pmi - log k|")
    b = (np.exp(pmi) - k) / (2.0 * lam)
    with np.errstate(invalid="ignore", divide="ignore"):
        chord = np.where(a + b != 0.0, a * b / (a + b), 0.0)
    res = np.abs(lam * x - h_fn(pmi, k, x))
    res_chord = np.abs(lam * chord - h_fn(pmi, k, chord))
    if np.any(res > res_chord * (1 + 1e-9) + 1e-12):
        errs.append("regularize l2: stationarity residual worse than the chord's")
    return errs


# ---------------------------------------------------------------- factorizing


def top_singular_values(counts_matrix: Triplets, k: int) -> np.ndarray:
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import svds

    n = int(counts_matrix.head[0])
    A = coo_matrix((counts_matrix.v, (counts_matrix.i, counts_matrix.j)), shape=(n, n)).tocsr()
    s = svds(A, k=k, random_state=0, return_singular_vectors=False)
    return np.sort(s)[::-1]


def als_residuals(W, C, target: Triplets, alpha: Triplets) -> tuple[float, float]:
    """Weighted residual of W C^T on the support, and of the zero factorization."""
    scores = np.einsum("ij,ij->i", W[target.i], C[target.j])
    fit = 0.5 * float(np.sum(alpha.v * (scores - target.v) ** 2))
    zero = 0.5 * float(np.sum(alpha.v * target.v ** 2))
    return fit, zero


# ---------------------------------------------------------------- convex model


def bag_examples(vid: np.ndarray, rec: np.ndarray, n_words: int, left: int, right: int):
    """Sparse (examples x V) bag-of-context matrix and target ids (constant weights)."""
    from scipy.sparse import coo_matrix

    n = len(vid)
    rows, cols = [], []
    for off in list(range(-left, 0)) + list(range(1, right + 1)):
        pos = np.arange(n)
        ctx = pos + off
        ok = (ctx >= 0) & (ctx < n)
        ok[ok] &= rec[ctx[ok]] == rec[pos[ok]]
        rows.append(pos[ok])
        cols.append(vid[ctx[ok]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    Z = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n_words)).tocsr()
    Z.sum_duplicates()
    has_ctx = np.diff(Z.indptr) > 0
    return Z[has_ctx], vid[has_ctx]


def context_groups(Z) -> int:
    Z = Z.tocsr()
    Z.sort_indices()
    keys = {
        (Z.indices[a:b].tobytes(), Z.data[a:b].tobytes())
        for a, b in zip(Z.indptr[:-1], Z.indptr[1:])
    }
    return len(keys)


def convex_objective(W: np.ndarray, Z, targets: np.ndarray, noise: np.ndarray,
                     k_neg: int, l1: float) -> float:
    """Mean negative-sampling loss with expected negatives, plus the L1 term."""
    S = np.asarray(Z @ W.T)
    pos = np.logaddexp(0.0, -S[np.arange(len(targets)), targets])
    negs = k_neg * (np.logaddexp(0.0, S) @ noise)
    return float(np.mean(pos + negs)) + l1 * float(np.abs(W).sum())
