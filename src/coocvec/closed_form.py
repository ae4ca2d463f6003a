"""Per-pair objectives for count-weighted binary losses and their minimizers.

Each (word, context) pair contributes

    rho(x) = #(w,c) * L(x, +1) + k * #(w,.) * #(.,c) / |D| * L(x, -1)

where x is the score the model assigns the pair and L is one of five losses
in the margin variable y*x.  Because rho depends on the embedding only
through the scalar x, its minimizer has a closed form per loss; with one-hot
context vectors those scalars are exactly the entries of the word matrix, so
full matrices of solutions can be assembled directly from counts.

All minimizers can be written in terms of pmi = log(#(w,c)|D| / #(w,.)#(.,c))
and the shift k:

    logistic                 x* = pmi - log k
    squared family           x* = (e^pmi - k) / (e^pmi + k)
    hinge                    x* = +1 if pmi >= log k else -1

The squared family (squared, squared hinge, huber) shares one formula because
the three losses agree on the interval where the minimizer lands.  A pair
with #(w,c) = 0 drives the logistic score to minus infinity; that is reported
as a marker, never as a float infinity inside a matrix.  Every function is
elementwise, the numeric reference `minimize_pair_numeric` included: it
bisects all pairs at once with `bisect_decreasing`, as `solve_exact` does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CooccurrenceStats
from .errors import (
    DegenerateMarginalError,
    DimensionMismatchError,
    MarkerContaminationError,
    check_shift,
)
from .vectors import EmbeddingPair

LOSS_NAMES = ("logistic", "squared", "squared_hinge", "hinge", "huber")
QUADRATIC_FAMILY = ("squared", "squared_hinge", "huber")


def _sigmoid(t):
    """1 / (1 + e^-t), elementwise, without overflow for large |t|."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _float_if_scalar(a):
    """A 0-d result as a float; arrays pass through."""
    return float(a) if np.ndim(a) == 0 else a


def _check_kind(kind: str) -> None:
    if kind not in LOSS_NAMES:
        raise ValueError(f"unknown loss {kind!r}, expected one of {LOSS_NAMES}")


def loss_value(kind: str, x, y: float):
    """L(x, y) for y in {+1, -1}, elementwise over x; a scalar x gives a float."""
    _check_kind(kind)
    x = np.asarray(x, dtype=float)
    yx = y * x
    if kind == "logistic":
        out = np.logaddexp(0.0, -yx)
    elif kind == "squared":
        out = 0.5 * (x - y) ** 2
    elif kind == "squared_hinge":
        out = 0.5 * np.maximum(1.0 - yx, 0.0) ** 2
    elif kind == "hinge":
        out = np.maximum(1.0 - yx, 0.0)
    else:
        # huber: quadratic near the margin, linear far on the wrong side
        out = np.where(yx >= -1.0, 0.5 * np.maximum(1.0 - yx, 0.0) ** 2, -2.0 * yx)
    return _float_if_scalar(out)


def loss_derivative(kind: str, x, y: float):
    """dL/dx at (x, y), elementwise over x; a scalar x gives a float."""
    _check_kind(kind)
    x = np.asarray(x, dtype=float)
    yx = y * x
    if kind == "logistic":
        out = -y * _sigmoid(-yx)
    elif kind == "squared":
        out = x - y
    elif kind == "squared_hinge":
        out = -y * np.maximum(1.0 - yx, 0.0)
    elif kind == "hinge":
        out = np.where(yx < 1.0, -y, 0.0)
    else:  # huber
        out = np.where(yx < -1.0, -2.0 * y, np.where(yx <= 1.0, -y * (1.0 - yx), 0.0))
    return _float_if_scalar(out)


def loss_second_derivative(kind: str, x, y: float):
    """d2L/dx2 at (x, y), elementwise over x; None for the hinge (no curvature)."""
    _check_kind(kind)
    if kind == "hinge":
        return None
    yx = y * np.asarray(x, dtype=float)
    if kind == "logistic":
        out = _sigmoid(yx) * _sigmoid(-yx)
    elif kind == "squared":
        out = np.ones_like(yx)
    elif kind == "squared_hinge":
        out = np.where(yx < 1.0, 1.0, 0.0)
    else:
        out = np.where((-1.0 < yx) & (yx < 1.0), 1.0, 0.0)
    return _float_if_scalar(out)


def _check_counts(n_wc, n_w, n_c, total: float, k: float) -> None:
    if any(np.any(np.less(a, 0)) for a in (n_wc, n_w, n_c)):
        raise ValueError("counts must be non-negative")
    if total <= 0:
        raise DegenerateMarginalError(f"total pair mass must be positive, got {total}")
    check_shift(k)


def pair_objective(
    kind: str, n_wc: float, n_w: float, n_c: float, total: float, k: float, x: float
) -> float:
    """rho(x): positive count times L(x,+1) plus expected negative mass times L(x,-1)."""
    _check_counts(n_wc, n_w, n_c, total, k)
    neg_mass = k * n_w * n_c / total
    return n_wc * loss_value(kind, x, 1.0) + neg_mass * loss_value(kind, x, -1.0)


@dataclass
class PairSolution:
    """Minimizer of one pair objective plus its local curvature.

    neg_inf marks the logistic zero-count case whose score runs off to minus
    infinity; x_star is -inf there.  alpha is the second derivative of
    the pair objective at the minimizer (None for hinge), delta the total
    pair weight #(w,c) + k #(w,.) #(.,c) / |D|, and pos_condition records
    whether pmi strictly exceeds log k.  `solve_pairs` fills the fields with
    arrays, `solve_pair` with scalars.
    """

    x_star: float
    neg_inf: bool
    alpha: float | None
    delta: float
    pos_condition: bool


def solve_pairs(kind: str, n_wc, n_w, n_c, total: float, k: float) -> PairSolution:
    """Closed-form minimizers of many pair objectives, elementwise.

    The count arguments broadcast against each other.  The curvature
    reported for the logistic loss is sigma(x*) sigma(-x*) delta, which
    equals #(w,c) times the expected negative mass divided by delta; the
    squared family has constant curvature delta.  Zero counts need no branch:
    they give the logistic score log 0 = -inf with alpha 0, and -1 for the
    squared family and the hinge.
    """
    _check_kind(kind)
    _check_counts(n_wc, n_w, n_c, total, k)
    n_wc, n_w, n_c = (np.asarray(a, dtype=float) for a in (n_wc, n_w, n_c))
    if np.any(n_w == 0.0) or np.any(n_c == 0.0):
        raise DegenerateMarginalError("marginals must be positive to place a pair")
    neg_mass = k * n_w * n_c / total
    delta = n_wc + neg_mass
    if kind == "logistic":
        with np.errstate(divide="ignore"):
            x = np.log(n_wc / neg_mass)
        alpha = n_wc * neg_mass / delta
    elif kind == "hinge":
        x, alpha = np.where(n_wc * total >= k * n_w * n_c, 1.0, -1.0), None
    else:
        x, alpha = (n_wc - neg_mass) / delta, delta
    return PairSolution(x, np.isneginf(x), alpha, delta, n_wc * total > k * n_w * n_c)


def solve_pair(
    kind: str, n_wc: float, n_w: float, n_c: float, total: float, k: float
) -> PairSolution:
    """Closed-form minimizer of one pair objective; see `solve_pairs`."""
    sol = solve_pairs(kind, n_wc, n_w, n_c, total, k)
    return PairSolution(
        float(sol.x_star),
        bool(sol.neg_inf),
        None if sol.alpha is None else float(sol.alpha),
        float(sol.delta),
        bool(sol.pos_condition),
    )


def bisect_decreasing(g, lo, hi):
    """Roots of a decreasing elementwise g, one bracket [lo, hi] per element.

    An element with g(lo) <= 0 gives lo, one with g(hi) >= 0 gives hi; any
    other is halved (at most 200 times) until its bracket is below 1e-15
    relative and gives the midpoint.  Scalar brackets and g give a float.
    """
    lo, hi, g_lo, g_hi = np.broadcast_arrays(lo, hi, g(lo), g(hi))
    at_lo = g_lo <= 0.0
    at_hi = ~at_lo & (g_hi >= 0.0)
    active = ~(at_lo | at_hi)
    for _ in range(200):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        up = g(mid) > 0.0
        lo = np.where(active & up, mid, lo)
        hi = np.where(active & ~up, mid, hi)
        active &= ~(hi - lo < 1e-15 * np.maximum(1.0, np.abs(lo)))
    return _float_if_scalar(np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi))))


def minimize_pair_numeric(kind: str, n_wc, n_w, n_c, total: float, k: float, lo=-60.0, hi=60.0):
    """Minimize pair objectives numerically, elementwise, without the closed forms.

    Hinge objectives are piecewise linear with the optimum at a margin vertex,
    so those are compared directly (a tie picks -1); the smooth losses are
    solved by bisecting the sign change of the first derivative, which every
    convex member has.  The counts and the bracket broadcast together.
    """
    _check_kind(kind)
    if kind == "hinge":
        up, down = (pair_objective(kind, n_wc, n_w, n_c, total, k, x) for x in (1.0, -1.0))
        return _float_if_scalar(np.where(up < down, 1.0, -1.0))
    neg_mass = k * n_w * n_c / total

    def falling(x):
        # minus the slope of the objective, which rises through its minimum
        return -(n_wc * loss_derivative(kind, x, 1.0) + neg_mass * loss_derivative(kind, x, -1.0))

    return bisect_decreasing(falling, lo, hi)


def assemble_spmi_solution(stats: CooccurrenceStats, kind: str, k: float) -> EmbeddingPair:
    """Solve every pair against one-hot context vectors.

    C is the identity, so the score of (w, c) is just W[w, c] and each entry
    is the closed-form scalar solution; for the logistic loss the result is
    exactly the shifted PMI matrix with markers at absent pairs.
    """
    n = stats.n_words
    sol = solve_pairs(
        kind, stats.to_dense(), stats.row_marginal[:, None], stats.col_marginal, stats.total, k
    )
    W = np.where(sol.neg_inf, 0.0, sol.x_star)
    mask = sol.neg_inf if kind == "logistic" else None
    return EmbeddingPair(W=W, C=np.eye(n), W_neg_inf=mask)


def objective_value(
    W: np.ndarray,
    C: np.ndarray,
    stats: CooccurrenceStats,
    kind: str,
    k: float,
    neg_inf_mask: np.ndarray | None = None,
) -> float:
    """Full corpus objective: sum of pair objectives at scores X = W C^T.

    The negative term ranges over every pair with positive marginals, not
    just the stored ones.  neg_inf_mask marks score entries that sit at minus
    infinity (only the logistic loss produces them); masked stored pairs are
    not allowed, and masked absent pairs contribute the limit value zero.
    """
    _check_kind(kind)
    check_shift(k)
    W = np.asarray(W, dtype=float)
    C = np.asarray(C, dtype=float)
    n = stats.n_words
    if W.ndim != 2 or C.ndim != 2 or W.shape[0] != n or C.shape[0] != n:
        raise DimensionMismatchError(
            f"need W and C with {n} rows, got {W.shape} and {C.shape}"
        )
    if W.shape[1] != C.shape[1]:
        raise DimensionMismatchError(
            f"inner dimensions differ: {W.shape[1]} vs {C.shape[1]}"
        )
    if neg_inf_mask is not None and kind != "logistic":
        raise MarkerContaminationError(
            "minus-infinity score markers only make sense for the logistic loss"
        )

    X = W @ C.T
    counts = stats.counts
    rows, cols, joint = counts.i, counts.j, counts.v
    if neg_inf_mask is not None and neg_inf_mask[rows, cols].any():
        first = counts.pair(int(np.argmax(neg_inf_mask[rows, cols])))
        raise MarkerContaminationError(f"stored pair {first} has a minus-infinity score")
    pos = float(joint @ loss_value(kind, X[rows, cols], 1.0))

    neg_losses = loss_value(kind, X, -1.0)
    if neg_inf_mask is not None:
        # logistic L(x, -1) = log(1 + e^x) -> 0 as x -> -inf
        neg_losses = np.where(neg_inf_mask, 0.0, neg_losses)
    weights = np.outer(stats.row_marginal, stats.col_marginal)
    neg = float((weights * neg_losses).sum()) * k / stats.total
    return pos + neg
