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
the three losses agree on the interval where the minimizer lands.  The
logistic minimizer is `pmi.shifted_pmi` itself, so SGNS = SPMI by
construction.  A pair with #(w,c) = 0 drives the logistic score to minus
infinity: an undefined implicit value in a sparse matrix, never a float
infinity inside a matrix.  Every function is
elementwise, with one entry point for arrays and scalars alike (scalar inputs
give Python scalars), the numeric reference `minimize_pair_numeric` included:
it bisects all pairs at once with `bisect_decreasing`, as `solve_exact` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginalError, DimensionMismatchError, DomainError, check_choice
from .errors import check_shift
from .pmi import shifted_pmi
from .vectors import CooccurrenceStats, SparseMatrix

LOSS_NAMES = ("logistic", "squared", "squared_hinge", "hinge", "huber")
# a bisection bracket's widest half: past it, e^-|x| is no longer a normal float
MAX_HALF_WIDTH = -math.log(np.finfo(float).tiny)


def _sigmoid(t):
    """1 / (1 + e^-t), elementwise, without overflow for large |t|."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _float_if_scalar(a):
    """A 0-d result as a Python scalar (a float, or a bool from a mask); arrays pass through."""
    return a.item() if np.ndim(a) == 0 else a


def loss_value(kind: str, x, y: float):
    """L(x, y) for y in {+1, -1}, elementwise over x; a scalar x gives a float."""
    check_choice("loss", kind, LOSS_NAMES)
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
    check_choice("loss", kind, LOSS_NAMES)
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
    check_choice("loss", kind, LOSS_NAMES)
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
    """Minimizers of pair objectives and their local curvature, elementwise.

    x_star is -inf for the logistic zero-count case, whose score runs off to
    minus infinity.  alpha is the second derivative of the pair objective at
    the minimizer (None for hinge).  Each field is an array of the counts'
    broadcast shape, or a Python float when every count is one.
    """

    x_star: float
    alpha: float | None


def solve_pair(kind: str, n_wc, n_w, n_c, total: float, k: float) -> PairSolution:
    """Closed-form minimizers of pair objectives, elementwise.

    The count arguments broadcast against each other.  With delta the total
    pair weight #(w,c) + k #(w,.) #(.,c) / |D|, the curvature reported for
    the logistic loss is sigma(x*) sigma(-x*) delta, which equals #(w,c)
    times the expected negative mass divided by delta; the squared family
    has constant curvature delta.  Zero counts need no branch: they give the
    logistic score log 0 = -inf with alpha 0, and -1 for the squared family
    and the hinge.  A negative mass that overflows a float gives NaN without
    a warning; `solve_stats` and `curvature_weights` refuse it.
    """
    check_choice("loss", kind, LOSS_NAMES)
    _check_counts(n_wc, n_w, n_c, total, k)
    n_wc, n_w, n_c = (np.asarray(a, dtype=float) for a in (n_wc, n_w, n_c))
    if np.any(n_w == 0.0) or np.any(n_c == 0.0):
        raise DegenerateMarginalError("marginals must be positive to place a pair")
    with np.errstate(over="ignore", invalid="ignore"):
        neg_mass = k * n_w * n_c / total
        delta = n_wc + neg_mass
        if kind == "logistic":
            x, alpha = shifted_pmi(n_wc, n_w, n_c, total, k), n_wc * neg_mass / delta
        elif kind == "hinge":
            x, alpha = np.where(n_wc * total >= k * n_w * n_c, 1.0, -1.0), None
        else:
            x, alpha = (n_wc - neg_mass) / delta, delta
    return PairSolution(_float_if_scalar(x), None if alpha is None else _float_if_scalar(alpha))


def solve_stats(stats: CooccurrenceStats, kind: str, k: float) -> SparseMatrix:
    """Closed-form scores of every stored pair.

    The matrix carries, as its implicit value, the closed form of an absent
    pair (#(w,c) = 0): -1, or minus infinity for the logistic loss, which a
    matrix records as undefined (None).  `pair_matrix` refuses a score that
    is not finite (DomainError).
    """
    x = solve_pair(kind, *stats.pair_counts(), stats.total, k).x_star
    return stats.pair_matrix(x, None if kind == "logistic" else -1.0, "score")


def curvature_weights(stats: CooccurrenceStats, kind: str, k: float) -> SparseMatrix:
    """Each stored pair's curvature at its closed-form score: the weighted factorization's weights.

    An absent pair's logistic curvature is 0; the squared family's is
    k n_w n_c / |D|, one value per pair, so no single implicit value holds
    (None).  The hinge has no curvature, and a weight that is not finite is
    refused (DomainError).
    """
    alpha = solve_pair(kind, *stats.pair_counts(), stats.total, k).alpha
    if alpha is None:
        raise DomainError(f"{kind} loss has no curvature weights")
    return stats.pair_matrix(alpha, 0.0 if kind == "logistic" else None, "curvature weight")


def bisect_decreasing(g, lo, hi):
    """Roots of a decreasing elementwise g, one bracket [lo, hi] per element.

    An element with g(lo) <= 0 gives lo, one with g(hi) >= 0 gives hi; any
    other is halved (at most 200 times) until its bracket is below 1e-15
    relative or g(mid) == 0, and gives the midpoint.  Scalars give a float.
    """
    lo, hi, g_lo, g_hi = np.broadcast_arrays(lo, hi, g(lo), g(hi))
    at_lo = g_lo <= 0.0
    at_hi = ~at_lo & (g_hi >= 0.0)
    active = ~(at_lo | at_hi)
    for _ in range(200):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)  # a root at mid closes the bracket on it
        lo = np.where(active & (g_mid >= 0.0), mid, lo)
        hi = np.where(active & ~(g_mid > 0.0), mid, hi)
        active &= ~(hi - lo < 1e-15 * np.maximum(1.0, np.abs(lo)))
    return _float_if_scalar(np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi))))


def minimize_pair_numeric(kind: str, n_wc, n_w, n_c, total: float, k: float):
    """Minimize pair objectives numerically, elementwise, without the closed forms.

    Hinge objectives are piecewise linear with the optimum at a margin vertex,
    so those are compared directly (a tie picks +1, as the closed form does);
    the smooth losses are solved by bisecting the sign change of the first
    derivative, which every convex member has.  Each pair's minimizer lies
    between 0 and pmi - log k, so its bracket is [-B, B] with B = 1 +
    |pmi - log k| clipped to [60, MAX_HALF_WIDTH]; the gap is taken as
    log #(w,c) minus the log of the negative mass, so a tiny count does not
    underflow to pmi = -inf.  The counts broadcast together.
    """
    check_choice("loss", kind, LOSS_NAMES)
    if kind == "hinge":
        up, down = (pair_objective(kind, n_wc, n_w, n_c, total, k, x) for x in (1.0, -1.0))
        return _float_if_scalar(np.where(up <= down, 1.0, -1.0))
    neg_mass = k * n_w * n_c / total

    def falling(x):
        # minus the slope of the objective, which rises through its minimum
        return -(n_wc * loss_derivative(kind, x, 1.0) + neg_mass * loss_derivative(kind, x, -1.0))

    with np.errstate(divide="ignore"):  # a zero count reaches inf: B = MAX_HALF_WIDTH
        B = np.clip(1.0 + np.abs(np.log(n_wc) - np.log(neg_mass)), 60.0, MAX_HALF_WIDTH)
    return bisect_decreasing(falling, -B, B)


def objective_value(
    W: np.ndarray,
    C: np.ndarray,
    stats: CooccurrenceStats,
    kind: str,
    k: float,
) -> float:
    """Full corpus objective: sum of pair objectives at scores X = W C^T.

    The negative term ranges over every pair with positive marginals, not
    just the stored ones.
    """
    check_choice("loss", kind, LOSS_NAMES)
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

    X = W @ C.T
    counts = stats.counts
    rows, cols, joint = counts.i, counts.j, counts.v
    pos = float(joint @ loss_value(kind, X[rows, cols], 1.0))

    neg_losses = loss_value(kind, X, -1.0)
    weights = np.outer(stats.row_marginal, stats.col_marginal)
    neg = float((weights * neg_losses).sum()) * k / stats.total
    return pos + neg
