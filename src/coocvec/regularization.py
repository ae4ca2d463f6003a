"""Closed-form L1/L2-regularized pair scores for the logistic objective.

After normalizing the logistic pair objective by the expected negative mass
#(w,.)#(.,c)/|D|, the regularized problem for one pair is

    minimize  e^pmi * log(1 + e^-x) + k * log(1 + e^x) + lam * R(x)

with R(x) = x^2 / 2 or |x|.  Stationarity reads lam * x = h(x) (L2) or a
subgradient version of it (L1), where

    h(x) = (e^pmi - k e^x) / (1 + e^x)

is strictly decreasing with x-intercept at pmi - log k.  The L2 closed form
starts from the chord through (0, h(0)) and (pmi - log k, 0), which always
overshoots the root because h is convex for x > 0, and then takes four
Newton steps on the log form of the stationarity condition.  Below log k it
uses the mirror identity: x = -x' turns the problem, divided by e^pmi, into
the positive-side one with k' = 1, pmi' = log k - pmi and lam' = lam e^-pmi.
The L1 case splits on the soft threshold at h(0).  Each closed form is one
elementwise function over arrays or scalars (scalar inputs give floats),
and scores a zero-count pair too, at e^pmi = 0: finite for every lam > 0.
Their reference, `solve_exact`, bisects the stationarity condition without
them; `closed_form_report` checks every loss's closed form and both
regularizers against the numeric references on a sample of stored pairs.
"""
from __future__ import annotations

import math

import numpy as np

from .closed_form import LOSS_NAMES, MAX_HALF_WIDTH, _float_if_scalar, bisect_decreasing
from .closed_form import minimize_pair_numeric, solve_stats
from .errors import DomainError, check_at_least, check_choice, check_shift
from .pmi import build_matrix, shifted_pmi
from .vectors import CooccurrenceStats, SparseMatrix, _refuse_pair

REG_KINDS = ("l1", "l2")
NEWTON_STEPS = 4


def _check_params(k: float, lam) -> None:
    check_shift(k)
    check_at_least("lam", np.asarray(lam), 0)


def h_function(pmi, k: float, x):
    """(e^pmi - k e^x) / (1 + e^x), elementwise, without overflow for large |x|.

    Above 0 the numerator and denominator are divided by e^x, so only
    e^(pmi - max(x, 0)) and e^-|x| are ever taken; scalar inputs give a float.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    top = np.exp(pmi - np.maximum(x, 0.0)) - k * np.where(x > 0.0, 1.0, e)
    return _float_if_scalar(top / (1.0 + e))


def l2_chord(pmi, k: float, lam: float):
    """Chord approximation to the L2-regularized score, elementwise over finite pmi.

    With A = pmi - log k and B = (e^pmi - k) / (2 lam), intersecting the
    chord with the line lam * x gives A * B / (A + B): half the harmonic mean
    of A and B, the root that tends to A as lam -> 0 and to 0 as lam -> inf.
    A and B share a sign, so the chord does too; |A| |B| / (|A| + |B|) is its
    distance from 0 on either side of log k.  Where |A| |B| overflows a
    float, it takes the lam -> 0 limit A.
    """
    _check_params(k, lam)
    pmi = np.asarray(pmi, dtype=float)
    dist = np.abs(pmi - math.log(k))
    if lam != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            b = np.abs(np.exp(pmi) - k) / (2.0 * lam)
            top = dist * b
            dist = np.where((dist > 0.0) & np.isfinite(top), top / (dist + b), dist)
    return _float_if_scalar(np.where(pmi < math.log(k), -dist, dist))


def solve_l2(pmi, k: float, lam: float):
    """Closed-form L2-regularized scores, elementwise over pmi on either side of log k.

    Starts from the chord and takes NEWTON_STEPS Newton steps on the log form
    of lam * x = h(x), g(x) = log(e^pmi + k) - softplus(x) - log(k + lam * x),
    each clamped to the bracket [0, pmi - log k]; plain Newton on lam * x -
    h(x) overshoots far left of the root, the log form does not.  Exact at
    lam = 0.  Below log k, x = -x' and division by e^pmi give the positive
    side with k' = 1, pmi' = log k - pmi, lam' = lam e^-pmi: its chord is
    the same |A| |B| / (|A| + |B|) and its g is g with c = e^pmi in place of
    k in the last term.  Where c = 0 (an absent pair), log(c + lam t) is
    log lam + log t, so a subnormal lam keeps its digits; the chord is -inf
    there, and the steps start at min(k / (2 lam), max(1, log k - log lam)),
    two upper bounds of the root: lam t = k sigma(-t) <= k / 2, and once
    t >= 1, e^t < k / (lam t) <= k / lam.
    """
    t = np.abs(l2_chord(pmi, k, lam))  # checks k and lam
    pmi = np.asarray(pmi, dtype=float)
    mirror = pmi < math.log(k)
    if lam != 0.0:
        gap = np.abs(pmi - math.log(k))
        log_top = np.logaddexp(pmi, math.log(k))
        c = np.where(mirror, np.exp(pmi), k)
        a = math.log(k) - math.log(lam)
        t = np.where(np.isneginf(pmi), math.exp(min(a - math.log(2.0), math.log(max(1.0, a)))), t)
        zero = c == 0.0  # there g and its slope are divided through by lam
        log_top, lam_c = np.where(zero, log_top - math.log(lam), log_top), np.where(zero, 1.0, lam)
        with np.errstate(over="ignore"):  # a slope of -inf (t below 1 / max float) stops t
            for _ in range(NEWTON_STEPS):
                e = np.exp(-t)
                d = c + lam_c * t
                g = log_top - (t + np.log1p(e)) - np.log(d)
                dg = -1.0 / (1.0 + e) - lam_c / d
                t = np.clip(t - g / dg, 0.0, gap)
    return _float_if_scalar(np.where(mirror, -t, t))


def solve_l1(pmi, k: float, lam: float):
    """Exact L1-regularized scores via the soft threshold on h(0), elementwise.

    h0 = (e^pmi - k) / 2 decides the case: |h0| <= lam pins the score at 0;
    otherwise the stationarity equation h(x) = +/- lam has the closed-form
    root below.  The negative branch needs h0 < -lam, so lam < k / 2 there
    and k - lam stays positive; it takes log(e^pmi + lam) - log(k - lam), so
    a quotient below the float range still gives its log.  Accepts pmi = -inf
    (zero joint count) by e^pmi = 0.
    """
    _check_params(k, lam)
    e_p = np.exp(pmi)
    h0 = (e_p - k) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        up = np.log((e_p - lam) / (k + lam))
        down = np.log(e_p + lam) - np.log(k - lam)
    return _float_if_scalar(np.where(h0 > lam, up, np.where(h0 < -lam, down, 0.0)))


def solve_exact(pmi, k: float, lam, kind: str):
    """Solve the regularized stationarity condition by bisection, elementwise.

    Serves as the ground-truth companion to the closed forms: the residual of
    each returned root is below 1e-12 on desk-scale inputs.  pmi and lam
    broadcast together.  A root lies between 0 and pmi - log k, or, at
    pmi = -inf, above min(-1, log lam - log k).  The bracket [-B, B], B =
    |pmi - log k| (log lam standing in for a pmi of -inf) clipped to [50,
    MAX_HALF_WIDTH], reaches only |root| <= MAX_HALF_WIDTH; a root past it
    gives the bracket's end.  Each kind picks a side from h(0): L2 takes
    [0, B] above 0, [-B, 0] below and [0, 0] at 0 (the score 0, exact at a
    tie pmi = log k); L1 [0, B] above lam, [-B, 0] below -lam, else [0, 0].
    """
    check_choice("kind", kind, REG_KINDS)
    _check_params(k, lam)
    with np.errstate(divide="ignore"):
        edge = np.where(np.isneginf(pmi), np.log(lam), pmi)
    B = np.clip(np.abs(edge - math.log(k)), 50.0, MAX_HALF_WIDTH)
    h0 = h_function(pmi, k, 0.0)
    if kind == "l2":
        # h(x) - lam*x is strictly decreasing and has h(0)'s sign at 0
        lo, hi = np.where(h0 < 0.0, -B, 0.0), np.where(h0 > 0.0, B, 0.0)
        return bisect_decreasing(lambda x: h_function(pmi, k, x) - lam * x, lo, hi)
    up = h0 > lam
    shift = np.where(up, lam, -lam)
    lo, hi = np.where(up | (np.abs(h0) <= lam), 0.0, -B), np.where(up, B, 0.0)
    return bisect_decreasing(lambda x: h_function(pmi, k, x) - shift, lo, hi)


def regularize_stats(stats: CooccurrenceStats, kind: str, k: float, lam: float) -> SparseMatrix:
    """Regularized scores for every stored pair, as a sparse matrix.

    The normalization by expected negative mass makes the effective strength
    the same lam for every pair, so absent pairs share one score, the closed
    form at pmi = -inf: the matrix's implicit value, found with every option
    checked before any pair is read, and -inf at lam = 0 (DomainError).
    `pair_matrix` refuses a stored score that is not finite (DomainError).
    """
    check_choice("kind", kind, REG_KINDS)
    solve = solve_l1 if kind == "l1" else solve_l2
    implicit = solve(-math.inf, k, lam)  # checks k and lam
    if lam == 0.0:
        raise DomainError("absent pairs have no finite score without regularization (lam = 0)")
    pmi = shifted_pmi(*stats.pair_counts(), stats.total)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite pmi scores NaN or inf
        scores = solve(pmi, k, lam)
    return stats.pair_matrix(scores, implicit, "score")


def closed_form_report(
    stats: CooccurrenceStats, k: float, samples: int = 200, seed: int = 0
) -> list[tuple[str, float | bool]]:
    """The closed forms against the numeric references, as (name, value) rows.

    Per loss: the largest |closed form - numeric minimizer| and whether the
    scores' signs agree with pmi - log k.  Then, over lam in 0.01, 0.1, 1
    and 10, the largest L1 error and the largest relative L2 error against
    `solve_exact`.  Every stored pair is checked as the builders check it;
    then `samples` pairs (all, if there are fewer) are drawn with `seed`, and
    each keeps the whole file's marginals (`CooccurrenceStats.restrict`).  A
    sampled pair with |pmi - log k| + 1 above MAX_HALF_WIDTH, the references'
    widest bracket, is refused (DomainError).
    """
    check_at_least("samples", samples, 0)
    check_at_least("seed", seed, 0)
    check_shift(k)
    stats.pair_counts()  # refuses a bad stored pair, sampled or not, as the builders do
    n = stats.counts.nnz
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, samples, replace=False)) if n > samples else np.arange(n)
    view = stats.restrict(chosen)  # the builders score each sampled pair as in the whole file
    pmi = build_matrix(view, "pmi").v
    shifted = pmi - math.log(k)
    gap = np.abs(shifted) + 1.0
    _refuse_pair(gap > MAX_HALF_WIDTH, view.counts.i, view.counts.j,
                 "the numeric references cannot reach the root of pair {pair}: |pmi - log k| + 1"
                 f" = {{value!r}} exceeds {MAX_HALF_WIDTH:.1f}, their widest bracket", values=gap)
    joint, n_w, n_c = view.pair_counts()

    # every builder refuses what it cannot score before a reference runs on it
    scores = [solve_stats(view, loss, k).v for loss in LOSS_NAMES]
    rows = []
    for loss, x in zip(LOSS_NAMES, scores):
        numeric = minimize_pair_numeric(loss, joint, n_w, n_c, stats.total, k)
        worst = float(np.max(np.abs(x - numeric), initial=0.0))
        if loss == "hinge":
            agree = np.array_equal(x > 0, shifted >= 0)
        else:
            decided = (x != 0.0) & (shifted != 0.0)
            agree = np.array_equal(x[decided] > 0, shifted[decided] > 0)
        rows += [(f"closed_form_max_abs_err[{loss}]", worst), (f"sign_agreement[{loss}]", agree)]

    l1_worst = l2_worst = 0.0
    for lam in (0.01, 0.1, 1.0, 10.0):
        l1, l2 = (regularize_stats(view, kind, k, lam).v for kind in REG_KINDS)
        exact1, exact2 = (solve_exact(pmi, k, lam, kind) for kind in REG_KINDS)
        l1_worst = max(l1_worst, float(np.max(np.abs(l1 - exact1), initial=0.0)))
        l2_err = np.abs(l2 - exact2)[exact2 != 0.0] / np.abs(exact2[exact2 != 0.0])
        l2_worst = max(l2_worst, float(np.max(l2_err, initial=0.0)))
    return [*rows, ("l1_closed_form_max_abs_err", l1_worst),
            ("l2_closed_form_max_rel_err", l2_worst)]
