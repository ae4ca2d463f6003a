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
array expression over all pairs; the scalar functions are validating entry
points to it.  The reference `solve_exact` is one elementwise bisection of
the stationarity condition, independent of the closed forms.  Zero-count
pairs are handled by letting e^pmi = 0, which keeps every regularized
solution with lam > 0 finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import _float_if_scalar, bisect_decreasing
from .corpus import CooccurrenceStats
from .errors import DomainError, InvalidOptionError, check_shift
from .pmi import pmi_values
from .vectors import SparseMatrix

REG_KINDS = ("l1", "l2")
NEWTON_STEPS = 4


@dataclass(frozen=True)
class RegSpec:
    """Which regularizer to apply and with what strength."""

    kind: str
    k: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in REG_KINDS:
            raise InvalidOptionError(f"kind must be one of {REG_KINDS}, got {self.kind!r}")
        _check_params(self.k, self.lam)


def _check_params(k: float, lam) -> None:
    check_shift(k)
    if not np.all((np.asarray(lam) >= 0.0) & np.isfinite(lam)):
        raise InvalidOptionError(f"lam must be a finite real >= 0, got {lam}")


def _check_positive_side(pmi: float, k: float, lam: float) -> None:
    _check_params(k, lam)
    if not pmi - math.log(k) > 0.0:
        raise DomainError(f"needs pmi > log k, got pmi - log k = {pmi - math.log(k)!r}")


def h_function(pmi, k: float, x):
    """(e^pmi - k e^x) / (1 + e^x), elementwise, without overflow for large |x|.

    Above 0 the numerator and denominator are divided by e^x, so only
    e^(pmi - max(x, 0)) and e^-|x| are ever taken; scalar inputs give a float.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    top = np.exp(pmi - np.maximum(x, 0.0)) - k * np.where(x > 0.0, 1.0, e)
    return _float_if_scalar(top / (1.0 + e))


def _chord(pmi: np.ndarray, k: float, lam: float) -> np.ndarray:
    """|A| |B| / (|A| + |B|), the chord crossing's distance from 0 on either side."""
    gap = np.abs(pmi - math.log(k))
    if lam == 0.0:
        return gap
    b = np.abs(np.exp(pmi) - k) / (2.0 * lam)
    with np.errstate(invalid="ignore"):
        return np.where(gap > 0.0, gap * b / (gap + b), 0.0)


def l2_chord(pmi: float, k: float, lam: float) -> float:
    """Chord approximation to the L2-regularized score.

    With A = pmi - log k and B = (e^pmi - k) / (2 lam), intersecting the
    chord with the line lam * x gives A * B / (A + B): half the harmonic mean
    of A and B, the root that tends to A as lam -> 0 and to 0 as lam -> inf.
    Only defined on the positive side pmi > log k.
    """
    _check_positive_side(pmi, k, lam)
    return float(_chord(np.float64(pmi), k, lam))


def l2_scores(pmi: np.ndarray, k: float, lam: float) -> np.ndarray:
    """Closed-form L2-regularized scores for finite pmi on either side of log k.

    Starts from the chord and takes NEWTON_STEPS Newton steps on the log form
    of lam * x = h(x), g(x) = log(e^pmi + k) - softplus(x) - log(k + lam * x),
    each clamped to the bracket [0, pmi - log k]; plain Newton on lam * x -
    h(x) overshoots far left of the root, the log form does not.  Exact at
    lam = 0.  Below log k, x = -x' and division by e^pmi give the positive
    side with k' = 1, pmi' = log k - pmi, lam' = lam e^-pmi: its chord is
    the same |A| |B| / (|A| + |B|) and its g, with the log arguments scaled
    by e^pmi, is g with e^pmi in place of k in the last term.
    """
    _check_params(k, lam)
    pmi = np.asarray(pmi, dtype=float)
    mirror = pmi < math.log(k)
    gap = np.abs(pmi - math.log(k))
    t = _chord(pmi, k, lam)
    if lam != 0.0:
        log_top = np.logaddexp(pmi, math.log(k))
        c = np.where(mirror, np.exp(pmi), k)
        for _ in range(NEWTON_STEPS):
            e = np.exp(-t)
            d = c + lam * t
            g = log_top - (t + np.log1p(e)) - np.log(d)
            dg = -1.0 / (1.0 + e) - lam / d
            t = np.clip(t - g / dg, 0.0, gap)
    return np.where(mirror, -t, t)


def solve_l2(pmi: float, k: float, lam: float) -> float:
    """Closed-form L2-regularized score of one pair on the positive side.

    A validating entry point to `l2_scores`; like the chord it accepts only
    pmi > log k and raises DomainError otherwise.
    """
    _check_positive_side(pmi, k, lam)
    return float(l2_scores(pmi, k, lam))


def l1_scores(pmi: np.ndarray, k: float, lam: float) -> np.ndarray:
    """Exact L1-regularized scores via the soft threshold on h(0).

    h0 = (e^pmi - k) / 2 decides the case: |h0| <= lam pins the score at 0;
    otherwise the stationarity equation h(x) = +/- lam has the closed-form
    root below.  The negative branch needs h0 < -lam, so lam < k / 2 there
    and its denominator stays positive.  Accepts pmi = -inf (zero joint
    count) by e^pmi = 0.
    """
    _check_params(k, lam)
    e_p = np.exp(pmi)
    h0 = (e_p - k) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        up = np.log((e_p - lam) / (k + lam))
        down = np.log((e_p + lam) / (k - lam))
    return np.where(h0 > lam, up, np.where(h0 < -lam, down, 0.0))


def solve_l1(pmi: float, k: float, lam: float) -> float:
    """Exact L1-regularized score of one pair; see `l1_scores`."""
    return float(l1_scores(pmi, k, lam))


def solve_exact(pmi, k: float, lam, kind: str):
    """Solve the regularized stationarity condition by bisection, elementwise.

    Serves as the ground-truth companion to the closed forms: the residual of
    each returned root is below 1e-12 on desk-scale inputs, and the bracket
    [-50, 50] covers every root those inputs can produce.  pmi and lam
    broadcast together.  L1 picks each bracket from h(0): [0, 50] above lam,
    [-50, 0] below -lam, and [0, 0] (the score 0) in between.
    """
    if kind not in REG_KINDS:
        raise ValueError(f"kind must be one of {REG_KINDS}, got {kind!r}")
    _check_params(k, lam)
    if kind == "l2":
        # lam*x - h(x) is strictly increasing; its negation is decreasing
        return bisect_decreasing(lambda x: h_function(pmi, k, x) - lam * x, -50.0, 50.0)
    h0 = h_function(pmi, k, 0.0)
    up = h0 > lam
    shift = np.where(up, lam, -lam)
    lo = np.where(up | (np.abs(h0) <= lam), 0.0, -50.0)
    hi = np.where(up, 50.0, 0.0)
    return bisect_decreasing(lambda x: h_function(pmi, k, x) - shift, lo, hi)


def absent_pair_solution(spec: RegSpec) -> float:
    """Regularized score shared by every pair with zero joint count."""
    if spec.lam == 0.0:
        raise DomainError("absent pairs have no finite score without regularization (lam = 0)")
    if spec.kind == "l1":
        return solve_l1(-math.inf, spec.k, spec.lam)
    return solve_exact(-math.inf, spec.k, spec.lam, "l2")


def regularize_stats(stats: CooccurrenceStats, spec: RegSpec) -> SparseMatrix:
    """Regularized scores for every stored pair, as a sparse matrix.

    The normalization by expected negative mass makes the effective strength
    the same lam for every pair, so absent pairs share one finite score; it
    becomes the matrix's implicit value.  Both closed forms cover every
    stored pair, on either side of log k.
    """
    counts = stats.counts
    pmi = pmi_values(stats, counts.i, counts.j, counts.v)
    scores = l1_scores if spec.kind == "l1" else l2_scores
    return replace(
        counts, v=scores(pmi, spec.k, spec.lam), implicit_value=absent_pair_solution(spec)
    )
