"""PMI-family association matrices built from co-occurrence counts.

For a pair with joint weight #(w,c), marginals #(w,.) and #(.,c), and total
mass |D|,

    pmi(w, c) = log( #(w,c) * |D| / (#(w,.) * #(.,c)) )        (natural log)

The shifted variant subtracts log k.  Positive variants clamp at zero and
store only strictly positive entries.  A pair with #(w,c) = 0 has no finite
PMI; such entries are absent and the matrix-level implicit value records
whether absence means "exact zero" (positive variants) or "undefined /
minus infinity" (unclamped variants).
"""
from __future__ import annotations

import math

import numpy as np

from .corpus import CooccurrenceStats
from .errors import InvalidShiftError, check_choice, check_shift
from .vectors import SparseMatrix

VARIANTS = ("pmi", "ppmi", "spmi", "sppmi")


def shifted_pmi(joint, n_w, n_c, total: float, k: float = 1.0):
    """log(joint * total / (n_w * n_c)) - log k, elementwise: the one PMI expression.

    Its arguments are the gathered counts (`CooccurrenceStats.pair_counts`);
    a zero joint weight gives -inf, and a ratio past the float range +inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(joint * total / (n_w * n_c)) - math.log(k)


def build_matrix(stats: CooccurrenceStats, variant: str, k: float = 1.0) -> SparseMatrix:
    """Assemble one PMI-family matrix over the stored pairs.

    variant is one of pmi | ppmi | spmi | sppmi; the unshifted variants are
    the k = 1 cases and reject any other shift.
    """
    check_choice("variant", variant, VARIANTS)
    check_shift(k)
    if variant in ("pmi", "ppmi") and k != 1.0:
        raise InvalidShiftError(f"variant {variant} fixes k = 1, got k = {k}")

    values = shifted_pmi(*stats.pair_counts(), stats.total, k)
    if variant in ("ppmi", "sppmi"):
        return stats.pair_matrix(values, 0.0, variant, keep=values > 0.0)
    return stats.pair_matrix(values, None, variant)
