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
from dataclasses import replace

import numpy as np

from .corpus import CooccurrenceStats
from .errors import InvalidShiftError, check_shift
from .vectors import SparseMatrix

VARIANTS = ("pmi", "ppmi", "spmi", "sppmi")


def pmi_values(
    stats: CooccurrenceStats, rows: np.ndarray, cols: np.ndarray, joint: np.ndarray
) -> np.ndarray:
    """PMI of the pairs (rows, cols) with positive joint weights, elementwise."""
    return np.log(joint * stats.total / (stats.row_marginal[rows] * stats.col_marginal[cols]))


def pmi_value(stats: CooccurrenceStats, w: int, c: int) -> float | None:
    """Pointwise mutual information of one pair, or None when undefined.

    Undefined covers #(w,c) = 0 and degenerate zero marginals; it is a value
    of the map, not an error.
    """
    joint = stats.count(w, c)
    if joint == 0.0 or stats.row_marginal[w] == 0.0 or stats.col_marginal[c] == 0.0:
        return None
    return float(pmi_values(stats, w, c, joint))


def build_matrix(stats: CooccurrenceStats, variant: str, k: float = 1.0) -> SparseMatrix:
    """Assemble one PMI-family matrix over the stored pairs.

    variant is one of pmi | ppmi | spmi | sppmi; the unshifted variants are
    the k = 1 cases and reject any other shift.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    check_shift(k)
    if variant in ("pmi", "ppmi") and k != 1.0:
        raise InvalidShiftError(f"variant {variant} fixes k = 1, got k = {k}")

    positive = variant in ("ppmi", "sppmi")
    counts = stats.counts
    values = pmi_values(stats, counts.i, counts.j, counts.v) - math.log(k)
    if positive:
        keep = values > 0.0
        return SparseMatrix(counts.rows, counts.cols, counts.i[keep], counts.j[keep], values[keep])
    return replace(counts, v=values, implicit_value=None)
