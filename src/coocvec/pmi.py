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


def shifted_pmi(joint, n_w, n_c, total: float, k: float = 1.0):
    """log(joint * total / (n_w * n_c)) - log k, elementwise: the one PMI expression.

    Its arguments are the gathered counts; a zero joint weight gives -inf.
    """
    with np.errstate(divide="ignore"):
        return np.log(joint * total / (n_w * n_c)) - math.log(k)


def pmi_values(
    stats: CooccurrenceStats, rows: np.ndarray, cols: np.ndarray, joint: np.ndarray, k: float = 1.0
) -> np.ndarray:
    """Shifted PMI of the pairs (rows, cols) with joint weights joint, elementwise."""
    return shifted_pmi(joint, stats.row_marginal[rows], stats.col_marginal[cols], stats.total, k)


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
    values = pmi_values(stats, counts.i, counts.j, counts.v, k)
    if positive:
        keep = values > 0.0
        return SparseMatrix(counts.rows, counts.cols, counts.i[keep], counts.j[keep], values[keep])
    return replace(counts, v=values, implicit_value=None)
