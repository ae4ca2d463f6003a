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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import CooccurrenceStats
from .errors import InvalidShiftError, MarkerContaminationError, check_shift

VARIANTS = ("pmi", "ppmi", "spmi", "sppmi")


@dataclass
class SparseMatrix:
    """Triplet-backed sparse matrix with an explicit meaning for absence.

    implicit_value is the value of absent entries; None means absent entries
    are undefined (the minus-infinity family) and must never reach dense
    linear algebra.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], float]
    implicit_value: float | None = 0.0

    def get(self, i: int, j: int) -> float | None:
        if (i, j) in self.entries:
            return self.entries[(i, j)]
        return self.implicit_value

    def to_dense(self) -> np.ndarray:
        if self.implicit_value is None:
            raise MarkerContaminationError(
                "matrix has undefined absent entries; cannot densify"
            )
        dense = np.full((self.rows, self.cols), self.implicit_value)
        for (i, j), v in self.entries.items():
            dense[i, j] = v
        return dense

    @property
    def nnz(self) -> int:
        return len(self.entries)


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
    keys, rows, cols, joint = stats.columns()
    values = pmi_values(stats, rows, cols, joint) - math.log(k)
    if positive:
        keep = values > 0.0
        entries = dict(zip(itertools.compress(keys, keep), values[keep].tolist()))
    else:
        entries = dict(zip(keys, values.tolist()))
    return SparseMatrix(
        rows=stats.n_words,
        cols=stats.n_words,
        entries=entries,
        implicit_value=0.0 if positive else None,
    )
