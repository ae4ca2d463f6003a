"""Low-rank factorization: randomized truncated SVD and weighted ALS.

The SVD path serves matrices whose absent entries mean an exact value
(positive PMI variants, regularized scores); matrices with undefined absent
entries are refused outright.  The ALS path minimizes

    0.5 * sum_ij alpha_ij (w_i . c_j - x_ij)^2 + ridge * (|W|_F^2 + |C|_F^2)

over the stored support only, with per-pair curvature weights alpha.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    FormatError,
    MarkerContaminationError,
    check_at_least,
    check_choice,
)
from .vectors import Embedding, SparseMatrix, _refuse_pair

FLAVORS = ("plain", "symmetric")
ROWS_PER_BLOCK = 128  # matrix rows the SVD's products hold dense at a time
PAIRS_PER_SCORE = 4096  # stored pairs whose factor rows the ALS objective gathers at a time


@dataclass
class SvdResult:
    """Truncated factors M ~ U diag(sigma) V^T with orthonormal columns."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def _check_finite(M: SparseMatrix) -> None:
    """Refuse M if an entry it stands for is not finite, checking no more than nnz + 1 values."""
    if M.implicit_value is None:
        raise MarkerContaminationError("matrix has undefined absent entries; cannot densify")
    if not np.isfinite(np.append(M.v, M.implicit_value)).all():
        raise MarkerContaminationError("matrix contains non-finite entries")


def _row_blocks(M: SparseMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """(a, rows a to a + ROWS_PER_BLOCK - 1 of M as a dense array), for each block in order.

    One buffer is refilled for each block with the implicit value and the
    block's stored pairs, so a block is valid only until the next one is taken.
    """
    starts = np.arange(0, M.rows, ROWS_PER_BLOCK)
    ptr = np.searchsorted(M.i, np.append(starts, M.rows))  # stored pairs are sorted by row
    buffer = np.empty((min(ROWS_PER_BLOCK, M.rows), M.cols))
    for n, a in enumerate(starts.tolist()):
        block = buffer[: min(ROWS_PER_BLOCK, M.rows - a)]
        block.fill(M.implicit_value)
        p, q = ptr[n], ptr[n + 1]
        block[M.i[p:q] - a, M.j[p:q]] = M.v[p:q]
        yield a, block


def _times(M: SparseMatrix, n_rows: int, X: np.ndarray) -> np.ndarray:
    """M @ X, a block of M's rows at a time."""
    out = np.empty((n_rows, X.shape[1]))
    for a, block in _row_blocks(M):
        np.matmul(block, X, out=out[a : a + len(block)])
    return out


def _times_transposed(M: SparseMatrix, n_cols: int, Y: np.ndarray) -> np.ndarray:
    """M^T @ Y, summed over blocks of M's rows."""
    out = np.zeros((n_cols, Y.shape[1]))
    term = np.empty_like(out)  # one buffer: a fresh product per block would be mapped anew
    for a, block in _row_blocks(M):
        out += np.matmul(block.T, Y[a : a + len(block)], out=term)
    return out


def truncated_svd(
    M: SparseMatrix,
    dim: int,
    seed: int = 0,
    oversample: int = 8,
    power_iters: int = 4,
) -> SvdResult:
    """Randomized subspace iteration for the top `dim` singular triplets.

    A Gaussian sketch of dim + oversample columns is refined by QR-stabilized
    power iterations before a small dense SVD.  Deterministic for a fixed
    seed.  M enters only through products with dense blocks of
    ROWS_PER_BLOCK rows, so it is never held whole: memory is
    O(nnz + ROWS_PER_BLOCK * cols + (rows + cols) * (dim + oversample)).
    """
    _check_finite(M)
    n_rows, n_cols = M.rows, M.cols
    if not 1 <= dim <= min(n_rows, n_cols):
        raise DimensionMismatchError(f"dim must lie in [1, {min(n_rows, n_cols)}], got {dim}")
    check_at_least("oversample", oversample, 0)
    check_at_least("power_iters", power_iters, 0)
    check_at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    sketch = min(dim + oversample, min(n_rows, n_cols))
    # one sketch block is held beside its product: the Gaussian G is freed
    # once M @ G exists, and each Q or Z once its successor does
    Q = np.linalg.qr(_times(M, n_rows, rng.standard_normal((n_cols, sketch))))[0]
    for _ in range(power_iters):
        Z = np.linalg.qr(_times_transposed(M, n_cols, Q))[0]
        del Q
        Q = np.linalg.qr(_times(M, n_rows, Z))[0]
        del Z
    B = _times_transposed(M, n_cols, Q).T
    try:
        Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # entries so large that the products overflow
        raise DivergenceError(f"randomized SVD failed: {exc}") from exc
    U = Q @ Ub
    return SvdResult(U=U[:, :dim], sigma=s[:dim], V=Vt[:dim].T)


def word_vectors(svd: SvdResult, flavor: str, words: list[str] | None = None) -> Embedding:
    """Turn SVD factors into word vectors.

    plain:     U diag(sigma)        (rows reproduce the row space of M)
    symmetric: U diag(sqrt(sigma))  (splits the spectrum with the context side)
    """
    check_choice("flavor", flavor, FLAVORS)
    scale = svd.sigma if flavor == "plain" else np.sqrt(svd.sigma)
    vectors = svd.U * scale
    if words is None:
        words = [str(i) for i in range(vectors.shape[0])]
    if len(words) != vectors.shape[0]:
        raise DimensionMismatchError(f"{len(words)} labels for {vectors.shape[0]} vector rows")
    return Embedding(words=list(words), vectors=vectors)


def consistency_report(M: SparseMatrix, flavor: str) -> float:
    """Largest absolute gap between W W^T and M M^T at full rank.

    The plain flavor keeps the gap at rounding level; the symmetric flavor
    replaces squared singular values by plain ones inside the product, so any
    spectrum away from 0/1 shows a real gap.  The side is checked before M
    is made dense, so a refusal allocates nothing of M's full shape.
    """
    if max(M.rows, M.cols) > 500:
        raise DimensionMismatchError(
            f"consistency report is a desk-scale check (max side 500), got {(M.rows, M.cols)}"
        )
    _check_finite(M)
    A = M.to_dense()
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    svd = SvdResult(U=U, sigma=s, V=Vt.T)
    W = word_vectors(svd, flavor).vectors
    gap = np.abs(W @ W.T - A @ A.T)
    return float(gap.max())


@dataclass
class AlsResult:
    """Word factors W and context factors C, with the objective after each half-sweep."""

    W: np.ndarray
    C: np.ndarray
    objective_history: list[float] = field(default_factory=list)
    converged: bool = False


def weighted_factorize(
    targets: SparseMatrix,
    weights: SparseMatrix,
    dim: int,
    seed: int = 0,
    epochs: int = 200,
    ridge: float = 1e-8,
    tol: float = 1e-8,
) -> AlsResult:
    """Alternate exact per-row ridge solves until the objective stalls.

    weights, a matrix of the targets' shape (`solve_stats(..., weights=True)`),
    gives each stored target the weight at its pair, which must be stored,
    finite and >= 0 (FormatError).  Targets must be finite (minus-infinity
    markers have no place here); absent entries play no part.  Each
    half-sweep minimizes the full objective over one factor exactly, so an
    increase beyond 1e-9, or an objective out of the float range, is divergence.
    Stops after `epochs` sweeps or when one sweep improves the objective by
    less than `tol` relative.  A singular row or column system (at ridge 0, a
    line with fewer stored pairs of positive weight than dim) is divergence.
    """
    n_rows, n_cols = targets.rows, targets.cols
    if (weights.rows, weights.cols) != (n_rows, n_cols):
        raise DimensionMismatchError(f"{weights.rows} x {weights.cols} weights for "
                                     f"{n_rows} x {n_cols} targets")
    rows, cols, t_vals = targets.i, targets.j, targets.v
    at, found = weights.find(rows, cols)
    _refuse_pair(~found, rows, cols, "no weight for stored pair {pair}", FormatError)
    alpha = weights.v[at]
    _refuse_pair(~(np.isfinite(alpha) & (alpha >= 0.0)), rows, cols,
                 "weight {value} at {pair} must be finite and >= 0", FormatError, alpha)
    if not 1 <= dim <= min(n_rows, n_cols):
        raise DimensionMismatchError(f"dim must lie in [1, {min(n_rows, n_cols)}], got {dim}")
    check_at_least("ridge", ridge, 0)
    check_at_least("tol", tol, 0)
    check_at_least("epochs", epochs, 0)
    _refuse_pair(~np.isfinite(t_vals), rows, cols, "non-finite target at {pair}",
                 MarkerContaminationError)
    check_at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    factors = [0.1 * rng.standard_normal((n_rows, dim)), 0.1 * rng.standard_normal((n_cols, dim))]

    # stored pairs are sorted by row, so each row is one run of positions;
    # a stable sort by column keeps each column's positions in row order
    by_col = np.argsort(cols, kind="stable")
    sweeps = (
        ("row", np.arange(len(rows)), np.searchsorted(rows, np.arange(n_rows + 1)), cols),
        ("column", by_col, np.searchsorted(cols[by_col], np.arange(n_cols + 1)), rows),
    )
    eye = np.eye(dim)

    # the objective gathers factor rows into buffers allocated once: a fresh
    # block of this size per call would be mapped and zeroed by the OS each time
    scores = np.empty(len(rows))
    gathered = np.empty((2, min(PAIRS_PER_SCORE, len(rows)), dim))

    def objective(when: str) -> float:
        W, C = factors
        for a in range(0, len(rows), PAIRS_PER_SCORE):
            r, c = rows[a : a + PAIRS_PER_SCORE], cols[a : a + PAIRS_PER_SCORE]
            Wr = np.take(W, r, axis=0, out=gathered[0, : len(r)])
            Cc = np.take(C, c, axis=0, out=gathered[1, : len(c)])
            np.einsum("ij,ij->i", Wr, Cc, out=scores[a : a + len(r)])
        residual = 0.5 * float(np.sum(alpha * (scores - t_vals) ** 2))
        total = residual + ridge * (float(np.sum(W * W)) + float(np.sum(C * C)))
        if not np.isfinite(total):  # the monotone check is false for inf and NaN
            raise DivergenceError(f"objective is {total!r} {when}; the targets or weights "
                                  "are too large for the float range")
        return total

    def singular(name: str, r: int, a: np.ndarray) -> DivergenceError:
        return DivergenceError(
            f"{name} {r}'s system is singular ({np.count_nonzero(a)} stored pair(s) of "
            f"positive weight at dim {dim}, ridge {ridge!r}); a positive ridge (--ridge) avoids it"
        )

    def solve_side(name, F_fixed, order, ptr, other) -> np.ndarray:
        out = np.zeros((len(ptr) - 1, dim))
        for r in range(len(ptr) - 1):
            pos = order[ptr[r] : ptr[r + 1]]
            if not len(pos):
                continue
            a = alpha[pos]
            if ridge == 0.0 and np.count_nonzero(a) < dim:  # A's rank is below dim
                raise singular(name, r, a)
            Fo = F_fixed[other[pos]]
            A = (Fo * a[:, None]).T @ Fo + 2.0 * ridge * eye
            b = Fo.T @ (a * t_vals[pos])
            try:
                out[r] = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                raise singular(name, r, a) from None
        return out

    result = AlsResult(*factors)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
        prev_total = objective("at the start")
        last_sweep_total = prev_total
        for _ in range(epochs):
            for side, (name, order, ptr, other) in enumerate(sweeps):
                factors[side] = solve_side(name, factors[1 - side], order, ptr, other)
                total = objective(f"after a {name} sweep")
                if total > prev_total + 1e-9:
                    raise DivergenceError(
                        f"objective rose from {prev_total!r} to {total!r} after a {name} sweep"
                    )
                result.objective_history.append(total)
                prev_total = total
            if last_sweep_total - total < tol * max(1.0, abs(last_sweep_total)):
                result.converged = True
                break
            last_sweep_total = total

    result.W, result.C = factors
    return result
