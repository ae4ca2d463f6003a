"""Low-rank factorization: randomized truncated SVD and weighted ALS.

The SVD path serves matrices whose absent entries mean an exact value
(positive PMI variants, regularized scores); matrices with undefined absent
entries are refused outright.  The ALS path minimizes

    0.5 * sum_ij alpha_ij (w_i . c_j - x_ij)^2 + ridge * (|W|_F^2 + |C|_F^2)

over the stored support only, with per-pair curvature weights alpha.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidOptionError,
    MarkerContaminationError,
    check_seed,
)
from .vectors import Embedding, EmbeddingPair, SparseMatrix


@dataclass
class SvdResult:
    """Truncated factors M ~ U diag(sigma) V^T with orthonormal columns."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.sigma)


def _as_dense(M: SparseMatrix | np.ndarray) -> np.ndarray:
    A = M.to_dense() if isinstance(M, SparseMatrix) else np.asarray(M, dtype=float)
    if not np.isfinite(A).all():
        raise MarkerContaminationError("matrix contains non-finite entries")
    return A


def truncated_svd(
    M: SparseMatrix | np.ndarray,
    dim: int,
    seed: int = 0,
    oversample: int = 8,
    power_iters: int = 4,
) -> SvdResult:
    """Randomized subspace iteration for the top `dim` singular triplets.

    A Gaussian sketch of dim + oversample columns is refined by QR-stabilized
    power iterations before a small dense SVD.  Deterministic for a fixed
    seed.
    """
    A = _as_dense(M)
    n_rows, n_cols = A.shape
    if not 1 <= dim <= min(n_rows, n_cols):
        raise DimensionMismatchError(
            f"dim must lie in [1, {min(n_rows, n_cols)}], got {dim}"
        )
    if oversample < 0:
        raise InvalidOptionError(f"oversample must be >= 0, got {oversample}")
    if power_iters < 0:
        raise InvalidOptionError(f"power_iters must be >= 0, got {power_iters}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    sketch = min(dim + oversample, min(n_rows, n_cols))
    G = rng.standard_normal((n_cols, sketch))
    Q, _ = np.linalg.qr(A @ G)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.T @ A
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
    if flavor not in ("plain", "symmetric"):
        raise InvalidOptionError(f"flavor must be plain or symmetric, got {flavor!r}")
    scale = svd.sigma if flavor == "plain" else np.sqrt(svd.sigma)
    vectors = svd.U * scale
    if words is None:
        words = [str(i) for i in range(vectors.shape[0])]
    if len(words) != vectors.shape[0]:
        raise DimensionMismatchError(
            f"{len(words)} labels for {vectors.shape[0]} vector rows"
        )
    return Embedding(words=list(words), vectors=vectors)


def consistency_report(M: SparseMatrix | np.ndarray, flavor: str) -> float:
    """Largest absolute gap between W W^T and M M^T at full rank.

    The plain flavor keeps the gap at rounding level; the symmetric flavor
    replaces squared singular values by plain ones inside the product, so any
    spectrum away from 0/1 shows a real gap.
    """
    A = _as_dense(M)
    n = min(A.shape)
    if max(A.shape) > 500:
        raise DimensionMismatchError(
            f"consistency report is a desk-scale check (max side 500), got {A.shape}"
        )
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    svd = SvdResult(U=U, sigma=s, V=Vt.T)
    W = word_vectors(svd, flavor).vectors
    gap = np.abs(W @ W.T - A @ A.T)
    return float(gap.max())


@dataclass
class WeightedFactorizationProblem:
    """Sparse weighted least-squares factorization instance.

    targets and weights must share their shape and support exactly; weights
    are non-negative and targets finite (minus-infinity markers have no place
    here and are rejected).  Absent entries of either matrix play no part.
    """

    targets: SparseMatrix
    weights: SparseMatrix
    dim: int
    epochs: int = 200
    ridge: float = 1e-8
    tol: float = 1e-8

    def __post_init__(self) -> None:
        t, w = self.targets, self.weights
        same_support = np.array_equal(t.i, w.i) and np.array_equal(t.j, w.j)
        if (t.rows, t.cols) != (w.rows, w.cols) or not same_support:
            raise DimensionMismatchError("targets and weights must share one support")
        if not 1 <= self.dim <= min(self.n_rows, self.n_cols):
            raise DimensionMismatchError(
                f"dim must lie in [1, {min(self.n_rows, self.n_cols)}], got {self.dim}"
            )
        if self.ridge < 0:
            raise InvalidOptionError(f"ridge must be non-negative, got {self.ridge}")
        if self.epochs < 0:
            raise InvalidOptionError(f"epochs must be non-negative, got {self.epochs}")
        if not np.isfinite(t.v).all():
            p = int(np.argmin(np.isfinite(t.v)))
            raise MarkerContaminationError(f"non-finite target at {t.pair(p)}")
        good = np.isfinite(w.v) & (w.v >= 0.0)
        if not good.all():
            p = int(np.argmin(good))
            raise ValueError(f"weight at {w.pair(p)} must be finite and >= 0, got {w.v[p]}")

    @property
    def n_rows(self) -> int:
        return self.targets.rows

    @property
    def n_cols(self) -> int:
        return self.targets.cols


@dataclass
class AlsResult:
    pair: EmbeddingPair
    objective_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False


def _objective(problem, W, C) -> tuple[float, float]:
    t = problem.targets
    scores = np.einsum("ij,ij->i", W[t.i], C[t.j])
    residual = 0.5 * float(np.sum(problem.weights.v * (scores - t.v) ** 2))
    total = residual + problem.ridge * (float(np.sum(W * W)) + float(np.sum(C * C)))
    return total, residual


def weighted_factorize(problem: WeightedFactorizationProblem, seed: int = 0) -> AlsResult:
    """Alternate exact per-row ridge solves until the objective stalls.

    Each half-sweep minimizes the full objective over one factor exactly, so
    the objective can never increase; an increase beyond 1e-9 is reported as
    divergence.  Stops after `epochs` sweeps or when one sweep improves the
    objective by less than `tol` relative.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    d = problem.dim
    W = 0.1 * rng.standard_normal((problem.n_rows, d))
    C = 0.1 * rng.standard_normal((problem.n_cols, d))

    targets = problem.targets
    rows, cols, t_vals = targets.i, targets.j, targets.v
    w_vals = problem.weights.v
    # stored pairs are sorted by row, so each row is one run of positions;
    # a stable sort by column keeps each column's positions in row order
    by_row = np.arange(len(rows))
    by_col = np.argsort(cols, kind="stable")
    row_ptr = np.searchsorted(rows, np.arange(problem.n_rows + 1))
    col_ptr = np.searchsorted(cols[by_col], np.arange(problem.n_cols + 1))

    eye = np.eye(d)

    def solve_side(F_fixed, order, ptr, other) -> np.ndarray:
        out = np.zeros((len(ptr) - 1, d))
        for r in range(len(ptr) - 1):
            pos = order[ptr[r] : ptr[r + 1]]
            if not len(pos):
                continue
            Fo = F_fixed[other[pos]]
            a = w_vals[pos]
            A = (Fo * a[:, None]).T @ Fo + 2.0 * problem.ridge * eye
            b = Fo.T @ (a * t_vals[pos])
            out[r] = np.linalg.solve(A, b)
        return out

    result = AlsResult(pair=EmbeddingPair(W=W, C=C))
    prev_total, prev_res = _objective(problem, W, C)
    last_sweep_total = prev_total

    for _ in range(problem.epochs):
        W = solve_side(C, by_row, row_ptr, cols)
        total, res = _objective(problem, W, C)
        if total > prev_total + 1e-9:
            raise DivergenceError(
                f"objective rose from {prev_total!r} to {total!r} after a row sweep"
            )
        result.objective_history.append(total)
        result.residual_history.append(res)
        prev_total = total

        C = solve_side(W, by_col, col_ptr, rows)
        total, res = _objective(problem, W, C)
        if total > prev_total + 1e-9:
            raise DivergenceError(
                f"objective rose from {prev_total!r} to {total!r} after a column sweep"
            )
        result.objective_history.append(total)
        result.residual_history.append(res)
        prev_total = total

        if last_sweep_total - total < problem.tol * max(1.0, abs(last_sweep_total)):
            result.converged = True
            break
        last_sweep_total = total

    result.pair = EmbeddingPair(W=W, C=C)
    return result
