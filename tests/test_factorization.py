import math
import tracemalloc

import numpy as np
import pytest

from coocvec import (
    DimensionMismatchError,
    DivergenceError,
    InvalidOptionError,
    MarkerContaminationError,
    SparseMatrix,
    build_matrix,
    consistency_report,
    truncated_svd,
    weighted_factorize,
    word_vectors,
)
from coocvec import factorization
from helpers import from_dense, random_stats, sparse, weighted_problem
from oracles import als_residual, randomized_svd_whole


def sparse_and_dense(rng, rows: int, cols: int, implicit: float, density: float = 0.1):
    """A random SparseMatrix with the given implicit value, and the same matrix as an array."""
    A = np.where(rng.random((rows, cols)) < density, rng.normal(size=(rows, cols)), implicit)
    return from_dense(A, implicit), A


class TestTruncatedSvd:
    def test_identity(self):
        svd = truncated_svd(from_dense(np.eye(2)), dim=2)
        assert np.allclose(svd.sigma, [1.0, 1.0])
        assert np.allclose(svd.U @ np.diag(svd.sigma) @ svd.V.T, np.eye(2))

    def test_diagonal_dominant_axis(self):
        svd = truncated_svd(from_dense(np.diag([3.0, 1.0])), dim=1)
        assert svd.sigma.shape == (1,)
        assert svd.sigma[0] == pytest.approx(3.0)
        approx = svd.U @ np.diag(svd.sigma) @ svd.V.T
        assert np.allclose(approx, np.diag([3.0, 0.0]), atol=1e-10)

    def test_matches_dense_svd_residual_on_sparse_matrix(self, rng):
        A = np.zeros((50, 50))
        for _ in range(300):
            A[rng.integers(0, 50), rng.integers(0, 50)] = rng.normal()
        svd = truncated_svd(from_dense(A), dim=10, seed=0)
        got = np.linalg.norm(A - svd.U @ np.diag(svd.sigma) @ svd.V.T)
        s = np.linalg.svd(A, compute_uv=False)
        best = math.sqrt(float(np.sum(s[10:] ** 2)))
        assert got >= best - 1e-12
        assert got <= best * 1.01
        assert np.allclose(svd.sigma, s[:10], rtol=1e-3)

    def test_orthonormal_factors(self, rng):
        A = rng.normal(size=(30, 20))
        svd = truncated_svd(from_dense(A), dim=6, seed=1)
        assert np.allclose(svd.U.T @ svd.U, np.eye(6), atol=1e-8)
        assert np.allclose(svd.V.T @ svd.V, np.eye(6), atol=1e-8)
        assert all(a >= b for a, b in zip(svd.sigma, svd.sigma[1:]))
        assert (svd.sigma >= 0).all()

    def test_deterministic_under_seed(self, rng):
        A = rng.normal(size=(15, 15))
        a = truncated_svd(from_dense(A), dim=4, seed=9)
        b = truncated_svd(from_dense(A), dim=4, seed=9)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.sigma, b.sigma)

    @pytest.mark.parametrize(
        "rows, cols, implicit",
        [(300, 300, 0.0), (257, 90, -0.5), (90, 257, 0.3), (1, 40, 2.0),
         (factorization.ROWS_PER_BLOCK, 60, 1.0)],
    )
    def test_sparse_matches_the_whole_matrix(self, rng, rows, cols, implicit):
        S, A = sparse_and_dense(rng, rows, cols, implicit)
        dim = min(rows, cols, 10)
        got = truncated_svd(S, dim, seed=3)
        U, sigma, V = randomized_svd_whole(A, dim, seed=3)
        assert np.abs(got.sigma - sigma).max() <= 1e-10
        assert np.abs(got.U * got.sigma - U * sigma).max() <= 1e-10
        assert np.abs(got.V * got.sigma - V * sigma).max() <= 1e-10

    @pytest.mark.parametrize(
        "stored, implicit", [(math.nan, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_refuses_non_finite_stored_or_implicit_values(self, stored, implicit):
        mat = sparse(3, 3, {(0, 1): stored, (2, 2): 1.0}, implicit)
        with pytest.raises(MarkerContaminationError, match="non-finite"):
            truncated_svd(mat, dim=1)

    def test_sparse_svd_holds_no_dense_copy(self, rng):
        n = 2_000  # 32 MB as a dense float array
        flat = np.unique(rng.integers(0, n * n, size=20_000))
        S = SparseMatrix(n, n, flat // n, flat % n, rng.random(len(flat)))
        tracemalloc.start()
        try:
            svd = truncated_svd(S, dim=20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert svd.sigma.shape == (20,)
        assert peak < 8 * n * n / 4

    def test_refuses_undefined_absences(self):
        mat = sparse(3, 3, {(0, 1): 1.0}, None)
        with pytest.raises(MarkerContaminationError):
            truncated_svd(mat, dim=1)

    def test_accepts_sparse_with_exact_zero_absences(self):
        mat = sparse(3, 3, {(0, 1): 2.0}, 0.0)
        svd = truncated_svd(mat, dim=1)
        assert svd.sigma[0] == pytest.approx(2.0)

    def test_dim_bounds(self):
        with pytest.raises(DimensionMismatchError):
            truncated_svd(from_dense(np.eye(3)), dim=4)
        with pytest.raises(DimensionMismatchError):
            truncated_svd(from_dense(np.eye(3)), dim=0)

    def test_rank_deficiency_gives_zero_singular_values(self):
        A = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        svd = truncated_svd(from_dense(A), dim=3)
        assert svd.sigma[0] > 1.0
        assert np.allclose(svd.sigma[1:], 0.0, atol=1e-10)


class TestWordVectors:
    def test_flavors_scale_columns(self):
        U = np.eye(2)
        svd_like = truncated_svd(from_dense(np.diag([4.0, 1.0])), dim=2)
        plain = word_vectors(svd_like, "plain")
        symm = word_vectors(svd_like, "symmetric")
        assert np.allclose(np.abs(plain.vectors), np.diag([4.0, 1.0]))
        assert np.allclose(np.abs(symm.vectors), np.diag([2.0, 1.0]))
        assert np.allclose(np.abs(U), np.eye(2))

    def test_identity_spectrum_makes_flavors_agree(self):
        svd = truncated_svd(from_dense(np.eye(3)), dim=3)
        a = word_vectors(svd, "plain").vectors
        b = word_vectors(svd, "symmetric").vectors
        assert np.allclose(a, b)

    def test_labels_default_to_row_ids(self):
        svd = truncated_svd(from_dense(np.eye(2)), dim=2)
        emb = word_vectors(svd, "plain")
        assert emb.words == ["0", "1"]
        named = word_vectors(svd, "plain", words=["x", "y"])
        assert named.words == ["x", "y"]
        with pytest.raises(DimensionMismatchError):
            word_vectors(svd, "plain", words=["only-one"])

    def test_unknown_flavor_rejected(self):
        svd = truncated_svd(from_dense(np.eye(2)), dim=2)
        with pytest.raises(ValueError):
            word_vectors(svd, "fancy")

    def test_full_rank_plain_preserves_gram(self, rng):
        A = rng.normal(size=(12, 12))
        svd = truncated_svd(from_dense(A), dim=12, power_iters=8)
        W = word_vectors(svd, "plain").vectors
        assert np.abs(W @ W.T - A @ A.T).max() <= 1e-6


class TestConsistencyReport:
    def test_identity_is_consistent_both_ways(self):
        assert consistency_report(from_dense(np.eye(4)), "plain") == pytest.approx(0.0, abs=1e-10)
        assert consistency_report(from_dense(np.eye(4)), "symmetric") == pytest.approx(
            0.0, abs=1e-10
        )

    def test_plain_flavor_gap_is_rounding_level(self, rng):
        A = rng.normal(size=(20, 20))
        assert consistency_report(from_dense(A), "plain") <= 1e-6

    def test_symmetric_flavor_gap_on_diag_4_1(self):
        gap = consistency_report(from_dense(np.diag([4.0, 1.0])), "symmetric")
        assert gap == pytest.approx(12.0, rel=1e-9)

    def test_desk_scale_guard(self, rng):
        # the side is refused before M is made dense: 288 MB at side 6,000
        for n in (501, 6_000):
            flat = np.unique(rng.integers(0, n * n, size=50_000))
            S = SparseMatrix(n, n, flat // n, flat % n, rng.random(len(flat)))
            tracemalloc.start()
            try:
                with pytest.raises(DimensionMismatchError, match=rf"got \({n}, {n}\)"):
                    consistency_report(S, "plain")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, n


class TestWeightedProblemValidation:
    def test_weights_length_mismatch(self):
        targets, _ = weighted_problem(2, 2, {(0, 0): 1.0, (1, 1): 2.0}, {(0, 0): 1.0, (1, 1): 1.0})
        for weights in (np.ones(1), np.ones(3), np.ones((2, 1))):
            with pytest.raises(DimensionMismatchError):
                weighted_factorize(targets, weights, dim=1)

    def test_non_finite_target(self):
        with pytest.raises(MarkerContaminationError):
            weighted_factorize(*weighted_problem(2, 2, {(0, 0): -math.inf}, {(0, 0): 1.0}), dim=1)

    def test_negative_weight(self):
        for weight in (-1.0, math.nan, math.inf):
            problem = weighted_problem(2, 2, {(0, 0): 1.0}, {(0, 0): weight})
            with pytest.raises(InvalidOptionError, match="weight at \\(0, 0\\)"):
                weighted_factorize(*problem, dim=1)

    def test_dim_bound(self):
        with pytest.raises(DimensionMismatchError):
            weighted_factorize(*weighted_problem(2, 3, {(0, 0): 1.0}, {(0, 0): 1.0}), dim=3)

    def test_tol_must_be_finite_and_non_negative(self):
        problem = weighted_problem(1, 1, {(0, 0): 1.0}, {(0, 0): 1.0})
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidOptionError, match="tol"):
                weighted_factorize(*problem, dim=1, tol=tol)


class TestWeightedFactorize:
    def test_single_pair_reaches_zero_objective(self):
        problem = weighted_problem(1, 1, {(0, 0): 2.0}, {(0, 0): 5.0})
        result = weighted_factorize(*problem, dim=1, ridge=0.0, seed=0)
        assert result.objective_history[-1] == pytest.approx(0.0, abs=1e-12)
        assert float(result.W[0, 0] * result.C[0, 0]) == pytest.approx(2.0)

    def test_objective_monotone_over_half_sweeps(self, rng):
        n = 8
        targets = {}
        weights = {}
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.6:
                    targets[(i, j)] = float(rng.normal())
                    weights[(i, j)] = float(rng.uniform(0.1, 3.0))
        problem = weighted_problem(n, n, targets, weights)
        result = weighted_factorize(*problem, dim=3, epochs=40, seed=2)
        hist = result.objective_history
        assert all(a + 1e-9 >= b for a, b in zip(hist, hist[1:]))

    def test_objective_is_scored_the_same_in_any_block(self, rng, monkeypatch):
        targets, weights = {}, {}
        for i in range(10):
            for j in range(9):
                if rng.random() < 0.6:
                    targets[(i, j)] = float(rng.normal())
                    weights[(i, j)] = float(rng.uniform(0.1, 3.0))
        problem = weighted_problem(10, 9, targets, weights)
        whole = weighted_factorize(*problem, dim=3, epochs=6, ridge=0.01, seed=4)
        monkeypatch.setattr(factorization, "PAIRS_PER_SCORE", 7)
        assert problem[0].nnz > 5 * 7
        blocked = weighted_factorize(*problem, dim=3, epochs=6, ridge=0.01, seed=4)
        assert blocked.objective_history == whole.objective_history
        assert np.array_equal(blocked.W, whole.W) and np.array_equal(blocked.C, whole.C)
        W, C = blocked.W, blocked.C
        penalty = 0.01 * (float(np.sum(W * W)) + float(np.sum(C * C)))
        assert blocked.objective_history[-1] == als_residual(*problem, W, C) + penalty

    def test_full_dimension_interpolates(self, rng):
        n = 12
        targets = {}
        weights = {}
        for i in range(n):
            for j in range(n):
                targets[(i, j)] = float(rng.normal())
                weights[(i, j)] = float(rng.uniform(0.5, 2.0))
        problem = weighted_problem(n, n, targets, weights)
        result = weighted_factorize(*problem, dim=n, epochs=300, ridge=1e-9, tol=1e-14, seed=1)
        assert als_residual(*problem, result.W, result.C) < 1e-8

    def test_unweighted_dense_matches_svd_truncation(self, rng):
        n, d = 12, 4
        A = rng.normal(size=(n, n))
        targets = {(i, j): float(A[i, j]) for i in range(n) for j in range(n)}
        weights = {key: 1.0 for key in targets}
        problem = weighted_problem(n, n, targets, weights)
        result = weighted_factorize(*problem, dim=d, epochs=3000, ridge=1e-12, tol=0.0, seed=3)
        s = np.linalg.svd(A, compute_uv=False)
        best = 0.5 * float(np.sum(s[d:] ** 2))
        assert als_residual(*problem, result.W, result.C) <= best + 1e-6

    def test_row_without_support_stays_zero(self):
        problem = weighted_problem(3, 2, {(0, 0): 1.0, (2, 1): 2.0}, {(0, 0): 1.0, (2, 1): 1.0})
        result = weighted_factorize(*problem, dim=1, epochs=10, seed=0)
        assert np.allclose(result.W[1], 0.0)

    def test_singular_row_system_without_ridge_is_divergence(self):
        # every row and column holds one stored pair, fewer than dim 2
        problem = weighted_problem(2, 2, {(0, 0): 1.0, (1, 1): 2.0}, {(0, 0): 1.0, (1, 1): 1.0})
        with pytest.raises(DivergenceError, match=r"^row 0's system is singular .*positive ridge"):
            weighted_factorize(*problem, dim=2, ridge=0.0)

    def test_convergence_flag_set_when_stalled(self, rng):
        targets = {(0, 0): 1.0, (1, 1): 2.0}
        weights = {(0, 0): 1.0, (1, 1): 1.0}
        result = weighted_factorize(*weighted_problem(2, 2, targets, weights), dim=2, epochs=500)
        assert result.converged


class TestDiscardingSupportHook:
    def test_sppmi_support_is_the_positive_condition_set(self, rng):
        for seed in range(5):
            stats = random_stats(np.random.default_rng(seed), n_words=6, density=0.5)
            k = 1.5
            sppmi = build_matrix(stats, "sppmi", k=k)
            c = stats.counts
            n_wc, n_w, n_c = stats.pair_counts()
            keep = n_wc * stats.total > k * n_w * n_c
            assert np.array_equal(sppmi.i, c.i[keep]) and np.array_equal(sppmi.j, c.j[keep])
