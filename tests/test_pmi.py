import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    CooccurrenceStats,
    InvalidShiftError,
    MarkerContaminationError,
    SparseMatrix,
    WindowSpec,
    build_matrix,
    build_vocabulary,
    count_cooccurrences,
    pmi_value,
    solve_stats,
    tokenize,
)
from helpers import bench_gen, random_stats

LOG2 = math.log(2.0)


class TestPmiValue:
    def test_hand_computed_example(self, abab_stats):
        assert pmi_value(abab_stats, 0, 1) == pytest.approx(LOG2, abs=1e-15)
        assert pmi_value(abab_stats, 1, 0) == pytest.approx(LOG2, abs=1e-15)

    def test_absent_pair_is_undefined(self, abab_stats):
        assert pmi_value(abab_stats, 0, 0) is None

    def test_zero_marginal_is_undefined(self):
        stats = CooccurrenceStats.from_pairs({(0, 1): 2.0}, 3)
        assert pmi_value(stats, 2, 1) is None
        assert pmi_value(stats, 0, 2) is None

    def test_independence_gives_zero(self):
        pairs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        stats = CooccurrenceStats.from_pairs(pairs, 2)
        for key in pairs:
            assert pmi_value(stats, *key) == pytest.approx(0.0, abs=1e-15)


class TestBuildMatrix:
    def test_spmi_shift_cancels_log2(self, abab_stats):
        mat = build_matrix(abab_stats, "spmi", k=2.0)
        assert mat.get(0, 1) == pytest.approx(0.0, abs=1e-15)
        assert mat.implicit_value is None

    def test_sppmi_drops_non_positive_entries(self, abab_stats):
        mat = build_matrix(abab_stats, "sppmi", k=2.0)
        assert mat.entries == {}
        assert mat.implicit_value == 0.0

    def test_ppmi_keeps_positive_entries(self, abab_stats):
        mat = build_matrix(abab_stats, "ppmi")
        assert mat.get(0, 1) == pytest.approx(LOG2, abs=1e-15)
        assert mat.get(1, 0) == pytest.approx(LOG2, abs=1e-15)
        assert mat.nnz == 2

    def test_invalid_shift_rejected(self, abab_stats):
        for bad in (0.5, 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidShiftError):
                build_matrix(abab_stats, "sppmi", k=bad)

    def test_unshifted_variants_pin_k(self, abab_stats):
        with pytest.raises(InvalidShiftError):
            build_matrix(abab_stats, "pmi", k=2.0)
        with pytest.raises(InvalidShiftError):
            build_matrix(abab_stats, "ppmi", k=3.0)

    def test_unknown_variant_rejected(self, abab_stats):
        with pytest.raises(ValueError):
            build_matrix(abab_stats, "npmi")

    def test_ppmi_equals_sppmi_at_k_one(self, rng):
        stats = random_stats(rng, n_words=5, density=0.6)
        a = build_matrix(stats, "ppmi")
        b = build_matrix(stats, "sppmi", k=1.0)
        assert a.entries == b.entries

    def test_negative_pmi_kept_by_unclamped_variants(self):
        # (0,1) is rarer than independence predicts, so its PMI is negative
        pairs = {(0, 0): 8.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 2.0}
        stats = CooccurrenceStats.from_pairs(pairs, 2)
        assert pmi_value(stats, 0, 1) < 0
        pmi = build_matrix(stats, "pmi")
        ppmi = build_matrix(stats, "ppmi")
        assert (0, 1) in pmi.entries
        assert (0, 1) not in ppmi.entries


class TestSparseMatrixMarkers:
    def test_get_returns_implicit_for_absent(self):
        mat = SparseMatrix.from_entries(2, 2, {(0, 1): 1.5}, 0.0)
        assert mat.get(0, 0) == 0.0
        assert mat.get(0, 1) == 1.5

    def test_undefined_absence_blocks_densify(self):
        mat = SparseMatrix.from_entries(2, 2, {(0, 1): 1.5}, None)
        assert mat.get(0, 0) is None
        with pytest.raises(MarkerContaminationError):
            mat.to_dense()

    def test_dense_fills_implicit(self):
        mat = SparseMatrix.from_entries(2, 2, {(1, 0): 2.0}, -1.0)
        assert mat.to_dense().tolist() == [[-1.0, -1.0], [2.0, -1.0]]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), k=st.floats(min_value=1.0, max_value=8.0))
def test_property_sppmi_matches_clamped_pmi(seed, k):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.5)
    mat = build_matrix(stats, "sppmi", k=k)
    log_k = math.log(k)
    for (w, c) in stats.pairs:
        expected = max((pmi_value(stats, w, c) or 0.0) - log_k, 0.0)
        got = mat.get(w, c)
        if expected > 0.0:
            assert got == pytest.approx(expected, rel=1e-12)
        else:
            assert (w, c) not in mat.entries


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_symmetric_stats_give_symmetric_matrices(seed):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.5, symmetric=True)
    for variant, k in (("pmi", 1.0), ("ppmi", 1.0), ("spmi", 2.5), ("sppmi", 2.5)):
        mat = build_matrix(stats, variant, k=k)
        for (i, j), v in mat.entries.items():
            assert mat.entries[(j, i)] == pytest.approx(v, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_sppmi_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.6)
    previous = build_matrix(stats, "sppmi", k=1.0)
    for k in (1.5, 2.5, 5.0):
        current = build_matrix(stats, "sppmi", k=k)
        assert set(current.entries) <= set(previous.entries)
        for key, v in current.entries.items():
            assert v <= previous.entries[key] + 1e-12
        previous = current


@pytest.mark.parametrize("k", [1.0, 5.0])
def test_spmi_is_the_logistic_solution_bit_for_bit(k):
    """SGNS = SPMI: the logistic closed form is the shifted PMI, to the last bit."""
    gen = bench_gen()
    records = tokenize(gen.corpus_text(gen.make_corpus(40_000, 1)))
    vocab = build_vocabulary(records, min_count=10)
    stats = count_cooccurrences(records, vocab, WindowSpec(left=2, right=2))
    spmi = build_matrix(stats, "spmi", k=k)
    scores, _ = solve_stats(stats, "logistic", k)
    assert spmi.nnz == scores.nnz > 10_000
    assert spmi.v.tobytes() == scores.v.tobytes()
    assert spmi.implicit_value is scores.implicit_value is None
