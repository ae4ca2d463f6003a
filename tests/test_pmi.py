import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coocvec import (
    LOSS_NAMES,
    DomainError,
    InvalidOptionError,
    InvalidShiftError,
    MarkerContaminationError,
    WindowSpec,
    build_matrix,
    count_encoded,
    encode_text,
    regularize_stats,
    solve_stats,
)
from coocvec.pmi import VARIANTS, shifted_pmi
from coocvec.regularization import REG_KINDS
from helpers import bench_gen, make_stats, random_stats, same_pairs, sparse

LOG2 = math.log(2.0)


class TestPmiValues:
    def test_hand_computed_example(self, abab_stats):
        c = abab_stats.counts
        assert [c.pair(p) for p in range(c.nnz)] == [(0, 1), (1, 0)]
        pmi = shifted_pmi(*abab_stats.pair_counts(), abab_stats.total)
        np.testing.assert_allclose(pmi, LOG2, atol=1e-15)

    def test_absent_pair_is_undefined(self, abab_stats):
        n_w, n_c = abab_stats.row_marginal[0], abab_stats.col_marginal[0]
        assert shifted_pmi(0.0, n_w, n_c, abab_stats.total) == -math.inf
        mat = build_matrix(abab_stats, "pmi")
        assert not mat.find(0, 0)[1] and mat.implicit_value is None

    def test_zero_marginal_is_undefined(self):
        # a word with no pairs has zero marginals, so the matrix stores nothing for it
        mat = build_matrix(make_stats({(0, 1): 2.0}, 3), "pmi")
        assert not mat.find([2, 0], [1, 2])[1].any() and mat.implicit_value is None

    def test_independence_gives_zero(self):
        pairs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        mat = build_matrix(make_stats(pairs, 2), "pmi")
        assert mat.nnz == 4
        np.testing.assert_allclose(mat.v, 0.0, atol=1e-15)


class TestBuildMatrix:
    def test_spmi_shift_cancels_log2(self, abab_stats):
        mat = build_matrix(abab_stats, "spmi", k=2.0)
        assert mat.pair(0) == (0, 1) and mat.v[0] == pytest.approx(0.0, abs=1e-15)
        assert mat.implicit_value is None

    def test_sppmi_drops_non_positive_entries(self, abab_stats):
        mat = build_matrix(abab_stats, "sppmi", k=2.0)
        assert mat.nnz == 0
        assert mat.implicit_value == 0.0

    def test_ppmi_keeps_positive_entries(self, abab_stats):
        mat = build_matrix(abab_stats, "ppmi")
        dense = mat.to_dense()
        assert dense[0, 1] == pytest.approx(LOG2, abs=1e-15)
        assert dense[1, 0] == pytest.approx(LOG2, abs=1e-15)
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
        assert same_pairs(a, b)

    def test_negative_pmi_kept_by_unclamped_variants(self):
        # (0,1) is rarer than independence predicts, so its PMI is negative
        pairs = {(0, 0): 8.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 2.0}
        stats = make_stats(pairs, 2)
        pmi = build_matrix(stats, "pmi")
        ppmi = build_matrix(stats, "ppmi")
        pos, found = pmi.find(0, 1)
        assert found and pmi.v[pos] < 0
        assert not ppmi.find(0, 1)[1]


class TestSparseMatrixMarkers:
    def test_find_locates_stored_pairs(self):
        mat = sparse(2, 2, {(0, 1): 1.5}, 0.0)
        pos, found = mat.find([0, 0, 1], [0, 1, 1])
        assert found.tolist() == [False, True, False]
        assert mat.v[pos[1]] == 1.5

    def test_undefined_absence_blocks_densify(self):
        mat = sparse(2, 2, {(0, 1): 1.5}, None)
        assert mat.implicit_value is None
        with pytest.raises(MarkerContaminationError):
            mat.to_dense()

    def test_dense_fills_implicit(self):
        mat = sparse(2, 2, {(1, 0): 2.0}, -1.0)
        assert mat.to_dense().tolist() == [[-1.0, -1.0], [2.0, -1.0]]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), k=st.floats(min_value=1.0, max_value=8.0))
def test_property_sppmi_matches_clamped_pmi(seed, k):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.5)
    mat = build_matrix(stats, "sppmi", k=k)
    c = stats.counts
    expected = np.maximum(shifted_pmi(*stats.pair_counts(), stats.total, k), 0.0)
    pos, found = mat.find(c.i, c.j)
    assert np.array_equal(found, expected > 0.0)
    np.testing.assert_allclose(mat.v[pos[found]], expected[found], rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    exponents=st.lists(st.one_of(st.none(), st.floats(-300.0, 300.0)), min_size=9, max_size=9),
    k=st.sampled_from([1.0, 5.0]),
)
def test_property_builders_store_finite_values_or_refuse(exponents, k):
    """Counts spanning 1e-300 to 1e300: every builder of per-pair matrices stores
    only finite values or raises DomainError, and never warns."""
    pairs = {divmod(p, 3): 10.0**e for p, e in enumerate(exponents) if e is not None}
    assume(pairs)
    stats = make_stats(pairs, 3)
    runs = [(build_matrix, (v, 1.0 if v in ("pmi", "ppmi") else k)) for v in VARIANTS]
    runs += [(solve_stats, (loss, k)) for loss in LOSS_NAMES]
    runs += [(solve_stats, (loss, k, True)) for loss in LOSS_NAMES if loss != "hinge"]
    runs += [(regularize_stats, (reg, k, 0.5)) for reg in REG_KINDS]
    for build, args in runs:
        try:
            out = build(stats, *args)
        except DomainError:
            continue
        # solve_stats gives the scores and, with weights, their curvature
        for m in out if isinstance(out, tuple) else (out,):
            assert m is None or np.isfinite(m.v).all(), (build.__name__, args, m.v)


@pytest.mark.parametrize("build, args", [
    (build_matrix, ("bogus",)),
    (solve_stats, ("bogus", 1.0)),
    (solve_stats, ("bogus", 1.0, True)),
    (regularize_stats, ("bogus", 1.0, 0.5)),
], ids=["build_matrix", "solve_stats", "solve_stats_weights", "regularize_stats"])
def test_builders_refuse_an_unknown_kind_as_an_invalid_option(abab_stats, build, args):
    with pytest.raises(InvalidOptionError, match="bogus"):
        build(abab_stats, *args)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_symmetric_stats_give_symmetric_matrices(seed):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.5, symmetric=True)
    for variant, k in (("pmi", 1.0), ("ppmi", 1.0), ("spmi", 2.5), ("sppmi", 2.5)):
        mat = build_matrix(stats, variant, k=k)
        pos, found = mat.find(mat.j, mat.i)
        assert found.all()
        np.testing.assert_allclose(mat.v[pos], mat.v, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_sppmi_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.6)
    previous = build_matrix(stats, "sppmi", k=1.0)
    for k in (1.5, 2.5, 5.0):
        current = build_matrix(stats, "sppmi", k=k)
        pos, found = previous.find(current.i, current.j)
        assert found.all()
        assert (current.v <= previous.v[pos] + 1e-12).all()
        previous = current


@pytest.mark.parametrize("k", [1.0, 5.0])
def test_spmi_is_the_logistic_solution_bit_for_bit(k):
    """SGNS = SPMI: the logistic closed form is the shifted PMI, to the last bit."""
    gen = bench_gen()
    vocab, tokens = encode_text(gen.corpus_text(gen.make_corpus(40_000, 1)), min_count=10)
    stats = count_encoded(tokens, vocab, WindowSpec(left=2, right=2))
    spmi = build_matrix(stats, "spmi", k=k)
    scores = solve_stats(stats, "logistic", k)[0]
    assert spmi.nnz == scores.nnz > 10_000
    assert spmi.v.tobytes() == scores.v.tobytes()
    assert spmi.implicit_value is scores.implicit_value is None
