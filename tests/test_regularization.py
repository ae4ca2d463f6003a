import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    DomainError,
    InvalidOptionError,
    InvalidShiftError,
    h_function,
    l2_chord,
    regularize_stats,
    solve_exact,
    solve_l1,
    solve_l2,
)
from coocvec.pmi import shifted_pmi
from coocvec.regularization import REG_KINDS
from helpers import make_stats, random_stats
from oracles import absent_pair_root, reg_objective, reg_root

# decades from 1e-310 to 10, and the smallest subnormal
TINY_TO_TEN = (*(10.0 ** e for e in range(-310, 2)), 5e-324)


class TestHFunction:
    def test_balance_point_is_zero(self):
        assert h_function(math.log(2.0), 2.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_zero_gives_half_gap(self):
        assert h_function(math.log(3.0), 1.0, 0.0) == pytest.approx(1.0)
        assert h_function(math.log(5.0), 2.0, 0.0) == pytest.approx(1.5)

    def test_direct_substitution(self):
        assert h_function(math.log(3.0), 1.0, math.log(2.0)) == pytest.approx(1.0 / 3.0)

    def test_stable_for_large_scores(self):
        assert h_function(1.0, 1.0, 200.0) == pytest.approx(-1.0)
        assert h_function(1.0, 1.0, -200.0) == pytest.approx(math.e - 0.0, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-5, 5, 50)
        vals = [h_function(0.7, 1.5, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSolveL2:
    def test_hand_example_half_harmonic(self):
        # A = 1 and B = 1, so the chord crossing sits at 1/2
        lam = (math.e - 1.0) / 2.0
        assert l2_chord(1.0, 1.0, lam) == pytest.approx(0.5, rel=1e-12)

    def test_vanishing_lambda_returns_shifted_pmi(self):
        a = solve_l2(1.3, 1.0, 1e-9)
        assert a == pytest.approx(1.3, abs=1e-6)
        assert solve_l2(1.3, 1.0, 0.0) == 1.3

    def test_large_lambda_shrinks_to_zero(self):
        assert solve_l2(1.0, 1.0, 1e9) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_decreasing_in_lambda(self):
        lams = [1e-3, 1e-2, 0.1, 1.0, 10.0]
        vals = [solve_l2(2.0, 1.5, lam) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bounded_by_open_interval(self):
        for lam in (1e-3, 0.5, 20.0):
            x = solve_l2(0.8, 1.0, lam)
            assert 0.0 < x < 0.8

    def test_matches_exact_below_log_k(self):
        # the mirror identity carries the positive-side closed form below log k,
        # and the chord overshoots the root on both sides
        gaps = np.linspace(0.1, 5.0, 25)
        for k in (1.0, 2.0, 5.0):
            pmi = math.log(k) + np.concatenate([-gaps, gaps])
            for lam in np.geomspace(1e-3, 10.0, 25):
                got = solve_l2(pmi, k, lam)
                exact = solve_exact(pmi, k, lam, "l2")
                nonzero = exact != 0.0
                rel = np.abs(got - exact)[nonzero] / np.abs(exact[nonzero])
                assert rel.max(initial=0.0) <= 1e-10, (k, lam)
                assert np.all(np.abs(l2_chord(pmi, k, lam)) >= np.abs(exact)), (k, lam)

    def test_within_ten_percent_of_exact_on_hand_example(self):
        lam = (math.e - 1.0) / 2.0
        exact = solve_exact(1.0, 1.0, lam, "l2")
        assert abs(solve_l2(1.0, 1.0, lam) - exact) <= 0.10 * abs(exact)

    def test_parameter_validation(self):
        with pytest.raises(InvalidShiftError):
            solve_l2(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            solve_l2(1.0, 1.0, -0.1)

    def test_beyond_acceptance_range_stays_in_range_shrinks_and_beats_chord(self):
        # Plain Newton on lam*x - h(x) from the chord overshoots far left of
        # the root for large gaps and can end worse than the chord; the
        # log-form steps must stay inside (0, gap), keep shrinking in lam and
        # never leave a larger stationarity residual than the chord.
        lams = np.geomspace(1e-4, 100.0, 30)
        for k in (1.0, 2.5, 10.0):
            for gap in np.linspace(0.05, 15.0, 30):
                pmi = float(gap) + math.log(k)
                previous = float(gap)
                for lam in lams:
                    lam = float(lam)
                    x = solve_l2(pmi, k, lam)
                    assert 0.0 < x < gap
                    assert x < previous
                    previous = x
                    chord = l2_chord(pmi, k, lam)
                    residual = abs(lam * x - h_function(pmi, k, x))
                    chord_residual = abs(lam * chord - h_function(pmi, k, chord))
                    assert residual <= chord_residual


class TestL2Chord:
    def test_overshoots_exact_root(self):
        # h is convex for x > 0, so the chord lies above it
        for lam in (0.01, 1.0, 10.0):
            assert l2_chord(2.0, 1.0, lam) > solve_exact(2.0, 1.0, lam, "l2")

    def test_validation_matches_solve_l2(self):
        with pytest.raises(InvalidShiftError):
            l2_chord(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            l2_chord(1.0, 1.0, -0.1)


class TestSolveL1:
    def test_case1_zero_inside_threshold(self):
        assert solve_l1(math.log(3.0), 1.0, 1.5) == 0.0

    def test_case2_positive_branch(self):
        got = solve_l1(math.log(3.0), 1.0, 0.5)
        assert got == pytest.approx(math.log(5.0 / 3.0), rel=1e-12)

    def test_case3_negative_branch(self):
        got = solve_l1(math.log(0.5), 1.0, 0.1)
        assert got == pytest.approx(math.log(0.6 / 0.9), rel=1e-12)

    def test_continuous_at_case_boundaries(self):
        pmi, k = math.log(3.0), 1.0
        h0 = (math.exp(pmi) - k) / 2.0
        eps = 1e-9
        assert solve_l1(pmi, k, h0) == 0.0
        assert solve_l1(pmi, k, h0 - eps) == pytest.approx(0.0, abs=1e-8)
        low = math.log(0.5)
        h0n = abs((math.exp(low) - k) / 2.0)
        assert solve_l1(low, k, h0n) == 0.0
        assert solve_l1(low, k, h0n - eps) == pytest.approx(0.0, abs=1e-8)

    def test_zero_count_pair_stays_finite(self):
        got = solve_l1(-math.inf, 1.0, 0.1)
        assert got == pytest.approx(math.log(0.1 / 0.9), rel=1e-12)
        assert solve_l1(-math.inf, 1.0, 0.6) == 0.0

    def test_zero_count_pair_whose_quotient_underflows(self):
        # lam / (k - lam) = 1e-340 is below the float range; its log is a float
        got = solve_l1(-math.inf, 1e30, 1e-310)
        assert got == pytest.approx(math.log(1e-310) - math.log(1e30 - 1e-310), rel=1e-12)

    def test_huge_lambda_always_lands_in_case1(self):
        # the negative branch needs lam < k/2, so lam >= k can only yield 0
        for pmi in (-math.inf, -3.0, 0.0, 5.0):
            if (math.exp(pmi) - 2.0) / 2.0 <= 2.0:
                assert solve_l1(pmi, 2.0, 2.0) == 0.0

    def test_results_are_stationary_points(self):
        for pmi, k, lam in ((math.log(3.0), 1.0, 0.5), (math.log(0.5), 1.0, 0.1), (2.0, 2.0, 0.3)):
            x = solve_l1(pmi, k, lam)
            obj = reg_objective(pmi, k, lam, "l1")
            assert obj(x) <= min(obj(x - 1e-6), obj(x + 1e-6))


class TestSolveExact:
    def test_l2_balance_point(self):
        assert solve_exact(math.log(2.0), 2.0, 0.7, "l2") == pytest.approx(0.0, abs=1e-12)

    def test_l2_residual_is_tiny(self):
        for pmi, k, lam in ((1.0, 1.0, 0.3), (2.5, 2.0, 1.0), (0.2, 1.0, 5.0)):
            x = solve_exact(pmi, k, lam, "l2")
            assert abs(h_function(pmi, k, x) - lam * x) <= 1e-12

    def test_matches_scipy_reference(self):
        for pmi, k, lam, kind in (
            (1.0, 1.0, 0.3, "l2"),
            (2.5, 2.0, 1.0, "l2"),
            (math.log(3.0), 1.0, 0.5, "l1"),
            (math.log(0.5), 1.0, 0.1, "l1"),
            (-math.inf, 1.5, 0.2, "l1"),
            (-math.inf, 1.5, 0.2, "l2"),
        ):
            assert solve_exact(pmi, k, lam, kind) == pytest.approx(
                reg_root(pmi, k, lam, kind), abs=1e-10
            )

    def test_l1_closed_form_agrees(self, rng):
        for _ in range(200):
            pmi = float(rng.uniform(-4.0, 4.0))
            k = float(rng.uniform(1.0, 6.0))
            lam = float(np.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
            assert solve_l1(pmi, k, lam) == pytest.approx(
                solve_exact(pmi, k, lam, "l1"), abs=1e-10
            )


class TestRegularizeStats:
    def test_validation(self, abab_stats):
        with pytest.raises(ValueError):
            regularize_stats(abab_stats, "l3", 1.0, 0.1)
        with pytest.raises(InvalidShiftError):
            regularize_stats(abab_stats, "l1", 0.5, 0.1)
        with pytest.raises(ValueError):
            regularize_stats(abab_stats, "l1", 1.0, -1.0)
        # kind, then k, then lam, and all before the lam = 0 refusal of absent pairs
        with pytest.raises(InvalidOptionError):
            regularize_stats(abab_stats, "l3", 0.5, -1.0)
        with pytest.raises(InvalidShiftError):
            regularize_stats(abab_stats, "l1", 0.5, -1.0)
        with pytest.raises(InvalidShiftError):
            regularize_stats(abab_stats, "l2", 0.5, 0.0)

    def test_absent_pairs_share_one_implicit_score(self, abab_stats):
        mat = regularize_stats(abab_stats, "l1", 1.0, 0.1)
        assert mat.implicit_value == pytest.approx(math.log(0.1 / 0.9), rel=1e-12)
        assert mat.pair(0) == (0, 1)
        assert mat.v[0] == pytest.approx(solve_l1(math.log(2.0), 1.0, 0.1), rel=1e-12)

    def test_l2_used_where_chord_defined_else_exact(self, rng):
        # unit diagonal plus off-diagonal weights down to e^-16.5 puts pmi as
        # far as 15 below log k = log 2
        off = iter(np.exp(-np.linspace(0.0, 16.5, 30)))
        pairs = {(i, j): 1.0 if i == j else float(next(off)) for i in range(6) for j in range(6)}
        far_below = make_stats(pairs, 6)
        assert shifted_pmi(*far_below.pair_counts(), far_below.total).min() - math.log(2.0) < -15.0
        near = random_stats(rng, n_words=5, density=0.6)
        for stats, lam in ((near, 0.25), (far_below, 0.25), (far_below, 100.0)):
            mat = regularize_stats(stats, "l2", 2.0, lam)
            pmi = shifted_pmi(*stats.pair_counts(), stats.total)
            assert mat.v.tobytes() == solve_l2(pmi, 2.0, lam).tobytes()
            exact = solve_exact(pmi, 2.0, lam, "l2")
            np.testing.assert_allclose(mat.v, exact, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("k, lam", [(1.0, 1e-30), (5.0, 1e-30), (1.0, 1e-310),
                                        (5.0, 1e-310), (1e30, 1e-310), (1e300, 1e-11),
                                        (1e300, 5e-324)])
    def test_absent_pair_l2_score_at_a_tiny_lambda(self, abab_stats, k, lam):
        # the root of lam * x = -k e^x / (1 + e^x) lies near log lam - log k, far below
        # -50 and past -708.4 for the last three; e^x underflows there, its log form does not
        got = regularize_stats(abab_stats, "l2", k, lam).implicit_value
        assert got == pytest.approx(absent_pair_root(k, lam, "l2"), rel=1e-12, abs=0.0)

    def test_absent_pair_scores_over_the_float_range(self, abab_stats):
        for k in (1.0, 5.0, 1e30, 1e300):
            for lam in TINY_TO_TEN:
                for kind in REG_KINDS:
                    got = regularize_stats(abab_stats, kind, k, lam).implicit_value
                    want = absent_pair_root(k, lam, kind)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (kind, k, lam)

    def test_scores_run_no_bisection(self, abab_stats, monkeypatch):
        # the bisection is the closed forms' reference, never a path to a score
        def refuse(*args):
            raise AssertionError("bisect_decreasing called")

        monkeypatch.setattr("coocvec.closed_form.bisect_decreasing", refuse)
        monkeypatch.setattr("coocvec.regularization.bisect_decreasing", refuse)
        for kind in REG_KINDS:
            assert math.isfinite(regularize_stats(abab_stats, kind, 5.0, 0.5).implicit_value)

    def test_absent_pairs_need_positive_lambda(self, abab_stats):
        # the unregularized zero-count score is -inf, never a finite implicit value
        for kind in ("l1", "l2"):
            with pytest.raises(DomainError):
                regularize_stats(abab_stats, kind, 1.0, 0.0)

    def test_l1_sparsity_monotone_in_lambda(self, rng):
        stats = random_stats(rng, n_words=6, density=0.7)
        previous = -1
        for lam in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
            mat = regularize_stats(stats, "l1", 1.5, lam)
            zeros = int(np.count_nonzero(mat.v == 0.0))
            assert zeros >= previous
            previous = zeros


@settings(max_examples=80, deadline=None)
@given(
    pmi=st.floats(min_value=-5.0, max_value=5.0),
    k=st.floats(min_value=1.0, max_value=8.0),
    lam=st.floats(min_value=1e-3, max_value=10.0),
)
def test_property_l1_closed_form_is_exact(pmi, k, lam):
    assert solve_l1(pmi, k, lam) == pytest.approx(solve_exact(pmi, k, lam, "l1"), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    gap=st.floats(min_value=0.1, max_value=5.0),
    k=st.floats(min_value=1.0, max_value=4.0),
    lam=st.floats(min_value=1e-3, max_value=10.0),
)
def test_property_l2_chord_stays_in_range_and_shrinks(gap, k, lam):
    pmi = gap + math.log(k)
    x = solve_l2(pmi, k, lam)
    assert 0.0 < x < gap
    assert solve_l2(pmi, k, lam * 2.0) < x


@settings(max_examples=60, deadline=None)
@given(
    pmis=st.lists(st.floats(-5.0, 5.0) | st.just(-math.inf), min_size=1, max_size=8),
    k=st.floats(1.0, 8.0),
    lam=st.floats(1e-3, 10.0),
    xs=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=8),
)
def test_property_array_references_equal_stacked_scalar_calls(pmis, k, lam, xs):
    """Array calls give the scalar calls' results bit for bit, and the
    bisection agrees with an independent root finder."""
    pmi = np.array(pmis)
    for kind in ("l1", "l2"):
        got = solve_exact(pmi, k, lam, kind)
        stacked = [solve_exact(p, k, lam, kind) for p in pmis]
        assert got.tobytes() == np.array(stacked).tobytes(), kind
        reference = [reg_root(p, k, lam, kind) for p in pmis]
        assert np.allclose(got, reference, rtol=0.0, atol=1e-10), kind
    h = h_function(pmi[:, None], k, np.array(xs))
    stacked = [[h_function(p, k, x) for x in xs] for p in pmis]
    assert h.tobytes() == np.array(stacked).tobytes()
