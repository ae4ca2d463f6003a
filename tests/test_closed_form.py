import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    CooccurrenceStats,
    DegenerateMarginalError,
    DimensionMismatchError,
    InvalidShiftError,
    LOSS_NAMES,
    MarkerContaminationError,
    assemble_spmi_solution,
    loss_derivative,
    loss_second_derivative,
    loss_value,
    minimize_pair_numeric,
    objective_value,
    pair_objective,
    solve_l1,
    solve_pair,
)
from coocvec.closed_form import solve_pairs
from coocvec.regularization import l1_scores
from helpers import random_count_tuples, random_stats
from oracles import minimize_rho, ref_rho

LOG2 = math.log(2.0)
QUADRATIC = ("squared", "squared_hinge", "huber")


class TestLossValues:
    def test_logistic_at_zero(self):
        assert loss_value("logistic", 0.0, 1.0) == pytest.approx(LOG2, abs=1e-15)
        assert loss_value("logistic", 0.0, -1.0) == pytest.approx(LOG2, abs=1e-15)

    def test_squared_exact_fit(self):
        assert loss_value("squared", 1.0, 1.0) == 0.0
        assert loss_value("squared", -1.0, -1.0) == 0.0

    def test_huber_linear_branch(self):
        # yx = -2 < -1 triggers the linear branch: -2 * yx = 4
        assert loss_value("huber", -2.0, 1.0) == 4.0
        assert loss_value("huber", 2.0, -1.0) == 4.0

    def test_huber_continuous_at_branch_point(self):
        quad = loss_value("huber", -1.0 + 1e-9, 1.0)
        lin = loss_value("huber", -1.0 - 1e-9, 1.0)
        assert quad == pytest.approx(2.0, abs=1e-8)
        assert lin == pytest.approx(2.0, abs=1e-8)

    def test_hinge_zero_beyond_margin(self):
        assert loss_value("hinge", 2.0, 1.0) == 0.0
        assert loss_value("hinge", 0.0, 1.0) == 1.0

    def test_squared_hinge_matches_half_squared_slack(self):
        assert loss_value("squared_hinge", 0.5, 1.0) == pytest.approx(0.125)
        assert loss_value("squared_hinge", 3.0, 1.0) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            loss_value("absolute", 0.0, 1.0)

    def test_logistic_large_argument_stable(self):
        assert loss_value("logistic", 800.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert loss_value("logistic", -800.0, 1.0) == pytest.approx(800.0, rel=1e-12)


class TestLossDerivatives:
    @pytest.mark.parametrize("kind", [k for k in LOSS_NAMES if k != "hinge"])
    def test_first_derivative_matches_finite_difference(self, kind, rng):
        eps = 1e-6
        for _ in range(40):
            x = float(rng.uniform(-3.0, 3.0))
            y = 1.0 if rng.random() < 0.5 else -1.0
            if kind in ("squared_hinge", "huber") and min(abs(y * x - 1.0), abs(y * x + 1.0)) < 1e-3:
                continue
            numeric = (loss_value(kind, x + eps, y) - loss_value(kind, x - eps, y)) / (2 * eps)
            assert loss_derivative(kind, x, y) == pytest.approx(numeric, rel=1e-6, abs=1e-6)

    def test_hinge_derivative_piecewise(self):
        assert loss_derivative("hinge", 0.0, 1.0) == -1.0
        assert loss_derivative("hinge", 2.0, 1.0) == 0.0

    def test_hinge_has_no_second_derivative(self):
        assert loss_second_derivative("hinge", 0.3, 1.0) is None

    def test_logistic_curvature_is_sigmoid_product(self):
        x = 0.7
        s = 1.0 / (1.0 + math.exp(-x))
        assert loss_second_derivative("logistic", x, 1.0) == pytest.approx(s * (1 - s), rel=1e-12)
        assert loss_second_derivative("logistic", x, -1.0) == pytest.approx(s * (1 - s), rel=1e-12)

    def test_quadratic_family_curvatures(self):
        assert loss_second_derivative("squared", 5.0, 1.0) == 1.0
        assert loss_second_derivative("squared_hinge", 0.0, 1.0) == 1.0
        assert loss_second_derivative("squared_hinge", 2.0, 1.0) == 0.0
        assert loss_second_derivative("huber", 0.0, 1.0) == 1.0
        assert loss_second_derivative("huber", -2.0, 1.0) == 0.0


class TestPairObjective:
    def test_zero_joint_leaves_negative_term(self):
        for kind in LOSS_NAMES:
            got = pair_objective(kind, 0.0, 2.0, 3.0, 6.0, 2.0, 0.7)
            expected = 2.0 * (2.0 * 3.0 / 6.0) * loss_value(kind, 0.7, -1.0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_logistic_balance_point(self):
        # n_wc equals the expected negative mass, so both terms weigh log 2
        n_w, n_c, total, k = 2.0, 3.0, 6.0, 2.0
        coeff = k * n_w * n_c / total
        got = pair_objective("logistic", coeff, n_w, n_c, total, k, 0.0)
        assert got == pytest.approx(2.0 * coeff * LOG2, rel=1e-12)

    def test_squared_hand_example(self):
        assert pair_objective("squared", 3.0, 3.0, 3.0, 6.0, 2.0, 0.0) == pytest.approx(3.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            pair_objective("squared", -1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            pair_objective("squared", 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidShiftError):
            pair_objective("squared", 1.0, 1.0, 1.0, 1.0, 0.5, 0.0)


class TestSolvePair:
    def test_logistic_hand_example(self):
        sol = solve_pair("logistic", 3.0, 3.0, 3.0, 6.0, 1.0)
        assert sol.x_star == pytest.approx(LOG2, abs=1e-15)
        assert sol.delta == pytest.approx(4.5)
        assert sol.alpha == pytest.approx(3.0 * 1.5 / 4.5, rel=1e-12)
        assert sol.pos_condition
        assert not sol.neg_inf

    def test_squared_hand_example(self):
        sol = solve_pair("squared", 3.0, 2.0, 3.0, 6.0, 1.0)
        assert sol.x_star == pytest.approx(0.5, abs=1e-15)
        assert sol.alpha == pytest.approx(4.0)
        assert sol.delta == pytest.approx(4.0)

    def test_balance_point_scores_zero(self):
        # PMI equals log k exactly, the positivity boundary
        for kind in ("logistic", "squared"):
            sol = solve_pair(kind, 2.0, 2.0, 3.0, 6.0, 2.0)
            assert sol.x_star == pytest.approx(0.0, abs=1e-15)
            assert not sol.pos_condition

    def test_hinge_boundary_goes_positive(self):
        sol = solve_pair("hinge", 2.0, 2.0, 3.0, 6.0, 2.0)
        assert sol.x_star == 1.0
        assert sol.alpha is None
        below = solve_pair("hinge", 1.0, 2.0, 3.0, 6.0, 2.0)
        assert below.x_star == -1.0

    def test_zero_joint_count(self):
        log_sol = solve_pair("logistic", 0.0, 2.0, 3.0, 6.0, 1.0)
        assert log_sol.neg_inf
        assert log_sol.alpha == 0.0
        assert not log_sol.pos_condition
        for kind in ("squared", "squared_hinge", "huber"):
            sol = solve_pair(kind, 0.0, 2.0, 3.0, 6.0, 1.0)
            assert sol.x_star == -1.0
            assert sol.alpha == pytest.approx(sol.delta)
        assert solve_pair("hinge", 0.0, 2.0, 3.0, 6.0, 1.0).x_star == -1.0

    def test_degenerate_marginals_rejected(self):
        with pytest.raises(DegenerateMarginalError):
            solve_pair("logistic", 0.0, 0.0, 3.0, 6.0, 1.0)
        with pytest.raises(DegenerateMarginalError):
            solve_pair("squared", 1.0, 2.0, 0.0, 6.0, 1.0)

    def test_closed_forms_match_independent_minimizer(self, rng):
        tuples = random_count_tuples(rng, 30)
        for kind in LOSS_NAMES:
            for n_wc, n_w, n_c, total, k in tuples:
                sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
                reference = minimize_rho(kind, n_wc, n_w, n_c, total, k)
                assert sol.x_star == pytest.approx(reference, abs=1e-7), (kind, n_wc)

    def test_internal_numeric_minimizer_agrees_too(self, rng):
        tuples = random_count_tuples(rng, 20)
        for kind in LOSS_NAMES:
            for n_wc, n_w, n_c, total, k in tuples:
                internal = minimize_pair_numeric(kind, n_wc, n_w, n_c, total, k)
                sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
                assert internal == pytest.approx(sol.x_star, abs=1e-8)

    def test_taylor_expansion_around_minimum(self, rng):
        for kind in ("logistic", "squared", "squared_hinge", "huber"):
            for _ in range(20):
                n_wc = float(rng.uniform(1.0, 5.0))
                n_w = float(rng.uniform(1.0, 4.0))
                n_c = float(rng.uniform(1.0, 4.0))
                total = float(rng.uniform(8.0, 20.0))
                k = 1.0
                sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
                if abs(sol.x_star) > 0.8:
                    continue
                rho = ref_rho(kind, n_wc, n_w, n_c, total, k)
                base = rho(sol.x_star)
                for dx in (-0.1, -0.05, 0.05, 0.1):
                    gap = rho(sol.x_star + dx) - base
                    quad = 0.5 * sol.alpha * dx * dx
                    assert gap == pytest.approx(quad, rel=0.05), (kind, dx)


@pytest.mark.parametrize("kind", LOSS_NAMES + ("l1",))
def test_array_closed_forms_equal_scalar_entry_points(kind, rng):
    tuples = random_count_tuples(rng, 40, zero_fraction=0.25)
    n_wc, n_w, n_c = (np.array(col) for col in list(zip(*tuples))[:3])
    total, k = 40.0, 3.0
    assert (n_wc == 0.0).any()
    if kind == "l1":
        with np.errstate(divide="ignore"):
            pmi = np.log(n_wc * total / (n_w * n_c))
        for lam in (0.0, 0.3, 2.5):
            got = l1_scores(pmi, k, lam)
            assert got.tolist() == [solve_l1(p, k, lam) for p in pmi.tolist()]
        return
    sol = solve_pairs(kind, n_wc, n_w, n_c, total, k)
    for i, t in enumerate(zip(n_wc.tolist(), n_w.tolist(), n_c.tolist())):
        one = solve_pair(kind, *t, total, k)
        assert one.x_star == sol.x_star[i]
        assert one.neg_inf == sol.neg_inf[i]
        assert one.alpha == (None if sol.alpha is None else sol.alpha[i])
        assert one.delta == sol.delta[i]
        assert one.pos_condition == sol.pos_condition[i]


class TestAssembleOneHot:
    def test_logistic_reproduces_spmi_with_markers(self, abab_stats):
        pair = assemble_spmi_solution(abab_stats, "logistic", 1.0)
        assert np.allclose(pair.C, np.eye(2))
        assert pair.W[0, 1] == pytest.approx(LOG2)
        assert pair.W[1, 0] == pytest.approx(LOG2)
        assert pair.W_neg_inf[0, 0] and pair.W_neg_inf[1, 1]
        assert not pair.W_neg_inf[0, 1]

    def test_hinge_entries_are_signs(self, rng):
        stats = random_stats(rng, n_words=4, density=0.7, symmetric=True)
        pair = assemble_spmi_solution(stats, "hinge", 1.5)
        assert set(np.unique(pair.W)) <= {-1.0, 1.0}

    def test_squared_at_independence_scores_zero(self):
        pairs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        stats = CooccurrenceStats.from_pairs(pairs, 2)
        pair = assemble_spmi_solution(stats, "squared", 1.0)
        assert np.allclose(pair.W, 0.0)

    def test_squared_absent_pairs_score_minus_one(self, abab_stats):
        pair = assemble_spmi_solution(abab_stats, "squared", 1.0)
        assert pair.W[0, 0] == -1.0
        assert pair.W[1, 1] == -1.0
        assert pair.W_neg_inf is None


class TestObjectiveValue:
    def test_zero_scores_weigh_log2(self, abab_stats):
        W = np.zeros((2, 3))
        C = np.zeros((2, 3))
        got = objective_value(W, C, abab_stats, "logistic", 1.0)
        # positive mass 6 plus negative mass 36/6 both sit at loss log 2
        assert got == pytest.approx(12.0 * LOG2, rel=1e-12)

    def test_assembled_squared_solution_is_a_minimum(self, rng):
        stats = random_stats(rng, n_words=4, density=0.6)
        pair = assemble_spmi_solution(stats, "squared", 1.0)
        base = objective_value(pair.W, pair.C, stats, "squared", 1.0)
        for _ in range(30):
            W = pair.W.copy()
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            W[i, j] += float(rng.normal(0.0, 0.5))
            assert objective_value(W, pair.C, stats, "squared", 1.0) >= base - 1e-12

    def test_masked_absent_pairs_contribute_zero(self, abab_stats):
        pair = assemble_spmi_solution(abab_stats, "logistic", 1.0)
        got = objective_value(
            pair.W, pair.C, abab_stats, "logistic", 1.0, neg_inf_mask=pair.W_neg_inf
        )
        expected = sum(
            pair_objective(
                "logistic",
                abab_stats.count(w, c),
                float(abab_stats.row_marginal[w]),
                float(abab_stats.col_marginal[c]),
                abab_stats.total,
                1.0,
                float(pair.W[w, c]),
            )
            for (w, c) in abab_stats.pairs
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_masked_stored_pair_rejected(self, abab_stats):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 1] = True
        with pytest.raises(MarkerContaminationError):
            objective_value(np.eye(2), np.eye(2), abab_stats, "logistic", 1.0, neg_inf_mask=mask)

    def test_mask_only_makes_sense_for_logistic(self, abab_stats):
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(MarkerContaminationError):
            objective_value(np.eye(2), np.eye(2), abab_stats, "squared", 1.0, neg_inf_mask=mask)

    def test_dimension_checks(self, abab_stats):
        with pytest.raises(DimensionMismatchError):
            objective_value(np.zeros((3, 2)), np.zeros((2, 2)), abab_stats, "squared", 1.0)
        with pytest.raises(DimensionMismatchError):
            objective_value(np.zeros((2, 2)), np.zeros((2, 3)), abab_stats, "squared", 1.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d=st.sampled_from([2, 8]),
    kind=st.sampled_from(LOSS_NAMES),
)
def test_property_swap_symmetry(seed, d, kind):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, n_words=5, density=0.5, symmetric=True)
    W = rng.normal(size=(5, d))
    C = rng.normal(size=(5, d))
    a = objective_value(W, C, stats, kind, 2.0)
    b = objective_value(C, W, stats, kind, 2.0)
    assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    kind=st.sampled_from(LOSS_NAMES),
)
def test_property_sign_agreement_with_shifted_pmi(seed, kind):
    rng = np.random.default_rng(seed)
    ((n_wc, n_w, n_c, total, k),) = random_count_tuples(rng, 1)
    sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
    shifted = math.log(n_wc * total / (n_w * n_c)) - math.log(k)
    if kind == "hinge":
        assert (sol.x_star > 0) == (shifted >= 0)
    elif shifted > 0:
        assert sol.x_star > 0
    elif shifted < 0:
        assert sol.x_star < 0
    assert sol.pos_condition == (shifted > 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_property_quadratic_family_identical(seed):
    rng = np.random.default_rng(seed)
    ((n_wc, n_w, n_c, total, k),) = random_count_tuples(rng, 1)
    results = [solve_pair(kind, n_wc, n_w, n_c, total, k).x_star for kind in QUADRATIC]
    assert max(results) - min(results) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
        min_size=1,
        max_size=8,
    ),
    total=st.floats(50.0, 1000.0),
    k=st.floats(1.0, 10.0),
    xs=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8),
)
def test_property_array_references_equal_stacked_scalar_calls(counts, total, k, xs):
    """Array calls give the scalar calls' results bit for bit, and the references
    agree with an independent root finder."""
    n_wc, n_w, n_c = (np.array(col) for col in zip(*counts))
    neg_mass = k * n_w * n_c / total
    x = np.array(xs)
    for kind in LOSS_NAMES:
        got = minimize_pair_numeric(kind, n_wc, n_w, n_c, total, k)
        stacked = [minimize_pair_numeric(kind, *t, total, k) for t in counts]
        assert got.tobytes() == np.array(stacked).tobytes(), kind
        reference = np.array([minimize_rho(kind, *t, total, k) for t in counts])
        # the hinge's two vertices tie at n_wc = neg_mass, where each side picks its own
        decided = np.abs(n_wc - neg_mass) > 1e-9 * np.maximum(n_wc, neg_mass)
        if kind != "hinge":
            decided[:] = True
        assert np.allclose(got[decided], reference[decided], rtol=0.0, atol=1e-7), kind
        for y in (1.0, -1.0):
            slope = loss_derivative(kind, x, y)
            assert slope.tobytes() == np.array([loss_derivative(kind, v, y) for v in xs]).tobytes()
            curve = loss_second_derivative(kind, x, y)
            if kind == "hinge":
                assert curve is None
            else:
                stacked = [loss_second_derivative(kind, v, y) for v in xs]
                assert curve.tobytes() == np.array(stacked).tobytes()
