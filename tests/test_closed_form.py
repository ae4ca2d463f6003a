import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    DegenerateMarginalError,
    DimensionMismatchError,
    InvalidShiftError,
    LOSS_NAMES,
    DomainError,
    MarkerContaminationError,
    WindowSpec,
    WorkbenchError,
    count_encoded,
    encode_text,
    l2_chord,
    loss_derivative,
    loss_second_derivative,
    loss_value,
    minimize_pair_numeric,
    objective_value,
    pair_objective,
    read_cooc,
    solve_l1,
    solve_l2,
    solve_pair,
    solve_stats,
)
from helpers import EDGE_COUNTS, bench_gen, random_count_tuples, random_stats
from oracles import minimize_rho, ref_rho, two_pass_solve

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
        # delta = #(w,c) + k #(w,.) #(.,c) / |D| = 3 + 1.5
        assert sol.alpha == pytest.approx(3.0 * 1.5 / 4.5, rel=1e-12)

    def test_squared_hand_example(self):
        sol = solve_pair("squared", 3.0, 2.0, 3.0, 6.0, 1.0)
        assert sol.x_star == pytest.approx(0.5, abs=1e-15)
        assert sol.alpha == pytest.approx(4.0)  # delta = 3 + 2 * 3 / 6

    def test_balance_point_scores_zero(self):
        # PMI equals log k exactly, the positivity boundary
        for kind in ("logistic", "squared"):
            sol = solve_pair(kind, 2.0, 2.0, 3.0, 6.0, 2.0)
            assert sol.x_star == pytest.approx(0.0, abs=1e-15)

    def test_hinge_boundary_goes_positive(self):
        sol = solve_pair("hinge", 2.0, 2.0, 3.0, 6.0, 2.0)
        assert sol.x_star == 1.0
        assert sol.alpha is None
        below = solve_pair("hinge", 1.0, 2.0, 3.0, 6.0, 2.0)
        assert below.x_star == -1.0

    def test_zero_joint_count(self):
        log_sol = solve_pair("logistic", 0.0, 2.0, 3.0, 6.0, 1.0)
        assert log_sol.x_star == -math.inf
        assert log_sol.alpha == 0.0
        for kind in ("squared", "squared_hinge", "huber"):
            sol = solve_pair(kind, 0.0, 2.0, 3.0, 6.0, 1.0)
            assert sol.x_star == -1.0
            assert sol.alpha == pytest.approx(1.0)  # delta: the negative mass 2 * 3 / 6
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

    @pytest.mark.parametrize("k", [1.0, 5.0])
    @pytest.mark.parametrize("kind", ["logistic", "squared", "squared_hinge", "huber"])
    def test_alpha_is_the_pair_objectives_curvature(self, rng, kind, k):
        # alpha, which factorize --weighted reads, against the losses' own second derivatives
        n_wc, n_w, n_c, total, _ = np.array(random_count_tuples(rng, 2000)).T
        # scaling a tuple's counts and total by one factor keeps its pmi: one total for all
        n_wc, n_w, n_c = (a * (100.0 / total) for a in (n_wc, n_w, n_c))
        sol = solve_pair(kind, n_wc, n_w, n_c, 100.0, k)
        neg_mass = k * n_w * n_c / 100.0
        want = n_wc * loss_second_derivative(kind, sol.x_star, 1.0) + neg_mass * (
            loss_second_derivative(kind, sol.x_star, -1.0)
        )
        assert (n_wc > 0).all()
        np.testing.assert_allclose(sol.alpha, want, rtol=1e-14, atol=0.0)

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


@pytest.mark.parametrize("kind", LOSS_NAMES + ("l1", "l2", "chord"))
def test_array_closed_forms_equal_scalar_entry_points(kind, rng):
    """One function per closed form: an array call equals the per-element scalar
    calls bit for bit, on both sides of log k, and scalars give Python scalars."""
    tuples = random_count_tuples(rng, 40, zero_fraction=0.25)
    n_wc, n_w, n_c = (np.array(col) for col in list(zip(*tuples))[:3])
    total, k = 40.0, 3.0
    assert (n_wc == 0.0).any()
    if kind in LOSS_NAMES:
        above = n_wc * total > k * n_w * n_c
        assert above.any() and not above.all()
        sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
        for i, t in enumerate(zip(n_wc.tolist(), n_w.tolist(), n_c.tolist())):
            one = solve_pair(kind, *t, total, k)
            assert type(one.x_star) is float
            assert type(one.alpha) is (type(None) if kind == "hinge" else float)
            assert np.float64(one.x_star).tobytes() == sol.x_star[i].tobytes()
            assert one.alpha == (None if sol.alpha is None else sol.alpha[i])
        return
    with np.errstate(divide="ignore"):
        pmi = np.log(n_wc * total / (n_w * n_c))
    if kind != "l1":  # the L2 forms take finite pmi
        pmi = pmi[np.isfinite(pmi)]
    assert (pmi < math.log(k)).any() and (pmi > math.log(k)).any()
    fn = {"l1": solve_l1, "l2": solve_l2, "chord": l2_chord}[kind]
    for lam in (0.0, 0.3, 2.5):
        got = fn(pmi, k, lam)
        stacked = [fn(p, k, lam) for p in pmi.tolist()]
        assert all(type(x) is float for x in stacked)
        assert got.tobytes() == np.array(stacked).tobytes()


class TestObjectiveValue:
    def test_zero_scores_weigh_log2(self, abab_stats):
        W = np.zeros((2, 3))
        C = np.zeros((2, 3))
        got = objective_value(W, C, abab_stats, "logistic", 1.0)
        # positive mass 6 plus negative mass 36/6 both sit at loss log 2
        assert got == pytest.approx(12.0 * LOG2, rel=1e-12)

    def test_assembled_squared_solution_is_a_minimum(self, rng):
        stats = random_stats(rng, n_words=4, density=0.6)
        W0 = solve_stats(stats, "squared", 1.0)[0].to_dense()
        C = np.eye(stats.n_words)
        base = objective_value(W0, C, stats, "squared", 1.0)
        for _ in range(30):
            W = W0.copy()
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            W[i, j] += float(rng.normal(0.0, 0.5))
            assert objective_value(W, C, stats, "squared", 1.0) >= base - 1e-12

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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    kind=st.sampled_from(LOSS_NAMES),
    k=st.floats(1.0, 10.0),
)
def test_property_solve_stats_absent_value_and_dense_oracle(seed, kind, k):
    """solve_stats' implicit value is the closed form of an absent pair, and
    its scores equal `solve_pair` over every dense pair with positive marginals;
    with weights=True it holds solve_pair's alpha too, and refuses the hinge."""
    stats = random_stats(np.random.default_rng(seed), n_words=5, density=0.6)
    scores, alpha = solve_stats(stats, kind, k)
    assert alpha is None
    if kind == "hinge":
        with pytest.raises(DomainError, match="hinge loss has no curvature weights"):
            solve_stats(stats, kind, k, weights=True)
    else:
        scores, alpha = solve_stats(stats, kind, k, weights=True)
    n_w, n_c = float(stats.row_marginal.max()), float(stats.col_marginal.max())
    absent = solve_pair(kind, 0.0, n_w, n_c, stats.total, k)
    if kind == "logistic":
        assert absent.x_star == -math.inf and scores.implicit_value is None
    else:
        assert scores.implicit_value == absent.x_star == -1.0
    c = stats.counts
    assert np.array_equal(scores.i, c.i) and np.array_equal(scores.j, c.j)
    if kind == "hinge":
        assert alpha is None
    else:
        assert np.array_equal(alpha.i, c.i) and np.array_equal(alpha.j, c.j)
    if kind == "logistic":
        assert alpha.implicit_value == absent.alpha == 0.0
    elif kind != "hinge":
        # the squared family's absent curvature k n_w n_c / |D| differs per pair
        other = solve_pair(kind, 0.0, 2.0 * n_w, n_c, stats.total, k)
        assert alpha.implicit_value is None and other.alpha == 2.0 * absent.alpha > 0.0
        with pytest.raises(MarkerContaminationError):
            alpha.to_dense()

    dense = (c.to_dense(), stats.row_marginal[:, None], stats.col_marginal, stats.total, k)
    try:
        oracle = solve_pair(kind, *dense)
    except DegenerateMarginalError:
        return
    if kind == "logistic":  # no dense home for minus infinity: the oracle's -inf are the absent pairs
        absent = np.ones(oracle.x_star.shape, dtype=bool)
        absent[c.i, c.j] = False
        assert np.array_equal(absent, np.isneginf(oracle.x_star))
        assert scores.v.tobytes() == oracle.x_star[c.i, c.j].tobytes()
    else:
        assert scores.to_dense().tobytes() == oracle.x_star.tobytes()


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


@pytest.fixture(scope="module")
def pinned_counts(tmp_path_factory):
    """Seeded benchmark counts and the fuzz test's edge files, by name."""
    gen = bench_gen()
    vocab, tokens = encode_text(gen.corpus_text(gen.make_corpus(2000, 1)), min_count=2)
    counts = {"gen-1": count_encoded(tokens, vocab, WindowSpec(left=2, right=2))}
    work = tmp_path_factory.mktemp("edge-counts")
    for name, text in EDGE_COUNTS.items():
        (work / name).write_text(text)
        counts[name] = read_cooc(str(work / name))[0]
    return counts


def outcome(build):
    """build()'s matrices as (i, j, v) bytes and implicit values, or its refusal."""
    try:
        mats = build()
    except WorkbenchError as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    return [None if m is None else (m.i.tobytes(), m.j.tobytes(), m.v.tobytes(), m.implicit_value)
            for m in mats]


@pytest.mark.parametrize("weights", [False, True])
@pytest.mark.parametrize("k", [1.0, 5.0, 1e30, 1e300])
@pytest.mark.parametrize("kind", LOSS_NAMES)
def test_one_pass_solve_stats_matches_the_two_pass_builders(pinned_counts, kind, k, weights):
    """One gather and one closed-form evaluation give the bytes, implicit values and
    refusals that separate score and weight passes gave."""
    for name, stats in pinned_counts.items():
        got = outcome(lambda: solve_stats(stats, kind, k, weights=weights))
        assert got == outcome(lambda: two_pass_solve(stats, kind, k, weights)), name
