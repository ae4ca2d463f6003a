import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coocvec import (
    ContextSpec,
    DimensionMismatchError,
    TrainConfig,
    WindowSpec,
    build_examples,
    build_vocabulary,
    count_cooccurrences,
    explain,
    solve_pair,
    tokenize,
    train,
)
from coocvec.convex_model import (
    BLOCK_GROUPS,
    CONTEXT_MODES,
    Example,
    _aggregate,
    context_dim,
    corpus_objective,
    feature_names,
    full_batch_smooth,
    negative_sampling_loss_grad,
    noise_distribution,
    soft_threshold,
    softmax_loss_grad,
)
from helpers import bench_gen, random_corpus
from oracles import brute_examples, sgd_per_example


def spec11(mode: str) -> ContextSpec:
    return ContextSpec(mode=mode, window=WindowSpec(left=1, right=1))


TWO_BLOCK = [["red", "blue"] * 10, ["hot", "cold"] * 10] * 3


def contexts(record: list[str], spec: ContextSpec) -> list[tuple[str, dict[int, float]]]:
    """(target word, context input as a dict) of each example of a one-record corpus."""
    vocab = build_vocabulary([record])
    return [
        (vocab.words[ex.target], dict(zip(ex.idx.tolist(), ex.val.tolist())))
        for ex in build_examples([record], vocab, spec)
    ]


class TestContextConstruction:
    # the vocabulary of ["a", "b", "a"] is a=0, b=1; the middle position is b
    def test_bag_sums_window_occurrences(self):
        out = contexts(["a", "b", "a"], spec11("bag"))
        assert out[1] == ("b", {0: 2.0})

    def test_single_emits_one_example_per_occurrence(self):
        out = contexts(["a", "b", "a"], spec11("single"))
        assert [z for word, z in out if word == "b"] == [{0: 1.0}, {0: 1.0}]

    def test_positional_uses_slot_blocks(self):
        out = contexts(["a", "b", "a"], spec11("positional"))
        assert out[1] == ("b", {0: 1.0, 2 + 0: 1.0})

    def test_reciprocal_weighting(self):
        window = WindowSpec(left=2, right=0, positional_weight="reciprocal")
        spec = ContextSpec(mode="bag", window=window)
        out = contexts(["a", "b", "c"], spec)
        assert out[-1] == ("c", {0: 0.5, 1: 1.0})

    def test_lone_token_has_no_context(self):
        assert contexts(["a"], spec11("bag")) == []

    def test_edge_positions_truncate(self):
        assert contexts(["a", "b"], spec11("bag")) == [("a", {1: 1.0}), ("b", {0: 1.0})]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ContextSpec(mode="pile")
        with pytest.raises(ValueError):
            ContextSpec(window=WindowSpec(positional_weight="linear"))

    def test_context_dim_by_mode(self):
        assert context_dim(spec11("single"), 7) == 7
        assert context_dim(spec11("bag"), 7) == 7
        assert context_dim(spec11("positional"), 7) == 14
        wide = ContextSpec(mode="positional", window=WindowSpec(left=2, right=3))
        assert context_dim(wide, 4) == 20

    def test_feature_names(self):
        words = ["a", "b"]
        assert feature_names(spec11("bag"), words) == ["a", "b"]
        assert feature_names(spec11("positional"), words) == [
            "-1:a",
            "-1:b",
            "+1:a",
            "+1:b",
        ]

    def test_build_examples_counts_and_targets(self):
        records = [["a", "b", "a"]]
        vocab = build_vocabulary(records)
        exs = build_examples(records, vocab, spec11("single"))
        assert len(exs) == 4
        assert [e.target for e in exs] == [
            vocab.id_of("a"),
            vocab.id_of("b"),
            vocab.id_of("b"),
            vocab.id_of("a"),
        ]

    def test_build_examples_skips_oov(self):
        records = [["a", "b", "a"], ["a", "a"]]
        vocab = build_vocabulary(records, min_count=3)
        assert "b" not in vocab.index
        exs = build_examples([["a", "b", "a"]], vocab, spec11("bag"))
        assert len(exs) == 2
        assert all(e.target == vocab.id_of("a") for e in exs)


@pytest.mark.parametrize("mode", CONTEXT_MODES)
@pytest.mark.parametrize("weighting", ["constant", "reciprocal"])
@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.lists(st.sampled_from("abcdef"), max_size=10), max_size=8),
    left=st.integers(min_value=0, max_value=3),
    right=st.integers(min_value=0, max_value=3),
)
def test_property_build_examples_matches_per_position_oracle(mode, weighting, data, left, right):
    assume(left + right > 0)
    # min_count 2 leaves the rarer letters out of vocabulary; records may be empty
    vocab = build_vocabulary(data + [["a", "a"]], min_count=2)
    spec = ContextSpec(mode=mode, window=WindowSpec(left, right, positional_weight=weighting))
    exs = build_examples(data, vocab, spec)
    assert all(type(ex.target) is int and ex.idx.dtype == np.int64 for ex in exs)
    got = [(ex.target, list(zip(ex.idx.tolist(), ex.val.tolist()))) for ex in exs]
    assert got == brute_examples(data, vocab.index, mode, left, right, weighting == "reciprocal")
    # the CSR record itself: every example holds at least one input coordinate
    assert exs.indptr.dtype == np.int64 and exs.indptr[0] == 0 and exs.indptr[-1] == len(exs.idx)
    assert (np.diff(exs.indptr) > 0).all()
    assert exs.target.dtype == np.int64 and exs.target.shape == (len(exs.indptr) - 1,)
    assert exs.idx.ndim == exs.val.ndim == 1 and len(exs.idx) == len(exs.val)


def test_build_examples_holds_only_its_arrays():
    gen = bench_gen()
    records = tokenize(gen.corpus_text(gen.make_corpus(20_000, [3, 1])))
    vocab = build_vocabulary(records, min_count=5)
    spec = ContextSpec(mode="single", window=WindowSpec(left=2, right=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exs = build_examples(records, vocab, spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = exs.target.nbytes + exs.indptr.nbytes + exs.idx.nbytes + exs.val.nbytes
    assert len(exs) > 30_000
    assert held <= 2 * arrays


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_aggregate_matches_dict_oracle(mode):
    records = random_corpus(np.random.default_rng(41), n_records=30, max_len=8, alphabet="abcde")
    vocab = build_vocabulary(records)
    window = WindowSpec(left=2, right=1, positional_weight="reciprocal")
    exs = build_examples(records, vocab, ContextSpec(mode=mode, window=window))
    agg = _aggregate(exs)
    z_count, t_count = {}, {}
    for ex in exs:
        key = tuple(zip(ex.idx.tolist(), ex.val.tolist()))
        z_count[key] = z_count.get(key, 0) + 1
        t_count[key, ex.target] = t_count.get((key, ex.target), 0) + 1
    # a group's input is padded with (0, 0.0); a stored input value is never 0
    groups = [
        tuple((i, v) for i, v in zip(idx, val) if v != 0.0)
        for idx, val in zip(agg.z_idx.tolist(), agg.z_val.tolist())
    ]
    assert len(set(groups)) == len(groups) < len(exs)
    assert dict(zip(groups, agg.z_count.tolist())) == z_count
    got = zip(agg.t_group.tolist(), agg.t_row.tolist(), agg.t_count.tolist())
    assert {(groups[g], r): c for g, r, c in got} == t_count
    assert len(agg.t_group) == len(t_count) and (np.diff(agg.t_group) >= 0).all()
    assert agg.z_count.sum() == agg.n_examples == len(exs)


class TestConfigAndHelpers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="ranking")
        with pytest.raises(ValueError):
            TrainConfig(noise="zipf")
        with pytest.raises(ValueError):
            TrainConfig(k_neg=0)
        with pytest.raises(ValueError):
            TrainConfig(l1=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    def test_softmax_ignores_k_neg_floor(self):
        cfg = TrainConfig(objective="softmax", k_neg=0)
        assert cfg.k_neg == 0

    def test_noise_distribution(self):
        records = [["a", "a", "a", "b"]]
        vocab = build_vocabulary(records)
        uni = noise_distribution(vocab, "unigram")
        assert uni[vocab.id_of("a")] == pytest.approx(0.75)
        assert uni[vocab.id_of("b")] == pytest.approx(0.25)
        flat = noise_distribution(vocab, "uniform")
        assert np.allclose(flat, 0.5)

    def test_soft_threshold(self):
        x = np.array([3.0, -3.0, 0.4, -0.4, 0.0])
        out = soft_threshold(x, 0.5)
        assert np.allclose(out, [2.5, -2.5, 0.0, 0.0, 0.0])
        assert np.allclose(soft_threshold(x, 0.0), x)


def numeric_grad(f, W: np.ndarray, h: float = 1e-6) -> np.ndarray:
    G = np.zeros_like(W)
    for pos in np.ndindex(W.shape):
        Wp = W.copy()
        Wp[pos] += h
        Wm = W.copy()
        Wm[pos] -= h
        G[pos] = (f(Wp) - f(Wm)) / (2 * h)
    return G


class TestGradients:
    def test_softmax_gradient_matches_numeric(self, rng):
        W = rng.normal(size=(4, 5))
        ex = Example(target=2, idx=np.array([0, 3], dtype=np.int64), val=np.array([1.0, 2.0]))
        loss, grad = softmax_loss_grad(W, ex)
        assert loss > 0
        num = numeric_grad(lambda M: softmax_loss_grad(M, ex)[0], W)
        assert np.abs(grad - num).max() < 1e-6

    def test_negative_sampling_gradient_matches_numeric(self, rng):
        W = rng.normal(size=(4, 5))
        ex = Example(target=1, idx=np.array([2, 4], dtype=np.int64), val=np.array([0.5, 1.0]))
        negatives = [0, 3, 3]
        loss, grad = negative_sampling_loss_grad(W, ex, negatives)
        assert loss > 0
        num = numeric_grad(
            lambda M: negative_sampling_loss_grad(M, ex, negatives)[0], W
        )
        assert np.abs(grad - num).max() < 1e-6

    def test_negative_sampling_repeated_negative_accumulates(self, rng):
        W = rng.normal(size=(3, 3))
        ex = Example(target=0, idx=np.array([1], dtype=np.int64), val=np.array([1.0]))
        _, g2 = negative_sampling_loss_grad(W, ex, [2, 2])
        _, g1 = negative_sampling_loss_grad(W, ex, [2])
        target_rows = g2[0] - g1[0]
        assert np.allclose(target_rows, 0.0)
        assert np.allclose(g2[2], 2 * g1[2])

    def test_full_batch_smooth_gradient_matches_numeric(self, rng):
        records = [["a", "b", "c", "a", "b"]]
        vocab = build_vocabulary(records)
        exs = build_examples(records, vocab, spec11("bag"))
        agg = _aggregate(exs)
        noise = noise_distribution(vocab, "unigram")
        for objective in ("softmax", "negative_sampling"):
            cfg = TrainConfig(objective=objective, k_neg=3)
            W = rng.normal(size=(3, 3)) * 0.3
            _, G = full_batch_smooth(W, agg, cfg, noise)
            num = numeric_grad(lambda M: full_batch_smooth(M, agg, cfg, noise)[0], W)
            assert np.abs(G - num).max() < 1e-6

    @pytest.mark.parametrize("mode", ["single", "positional"])
    def test_full_batch_equals_mean_of_per_example_losses(self, mode):
        rng = np.random.default_rng(77)
        words = [f"w{i}" for i in range(50)]
        records = [[words[int(i)] for i in rng.integers(0, 50, size=12)] for _ in range(25)]
        vocab = build_vocabulary(records)
        spec = spec11(mode)
        exs = build_examples(records, vocab, spec)
        agg = _aggregate(exs)
        assert len(agg.z_count) > BLOCK_GROUPS
        noise = noise_distribution(vocab, "unigram")
        W = rng.normal(size=(len(vocab), context_dim(spec, len(vocab)))) * 0.5
        k = 3

        def softplus(t):
            return np.logaddexp(0.0, t)

        def sigmoid(t):
            return 0.5 * (1.0 + np.tanh(0.5 * t))

        want = {"softmax": [0.0, np.zeros_like(W)], "negative_sampling": [0.0, np.zeros_like(W)]}
        for ex in exs:
            loss, grad = softmax_loss_grad(W, ex)
            want["softmax"][0] += loss / len(exs)
            want["softmax"][1] += grad / len(exs)
            s = W[:, ex.idx] @ ex.val
            coef = k * noise * sigmoid(s)
            coef[ex.target] -= sigmoid(-s[ex.target])
            want["negative_sampling"][0] += (
                softplus(-s[ex.target]) + k * noise @ softplus(s)
            ) / len(exs)
            want["negative_sampling"][1][:, ex.idx] += np.outer(coef, ex.val) / len(exs)
        for objective, (loss, grad) in want.items():
            got_loss, got_grad = full_batch_smooth(
                W, agg, TrainConfig(objective=objective, k_neg=k), noise
            )
            assert got_loss == pytest.approx(loss, rel=1e-12)
            np.testing.assert_allclose(got_grad, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())

    @pytest.mark.parametrize("objective", ["softmax", "negative_sampling"])
    def test_one_sgd_step_is_prox_of_public_gradient(self, objective):
        vocab = build_vocabulary([["a", "b", "c", "d", "a", "b", "a"]])
        records = [["c", "a"]]
        spec = ContextSpec(mode="bag", window=WindowSpec(left=1, right=0))
        (ex,) = build_examples(records, vocab, spec)
        cfg = TrainConfig(objective=objective, k_neg=4, l1=0.05, step_initial=0.5, seed=3)
        rng = np.random.default_rng(cfg.seed)
        rng.permutation(1)
        W0 = np.zeros((len(vocab), len(vocab)))
        if objective == "softmax":
            _, grad = softmax_loss_grad(W0, ex)
        else:
            cdf = np.cumsum(noise_distribution(vocab, cfg.noise))
            cdf[-1] = 1.0
            draws = np.searchsorted(cdf, rng.random(cfg.k_neg), side="right")
            _, grad = negative_sampling_loss_grad(W0, ex, draws)
        want = soft_threshold(W0 - cfg.step_initial * grad, cfg.step_initial * cfg.l1)
        got = train(records, vocab, spec, cfg).vectors
        assert np.count_nonzero(want) > 0
        np.testing.assert_array_equal(got, want)

    def test_softmax_gradient_above_2000_words(self):
        # uniform scores over V words: loss log V, gradient 1/V at every row, 1/V - 1 at the target
        W = np.zeros((2001, 2))
        ex = Example(target=3, idx=np.array([0], dtype=np.int64), val=np.array([1.0]))
        loss, grad = softmax_loss_grad(W, ex)
        assert loss == pytest.approx(np.log(2001.0), rel=1e-15)
        want = np.zeros_like(W)
        want[:, 0] = 1.0 / 2001.0
        want[3, 0] -= 1.0
        np.testing.assert_allclose(grad, want, rtol=1e-15, atol=1e-18)


class TestFullBatchTraining:
    def test_objective_descends_monotonically(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        spec = spec11("bag")
        exs = build_examples(records, vocab, spec)
        noise = noise_distribution(vocab, "unigram")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, l1=0.01,
            full_batch=True, step_initial=0.5, epochs=0,
        )
        values = []
        for epochs in range(0, 26, 5):
            cfg_e = TrainConfig(
                objective="negative_sampling", k_neg=2, l1=0.01,
                full_batch=True, step_initial=0.5, epochs=epochs,
            )
            emb = train(records, vocab, spec, cfg_e)
            values.append(corpus_objective(emb.vectors, exs, cfg, noise))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_within_block_weights_positive_cross_block_negative(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        spec = spec11("bag")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, full_batch=True,
            step_initial=0.5, epochs=400,
        )
        emb = train(records, vocab, spec, cfg)
        red, blue, hot = vocab.id_of("red"), vocab.id_of("blue"), vocab.id_of("hot")
        assert emb.vectors[red, blue] > 0.2
        assert emb.vectors[blue, red] > 0.2
        assert int(np.argmax(emb.vectors[red])) == blue
        assert emb.vectors[red, hot] < 0.0
        assert emb.vectors[red, red] < 0.0

    def test_heavy_l1_zeroes_everything(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, l1=1000.0,
            full_batch=True, step_initial=0.1, epochs=20,
        )
        emb = train(records, vocab, spec11("bag"), cfg)
        assert np.allclose(emb.vectors, 0.0)

    def test_stationary_point_matches_pairwise_logistic_solution(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        spec = spec11("single")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, noise="unigram",
            full_batch=True, step_initial=1.0, epochs=4000,
        )
        emb = train(records, vocab, spec, cfg)
        stats = count_cooccurrences(records, vocab, spec.window)
        noise = noise_distribution(vocab, "unigram")
        for (w, c), n_wc in stats.pairs.items():
            sol = solve_pair(
                "logistic",
                n_wc,
                float(noise[w]),
                float(stats.col_marginal[c]),
                1.0,
                cfg.k_neg,
            )
            assert emb.vectors[w, c] == pytest.approx(sol.x_star, abs=1e-3)

    def test_corpus_without_contexts_keeps_zero_weights(self):
        records = [["a"], ["b"], ["a"]]
        vocab = build_vocabulary(records)
        cfg = TrainConfig(full_batch=True, epochs=3)
        emb = train(records, vocab, spec11("bag"), cfg)
        assert np.array_equal(emb.vectors, np.zeros((2, 2)))

    def test_objective_without_examples_is_the_l1_term(self):
        W = np.array([[0.5, -1.0], [0.0, 2.0]])
        noise = np.full(2, 0.5)
        for objective in ("softmax", "negative_sampling"):
            cfg = TrainConfig(objective=objective, l1=0.25)
            assert corpus_objective(W, [], cfg, noise) == 0.25 * 3.5
            assert corpus_objective(np.zeros((2, 2)), [], cfg, noise) == 0.0

    def test_softmax_full_batch_descends(self):
        records = [["a", "b", "a", "c", "a", "b"]]
        vocab = build_vocabulary(records)
        spec = spec11("bag")
        exs = build_examples(records, vocab, spec)
        noise = noise_distribution(vocab, "unigram")
        probe = TrainConfig(objective="softmax", full_batch=True)
        vals = []
        for epochs in (0, 10, 40):
            cfg = TrainConfig(
                objective="softmax", full_batch=True, step_initial=0.3, epochs=epochs
            )
            emb = train(records, vocab, spec, cfg)
            vals.append(corpus_objective(emb.vectors, exs, probe, noise))
        assert vals[0] > vals[1] > vals[2]


class TestStochasticTraining:
    def test_seed_reproducibility(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        cfg = TrainConfig(objective="negative_sampling", k_neg=2, epochs=3, seed=7)
        a = train(records, vocab, spec11("bag"), cfg)
        b = train(records, vocab, spec11("bag"), cfg)
        assert np.array_equal(a.vectors, b.vectors)
        other = TrainConfig(objective="negative_sampling", k_neg=2, epochs=3, seed=8)
        c = train(records, vocab, spec11("bag"), other)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_stochastic_run_reduces_objective(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        spec = spec11("bag")
        exs = build_examples(records, vocab, spec)
        noise = noise_distribution(vocab, "unigram")
        probe = TrainConfig(objective="negative_sampling", k_neg=2)
        W0 = np.zeros((len(vocab), context_dim(spec, len(vocab))))
        before = corpus_objective(W0, exs, probe, noise)
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, epochs=10, step_initial=0.1, seed=0
        )
        emb = train(records, vocab, spec, cfg)
        after = corpus_objective(emb.vectors, exs, probe, noise)
        assert after < before

    @pytest.mark.parametrize(
        "objective, mode, l1",
        [("negative_sampling", "bag", 0.0), ("negative_sampling", "positional", 0.01),
         ("softmax", "bag", 0.01)],
    )
    def test_epoch_draws_match_the_per_example_loop(self, objective, mode, l1):
        records = TWO_BLOCK + [["red", "hot", "blue", "cold", "red"]] * 2
        vocab = build_vocabulary(records)
        cfg = TrainConfig(objective=objective, k_neg=3, l1=l1, epochs=2, step_initial=0.1, seed=7)
        emb = train(records, vocab, spec11(mode), cfg)
        assert np.any(emb.vectors != 0.0)
        assert np.array_equal(emb.vectors, sgd_per_example(records, vocab, spec11(mode), cfg))

    def test_zero_epochs_returns_zero_weights(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        cfg = TrainConfig(epochs=0)
        emb = train(records, vocab, spec11("positional"), cfg)
        assert emb.vectors.shape == (4, 8)
        assert np.allclose(emb.vectors, 0.0)
        assert emb.meta["mode"] == "positional"

    def test_softmax_trains_above_2000_words(self):
        records = [[f"w{i}" for i in range(2001)]]
        vocab = build_vocabulary(records)
        for full_batch in (False, True):
            cfg = TrainConfig(objective="softmax", epochs=1, full_batch=full_batch)
            emb = train(records, vocab, spec11("bag"), cfg)
            assert emb.vectors.shape == (2001, 2001)
            assert np.all(np.isfinite(emb.vectors)) and np.any(emb.vectors != 0.0)


class TestExplain:
    def test_orders_by_magnitude_and_drops_zeros(self):
        from coocvec import Embedding

        emb = Embedding(words=["a"], vectors=np.array([[0.1, -2.0, 0.0, 2.0]]))
        names = ["n0", "n1", "n2", "n3"]
        out = explain(emb, names, "a")
        assert out == [("n1", -2.0), ("n3", 2.0), ("n0", pytest.approx(0.1))]

    def test_top_n_truncates(self):
        from coocvec import Embedding

        emb = Embedding(words=["a"], vectors=np.array([[3.0, 2.0, 1.0]]))
        out = explain(emb, ["x", "y", "z"], "a", top_n=2)
        assert out == [("x", 3.0), ("y", 2.0)]

    def test_name_count_mismatch(self):
        from coocvec import Embedding

        emb = Embedding(words=["a"], vectors=np.array([[1.0, 2.0]]))
        with pytest.raises(DimensionMismatchError):
            explain(emb, ["only"], "a")

    def test_positional_names_round_trip_through_training(self):
        records = TWO_BLOCK
        vocab = build_vocabulary(records)
        spec = spec11("positional")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, full_batch=True,
            step_initial=0.5, epochs=200,
        )
        emb = train(records, vocab, spec, cfg)
        names = feature_names(spec, list(vocab.words))
        full = explain(emb, names, "red", top_n=len(names))
        positive = {name for name, weight in full if weight > 0}
        assert positive == {"-1:blue", "+1:blue"}
