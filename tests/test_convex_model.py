import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coocvec import (
    ContextSpec,
    DimensionMismatchError,
    DivergenceError,
    InvalidOptionError,
    TrainConfig,
    WindowSpec,
    build_examples,
    count_encoded,
    encode_text,
    explain,
    solve_pair,
    train,
)
from coocvec import convex_model
from coocvec.closed_form import _sigmoid
from coocvec.convex_model import (
    BLOCK_GROUPS,
    CONTEXT_MODES,
    Example,
    _aggregate,
    _kernel,
    context_dim,
    corpus_objective,
    feature_names,
    full_batch_smooth,
    noise_distribution,
    soft_threshold,
)
from helpers import bench_gen, encode_records, lookup_encoded, random_corpus
from oracles import (
    aggregate_by_unique,
    brute_examples,
    example_loss_grad,
    full_batch_train,
    sgd_per_example,
)


def spec11(mode: str) -> ContextSpec:
    return ContextSpec(mode=mode, window=WindowSpec(left=1, right=1))


TWO_BLOCK = [["red", "blue"] * 10, ["hot", "cold"] * 10] * 3
MIXED = TWO_BLOCK + [["red", "hot", "blue", "cold", "red"]] * 2


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal arrays down to the sign of every zero."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def uniform_corpus(n_words: int, n_tokens: int, seed: int = 0) -> list[list[str]]:
    """Uniformly drawn words in records of 20 tokens."""
    ids = np.random.default_rng(seed).integers(0, n_words, size=n_tokens)
    return [[f"w{i}" for i in ids[a : a + 20]] for a in range(0, n_tokens, 20)]


def traced_peak(run) -> tuple[object, int]:
    """run()'s result and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def contexts(record: list[str], spec: ContextSpec) -> list[tuple[str, dict[int, float]]]:
    """(target word, context input as a dict) of each example of a one-record corpus."""
    vocab, tokens = encode_records([record])
    return [
        (vocab.words[ex.target], dict(zip(ex.idx.tolist(), ex.val.tolist())))
        for ex in build_examples(tokens, vocab, spec)
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

    @pytest.mark.parametrize("window", [
        WindowSpec(subsample_threshold=1e-3),
        WindowSpec(subsample_threshold=1e-3, context_subsample=True),
        WindowSpec(context_subsample_threshold=0.5),
        WindowSpec(subsample_threshold=1e-3, stochastic_subsample=True),
    ])
    def test_subsampling_window_rejected(self, window):
        # no example reads a subsampling setting, so the model would train as without it
        with pytest.raises(InvalidOptionError):
            ContextSpec(window=window)

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
        vocab, tokens = encode_records([["a", "b", "a"]])
        exs = build_examples(tokens, vocab, spec11("single"))
        assert len(exs) == 4
        assert [e.target for e in exs] == [
            vocab.id_of("a"),
            vocab.id_of("b"),
            vocab.id_of("b"),
            vocab.id_of("a"),
        ]

    def test_build_examples_skips_oov(self):
        vocab, _ = encode_records([["a", "b", "a"], ["a", "a"]], min_count=3)
        assert "b" not in vocab.index
        exs = build_examples(lookup_encoded([["a", "b", "a"]], vocab), vocab, spec11("bag"))
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
    vocab, _ = encode_records(data + [["a", "a"]], min_count=2)
    spec = ContextSpec(mode=mode, window=WindowSpec(left, right, positional_weight=weighting))
    exs = build_examples(lookup_encoded(data, vocab), vocab, spec)
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
    vocab, tokens = encode_text(gen.corpus_text(gen.make_corpus(20_000, [3, 1])), min_count=5)
    spec = ContextSpec(mode="single", window=WindowSpec(left=2, right=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exs = build_examples(tokens, vocab, spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = exs.target.nbytes + exs.indptr.nbytes + exs.idx.nbytes + exs.val.nbytes
    assert len(exs) > 30_000
    assert held <= 2 * arrays


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_aggregate_matches_dict_oracle(mode):
    records = random_corpus(np.random.default_rng(41), n_records=30, max_len=8, alphabet="abcde")
    vocab, tokens = encode_records(records)
    window = WindowSpec(left=2, right=1, positional_weight="reciprocal")
    exs = build_examples(tokens, vocab, ContextSpec(mode=mode, window=window))
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
    for name, want in aggregate_by_unique(exs).items():  # the group order fixes the full batch's bits
        got = getattr(agg, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


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
        vocab, _ = encode_records([["a", "a", "a", "b"]])
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
        loss, grad, _ = example_loss_grad(W, ex)
        assert loss > 0
        num = numeric_grad(lambda M: example_loss_grad(M, ex)[0], W)
        assert np.abs(grad - num).max() < 1e-6

    def test_negative_sampling_gradient_matches_numeric(self, rng):
        W = rng.normal(size=(4, 5))
        ex = Example(target=1, idx=np.array([2, 4], dtype=np.int64), val=np.array([0.5, 1.0]))
        negatives = [0, 3, 3]
        loss, grad, _ = example_loss_grad(W, ex, negatives)
        assert loss > 0
        num = numeric_grad(lambda M: example_loss_grad(M, ex, negatives)[0], W)
        assert np.abs(grad - num).max() < 1e-6

    def test_negative_sampling_repeated_negative_accumulates(self, rng):
        W = rng.normal(size=(3, 3))
        ex = Example(target=0, idx=np.array([1], dtype=np.int64), val=np.array([1.0]))
        _, g2, _ = example_loss_grad(W, ex, [2, 2])
        _, g1, _ = example_loss_grad(W, ex, [2])
        target_rows = g2[0] - g1[0]
        assert np.allclose(target_rows, 0.0)
        assert np.allclose(g2[2], 2 * g1[2])

    @pytest.mark.parametrize("shape", [(7,), (7, 4)], ids=["sgd-column", "full-batch-block"])
    def test_negative_sampling_derivative_is_the_two_sigmoid_formula(self, rng, shape):
        S = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        S.flat[:4] = [0.0, -0.0, 800.0, -800.0]
        target = np.array([0, 1, 2, 3, 5])
        t_count = rng.integers(1, 4, size=len(target)).astype(float)
        neg_weight = rng.random(shape)
        _, dS = _kernel(S, 1.0, target, t_count, neg_weight, loss=False)
        want = neg_weight * _sigmoid(S)
        want.flat[target] -= t_count * _sigmoid(-S.flat[target])
        assert np.array_equal(dS.view(np.int64), want.view(np.int64))

    def test_full_batch_smooth_gradient_matches_numeric(self, rng):
        vocab, tokens = encode_records([["a", "b", "c", "a", "b"]])
        exs = build_examples(tokens, vocab, spec11("bag"))
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
        vocab, tokens = encode_records(records)
        spec = spec11(mode)
        exs = build_examples(tokens, vocab, spec)
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
            loss, grad, _ = example_loss_grad(W, ex)
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
    def test_one_sgd_step_is_prox_of_the_reference_gradient(self, objective):
        vocab, _ = encode_records([["a", "b", "c", "d", "a", "b", "a"]])
        tokens = lookup_encoded([["c", "a"]], vocab)
        spec = ContextSpec(mode="bag", window=WindowSpec(left=1, right=0))
        (ex,) = build_examples(tokens, vocab, spec)
        cfg = TrainConfig(objective=objective, k_neg=4, l1=0.05, step_initial=0.5, seed=3)
        rng = np.random.default_rng(cfg.seed)
        rng.permutation(1)
        W0 = np.zeros((len(vocab), len(vocab)))
        if objective == "softmax":
            _, grad, _ = example_loss_grad(W0, ex)
        else:
            cdf = np.cumsum(noise_distribution(vocab, cfg.noise))
            cdf[-1] = 1.0
            draws = np.searchsorted(cdf, rng.random(cfg.k_neg), side="right")
            _, grad, _ = example_loss_grad(W0, ex, draws)
        want = soft_threshold(W0 - cfg.step_initial * grad, cfg.step_initial * cfg.l1)
        got = train(tokens, vocab, spec, cfg).vectors
        assert np.count_nonzero(want) > 0
        np.testing.assert_array_equal(got, want)

    def test_softmax_gradient_above_2000_words(self):
        # uniform scores over V words: loss log V, gradient 1/V at every row, 1/V - 1 at the target
        W = np.zeros((2001, 2))
        ex = Example(target=3, idx=np.array([0], dtype=np.int64), val=np.array([1.0]))
        loss, grad, _ = example_loss_grad(W, ex)
        assert loss == pytest.approx(np.log(2001.0), rel=1e-15)
        want = np.zeros_like(W)
        want[:, 0] = 1.0 / 2001.0
        want[3, 0] -= 1.0
        np.testing.assert_allclose(grad, want, rtol=1e-15, atol=1e-18)


class TestFullBatchTraining:
    def test_objective_descends_monotonically(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        spec = spec11("bag")
        exs = build_examples(tokens, vocab, spec)
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
            emb = train(tokens, vocab, spec, cfg_e)
            values.append(corpus_objective(emb.vectors, exs, cfg, noise))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_within_block_weights_positive_cross_block_negative(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        spec = spec11("bag")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, full_batch=True,
            step_initial=0.5, epochs=400,
        )
        emb = train(tokens, vocab, spec, cfg)
        red, blue, hot = vocab.id_of("red"), vocab.id_of("blue"), vocab.id_of("hot")
        assert emb.vectors[red, blue] > 0.2
        assert emb.vectors[blue, red] > 0.2
        assert int(np.argmax(emb.vectors[red])) == blue
        assert emb.vectors[red, hot] < 0.0
        assert emb.vectors[red, red] < 0.0

    def test_heavy_l1_zeroes_everything(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, l1=1000.0,
            full_batch=True, step_initial=0.1, epochs=20,
        )
        emb = train(tokens, vocab, spec11("bag"), cfg)
        assert np.allclose(emb.vectors, 0.0)

    def test_stationary_point_matches_pairwise_logistic_solution(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        spec = spec11("single")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, noise="unigram",
            full_batch=True, step_initial=1.0, epochs=4000,
        )
        emb = train(tokens, vocab, spec, cfg)
        stats = count_encoded(tokens, vocab, spec.window)
        noise = noise_distribution(vocab, "unigram")
        counts = stats.counts
        for w, c, n_wc in zip(counts.i.tolist(), counts.j.tolist(), counts.v.tolist()):
            sol = solve_pair(
                "logistic",
                n_wc,
                float(noise[w]),
                float(stats.col_marginal[c]),
                1.0,
                cfg.k_neg,
            )
            assert emb.vectors[w, c] == pytest.approx(sol.x_star, abs=1e-3)

    @pytest.mark.parametrize("objective", ["negative_sampling", "softmax"])
    @pytest.mark.parametrize("mode", CONTEXT_MODES)
    def test_training_matches_the_smooth_gradient_loop(self, objective, mode):
        words = [f"w{i}" for i in range(40)]
        records = random_corpus(np.random.default_rng(8), n_records=30, max_len=10, alphabet=words)
        vocab, tokens = encode_records(records)
        spec = ContextSpec(mode=mode, window=WindowSpec(left=2, right=1, positional_weight="reciprocal"))
        assert len(_aggregate(build_examples(tokens, vocab, spec)).z_count) > BLOCK_GROUPS
        cfg = TrainConfig(objective=objective, k_neg=3, l1=0.002, epochs=4, full_batch=True, step_initial=0.5)
        got = train(tokens, vocab, spec, cfg).vectors
        assert 0 < np.count_nonzero(got) < got.size  # the L1 step zeroes some weights, not all
        assert_same_bits(got, full_batch_train(tokens, vocab, spec, cfg))

    def test_full_batch_holds_little_beyond_two_weight_arrays(self):
        # the gradient and the weights; the proximal step allocates no further V x m array
        vocab, tokens = encode_records(uniform_corpus(600, 12_000))
        cfg = TrainConfig(epochs=1, full_batch=True, step_initial=0.5, l1=1e-4)
        emb, peak = traced_peak(lambda: train(tokens, vocab, spec11("bag"), cfg))
        assert emb.vectors.shape == (600, 600)
        assert peak <= 3.5 * emb.vectors.nbytes

    def test_corpus_without_contexts_keeps_zero_weights(self):
        vocab, tokens = encode_records([["a"], ["b"], ["a"]])
        cfg = TrainConfig(full_batch=True, epochs=3)
        emb = train(tokens, vocab, spec11("bag"), cfg)
        assert np.array_equal(emb.vectors, np.zeros((2, 2)))

    def test_objective_without_examples_is_the_l1_term(self):
        W = np.array([[0.5, -1.0], [0.0, 2.0]])
        noise = np.full(2, 0.5)
        for objective in ("softmax", "negative_sampling"):
            cfg = TrainConfig(objective=objective, l1=0.25)
            assert corpus_objective(W, [], cfg, noise) == 0.25 * 3.5
            assert corpus_objective(np.zeros((2, 2)), [], cfg, noise) == 0.0

    def test_softmax_full_batch_descends(self):
        vocab, tokens = encode_records([["a", "b", "a", "c", "a", "b"]])
        spec = spec11("bag")
        exs = build_examples(tokens, vocab, spec)
        noise = noise_distribution(vocab, "unigram")
        probe = TrainConfig(objective="softmax", full_batch=True)
        vals = []
        for epochs in (0, 10, 40):
            cfg = TrainConfig(
                objective="softmax", full_batch=True, step_initial=0.3, epochs=epochs
            )
            emb = train(tokens, vocab, spec, cfg)
            vals.append(corpus_objective(emb.vectors, exs, probe, noise))
        assert vals[0] > vals[1] > vals[2]


class TestStochasticTraining:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("objective", ["negative_sampling", "softmax"])
    def test_step_past_the_float_range_is_divergence_without_a_warning(self, objective):
        vocab, tokens = encode_records(TWO_BLOCK)
        cfg = TrainConfig(objective=objective, k_neg=2, epochs=1, step_initial=1e308)
        with pytest.raises(DivergenceError, match=r"float range at step 1e\+308; .*--step"):
            train(tokens, vocab, spec11("bag"), cfg)

    def test_full_batch_weights_pass_the_same_end_check(self, monkeypatch):
        vocab, tokens = encode_records(TWO_BLOCK)
        prox_step = convex_model._prox_step
        monkeypatch.setattr(convex_model, "_prox_step", lambda *a: prox_step(*a) * np.nan)
        cfg = TrainConfig(epochs=1, full_batch=True)
        with pytest.raises(DivergenceError, match="float range"):
            train(tokens, vocab, spec11("bag"), cfg)

    def test_seed_reproducibility(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        cfg = TrainConfig(objective="negative_sampling", k_neg=2, epochs=3, seed=7)
        a = train(tokens, vocab, spec11("bag"), cfg)
        b = train(tokens, vocab, spec11("bag"), cfg)
        assert np.array_equal(a.vectors, b.vectors)
        other = TrainConfig(objective="negative_sampling", k_neg=2, epochs=3, seed=8)
        c = train(tokens, vocab, spec11("bag"), other)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_stochastic_run_reduces_objective(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        spec = spec11("bag")
        exs = build_examples(tokens, vocab, spec)
        noise = noise_distribution(vocab, "unigram")
        probe = TrainConfig(objective="negative_sampling", k_neg=2)
        W0 = np.zeros((len(vocab), context_dim(spec, len(vocab))))
        before = corpus_objective(W0, exs, probe, noise)
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, epochs=10, step_initial=0.1, seed=0
        )
        emb = train(tokens, vocab, spec, cfg)
        after = corpus_objective(emb.vectors, exs, probe, noise)
        assert after < before

    @pytest.mark.parametrize(
        "objective, mode, l1",
        [("negative_sampling", "bag", 0.0), ("negative_sampling", "positional", 0.01),
         ("softmax", "bag", 0.01)],
    )
    def test_epoch_draws_match_the_per_example_loop(self, objective, mode, l1):
        vocab, tokens = encode_records(MIXED)
        cfg = TrainConfig(objective=objective, k_neg=3, l1=l1, epochs=2, step_initial=0.1, seed=7)
        emb = train(tokens, vocab, spec11(mode), cfg)
        assert np.any(emb.vectors != 0.0)
        assert np.array_equal(emb.vectors, sgd_per_example(tokens, vocab, spec11(mode), cfg))

    @pytest.mark.parametrize("objective", ["negative_sampling", "softmax"])
    @pytest.mark.parametrize("case", ["k_neg above V", "single, reciprocal, 3 epochs"])
    def test_edge_cases_match_the_per_example_loop(self, objective, case):
        vocab, tokens = encode_records(MIXED)
        if case == "k_neg above V":  # every step repeats draws and draws its own target
            spec = spec11("bag")
            cfg = TrainConfig(objective=objective, k_neg=9, l1=0.01, epochs=2, step_initial=0.1, seed=5)
            assert cfg.k_neg > 2 * len(vocab)
        else:
            spec = ContextSpec(mode="single", window=WindowSpec(2, 1, positional_weight="reciprocal"))
            cfg = TrainConfig(objective=objective, k_neg=3, l1=0.01, epochs=3, step_initial=0.1, seed=11)
        got = train(tokens, vocab, spec, cfg).vectors
        assert np.any(got != 0.0)
        assert_same_bits(got, sgd_per_example(tokens, vocab, spec, cfg))

    @pytest.mark.parametrize("objective", ["negative_sampling", "softmax"])
    @pytest.mark.parametrize("n_examples", [7, 8, 9])
    def test_block_edges_match_the_per_example_loop(self, monkeypatch, objective, n_examples):
        monkeypatch.setattr(convex_model, "BLOCK_STEPS", 8)
        vocab, tokens = encode_records([(["red", "blue", "hot", "cold"] * 3)[: n_examples + 1]])
        spec = ContextSpec(mode="single", window=WindowSpec(left=1, right=0))
        assert len(build_examples(tokens, vocab, spec)) == n_examples
        cfg = TrainConfig(objective=objective, k_neg=3, l1=0.01, epochs=2, step_initial=0.1, seed=2)
        got = train(tokens, vocab, spec, cfg).vectors
        assert np.any(got != 0.0)
        assert_same_bits(got, sgd_per_example(tokens, vocab, spec, cfg))

    def test_epoch_memory_does_not_grow_with_the_corpus(self, monkeypatch):
        spec = spec11("bag")
        cfg = TrainConfig(k_neg=10, epochs=1, l1=1e-4)
        held = {}
        for n_tokens in (2_000, 8_000):
            vocab, tokens = encode_records(uniform_corpus(50, n_tokens))
            exs = build_examples(tokens, vocab, spec)  # built outside the trace
            monkeypatch.setattr(convex_model, "build_examples", lambda *args, exs=exs: exs)
            emb, peak = traced_peak(lambda: train(tokens, vocab, spec, cfg))
            held[len(exs)] = peak - emb.vectors.nbytes
        (n, small), (n4, large) = held.items()
        assert n4 == 4 * n
        # only the epoch's shuffled order (8 bytes per example) grows; the draw
        # and row tables are BLOCK_STEPS x (k_neg + 1) at any corpus size
        assert large - small <= 16 * (n4 - n)

    def test_zero_epochs_returns_zero_weights(self):
        vocab, tokens = encode_records(TWO_BLOCK)
        cfg = TrainConfig(epochs=0)
        emb = train(tokens, vocab, spec11("positional"), cfg)
        assert emb.vectors.shape == (4, 8)
        assert np.allclose(emb.vectors, 0.0)
        assert emb.meta["mode"] == "positional"

    def test_softmax_trains_above_2000_words(self):
        vocab, tokens = encode_records([[f"w{i}" for i in range(2001)]])
        for full_batch in (False, True):
            cfg = TrainConfig(objective="softmax", epochs=1, full_batch=full_batch)
            emb = train(tokens, vocab, spec11("bag"), cfg)
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
        vocab, tokens = encode_records(TWO_BLOCK)
        spec = spec11("positional")
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, full_batch=True,
            step_initial=0.5, epochs=200,
        )
        emb = train(tokens, vocab, spec, cfg)
        names = feature_names(spec, list(vocab.words))
        full = explain(emb, names, "red", top_n=len(names))
        positive = {name for name, weight in full if weight > 0}
        assert positive == {"-1:blue", "+1:blue"}
