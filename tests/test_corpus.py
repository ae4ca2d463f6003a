import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    CooccurrenceStats,
    DimensionMismatchError,
    EmptyVocabularyError,
    InvalidOptionError,
    WindowSpec,
    build_vocabulary,
    check_symmetry,
    count_cooccurrences,
    tokenize,
)
from helpers import assert_marginals_match_counts
from oracles import brute_count_dense

ABAB = [["a", "b", "a", "b"]]


def test_tokenize_splits_records_and_drops_blank_lines():
    assert tokenize("a b\n\n c  d \n") == [["a", "b"], ["c", "d"]]


class TestVocabulary:
    def test_counts_and_lexicographic_tie_break(self):
        vocab = build_vocabulary(ABAB, min_count=1)
        assert vocab.words == ["a", "b"]
        assert vocab.index == {"a": 0, "b": 1}
        assert vocab.freq.tolist() == [2, 2]
        assert vocab.total_tokens == 4

    def test_min_count_filters_and_total_counts_survivors(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
        assert vocab.words == ["a"]
        assert vocab.total_tokens == 2

    def test_empty_stream_raises(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([], min_count=1)
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([["a"]], min_count=2)

    def test_descending_frequency_order(self):
        vocab = build_vocabulary([["c", "c", "c", "a", "a", "b"]])
        assert vocab.words == ["c", "a", "b"]
        assert vocab.freq.tolist() == [3, 2, 1]

    def test_index_bijection_and_freq_sum(self):
        vocab = build_vocabulary([["x", "y", "x", "z", "z", "z"]])
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        assert int(vocab.freq.sum()) == vocab.total_tokens


class TestWindowSpec:
    def test_offsets_skip_zero(self):
        assert WindowSpec(left=2, right=1).offsets() == [-2, -1, 1]

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(left=0, right=0)

    def test_reciprocal_positional_weight(self):
        win = WindowSpec(left=2, right=2, positional_weight="reciprocal")
        assert win.positional(-2) == 0.5
        assert win.positional(1) == 1.0

    def test_symmetric_flag(self):
        assert WindowSpec(left=2, right=2).symmetric()
        assert not WindowSpec(left=1, right=0).symmetric()
        assert WindowSpec(left=1, right=1, positional_weight="reciprocal").symmetric()
        lopsided = WindowSpec(left=1, right=1, subsample_threshold=0.1)
        assert not lopsided.symmetric()  # targets down-weighted, contexts not
        both = WindowSpec(left=1, right=1, subsample_threshold=0.1, context_subsample=True)
        assert both.symmetric()


class TestCounting:
    def test_symmetric_window_hand_enumeration(self, abab_stats):
        assert abab_stats.count(0, 1) == 3.0
        assert abab_stats.count(1, 0) == 3.0
        assert abab_stats.count(0, 0) == 0.0
        assert abab_stats.row_marginal.tolist() == [3.0, 3.0]
        assert abab_stats.col_marginal.tolist() == [3.0, 3.0]
        assert abab_stats.total == 6.0

    def test_left_window_hand_enumeration(self, abab_left_stats):
        assert abab_left_stats.count(0, 1) == 1.0
        assert abab_left_stats.count(1, 0) == 2.0
        assert abab_left_stats.total == 3.0

    def test_single_token_record_has_no_pairs(self):
        vocab = build_vocabulary([["a"]])
        stats = count_cooccurrences([["a"]], vocab, WindowSpec(left=1, right=1))
        assert stats.pairs == {}
        assert stats.total == 0.0

    def test_oov_tokens_removed_before_windowing(self):
        # b is filtered by min_count, so the stream becomes a c a c a
        records = [["a", "b", "c", "a", "c", "a"]]
        vocab = build_vocabulary(records, min_count=2)
        assert "b" not in vocab
        stats = count_cooccurrences(records, vocab, WindowSpec(left=1, right=1))
        a, c = vocab.id_of("a"), vocab.id_of("c")
        assert stats.count(a, c) == 4.0
        assert stats.count(c, a) == 4.0
        assert stats.total == 8.0

    def test_windows_do_not_span_records(self):
        vocab = build_vocabulary([["a"], ["b"]])
        stats = count_cooccurrences([["a"], ["b"]], vocab, WindowSpec(left=2, right=2))
        assert stats.pairs == {}

    def test_reciprocal_weight_halves_distance_two(self):
        records = [["a", "b", "c"]]
        vocab = build_vocabulary(records)
        stats = count_cooccurrences(
            records, vocab, WindowSpec(left=2, right=2, positional_weight="reciprocal")
        )
        a, c = vocab.id_of("a"), vocab.id_of("c")
        assert stats.count(a, c) == 0.5
        assert stats.count(c, a) == 0.5

    def test_matches_brute_force_on_random_corpus(self, rng):
        records = [
            [str(int(rng.integers(0, 5))) for _ in range(int(rng.integers(1, 10)))]
            for _ in range(15)
        ]
        vocab = build_vocabulary(records)
        for left, right, reciprocal in ((2, 2, False), (1, 3, False), (2, 2, True)):
            win = WindowSpec(
                left=left,
                right=right,
                positional_weight="reciprocal" if reciprocal else "constant",
            )
            stats = count_cooccurrences(records, vocab, win)
            ids = [[vocab.id_of(t) for t in r] for r in records]
            dense = brute_count_dense(ids, len(vocab), left, right, reciprocal)
            assert np.allclose(stats.to_dense(), dense)

    def test_deterministic_downsampling_weights(self):
        records = [["a"] * 8 + ["b", "b"]]
        vocab = build_vocabulary(records)
        tau = 0.16
        win = WindowSpec(left=1, right=1, subsample_threshold=tau)
        stats = count_cooccurrences(records, vocab, win)
        plain = count_cooccurrences(records, vocab, WindowSpec(left=1, right=1))
        a = vocab.id_of("a")
        b = vocab.id_of("b")
        w_a = math.sqrt(tau / 0.8)
        w_b = math.sqrt(tau / 0.2)
        # only targets are down-weighted, by their own frequency weight
        assert stats.count(a, a) == pytest.approx(plain.count(a, a) * w_a, rel=1e-12)
        assert stats.count(a, b) == pytest.approx(plain.count(a, b) * w_a, rel=1e-12)
        assert stats.count(b, a) == pytest.approx(plain.count(b, a) * w_b, rel=1e-12)

    def test_rare_word_weight_clamped_to_one(self):
        records = [["a"] * 9 + ["b"]]
        vocab = build_vocabulary(records)
        # f_rel(b) = 0.1 < tau = 0.5, so b keeps weight 1 as a target
        win = WindowSpec(left=1, right=1, subsample_threshold=0.5)
        stats = count_cooccurrences(records, vocab, win)
        plain = count_cooccurrences(records, vocab, WindowSpec(left=1, right=1))
        b = vocab.id_of("b")
        assert stats.count(b, vocab.id_of("a")) == plain.count(b, vocab.id_of("a"))

    def test_context_subsample_uses_own_threshold(self):
        records = [["a"] * 8 + ["b", "b"]]
        vocab = build_vocabulary(records)
        win = WindowSpec(
            left=1,
            right=1,
            subsample_threshold=0.2,
            context_subsample=True,
            context_subsample_threshold=0.05,
        )
        stats = count_cooccurrences(records, vocab, win)
        a = vocab.id_of("a")
        w_t = min(1.0, math.sqrt(0.2 / 0.8))
        w_c = min(1.0, math.sqrt(0.05 / 0.8))
        plain = count_cooccurrences(records, vocab, WindowSpec(left=1, right=1))
        assert stats.count(a, a) == pytest.approx(plain.count(a, a) * w_t * w_c, rel=1e-12)

    def test_stochastic_subsample_is_seeded_and_symmetric(self):
        rng = np.random.default_rng(7)
        records = [
            ["a" if rng.random() < 0.7 else "b" for _ in range(30)] for _ in range(10)
        ]
        vocab = build_vocabulary(records)
        win = WindowSpec(
            left=2, right=2, subsample_threshold=0.05, stochastic_subsample=True
        )
        s1 = count_cooccurrences(records, vocab, win, seed=3)
        s2 = count_cooccurrences(records, vocab, win, seed=3)
        s3 = count_cooccurrences(records, vocab, win, seed=4)
        assert s1.pairs == s2.pairs
        assert s1.pairs != s3.pairs  # a different seed drops different tokens
        ok, worst = check_symmetry(s1)
        assert ok and worst == 0.0
        assert win.symmetric()

    def test_stochastic_subsample_reduces_total(self):
        records = [["a", "b"] * 50]
        vocab = build_vocabulary(records)
        win = WindowSpec(left=1, right=1, subsample_threshold=0.01, stochastic_subsample=True)
        stats = count_cooccurrences(records, vocab, win, seed=0)
        plain = count_cooccurrences(records, vocab, WindowSpec(left=1, right=1))
        assert stats.total < plain.total


    @pytest.mark.parametrize("seed, lead", [(3, 0), (3, 7), (11, 2)])
    def test_stochastic_drops_follow_per_record_draws(self, seed, lead):
        # all-OOV ("x", "y q") and empty records, the lead ones too, still take up a record index
        records = [[]] * lead + [
            ["a", "b", "a", "c", "a"], ["x"], [], ["b", "a", "a", "b", "c", "a", "a"],
            ["y", "q"], ["a", "b", "c", "a", "b", "a", "a", "b"], ["c", "a", "b", "a"],
        ]
        vocab = build_vocabulary(records, min_count=2)
        tau = 0.05
        win = WindowSpec(left=2, right=1, positional_weight="reciprocal",
                         subsample_threshold=tau, stochastic_subsample=True)
        kept = []
        for p, record in enumerate(records):
            ids = [vocab.id_of(t) for t in record if t in vocab]
            draws = np.random.default_rng([seed, p]).random(len(ids))
            keep = [min(1.0, math.sqrt(tau / vocab.relative_frequency(w))) for w in ids]
            kept.append([w for w, u, k in zip(ids, draws, keep) if u < k])
        assert 0 < sum(map(len, kept)) < vocab.total_tokens
        want = brute_count_dense(kept, len(vocab), 2, 1, reciprocal=True)
        got = count_cooccurrences(records, vocab, win, seed=seed)
        np.testing.assert_array_equal(got.to_dense() != 0, want != 0)
        np.testing.assert_allclose(got.to_dense(), want, rtol=1e-12)


class TestStatsInvariants:
    def test_from_pairs_drops_zeros_and_checks_bounds(self):
        stats = CooccurrenceStats.from_pairs({(0, 1): 2.0, (1, 0): 0.0}, 2)
        assert (1, 0) not in stats.pairs
        with pytest.raises(DimensionMismatchError):
            CooccurrenceStats.from_pairs({(0, 5): 1.0}, 2)

    def test_counted_marginals_match_stored_pairs(self, abab_stats):
        assert_marginals_match_counts(abab_stats)


class TestSharding:
    def test_shard_merge_equals_whole_exactly(self, rng):
        records = [
            [str(int(rng.integers(0, 6))) for _ in range(int(rng.integers(1, 9)))]
            for _ in range(23)
        ]
        vocab = build_vocabulary(records)
        win = WindowSpec(left=2, right=2)
        whole = count_cooccurrences(records, vocab, win)
        for shards in (2, 3, 7):
            sharded = count_cooccurrences(records, vocab, win, shards=shards)
            assert sharded.pairs == whole.pairs
            assert sharded.total == whole.total

    def test_single_shard_is_plain_counting(self, rng):
        records = [["a", "b", "c"], ["b", "a"]]
        vocab = build_vocabulary(records)
        win = WindowSpec(left=1, right=1)
        assert count_cooccurrences(records, vocab, win, shards=1).pairs == count_cooccurrences(
            records, vocab, win
        ).pairs


    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_stochastic_shards_drop_what_the_whole_drops(self, shards):
        rng = np.random.default_rng(5)
        records = [
            [str(int(t)) for t in rng.integers(0, 8, size=int(rng.integers(2, 12)))]
            for _ in range(30)
        ]
        vocab = build_vocabulary(records)
        win = WindowSpec(left=2, right=2, subsample_threshold=0.05, stochastic_subsample=True)
        whole = count_cooccurrences(records, vocab, win, seed=3)
        sharded = count_cooccurrences(records, vocab, win, seed=3, shards=shards)
        assert whole.total < count_cooccurrences(records, vocab, WindowSpec(2, 2)).total
        assert np.array_equal(sharded.counts.i, whole.counts.i)
        assert np.array_equal(sharded.counts.j, whole.counts.j)
        np.testing.assert_allclose(sharded.counts.v, whole.counts.v, rtol=1e-12)


    @pytest.mark.parametrize("shards", [2, 3, 4, 5])
    def test_shard_values_are_chunk_sums_in_chunk_order(self, rng, shards):
        records = [
            [str(int(t)) for t in rng.zipf(1.6, size=int(rng.integers(1, 15))) % 12]
            for _ in range(29)
        ]
        vocab = build_vocabulary(records)
        win = WindowSpec(left=3, right=2, positional_weight="reciprocal",
                         subsample_threshold=0.02, context_subsample=True)
        chunk = -(-len(records) // shards)
        want = {}
        for start in range(0, len(records), chunk):
            alone = count_cooccurrences(records[start : start + chunk], vocab, win)
            for pair, v in alone.pairs.items():
                want[pair] = want.get(pair, 0.0) + v
        got = count_cooccurrences(records, vocab, win, shards=shards)
        assert not np.all(got.counts.v == np.round(got.counts.v))
        assert got.pairs == want
        c, n = got.counts, len(vocab)
        row = np.bincount(c.i, weights=c.v, minlength=n)
        np.testing.assert_array_equal(got.row_marginal, row)
        np.testing.assert_array_equal(got.col_marginal, np.bincount(c.j, weights=c.v, minlength=n))
        assert got.total == float(row.sum())

    def test_shard_count_below_one_is_invalid(self):
        with pytest.raises(InvalidOptionError):
            count_cooccurrences(ABAB, build_vocabulary(ABAB), WindowSpec(1, 1), shards=0)


class TestSymmetryCheck:
    def test_symmetric_and_asymmetric_examples(self, abab_stats, abab_left_stats):
        ok, worst = check_symmetry(abab_stats)
        assert ok and worst == 0.0
        ok, worst = check_symmetry(abab_left_stats)
        assert not ok
        assert worst == 1.0  # |#(a,b) - #(b,a)| = |1 - 2|

    def test_empty_stats_vacuously_symmetric(self):
        stats = CooccurrenceStats.from_pairs({}, 3)
        ok, worst = check_symmetry(stats)
        assert ok and worst == 0.0


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=10), min_size=1, max_size=8
    ),
    left=st.integers(min_value=1, max_value=3),
)
def test_property_symmetric_windows_give_symmetric_stats(data, left):
    vocab = build_vocabulary(data)
    win = WindowSpec(left=left, right=left)
    stats = count_cooccurrences(data, vocab, win)
    ok, worst = check_symmetry(stats)
    assert ok, f"violation {worst}"
    assert_marginals_match_counts(stats)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=8), min_size=2, max_size=10
    ),
    shards=st.integers(min_value=2, max_value=5),
)
def test_property_shard_merge_is_exact(data, shards):
    vocab = build_vocabulary(data)
    win = WindowSpec(left=1, right=2)
    whole = count_cooccurrences(data, vocab, win)
    sharded = count_cooccurrences(data, vocab, win, shards=shards)
    assert whole.pairs == sharded.pairs


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.sampled_from("abc"), min_size=2, max_size=9), min_size=1, max_size=6
    )
)
def test_property_total_counts_in_window_pairs(data):
    """Without down-sampling, total is the P3-weighted number of window pairs."""
    vocab = build_vocabulary(data)
    win = WindowSpec(left=2, right=1)
    stats = count_cooccurrences(data, vocab, win)
    expected = 0.0
    for record in data:
        m = len(record)
        for t in range(m):
            for off in (-2, -1, 1):
                if 0 <= t + off < m:
                    expected += 1.0
    assert stats.total == pytest.approx(expected, rel=1e-12)
