import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    DimensionMismatchError,
    EmptyVocabularyError,
    InvalidOptionError,
    WindowSpec,
    check_symmetry,
    count_encoded,
    encode_text,
)
from coocvec import corpus
from helpers import (
    assert_marginals_match_counts,
    bench_gen,
    encode_records,
    lookup_encoded,
    make_stats,
    same_pairs,
    sparse,
)
from oracles import brute_count_dense, encode_by_lookup, tokenize_whole, vocabulary_by_counter

ABAB = [["a", "b", "a", "b"]]


def test_records_are_the_non_blank_lines():
    vocab, tokens = encode_text("a b\n\n c  d \n")
    assert vocab.words == ["a", "b", "c", "d"]
    assert tokens.rec.tolist() == [0, 0, 1, 1] and tokens.records == 2


class TestVocabulary:
    def test_counts_and_lexicographic_tie_break(self):
        vocab, _ = encode_records(ABAB, min_count=1)
        assert vocab.words == ["a", "b"]
        assert vocab.index == {"a": 0, "b": 1}
        assert vocab.freq.tolist() == [2, 2]
        assert vocab.total_tokens == 4

    def test_min_count_filters_and_total_counts_survivors(self):
        vocab, _ = encode_records([["a", "b", "a"]], min_count=2)
        assert vocab.words == ["a"]
        assert vocab.total_tokens == 2

    def test_empty_stream_raises(self):
        with pytest.raises(EmptyVocabularyError):
            encode_text("", min_count=1)
        with pytest.raises(EmptyVocabularyError):
            encode_text(" \n\n", min_count=1)
        with pytest.raises(EmptyVocabularyError):
            encode_text("a\n", min_count=2)

    def test_descending_frequency_order(self):
        vocab, _ = encode_records([["c", "c", "c", "a", "a", "b"]])
        assert vocab.words == ["c", "a", "b"]
        assert vocab.freq.tolist() == [3, 2, 1]

    def test_index_bijection_and_freq_sum(self):
        vocab, _ = encode_records([["x", "y", "x", "z", "z", "z"]])
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        assert int(vocab.freq.sum()) == vocab.total_tokens


class TestOnePassEncoder:
    """encode_text against the oracle: the whole text's splitlines(), a Counter, a dict lookup."""

    TOKENS = ["a", "b", "c", "dd", "é", "x1", "q", "zz"]
    BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n \t\n", "\n\n"]
    SPACES = [" ", "\t", "\u3000", "  "]
    TEXT = st.lists(st.sampled_from(TOKENS + BREAKS + SPACES), max_size=120).map("".join)

    @staticmethod
    def assert_encodes_like_the_oracle(text: str, min_count: int):
        records = tokenize_whole(text)
        words, freq = vocabulary_by_counter(records, min_count)
        if not words:
            with pytest.raises(EmptyVocabularyError):
                encode_text(text, min_count)
            return None
        vocab, tokens = encode_text(text, min_count)
        assert vocab.words == words and vocab.freq.tolist() == freq
        assert vocab.total_tokens == sum(freq)
        ids, rec = encode_by_lookup(records, words)
        assert tokens.ids.tolist() == ids and tokens.rec.tolist() == rec
        assert tokens.records == len(records)
        return records, vocab, tokens

    @settings(max_examples=150, deadline=None)
    @given(text=TEXT, min_count=st.integers(1, 5))
    def test_vocabulary_ids_and_records_match(self, text, min_count):
        self.assert_encodes_like_the_oracle(text, min_count)

    @settings(max_examples=60, deadline=None)
    @given(text=TEXT, min_count=st.integers(1, 5), shards=st.integers(1, 5),
           stochastic=st.booleans(), seed=st.integers(0, 3))
    def test_counts_match_bit_for_bit(self, text, min_count, shards, stochastic, seed):
        encoded = self.assert_encodes_like_the_oracle(text, min_count)
        if encoded is None:
            return
        records, vocab, tokens = encoded
        win = WindowSpec(left=2, right=1, positional_weight="reciprocal", subsample_threshold=0.2,
                         context_subsample=not stochastic, stochastic_subsample=stochastic)
        got = count_encoded(tokens, vocab, win, seed=seed, shards=shards)
        want = count_encoded(lookup_encoded(records, vocab), vocab, win, seed=seed, shards=shards)
        for a, b in zip((got.counts.i, got.counts.j, got.counts.v, got.row_marginal),
                        (want.counts.i, want.counts.j, want.counts.v, want.row_marginal)):
            assert a.tobytes() == b.tobytes()
        assert got.total == want.total

    @pytest.mark.parametrize("chars", [1, 2, 3, 5, 64])
    def test_text_split_in_pieces_keeps_the_lines(self, monkeypatch, chars):
        text = "a b\r\nc\r\n\r\nb\x85a\u2028 \u3000\nc\x0bq\x0c\x1ca  b\rzz \n\n"
        monkeypatch.setattr(corpus, "CHARS_PER_PIECE", chars)
        for min_count in (1, 2):
            self.assert_encodes_like_the_oracle(text, min_count)
        assert tokenize_whole(text) == [
            ["a", "b"], ["c"], ["b"], ["a"], ["c"], ["q"], ["a", "b"], ["zz"]
        ]

    def test_records_of_out_of_vocabulary_tokens_keep_their_index(self):
        vocab, tokens = encode_text("q\na a\n\n zz q\na\n", min_count=3)
        assert vocab.words == ["a"]
        assert tokens.ids.tolist() == [0, 0, 0] and tokens.rec.tolist() == [1, 1, 3]
        assert tokens.records == 4

    def test_encoding_holds_no_object_per_token(self):
        """Encoding a 200k-token text holds no Python object per token.

        Peak traced memory beyond the text, per token: encode_text holds
        40.5 B (min_count 1) and 37.4 B (min_count 10), its id arrays and
        the types.  Lists of tokens per record hold 111.3 B and 104.5 B, a
        str object and a list slot per token.
        """
        gen = bench_gen()
        text = gen.corpus_text(gen.make_corpus(200_000, 3))
        n_tokens = len(text.split())
        for min_count in (1, 10):
            tracemalloc.start()
            try:
                encoded = encode_text(text, min_count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del encoded
            assert peak / n_tokens < 64, (min_count, peak / n_tokens)

    def test_min_count_below_one_is_invalid(self):
        for min_count in (0, -3):
            with pytest.raises(InvalidOptionError):
                encode_text("a b a b\n", min_count=min_count)


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

    def test_context_subsample_takes_either_threshold(self):
        shared = WindowSpec(subsample_threshold=0.1, context_subsample=True)
        assert shared.context_threshold() == 0.1
        own = WindowSpec(context_subsample=True, context_subsample_threshold=0.2)
        assert own.context_threshold() == 0.2


class TestCounting:
    def test_symmetric_window_hand_enumeration(self, abab_stats):
        assert abab_stats.counts.to_dense().tolist() == [[0.0, 3.0], [3.0, 0.0]]
        assert abab_stats.row_marginal.tolist() == [3.0, 3.0]
        assert abab_stats.col_marginal.tolist() == [3.0, 3.0]
        assert abab_stats.total == 6.0

    def test_left_window_hand_enumeration(self, abab_left_stats):
        assert abab_left_stats.counts.to_dense().tolist() == [[0.0, 1.0], [2.0, 0.0]]
        assert abab_left_stats.total == 3.0

    def test_single_token_record_has_no_pairs(self):
        vocab, tokens = encode_records([["a"]])
        stats = count_encoded(tokens, vocab, WindowSpec(left=1, right=1))
        assert stats.counts.nnz == 0
        assert stats.total == 0.0

    def test_oov_tokens_removed_before_windowing(self):
        # b is filtered by min_count, so the stream becomes a c a c a
        records = [["a", "b", "c", "a", "c", "a"]]
        vocab, tokens = encode_records(records, min_count=2)
        assert "b" not in vocab
        stats = count_encoded(tokens, vocab, WindowSpec(left=1, right=1))
        a, c = vocab.id_of("a"), vocab.id_of("c")
        dense = stats.counts.to_dense()
        assert dense[a, c] == 4.0
        assert dense[c, a] == 4.0
        assert stats.total == 8.0

    def test_windows_do_not_span_records(self):
        vocab, tokens = encode_records([["a"], ["b"]])
        stats = count_encoded(tokens, vocab, WindowSpec(left=2, right=2))
        assert stats.counts.nnz == 0

    def test_reciprocal_weight_halves_distance_two(self):
        records = [["a", "b", "c"]]
        vocab, tokens = encode_records(records)
        stats = count_encoded(
            tokens, vocab, WindowSpec(left=2, right=2, positional_weight="reciprocal")
        )
        a, c = vocab.id_of("a"), vocab.id_of("c")
        dense = stats.counts.to_dense()
        assert dense[a, c] == 0.5
        assert dense[c, a] == 0.5

    def test_matches_brute_force_on_random_corpus(self, rng):
        records = [
            [str(int(rng.integers(0, 5))) for _ in range(int(rng.integers(1, 10)))]
            for _ in range(15)
        ]
        vocab, tokens = encode_records(records)
        for left, right, reciprocal in ((2, 2, False), (1, 3, False), (2, 2, True)):
            win = WindowSpec(
                left=left,
                right=right,
                positional_weight="reciprocal" if reciprocal else "constant",
            )
            stats = count_encoded(tokens, vocab, win)
            ids = [[vocab.id_of(t) for t in r] for r in records]
            dense = brute_count_dense(ids, len(vocab), left, right, reciprocal)
            assert np.allclose(stats.counts.to_dense(), dense)

    def test_deterministic_downsampling_weights(self):
        vocab, tokens = encode_records([["a"] * 8 + ["b", "b"]])
        tau = 0.16
        win = WindowSpec(left=1, right=1, subsample_threshold=tau)
        stats = count_encoded(tokens, vocab, win)
        plain = count_encoded(tokens, vocab, WindowSpec(left=1, right=1)).counts.to_dense()
        got = stats.counts.to_dense()
        a = vocab.id_of("a")
        b = vocab.id_of("b")
        w_a = math.sqrt(tau / 0.8)
        w_b = math.sqrt(tau / 0.2)
        # only targets are down-weighted, by their own frequency weight
        assert got[a, a] == pytest.approx(plain[a, a] * w_a, rel=1e-12)
        assert got[a, b] == pytest.approx(plain[a, b] * w_a, rel=1e-12)
        assert got[b, a] == pytest.approx(plain[b, a] * w_b, rel=1e-12)

    def test_rare_word_weight_clamped_to_one(self):
        vocab, tokens = encode_records([["a"] * 9 + ["b"]])
        # f_rel(b) = 0.1 < tau = 0.5, so b keeps weight 1 as a target
        win = WindowSpec(left=1, right=1, subsample_threshold=0.5)
        stats = count_encoded(tokens, vocab, win)
        plain = count_encoded(tokens, vocab, WindowSpec(left=1, right=1))
        b, a = vocab.id_of("b"), vocab.id_of("a")
        assert stats.counts.to_dense()[b, a] == plain.counts.to_dense()[b, a]

    def test_context_subsample_uses_own_threshold(self):
        vocab, tokens = encode_records([["a"] * 8 + ["b", "b"]])
        win = WindowSpec(
            left=1,
            right=1,
            subsample_threshold=0.2,
            context_subsample=True,
            context_subsample_threshold=0.05,
        )
        stats = count_encoded(tokens, vocab, win)
        a = vocab.id_of("a")
        w_t = min(1.0, math.sqrt(0.2 / 0.8))
        w_c = min(1.0, math.sqrt(0.05 / 0.8))
        plain = count_encoded(tokens, vocab, WindowSpec(left=1, right=1)).counts.to_dense()
        assert stats.counts.to_dense()[a, a] == pytest.approx(plain[a, a] * w_t * w_c, rel=1e-12)

    def test_stochastic_subsample_is_seeded_and_symmetric(self):
        rng = np.random.default_rng(7)
        records = [
            ["a" if rng.random() < 0.7 else "b" for _ in range(30)] for _ in range(10)
        ]
        vocab, tokens = encode_records(records)
        win = WindowSpec(
            left=2, right=2, subsample_threshold=0.05, stochastic_subsample=True
        )
        s1 = count_encoded(tokens, vocab, win, seed=3)
        s2 = count_encoded(tokens, vocab, win, seed=3)
        s3 = count_encoded(tokens, vocab, win, seed=4)
        assert same_pairs(s1.counts, s2.counts)
        assert not same_pairs(s1.counts, s3.counts)  # a different seed drops different tokens
        ok, worst = check_symmetry(s1)
        assert ok and worst == 0.0

    def test_stochastic_subsample_reduces_total(self):
        vocab, tokens = encode_records([["a", "b"] * 50])
        win = WindowSpec(left=1, right=1, subsample_threshold=0.01, stochastic_subsample=True)
        stats = count_encoded(tokens, vocab, win, seed=0)
        plain = count_encoded(tokens, vocab, WindowSpec(left=1, right=1))
        assert stats.total < plain.total


    @pytest.mark.parametrize("seed", [3, 11])
    def test_stochastic_drops_follow_one_draw_per_retained_token(self, seed):
        # all-OOV ("x", "y q") and empty records take up a record index but draw nothing;
        # text has no empty record, so the ids come from the oracle's token lookup
        records = [
            ["a", "b", "a", "c", "a"], ["x"], [], ["b", "a", "a", "b", "c", "a", "a"],
            ["y", "q"], ["a", "b", "c", "a", "b", "a", "a", "b"], ["c", "a", "b", "a"],
        ]
        vocab, _ = encode_records(records, min_count=2)
        tau = 0.05
        win = WindowSpec(left=2, right=1, positional_weight="reciprocal",
                         subsample_threshold=tau, stochastic_subsample=True)
        ids = [[vocab.id_of(t) for t in record if t in vocab] for record in records]
        draws = iter(np.random.default_rng(seed).random(sum(map(len, ids))))
        keep = [min(1.0, math.sqrt(tau * vocab.total_tokens / f)) for f in vocab.freq]
        kept = [[w for w in record if next(draws) < keep[w]] for record in ids]
        assert 0 < sum(map(len, kept)) < vocab.total_tokens
        want = brute_count_dense(kept, len(vocab), 2, 1, reciprocal=True)
        first = count_encoded(lookup_encoded(records, vocab), vocab, win, seed=seed)
        np.testing.assert_array_equal(first.counts.to_dense() != 0, want != 0)
        np.testing.assert_allclose(first.counts.to_dense(), want, rtol=1e-12)
        for lead in (1, 2, 7):  # leading records without retained tokens draw nothing
            led = [[]] * lead + [["x", "q"]] * lead + records
            got = count_encoded(lookup_encoded(led, vocab), vocab, win, seed=seed)
            assert same_pairs(got.counts, first.counts)


class TestStatsInvariants:
    def test_from_counts_drops_zeros_and_checks_bounds(self):
        stats = make_stats({(0, 1): 2.0, (1, 0): 0.0}, 2)
        assert stats.counts.nnz == 1 and stats.counts.pair(0) == (0, 1)
        with pytest.raises(DimensionMismatchError):
            make_stats({(0, 5): 1.0}, 2)

    def test_counted_marginals_match_stored_pairs(self, abab_stats):
        assert_marginals_match_counts(abab_stats)


class TestSharding:
    def test_shard_merge_equals_whole_exactly(self, rng):
        records = [
            [str(int(rng.integers(0, 6))) for _ in range(int(rng.integers(1, 9)))]
            for _ in range(23)
        ]
        vocab, tokens = encode_records(records)
        win = WindowSpec(left=2, right=2)
        whole = count_encoded(tokens, vocab, win)
        for shards in (2, 3, 7):
            sharded = count_encoded(tokens, vocab, win, shards=shards)
            assert same_pairs(sharded.counts, whole.counts)
            assert sharded.total == whole.total

    def test_single_shard_is_plain_counting(self, rng):
        vocab, tokens = encode_records([["a", "b", "c"], ["b", "a"]])
        win = WindowSpec(left=1, right=1)
        one = count_encoded(tokens, vocab, win, shards=1)
        assert same_pairs(one.counts, count_encoded(tokens, vocab, win).counts)


    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_stochastic_shards_drop_what_the_whole_drops(self, shards):
        rng = np.random.default_rng(5)
        records = [
            [str(int(t)) for t in rng.integers(0, 8, size=int(rng.integers(2, 12)))]
            for _ in range(30)
        ]
        vocab, tokens = encode_records(records)
        win = WindowSpec(left=2, right=2, subsample_threshold=0.05, stochastic_subsample=True)
        whole = count_encoded(tokens, vocab, win, seed=3)
        sharded = count_encoded(tokens, vocab, win, seed=3, shards=shards)
        assert whole.total < count_encoded(tokens, vocab, WindowSpec(2, 2)).total
        assert np.array_equal(sharded.counts.i, whole.counts.i)
        assert np.array_equal(sharded.counts.j, whole.counts.j)
        np.testing.assert_allclose(sharded.counts.v, whole.counts.v, rtol=1e-12)


    @pytest.mark.parametrize("shards", [2, 3, 4, 5])
    def test_shard_values_are_chunk_sums_in_chunk_order(self, rng, shards):
        records = [
            [str(int(t)) for t in rng.zipf(1.6, size=int(rng.integers(1, 15))) % 12]
            for _ in range(29)
        ]
        vocab, tokens = encode_records(records)
        win = WindowSpec(left=3, right=2, positional_weight="reciprocal",
                         subsample_threshold=0.02, context_subsample=True)
        chunk = -(-len(records) // shards)
        want = {}
        for start in range(0, len(records), chunk):
            part = lookup_encoded(records[start : start + chunk], vocab)
            alone = count_encoded(part, vocab, win).counts
            for pair, v in zip(zip(alone.i.tolist(), alone.j.tolist()), alone.v.tolist()):
                want[pair] = want.get(pair, 0.0) + v
        got = count_encoded(tokens, vocab, win, shards=shards)
        assert not np.all(got.counts.v == np.round(got.counts.v))
        assert same_pairs(got.counts, sparse(len(vocab), len(vocab), want))
        c, n = got.counts, len(vocab)
        row = np.bincount(c.i, weights=c.v, minlength=n)
        np.testing.assert_array_equal(got.row_marginal, row)
        np.testing.assert_array_equal(got.col_marginal, np.bincount(c.j, weights=c.v, minlength=n))
        assert got.total == float(row.sum())

    def test_shard_count_below_one_is_invalid(self):
        vocab, tokens = encode_records(ABAB)
        with pytest.raises(InvalidOptionError):
            count_encoded(tokens, vocab, WindowSpec(1, 1), shards=0)


class TestSymmetryCheck:
    def test_symmetric_and_asymmetric_examples(self, abab_stats, abab_left_stats):
        ok, worst = check_symmetry(abab_stats)
        assert ok and worst == 0.0
        ok, worst = check_symmetry(abab_left_stats)
        assert not ok
        assert worst == 1.0  # |#(a,b) - #(b,a)| = |1 - 2|

    def test_empty_stats_vacuously_symmetric(self):
        stats = make_stats({}, 3)
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
    vocab, tokens = encode_records(data)
    win = WindowSpec(left=left, right=left)
    stats = count_encoded(tokens, vocab, win)
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
    vocab, tokens = encode_records(data)
    win = WindowSpec(left=1, right=2)
    whole = count_encoded(tokens, vocab, win)
    sharded = count_encoded(tokens, vocab, win, shards=shards)
    assert same_pairs(whole.counts, sharded.counts)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.sampled_from("abc"), min_size=2, max_size=9), min_size=1, max_size=6
    )
)
def test_property_total_counts_in_window_pairs(data):
    """Without down-sampling, total is the P3-weighted number of window pairs."""
    vocab, tokens = encode_records(data)
    win = WindowSpec(left=2, right=1)
    stats = count_encoded(tokens, vocab, win)
    expected = 0.0
    for record in data:
        m = len(record)
        for t in range(m):
            for off in (-2, -1, 1):
                if 0 <= t + off < m:
                    expected += 1.0
    assert stats.total == pytest.approx(expected, rel=1e-12)
