"""The benchmark's corpus generator is seeded and sized as stated."""

import numpy as np

import gen


def test_same_seed_same_bytes_other_seed_other_bytes():
    a = gen.corpus_text(gen.make_corpus(20_000, 7))
    b = gen.corpus_text(gen.make_corpus(20_000, 7))
    c = gen.corpus_text(gen.make_corpus(20_000, 8))
    assert a == b
    assert a != c
    pairs = gen.similarity_pairs(gen.make_corpus(20_000, 7), 10, 50, 7)
    assert gen.similarity_text(pairs) == gen.similarity_text(
        gen.similarity_pairs(gen.make_corpus(20_000, 7), 10, 50, 7))


def test_token_count_and_vocabulary_size():
    corpus = gen.make_corpus(400_000, 1)
    assert abs(corpus.n_tokens - 400_000) < 4_000
    assert corpus.lengths.min() >= 10 and corpus.lengths.max() <= 30
    text = gen.corpus_text(corpus)
    assert len(text.split()) == corpus.n_tokens
    assert len(text.splitlines()) == len(corpus.lengths)
    v = int((np.bincount(corpus.ids) >= 10).sum())
    assert 4_500 <= v <= 4_900  # V ~ 4.7k at min_count 10


def test_topic_share_and_similarity_pairs():
    corpus = gen.make_corpus(100_000, 3)
    topic = np.where(corpus.ids < gen.SHARED_RANKS, -1, corpus.ids % gen.N_TOPICS)
    record_topic = np.repeat(
        [np.bincount(t[t >= 0], minlength=gen.N_TOPICS).argmax() if (t >= 0).any() else -1
         for t in np.split(topic, corpus.starts[1:])], corpus.lengths)
    on_topic = float(np.mean(topic == record_topic))
    assert 0.4 < on_topic < 0.6  # 40% planted plus background draws that land on the topic
    freq = np.bincount(corpus.ids, minlength=gen.N_TYPES)
    pairs = gen.similarity_pairs(corpus, 10, 100, 3)
    assert len(pairs) == 100
    for a, b, score in pairs:
        ra, rb = int(a[1:]), int(b[1:])
        assert freq[ra] >= 10 and freq[rb] >= 10
        assert (score >= 6.0) == (ra % gen.N_TOPICS == rb % gen.N_TOPICS)

