"""Seeded planted-topic Zipf corpora and similarity sets for the benchmark.

Word types are ranked by a global Zipf law with exponent 1.05.  The most
frequent ranks are shared "function words"; every other rank belongs to one
of the topics.  Each record (one line of the corpus) picks a topic, and each
of its tokens comes from that topic's words (Zipf-weighted inside the topic)
with probability TOPIC_SHARE, or from the global law otherwise.  Words of one
topic therefore co-occur, which gives the similarity set its signal:
same-topic pairs are scored high, cross-topic pairs low.

Everything is drawn from one numpy Generator seeded by the caller, so the
same arguments give the same bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_TYPES = 50_000
EXPONENT = 1.05
N_TOPICS = 50
TOPIC_SHARE = 0.4
SHARED_RANKS = 100
MEAN_RECORD_LEN = 20


@dataclass
class Corpus:
    """Token ids (global Zipf ranks) laid out record after record."""

    ids: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @property
    def n_tokens(self) -> int:
        return int(len(self.ids))


def word(rank: int) -> str:
    return f"w{rank}"


def _topic_of_rank() -> np.ndarray:
    ranks = np.arange(N_TYPES)
    return np.where(ranks < SHARED_RANKS, -1, ranks % N_TOPICS)


def make_corpus(n_tokens: int, seed: int | list[int]) -> Corpus:
    """About n_tokens tokens in records of 10 to 30 tokens (mean 20)."""
    rng = np.random.default_rng(seed)
    n_records = max(1, n_tokens // MEAN_RECORD_LEN)
    lengths = rng.integers(10, 2 * MEAN_RECORD_LEN - 9, size=n_records)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    total = int(lengths.sum())

    weights = np.arange(1, N_TYPES + 1, dtype=float) ** -EXPONENT
    global_cdf = np.cumsum(weights)
    global_cdf /= global_cdf[-1]

    # One sorted table holding every topic's own cdf, shifted into [t, t + 1),
    # so a draw for topic t is a single searchsorted of t + u.
    topic = _topic_of_rank()
    topic_ranks = np.argsort(topic * N_TYPES + np.arange(N_TYPES), kind="stable")
    topic_ranks = topic_ranks[topic[topic_ranks] >= 0]
    t_of = topic[topic_ranks]
    w = weights[topic_ranks]
    cum = np.cumsum(w)
    first = np.searchsorted(t_of, np.arange(N_TOPICS))
    base = np.concatenate(([0.0], cum))[first]
    topic_sum = np.add.reduceat(w, first)
    shifted_cdf = t_of + (cum - base[t_of]) / topic_sum[t_of]
    shifted_cdf[np.r_[first[1:] - 1, len(shifted_cdf) - 1]] = np.arange(1, N_TOPICS + 1)

    record_topic = rng.integers(0, N_TOPICS, size=n_records)
    token_topic = np.repeat(record_topic, lengths)
    from_topic = rng.random(total) < TOPIC_SHARE
    u = rng.random(total)
    ids = np.searchsorted(global_cdf, u, side="right")
    pick = np.searchsorted(shifted_cdf, token_topic[from_topic] + u[from_topic], side="right")
    ids[from_topic] = topic_ranks[np.minimum(pick, len(topic_ranks) - 1)]
    ids = np.minimum(ids, N_TYPES - 1)
    return Corpus(ids=ids.astype(np.int64), starts=starts, lengths=lengths)


def corpus_text(corpus: Corpus) -> str:
    names = np.array([word(r) for r in range(N_TYPES)], dtype=object)
    tokens = names[corpus.ids]
    lines = [" ".join(tokens[s : s + n]) for s, n in zip(corpus.starts, corpus.lengths)]
    return "\n".join(lines) + "\n"


def similarity_pairs(
    corpus: Corpus, min_count: int, n_pairs: int, seed: int | list[int]
) -> list[tuple[str, str, float]]:
    """Half same-topic pairs scored in [6, 10), half cross-topic in [0, 4).

    Words are drawn from topic words that reach min_count in this corpus, so
    every pair survives the vocabulary cut of a count with that min_count.
    """
    rng = np.random.default_rng(seed)
    freq = np.bincount(corpus.ids, minlength=N_TYPES)
    topic = _topic_of_rank()
    eligible = np.flatnonzero((freq >= min_count) & (topic >= 0))
    by_topic = [eligible[topic[eligible] == t] for t in range(N_TOPICS)]
    rich = [t for t in range(N_TOPICS) if len(by_topic[t]) >= 2]
    out = []
    seen = set()
    while len(out) < n_pairs:
        same = len(out) % 2 == 0
        t1 = rich[rng.integers(len(rich))]
        if same:
            a, b = rng.choice(by_topic[t1], size=2, replace=False)
            score = 6.0 + 4.0 * rng.random()
        else:
            t2 = rich[rng.integers(len(rich))]
            if t2 == t1:
                continue
            a = rng.choice(by_topic[t1])
            b = rng.choice(by_topic[t2])
            score = 4.0 * rng.random()
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        out.append((word(int(a)), word(int(b)), round(float(score), 3)))
    return out


def similarity_text(pairs: list[tuple[str, str, float]]) -> str:
    return "".join(f"{a}\t{b}\t{s!r}\n" for a, b, s in pairs)
