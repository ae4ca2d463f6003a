"""Vocabulary construction and windowed co-occurrence counting.

A corpus is a sequence of records (one document per line of the input file);
windows never cross a record boundary.  Every in-window (target, context)
occurrence contributes

    weight = P1(target) * P2(context) * P3(offset)

to the running count #(w, c).  P3 is either constant 1 or 1/|offset|.  P1 and
P2 are frequency down-weights: with threshold tau set, an occurrence of word w
is weighted by min(1, sqrt(tau / f_rel(w))) where f_rel is the relative corpus
frequency.  A stochastic variant instead drops occurrences from the stream
with the complementary probability, using the seed.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyVocabularyError, FormatError, InvalidOptionError, check_seed
from .vectors import SparseMatrix, sum_by_key, word_index

POSITIONAL_WEIGHTS = ("constant", "reciprocal")


@dataclass
class Vocabulary:
    """Words ordered by descending raw count, ties broken lexicographically."""

    words: list[str]
    freq: np.ndarray
    total_tokens: int
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.freq = np.asarray(self.freq, dtype=np.int64)
        self.index = word_index(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def id_of(self, word: str) -> int:
        return self.index[word]

    def relative_frequency(self, word_id: int) -> float:
        return float(self.freq[word_id]) / float(self.total_tokens)


def tokenize(text: str) -> list[list[str]]:
    """Split text into records (one per line) of whitespace tokens."""
    return [line.split() for line in text.splitlines() if line.split()]


def build_vocabulary(records: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens across all records and keep those with count >= min_count.

    total_tokens counts retained tokens only, so relative frequencies sum to 1
    over the vocabulary.
    """
    counts: Counter[str] = Counter()
    for record in records:
        counts.update(record)
    kept = [(w, c) for w, c in counts.items() if c >= min_count]
    if not kept:
        raise EmptyVocabularyError(
            f"no token reaches min_count={min_count} (raw types: {len(counts)})"
        )
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in kept]
    freq = np.array([c for _, c in kept], dtype=np.int64)
    return Vocabulary(words=words, freq=freq, total_tokens=int(freq.sum()))


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry and weighting for co-occurrence counting.

    left / right give the number of context slots on each side.  With
    subsample_threshold set, targets are down-weighted; context occurrences are
    down-weighted too when context_subsample is true, using
    context_subsample_threshold if given and the shared threshold otherwise.
    stochastic_subsample switches from deterministic expected weights to
    seeded per-occurrence drops applied to the token stream itself.
    """

    left: int = 2
    right: int = 2
    positional_weight: str = "constant"
    subsample_threshold: float | None = None
    context_subsample: bool = False
    context_subsample_threshold: float | None = None
    stochastic_subsample: bool = False

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0 or self.left + self.right == 0:
            raise InvalidOptionError(
                f"window needs left, right >= 0 and left + right >= 1, got {self.left}, {self.right}"
            )
        if self.positional_weight not in POSITIONAL_WEIGHTS:
            raise InvalidOptionError(f"positional_weight must be one of {POSITIONAL_WEIGHTS}")
        for tau in (self.subsample_threshold, self.context_subsample_threshold):
            if tau is not None and not tau > 0:
                raise InvalidOptionError(f"subsample thresholds must be positive, got {tau}")

    def offsets(self) -> list[int]:
        return list(range(-self.left, 0)) + list(range(1, self.right + 1))

    def positional(self, offset: int) -> float:
        if self.positional_weight == "reciprocal":
            return 1.0 / abs(offset)
        return 1.0

    def context_threshold(self) -> float | None:
        if self.context_subsample_threshold is not None:
            return self.context_subsample_threshold
        return self.subsample_threshold if self.context_subsample else None

    def symmetric(self) -> bool:
        """True when mirrored occurrences are guaranteed equal weight.

        Needs left == right (both positional options are even in the offset)
        and matching target/context down-weights.  Stream-level stochastic
        dropping removes an occurrence from both roles at once, so it keeps
        the mirror identity.
        """
        if self.left != self.right:
            return False
        if self.stochastic_subsample or self.subsample_threshold is None:
            return self.stochastic_subsample or self.context_threshold() is None
        return self.context_threshold() == self.subsample_threshold


@dataclass
class CooccurrenceStats:
    """Weighted pair counts with cached marginals.

    counts is an n_words x n_words SparseMatrix of strictly positive weights
    (word_id, context_id); zero entries are simply absent.  total is the sum
    of all stored weights, the |D| that normalizes PMI.
    """

    counts: SparseMatrix
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    total: float

    @classmethod
    def from_counts(cls, counts: SparseMatrix) -> "CooccurrenceStats":
        """Stats of a count matrix: checks the weights, drops zeros, sums the marginals."""
        bad = ~(np.isfinite(counts.v) & (counts.v >= 0.0))
        if bad.any():
            p = int(np.argmax(bad))
            raise FormatError(
                f"pair {counts.pair(p)} has weight {float(counts.v[p])!r}, not a finite value >= 0"
            )
        keep = counts.v != 0.0
        counts = SparseMatrix(counts.rows, counts.cols, counts.i[keep], counts.j[keep], counts.v[keep])
        row = np.bincount(counts.i, weights=counts.v, minlength=counts.rows)
        col = np.bincount(counts.j, weights=counts.v, minlength=counts.cols)
        return cls(counts, row, col, float(row.sum()))

    @classmethod
    def from_pairs(cls, pairs: dict[tuple[int, int], float], n_words: int) -> "CooccurrenceStats":
        return cls.from_counts(SparseMatrix.from_entries(n_words, n_words, pairs))

    @property
    def n_words(self) -> int:
        return self.counts.rows

    @property
    def pairs(self) -> Mapping[tuple[int, int], float]:
        """Read-only view of the stored weights keyed by (word_id, context_id)."""
        return self.counts.entries

    def count(self, w: int, c: int) -> float:
        return self.counts.get(w, c)

    def to_dense(self) -> np.ndarray:
        return self.counts.to_dense()


def encode(records: Iterable[Sequence[str]], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """In-vocabulary ids of all records, concatenated, and the record of each token.

    Out-of-vocabulary tokens are dropped before any window is formed; a record
    keeps its index even when none of its tokens is kept.
    """
    records = list(records)
    lengths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
    tokens = chain.from_iterable(records)
    ids = np.fromiter(map(vocab.index.get, tokens, repeat(-1)), dtype=np.int64, count=lengths.sum())
    rec = np.repeat(np.arange(len(records)), lengths)
    kept = ids >= 0
    return ids[kept], rec[kept]


def window_pairs(
    rec: np.ndarray, win: WindowSpec
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The window walk: per offset, (slot, offset, targets t, contexts t + offset).

    slot is the offset's index in win.offsets().  t runs ascending over the
    positions of rec (the token records from encode) whose context position
    lies in the same record; offsets as long as the longest record hold no
    such position and are skipped.
    """
    n = len(rec)
    reach = int(np.bincount(rec).max(initial=0)) - 1
    for off in range(-min(win.left, reach), min(win.right, reach) + 1):
        if off:
            t = np.arange(max(0, -off), min(n, n - off))
            t = t[rec[t] == rec[t + off]]
            yield off + win.left - (off > 0), off, t, t + off


def _down_weight(tau: float | None, vocab: Vocabulary) -> np.ndarray:
    """min(1, sqrt(tau / f_rel)) for every word; all ones without a threshold."""
    if tau is None:
        return np.ones(len(vocab))
    return np.minimum(1.0, np.sqrt(tau / (vocab.freq / vocab.total_tokens)))


def count_cooccurrences(
    records: Iterable[Sequence[str]],
    vocab: Vocabulary,
    win: WindowSpec,
    seed: int = 0,
    shards: int = 1,
) -> CooccurrenceStats:
    """Accumulate weighted co-occurrence counts over all records.

    Out-of-vocabulary tokens are dropped from each record before windowing.
    In stochastic mode, retained occurrences are then dropped independently
    with probability 1 - min(1, sqrt(tau / f_rel)); windows are formed on the
    surviving stream, so both roles of an occurrence vanish together.  records[p]
    draws from a generator keyed by (seed, p), so any shard count drops the same tokens.

    The records are walked in `shards` contiguous chunks, one after another.
    Each offset's pairs are weighted as arrays and each chunk's are summed on
    the key w * V + c; one more sum over the chunk sums, in chunk order, gives
    the stored values.  Only that order of addition depends on the shard count.
    """
    if shards < 1:
        raise InvalidOptionError(f"shard count must be >= 1, got {shards}")
    check_seed(seed)
    n = len(vocab)
    target_w = context_w = np.ones(n)
    keep_prob = None
    if not win.stochastic_subsample:
        target_w = _down_weight(win.subsample_threshold, vocab)
        context_w = _down_weight(win.context_threshold(), vocab)
    elif win.subsample_threshold is not None:
        keep_prob = _down_weight(win.subsample_threshold, vocab)
    records = list(records)
    chunk = max(1, -(-len(records) // shards))
    parts = []
    for start in range(0, max(len(records), 1), chunk):
        ids, rec = encode(records[start : start + chunk], vocab)
        if keep_prob is not None:
            draws = [
                np.random.default_rng([seed, start + r]).random(m)
                for r, m in enumerate(np.bincount(rec).tolist())
                if m
            ]
            keep = np.concatenate([np.empty(0), *draws]) < keep_prob[ids]
            ids, rec = ids[keep], rec[keep]
        keys, weights = [np.empty(0, np.int64)], [np.empty(0)]
        for _, off, t, c in window_pairs(rec, win):
            t, c = ids[t], ids[c]
            keys.append(t * n + c)
            weights.append(target_w[t] * context_w[c] * win.positional(off))
        key, weight = np.concatenate(keys), np.concatenate(weights)
        del keys, weights  # free the per-offset pieces before the sort
        parts.append(sum_by_key(key, weight))
        del key, weight
    if len(parts) == 1:
        key, v = parts.pop()
    else:
        key, v = map(np.concatenate, zip(*parts))
        parts.clear()  # free the chunk sums before the sort
        key, v = sum_by_key(key, v)
    return CooccurrenceStats.from_counts(SparseMatrix(n, n, key // n, key % n, v))


def check_symmetry(stats: CooccurrenceStats, rel_tol: float = 1e-9) -> tuple[bool, float]:
    """Compare #(w,c) with #(c,w) and the two marginals.

    Returns (symmetric, largest absolute violation).
    """
    c = stats.counts
    pos, found = c.find(c.j, c.i)
    mirror = np.zeros(c.nnz)
    mirror[found] = c.v[pos[found]]
    a = np.concatenate([c.v, stats.row_marginal])
    b = np.concatenate([mirror, stats.col_marginal])
    gap = np.abs(a - b)
    ok = np.all(gap <= np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(b)), 1e-12))
    return bool(ok), float(gap.max(initial=0.0))
