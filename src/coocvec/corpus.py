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

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyVocabularyError, FormatError
from .vectors import SparseMatrix

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
        self.index = {w: i for i, w in enumerate(self.words)}

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


def read_corpus(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return tokenize(fh.read())


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
            raise ValueError("window needs left >= 0, right >= 0, left + right >= 1")
        if self.positional_weight not in POSITIONAL_WEIGHTS:
            raise ValueError(f"positional_weight must be one of {POSITIONAL_WEIGHTS}")
        for tau in (self.subsample_threshold, self.context_subsample_threshold):
            if tau is not None and not tau > 0:
                raise ValueError("subsample thresholds must be positive")

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

    def validate(self, rel_tol: float = 1e-9) -> None:
        c = self.counts
        if not (c.v > 0).all():
            p = int(np.argmin(c.v > 0))
            raise ValueError(f"stored weight must be positive, got {c.v[p]} at {c.pair(p)}")
        row = np.bincount(c.i, weights=c.v, minlength=c.rows)
        col = np.bincount(c.j, weights=c.v, minlength=c.cols)
        for name, got, want in (
            ("row marginal", self.row_marginal, row),
            ("col marginal", self.col_marginal, col),
        ):
            if not np.allclose(got, want, rtol=rel_tol, atol=1e-12):
                raise ValueError(f"{name} inconsistent with stored pairs")
        if not math.isclose(self.total, float(row.sum()), rel_tol=rel_tol, abs_tol=1e-12):
            raise ValueError("total inconsistent with stored pairs")

    def merge(self, other: "CooccurrenceStats") -> "CooccurrenceStats":
        """Combine counts from two shards of the same corpus split."""
        if self.n_words != other.n_words:
            raise DimensionMismatchError("shards disagree on vocabulary size")
        n = self.n_words
        a, b = self.counts, other.counts
        keys, slot = np.unique(np.concatenate([a.i * n + a.j, b.i * n + b.j]), return_inverse=True)
        summed = np.bincount(slot, weights=np.concatenate([a.v, b.v]), minlength=len(keys))
        return CooccurrenceStats(
            counts=SparseMatrix(n, n, keys // n, keys % n, summed),
            row_marginal=self.row_marginal + other.row_marginal,
            col_marginal=self.col_marginal + other.col_marginal,
            total=self.total + other.total,
        )


def _down_weight(tau: float | None, f_rel: float) -> float:
    if tau is None:
        return 1.0
    return min(1.0, math.sqrt(tau / f_rel))


def count_cooccurrences(
    records: Iterable[Sequence[str]],
    vocab: Vocabulary,
    win: WindowSpec,
    seed: int = 0,
    first_record: int = 0,
) -> CooccurrenceStats:
    """Accumulate weighted co-occurrence counts over all records.

    Out-of-vocabulary tokens are dropped from each record before windowing.
    In stochastic mode, retained occurrences are then dropped independently
    with probability 1 - min(1, sqrt(tau / f_rel)); windows are formed on the
    surviving stream, so both roles of an occurrence vanish together.  records[p]
    draws from a generator keyed by (seed, first_record + p): shards drop as the whole does.
    """
    n = len(vocab)
    pairs: dict[tuple[int, int], float] = {}
    row = np.zeros(n)
    col = np.zeros(n)
    offsets = win.offsets()
    pos_w = [win.positional(i) for i in offsets]
    tau_t = win.subsample_threshold
    tau_c = win.context_threshold()

    target_w = np.ones(n)
    context_w = np.ones(n)
    if not win.stochastic_subsample:
        for wid in range(n):
            f_rel = vocab.relative_frequency(wid)
            target_w[wid] = _down_weight(tau_t, f_rel)
            context_w[wid] = _down_weight(tau_c, f_rel)
    keep_prob = None
    if win.stochastic_subsample and tau_t is not None:
        keep_prob = np.array(
            [_down_weight(tau_t, vocab.relative_frequency(wid)) for wid in range(n)]
        )

    for r, record in enumerate(records, start=first_record):
        ids = [vocab.index[t] for t in record if t in vocab.index]
        if keep_prob is not None and ids:
            draws = np.random.default_rng([seed, r]).random(len(ids))
            ids = [wid for wid, u in zip(ids, draws) if u < keep_prob[wid]]
        m = len(ids)
        for t in range(m):
            wt = ids[t]
            pw = target_w[wt]
            if pw == 0.0:
                continue
            for off, p3 in zip(offsets, pos_w):
                s = t + off
                if s < 0 or s >= m:
                    continue
                ct = ids[s]
                weight = pw * context_w[ct] * p3
                if weight == 0.0:
                    continue
                key = (wt, ct)
                pairs[key] = pairs.get(key, 0.0) + weight
                row[wt] += weight
                col[ct] += weight

    return CooccurrenceStats(
        counts=SparseMatrix.from_entries(n, n, pairs),
        row_marginal=row,
        col_marginal=col,
        total=float(row.sum()),
    )


def count_sharded(
    records: Sequence[Sequence[str]],
    vocab: Vocabulary,
    win: WindowSpec,
    seed: int = 0,
    shards: int = 1,
) -> CooccurrenceStats:
    """Count contiguous record shards one after another and merge the results.

    Merging is an associative sum and stochastic drops are keyed by record index,
    so the shard layout only affects rounding order, never which pairs are counted.
    """
    if shards <= 1 or len(records) <= 1:
        return count_cooccurrences(records, vocab, win, seed=seed)
    chunk = (len(records) + shards - 1) // shards
    parts = []
    for s in range(0, len(records), chunk):
        parts.append(count_cooccurrences(records[s : s + chunk], vocab, win, seed, first_record=s))
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    return merged


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
