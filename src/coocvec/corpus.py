"""Corpus encoding and windowed co-occurrence counting.

A corpus is a text whose records are its non-blank lines, each a sequence of
whitespace-separated tokens; encode_text turns it into a vocabulary and an
array of word ids with the record of each.  Windows never cross a record
boundary.  Every in-window (target, context) occurrence contributes

    weight = P1(target) * P2(context) * P3(offset)

to the running count #(w, c).  P3 is either constant 1 or 1/|offset|.  P1 and
P2 are frequency down-weights: with threshold tau set, an occurrence of word w
is weighted by min(1, sqrt(tau / f_rel(w))) where f_rel is the relative corpus
frequency.  A stochastic variant instead drops occurrences from the stream
with the complementary probability, using the seed.  The types counting makes
live in vectors, so reading a file loads no counting code; their names stay here.
"""
from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptyVocabularyError, InvalidOptionError
from .errors import check_choice, check_min_count, check_seed, check_shards
from .vectors import CHARS_PER_PIECE, CooccurrenceStats, SparseMatrix, Vocabulary  # noqa: F401
from .vectors import sum_by_key, text_pieces

POSITIONAL_WEIGHTS = ("constant", "reciprocal")


def _records(text: str) -> Iterator[list[str]]:
    """The records of text: the whitespace tokens of each non-blank line, in order."""
    for piece in text_pieces(text, 0):
        for line in piece.splitlines():
            tokens = line.split()
            if tokens:
                yield tokens


class Encoded(NamedTuple):
    """In-vocabulary ids in corpus order, the record of each, and the number of records.

    A record keeps its index when none of its tokens is kept, so records can
    exceed rec.max() + 1.
    """

    ids: np.ndarray
    rec: np.ndarray
    records: int


def _first_seen(records: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The types in order of first appearance, each token's index in it, and the record lengths."""
    seen: defaultdict[str, int] = defaultdict()
    seen.default_factory = seen.__len__  # a new type's id is the number seen before it
    ids, lengths = array("q"), array("q")
    for record in records:
        ids.extend(map(seen.__getitem__, record))
        lengths.append(len(record))
    return list(seen), np.frombuffer(ids, np.int64), np.frombuffer(lengths, np.int64)


def _vocabulary(types: list[str], ids: np.ndarray, min_count: int) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of a stream of type indices, and each type's word id (-1 if dropped).

    Keeps the types with count >= min_count, ordered by (-count, word);
    total_tokens counts retained tokens only, so relative frequencies sum to 1
    over the vocabulary.
    """
    check_min_count(min_count)
    counts = np.bincount(ids, minlength=len(types))
    count_of = counts.tolist()
    kept = [p for p, c in enumerate(count_of) if c >= min_count]
    if not kept:
        raise EmptyVocabularyError(
            f"no token reaches min_count={min_count} (raw types: {len(types)})"
        )
    kept.sort(key=lambda p: (-count_of[p], types[p]))
    word_id = np.full(len(types), -1, dtype=np.int64)
    word_id[kept] = np.arange(len(kept))
    return Vocabulary(words=[types[p] for p in kept], freq=counts[kept]), word_id


def encode_text(text: str, min_count: int = 1) -> tuple[Vocabulary, Encoded]:
    """The vocabulary of text's records and their encoding, from one pass over the text.

    The vocabulary keeps the tokens with count >= min_count (>= 1), ordered
    by descending count with ties broken lexicographically.  Out-of-vocabulary
    tokens are dropped before any window is formed; a record keeps its index
    even when none of its tokens is kept.  Each line is split once and each
    token looked up once, and no list of tokens outlives its line.
    """
    types, first, lengths = _first_seen(_records(text))
    vocab, word_id = _vocabulary(types, first, min_count)
    ids = word_id[first]
    del first  # the provisional ids
    kept = ids >= 0
    if not kept.all():
        ids = ids[kept]
        # records are non-blank, so each starts a run of kept flags that reduceat can sum
        lengths = np.add.reduceat(kept, np.cumsum(lengths) - lengths, dtype=np.int64)
    return vocab, Encoded(ids, np.repeat(np.arange(len(lengths)), lengths), len(lengths))


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry and weighting for co-occurrence counting.

    left / right give the number of context slots on each side.  With
    subsample_threshold set, targets are down-weighted; context occurrences are
    down-weighted too when context_subsample is true, using
    context_subsample_threshold if given and the shared threshold otherwise.
    stochastic_subsample switches from deterministic expected weights to
    seeded drops from the token stream, which need subsample_threshold and
    take no context subsampling.  A combination that would change nothing is
    refused (InvalidOptionError).
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
        check_choice("positional_weight", self.positional_weight, POSITIONAL_WEIGHTS)
        for tau in (self.subsample_threshold, self.context_subsample_threshold):
            if tau is not None and not tau > 0:
                raise InvalidOptionError(f"subsample thresholds must be positive, got {tau}")
        # each flag below would change nothing, so it is refused rather than ignored
        if self.stochastic_subsample and self.subsample_threshold is None:
            raise InvalidOptionError("stochastic drops need a subsample threshold")
        if self.stochastic_subsample and (
            self.context_subsample or self.context_subsample_threshold is not None
        ):
            raise InvalidOptionError(
                "stochastic drops take no context subsampling: a dropped token leaves both roles"
            )
        if self.context_subsample and self.context_threshold() is None:
            raise InvalidOptionError("context subsampling needs a subsample threshold")

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


def _reach(rec: np.ndarray, win: WindowSpec) -> Iterator[int]:
    """The window's offsets, ascending, that are shorter than the longest record."""
    reach = int(np.bincount(rec).max(initial=0)) - 1
    return (off for off in range(-min(win.left, reach), min(win.right, reach) + 1) if off)


def _same_record(rec: np.ndarray, off: int) -> tuple[int, np.ndarray]:
    """(lo, same): same[k] says whether positions lo + k and lo + k + off share a record."""
    lo, hi = max(0, -off), min(len(rec), len(rec) - off)
    return lo, rec[lo:hi] == rec[lo + off : hi + off]


def window_pairs(
    rec: np.ndarray, win: WindowSpec
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The window walk: per offset, (slot, offset, targets t, contexts t + offset).

    slot is the offset's index in win.offsets().  t runs ascending over the
    positions of rec (an Encoded's record of each token) whose context
    position lies in the same record; offsets as long as the longest record
    hold no such position and are skipped.
    """
    for off in _reach(rec, win):
        lo, same = _same_record(rec, off)
        t = np.flatnonzero(same)
        t += lo
        yield off + win.left - (off > 0), off, t, t + off


def _window_sums(
    ids: np.ndarray, rec: np.ndarray, n: int, win: WindowSpec,
    target_w: np.ndarray, context_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys w * n + c of the window walk's pairs, and their summed weights.

    The key and weight arrays are sized once from each offset's pair count;
    each offset fills its part in place, in walk order, with weight
    target_w[w] * context_w[c] * positional(offset).
    """
    offs = list(_reach(rec, win))
    sizes = [int(np.count_nonzero(_same_record(rec, off)[1])) for off in offs]
    key = np.empty(sum(sizes), dtype=np.int64)
    weight = np.empty(len(key))
    end = 0
    for off, size in zip(offs, sizes):
        lo, same = _same_record(rec, off)
        k, w = key[end : end + size], weight[end : end + size]
        end += size
        np.compress(same, ids[lo : lo + len(same)], out=k)
        np.take(target_w, k, out=w)
        c = ids[lo + off : lo + off + len(same)][same]
        w *= context_w[c]
        w *= win.positional(off)
        k *= n
        k += c
    return sum_by_key(key, weight)


def _down_weight(tau: float | None, vocab: Vocabulary) -> np.ndarray:
    """min(1, sqrt(tau / f_rel)) for every word; all ones without a threshold."""
    if tau is None:
        return np.ones(len(vocab))
    return np.minimum(1.0, np.sqrt(tau / (vocab.freq / vocab.total_tokens)))


def count_encoded(
    tokens: Encoded, vocab: Vocabulary, win: WindowSpec, seed: int = 0, shards: int = 1
) -> CooccurrenceStats:
    """Accumulate weighted co-occurrence counts over records encoded by encode_text.

    In stochastic mode, one generator seeded with seed draws once per retained
    token, in corpus order, and drops it with probability 1 - min(1, sqrt(tau /
    f_rel)) before any window is formed: both roles of an occurrence vanish
    together, and any shard count drops the same tokens.

    The records are walked in `shards` contiguous chunks of equal record
    count, one after another.  Each chunk's pairs are weighted as arrays and
    summed on the key w * V + c; one more sum over the chunk sums, in chunk
    order, gives the stored values.  Only that order of addition depends on
    the shard count.
    """
    check_shards(shards)
    check_seed(seed)
    n = len(vocab)
    target_w = context_w = np.ones(n)
    ids, rec = tokens.ids, tokens.rec
    if not win.stochastic_subsample:
        target_w = _down_weight(win.subsample_threshold, vocab)
        context_w = _down_weight(win.context_threshold(), vocab)
    elif win.subsample_threshold is not None:
        keep_prob = _down_weight(win.subsample_threshold, vocab)
        keep = np.random.default_rng(seed).random(len(ids)) < keep_prob[ids]
        ids, rec = ids[keep], rec[keep]
    starts = range(0, max(tokens.records, 1), max(1, -(-tokens.records // shards)))
    cuts = [*np.searchsorted(rec, starts).tolist(), len(rec)]
    parts = [
        _window_sums(ids[a:b], rec[a:b], n, win, target_w, context_w)
        for a, b in zip(cuts, cuts[1:])
    ]
    if len(parts) == 1:
        key, v = parts.pop()
    else:
        key, v = map(np.concatenate, zip(*parts))
        parts.clear()  # free the chunk sums before the sort
        key, v = sum_by_key(key, v)
    i, j = np.divmod(key, n)
    del key
    return CooccurrenceStats.from_counts(SparseMatrix(n, n, i, j, v))


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
