"""Shared containers: the sparse triplet matrix, counts, vocabulary and word vectors.

A SparseMatrix stores its entries as sorted (i, j, v) columns; counts, PMI
matrices, closed-form solutions and ALS targets all use it.  CooccurrenceStats
holds a count matrix with its marginals, and is the one place a stored pair
meets them.  A Vocabulary lists the counted words; an Embedding is a labelled
matrix of word vectors, every entry a float.  These are the types the file
formats read and write, so reading a file needs no counting code.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DegenerateMarginalError, DimensionMismatchError, DomainError, FormatError
from .errors import MarkerContaminationError, UnknownWordError

CHARS_PER_PIECE = 1 << 18  # text split into lines at a time, by text_pieces


def sum_by_key(key: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of v over each, added in input order."""
    # np.unique(key, return_inverse=True) with one key-length buffer fewer: the ranks
    # overwrite the sorted keys (searchsorted into np.unique(key) is leaner but 4x slower)
    perm = np.argsort(key)
    ranked = key[perm]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    distinct = ranked[new]
    np.cumsum(new, out=ranked)
    ranked -= 1
    slot = np.empty_like(perm)
    slot[perm] = ranked
    del perm, ranked
    return distinct, np.bincount(slot, weights=v, minlength=len(distinct))


@dataclass
class SparseMatrix:
    """Sparse matrix as index and value columns, with an explicit meaning for absence.

    i and j hold the row and column of each stored entry and v its value,
    sorted by (i, j) with each pair at most once; the constructor sorts
    unsorted input and rejects out-of-range indices and repeated pairs.
    implicit_value is the value of absent entries; None means absent entries
    have no single value (minus infinity, or a curvature that differs per
    pair) and must never reach dense linear algebra.
    """

    rows: int
    cols: int
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray
    implicit_value: float | None = 0.0

    def __post_init__(self) -> None:
        self.i = np.ascontiguousarray(self.i, dtype=np.int64)
        self.j = np.ascontiguousarray(self.j, dtype=np.int64)
        self.v = np.ascontiguousarray(self.v, dtype=float)
        if self.i.ndim != 1 or not self.i.shape == self.j.shape == self.v.shape:
            raise DimensionMismatchError("i, j and v must be 1-d arrays of one length")
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError(f"negative matrix shape {self.rows} x {self.cols}")
        where = f"pair {{pair}} outside a {self.rows} x {self.cols} matrix"
        _refuse_pair((self.i < 0) | (self.i >= self.rows) | (self.j < 0) | (self.j >= self.cols),
                     self.i, self.j, where, DimensionMismatchError)
        keys = self._keys()  # adjacent keys compare as bool masks, each freed once checked
        if (keys[1:] < keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            self.i, self.j, self.v, keys = self.i[order], self.j[order], self.v[order], keys[order]
        _refuse_pair(keys[1:] == keys[:-1], self.i, self.j, "pair {pair} is stored twice",
                     FormatError)

    @classmethod
    def summed(cls, rows: int, cols: int, key: np.ndarray, v: np.ndarray) -> "SparseMatrix":
        """Matrix whose entry (i, j) is the sum of v over key == i * cols + j, in input order."""
        key, v = sum_by_key(key, v)
        return cls(rows, cols, key // cols, key % cols, v)

    @property
    def nnz(self) -> int:
        return len(self.v)

    def pair(self, p: int) -> tuple[int, int]:
        """The (i, j) index of the stored entry at position p."""
        return int(self.i[p]), int(self.j[p])

    def _keys(self) -> np.ndarray:
        return self.i * self.cols + self.j

    def find(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the in-range pairs (i, j) in the stored columns, and which are stored."""
        keys = self._keys()
        want = np.asarray(i) * self.cols + np.asarray(j)
        pos = np.searchsorted(keys, want)
        # a -1 sentinel past the end matches no pair, so pos == nnz needs no branch
        return pos, np.append(keys, -1)[pos] == want

    def to_dense(self) -> np.ndarray:
        if self.implicit_value is None:
            raise MarkerContaminationError("matrix has undefined absent entries; cannot densify")
        dense = np.full((self.rows, self.cols), self.implicit_value)
        dense[self.i, self.j] = self.v
        return dense


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
        _refuse_pair(~(np.isfinite(counts.v) & (counts.v >= 0.0)), counts.i, counts.j,
                     "pair {pair} has weight {value!r}, not a finite value >= 0", FormatError,
                     counts.v)
        keep = counts.v != 0.0
        if not keep.all():
            counts = SparseMatrix(
                counts.rows, counts.cols, counts.i[keep], counts.j[keep], counts.v[keep]
            )
        row = np.bincount(counts.i, weights=counts.v, minlength=counts.rows)
        col = np.bincount(counts.j, weights=counts.v, minlength=counts.cols)
        return cls(counts, row, col, float(row.sum()))

    @property
    def n_words(self) -> int:
        return self.counts.rows

    def restrict(self, positions) -> "CooccurrenceStats":
        """A view of the stored pairs at positions, each with the whole file's marginals and total.

        Any per-pair builder (`build_matrix`, `solve_stats`, `regularize_stats`)
        gives a kept pair the value it gives that pair in the whole file.  The
        view's marginals and total are therefore not the sums of its counts.
        """
        c = self.counts
        kept = SparseMatrix(c.rows, c.cols, c.i[positions], c.j[positions], c.v[positions])
        return CooccurrenceStats(kept, self.row_marginal, self.col_marginal, self.total)

    def pair_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(#(w,c), #(w,.), #(.,c)) of the stored pairs.

        The one place a pair meets its marginals, and the one gather of every
        per-pair command.  Counts with no pair mass (|D| = 0) are refused
        (DegenerateMarginalError).  Every closed form is a function of the
        pmi, so a pair whose #(w,c)|D| or #(w,.)#(.,c) leaves the float range
        (inf, or 0 from positive factors) is refused.  The negative mass's
        k#(w,.)#(.,c) is then nonzero too (k >= 1); a huge k that overflows
        it makes a NaN score or weight, which `pair_matrix` refuses.
        """
        if not self.total > 0.0:
            raise DegenerateMarginalError(f"total pair mass must be positive, got {self.total}")
        c = self.counts
        n_w, n_c = self.row_marginal[c.i], self.col_marginal[c.j]
        with np.errstate(over="ignore"):
            for name, a, b in (("#(w,c)|D|", c.v, self.total), ("#(w,.)#(.,c)", n_w, n_c)):
                product = a * b
                _refuse_pair(~((product > 0.0) & (product < np.inf)), c.i, c.j,
                             name + " of pair {pair} leaves the float range")
        return c.v, n_w, n_c

    def pair_matrix(self, v, implicit_value: float | None, what: str, keep=None) -> SparseMatrix:
        """The stored pairs, or those where keep is true, with values v; absent ones implicit_value.

        The one home of per-pair matrices: it refuses a stored or implicit
        value that is not finite, which only the edges of the float range make.
        """
        if implicit_value is not None and not np.isfinite(implicit_value):
            raise DomainError(f"{what} of absent pairs is not finite ({implicit_value!r})")
        c = self.counts
        i, j, v = (c.i, c.j, v) if keep is None else (c.i[keep], c.j[keep], v[keep])
        _refuse_pair(~np.isfinite(v), i, j, what + " of pair {pair} is not finite (NaN or inf)")
        return SparseMatrix(c.rows, c.cols, i, j, v, implicit_value)


def _refuse_pair(bad: np.ndarray, i, j, message: str, error=DomainError, values=None) -> None:
    """Raise error for the first pair (i, j) where bad holds: the one first-bad-pair check.

    message is formatted with that pair as {pair} and, given values, its
    value as a float as {value}.
    """
    if bad.any():
        p = int(np.argmax(bad))
        value = None if values is None else float(values[p])
        raise error(message.format(pair=(int(i[p]), int(j[p])), value=value))


def word_index(words: list[str]) -> dict[str, int]:
    """The position of each word; a repeated word is refused."""
    index = {w: i for i, w in enumerate(words)}
    if len(index) != len(words):
        repeated = next(w for i, w in enumerate(words) if index[w] != i)
        raise FormatError(f"word {repeated!r} is repeated")
    return index


@dataclass
class Vocabulary:
    """Words ordered by descending raw count, ties broken lexicographically."""

    words: list[str]
    freq: np.ndarray
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.freq = np.asarray(self.freq, dtype=np.int64)
        self.index = word_index(self.words)

    @property
    def total_tokens(self) -> int:
        return int(self.freq.sum())

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def id_of(self, word: str) -> int:
        return self.index[word]


def text_pieces(text: str, start: int) -> Iterator[str]:
    """text[start:] in pieces of about CHARS_PER_PIECE characters, each cut just after a newline.

    A cut after "\n" ends a line, so the pieces' splitlines() are the lines of
    the whole.
    """
    while start < len(text):
        end = text.find("\n", start + CHARS_PER_PIECE) + 1 or len(text)
        yield text[start:end]
        start = end


@dataclass
class Embedding:
    """Word vectors with row labels: vectors has shape (len(words), dim), one row per word."""

    words: list[str]
    vectors: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.words):
            raise ValueError("vector matrix shape does not match word list")
        self._index = word_index(self.words)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise UnknownWordError(f"word not in embedding: {word!r}") from None

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index(word)]

    def indices(self, words) -> np.ndarray:
        """Row of each word, or -1 for a word not in the embedding."""
        found = map(self._index.get, words, itertools.repeat(-1))
        return np.fromiter(found, dtype=np.int64, count=len(words))
