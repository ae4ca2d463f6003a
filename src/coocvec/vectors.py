"""Shared containers: the sparse triplet matrix and dense word vectors.

A SparseMatrix stores its entries as sorted (i, j, v) columns; counts, PMI
matrices, closed-form solutions and ALS targets all use it.  An Embedding is a
labelled matrix of word vectors, every entry a float.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, FormatError, MarkerContaminationError, UnknownWordError


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
        bad = (self.i < 0) | (self.i >= self.rows) | (self.j < 0) | (self.j >= self.cols)
        if bad.any():
            pair = self.pair(int(np.argmax(bad)))
            raise DimensionMismatchError(f"pair {pair} outside a {self.rows} x {self.cols} matrix")
        keys = self._keys()
        if (np.diff(keys) < 0).any():
            order = np.argsort(keys, kind="stable")
            self.i, self.j, self.v, keys = self.i[order], self.j[order], self.v[order], keys[order]
        repeated = np.diff(keys) == 0
        if repeated.any():
            raise FormatError(f"pair {self.pair(int(np.argmax(repeated)))} is stored twice")

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
            raise MarkerContaminationError(
                "matrix has undefined absent entries; cannot densify"
            )
        dense = np.full((self.rows, self.cols), self.implicit_value)
        dense[self.i, self.j] = self.v
        return dense


def word_index(words: list[str]) -> dict[str, int]:
    """The position of each word; a repeated word is refused."""
    index = {w: i for i, w in enumerate(words)}
    if len(index) != len(words):
        repeated = next(w for i, w in enumerate(words) if index[w] != i)
        raise FormatError(f"word {repeated!r} is repeated")
    return index


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

