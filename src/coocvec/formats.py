"""Text and binary file formats, with embedded run provenance.

Every writer can stamp the file with a provenance line recording the
command, its configuration, and hashes of its inputs' provenance, so any
artifact can be traced to the run that made it.  Floats are serialized with
repr, which round-trips exactly and keeps identical runs byte-identical.

Triplet files (co-occurrence counts, matrices) also exist in a little-endian
binary form starting with the magic CWB1, holding the same header text and
(uint32, uint32, float64) entries.

Every reader opens its file once, decodes it as UTF-8, takes the header line
and the leading block of stamps, and parses the body rows with one array
parser; any malformed content ends in one error that names the file.

Text bodies are written and parsed in fixed blocks: a writer formats
PAIRS_PER_WRITE stored pairs (or ROWS_PER_WRITE embedding rows) at a time,
and the parser takes the lines of about corpus.CHARS_PER_PIECE characters at
a time, so neither holds a Python string for every row of a file.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import CooccurrenceStats, Vocabulary, text_pieces
from .errors import FormatError, WorkbenchError
from .pmi import VARIANTS
from .vectors import Embedding, SparseMatrix

BINARY_MAGIC = b"CWB1"
STAMPS = ("# provenance ", "# meta ")
ROWS_PER_WRITE = 256  # embedding or vocabulary rows held as Python objects at a time
PAIRS_PER_WRITE = 4096  # stored pairs held as Python numbers and strings at a time


# ---------------------------------------------------------------- provenance


@dataclass
class Provenance:
    """One run's identity: command, settings, and upstream hashes."""

    command: str
    config: dict
    inputs: dict[str, str | None] = field(default_factory=dict)
    root: str | None = None

    def payload(self) -> dict:
        return {"command": self.command, "config": self.config, "inputs": self.inputs}

    def hash(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def make_provenance(
    command: str, config: dict, upstream: dict[str, "Provenance | None"] | None = None
) -> Provenance:
    """A run's stamp, whose root is the one root all of its stamped inputs share.

    Without a stamped input the run is its own root; two roots or a rootless
    input give None.  An unstamped input (None) is recorded as null.
    """
    upstream = upstream or {}
    prov = Provenance(
        command=command,
        config=dict(config),
        inputs={name: (p.hash() if p else None) for name, p in upstream.items()},
    )
    roots = {p.root for p in upstream.values() if p is not None}
    if not roots:
        prov.root = prov.hash()
    elif len(roots) == 1 and None not in roots:
        prov.root = roots.pop()
    else:
        prov.root = None  # mixed or rootless ancestry stays mixed; report refuses it
    return prov


def provenance_line(prov: Provenance) -> str:
    body = dict(prov.payload(), root=prov.root)
    return f"# provenance {prov.hash()} {json.dumps(body, sort_keys=True, separators=(',', ':'))}"


def parse_provenance_line(line: str) -> Provenance:
    try:
        _, _, rest = line.partition("# provenance ")
        _, _, blob = rest.partition(" ")
        body = json.loads(blob)
        prov = Provenance(
            command=body["command"],
            config=body["config"],
            inputs=body["inputs"],
            root=body.get("root"),
        )
        if not isinstance(prov.root, (str, type(None))):
            raise TypeError("root must be a string or null")
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise FormatError(f"unreadable provenance line: {line[:80]!r}") from exc
    return prov


def _comment_lines(prov: Provenance | None, meta: dict[str, str] | None = None) -> list[str]:
    lines = []
    if prov is not None:
        lines.append(provenance_line(prov))
    if meta:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# meta {pairs}")
    return lines


# ------------------------------------------------------------------- reading


def _reader(read):
    """Name the file in the one error read raises for malformed content."""

    @functools.wraps(read)
    def named(path: str, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except WorkbenchError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except (ValueError, OverflowError) as exc:  # UnicodeDecodeError is a ValueError
            raise FormatError(f"{path}: {exc}") from exc

    return named


_TRIPLET_DTYPE = np.dtype([("i", "<u4"), ("j", "<u4"), ("v", "<f8")])
_TEXT_TRIPLET_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])
_VOCAB_DTYPE = np.dtype([("word", object), ("count", np.int64)])
_SIMILARITY_DTYPE = np.dtype([("a", object), ("b", object), ("score", float)])


def _line(text: str, pos: int) -> tuple[str, int]:
    """The line of text that starts at pos, and where the next one starts."""
    end = text.find("\n", pos)
    return (text[pos:], len(text)) if end < 0 else (text[pos:end], end + 1)


def _read(path: str, header: bool = True, stamps=STAMPS, magic: bool = False):
    """Open path once; return its header line, provenance, meta, body and body start.

    The header line comes first unless the file opens with a stamp; the
    stamps follow it.  The body is the decoded text, whose rows begin at the
    start offset, or, with magic set and a file that starts with
    BINARY_MAGIC, the binary entries (start 0).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    body = None
    if magic and blob[:4] == BINARY_MAGIC:
        try:
            (header_len,) = struct.unpack_from("<I", blob, 4)
            (n,) = struct.unpack_from("<Q", blob, 8 + header_len)
        except struct.error as exc:
            raise FormatError("truncated or garbled binary header") from exc
        start = 16 + header_len
        if len(blob) - start != n * _TRIPLET_DTYPE.itemsize:
            raise FormatError(f"binary triplet block does not hold its {n} entries")
        body = np.frombuffer(blob, dtype=_TRIPLET_DTYPE, offset=start)
        blob = blob[8 : 8 + header_len]
    text, blob = str(blob, "utf-8"), None
    head, prov, meta, pos = "", None, {}, 0
    if header and not text.startswith(STAMPS):
        head, pos = _line(text, pos)
    while text.startswith(stamps, pos):
        line, pos = _line(text, pos)
        if line.startswith("# provenance "):
            prov = parse_provenance_line(line)
        elif line.startswith("# meta "):
            meta.update(pair.partition("=")[::2] for pair in line[len("# meta ") :].split())
    return (head, prov, meta, text, pos) if body is None else (head, prov, meta, body, 0)


_BLANK = re.compile(r"\s*")


def _table(text: str, start: int, dtype: np.dtype, layout: str, delimiter=None) -> np.ndarray:
    """Parse the rows of text[start:] straight into a structured array of dtype.

    Blank lines are skipped; an empty body gives an empty table.  The lines
    are those of text[start:].splitlines(), taken a piece at a time.
    """
    if _BLANK.match(text, start).end() == len(text):
        return np.empty(0, dtype=dtype)
    pieces = text_pieces(text, start)
    lines = itertools.chain.from_iterable(map(str.splitlines, pieces))
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError as exc:
        reason = str(exc).split("; use `usecols`")[0]
        raise FormatError(f"rows must be {layout!r}: {reason}") from exc


@_reader
def read_text(path: str) -> str:
    """A whole text file (a corpus, a config file) decoded as UTF-8."""
    return _read(path, header=False, stamps=())[3]


@_reader
def read_provenance(path: str) -> Provenance | None:
    """The provenance stamp of any workbench file, if present."""
    return _read(path, magic=True)[1]


# ------------------------------------------------------------------- writing


def _write_text(path: str, head: list[str], n: int, step: int, rows) -> None:
    """Write the head lines, then the n body rows step at a time.

    rows(a, b) returns the text of body rows a to b - 1 (b may pass n),
    each ending in a newline.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in head))
        for a in range(0, n, step):
            fh.write(rows(a, a + step))


def _write_triplets(path: str, header_lines: list[str], mat: SparseMatrix, binary: bool) -> None:
    """Write the header lines and the stored (i, j, v) entries of mat in (i, j) order."""
    if not binary:
        top = max(mat.i.max(initial=-1), mat.j.max(initial=-1)) + 1
        label = [f"{k} " for k in range(top)].__getitem__  # "k " for every stored index k

        def pairs(a: int, b: int) -> str:
            v = mat.v[a:b].tolist()
            out = ["\n"] * (4 * len(v))
            out[0::4] = map(label, mat.i[a:b].tolist())
            out[1::4] = map(label, mat.j[a:b].tolist())
            out[2::4] = map(repr, v)
            return "".join(out)

        _write_text(path, header_lines, mat.nnz, PAIRS_PER_WRITE, pairs)
        return
    triplets = np.empty(mat.nnz, dtype=_TRIPLET_DTYPE)
    triplets["i"], triplets["j"], triplets["v"] = mat.i, mat.j, mat.v
    header_blob = ("\n".join(header_lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        fh.write(struct.pack("<Q", len(triplets)))
        fh.write(triplets)


def _read_triplets(path: str, parse_header) -> tuple[SparseMatrix, object, Provenance | None]:
    """Read a text or binary triplet file into a SparseMatrix.

    parse_header turns the header line's fields into (rows, cols,
    implicit_value, info); info and the file's stamp come back beside the matrix.
    """
    head, prov, _, body, start = _read(path, magic=True)
    try:
        rows, cols, implicit, info = parse_header(head.split())
    except ValueError as exc:
        raise FormatError(f"bad header {head!r}: {exc}") from exc
    if isinstance(body, str):
        body = _table(body, start, _TEXT_TRIPLET_DTYPE, "i j value")
    return SparseMatrix(rows, cols, body["i"], body["j"], body["v"], implicit), info, prov


# ---------------------------------------------------------------- vocabulary


def write_vocab(vocab: Vocabulary, path: str, prov: Provenance | None = None) -> None:
    def rows(a: int, b: int) -> str:
        return "".join(f"{w}\t{c}\n" for w, c in zip(vocab.words[a:b], vocab.freq[a:b].tolist()))

    _write_text(path, _comment_lines(prov), len(vocab.words), ROWS_PER_WRITE, rows)


@_reader
def read_vocab(path: str) -> tuple[Vocabulary, Provenance | None]:
    _, prov, _, text, start = _read(path, header=False)
    table = _table(text, start, _VOCAB_DTYPE, "word<TAB>count", "\t")
    if not len(table):
        raise FormatError("empty vocabulary file")
    return Vocabulary(words=table["word"].tolist(), freq=table["count"]), prov


# ------------------------------------------------------------- co-occurrence


def write_cooc(
    stats: CooccurrenceStats,
    path: str,
    prov: Provenance | None = None,
    binary: bool = False,
) -> None:
    header = [f"{stats.n_words} {float(stats.total)!r}"] + _comment_lines(prov)
    _write_triplets(path, header, stats.counts, binary)


def _cooc_header(fields: list[str]) -> tuple[int, int, float, float]:
    if len(fields) != 2:
        raise ValueError("expected 'num_words total_mass'")
    n_words = int(fields[0])
    return n_words, n_words, 0.0, float(fields[1])


@_reader
def read_cooc(path: str) -> tuple[CooccurrenceStats, Provenance | None]:
    counts, total, prov = _read_triplets(path, _cooc_header)
    stats = CooccurrenceStats.from_counts(counts)
    if abs(stats.total - total) > 1e-6 * max(1.0, abs(total)):
        raise FormatError(f"header total {total!r} disagrees with entry sum {stats.total!r}")
    stats.total = total
    return stats, prov


# ------------------------------------------------------------------ matrices


@dataclass
class MatrixInfo:
    tag: str
    k: float
    lam: float | None = None
    prov: Provenance | None = None


def write_matrix(
    mat: SparseMatrix,
    path: str,
    tag: str,
    k: float,
    lam: float | None = None,
    prov: Provenance | None = None,
    binary: bool = False,
) -> None:
    head = f"{mat.rows} {mat.cols} {tag} {float(k)!r}"
    if lam is not None:
        head += f" lambda={float(lam)!r}"
    if tag not in VARIANTS:
        implicit = "none" if mat.implicit_value is None else repr(float(mat.implicit_value))
        head += f" implicit={implicit}"
    _write_triplets(path, [head] + _comment_lines(prov), mat, binary)


def _matrix_header(fields: list[str]) -> tuple[int, int, float | None, MatrixInfo]:
    if len(fields) < 4:
        raise ValueError("expected 'rows cols tag k' first")
    rows, cols, tag, k = int(fields[0]), int(fields[1]), fields[2], float(fields[3])
    lam = None
    implicit_token = None
    for extra in fields[4:]:
        key, _, value = extra.partition("=")
        if key == "lambda":
            lam = float(value)
        elif key == "implicit":
            implicit_token = value
        else:
            raise ValueError(f"unknown header field {extra!r}")
    if implicit_token is not None:
        implicit = None if implicit_token == "none" else float(implicit_token)
    elif tag in ("ppmi", "sppmi"):
        implicit = 0.0
    elif tag in ("pmi", "spmi"):
        implicit = None
    else:
        raise ValueError(f"tag {tag!r} needs an explicit implicit= field")
    return rows, cols, implicit, MatrixInfo(tag=tag, k=k, lam=lam)


@_reader
def read_matrix(path: str) -> tuple[SparseMatrix, MatrixInfo]:
    """The matrix and its header fields, with the file's provenance stamp in info.prov."""
    matrix, info, prov = _read_triplets(path, _matrix_header)
    return matrix, replace(info, prov=prov)


# ---------------------------------------------------------------- embeddings


def write_embedding(emb: Embedding, path: str, prov: Provenance | None = None) -> None:
    def rows(a: int, b: int) -> str:
        cells = zip(emb.words[a:b], emb.vectors[a:b].tolist())
        return "".join(" ".join([w, *map(str, v)]) + "\n" for w, v in cells)  # str(float) is repr

    head = [f"{len(emb.words)} {emb.dim}"] + _comment_lines(prov, emb.meta)
    _write_text(path, head, len(emb.words), ROWS_PER_WRITE, rows)


@_reader
def read_embedding(path: str) -> tuple[Embedding, Provenance | None]:
    head, prov, meta, text, start = _read(path)
    fields = head.split()
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        raise FormatError(f"header must be 'num_words dim' (two integers >= 0), got {head!r}")
    n, dim = int(fields[0]), int(fields[1])
    if n and 2 * dim + 1 > len(text) - start:  # a row spells at least a word and dim cells
        raise FormatError(f"header promises rows of {dim} values; the file is too short")
    dtype = np.dtype([("word", object), ("cells", float, (dim,))])
    table = _table(text, start, dtype, f"word and {dim} values")
    if len(table) != n:
        raise FormatError(f"header promises {n} rows, found {len(table)}")
    vectors = np.ascontiguousarray(table["cells"])
    if not np.isfinite(vectors).all():
        raise FormatError("cells must be finite numbers")
    return Embedding(words=table["word"].tolist(), vectors=vectors, meta=meta), prov


# ------------------------------------------------------------------ datasets


@_reader
def read_similarity(path: str) -> list[tuple[str, str, float]]:
    """Scored word pairs; a dataset, which no command writes, may open with `# ` comments."""
    _, _, _, text, start = _read(path, header=False, stamps="# ")
    table = _table(text, start, _SIMILARITY_DTYPE, "word1<TAB>word2<TAB>score", "\t")
    bad = ~np.isfinite(table["score"])
    if bad.any():
        a, b, score = table[int(np.argmax(bad))]
        raise FormatError(f"pair {a!r}, {b!r} has score {score!r}, not a finite number")
    return list(zip(table["a"].tolist(), table["b"].tolist(), table["score"].tolist()))
