"""Text and binary file formats, with embedded run provenance.

Every writer can stamp the file with a provenance comment line recording the
command, its configuration, and hashes of its inputs' provenance, so any
artifact can be traced to the run that made it.  Floats are serialized with
repr, which round-trips exactly and keeps identical runs byte-identical.

Triplet files (co-occurrence counts, matrices) also exist in a little-endian
binary form starting with the magic CWB1, holding the same header text and
(uint32, uint32, float64) entries.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import CooccurrenceStats, Vocabulary
from .errors import FormatError, WorkbenchError
from .vectors import Embedding, SparseMatrix

BINARY_MAGIC = b"CWB1"
NEG_INF_TOKEN = "NEG_INF"

PMI_TAGS = ("pmi", "ppmi", "spmi", "sppmi")


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
    upstream = upstream or {}
    prov = Provenance(
        command=command,
        config=dict(config),
        inputs={name: (p.hash() if p else None) for name, p in upstream.items()},
    )
    roots = sorted({p.root for p in upstream.values() if p is not None and p.root})
    if not roots:
        prov.root = prov.hash()
    elif len(roots) == 1:
        prov.root = roots[0]
    else:
        prov.root = None  # genuinely mixed ancestry; report refuses such files
    return prov


def provenance_line(prov: Provenance) -> str:
    body = dict(prov.payload(), root=prov.root)
    return f"# provenance {prov.hash()} {json.dumps(body, sort_keys=True, separators=(',', ':'))}"


def parse_provenance_line(line: str) -> Provenance:
    try:
        _, _, rest = line.partition("# provenance ")
        _, _, blob = rest.partition(" ")
        body = json.loads(blob)
        return Provenance(
            command=body["command"],
            config=body["config"],
            inputs=body["inputs"],
            root=body.get("root"),
        )
    except (ValueError, KeyError) as exc:
        raise FormatError(f"unreadable provenance line: {line[:80]!r}") from exc


def _comment_lines(prov: Provenance | None, meta: dict[str, str] | None = None) -> list[str]:
    lines = []
    if prov is not None:
        lines.append(provenance_line(prov))
    if meta:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# meta {pairs}")
    return lines


def _split_comments(raw_lines: list[str]) -> tuple[list[str], Provenance | None, dict[str, str]]:
    body = []
    prov = None
    meta: dict[str, str] = {}
    for line in raw_lines:
        if line.startswith("# provenance "):
            prov = parse_provenance_line(line)
        elif line.startswith("# meta "):
            for pair in line[len("# meta ") :].split():
                key, _, value = pair.partition("=")
                meta[key] = value
        elif line.startswith("#"):
            continue
        elif line.strip():
            body.append(line)
    return body, prov, meta


# ------------------------------------------------------------------- helpers


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_binary(path: str) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == BINARY_MAGIC


_TRIPLET_DTYPE = np.dtype([("i", "<u4"), ("j", "<u4"), ("v", "<f8")])
_TEXT_TRIPLET_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])


def _write_triplets(path: str, header_lines: list[str], mat: SparseMatrix, binary: bool) -> None:
    """Write the header lines and the stored (i, j, v) entries of mat in (i, j) order."""
    if not binary:
        rows = zip(mat.i.tolist(), mat.j.tolist(), mat.v.tolist())
        _write_text(path, header_lines + [f"{i} {j} {v!r}" for i, j, v in rows])
        return
    triplets = np.empty(mat.nnz, dtype=_TRIPLET_DTYPE)
    triplets["i"], triplets["j"], triplets["v"] = mat.i, mat.j, mat.v
    header_blob = ("\n".join(header_lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        fh.write(struct.pack("<Q", len(triplets)))
        fh.write(triplets.tobytes())


def _read_binary(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BINARY_MAGIC:
        raise FormatError(f"{path}: missing binary magic")
    try:
        (header_len,) = struct.unpack_from("<I", blob, 4)
        (n,) = struct.unpack_from("<Q", blob, 8 + header_len)
        header_lines = blob[8 : 8 + header_len].decode("utf-8").splitlines()
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated or garbled binary header") from exc
    start = 16 + header_len
    if len(blob) - start != n * _TRIPLET_DTYPE.itemsize:
        raise FormatError(f"{path}: binary triplet block does not hold its {n} entries")
    return header_lines, np.frombuffer(blob, dtype=_TRIPLET_DTYPE, offset=start)


def _read_triplets(path: str, parse_header) -> tuple[SparseMatrix, object]:
    """Read a text or binary triplet file into a SparseMatrix.

    parse_header turns the header line's fields into (rows, cols,
    implicit_value, info); the info is returned beside the matrix.  Every
    error names the file.
    """
    if _is_binary(path):
        header_lines, data = _read_binary(path)
        body, _, _ = _split_comments(header_lines)
    else:
        with open(path, encoding="utf-8") as fh:
            body, _, _ = _split_comments(fh.read().splitlines())
        data = np.empty(0, dtype=_TEXT_TRIPLET_DTYPE)
        if len(body) > 1:  # loadtxt warns on an empty body
            try:
                data = np.loadtxt(body[1:], dtype=_TEXT_TRIPLET_DTYPE, comments=None, ndmin=1)
            except ValueError as exc:
                raise FormatError(f"{path}: entries must be 'i j value' lines: {exc}") from exc
    if not body:
        raise FormatError(f"{path}: missing header line")
    try:
        rows, cols, implicit, info = parse_header(body[0].split())
    except ValueError as exc:
        raise FormatError(f"{path}: bad header {body[0]!r}: {exc}") from exc
    try:
        return SparseMatrix(rows, cols, data["i"], data["j"], data["v"], implicit), info
    except WorkbenchError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- vocabulary


def write_vocab(vocab: Vocabulary, path: str, prov: Provenance | None = None) -> None:
    lines = _comment_lines(prov)
    lines += [f"{w}\t{int(c)}" for w, c in zip(vocab.words, vocab.freq)]
    _write_text(path, lines)


def read_vocab(path: str) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        body, _, _ = _split_comments(fh.read().splitlines())
    words = []
    freq = []
    for line in body:
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}: expected 'word<TAB>count', got {line!r}")
        words.append(parts[0])
        try:
            freq.append(int(parts[1]))
        except ValueError as exc:
            raise FormatError(f"{path}: bad count in {line!r}") from exc
    if not words:
        raise FormatError(f"{path}: empty vocabulary file")
    return Vocabulary(words=words, freq=np.array(freq, dtype=np.int64), total_tokens=int(sum(freq)))


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


def read_cooc(path: str) -> CooccurrenceStats:
    counts, total = _read_triplets(path, _cooc_header)
    try:
        stats = CooccurrenceStats.from_counts(counts)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if abs(stats.total - total) > 1e-6 * max(1.0, abs(total)):
        raise FormatError(
            f"{path}: header total {total!r} disagrees with entry sum {stats.total!r}"
        )
    stats.total = total
    return stats


# ------------------------------------------------------------------ matrices


@dataclass
class MatrixInfo:
    tag: str
    k: float
    lam: float | None = None


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
    if tag not in PMI_TAGS:
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


def read_matrix(path: str) -> tuple[SparseMatrix, MatrixInfo]:
    return _read_triplets(path, _matrix_header)


# ---------------------------------------------------------------- embeddings


def write_embedding(emb: Embedding, path: str, prov: Provenance | None = None) -> None:
    lines = [f"{len(emb.words)} {emb.dim}"] + _comment_lines(prov, emb.meta)
    for r, word in enumerate(emb.words):
        cells = []
        for c in range(emb.dim):
            if emb.neg_inf_mask is not None and emb.neg_inf_mask[r, c]:
                cells.append(NEG_INF_TOKEN)
            else:
                cells.append(repr(float(emb.vectors[r, c])))
        lines.append(word + " " + " ".join(cells))
    _write_text(path, lines)


def read_embedding(path: str) -> Embedding:
    with open(path, encoding="utf-8") as fh:
        body, _, meta = _split_comments(fh.read().splitlines())
    if not body:
        raise FormatError(f"{path}: missing embedding header")
    head = body[0].split()
    if len(head) != 2:
        raise FormatError(f"{path}: header must be 'num_words dim', got {body[0]!r}")
    n, dim = int(head[0]), int(head[1])
    if len(body) - 1 != n:
        raise FormatError(f"{path}: header promises {n} rows, found {len(body) - 1}")
    words = []
    vectors = np.zeros((n, dim))
    mask = np.zeros((n, dim), dtype=bool)
    for r, line in enumerate(body[1:]):
        parts = line.split()
        if len(parts) != dim + 1:
            raise FormatError(f"{path}: row {r} has {len(parts) - 1} values, expected {dim}")
        words.append(parts[0])
        for c, cell in enumerate(parts[1:]):
            if cell == NEG_INF_TOKEN:
                mask[r, c] = True
            else:
                vectors[r, c] = float(cell)
    return Embedding(
        words=words,
        vectors=vectors,
        neg_inf_mask=mask if mask.any() else None,
        meta=meta,
    )


# ------------------------------------------------------------------ datasets


def read_similarity(path: str) -> list[tuple[str, str, float]]:
    with open(path, encoding="utf-8") as fh:
        body, _, _ = _split_comments(fh.read().splitlines())
    out = []
    for line in body:
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}: expected 'word1<TAB>word2<TAB>score', got {line!r}")
        try:
            out.append((parts[0], parts[1], float(parts[2])))
        except ValueError as exc:
            raise FormatError(f"{path}: bad score in {line!r}") from exc
    return out


# ---------------------------------------------------------------- provenance scan


def read_provenance(path: str) -> Provenance | None:
    """Extract the provenance stamp from any workbench file, if present."""
    if _is_binary(path):
        lines, _ = _read_binary(path)
    else:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        if line.startswith("# provenance "):
            return parse_provenance_line(line)
    return None
