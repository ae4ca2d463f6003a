"""Fuzzing every file kind the workbench reads, through the command line.

Each example starts from a file the program wrote, damages it with byte
edits, token swaps and truncations, and runs the command that consumes it in
process.  The command must succeed or print exactly one `error <category>:`
line; an uncaught exception fails the test.
"""
import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coocvec import read_embedding, write_embedding
from coocvec.cli import main

CORPUS = (
    "#tag the quick fox saw the slow fox\n"
    "the slow # fox saw the quick cat #tag\n"
    "a cat saw # the quick fox\n"
)
# Sizes a damaged header may promise.  Dense consumers (SVD, the report)
# allocate rows x cols floats, so each size stays <= 1000, which keeps every
# allocation <= 10**6 cells (8 MB) and no example can exhaust the machine.
MAX_HEADER_SIZE = 1000
INSERTS = [b" ", b"\t", b"\n", b"#", b"# ", b"-", b".", b"0", b"7", b"e", b"x", b"\xff", b"\xc3",
           b"nan", b"inf", b"-inf", b"NEG_INF", b"# provenance ", b"# meta k=v", b"CWB1"]


def cli(*argv: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Files of every kind, written by the program from one small corpus."""
    d = tmp_path_factory.mktemp("written")
    corpus = d / "corpus.txt"
    corpus.write_text(CORPUS)
    p = {key: str(d / name) for key, name in (
        ("counts_txt", "counts.txt"), ("counts_bin", "counts.bin"), ("ppmi_txt", "ppmi.txt"),
        ("ppmi_bin", "ppmi.bin"), ("emb", "emb.txt"), ("sim", "sim.tsv"))}
    assert cli("count", "--input", str(corpus), "--output", p["counts_txt"])[0] == 0
    assert cli("count", "--input", str(corpus), "--output", p["counts_bin"], "--binary")[0] == 0
    for key, binary in (("ppmi_txt", []), ("ppmi_bin", ["--binary"])):
        assert cli("pmi", "--cooc", p["counts_txt"], "--output", p[key], "--variant", "ppmi",
                   *binary)[0] == 0
    p["sol"], p["alpha"] = str(d / "sol.txt"), str(d / "alpha.txt")
    assert cli("solve", "--cooc", p["counts_txt"], "--output", p["sol"], "--loss", "squared",
               "--alpha-out", p["alpha"])[0] == 0
    p["vocab"] = p["counts_txt"] + ".vocab"
    assert cli("factorize", "--matrix", p["ppmi_txt"], "--output", p["emb"], "--dim", "3",
               "--vocab", p["vocab"])[0] == 0
    emb = read_embedding(p["emb"])
    emb.neg_inf_mask = np.zeros(emb.vectors.shape, dtype=bool)
    emb.neg_inf_mask[[0, 2], [1, 0]] = True
    write_embedding(emb, p["emb"])
    with open(p["sim"], "w") as fh:
        fh.write("fox\tcat\t7.0\n#tag\t#\t2.5\nthe\tslow\t1.0\nquick\tsaw\t4.0\n")
    return p


# kind -> (the written file it starts from, whether its first line is a sized
# header, the consuming command with {} for the damaged file)
KINDS = {
    "alpha": ("alpha", True,
              "factorize --weighted --matrix {sol} --alpha {} --output {out} --dim 2 --epochs 2"),
    "cooc-text": ("counts_txt", True, "pmi --cooc {} --output {out} --variant ppmi"),
    "cooc-binary": ("counts_bin", True, "pmi --cooc {} --output {out} --variant ppmi"),
    "matrix-text": ("ppmi_txt", True, "factorize --matrix {} --output {out} --dim 2"),
    "matrix-binary": ("ppmi_bin", True, "factorize --matrix {} --output {out} --dim 2"),
    "vocab": ("vocab", False, "factorize --matrix {ppmi_txt} --vocab {} --output {out} --dim 2"),
    "embedding": ("emb", True, "eval --embedding {} --dataset {sim}"),
    "similarity": ("sim", False, "eval --embedding {emb} --dataset {}"),
}


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    data = bytes(blob)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "swap", "truncate"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "replace" and data:
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at + 1 :]
        elif op == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)) :]
        elif op == "swap":
            tokens = list(re.finditer(rb"\S+", data))
            if len(tokens) >= 2:
                a, b = sorted(draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2,
                                            unique_by=lambda m: m.start())), key=lambda m: m.start())
                data = (data[: a.start()] + b.group() + data[a.end() : b.start()] + a.group()
                        + data[b.end() :])
        else:
            data = data[:at]
    return data


def header_sizes_fit(data: bytes) -> bool:
    """Every integer in the first line (the header of a sized file) is <= MAX_HEADER_SIZE."""
    first = data[8:] if data.startswith(b"CWB1") else data
    line = first.split(b"\n", 1)[0].decode("utf-8", errors="replace")
    return all(int(n) <= MAX_HEADER_SIZE for n in re.findall(r"\d+", line))


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_file_succeeds_or_is_one_error_line(written, tmp_path_factory, kind, data):
    source, sized, command = KINDS[kind]
    with open(written[source], "rb") as fh:
        blob = data.draw(damaged(fh.read()), label="file")
    assume(not sized or header_sizes_fit(blob))
    work = tmp_path_factory.mktemp("fuzz")
    target = work / "damaged"
    target.write_bytes(blob)
    argv = command.format(str(target), out=str(work / "out"), **written).split()
    code, err = cli(*argv)
    lines = err.splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1), (code, err)
    if code:
        assert re.match(r"error [a-z-]+: ", lines[0]), lines
