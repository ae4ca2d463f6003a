"""Fuzzing every file kind the workbench reads, and the per-pair commands, through the CLI.

Each damaged-file example starts from a file the program wrote (the config
file and the similarity dataset are written by the fixture), damages it with
byte edits, token swaps and truncations, and runs the command that consumes
it in process.  Each per-pair example draws a counts file (a seeded count of
a benchmark corpus, or one at an edge of the float range) and one `pmi`,
`solve`, `regularize` or `report` run over it.  Every command must succeed or
print exactly one `error <category>:` line; an uncaught exception fails the
test.  A `regularize` run that succeeds must score absent pairs at the root
of their stationarity condition, whatever k and lam.  The per-pair tests
are derandomized, so their examples are the same on every run.
"""
import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coocvec.cli import main
from coocvec.closed_form import LOSS_NAMES
from coocvec.formats import read_matrix
from coocvec.pmi import VARIANTS
from coocvec.regularization import REG_KINDS
from helpers import EDGE_COUNTS, bench_gen
from oracles import absent_pair_root

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
        ("ppmi_bin", "ppmi.bin"), ("emb", "emb.txt"), ("sim", "sim.tsv"), ("config", "count.cfg"),
        ("corpus", "corpus.txt"))}
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
    with open(p["sim"], "w") as fh:
        fh.write("fox\tcat\t7.0\n#tag\t#\t2.5\nthe\tslow\t1.0\nquick\tsaw\t4.0\n")
    with open(p["config"], "w") as fh:
        fh.write("left=1\nright=2\nmin_count=1\nstochastic=false\nsubsample=0.01\n")
    assert cli("count", "--config", p["config"], "--input", p["corpus"],
               "--output", str(d / "configured.txt"))[0] == 0
    return p


# kind -> (the written file it starts from, whether its first line is a sized
# header, the consuming command with {} for the damaged file)
KINDS = {
    "alpha": ("alpha", True,
              "factorize --weighted --matrix {sol} --alpha {} --output {out} --dim 2 --epochs 2"),
    "config": ("config", False, "count --config {} --input {corpus} --output {out}"),
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


# ------------------------------------------------------------ per-pair commands

PER_PAIR_EXAMPLES = 120  # examples of one command over one counts file
PARITY_EXAMPLES = 25  # counts files each refused or accepted alike by three commands
KS = ("1", "5", "1e30", "1e300")
LAMS = tuple(f"1e{e}" for e in range(-310, 2))  # decades from 1e-310 to 10


@pytest.fixture(scope="module")
def gen_counts(tmp_path_factory):
    """Counts of two seeded benchmark corpora, one file text and one binary."""
    gen = bench_gen()
    d = tmp_path_factory.mktemp("gen-counts")
    paths = {}
    for seed, binary in ((1, []), (2, ["--binary"])):
        corpus = d / f"corpus-{seed}.txt"
        corpus.write_text(gen.corpus_text(gen.make_corpus(2000, seed)))
        paths[f"gen-{seed}"] = str(d / f"counts-{seed}")
        assert cli("count", "--input", str(corpus), "--output", paths[f"gen-{seed}"],
                   "--min-count", "2", *binary)[0] == 0
    return paths


@st.composite
def counts_files(draw) -> tuple[str, str | None]:
    """(name, text): a seeded count (text None: the fixture wrote it), an edge file, or
    one to four pairs of a 3-word matrix with weights near 1e-300 or 1e300."""
    name = draw(st.sampled_from(["gen-1", "gen-2", *EDGE_COUNTS, "extreme-weights"]))
    if name != "extreme-weights":
        return name, EDGE_COUNTS.get(name)
    pairs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1,
                          max_size=4, unique=True))
    weights = [draw(st.sampled_from([1.0, 3.7, 9.9])) * 10.0 ** draw(st.sampled_from(
        [-305, -300, -295, 295, 300, 305])) for _ in pairs]
    body = "".join(f"{i} {j} {w!r}\n" for (i, j), w in sorted(zip(pairs, weights)))
    return name, f"3 {math.fsum(weights)!r}\n{body}"


@st.composite
def per_pair_commands(draw) -> list[str]:
    """One pmi, solve, regularize or report run, with its options but no paths."""
    k = ["--k", draw(st.sampled_from(KS))]
    command = draw(st.sampled_from(["pmi", "solve", "regularize", "report"]))
    if command == "pmi":
        return ["pmi", "--variant", draw(st.sampled_from(VARIANTS)), *k]
    if command == "solve":
        alpha = ["--alpha-out", "{alpha}"] if draw(st.booleans()) else []
        return ["solve", "--loss", draw(st.sampled_from(LOSS_NAMES)), *k, *alpha]
    if command == "regularize":
        return ["regularize", "--reg", draw(st.sampled_from(REG_KINDS)),
                "--lam", draw(st.sampled_from(LAMS)), *k]
    return ["report", *k]


def counts_path(counts: tuple[str, str | None], gen_counts, work) -> str:
    name, text = counts
    if text is None:
        return gen_counts[name]
    path = work / "counts.txt"
    path.write_text(text)
    return str(path)


def run_per_pair(argv: list[str], cooc: str, out_dir) -> tuple[int, list[str], dict]:
    """Run argv on cooc with its outputs in out_dir: the exit code, the stderr lines and
    the bytes of every file in out_dir."""
    argv = [a.format(alpha=out_dir / "alpha") for a in argv]
    code, err = cli(*argv[:1], "--cooc", cooc, "--output", str(out_dir / "out"), *argv[1:])
    return code, err.splitlines(), {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def assert_finite_on_reread(command: str, out_dir) -> None:
    for path in sorted(out_dir.iterdir()):
        if command == "report":
            cells = [line.split("\t")[1] for line in path.read_text().splitlines()
                     if not line.startswith("#")]
            assert all(c in ("yes", "no") or math.isfinite(float(c)) for c in cells), cells
        else:
            matrix, _ = read_matrix(str(path))
            assert np.isfinite(matrix.v).all(), path.name
            assert matrix.implicit_value is None or math.isfinite(matrix.implicit_value)


@settings(max_examples=PER_PAIR_EXAMPLES, deadline=None, derandomize=True)
@given(counts=counts_files(), argv=per_pair_commands())
def test_per_pair_command_writes_finite_repeatable_files_or_one_error_line(
    gen_counts, tmp_path_factory, counts, argv
):
    work = tmp_path_factory.mktemp("per-pair")
    cooc = counts_path(counts, gen_counts, work)
    out_dir = work / "out"
    out_dir.mkdir()
    code, lines, written = run_per_pair(argv, cooc, out_dir)
    if code:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error "), (code, lines)
        assert written == {}, sorted(written)
        return
    assert written, "a successful run wrote nothing"
    assert_finite_on_reread(argv[0], out_dir)
    if argv[0] == "regularize":
        options = dict(zip(argv[1::2], argv[2::2]))
        k, lam = float(options["--k"]), float(options["--lam"])
        implicit = read_matrix(str(out_dir / "out"))[0].implicit_value
        want = absent_pair_root(k, lam, options["--reg"])
        assert implicit == pytest.approx(want, rel=1e-12, abs=0.0), options
    for path in out_dir.iterdir():
        path.unlink()
    assert run_per_pair(argv, cooc, out_dir) == (0, lines, written)


@settings(max_examples=PARITY_EXAMPLES, deadline=None, derandomize=True)
@given(counts=counts_files())
def test_ppmi_squared_and_l2_accept_or_refuse_a_counts_file_alike(
    gen_counts, tmp_path_factory, counts
):
    work = tmp_path_factory.mktemp("parity")
    cooc = counts_path(counts, gen_counts, work)
    outcomes = {}
    for argv in (["pmi", "--variant", "ppmi"], ["solve", "--loss", "squared"],
                 ["regularize", "--reg", "l2", "--lam", "1"]):
        out_dir = work / argv[0]
        out_dir.mkdir()
        code, lines, _ = run_per_pair(argv, cooc, out_dir)
        outcomes[argv[0]] = (code, lines[0].split(":")[0] if code else None)
    assert len(set(outcomes.values())) == 1, outcomes
