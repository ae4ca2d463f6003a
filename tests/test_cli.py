import builtins
import os
import time
from collections import Counter

import numpy as np
import pytest

from coocvec import (
    LOSS_NAMES,
    ContextSpec,
    SparseMatrix,
    TrainConfig,
    Vocabulary,
    WindowSpec,
    closed_form_report,
    count_encoded,
    encode_text,
    read_cooc,
    read_embedding,
    read_matrix,
    read_provenance,
    read_vocab,
    train,
    write_cooc,
    write_embedding,
    write_matrix,
    write_vocab,
)
from coocvec import closed_form
from coocvec.cli import main
from helpers import bench_gen, lookup_encoded, same_pairs
from oracles import tokenize_whole, vocabulary_by_counter

CORPUS = "the quick fox saw the slow fox\nthe slow fox saw the quick cat\n"


@pytest.fixture
def corpus_path(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(CORPUS)
    return str(p)


def run(*argv: str) -> int:
    return main(list(argv))


def counted(tmp_path, corpus_path, *extra: str) -> str:
    out = str(tmp_path / "counts.txt")
    assert run("count", "--input", corpus_path, "--output", out, *extra) == 0
    return out


class TestCount:
    @pytest.mark.parametrize("binary", [False, True])
    def test_bytes_equal_the_tokenize_then_count_path(self, tmp_path, binary):
        # odd line breaks, blank and whitespace-only lines, records of OOV tokens only
        text = ("the quick\r\nfox saw\x0bthe slow fox\x85zz\n \t\n\u2028the\u3000fox"
                "\x1cslow  quick\x0cqq zz\n\ncat the fox saw\r\n") * 7 + "the fox\n"
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode("utf-8"))
        records = tokenize_whole(text)
        for shards, min_count in ((1, 1), (2, 3), (3, 8), (4, 2), (5, 5)):
            out, want = str(tmp_path / f"got{shards}"), str(tmp_path / f"want{shards}")
            extra = ["--binary"] if binary else []
            assert run("count", "--input", str(path), "--output", out, "--threads", str(shards),
                       "--min-count", str(min_count), "--stochastic", "--subsample", "0.05",
                       "--seed", "3", *extra) == 0
            words, freq = vocabulary_by_counter(records, min_count)
            vocab = Vocabulary(words, np.array(freq))
            win = WindowSpec(subsample_threshold=0.05, stochastic_subsample=True)
            tokens = lookup_encoded(records, vocab)
            stats = count_encoded(tokens, vocab, win, seed=3, shards=shards)
            prov = read_provenance(out)
            write_cooc(stats, want, prov=prov, binary=binary)
            write_vocab(vocab, want + ".vocab", prov=prov)
            assert open(out, "rb").read() == open(want, "rb").read()
            assert open(out + ".vocab", "rb").read() == open(want + ".vocab", "rb").read()

    def test_writes_counts_and_vocab(self, tmp_path, corpus_path):
        out = counted(tmp_path, corpus_path)
        stats, _ = read_cooc(out)
        assert stats.total > 0
        vocab, _ = read_vocab(out + ".vocab")
        assert vocab.words[0] == "the"
        assert read_provenance(out) is not None

    def test_explicit_vocab_path(self, tmp_path, corpus_path):
        out = str(tmp_path / "c.txt")
        vout = str(tmp_path / "v.tsv")
        assert run("count", "--input", corpus_path, "--output", out, "--vocab-out", vout) == 0
        assert read_vocab(vout)[0].total_tokens == 14

    def test_binary_output(self, tmp_path, corpus_path):
        out = str(tmp_path / "c.bin")
        assert run("count", "--input", corpus_path, "--output", out, "--binary") == 0
        assert open(out, "rb").read(4) == b"CWB1"
        assert read_cooc(out)[0].n_words == 6

    def test_rerun_is_byte_identical(self, tmp_path, corpus_path):
        a = counted(tmp_path, corpus_path)
        blob = open(a, "rb").read()
        assert run("count", "--input", corpus_path, "--output", a) == 0
        assert open(a, "rb").read() == blob

    def test_thread_count_does_not_change_output(self, tmp_path, corpus_path):
        one = str(tmp_path / "one.txt")
        four = str(tmp_path / "four.txt")
        assert run("count", "--input", corpus_path, "--output", one, "--threads", "1") == 0
        assert run("count", "--input", corpus_path, "--output", four, "--threads", "4") == 0
        assert same_pairs(read_cooc(one)[0].counts, read_cooc(four)[0].counts)

    def test_window_past_the_longest_record_is_skipped(self, tmp_path, corpus_path):
        longest = max(len(line.split()) for line in CORPUS.splitlines())
        far, near = str(tmp_path / "far.txt"), str(tmp_path / "near.txt")
        start = time.perf_counter()
        assert run("count", "--input", corpus_path, "--output", far,
                   "--left", "300000", "--right", "1") == 0
        assert time.perf_counter() - start < 1.0
        assert run("count", "--input", corpus_path, "--output", near,
                   "--left", str(longest - 1), "--right", "1") == 0
        a, b = read_cooc(far)[0].counts, read_cooc(near)[0].counts
        for column in ("i", "j", "v"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))

    def test_missing_input_prints_one_error_line(self, tmp_path, capsys):
        code = run("count", "--input", str(tmp_path / "nope.txt"), "--output", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error io:")


class TestPmiAndSolve:
    def test_pmi_output_parses(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        out = str(tmp_path / "ppmi.txt")
        assert run("pmi", "--cooc", counts, "--output", out, "--variant", "ppmi") == 0
        mat, info = read_matrix(out)
        assert info.tag == "ppmi"
        assert mat.implicit_value == 0.0
        assert (mat.v > 0).all()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmi", "--variant", "spmi", "--k", "0.5"],
            ["report", "--k", "0"],
            ["report", "--k", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_invalid_k_category(self, tmp_path, corpus_path, capsys, argv):
        counts = counted(tmp_path, corpus_path)
        code = run(*argv, "--cooc", counts, "--output", str(tmp_path / "m"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-k:"), err

    def test_solve_writes_solution_and_alpha(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        out = str(tmp_path / "sol.txt")
        alpha = str(tmp_path / "alpha.txt")
        assert run(
            "solve", "--cooc", counts, "--output", out, "--loss", "squared",
            "--k", "2.0", "--alpha-out", alpha,
        ) == 0
        sol, info = read_matrix(out)
        assert info.tag == "solution:squared"
        assert sol.implicit_value == -1.0
        assert ((-1.0 <= sol.v) & (sol.v <= 1.0)).all()
        amat, ainfo = read_matrix(alpha)
        assert ainfo.tag == "alpha:squared"
        assert np.array_equal(amat.i, sol.i) and np.array_equal(amat.j, sol.j)
        assert (amat.v > 0).all()

    def test_solve_with_alpha_out_evaluates_the_closed_forms_once(
        self, tmp_path, corpus_path, monkeypatch
    ):
        counts = counted(tmp_path, corpus_path)
        calls = []
        solve_pair = closed_form.solve_pair

        def counting(*args):
            calls.append(args[0])
            return solve_pair(*args)

        monkeypatch.setattr(closed_form, "solve_pair", counting)
        out, alpha = str(tmp_path / "sol.txt"), str(tmp_path / "alpha.txt")
        assert run("solve", "--cooc", counts, "--output", out, "--loss", "logistic",
                   "--alpha-out", alpha) == 0
        assert calls == ["logistic"]
        assert read_matrix(alpha)[0].implicit_value == 0.0

    def test_logistic_solution_keeps_undefined_absences(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        out = str(tmp_path / "sol.txt")
        assert run("solve", "--cooc", counts, "--output", out, "--loss", "logistic") == 0
        sol, _ = read_matrix(out)
        assert sol.implicit_value is None

    def test_hinge_alpha_is_a_domain_error(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        out, alpha = str(tmp_path / "s"), str(tmp_path / "a")
        code = run(
            "solve", "--cooc", counts, "--output", out, "--loss", "hinge", "--alpha-out", alpha
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error domain-error:")
        assert not os.path.exists(out) and not os.path.exists(alpha)

    @pytest.mark.parametrize("loss, alpha_out", [("squared", False), ("logistic", True)])
    def test_nan_score_or_weight_is_one_domain_error(
        self, tmp_path, corpus_path, capsys, loss, alpha_out
    ):
        # k n_w n_c / |D| overflows, so the closed form is inf / inf
        counts = counted(tmp_path, corpus_path)
        out, alpha = str(tmp_path / "s"), str(tmp_path / "a")
        argv = ["solve", "--cooc", counts, "--output", out, "--loss", loss, "--k", "1e308"]
        capsys.readouterr()
        assert run(*argv, *(["--alpha-out", alpha] if alpha_out else [])) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error domain-error:"), err
        assert "NaN" in err[0] and "of pair (" in err[0]
        assert not os.path.exists(out) and not os.path.exists(alpha)

    @pytest.mark.parametrize("weight, total", [("1e300", "4e300"), ("1e-300", "4e-300")])
    @pytest.mark.parametrize("argv", [
        *(f"pmi --variant {v}" for v in ("pmi", "ppmi", "spmi", "sppmi")),
        *(f"solve --loss {loss}" for loss in ("logistic", "squared", "squared_hinge", "hinge",
                                              "huber")),
        *(f"regularize --reg {reg} --lam 0.5" for reg in ("l1", "l2")),
        "report",
    ])
    def test_counts_whose_products_leave_the_float_range_are_one_domain_error(
        self, tmp_path, capsys, weight, total, argv
    ):
        # n_wc |D| and n_w n_c overflow to inf at 1e300 and underflow to 0 at 1e-300
        counts = tmp_path / "counts.txt"
        pairs = "".join(f"{i} {j} {weight}\n" for i in (0, 1) for j in (0, 1))
        counts.write_text(f"2 {total}\n{pairs}")
        out = tmp_path / "out"
        command, *options = argv.split()
        assert run(command, "--cooc", str(counts), "--output", str(out), *options) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error domain-error:"), err
        assert not out.exists()

    @pytest.mark.parametrize("pairs, k", [
        # log k = 709.2 puts the roots past the numeric references' brackets, and the
        # negative mass k n_w n_c / |D| overflows
        (None, "1e308"),
        # |pmi - log k| of pair (0, 1) is about 708.5, which `solve` still scores
        ("0 0 1\n0 1 1e-8\n1 0 1e-8\n1 1 1\n", "1e300"),
    ], ids=["k-1e308", "root-past-the-references"])
    def test_report_refuses_a_pair_it_cannot_check_with_one_domain_error(
        self, tmp_path, corpus_path, capsys, pairs, k
    ):
        if pairs is None:
            counts = counted(tmp_path, corpus_path)
        else:
            counts = str(tmp_path / "counts.txt")
            (tmp_path / "counts.txt").write_text(f"2 2.00000002\n{pairs}")
        out = tmp_path / "report.txt"
        capsys.readouterr()
        assert run("report", "--cooc", counts, "--k", k, "--output", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error domain-error:"), err
        assert not out.exists()

    def test_solve_builds_and_checks_weights_only_for_alpha_out(self, tmp_path, capsys):
        # k n_w n_c / |D| overflows, so every curvature weight is NaN, while every
        # logistic score pmi - log k is finite
        counts = tmp_path / "counts.txt"
        counts.write_text("2 40000000000.0\n" + "".join(
            f"{i} {j} 1e10\n" for i in (0, 1) for j in (0, 1)))
        sol, spmi, alpha = (str(tmp_path / name) for name in ("sol.txt", "spmi.txt", "a.txt"))
        argv = ["solve", "--cooc", str(counts), "--output", sol, "--loss", "logistic",
                "--k", "1e300"]
        assert run(*argv) == 0
        assert run("pmi", "--cooc", str(counts), "--output", spmi, "--variant", "spmi",
                   "--k", "1e300") == 0
        got, want = read_matrix(sol)[0], read_matrix(spmi)[0]
        assert same_pairs(got, want) and got.v.tobytes() == want.v.tobytes()
        os.remove(sol)
        capsys.readouterr()
        assert run(*argv, "--alpha-out", alpha) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error domain-error:"), err
        assert "curvature weight of pair (0, 0)" in err[0]
        assert not os.path.exists(sol) and not os.path.exists(alpha)

    def test_l2_at_subnormal_lambda_gives_the_shifted_pmi(self, tmp_path, corpus_path):
        # (e^pmi - k) / (2 lam) overflows, so the chord takes its lam -> 0 limit
        counts = counted(tmp_path, corpus_path)
        reg, pmi = str(tmp_path / "r.txt"), str(tmp_path / "p.txt")
        assert run("regularize", "--cooc", counts, "--output", reg, "--reg", "l2",
                   "--lam", "1e-310") == 0
        assert run("pmi", "--cooc", counts, "--output", pmi, "--variant", "pmi") == 0
        got, want = read_matrix(reg)[0], read_matrix(pmi)[0]
        assert np.array_equal(got.i, want.i) and np.array_equal(got.j, want.j)
        np.testing.assert_allclose(got.v, want.v, rtol=0.0, atol=1e-12)

    def test_regularize_shrinks_toward_zero(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        loose = str(tmp_path / "l0.txt")
        tight = str(tmp_path / "l1.txt")
        assert run("regularize", "--cooc", counts, "--output", loose, "--reg", "l1", "--lam", "0.01") == 0
        assert run("regularize", "--cooc", counts, "--output", tight, "--reg", "l1", "--lam", "5.0") == 0
        a, ainfo = read_matrix(loose)
        b, binfo = read_matrix(tight)
        assert ainfo.lam == 0.01 and binfo.lam == 5.0
        assert np.abs(b.v).sum() <= np.abs(a.v).sum()


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["pmi", "regularize"])
    @pytest.mark.parametrize("weight", ["nan", "-2.0"])
    def test_bad_weight_is_one_format_error(self, tmp_path, capsys, command, weight):
        counts = tmp_path / "counts.txt"
        # the header total matches the entry sum for the negative weight
        counts.write_text(f"2 3.0\n0 1 1.0\n1 0 {weight}\n1 1 4.0\n")
        extra = ["--variant", "ppmi"] if command == "pmi" else ["--reg", "l2", "--lam", "0.5"]
        code = run(command, "--cooc", str(counts), "--output", str(tmp_path / "m"), *extra)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error bad-format:")

    @pytest.mark.parametrize("command", ["pmi", "regularize", "solve", "report"])
    def test_cooc_file_without_entries(self, tmp_path, capsys, command):
        # count writes a file with no pair mass for one-token records; every per-pair
        # command refuses it alike, and writes nothing
        corpus, empty = tmp_path / "corpus.txt", tmp_path / "empty.txt"
        corpus.write_text("the\nfox\nthe\n")
        assert run("count", "--input", str(corpus), "--output", str(empty)) == 0
        body = [line for line in empty.read_text().splitlines() if not line.startswith("#")]
        assert body == ["2 0.0"]
        inputs = sorted(tmp_path.iterdir())
        extra = {
            "pmi": ["--variant", "ppmi"],
            "regularize": ["--reg", "l2", "--lam", "0.5"],
            "solve": ["--loss", "logistic", "--alpha-out", str(tmp_path / "a")],
            "report": [],
        }[command]
        code = run(command, "--cooc", str(empty), "--output", str(tmp_path / "m"), *extra)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error degenerate-marginal:"), err
        assert sorted(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("weight", ["-1.0", "nan"])
    def test_bad_alpha_weight_is_one_format_error_naming_the_file(
        self, tmp_path, corpus_path, capsys, weight
    ):
        counts = counted(tmp_path, corpus_path)
        sol, alpha = str(tmp_path / "sol.txt"), tmp_path / "alpha.txt"
        assert run("solve", "--cooc", counts, "--output", sol, "--loss", "squared",
                   "--alpha-out", str(alpha)) == 0
        lines = alpha.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if i > 0 and not line.startswith("#"))
        lines[at] = " ".join(lines[at].split()[:2] + [weight])
        alpha.write_text("\n".join(lines) + "\n")
        code = run("factorize", "--weighted", "--matrix", sol, "--alpha", str(alpha),
                   "--output", str(tmp_path / "emb"), "--dim", "2", "--epochs", "2")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error bad-format:"), err
        assert str(alpha) in err[0]

    def test_truncated_binary_is_one_format_error(self, tmp_path, corpus_path, capsys):
        full = counted(tmp_path, corpus_path, "--binary")
        blob = open(full, "rb").read()
        header_len = int.from_bytes(blob[4:8], "little")
        # inside the header-length field, the header, the entry count and the payload
        for cut in (6, 8 + header_len // 2, 8 + header_len + 4, len(blob) - 5):
            cut_path = tmp_path / f"cut{cut}.bin"
            cut_path.write_bytes(blob[:cut])
            out = str(tmp_path / "m")
            assert run("pmi", "--cooc", str(cut_path), "--output", out, "--variant", "pmi") == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error bad-format:"), (cut, err)


    @pytest.mark.parametrize("command", ["pmi", "factorize"])
    @pytest.mark.parametrize(
        "last_header_field, entries, category",
        [
            ("5.0", "-1 0 5.0", "dimension-mismatch"),
            ("5.0", "20 0 5.0", "dimension-mismatch"),
            ("5.0", "0 1 2.5\n0 1 2.5", "bad-format"),
            ("5.0", "0 1 x", "bad-format"),
            ("abc", "0 1 5.0", "bad-format"),
        ],
        ids=["negative-index", "index-past-size", "repeated-pair", "non-numeric-field",
             "non-numeric-header"],
    )
    def test_malformed_triplet_file_is_one_error_line_naming_it(
        self, tmp_path, capsys, command, last_header_field, entries, category
    ):
        path = tmp_path / "triplets.txt"
        if command == "pmi":
            path.write_text(f"9 {last_header_field}\n{entries}\n")
            argv = ["pmi", "--cooc", str(path), "--variant", "pmi"]
        else:
            path.write_text(f"9 9 ppmi {last_header_field}\n{entries}\n")
            argv = ["factorize", "--matrix", str(path), "--dim", "2"]
        assert run(*argv, "--output", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error {category}:"), err
        assert str(path) in err[0]


    @pytest.mark.parametrize(
        "kind, content, category",
        [
            ("embedding", b"2 2\nfox x 1.0\ncat 1.0 2.0\n", "bad-format"),
            ("embedding", b"2 2\nfox nan 1.0\ncat 1.0 2.0\n", "bad-format"),
            ("embedding", b"2 2\nfox inf 1.0\ncat 1.0 2.0\n", "bad-format"),
            ("embedding", b"seven 2\nfox 0.5 1.0\n", "bad-format"),
            ("embedding", b"0 -5\n", "bad-format"),
            ("corpus", b"the fox \xff saw\n", "bad-format"),
            ("cooc", b"2 3.0\n0 1 3.0 \xfe\n", "bad-format"),
            ("embedding", b"1 2\nf\xc3x 0.5 1.0\n", "bad-format"),
            ("config", b"left=1\nright=\xff\n", "bad-format"),
            ("cooc", b'2 3.0\n# provenance abc ["x"]\n0 1 3.0\n', "bad-format"),
            ("cooc", b"99999999999999 4\n0 1 4.0\n", "out-of-memory"),
        ],
        ids=["cell-x", "cell-nan", "cell-inf", "header-word", "header-negative",
             "corpus-not-utf8", "cooc-not-utf8", "embedding-not-utf8", "config-not-utf8",
             "provenance-not-object", "cooc-header-huge"],
    )
    def test_malformed_file_is_one_error_line_naming_it(
        self, tmp_path, corpus_path, capsys, kind, content, category
    ):
        path = tmp_path / f"malformed.{kind}"
        path.write_bytes(content)
        out = str(tmp_path / "out")
        argv = {
            "corpus": ["count", "--input", str(path), "--output", out],
            "config": ["count", "--input", corpus_path, "--output", out, "--config", str(path)],
            "cooc": ["pmi", "--cooc", str(path), "--output", out, "--variant", "pmi"],
            "embedding": ["neighbors", "--embedding", str(path), "--word", "fox"],
        }[kind]
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error {category}:"), err
        if category != "out-of-memory":  # numpy's refusal names the allocation instead
            assert str(path) in err[0]


class TestHashTokens:
    def test_hash_tokens_survive_every_file_kind(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("#tag the fox # saw\nthe # fox saw #tag\n#tag saw the # fox\n")
        counts, ppmi, svd, conv = (str(tmp_path / n) for n in ("c.txt", "m.txt", "e.txt", "v.txt"))
        assert run("count", "--input", str(corpus), "--output", counts) == 0
        assert run("pmi", "--cooc", counts, "--output", ppmi, "--variant", "ppmi") == 0
        assert run(
            "factorize", "--matrix", ppmi, "--output", svd, "--dim", "2",
            "--vocab", counts + ".vocab",
        ) == 0
        assert run("train-convex", "--input", str(corpus), "--output", conv, "--vocab-out",
                   str(tmp_path / "v.vocab")) == 0
        for emb in (svd, conv):
            assert set(read_embedding(emb)[0].words) == {"#tag", "#", "the", "fox", "saw"}
            assert run("neighbors", "--embedding", emb, "--word", "#", "--n", "2") == 0
            assert run("neighbors", "--embedding", emb, "--word", "#tag", "--n", "2") == 0
        vocabs = [read_vocab(path)[0] for path in (counts + ".vocab", str(tmp_path / "v.vocab"))]
        assert vocabs[0].words == vocabs[1].words
        assert capsys.readouterr().err == ""


class TestOptionErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--stochastic", "--subsample", "1e-4", "--seed", "-1"],
            ["train-convex", "--seed", "-1"],
            ["count", "--left", "-1"],
            ["count", "--subsample", "0"],
            ["count", "--subsample", "inf"],
            ["count", "--subsample", "1e-3", "--context-subsample-threshold", "inf"],
            ["train-convex", "--l1", "-1"],
            ["train-convex", "--epochs", "-1"],
            ["regularize", "--lam", "-1"],
            ["factorize", "--weighted", "--ridge", "-1"],
            ["factorize", "--oversample", "-20"],
            ["neighbors", "--n", "-1"],
            ["report", "--samples", "-1"],
            ["train-convex", "--step", "0"],
            ["train-convex", "--step", "nan"],
            ["train-convex", "--step", "inf"],
            ["train-convex", "--full-batch", "--step", "-1"],
            ["factorize", "--weighted", "--epochs", "-1"],
            ["factorize", "--power-iters", "-1"],
            ["count", "--threads", "0"],
            ["count", "--threads", "-3"],
            ["count", "--seed", "-1"],
            ["count", "--min-count", "0"],
            ["count", "--min-count", "-3"],
            ["train-convex", "--min-count", "0"],
            ["train-convex", "--min-count", "-3"],
            ["train-convex", "--l1", "nan"],
            ["factorize", "--weighted", "--ridge", "nan"],
            ["factorize", "--weighted", "--ridge", "inf"],
            ["factorize", "--weighted", "--tol", "nan"],
            ["factorize", "--weighted", "--tol", "-1"],
            ["factorize", "--epochs", "-1"],
            ["factorize", "--ridge", "nan"],
            ["factorize", "--tol", "-5"],
            ["factorize", "--weighted", "--oversample", "-20"],
            ["factorize", "--weighted", "--power-iters", "-3"],
            ["factorize", "--weighted", "--flavor", "symmetric"],
            # the other mode's options are refused at their defaults too
            ["factorize", "--weighted", "--flavor", "plain", "--oversample", "8",
             "--power-iters", "4"],
            ["factorize", "--epochs", "200", "--ridge", "1e-8", "--tol", "1e-8"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_option_is_one_error_line(self, tmp_path, corpus_path, capsys, argv):
        counts = counted(tmp_path, corpus_path)
        sol, alpha, emb = (str(tmp_path / name) for name in ("sol.txt", "alpha.txt", "emb.txt"))
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        run("factorize", "--matrix", sol, "--output", emb, "--dim", "2", "--vocab", counts + ".vocab")
        out = str(tmp_path / "out")
        inputs = {
            "count": ["--input", corpus_path, "--output", out],
            "train-convex": ["--input", corpus_path, "--output", out],
            "regularize": ["--cooc", counts, "--output", out, "--reg", "l2"],
            "factorize": ["--matrix", sol, "--output", out, "--dim", "2"],
            "neighbors": ["--embedding", emb, "--word", "fox"],
            "report": ["--cooc", counts],
        }
        if "--weighted" in argv:
            inputs["factorize"] += ["--alpha", alpha]
        capsys.readouterr()
        assert run(*argv, *inputs[argv[0]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--left", "-1"],
            ["count", "--left", "0", "--right", "0"],
            ["count", "--subsample", "0"],
            ["count", "--context-subsample-threshold", "-1"],
            ["count", "--seed", "-1"],
            ["count", "--threads", "0"],
            ["count", "--min-count", "0"],
            ["count", "--stochastic", "--subsample", "1e-3", "--context-subsample-threshold", "0.5"],
            ["count", "--stochastic"],
            ["count", "--stochastic", "--subsample", "1e-3", "--context-subsample"],
            ["count", "--context-subsample"],
            ["train-convex", "--min-count", "0"],
            ["train-convex", "--right", "-1"],
            ["train-convex", "--epochs", "-1"],
            ["train-convex", "--l1", "nan"],
            ["train-convex", "--step", "0"],
            ["train-convex", "--k-neg", "0"],
            ["train-convex", "--seed", "-1"],
            # an option the mode does not read, at its default too
            ["count", "--seed", "0"],
            ["train-convex", "--objective", "softmax", "--k-neg", "5", "--noise", "unigram"],
            ["train-convex", "--full-batch", "--seed", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_invalid_option_is_refused_before_the_corpus_is_read(self, tmp_path, capsys, argv):
        # the corpus is not UTF-8, so reading it first would end in bad-format instead
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"the fox \xff saw\n")
        out = str(tmp_path / "out")
        assert run(*argv, "--input", str(corpus), "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["count", "--seed", "3"], "--seed needs --stochastic"),
            (["train-convex", "--objective", "softmax", "--k-neg", "3"],
             "--k-neg is not used with --objective softmax"),
            (["train-convex", "--objective", "softmax", "--noise", "uniform"],
             "--noise is not used with --objective softmax"),
            (["train-convex", "--full-batch", "--seed", "3"], "--seed is not used with --full-batch"),
        ],
        ids=["count --seed", "softmax --k-neg", "softmax --noise", "full-batch --seed"],
    )
    def test_option_the_mode_does_not_read_is_refused(
        self, tmp_path, corpus_path, capsys, argv, refusal
    ):
        # each would change nothing, yet its value would be stamped
        out = str(tmp_path / "out")
        assert run(*argv, "--input", corpus_path, "--output", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error invalid-option: {refusal}"]
        assert not os.path.exists(out)

    def test_singular_als_system_is_one_divergence_line(self, tmp_path, capsys):
        # each row and column of the 2 x 2 target holds one stored pair, fewer than --dim 2
        target, alpha, out = (str(tmp_path / name) for name in ("t.txt", "a.txt", "emb.txt"))
        pairs = SparseMatrix(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        write_matrix(pairs, target, tag="squared", k=1.0)
        write_matrix(SparseMatrix(2, 2, [0, 1], [0, 1], [1.0, 1.0]), alpha, tag="alpha", k=1.0)
        code = run("factorize", "--weighted", "--matrix", target, "--alpha", alpha,
                   "--output", out, "--dim", "2", "--ridge", "0")
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error divergence:"), err
        assert "row 0's system is singular" in err[0] and "--ridge" in err[0], err
        assert not os.path.exists(out)
        assert run("factorize", "--weighted", "--matrix", target, "--alpha", alpha,
                   "--output", out, "--dim", "2") == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epochs", ["1", "20"])
    def test_train_convex_step_past_the_float_range_is_one_divergence_line(
        self, tmp_path, capsys, epochs
    ):
        # SGD steps of 1e308 overflow the weights to inf, then NaN
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat\nthe dog sat on the rug\n")
        out = tmp_path / "t.txt"
        code = run("train-convex", "--input", str(corpus), "--output", str(out),
                   "--epochs", epochs, "--step", "1e308")
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error divergence:"), err
        assert "--step" in err[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weighted_factorize_overflowing_objective_is_one_divergence_line(
        self, tmp_path, corpus_path, capsys
    ):
        # targets of 1e200 are finite, but their squares in the objective are not
        counts = counted(tmp_path, corpus_path)
        sol, alpha, big, out = (str(tmp_path / n) for n in ("s.txt", "a.txt", "big.txt", "f.txt"))
        assert run("solve", "--cooc", counts, "--output", sol, "--loss", "squared",
                   "--alpha-out", alpha) == 0
        scores, info = read_matrix(sol)
        scores.v *= 1e200
        write_matrix(scores, big, tag=info.tag, k=info.k, prov=info.prov)
        capsys.readouterr()
        code = run("factorize", "--matrix", big, "--weighted", "--alpha", alpha,
                   "--dim", "2", "--epochs", "5", "--output", out)
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error divergence:"), err
        assert "objective is inf at the start" in err[0], err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "extra",
        [["--alpha", "alpha.txt"], ["--alpha", "missing.txt"], ["--context-out", "ctx.txt"]],
        ids=lambda extra: " ".join(extra),
    )
    def test_weighted_only_option_without_weighted(self, tmp_path, corpus_path, capsys, extra):
        counts = counted(tmp_path, corpus_path)
        sol, alpha = str(tmp_path / "sol.txt"), str(tmp_path / "alpha.txt")
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        out = str(tmp_path / "out")
        flag, name = extra
        capsys.readouterr()
        code = run("factorize", "--matrix", sol, "--output", out, "--dim", "2",
                   flag, str(tmp_path / name))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert flag in err[0]
        assert not os.path.exists(out) and not os.path.exists(tmp_path / "ctx.txt")

    @pytest.mark.parametrize(
        "weighted, line",
        [(False, "epochs=3"), (False, "ridge=0.5"), (True, "flavor=symmetric"), (True, "flavor=plain")],
    )
    def test_other_mode_option_from_config(self, tmp_path, corpus_path, capsys, weighted, line):
        counts = counted(tmp_path, corpus_path)
        sol, alpha = str(tmp_path / "sol.txt"), str(tmp_path / "alpha.txt")
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        cfg = tmp_path / "factorize.cfg"
        cfg.write_text(line + "\n")
        out = str(tmp_path / "out")
        mode = ["--weighted", "--alpha", alpha] if weighted else []
        capsys.readouterr()
        code = run("factorize", "--matrix", sol, "--output", out, "--dim", "2", *mode,
                   "--config", str(cfg))
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert "--" + line.partition("=")[0] in err[0] and not os.path.exists(out)

    @pytest.mark.parametrize(
        "command", ["count", "count-symlink", "solve", "factorize", "train-convex"]
    )
    def test_outputs_naming_one_file_are_refused(self, tmp_path, corpus_path, capsys, command):
        counts = counted(tmp_path, corpus_path)
        sol, alpha = str(tmp_path / "sol.txt"), str(tmp_path / "alpha.txt")
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        (tmp_path / "sub").mkdir()
        out = str(tmp_path / "out")
        same = str(tmp_path / "sub" / ".." / "out")  # another spelling of out
        if command == "count-symlink":  # the default vocabulary path leads back to out
            os.symlink(out, out + ".vocab")
        argv = {
            "count": ["count", "--input", corpus_path, "--output", out, "--vocab-out", same],
            "count-symlink": ["count", "--input", corpus_path, "--output", out],
            "solve": ["solve", "--cooc", counts, "--output", out, "--loss", "squared",
                      "--alpha-out", same],
            "factorize": ["factorize", "--weighted", "--matrix", sol, "--alpha", alpha,
                          "--output", out, "--dim", "2", "--context-out", same],
            "train-convex": ["train-convex", "--input", corpus_path, "--output", out,
                             "--vocab-out", same],
        }[command]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command, read, write",
        [
            ("count", "--input", "--output"),
            ("count", "--input", "--vocab-out"),
            ("count", "--input", "<output>.vocab"),
            ("count", "--config", "--output"),
            ("pmi", "--cooc", "--output"),
            ("pmi", "--config", "--output"),
            ("solve", "--cooc", "--output"),
            ("solve", "--cooc", "--alpha-out"),
            ("regularize", "--cooc", "--output"),
            ("factorize", "--matrix", "--output"),
            ("factorize", "--vocab", "--output"),
            ("factorize", "--alpha", "--output"),
            ("factorize", "--matrix", "--context-out"),
            ("train-convex", "--input", "--output"),
            ("train-convex", "--input", "--vocab-out"),
            ("eval", "--embedding", "--output"),
            ("eval", "--dataset", "--output"),
            ("neighbors", "--embedding", "--output"),
            ("report", "--cooc", "--output"),
            ("report", "--matrix", "--output"),
        ],
    )
    def test_a_write_over_an_input_is_refused(self, tmp_path, corpus_path, capsys, command,
                                              read, write):
        counts = counted(tmp_path, corpus_path)
        sol, alpha, emb, ppmi = (
            str(tmp_path / name) for name in ("sol.txt", "alpha.txt", "emb.txt", "ppmi.txt")
        )
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        run("pmi", "--cooc", counts, "--output", ppmi, "--variant", "ppmi")
        run("factorize", "--matrix", sol, "--output", emb, "--dim", "2", "--vocab", counts + ".vocab")
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\tcat\t7.0\nfox\tthe\t2.0\nquick\tslow\t5.0\n")
        config = tmp_path / "empty.cfg"
        config.write_text("# no settings\n")
        out = str(tmp_path / "out")
        argv = {
            "count": ["--input", corpus_path, "--output", out],
            "pmi": ["--cooc", counts, "--output", out, "--variant", "ppmi"],
            "solve": ["--cooc", counts, "--output", out, "--loss", "squared"],
            "regularize": ["--cooc", counts, "--output", out, "--reg", "l1", "--lam", "0.1"],
            "factorize": ["--matrix", sol, "--output", out, "--dim", "2"],
            "train-convex": ["--input", corpus_path, "--output", out],
            "eval": ["--embedding", emb, "--dataset", str(dataset), "--output", out],
            "neighbors": ["--embedding", emb, "--word", "fox", "--output", out],
            "report": ["--cooc", counts, "--matrix", ppmi, "--output", out],
        }[command]
        given = dict(zip(argv[::2], argv[1::2]))
        extra = {"--config": str(config), "--vocab": counts + ".vocab", "--alpha": alpha}
        if read in extra:
            given[read] = extra[read]
        if command == "factorize" and (read == "--alpha" or write == "--context-out"):
            given.update({"--weighted": None, "--alpha": alpha})
        if write == "<output>.vocab":  # the default vocabulary path is the input
            given["--input"] = counts + ".vocab"
            given["--output"] = counts
        else:
            given[write] = given[read]
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run(command, *[a for kv in given.items() for a in kv if a is not None]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert read in err[0] and write.replace("<output>.vocab", "--vocab-out") in err[0]
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        # the same command with the write pointed elsewhere runs
        given["--output" if write == "<output>.vocab" else write] = str(tmp_path / "elsewhere")
        assert run(command, *[a for kv in given.items() for a in kv if a is not None]) == 0

    def test_a_write_through_a_hard_link_to_the_input_is_refused(
        self, tmp_path, corpus_path, capsys
    ):
        link = str(tmp_path / "link.txt")
        os.link(corpus_path, link)
        assert run("count", "--input", corpus_path, "--output", link) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert open(corpus_path).read() == CORPUS


class TestFactorizeTrainEval:
    def test_svd_factorize_then_neighbors(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        mat = str(tmp_path / "ppmi.txt")
        run("pmi", "--cooc", counts, "--output", mat, "--variant", "ppmi")
        emb_path = str(tmp_path / "emb.txt")
        assert run(
            "factorize", "--matrix", mat, "--output", emb_path, "--dim", "3",
            "--vocab", counts + ".vocab",
        ) == 0
        emb, _ = read_embedding(emb_path)
        assert emb.dim == 3
        assert "fox" in emb.words
        assert emb.meta["flavor"] == "plain"
        assert run("neighbors", "--embedding", emb_path, "--word", "fox", "--n", "2") == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2
        assert all(len(line.split("\t")) == 2 for line in out_lines)

    def test_unknown_word_category(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        mat = str(tmp_path / "ppmi.txt")
        run("pmi", "--cooc", counts, "--output", mat, "--variant", "ppmi")
        emb_path = str(tmp_path / "emb.txt")
        run("factorize", "--matrix", mat, "--output", emb_path, "--dim", "2")
        code = run("neighbors", "--embedding", emb_path, "--word", "wolf")
        assert code == 1
        assert capsys.readouterr().err.startswith("error unknown-word:")

    def test_empty_neighbor_list_writes_empty_file(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("3 2\nthe 1.0 0.0\nfox 0.0 1.0\ncat 0.0 0.0\n")
        out = tmp_path / "hits.txt"
        for argv in (["--word", "the", "--n", "0"], ["--word", "cat"]):
            assert run("neighbors", "--embedding", str(emb), *argv) == 0
            assert capsys.readouterr().out == ""
            assert run("neighbors", "--embedding", str(emb), *argv, "--output", str(out)) == 0
            assert out.read_bytes() == b""

    def test_repeated_word_is_one_error_line(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("3 2\nthe 1.0 0.0\nfox 0.0 1.0\nthe 1.0 0.1\n")
        assert run("neighbors", "--embedding", str(emb), "--word", "the") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error bad-format:"), err
        assert str(emb) in err[0] and "'the'" in err[0]

    @pytest.mark.parametrize("command", ["eval", "neighbors"])
    def test_cells_whose_products_overflow_are_one_error_line(self, tmp_path, capsys, command):
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\tcat\t7.0\ncat\tthe\t2.0\nfox\tthe\t1.0\n")
        rows = "cat 0.5 2.0\nthe 1.0 -1.0\n"
        argv = {"eval": ["--dataset", str(dataset)], "neighbors": ["--word", "cat"]}[command]
        for cell, code in (("1e150", 0), ("-0.662786833129e178", 1)):
            emb = tmp_path / "emb.txt"
            emb.write_text(f"3 2\nfox {cell} 1.0\n{rows}")
            assert run(command, "--embedding", str(emb), *argv) == code
            err = capsys.readouterr().err.splitlines()
            assert len(err) == code, err
        assert err[0].startswith("error domain-error:"), err

    def test_weighted_factorize_needs_alpha(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        sol = str(tmp_path / "sol.txt")
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared")
        code = run("factorize", "--matrix", sol, "--output", str(tmp_path / "e"), "--dim", "2", "--weighted")
        assert code == 1
        assert capsys.readouterr().err.startswith("error bad-format:")

    def test_weighted_factorize_round_trip(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        sol = str(tmp_path / "sol.txt")
        alpha = str(tmp_path / "alpha.txt")
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        emb_path = str(tmp_path / "emb.txt")
        ctx_path = str(tmp_path / "ctx.txt")
        assert run(
            "factorize", "--matrix", sol, "--output", emb_path, "--dim", "2",
            "--weighted", "--alpha", alpha, "--vocab", counts + ".vocab",
            "--context-out", ctx_path, "--epochs", "80",
        ) == 0
        emb, _ = read_embedding(emb_path)
        ctx, _ = read_embedding(ctx_path)
        assert emb.dim == ctx.dim == 2
        assert emb.words == ctx.words

    def test_weighted_factorize_vocab_size_mismatch(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        sol = str(tmp_path / "sol.txt")
        alpha = str(tmp_path / "alpha.txt")
        run("solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha)
        short_vocab = tmp_path / "short.vocab"
        short_vocab.write_text("the\t4\nfox\t3\n")
        code = run(
            "factorize", "--matrix", sol, "--output", str(tmp_path / "e"), "--dim", "2",
            "--weighted", "--alpha", alpha, "--vocab", str(short_vocab),
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error dimension-mismatch:")

    def test_weighted_factorize_non_square_context_labels(self, tmp_path, capsys):
        mat, alpha, vocab = (tmp_path / name for name in ("m.txt", "a.txt", "v.tsv"))
        mat.write_text("3 4 ppmi 1.0\n0 0 1.0\n0 3 0.5\n1 1 2.0\n2 2 1.5\n")
        alpha.write_text("3 4 alpha:squared 1.0 implicit=0.0\n0 0 1.0\n0 3 1.0\n1 1 1.0\n2 2 1.0\n")
        vocab.write_text("the\t3\nfox\t2\ncat\t1\n")
        emb, ctx = str(tmp_path / "e.txt"), str(tmp_path / "c.txt")
        argv = ["factorize", "--weighted", "--matrix", str(mat), "--alpha", str(alpha),
                "--vocab", str(vocab), "--dim", "2", "--epochs", "3", "--output", emb]
        assert run(*argv, "--context-out", ctx) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error dimension-mismatch:"), err
        assert str(vocab) in err[0] and not os.path.exists(emb)
        assert run(*argv) == 0
        assert read_embedding(emb)[0].words == ["the", "fox", "cat"]

    def test_train_convex_and_eval(self, tmp_path, corpus_path):
        emb_path = str(tmp_path / "conv.txt")
        assert run(
            "train-convex", "--input", corpus_path, "--output", emb_path,
            "--epochs", "2", "--k-neg", "2",
        ) == 0
        emb, _ = read_embedding(emb_path)
        assert emb.meta["mode"] == "bag"
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\tcat\t7.0\nfox\tthe\t2.0\nquick\tslow\t5.0\nfox\twolf\t9.0\n")
        out = str(tmp_path / "eval.tsv")
        assert run("eval", "--embedding", emb_path, "--dataset", str(dataset), "--output", out) == 0
        lines = dict(
            line.split("\t")[:2]
            for line in open(out).read().splitlines()
            if line and not line.startswith("#")
        )
        assert set(lines) == {"spearman", "coverage", "pairs_scored"}
        assert lines["pairs_scored"] == "3"
        assert float(lines["coverage"]) == pytest.approx(0.75)

    @pytest.mark.parametrize("mode", ["single", "bag", "positional"])
    def test_train_convex_reads_the_corpus_as_count_does(self, tmp_path, mode):
        gen = bench_gen()
        text = gen.corpus_text(gen.make_corpus(3000, 4))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        counts, emb_path, vocab_path, want = (
            str(tmp_path / name) for name in ("c.txt", "e.txt", "v.tsv", "want.txt")
        )
        assert run("count", "--input", str(corpus), "--output", counts, "--min-count", "3") == 0
        assert run("train-convex", "--input", str(corpus), "--output", emb_path, "--vocab-out",
                   vocab_path, "--mode", mode, "--min-count", "3", "--epochs", "2",
                   "--l1", "1e-4", "--step", "0.1", "--seed", "3") == 0

        def body(path):
            return [line for line in open(path, "rb") if not line.startswith(b"# ")]

        assert len(body(vocab_path)) > 50 and body(vocab_path) == body(counts + ".vocab")
        vocab, tokens = encode_text(text, min_count=3)
        spec = ContextSpec(mode=mode, window=WindowSpec(left=2, right=2))
        cfg = TrainConfig(epochs=2, l1=1e-4, step_initial=0.1, seed=3)
        write_embedding(train(tokens, vocab, spec, cfg), want, prov=read_provenance(emb_path))
        assert open(emb_path, "rb").read() == open(want, "rb").read()

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_similarity_score_is_one_format_error(
        self, tmp_path, corpus_path, capsys, score
    ):
        emb_path = str(tmp_path / "conv.txt")
        run("train-convex", "--input", corpus_path, "--output", emb_path, "--epochs", "1")
        dataset = tmp_path / "sim.tsv"
        dataset.write_text(f"fox\tcat\t7.0\nthe\tslow\t1.0\nquick\tsaw\t4.0\nfox\tthe\t{score}\n")
        capsys.readouterr()
        assert run("eval", "--embedding", emb_path, "--dataset", str(dataset)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error bad-format:"), err
        assert str(dataset) in err[0]

    def test_eval_insufficient_pairs_category(self, tmp_path, corpus_path, capsys):
        emb_path = str(tmp_path / "conv.txt")
        run("train-convex", "--input", corpus_path, "--output", emb_path, "--epochs", "1")
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\twolf\t9.0\nfox\tcat\t3.0\n")
        code = run("eval", "--embedding", emb_path, "--dataset", str(dataset))
        assert code == 1
        assert capsys.readouterr().err.startswith("error insufficient-pairs:")


class TestReport:
    @pytest.mark.parametrize("counts_of, k", [
        ("sweep", "5"), ("cli", "1"), ("cli", "5"), ("cli", "1e30"),
    ])
    def test_the_library_rows_are_the_printed_lines(
        self, tmp_path, corpus_path, counts_of, k
    ):
        if counts_of == "sweep":  # the benchmark's closed-form-sweep counts at seed 1
            gen = bench_gen()
            corpus = tmp_path / "sweep.txt"
            corpus.write_text(gen.corpus_text(gen.make_corpus(40_000, 1)))
            counts = str(tmp_path / "counts.bin")
            assert run("count", "--input", str(corpus), "--output", counts, "--left", "2",
                       "--right", "2", "--min-count", "10", "--binary") == 0
        else:
            counts = counted(tmp_path, corpus_path)
        out = tmp_path / "report.txt"
        assert run("report", "--cooc", counts, "--k", k, "--samples", "200",
                   "--output", str(out)) == 0
        rows = closed_form_report(read_cooc(counts)[0], float(k), samples=200, seed=0)
        cells = {True: "yes", False: "NO"}
        want = [f"{name}\t{cells[v] if isinstance(v, bool) else repr(v)}" for name, v in rows]
        assert out.read_text().splitlines()[1:] == want
        assert len(want) == 12 and "\tyes" in want[1]

    def test_an_exact_tie_reports_no_error(self, tmp_path, capsys):
        # one pair with pmi = 0 = log k at k = 1: the hinge picks +1, every smooth
        # loss's root and the L2 root are exactly 0, which the bisections stop at
        counts = tmp_path / "tie.txt"
        counts.write_text("3 1.0\n0 0 1.0\n")
        assert run("report", "--cooc", str(counts), "--k", "1") == 0
        rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines()[1:])
        for loss in LOSS_NAMES:
            assert rows[f"closed_form_max_abs_err[{loss}]"] == "0.0", loss
        assert rows["l2_closed_form_max_rel_err"] == "0.0"

    def test_report_runs_and_prints_sweeps(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        mat = str(tmp_path / "ppmi.txt")
        run("pmi", "--cooc", counts, "--output", mat, "--variant", "ppmi")
        assert run("report", "--cooc", counts, "--matrix", mat, "--samples", "40") == 0
        out = capsys.readouterr().out
        assert "closed_form_max_abs_err" in out
        assert "sign_agreement" in out
        assert "l1_sparsity" in out or "l1" in out
        assert "consistency" in out

    def test_numeric_references_follow_a_large_shift(self, tmp_path, corpus_path, capsys):
        # at k = 1e30 each stored pair's scores lie near pmi - log k, about -69
        counts = counted(tmp_path, corpus_path)
        assert run("report", "--cooc", counts, "--k", "1e30") == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        errors = {name: float(value) for name, value in rows if "err" in name}
        assert len(errors) == 7 and max(errors.values()) <= 1e-10, errors

    def test_report_refuses_a_matrix_past_the_consistency_cap(self, tmp_path, capsys):
        corpus = tmp_path / "wide.txt"
        corpus.write_text(" ".join(f"w{n}" for n in range(501)) + "\n")
        counts, mat = str(tmp_path / "c.txt"), str(tmp_path / "ppmi.txt")
        assert run("count", "--input", str(corpus), "--output", counts) == 0
        assert run("pmi", "--cooc", counts, "--output", mat, "--variant", "ppmi") == 0
        capsys.readouterr()
        out = tmp_path / "report.txt"
        assert run("report", "--cooc", counts, "--matrix", mat, "--output", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error dimension-mismatch:"), err
        assert not out.exists()

    def test_report_refuses_mixed_ancestry(self, tmp_path, capsys):
        a = tmp_path / "one.txt"
        a.write_text("corpus one alpha beta corpus one\n")
        b = tmp_path / "two.txt"
        b.write_text("corpus two gamma delta corpus two\n")
        ca = str(tmp_path / "ca.txt")
        cb = str(tmp_path / "cb.txt")
        run("count", "--input", str(a), "--output", ca)
        run("count", "--input", str(b), "--output", cb)
        mat = str(tmp_path / "m.txt")
        run("pmi", "--cooc", cb, "--output", mat, "--variant", "ppmi")
        code = run("report", "--cooc", ca, "--matrix", mat)
        assert code == 1
        assert capsys.readouterr().err.startswith("error mixed-provenance:")


class TestConfigFile:
    def test_config_sets_defaults(self, tmp_path, corpus_path):
        cfg = tmp_path / "count.cfg"
        cfg.write_text("left=1\nright=1\nmin-count=2\n")
        out = str(tmp_path / "c.txt")
        assert run("count", "--input", corpus_path, "--output", out, "--config", str(cfg)) == 0
        prov = read_provenance(out)
        assert prov.config["left"] == 1
        assert prov.config["right"] == 1
        assert prov.config["min_count"] == 2

    def test_cli_flags_override_config(self, tmp_path, corpus_path):
        cfg = tmp_path / "count.cfg"
        cfg.write_text("left=1\n")
        out = str(tmp_path / "c.txt")
        assert run(
            "count", "--input", corpus_path, "--output", out,
            "--config", str(cfg), "--left", "3",
        ) == 0
        assert read_provenance(out).config["left"] == 3

    def test_config_parses_flag_values(self, tmp_path, corpus_path):
        cfg = tmp_path / "count.cfg"
        cfg.write_text("binary=true\nstochastic=yes\nsubsample=0.01\nseed=9\n")
        out = str(tmp_path / "c.bin")
        assert run("count", "--input", corpus_path, "--output", out, "--config", str(cfg)) == 0
        assert open(out, "rb").read(4) == b"CWB1"
        assert read_provenance(out).config["seed"] == 9

    @pytest.mark.parametrize("word, stochastic", [("TRUE", True), ("Off", False), ("ture", None)])
    def test_config_boolean_words(self, tmp_path, corpus_path, capsys, word, stochastic):
        cfg = tmp_path / "count.cfg"
        cfg.write_text(f"stochastic={word}\nsubsample=0.01\n")
        out = str(tmp_path / "c.txt")
        code = run("count", "--input", corpus_path, "--output", out, "--config", str(cfg))
        if stochastic is not None:
            assert code == 0 and read_provenance(out).config["stochastic"] is stochastic
            return
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error bad-format:"), err
        assert str(cfg) in err[0] and "stochastic" in err[0]

    def test_config_supplies_a_required_option(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        cfg = tmp_path / "pmi.cfg"
        cfg.write_text("variant=ppmi\n")
        out = str(tmp_path / "m.txt")
        assert run("pmi", "--cooc", counts, "--output", out, "--config", str(cfg)) == 0
        assert capsys.readouterr().err == ""
        assert read_provenance(out).config["variant"] == "ppmi"

    @pytest.mark.parametrize("command, line", [("pmi", "variant=bogus"), ("solve", "loss=bogus")])
    def test_config_value_outside_choices(self, tmp_path, corpus_path, capsys, command, line):
        counts = counted(tmp_path, corpus_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = str(tmp_path / "m.txt")
        assert run(command, "--cooc", counts, "--output", out, "--config", str(cfg)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error bad-format:"), err
        assert str(cfg) in err[0] and not os.path.exists(out)

    def test_unknown_config_key(self, tmp_path, corpus_path, capsys):
        # a key is one of the command's options; help is not one, nor config
        cfg = tmp_path / "count.cfg"
        for text in ("telemetry=on\n", "help=x\n", "config=other.cfg\n"):
            cfg.write_text(text)
            code = run("count", "--input", corpus_path, "--output", str(tmp_path / "c"), "--config", str(cfg))
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error bad-format:"), err
            assert str(cfg) in err[0] and sorted(os.listdir(tmp_path)) == ["corpus.txt", "count.cfg"]

    def test_missing_config_file(self, tmp_path, corpus_path, capsys):
        code = run(
            "count", "--input", corpus_path, "--output", str(tmp_path / "c"),
            "--config", str(tmp_path / "ghost.cfg"),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error bad-format:")


class TestProvenanceChain:
    def test_root_flows_through_pipeline(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        mat = str(tmp_path / "m.txt")
        run("pmi", "--cooc", counts, "--output", mat, "--variant", "ppmi")
        emb = str(tmp_path / "e.txt")
        run("factorize", "--matrix", mat, "--output", emb, "--dim", "2")
        root = read_provenance(counts).root
        assert read_provenance(counts).hash() == root
        assert read_provenance(mat).root == root
        assert read_provenance(emb).root == root
        assert read_provenance(emb).hash() != root

    def test_mixed_ancestry_stays_mixed_downstream(self, tmp_path, corpus_path):
        # one corpus counted under two configurations: one shape, two roots
        counts_a = counted(tmp_path, corpus_path)
        counts_b = str(tmp_path / "counts_b.txt")
        assert run("count", "--input", corpus_path, "--output", counts_b,
                   "--weighting", "reciprocal") == 0
        assert read_provenance(counts_a).root != read_provenance(counts_b).root
        sol, alpha = str(tmp_path / "sol.txt"), str(tmp_path / "alpha.txt")
        assert run("solve", "--cooc", counts_a, "--output", sol, "--loss", "squared") == 0
        assert run("solve", "--cooc", counts_b, "--output", str(tmp_path / "sol_b.txt"),
                   "--loss", "squared", "--alpha-out", alpha) == 0
        emb, scores = str(tmp_path / "emb.txt"), str(tmp_path / "eval.txt")
        assert run("factorize", "--weighted", "--matrix", sol, "--alpha", alpha, "--output", emb,
                   "--dim", "2", "--epochs", "3", "--vocab", counts_a + ".vocab") == 0
        assert read_provenance(emb).root is None
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\tcat\t7.0\nfox\tthe\t2.0\nquick\tslow\t5.0\n")
        assert run("eval", "--embedding", emb, "--dataset", str(dataset), "--output", scores) == 0
        assert read_provenance(scores).root is None

    def test_vocab_from_another_run_mixes_the_root(self, tmp_path, corpus_path):
        counts_a = counted(tmp_path, corpus_path)
        counts_b = str(tmp_path / "counts_b.txt")
        assert run("count", "--input", corpus_path, "--output", counts_b,
                   "--weighting", "reciprocal") == 0
        mat = str(tmp_path / "m.txt")
        assert run("pmi", "--cooc", counts_a, "--output", mat, "--variant", "ppmi") == 0
        own, foreign = str(tmp_path / "own.txt"), str(tmp_path / "foreign.txt")
        for emb, vocab in ((own, counts_a + ".vocab"), (foreign, counts_b + ".vocab")):
            assert run("factorize", "--matrix", mat, "--output", emb, "--dim", "2",
                       "--vocab", vocab) == 0
            assert read_provenance(emb).inputs["vocab"] == read_provenance(vocab).hash()
        assert read_provenance(own).root == read_provenance(counts_a).root
        assert read_provenance(foreign).root is None


class TestReadOnce:
    def test_each_input_is_opened_once(self, tmp_path, corpus_path, monkeypatch):
        counts = counted(tmp_path, corpus_path)
        vocab = counts + ".vocab"
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\tcat\t7.0\nfox\tthe\t2.0\nquick\tslow\t5.0\n")
        ppmi, sol, alpha, svd, als = (
            str(tmp_path / name) for name in ("ppmi.txt", "sol.txt", "alpha.txt", "svd.txt", "als.txt")
        )
        out = str(tmp_path / "out")
        steps = [
            (["pmi", "--cooc", counts, "--output", ppmi, "--variant", "ppmi"], [counts]),
            (["solve", "--cooc", counts, "--output", sol, "--loss", "squared", "--alpha-out", alpha],
             [counts]),
            (["regularize", "--cooc", counts, "--output", out, "--reg", "l1", "--lam", "0.1"],
             [counts]),
            (["factorize", "--matrix", ppmi, "--output", svd, "--dim", "2", "--vocab", vocab],
             [ppmi, vocab]),
            (["factorize", "--weighted", "--matrix", sol, "--alpha", alpha, "--output", als,
              "--dim", "2", "--epochs", "3", "--vocab", vocab], [sol, alpha, vocab]),
            (["eval", "--embedding", svd, "--dataset", str(dataset), "--output", out],
             [svd, str(dataset)]),
            (["neighbors", "--embedding", svd, "--word", "fox", "--output", out], [svd]),
            (["report", "--cooc", counts, "--matrix", ppmi, "--samples", "20", "--output", out],
             [counts, ppmi]),
        ]
        opened = Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for argv, inputs in steps:
            opened.clear()
            assert run(*argv) == 0, argv
            assert {path: opened[path] for path in inputs} == dict.fromkeys(inputs, 1), argv
