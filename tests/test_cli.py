import os

import numpy as np
import pytest

from coocvec import read_cooc, read_embedding, read_matrix, read_provenance, read_vocab
from coocvec.cli import main

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
    def test_writes_counts_and_vocab(self, tmp_path, corpus_path):
        out = counted(tmp_path, corpus_path)
        stats = read_cooc(out)
        assert stats.total > 0
        vocab = read_vocab(out + ".vocab")
        assert vocab.words[0] == "the"
        assert read_provenance(out) is not None

    def test_explicit_vocab_path(self, tmp_path, corpus_path):
        out = str(tmp_path / "c.txt")
        vout = str(tmp_path / "v.tsv")
        assert run("count", "--input", corpus_path, "--output", out, "--vocab-out", vout) == 0
        assert read_vocab(vout).total_tokens == 14

    def test_binary_output(self, tmp_path, corpus_path):
        out = str(tmp_path / "c.bin")
        assert run("count", "--input", corpus_path, "--output", out, "--binary") == 0
        assert open(out, "rb").read(4) == b"CWB1"
        assert read_cooc(out).n_words == 6

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
        assert read_cooc(one).pairs == read_cooc(four).pairs

    def test_threads_default_from_environment(self, tmp_path, corpus_path, monkeypatch):
        monkeypatch.setenv("COOC_THREADS", "3")
        out = counted(tmp_path, corpus_path)
        prov = read_provenance(out)
        assert prov.config["threads"] == 3

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
        assert all(v > 0 for v in mat.entries.values())

    def test_invalid_k_category(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        code = run("pmi", "--cooc", counts, "--output", str(tmp_path / "m"), "--variant", "spmi", "--k", "0.5")
        assert code == 1
        assert capsys.readouterr().err.startswith("error invalid-k:")

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
        assert all(-1.0 <= v <= 1.0 for v in sol.entries.values())
        amat, ainfo = read_matrix(alpha)
        assert ainfo.tag == "alpha:squared"
        assert set(amat.entries) == set(sol.entries)
        assert all(v > 0 for v in amat.entries.values())

    def test_logistic_solution_keeps_undefined_absences(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        out = str(tmp_path / "sol.txt")
        assert run("solve", "--cooc", counts, "--output", out, "--loss", "logistic") == 0
        sol, _ = read_matrix(out)
        assert sol.implicit_value is None

    def test_hinge_alpha_is_a_domain_error(self, tmp_path, corpus_path, capsys):
        counts = counted(tmp_path, corpus_path)
        code = run(
            "solve", "--cooc", counts, "--output", str(tmp_path / "s"),
            "--loss", "hinge", "--alpha-out", str(tmp_path / "a"),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error domain-error:")

    def test_regularize_shrinks_toward_zero(self, tmp_path, corpus_path):
        counts = counted(tmp_path, corpus_path)
        loose = str(tmp_path / "l0.txt")
        tight = str(tmp_path / "l1.txt")
        assert run("regularize", "--cooc", counts, "--output", loose, "--reg", "l1", "--lam", "0.01") == 0
        assert run("regularize", "--cooc", counts, "--output", tight, "--reg", "l1", "--lam", "5.0") == 0
        a, ainfo = read_matrix(loose)
        b, binfo = read_matrix(tight)
        assert ainfo.lam == 0.01 and binfo.lam == 5.0
        norm = lambda m: sum(abs(v) for v in m.entries.values())
        assert norm(b) <= norm(a)


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
        empty = tmp_path / "empty.txt"
        empty.write_text("3 0.0\n")
        extra = {
            "pmi": ["--variant", "ppmi", "--output", str(tmp_path / "m")],
            "regularize": ["--reg", "l2", "--lam", "0.5", "--output", str(tmp_path / "m")],
            "solve": ["--loss", "logistic", "--output", str(tmp_path / "m")],
            "report": [],
        }[command]
        code = run(command, "--cooc", str(empty), *extra)
        err = capsys.readouterr().err.splitlines()
        if command in ("pmi", "regularize"):
            assert code == 0 and err == []
        else:
            assert code == 1
            assert len(err) == 1 and err[0].startswith("error degenerate-marginal:"), err

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
            assert set(read_embedding(emb).words) == {"#tag", "#", "the", "fox", "saw"}
            assert run("neighbors", "--embedding", emb, "--word", "#", "--n", "2") == 0
            assert run("neighbors", "--embedding", emb, "--word", "#tag", "--n", "2") == 0
        assert read_vocab(counts + ".vocab").words == read_vocab(str(tmp_path / "v.vocab")).words
        assert capsys.readouterr().err == ""


class TestOptionErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--stochastic", "--subsample", "1e-4", "--seed", "-1"],
            ["train-convex", "--seed", "-1"],
            ["count", "--left", "-1"],
            ["count", "--subsample", "0"],
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
            "factorize": ["--matrix", sol, "--alpha", alpha, "--output", out, "--dim", "2"],
            "neighbors": ["--embedding", emb, "--word", "fox"],
            "report": ["--cooc", counts],
        }
        capsys.readouterr()
        assert run(*argv, *inputs[argv[0]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error invalid-option:"), err
        assert not os.path.exists(out)


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
        emb = read_embedding(emb_path)
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
        emb = read_embedding(emb_path)
        ctx = read_embedding(ctx_path)
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

    def test_train_convex_and_eval(self, tmp_path, corpus_path):
        emb_path = str(tmp_path / "conv.txt")
        assert run(
            "train-convex", "--input", corpus_path, "--output", emb_path,
            "--epochs", "2", "--k-neg", "2",
        ) == 0
        emb = read_embedding(emb_path)
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

    def test_eval_insufficient_pairs_category(self, tmp_path, corpus_path, capsys):
        emb_path = str(tmp_path / "conv.txt")
        run("train-convex", "--input", corpus_path, "--output", emb_path, "--epochs", "1")
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("fox\twolf\t9.0\nfox\tcat\t3.0\n")
        code = run("eval", "--embedding", emb_path, "--dataset", str(dataset))
        assert code == 1
        assert capsys.readouterr().err.startswith("error insufficient-pairs:")


class TestReport:
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
        cfg.write_text("binary=true\nseed=9\n")
        out = str(tmp_path / "c.bin")
        assert run("count", "--input", corpus_path, "--output", out, "--config", str(cfg)) == 0
        assert open(out, "rb").read(4) == b"CWB1"
        assert read_provenance(out).config["seed"] == 9

    def test_unknown_config_key(self, tmp_path, corpus_path, capsys):
        cfg = tmp_path / "count.cfg"
        cfg.write_text("telemetry=on\n")
        code = run("count", "--input", corpus_path, "--output", str(tmp_path / "c"), "--config", str(cfg))
        assert code == 1
        assert capsys.readouterr().err.startswith("error bad-format:")

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
