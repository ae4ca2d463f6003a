"""The benchmark's three workloads: inputs, timed commands, checks, counters.

Settings follow Levy, Goldberg & Dagan (2015): window 5, subsampling 1e-4
and shift k = 5.  Corpus sizes are scaled so that one pass of each workload
takes a few seconds on a 2-core machine, which leaves room for several passes
per run; each workload keeps the layers that dominate it at full size.

Every command runs with the pass directory as working directory.  Inputs
made during set-up live in ../in, so the provenance stamps, and with them
the artifacts, are the same in every pass.
"""
from __future__ import annotations

import functools
import math
import os

import numpy as np

import checks
import gen

EMBED_TOKENS = 80_000
SWEEP_TOKENS = 40_000
FIT_TOKENS = 40_000
CONVEX_TOKENS = 10_000
SIM_PAIRS = 200
K = 5.0
LOSSES = ("logistic", "squared", "squared_hinge", "hinge", "huber")
SVD_DIM = 100
SVD_OVERSAMPLE = 8
SVD_POWER_ITERS = 4
ALS_DIM = 50
ALS_EPOCHS = 5
SINGULAR_CHECKED = 10
SINGULAR_REL_TOL = 1e-4
# Seed-code Spearman on embed-text is 0.71-0.78 over seeds 1-10; the floor
# catches a pipeline that stops recovering the planted topics.
SPEARMAN_FLOOR = 0.6

# Flags whose value names a file the command reads through coocvec.formats.
FORMAT_INPUTS = ("--cooc", "--matrix", "--alpha", "--vocab", "--embedding", "--dataset")


class Step:
    """One CLI command of a pass; `metric` names its per-command time."""

    def __init__(self, metric: str, argv: str):
        self.metric = metric
        self.argv = argv.split()

    @property
    def label(self) -> str:
        return self.metric[:-2]

    def format_inputs(self) -> list[str]:
        return [self.argv[i + 1] for i, a in enumerate(self.argv[:-1]) if a in FORMAT_INPUTS]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class Workload:
    """Inputs, timed steps, output checks and counters of one workload.

    `check` returns one entry per output check: its name and the problems
    found (none when it passes).
    """

    name = ""
    setup_steps: list[Step] = []
    steps: list[Step] = []

    def __init__(self, seed: int, in_dir: str):
        self.seed = seed
        self.in_dir = in_dir

    def make_inputs(self) -> None:
        """Write the generated inputs into self.in_dir."""
        raise NotImplementedError

    def output_checks(self, d: str) -> list[tuple[str, object]]:
        """(name, function returning a list of problems) for pass directory d."""
        raise NotImplementedError

    def check(self, d: str) -> dict[str, list[str]]:
        results = {}
        for name, fn in self.output_checks(d):
            try:
                results[name] = fn()
            except Exception as exc:  # a missing or garbled artifact fails its check
                results[name] = [f"{type(exc).__name__}: {exc}"]
        return results

    def counters(self, d: str) -> dict[str, float]:
        raise NotImplementedError


# ------------------------------------------------------------------ embed-text


class EmbedText(Workload):
    """The paper's headline path, all in text files.

    Counting, text I/O and the V x V densification inside SVD dominate; the
    closed forms, regularization, ALS and the convex model never run.
    """

    name = "embed-text"
    steps = [
        Step("count_s", "count --input ../in/corpus.txt --output counts.txt --min-count 10 "
             "--left 5 --right 5 --weighting reciprocal --subsample 1e-4 --context-subsample "
             "--threads 2"),
        Step("pmi_s", "pmi --cooc counts.txt --output ppmi.txt --variant ppmi"),
        Step("factorize_svd_s", f"factorize --matrix ppmi.txt --output vectors.txt "
             f"--dim {SVD_DIM} --vocab counts.txt.vocab"),
        Step("eval_s", "eval --embedding vectors.txt --dataset ../in/sim.tsv --output eval.txt"),
        Step("eval_s", "neighbors --embedding vectors.txt --word w100 --n 10 "
             "--output neighbors.txt"),
    ]

    def make_inputs(self) -> None:
        in_dir = self.in_dir
        self.corpus = gen.make_corpus(EMBED_TOKENS, self.seed)
        _write(os.path.join(in_dir, "corpus.txt"), gen.corpus_text(self.corpus))
        pairs = gen.similarity_pairs(self.corpus, 10, SIM_PAIRS, self.seed)
        _write(os.path.join(in_dir, "sim.tsv"), gen.similarity_text(pairs))

    def _stream(self):
        to_vid, freq, words = checks.vocabulary(self.corpus.ids, 10, gen.word)
        vid, rec = checks.kept_stream(self.corpus, to_vid)
        return words, freq, vid, rec

    def output_checks(self, d: str):
        def counts():
            _, freq, vid, rec = self._stream()
            ref = checks.reference_counts(vid, rec, len(freq), freq, 5, 5, True, 1e-4)
            return checks.check_counts(checks.read_triplets(p("counts.txt")), ref)

        def ppmi():
            return checks.check_pmi_matrix(
                checks.read_triplets(p("ppmi.txt")), checks.read_triplets(p("counts.txt")), 1.0)

        def vectors():
            vocab_words, freq, _, _ = self._stream()
            words, vec = checks.read_embedding(p("vectors.txt"))
            if words != vocab_words or vec.shape != (len(freq), SVD_DIM):
                return ["factorize: rows or shape differ from the vocabulary"]
            got = np.linalg.norm(vec, axis=0)[:SINGULAR_CHECKED]
            want = checks.top_singular_values(checks.read_triplets(p("ppmi.txt")), SINGULAR_CHECKED)
            if not checks.close(got, want, rel=SINGULAR_REL_TOL, abs_=0.0):
                return [f"factorize: top singular values {got[:3]} vs svds {want[:3]}"]
            return []

        def spearman():
            rho = float(checks.read_kv(p("eval.txt"))["spearman"])
            return [] if rho >= SPEARMAN_FLOOR else [f"spearman {rho!r} below {SPEARMAN_FLOOR}"]

        def neighbors():
            words, vec = checks.read_embedding(p("vectors.txt"))
            return _check_neighbors(p("neighbors.txt"), words, vec, "w100", 10)

        p = functools.partial(os.path.join, d)
        return [("counts", counts), ("ppmi", ppmi), ("svd", vectors),
                ("spearman", spearman), ("neighbors", neighbors)]

    def counters(self, d: str) -> dict[str, float]:
        _, freq, _, rec = self._stream()
        counts = checks.read_triplets(os.path.join(d, "counts.txt"))
        ppmi = checks.read_triplets(os.path.join(d, "ppmi.txt"))
        v = len(freq)
        return {
            "corpus.window_slots": checks.window_slots(rec, 5, 5),
            "corpus.nnz": counts.nnz,
            "pmi.nnz_out": ppmi.nnz,
            "factorization.svd_dense_bytes": 8 * v * v,
            "factorization.svd_flops": svd_flops(v, SVD_DIM + SVD_OVERSAMPLE, SVD_POWER_ITERS),
        }


def _check_neighbors(path, words, vectors, query, n) -> list[str]:
    norms = np.linalg.norm(vectors, axis=1)
    q = words.index(query)
    sims = vectors @ vectors[q] / np.where(norms > 0, norms * norms[q], 1.0)
    order = [i for i in np.lexsort((np.arange(len(words)), -sims)) if i != q][:n]
    with open(path, encoding="utf-8") as fh:
        got = [ln.split("\t")[0] for ln in fh.read().split("\n") if ln]
    if got != [words[i] for i in order]:
        return [f"neighbors: {got[:3]} differ from the cosine ranking"]
    return []


def svd_flops(v: int, sketch: int, power_iters: int) -> float:
    """Computed flops of randomized SVD on a dense v x v matrix.

    Dense products A @ G, 2 per power iteration and Q^T A, QR of the v x
    sketch blocks, and the small SVD; the densification itself is not counted.
    """
    products = (2 + 2 * power_iters) * 2.0 * v * v * sketch
    qr = (1 + 2 * power_iters) * 4.0 * v * sketch * sketch
    small_svd = 4.0 * v * sketch * sketch
    return products + qr + small_svd


# ------------------------------------------------------------ closed-form-sweep


def _sweep_steps() -> list[Step]:
    steps = []
    for loss in LOSSES:
        alpha = "" if loss == "hinge" else f" --alpha-out alpha_{loss}.bin"
        steps.append(Step("solve_s", f"solve --cooc ../in/counts.bin --output sol_{loss}.bin "
                          f"--loss {loss} --k {K}{alpha} --binary"))
    steps += [
        Step("regularize_s", "regularize --cooc ../in/counts.bin --output reg_l1.bin "
             "--reg l1 --lam 0.5 --binary"),
        Step("regularize_s", f"regularize --cooc ../in/counts.bin --output reg_l2.bin "
             f"--reg l2 --k {K} --lam 0.5 --binary"),
        Step("pmi_s", f"pmi --cooc ../in/counts.bin --output sppmi.bin --variant sppmi "
             f"--k {K} --binary"),
        Step("report_s", f"report --cooc ../in/counts.bin --k {K} --samples 200 "
             "--output report.txt"),
    ]
    return steps


class ClosedFormSweep(Workload):
    """Re-solving from one binary counts file, as in a hyperparameter sweep.

    Per-pair closed forms, the L2 exact fallback, the CLI's per-pair loops,
    binary I/O and nine interpreter starts dominate; nothing is counted or
    factorized in a pass.
    """

    name = "closed-form-sweep"
    setup_steps = [
        Step("count_s", "count --input corpus.txt --output counts.bin --left 2 --right 2 "
             "--min-count 10 --binary"),
    ]
    steps = _sweep_steps()

    def make_inputs(self) -> None:
        in_dir = self.in_dir
        corpus = gen.make_corpus(SWEEP_TOKENS, self.seed)
        _write(os.path.join(in_dir, "corpus.txt"), gen.corpus_text(corpus))

    def output_checks(self, d: str):
        p = functools.partial(os.path.join, d)
        counts = lambda: checks.read_triplets(os.path.join(self.in_dir, "counts.bin"))
        tri = lambda name: checks.read_triplets(p(name))

        def solve(loss):
            def run():
                alpha = None if loss == "hinge" else tri(f"alpha_{loss}.bin")
                return checks.check_solution(tri(f"sol_{loss}.bin"), alpha, counts(), loss, K)
            return run

        def report():
            with open(p("report.txt"), encoding="utf-8") as fh:
                signs = [ln for ln in fh.read().split("\n") if ln.startswith("sign_agreement[")]
            if len(signs) != len(LOSSES) or any(not ln.endswith("\tyes") for ln in signs):
                return [f"report: sign lines {signs}"]
            return []

        return [(f"solve_{loss}", solve(loss)) for loss in LOSSES] + [
            ("l1", lambda: checks.check_l1(tri("reg_l1.bin"), counts(), 1.0, 0.5)),
            ("l2", lambda: checks.check_l2(tri("reg_l2.bin"), counts(), K, 0.5)),
            ("sppmi", lambda: checks.check_pmi_matrix(tri("sppmi.bin"), counts(), K)),
            ("report", report),
        ]

    def counters(self, d: str) -> dict[str, float]:
        counts = checks.read_triplets(os.path.join(self.in_dir, "counts.bin"))
        fallback = checks.l2_fallback_mask(counts, K)
        return {
            "regularization.pairs": 2 * counts.nnz,
            "regularization.exact_fallback_frac": float(fallback.mean()),
            "pmi.nnz_out": checks.read_triplets(os.path.join(d, "sppmi.bin")).nnz,
        }


# ------------------------------------------------------------------ fit-models


class FitModels(Workload):
    """The iterative solvers: weighted ALS and the convex model.

    `--tol 0` fixes the ALS work at five sweeps on every commit.  Counting
    and solving happen in set-up; I/O is minor.
    """

    name = "fit-models"
    setup_steps = [
        Step("count_s", "count --input corpus.txt --output counts.bin --min-count 10 --binary"),
        Step("solve_s", "solve --cooc counts.bin --output sol.bin --loss squared "
             "--alpha-out alpha.bin --binary"),
    ]
    steps = [
        Step("factorize_als_s", f"factorize --matrix ../in/sol.bin --weighted "
             f"--alpha ../in/alpha.bin --dim {ALS_DIM} --epochs {ALS_EPOCHS} --tol 0 "
             "--vocab ../in/counts.bin.vocab --output als.txt --context-out als_ctx.txt"),
        Step("train_convex_sgd_s", "train-convex --input ../in/convex.txt --output sgd.txt "
             "--min-count 5 --epochs 1 --l1 1e-4"),
        Step("train_convex_full_s", "train-convex --input ../in/convex.txt --output full.txt "
             "--min-count 5 --epochs 3 --full-batch --step 0.5"),
        Step("eval_s", "eval --embedding als.txt --dataset ../in/sim.tsv --output eval_als.txt"),
        Step("eval_s", "eval --embedding sgd.txt --dataset ../in/sim_convex.tsv "
             "--output eval_sgd.txt"),
        Step("eval_s", "eval --embedding full.txt --dataset ../in/sim_convex.tsv "
             "--output eval_full.txt"),
    ]

    def make_inputs(self) -> None:
        in_dir = self.in_dir
        corpus = gen.make_corpus(FIT_TOKENS, self.seed)
        _write(os.path.join(in_dir, "corpus.txt"), gen.corpus_text(corpus))
        pairs = gen.similarity_pairs(corpus, 10, SIM_PAIRS, self.seed)
        _write(os.path.join(in_dir, "sim.tsv"), gen.similarity_text(pairs))
        self.convex = gen.make_corpus(CONVEX_TOKENS, [self.seed, 1])
        _write(os.path.join(in_dir, "convex.txt"), gen.corpus_text(self.convex))
        pairs = gen.similarity_pairs(self.convex, 5, SIM_PAIRS, [self.seed, 1])
        _write(os.path.join(in_dir, "sim_convex.tsv"), gen.similarity_text(pairs))

    def _examples(self):
        to_vid, freq, words = checks.vocabulary(self.convex.ids, 5, gen.word)
        vid, rec = checks.kept_stream(self.convex, to_vid)
        Z, targets = checks.bag_examples(vid, rec, len(freq), 2, 2)
        return words, freq, Z, targets

    def output_checks(self, d: str):
        p = functools.partial(os.path.join, d)

        def als():
            target = checks.read_triplets(os.path.join(self.in_dir, "sol.bin"))
            alpha = checks.read_triplets(os.path.join(self.in_dir, "alpha.bin"))
            n = int(target.head[0])
            _, W = checks.read_embedding(p("als.txt"))
            _, C = checks.read_embedding(p("als_ctx.txt"))
            if W.shape != (n, ALS_DIM) or C.shape != (n, ALS_DIM):
                return [f"shapes {W.shape}, {C.shape}"]
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(C))):
                return ["non-finite factors"]
            fit, zero = checks.als_residuals(W, C, target, alpha)
            return [] if fit < zero else [f"residual {fit!r} not below zero's {zero!r}"]

        def convex(name, l1, objective):
            def run():
                words, freq, Z, targets = self._examples()
                got_words, M = checks.read_embedding(p(name))
                if got_words != words or M.shape != (len(freq), len(freq)):
                    return [f"vocabulary or shape {M.shape} differ"]
                if not np.all(np.isfinite(M)):
                    return ["non-finite weights"]
                if not objective:
                    return []
                noise = freq / freq.sum()
                trained = checks.convex_objective(M, Z, targets, noise, 5, l1)
                start = checks.convex_objective(np.zeros_like(M), Z, targets, noise, 5, l1)
                return [] if trained < start else [f"objective {trained!r} not below {start!r}"]
            return run

        def evals():
            errs = []
            for name in ("eval_als.txt", "eval_sgd.txt", "eval_full.txt"):
                report = checks.read_kv(p(name))
                if not (math.isfinite(float(report["spearman"])) and float(report["coverage"]) == 1.0):
                    errs.append(f"{name}: {report}")
            return errs

        return [("als", als), ("convex_sgd", convex("sgd.txt", 1e-4, False)),
                ("convex_full", convex("full.txt", 0.0, True)), ("eval", evals)]

    def counters(self, d: str) -> dict[str, float]:
        target = checks.read_triplets(os.path.join(self.in_dir, "sol.bin"))
        _, freq, Z, _ = self._examples()
        _, M = checks.read_embedding(os.path.join(d, "sgd.txt"))
        solves = len(np.unique(target.i)) + len(np.unique(target.j))
        return {
            "factorization.als_row_solves": ALS_EPOCHS * solves,
            "convex_model.examples": Z.shape[0],
            "convex_model.context_groups": checks.context_groups(Z),
            "convex_model.nonzero_frac": float(np.count_nonzero(M)) / M.size,
        }


WORKLOADS = {w.name: w for w in (EmbedText, ClosedFormSweep, FitModels)}
