"""End-to-end acceptance checks, one test per numbered criterion.

Every test records a PASS/FAIL verdict line; a terminal-summary hook in
conftest replays the lines after the run so they survive output capture.
Failure details carry the measured quantity, not just the bound.
"""
import math
import time

import numpy as np
import pytest

from coocvec import (
    LOSS_NAMES,
    ContextSpec,
    TrainConfig,
    WindowSpec,
    consistency_report,
    count_encoded,
    objective_value,
    read_cooc,
    regularize_stats,
    solve_exact,
    solve_l1,
    solve_l2,
    solve_pair,
    solve_stats,
    train,
    weighted_factorize,
)
from coocvec.cli import main as cli_main
from coocvec.convex_model import Example, corpus_objective, noise_distribution
from helpers import encode_records, from_dense, random_count_tuples, random_stats, weighted_problem
from oracles import als_residual, example_loss_grad, minimize_rho, reg_root

VERDICTS: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_closed_forms_match_numeric_minimizer():
    # Positive joint counts only: at n_wc = 0 the quadratic-family objective
    # is flat left of -1, so there is no unique minimizer to compare against.
    rng = np.random.default_rng(101)
    tuples = random_count_tuples(rng, 1000)
    t0 = time.time()
    worst = 0.0
    checked = 0
    for (n_wc, n_w, n_c, total, k) in tuples:
        for kind in LOSS_NAMES:
            sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
            if np.isneginf(sol.x_star):
                continue
            ref = minimize_rho(kind, n_wc, n_w, n_c, total, k)
            worst = max(worst, abs(sol.x_star - ref))
            checked += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"closed forms vs numeric minimizer on {checked} solves: "
        f"max abs err {worst:.2e} (bound 1e-7) in {elapsed:.2f}s (bound 10s)",
    )


def test_criterion_02_sign_rule_predicts_solution_sign():
    rng = np.random.default_rng(202)
    tuples = random_count_tuples(rng, 1000)
    agree = 0
    total_checked = 0
    for (n_wc, n_w, n_c, total, k) in tuples:
        for kind in LOSS_NAMES:
            sol = solve_pair(kind, n_wc, n_w, n_c, total, k)
            if np.isneginf(sol.x_star) or sol.x_star == 0.0:
                continue
            total_checked += 1
            if (sol.x_star > 0) == (n_wc * total > k * n_w * n_c):
                agree += 1
    ok = agree == total_checked
    _verdict(
        2,
        ok,
        f"sign rule agreement {agree}/{total_checked} across all losses (bound 100%)",
    )


def test_criterion_03_quadratic_family_shares_one_solution():
    rng = np.random.default_rng(303)
    tuples = random_count_tuples(rng, 1000, zero_fraction=0.1)
    spread = 0.0
    for (n_wc, n_w, n_c, total, k) in tuples:
        xs = [
            solve_pair(kind, n_wc, n_w, n_c, total, k).x_star
            for kind in ("squared", "squared_hinge", "huber")
        ]
        spread = max(spread, max(xs) - min(xs))
    ok = spread <= 1e-12
    _verdict(
        3,
        ok,
        f"squared / squared_hinge / huber max solution spread {spread:.2e} (bound 1e-12)",
    )


def test_criterion_04_objective_symmetric_under_factor_swap():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 8
        stats = random_stats(rng, n_words=6, density=0.5, symmetric=True)
        kind = LOSS_NAMES[trial % len(LOSS_NAMES)]
        k = float(rng.uniform(1.0, 4.0))
        W = rng.normal(size=(6, d))
        C = rng.normal(size=(6, d))
        a = objective_value(W, C, stats, kind, k)
        b = objective_value(C, W, stats, kind, k)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-12
    _verdict(
        4,
        ok,
        f"factor swap on symmetric counts: max rel objective gap {worst:.2e} "
        f"over 100 trials (bound 1e-12)",
    )


def test_criterion_05_one_hot_assembly_minimizes_squared_objective():
    rng = np.random.default_rng(505)
    words = [f"w{i:02d}" for i in range(30)]
    stream = [words[int(rng.integers(0, 30))] for _ in range(600)]
    vocab, tokens = encode_records([stream[i : i + 60] for i in range(0, 600, 60)])
    stats = count_encoded(tokens, vocab, WindowSpec(left=2, right=2))
    W0 = solve_stats(stats, "squared", 1.0)[0].to_dense()
    n = stats.n_words
    C = np.eye(n)
    base = objective_value(W0, C, stats, "squared", 1.0)
    wins = 0
    for _ in range(50):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        delta = float(rng.choice([-0.05, 0.05]))
        W = W0.copy()
        W[i, j] += delta
        if objective_value(W, C, stats, "squared", 1.0) >= base - 1e-12:
            wins += 1
    ok = wins == 50
    _verdict(
        5,
        ok,
        f"one-hot squared assembly beat {wins}/50 single-entry perturbations "
        f"(base objective {base:.6f})",
    )


def test_criterion_06_l1_solution_exact_and_sparsifying():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        pmi = float(rng.uniform(-5.0, 5.0))
        k = float(rng.uniform(1.0, 8.0))
        lam = float(np.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
        got = solve_l1(pmi, k, lam)
        ref = reg_root(pmi, k, lam, "l1")
        worst = max(worst, abs(got - ref))
    stats = random_stats(np.random.default_rng(66), n_words=8, density=0.6)
    zero_counts = []
    for lam in (0.01, 0.1, 1.0, 10.0):
        mat = regularize_stats(stats, "l1", 1.0, lam)
        zero_counts.append(int(np.count_nonzero(mat.v == 0.0)))
    monotone = all(a <= b for a, b in zip(zero_counts, zero_counts[1:]))
    ok = worst <= 1e-10 and monotone
    _verdict(
        6,
        ok,
        f"l1 vs root finder max abs err {worst:.2e} (bound 1e-10); "
        f"zero counts over lam grid {zero_counts} monotone={monotone}",
    )


def test_criterion_07_l2_chord_error_within_fifteen_percent():
    worst = 0.0
    worst_at = (0.0, 0.0, 0.0)
    limit_err = 0.0
    for k in (1.0, 2.0, 5.0):
        for gap in np.linspace(0.1, 5.0, 25):
            pmi = math.log(k) + float(gap)
            limit_err = max(limit_err, abs(solve_l2(pmi, k, 0.0) - gap))
            for lam in np.geomspace(1e-3, 10.0, 25):
                chord = solve_l2(pmi, k, float(lam))
                exact = solve_exact(pmi, k, float(lam), "l2")
                rel = abs(chord - exact) / abs(exact)
                if rel > worst:
                    worst = rel
                    worst_at = (k, float(gap), float(lam))
    ok = worst < 0.15 and limit_err <= 1e-6
    _verdict(
        7,
        ok,
        f"l2 chord max rel err {worst:.1%} at k={worst_at[0]}, gap={worst_at[1]:.2f}, "
        f"lam={worst_at[2]:.3g} (bound 15%); lam->0 limit err {limit_err:.1e} (bound 1e-6)",
    )


def test_criterion_08_gram_consistency_by_flavor():
    rng = np.random.default_rng(808)
    plain_worst = 0.0
    symmetric_best = 0.0
    for _ in range(20):
        A = rng.normal(size=(50, 50))
        s = np.linalg.svd(A, compute_uv=False)
        M = from_dense(A)
        plain_worst = max(plain_worst, consistency_report(M, "plain"))
        if abs(s[0] - s[-1]) > 1e-6:
            symmetric_best = max(symmetric_best, consistency_report(M, "symmetric"))
    ok = plain_worst <= 1e-6 and symmetric_best > 1e-3
    _verdict(
        8,
        ok,
        f"gram gap over 20 random 50x50: plain max {plain_worst:.2e} (bound 1e-6), "
        f"symmetric max {symmetric_best:.2e} (must exceed 1e-3 somewhere)",
    )


def test_criterion_09_weighted_als_monotone_and_reaches_svd_optimum():
    rng = np.random.default_rng(909)
    monotone_ok = 0
    for _ in range(100):
        n_rows = int(rng.integers(3, 9))
        n_cols = int(rng.integers(3, 9))
        targets = {}
        weights = {}
        for i in range(n_rows):
            for j in range(n_cols):
                if rng.random() < 0.6:
                    targets[(i, j)] = float(rng.normal())
                    weights[(i, j)] = float(rng.uniform(0.05, 4.0))
        if not targets:
            targets[(0, 0)] = 1.0
            weights[(0, 0)] = 1.0
        dim = int(rng.integers(1, min(n_rows, n_cols) + 1))
        problem = weighted_problem(n_rows, n_cols, targets, weights)
        result = weighted_factorize(*problem, dim=dim, epochs=30, seed=int(rng.integers(0, 1000)))
        hist = result.objective_history
        if all(a + 1e-9 >= b for a, b in zip(hist, hist[1:])):
            monotone_ok += 1

    n, d = 20, 5
    A = np.random.default_rng(99).normal(size=(n, n))
    targets = {(i, j): float(A[i, j]) for i in range(n) for j in range(n)}
    weights = {key: 1.0 for key in targets}
    problem = weighted_problem(n, n, targets, weights)
    result = weighted_factorize(*problem, dim=d, epochs=500, ridge=1e-12, tol=0.0, seed=0)
    s = np.linalg.svd(A, compute_uv=False)
    best = 0.5 * float(np.sum(s[d:] ** 2))
    gap = als_residual(*problem, result.W, result.C) - best
    ok = monotone_ok == 100 and abs(gap) <= 1e-6
    _verdict(
        9,
        ok,
        f"als objective monotone on {monotone_ok}/100 weighted problems; "
        f"unweighted 20x20 rank-5 residual gap to direct factorization {gap:.2e} (bound 1e-6)",
    )


def test_criterion_10_convex_gradients_exact_and_descent_monotone():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for trial in range(50):
        n, m = 5, 6
        W = rng.normal(size=(n, m)) * 0.5
        nnz = int(rng.integers(1, 4))
        idx = np.sort(rng.choice(m, size=nnz, replace=False)).astype(np.int64)
        val = rng.uniform(0.5, 2.0, size=nnz)
        ex = Example(target=int(rng.integers(0, n)), idx=idx, val=val)
        negatives = None
        if trial % 2 == 1:
            negatives = [int(g) for g in rng.integers(0, n, size=3)]
        loss_grad = lambda M: example_loss_grad(M, ex, negatives)
        _, G, _ = loss_grad(W)
        num = np.zeros_like(W)
        h = 1e-6
        for pos in np.ndindex(W.shape):
            Wp = W.copy()
            Wp[pos] += h
            Wm = W.copy()
            Wm[pos] -= h
            num[pos] = (loss_grad(Wp)[0] - loss_grad(Wm)[0]) / (2 * h)
        worst = max(worst, float(np.abs(G - num).max()))

    vocab, tokens = encode_records([["red", "blue"] * 10, ["hot", "cold"] * 10] * 3)
    spec = ContextSpec(mode="bag", window=WindowSpec(left=1, right=1))
    from coocvec import build_examples

    exs = build_examples(tokens, vocab, spec)
    noise = noise_distribution(vocab, "unigram")
    probe = TrainConfig(objective="negative_sampling", k_neg=2, l1=0.01)
    values = []
    for epochs in range(0, 9):
        cfg = TrainConfig(
            objective="negative_sampling", k_neg=2, l1=0.01,
            full_batch=True, step_initial=0.5, epochs=epochs,
        )
        emb = train(tokens, vocab, spec, cfg)
        values.append(corpus_objective(emb.vectors, exs, probe, noise))
    monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    ok = worst <= 1e-6 and monotone and values[-1] < values[0]
    _verdict(
        10,
        ok,
        f"analytic vs numeric gradients on 50 instances: max err {worst:.2e} (bound 1e-6); "
        f"full-batch objective monotone={monotone} "
        f"({values[0]:.4f} -> {values[-1]:.4f} over 8 epochs)",
    )


def test_criterion_11_full_batch_single_mode_recovers_pairwise_logistic():
    rng = np.random.default_rng(41)
    words = [f"w{i}" for i in range(8)]
    vocab, tokens = encode_records([[words[int(i)] for i in rng.integers(0, 8, size=500)]])
    spec = ContextSpec(mode="single", window=WindowSpec(left=1, right=1))
    cfg = TrainConfig(
        objective="negative_sampling", k_neg=2, noise="unigram",
        full_batch=True, step_initial=2.0, epochs=2500,
    )
    t0 = time.time()
    emb = train(tokens, vocab, spec, cfg)
    elapsed = time.time() - t0
    stats = count_encoded(tokens, vocab, spec.window)
    noise = noise_distribution(vocab, "unigram")
    worst = 0.0
    counts = stats.counts
    for w, c, n_wc in zip(counts.i.tolist(), counts.j.tolist(), counts.v.tolist()):
        sol = solve_pair(
            "logistic", n_wc, float(noise[w]), float(stats.col_marginal[c]), 1.0, cfg.k_neg
        )
        worst = max(worst, abs(float(emb.vectors[w, c]) - sol.x_star))
    ok = worst <= 1e-3 and elapsed < 60.0
    _verdict(
        11,
        ok,
        f"full-batch trainer vs per-pair logistic closed form on {counts.nnz} "
        f"stored pairs of a 500-token corpus: max abs gap {worst:.2e} (bound 1e-3) "
        f"in {elapsed:.1f}s (bound 60s)",
    )


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.txt"
    rng = np.random.default_rng(1212)
    words = [f"tok{i}" for i in range(12)]
    lines = []
    for _ in range(20):
        lines.append(" ".join(words[int(i)] for i in rng.integers(0, 12, size=15)))
    corpus.write_text("\n".join(lines) + "\n")
    dataset = tmp_path / "sim.tsv"
    dataset.write_text("tok0\ttok1\t7.0\ntok2\ttok3\t4.0\ntok0\ttok5\t1.0\n")

    commands = [
        ["count", "--input", "corpus.txt", "--output", "counts.txt", "--threads", "2"],
        ["count", "--input", "corpus.txt", "--output", "counts.bin", "--binary"],
        ["pmi", "--cooc", "counts.txt", "--output", "ppmi.txt", "--variant", "ppmi"],
        ["solve", "--cooc", "counts.txt", "--output", "sol.txt", "--loss", "squared",
         "--alpha-out", "alpha.txt"],
        ["regularize", "--cooc", "counts.txt", "--output", "reg.txt", "--reg", "l1",
         "--lam", "0.5"],
        ["factorize", "--matrix", "ppmi.txt", "--output", "emb.txt", "--dim", "4",
         "--vocab", "counts.txt.vocab"],
        ["factorize", "--matrix", "sol.txt", "--output", "als.txt", "--dim", "3",
         "--weighted", "--alpha", "alpha.txt", "--epochs", "40"],
        ["train-convex", "--input", "corpus.txt", "--output", "conv.txt",
         "--epochs", "2", "--k-neg", "2", "--seed", "5"],
        ["eval", "--embedding", "emb.txt", "--dataset", "sim.tsv", "--output", "eval.tsv"],
        ["neighbors", "--embedding", "emb.txt", "--word", "tok0", "--n", "3",
         "--output", "nn.tsv"],
    ]
    outputs = [
        "counts.txt", "counts.txt.vocab", "counts.bin", "counts.bin.vocab",
        "ppmi.txt", "sol.txt", "alpha.txt", "reg.txt", "emb.txt", "als.txt",
        "conv.txt", "eval.tsv", "nn.tsv",
    ]

    for argv in commands:
        assert cli_main(list(argv)) == 0, f"first run failed: {argv}"
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    for argv in commands:
        assert cli_main(list(argv)) == 0, f"second run failed: {argv}"
    second = {name: (tmp_path / name).read_bytes() for name in outputs}
    differing = sorted(name for name in outputs if first[name] != second[name])
    ok = not differing
    _verdict(
        12,
        ok,
        f"reran {len(commands)} commands over {len(outputs)} artifacts: "
        + ("all byte-identical" if ok else f"differing files {differing}"),
    )
