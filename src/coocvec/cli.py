"""Command-line pipeline over the workbench modules.

Every subcommand reads and writes the formats module's file types, embeds a
provenance stamp in each output, and maps module errors to a one-line
`error <category>: message` on stderr with a nonzero exit.  Outputs are
byte-identical across runs with the same configuration and seed on a single
thread.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import convex_model, evaluation, factorization, formats, regularization
from .closed_form import LOSS_NAMES, minimize_pair_numeric, solve_pairs, solve_stats
from .corpus import POSITIONAL_WEIGHTS, WindowSpec, build_vocabulary, count_cooccurrences
from .errors import (
    DimensionMismatchError,
    DomainError,
    FormatError,
    InvalidOptionError,
    MixedProvenanceError,
    WorkbenchError,
    check_seed,
    check_shift,
)
from .pmi import VARIANTS, build_matrix, pmi_values
from .vectors import Embedding


def _config_dict(args: argparse.Namespace, skip=("func", "command", "config")) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        out[key] = value
    return out


# the path options each command reads and writes (every command also reads --config)
PATHS = {
    "count": (("input",), ("output", "vocab_out")),
    "pmi": (("cooc",), ("output",)),
    "solve": (("cooc",), ("output", "alpha_out")),
    "regularize": (("cooc",), ("output",)),
    "factorize": (("matrix", "vocab", "alpha"), ("output", "context_out")),
    "train-convex": (("input",), ("output", "vocab_out")),
    "eval": (("embedding", "dataset"), ("output",)),
    "neighbors": (("embedding",), ("output",)),
    "report": (("cooc", "matrix"), ("output",)),
}


def _count_vocab_out(args: argparse.Namespace) -> str:
    return args.vocab_out or args.output + ".vocab"


def _file_id(path: str):
    """The file a path names: its inode when it exists (hard links too), else its real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse a written path that names another path of the command, which it would replace."""
    reads, writes = PATHS[args.command]
    named = {dest: getattr(args, dest) for dest in ("config", *reads, *writes)}
    if args.command == "count":
        named["vocab_out"] = _count_vocab_out(args)
    ids = {dest: _file_id(path) for dest, path in named.items() if path}
    for dest in writes:
        other = next((d for d in ids if d != dest and ids[d] == ids.get(dest)), None)
        if other:
            flags = [f"--{d.replace('_', '-')} {named[d]}" for d in (dest, other)]
            raise InvalidOptionError(f"{' and '.join(flags)} name the same file")


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_count(args: argparse.Namespace) -> int:
    threads = args.threads
    if threads is None:
        env = os.environ.get("COOC_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise InvalidOptionError(f"COOC_THREADS must be an integer, got {env!r}") from None
    vocab_out = _count_vocab_out(args)
    records = formats.read_corpus(args.input)
    vocab = build_vocabulary(records, min_count=args.min_count)
    win = WindowSpec(
        left=args.left,
        right=args.right,
        positional_weight=args.weighting,
        subsample_threshold=args.subsample,
        context_subsample=args.context_subsample,
        context_subsample_threshold=args.context_subsample_threshold,
        stochastic_subsample=args.stochastic,
    )
    stats = count_cooccurrences(records, vocab, win, seed=args.seed, shards=threads)
    config = _config_dict(args)
    config["threads"] = threads
    prov = formats.make_provenance("count", config)
    formats.write_cooc(stats, args.output, prov=prov, binary=args.binary)
    formats.write_vocab(vocab, vocab_out, prov=prov)
    return 0


def cmd_pmi(args: argparse.Namespace) -> int:
    stats, cooc_prov = formats.read_cooc(args.cooc)
    matrix = build_matrix(stats, args.variant, k=args.k)
    prov = formats.make_provenance("pmi", _config_dict(args), {"cooc": cooc_prov})
    formats.write_matrix(
        matrix, args.output, tag=args.variant, k=args.k, prov=prov, binary=args.binary
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    stats, cooc_prov = formats.read_cooc(args.cooc)
    scores, alpha = solve_stats(stats, args.loss, args.k)
    if args.alpha_out and alpha is None:
        raise DomainError(f"{args.loss} loss has no curvature weights to export")
    prov = formats.make_provenance("solve", _config_dict(args), {"cooc": cooc_prov})
    formats.write_matrix(
        scores, args.output, tag=f"solution:{args.loss}", k=args.k, prov=prov, binary=args.binary
    )
    if args.alpha_out:
        formats.write_matrix(
            alpha, args.alpha_out, tag=f"alpha:{args.loss}", k=args.k, prov=prov, binary=args.binary
        )
    return 0


def cmd_regularize(args: argparse.Namespace) -> int:
    stats, cooc_prov = formats.read_cooc(args.cooc)
    spec = regularization.RegSpec(kind=args.reg, k=args.k, lam=args.lam)
    matrix = regularization.regularize_stats(stats, spec)
    prov = formats.make_provenance("regularize", _config_dict(args), {"cooc": cooc_prov})
    formats.write_matrix(
        matrix,
        args.output,
        tag=f"reg:{args.reg}",
        k=args.k,
        lam=args.lam,
        prov=prov,
        binary=args.binary,
    )
    return 0


# factorize options that one mode reads and the other refuses, with their defaults
SVD_OPTIONS = {"flavor": "plain", "oversample": 8, "power_iters": 4}
ALS_OPTIONS = {"alpha": None, "epochs": 200, "ridge": 1e-8, "tol": 1e-8, "context_out": None}


def cmd_factorize(args: argparse.Namespace) -> int:
    for dest, default in (SVD_OPTIONS if args.weighted else ALS_OPTIONS).items():
        if getattr(args, dest) != default:  # also true for a nan
            flag = "--" + dest.replace("_", "-")
            raise InvalidOptionError(
                f"{flag} {'is not used with' if args.weighted else 'needs'} --weighted"
            )
    matrix, info = formats.read_matrix(args.matrix)
    upstream = {"matrix": info.prov}
    words = None
    if args.vocab:
        vocab, upstream["vocab"] = formats.read_vocab(args.vocab)
        words = vocab.words
        if len(words) != matrix.rows:
            raise DimensionMismatchError(
                f"{args.vocab} has {len(words)} words for {matrix.rows} matrix rows"
            )
        if args.context_out and len(words) != matrix.cols:
            raise DimensionMismatchError(
                f"{args.vocab} has {len(words)} words for {matrix.cols} context rows"
            )
    if args.weighted:
        if not args.alpha:
            raise FormatError("--weighted needs --alpha with curvature weights")
        alpha_matrix, alpha_info = formats.read_matrix(args.alpha)
        upstream["alpha"] = alpha_info.prov
        if (alpha_matrix.rows, alpha_matrix.cols) != (matrix.rows, matrix.cols):
            raise DimensionMismatchError(f"{args.alpha} and {args.matrix} differ in shape")
        pos, found = alpha_matrix.find(matrix.i, matrix.j)
        if not found.all():
            first = matrix.pair(int(np.argmin(found)))
            raise FormatError(f"alpha file lacks weight for stored pair {first}")
        weights = alpha_matrix.v[pos]
        bad = ~(np.isfinite(weights) & (weights >= 0.0))
        if bad.any():
            p = int(np.argmax(bad))
            raise FormatError(f"{args.alpha}: weight {weights[p]} at {matrix.pair(p)} must be >= 0")
        result = factorization.weighted_factorize(
            matrix,
            weights,
            dim=args.dim,
            seed=args.seed,
            epochs=args.epochs,
            ridge=args.ridge,
            tol=args.tol,
        )
        meta = {"method": "als", "converged": str(result.converged).lower()}
        emb = Embedding(words or [str(i) for i in range(matrix.rows)], result.W, meta)
        if args.context_out:
            ctx = Embedding(words or [str(i) for i in range(matrix.cols)], result.C, meta)
    else:
        svd = factorization.truncated_svd(
            matrix,
            dim=args.dim,
            seed=args.seed,
            oversample=args.oversample,
            power_iters=args.power_iters,
        )
        emb = factorization.word_vectors(svd, args.flavor, words=words)
        emb.meta = {"method": "svd", "flavor": args.flavor}
    prov = formats.make_provenance("factorize", _config_dict(args), upstream)
    formats.write_embedding(emb, args.output, prov=prov)
    if args.context_out:
        formats.write_embedding(ctx, args.context_out, prov=prov)
    return 0


def cmd_train_convex(args: argparse.Namespace) -> int:
    records = formats.read_corpus(args.input)
    vocab = build_vocabulary(records, min_count=args.min_count)
    spec = convex_model.ContextSpec(
        mode=args.mode,
        window=WindowSpec(left=args.left, right=args.right, positional_weight=args.weighting),
    )
    cfg = convex_model.TrainConfig(
        l1=args.l1,
        objective=args.objective,
        k_neg=args.k_neg,
        noise=args.noise,
        epochs=args.epochs,
        step_initial=args.step,
        full_batch=args.full_batch,
        seed=args.seed,
    )
    model = convex_model.train(records, vocab, spec, cfg)
    prov = formats.make_provenance("train-convex", _config_dict(args))
    formats.write_embedding(model, args.output, prov=prov)
    if args.vocab_out:
        formats.write_vocab(vocab, args.vocab_out, prov=prov)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    emb, emb_prov = formats.read_embedding(args.embedding)
    dataset = formats.read_similarity(args.dataset)
    report = evaluation.spearman(emb, dataset, metric=args.metric)
    prov = formats.make_provenance("eval", _config_dict(args), {"embedding": emb_prov})
    lines = [
        formats.provenance_line(prov),
        f"spearman\t{report.coefficient!r}",
        f"coverage\t{report.coverage!r}",
        f"pairs_scored\t{report.n_scored}",
    ]
    _emit(lines, args.output)
    return 0


def cmd_neighbors(args: argparse.Namespace) -> int:
    emb, _ = formats.read_embedding(args.embedding)
    hits = evaluation.neighbors(emb, args.word, args.n, metric=args.metric)
    lines = [f"{w}\t{s!r}" for w, s in hits]
    _emit(lines, args.output)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    stats, cooc_prov = formats.read_cooc(args.cooc)
    upstream = {"cooc": cooc_prov}
    matrix = None
    if args.matrix:
        matrix, info = formats.read_matrix(args.matrix)
        upstream["matrix"] = info.prov
    prov = formats.make_provenance("report", _config_dict(args), upstream)
    if prov.root is None:
        raise MixedProvenanceError(
            "inputs carry different provenance roots; rerun the pipeline end to end"
        )

    if args.samples < 0:
        raise InvalidOptionError(f"--samples must be >= 0, got {args.samples}")
    check_seed(args.seed)
    check_shift(args.k)
    rng = np.random.default_rng(args.seed)
    rows, cols, joint = stats.counts.i, stats.counts.j, stats.counts.v
    if len(joint) > args.samples:
        chosen = np.sort(rng.choice(len(joint), size=args.samples, replace=False))
        rows, cols, joint = rows[chosen], cols[chosen], joint[chosen]
    n_w, n_c = stats.row_marginal[rows], stats.col_marginal[cols]
    pmi = pmi_values(stats, rows, cols, joint)
    shifted = pmi - math.log(args.k)

    lines = [formats.provenance_line(prov)]
    for loss in LOSS_NAMES:
        x = solve_pairs(loss, joint, n_w, n_c, stats.total, args.k).x_star
        numeric = minimize_pair_numeric(loss, joint, n_w, n_c, stats.total, args.k)
        worst = float(np.max(np.abs(x - numeric), initial=0.0))
        if loss == "hinge":
            agree = np.array_equal(x > 0, shifted >= 0)
        else:
            decided = (x != 0.0) & (shifted != 0.0)
            agree = np.array_equal(x[decided] > 0, shifted[decided] > 0)
        lines.append(f"closed_form_max_abs_err[{loss}]\t{worst!r}")
        lines.append(f"sign_agreement[{loss}]\t{'yes' if agree else 'NO'}")

    l1_worst = 0.0
    l2_worst = 0.0
    for lam in (0.01, 0.1, 1.0, 10.0):
        exact1, exact2 = (
            regularization.solve_exact(pmi, args.k, lam, kind) for kind in ("l1", "l2")
        )
        l1_err = np.abs(regularization.l1_scores(pmi, args.k, lam) - exact1)
        nonzero = exact2 != 0.0
        l2_err = np.abs(regularization.l2_scores(pmi, args.k, lam) - exact2)[nonzero]
        l1_worst = max(l1_worst, float(np.max(l1_err, initial=0.0)))
        l2_worst = max(l2_worst, float(np.max(l2_err / np.abs(exact2[nonzero]), initial=0.0)))
    lines.append(f"l1_closed_form_max_abs_err\t{l1_worst!r}")
    lines.append(f"l2_closed_form_max_rel_err\t{l2_worst!r}")

    if matrix is not None:
        for flavor in factorization.FLAVORS:
            gap = factorization.consistency_report(matrix, flavor)
            lines.append(f"consistency_max_abs_gap[{flavor}]\t{gap!r}")

    _emit(lines, args.output)
    return 0


# ------------------------------------------------------------------ parsing


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="coocvec",
        description="co-occurrence word-vector workbench",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--config", help="file of key=value defaults, overridden by flags")
        p.set_defaults(func=func)
        subs[name] = p
        return p

    p = sub("count", cmd_count, "count weighted co-occurrences from a corpus")
    p.add_argument("--input", required=True, help="corpus: one document per line")
    p.add_argument("--output", required=True, help="co-occurrence triplet file")
    p.add_argument("--vocab-out", help="vocabulary TSV (default: <output>.vocab)")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--left", type=int, default=2)
    p.add_argument("--right", type=int, default=2)
    p.add_argument("--weighting", choices=POSITIONAL_WEIGHTS, default="constant")
    p.add_argument("--subsample", type=float, default=None, help="target down-weight threshold")
    p.add_argument("--context-subsample", action="store_true")
    p.add_argument("--context-subsample-threshold", type=float, default=None)
    p.add_argument("--stochastic", action="store_true", help="sampled drops instead of weights")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help="record shards (>= 1), counted one "
                   "after another: same pairs, values equal up to rounding order (default COOC_THREADS or 1)")
    p.add_argument("--binary", action="store_true")

    p = sub("pmi", cmd_pmi, "build a PMI-family matrix")
    p.add_argument("--cooc", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--binary", action="store_true")

    p = sub("solve", cmd_solve, "closed-form pair scores for one loss")
    p.add_argument("--cooc", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--loss", choices=LOSS_NAMES, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--alpha-out", help="also write curvature weights")
    p.add_argument("--binary", action="store_true")

    p = sub("regularize", cmd_regularize, "L1/L2-regularized pair scores")
    p.add_argument("--cooc", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--reg", choices=regularization.REG_KINDS, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--binary", action="store_true")

    p = sub("factorize", cmd_factorize, "low-rank vectors from a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--vocab", help="vocabulary TSV for row labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weighted", action="store_true", help="weighted ALS instead of SVD")
    p.add_argument("--flavor", choices=factorization.FLAVORS, help="SVD mode")
    p.add_argument("--oversample", type=int, help="SVD mode")
    p.add_argument("--power-iters", type=int, help="SVD mode")
    p.add_argument("--alpha", help="curvature weight file (weighted mode)")
    p.add_argument("--epochs", type=int, help="weighted mode")
    p.add_argument("--ridge", type=float, help="weighted mode")
    p.add_argument("--tol", type=float, help="weighted mode")
    p.add_argument("--context-out", help="also write context vectors (weighted mode)")
    p.set_defaults(**SVD_OPTIONS, **ALS_OPTIONS)

    p = sub("train-convex", cmd_train_convex, "train the convex sparse model")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab-out")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--mode", choices=convex_model.CONTEXT_MODES, default="bag")
    p.add_argument("--left", type=int, default=2)
    p.add_argument("--right", type=int, default=2)
    p.add_argument("--weighting", choices=POSITIONAL_WEIGHTS, default="constant")
    p.add_argument("--objective", choices=convex_model.OBJECTIVES, default="negative_sampling")
    p.add_argument("--k-neg", type=int, default=5)
    p.add_argument("--noise", choices=convex_model.NOISE_KINDS, default="unigram")
    p.add_argument("--l1", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--step", type=float, default=0.025)
    p.add_argument("--full-batch", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub("eval", cmd_eval, "rank correlation against a similarity dataset")
    p.add_argument("--embedding", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--metric", choices=evaluation.METRICS, default="cosine")
    p.add_argument("--output")

    p = sub("neighbors", cmd_neighbors, "nearest neighbours of one word")
    p.add_argument("--embedding", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--metric", choices=evaluation.METRICS, default="cosine")
    p.add_argument("--output")

    p = sub("report", cmd_report, "closed-form vs numeric sweeps and factor consistency")
    p.add_argument("--cooc", required=True)
    p.add_argument("--matrix", help="marker-free matrix for the consistency check")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    return parser, subs


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _apply_config_file(argv: list[str], subs: dict[str, argparse.ArgumentParser]) -> None:
    command = next((a for a in argv if not a.startswith("-")), None)
    if command not in subs:
        return
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return
    sub = subs[command]
    actions = {a.dest: a for a in sub._actions}
    overrides = {}
    try:
        text = formats.read_text(path)
    except OSError as exc:
        raise FormatError(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: config line needs key=value, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in actions or dest in ("config", "func", "command"):
            raise FormatError(f"{path}: unknown config key {key.strip()!r} for {command}")
        action, value = actions[dest], value.strip()
        if isinstance(action, argparse._StoreTrueAction):
            word = value.lower()
            if word not in _TRUE_WORDS + _FALSE_WORDS:
                raise FormatError(
                    f"{path}: {key.strip()!r} takes 1/true/yes/on or 0/false/no/off, got {value!r}"
                )
            overrides[dest] = word in _TRUE_WORDS
            continue
        try:
            overrides[dest] = action.type(value) if action.type else value
        except ValueError as exc:
            raise FormatError(f"{path}: bad value for {key.strip()!r}: {exc}") from exc
        if action.choices is not None and overrides[dest] not in action.choices:
            raise FormatError(
                f"{path}: {key.strip()!r} takes one of {action.choices}, got {value!r}"
            )
    for dest in overrides:
        actions[dest].required = False  # the file supplies it
    sub.set_defaults(**overrides)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        _apply_config_file(argv, subs)
        args = parser.parse_args(argv)
        _check_paths(args)
        return args.func(args)
    except WorkbenchError as err:
        print(f"error {err.category}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error io: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error out-of-memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
