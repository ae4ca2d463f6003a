"""Command-line pipeline over the workbench modules.

Every subcommand reads its inputs through the formats module, makes one
library call, stamps its output with provenance and writes it; module errors
become one `error <category>: message` line on stderr and a nonzero exit.  Outputs are
byte-identical across runs with the same configuration and seed.

A command pays only for what it runs: it imports the modules it calls, and
the parser holds the options of the invoked command alone.  Importing this
module loads neither numpy nor any other coocvec module, so `main` can put
BLAS on one thread before numpy first loads (see `_one_blas_thread`).
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import namedtuple

from .errors import (
    DimensionMismatchError,
    FormatError,
    InvalidOptionError,
    MixedProvenanceError,
    WorkbenchError,
    check_at_least,
)

# the variables OpenBLAS reads for its thread count, in its order of precedence
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Run BLAS on one thread unless the user set a count or numpy is already loaded.

    OpenBLAS starts its worker threads when numpy loads, and on a small host
    they spin on CPU that no command asks for; the CLI's matrix products are
    small enough that one thread is as fast.  A process that loaded numpy
    before calling `main` keeps its thread pool and its environment.
    """
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "config")}


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
    command = COMMANDS[args.command]
    named = {dest: getattr(args, dest) for dest in ("config", *command.reads, *command.writes)}
    if args.command == "count":
        named["vocab_out"] = _count_vocab_out(args)
    ids = {dest: _file_id(path) for dest, path in named.items() if path}
    for dest in command.writes:
        other = next((d for d in ids if d != dest and ids[d] == ids.get(dest)), None)
        if other:
            flags = [f"--{d.replace('_', '-')} {named[d]}" for d in (dest, other)]
            raise InvalidOptionError(f"{' and '.join(flags)} name the same file")


def _emit(lines: list[str], path: str | None) -> None:
    """Write one newline-ended line per item, so no lines write an empty file."""
    text = "".join(line + "\n" for line in lines)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_count(args: argparse.Namespace) -> int:
    from . import formats
    from .corpus import WindowSpec, count_encoded, encode_text

    vocab_out = _count_vocab_out(args)
    win = WindowSpec(
        left=args.left,
        right=args.right,
        positional_weight=args.weighting,
        subsample_threshold=args.subsample,
        context_subsample=args.context_subsample,
        context_subsample_threshold=args.context_subsample_threshold,
        stochastic_subsample=args.stochastic,
    )
    check_at_least("seed", args.seed, 0)
    check_at_least("shard count", args.threads, 1)
    check_at_least("min_count", args.min_count, 1)
    # the corpus is read only once every option has passed its check
    vocab, tokens = encode_text(formats.read_text(args.input), min_count=args.min_count)
    stats = count_encoded(tokens, vocab, win, seed=args.seed, shards=args.threads)
    del tokens  # free the token arrays before the write
    prov = formats.make_provenance("count", _config_dict(args))
    formats.write_cooc(stats, args.output, prov=prov, binary=args.binary)
    formats.write_vocab(vocab, vocab_out, prov=prov)
    return 0


def cmd_pmi(args: argparse.Namespace) -> int:
    from . import formats
    from .pmi import build_matrix

    stats, cooc_prov = formats.read_cooc(args.cooc)
    matrix = build_matrix(stats, args.variant, k=args.k)
    prov = formats.make_provenance("pmi", _config_dict(args), {"cooc": cooc_prov})
    formats.write_matrix(
        matrix, args.output, tag=args.variant, k=args.k, prov=prov, binary=args.binary
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from . import formats
    from .closed_form import solve_stats

    stats, cooc_prov = formats.read_cooc(args.cooc)
    # the weights are built, and checked, only when they are written
    scores, alpha = solve_stats(stats, args.loss, args.k, weights=bool(args.alpha_out))
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
    from . import formats, regularization

    stats, cooc_prov = formats.read_cooc(args.cooc)
    matrix = regularization.regularize_stats(stats, args.reg, args.k, args.lam)
    prov = formats.make_provenance("regularize", _config_dict(args), {"cooc": cooc_prov})
    formats.write_matrix(matrix, args.output, tag=f"reg:{args.reg}", k=args.k, lam=args.lam,
                         prov=prov, binary=args.binary)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    from . import factorization, formats
    from .vectors import Embedding

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
        weights, alpha_info = formats.read_matrix(args.alpha)
        upstream["alpha"] = alpha_info.prov
        try:
            result = factorization.weighted_factorize(
                matrix, weights, dim=args.dim, seed=args.seed, epochs=args.epochs,
                ridge=args.ridge, tol=args.tol,
            )
        except FormatError as err:  # only a missing or bad weight makes one
            raise FormatError(f"{args.alpha}: {err}") from None
        meta = {"method": "als", "converged": str(result.converged).lower()}
        emb = Embedding(words or [str(i) for i in range(matrix.rows)], result.W, meta)
        if args.context_out:
            ctx = Embedding(words or [str(i) for i in range(matrix.cols)], result.C, meta)
    else:
        svd = factorization.truncated_svd(matrix, dim=args.dim, seed=args.seed,
                                          oversample=args.oversample, power_iters=args.power_iters)
        emb = factorization.word_vectors(svd, args.flavor, words=words)
        emb.meta = {"method": "svd", "flavor": args.flavor}
    prov = formats.make_provenance("factorize", _config_dict(args), upstream)
    formats.write_embedding(emb, args.output, prov=prov)
    if args.context_out:
        formats.write_embedding(ctx, args.context_out, prov=prov)
    return 0


def cmd_train_convex(args: argparse.Namespace) -> int:
    from . import convex_model, formats
    from .corpus import WindowSpec, encode_text

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
    check_at_least("min_count", args.min_count, 1)
    # the corpus is read only once every option has passed its check
    vocab, tokens = encode_text(formats.read_text(args.input), min_count=args.min_count)
    model = convex_model.train(tokens, vocab, spec, cfg)
    prov = formats.make_provenance("train-convex", _config_dict(args))
    formats.write_embedding(model, args.output, prov=prov)
    if args.vocab_out:
        formats.write_vocab(vocab, args.vocab_out, prov=prov)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation, formats

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
    from . import evaluation, formats

    emb, _ = formats.read_embedding(args.embedding)
    hits = evaluation.neighbors(emb, args.word, args.n, metric=args.metric)
    lines = [f"{w}\t{s!r}" for w, s in hits]
    _emit(lines, args.output)
    return 0


def _report_cell(value: float | bool) -> str:
    """A report value as printed: a check's outcome as yes or NO, a number by repr."""
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return repr(value)


def cmd_report(args: argparse.Namespace) -> int:
    from . import formats
    from .regularization import closed_form_report

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
    rows = closed_form_report(stats, args.k, args.samples, args.seed)
    if matrix is not None:
        from . import factorization

        for flavor in factorization.FLAVORS:
            gap = factorization.consistency_report(matrix, flavor)
            rows.append((f"consistency_max_abs_gap[{flavor}]", gap))
    lines = [f"{name}\t{_report_cell(value)}" for name, value in rows]
    _emit([formats.provenance_line(prov), *lines], args.output)
    return 0


# ------------------------------------------------------------------ options
# Each adds one command's options; a `choices=` tuple comes from a module the
# command loads anyway.  MODE_OPTIONS holds, per command, the options that
# only some modes read: whether the mode reads them, the refusal, and the
# defaults that fill them once they pass (the parser leaves them None, so a
# value equal to the default is refused too).
MODE_OPTIONS = {
    "count": [(lambda a: a.stochastic, "needs --stochastic", {"seed": 0})],
    "factorize": [(lambda a: not a.weighted, "is not used with --weighted",
                   {"flavor": "plain", "oversample": 8, "power_iters": 4}),
                  (lambda a: a.weighted, "needs --weighted",
                   {"alpha": None, "epochs": 200, "ridge": 1e-8, "tol": 1e-8, "context_out": None})],
    "train-convex": [(lambda a: a.objective != "softmax", "is not used with --objective softmax",
                      {"k_neg": 5, "noise": "unigram"}),
                     (lambda a: not a.full_batch, "is not used with --full-batch", {"seed": 0})],
}


def _fill_mode_options(args: argparse.Namespace) -> None:
    for reads, refusal, options in MODE_OPTIONS.get(args.command, ()):
        for dest, default in options.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)  # the stamp records every option's value
            elif not reads(args):
                raise InvalidOptionError(f"--{dest.replace('_', '-')} {refusal}")


def _count_options(p: argparse.ArgumentParser) -> None:
    from .corpus import POSITIONAL_WEIGHTS

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
    p.add_argument("--seed", type=int, help="stochastic mode")
    p.add_argument("--threads", type=int, default=1, help="record shards (>= 1), counted one "
                   "after another: same pairs, values equal up to rounding order")
    p.add_argument("--binary", action="store_true")


def _per_pair_options(p: argparse.ArgumentParser, kind: str, choices: tuple) -> None:
    """The options of a command that scores every stored pair: pmi, solve, regularize."""
    p.add_argument("--cooc", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(f"--{kind}", choices=choices, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--binary", action="store_true")


def _pmi_options(p: argparse.ArgumentParser) -> None:
    from .pmi import VARIANTS

    _per_pair_options(p, "variant", VARIANTS)


def _solve_options(p: argparse.ArgumentParser) -> None:
    from .closed_form import LOSS_NAMES

    _per_pair_options(p, "loss", LOSS_NAMES)
    p.add_argument("--alpha-out", help="also write curvature weights")


def _regularize_options(p: argparse.ArgumentParser) -> None:
    from .regularization import REG_KINDS

    _per_pair_options(p, "reg", REG_KINDS)
    p.add_argument("--lam", type=float, required=True)


def _factorize_options(p: argparse.ArgumentParser) -> None:
    from .factorization import FLAVORS

    p.add_argument("--matrix", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--vocab", help="vocabulary TSV for row labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weighted", action="store_true", help="weighted ALS instead of SVD")
    p.add_argument("--flavor", choices=FLAVORS, help="SVD mode")
    p.add_argument("--oversample", type=int, help="SVD mode")
    p.add_argument("--power-iters", type=int, help="SVD mode")
    p.add_argument("--alpha", help="curvature weight file (weighted mode)")
    p.add_argument("--epochs", type=int, help="weighted mode")
    p.add_argument("--ridge", type=float, help="weighted mode")
    p.add_argument("--tol", type=float, help="weighted mode")
    p.add_argument("--context-out", help="also write context vectors (weighted mode)")


def _train_convex_options(p: argparse.ArgumentParser) -> None:
    from .convex_model import CONTEXT_MODES, NOISE_KINDS, OBJECTIVES
    from .corpus import POSITIONAL_WEIGHTS

    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab-out")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--mode", choices=CONTEXT_MODES, default="bag")
    p.add_argument("--left", type=int, default=2)
    p.add_argument("--right", type=int, default=2)
    p.add_argument("--weighting", choices=POSITIONAL_WEIGHTS, default="constant")
    p.add_argument("--objective", choices=OBJECTIVES, default="negative_sampling")
    p.add_argument("--k-neg", type=int, help="negative sampling")
    p.add_argument("--noise", choices=NOISE_KINDS, help="negative sampling")
    p.add_argument("--l1", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--step", type=float, default=0.025)
    p.add_argument("--full-batch", action="store_true")
    p.add_argument("--seed", type=int, help="SGD mode")


def _eval_options(p: argparse.ArgumentParser) -> None:
    from .evaluation import METRICS

    p.add_argument("--embedding", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--metric", choices=METRICS, default="cosine")
    p.add_argument("--output")


def _neighbors_options(p: argparse.ArgumentParser) -> None:
    from .evaluation import METRICS

    p.add_argument("--embedding", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--metric", choices=METRICS, default="cosine")
    p.add_argument("--output")


def _report_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cooc", required=True)
    p.add_argument("--matrix", help="marker-free matrix for the consistency check")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")


# ------------------------------------------------------------------ parsing

# run, help text, option adder, and the path options it reads and writes
# (every command also reads --config)
Command = namedtuple("Command", "run help add_options reads writes")

COMMANDS = {
    "count": Command(cmd_count, "count weighted co-occurrences from a corpus",
                     _count_options, ("input",), ("output", "vocab_out")),
    "pmi": Command(cmd_pmi, "build a PMI-family matrix",
                   _pmi_options, ("cooc",), ("output",)),
    "solve": Command(cmd_solve, "closed-form pair scores for one loss",
                     _solve_options, ("cooc",), ("output", "alpha_out")),
    "regularize": Command(cmd_regularize, "L1/L2-regularized pair scores",
                          _regularize_options, ("cooc",), ("output",)),
    "factorize": Command(cmd_factorize, "low-rank vectors from a matrix",
                         _factorize_options, ("matrix", "vocab", "alpha"),
                         ("output", "context_out")),
    "train-convex": Command(cmd_train_convex, "train the convex sparse model",
                            _train_convex_options, ("input",), ("output", "vocab_out")),
    "eval": Command(cmd_eval, "rank correlation against a similarity dataset",
                    _eval_options, ("embedding", "dataset"), ("output",)),
    "neighbors": Command(cmd_neighbors, "nearest neighbours of one word",
                         _neighbors_options, ("embedding",), ("output",)),
    "report": Command(cmd_report, "closed-form vs numeric sweeps and factor consistency",
                      _report_options, ("cooc", "matrix"), ("output",)),
}


def build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, argparse.ArgumentParser | None]:
    """The parser, with options for `command` alone, and that command's subparser.

    Every command is listed (so `--help` names all of them), but only the
    invoked one gets its options, which are all that parsing can reach.
    """
    parser = argparse.ArgumentParser(
        prog="coocvec",
        description="co-occurrence word-vector workbench",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    chosen = None
    for name, spec in COMMANDS.items():
        p = subparsers.add_parser(name, help=spec.help)
        if name == command:
            p.add_argument("--config", help="file of key=value defaults, overridden by flags")
            spec.add_options(p)
            chosen = p
    return parser, chosen


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _apply_config_file(argv: list[str], command: str, sub: argparse.ArgumentParser) -> None:
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return
    from .formats import read_text

    # the command's options are its keys; --help and --config are not settings
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    overrides = {}
    try:
        text = read_text(path)
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
        if dest not in actions:
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
    _one_blas_thread()
    argv = list(sys.argv[1:] if argv is None else argv)
    # the first token that is not an option: the top level has no option taking a value
    command = next((a for a in argv if not a.startswith("-")), None)
    parser, sub = build_parser(command)
    try:
        if sub is not None:
            _apply_config_file(argv, command, sub)
        args = parser.parse_args(argv)
        _check_paths(args)
        _fill_mode_options(args)
        return COMMANDS[args.command].run(args)
    except WorkbenchError as err:
        print(f"error {err.category}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error io: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error out-of-memory: {err}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry: exit with main's status (`main` leaves the collector be)."""
    status = main()
    gc.freeze()  # so shutdown skips a collector pass over every live object, numpy's too
    raise SystemExit(status)


if __name__ == "__main__":
    run()
