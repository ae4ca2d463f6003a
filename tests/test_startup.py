"""Start-up contract of the command line; each check runs in a fresh interpreter.

Importing `coocvec.cli` loads no numpy, a command loads only the modules it
calls, and `main` puts BLAS on one thread before numpy loads unless the user
chose a count or numpy was loaded first.
"""
import json
import os
import re
import subprocess
import sys

import pytest

from coocvec.cli import BLAS_THREAD_VARS, COMMANDS, main
from helpers import bench_gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every option of every command besides --help and --config: the CLI keeps exactly these
OPTIONS = {
    "count": ("--input", "--output", "--vocab-out", "--min-count", "--left", "--right",
              "--weighting", "--subsample", "--context-subsample",
              "--context-subsample-threshold", "--stochastic", "--seed", "--threads",
              "--binary"),
    "pmi": ("--cooc", "--output", "--variant", "--k", "--binary"),
    "solve": ("--cooc", "--output", "--loss", "--k", "--alpha-out", "--binary"),
    "regularize": ("--cooc", "--output", "--reg", "--k", "--lam", "--binary"),
    "factorize": ("--matrix", "--output", "--dim", "--vocab", "--seed", "--weighted",
                  "--flavor", "--oversample", "--power-iters", "--alpha", "--epochs",
                  "--ridge", "--tol", "--context-out"),
    "train-convex": ("--input", "--output", "--vocab-out", "--min-count", "--mode", "--left",
                     "--right", "--weighting", "--objective", "--k-neg", "--noise", "--l1",
                     "--epochs", "--step", "--full-batch", "--seed"),
    "eval": ("--embedding", "--dataset", "--metric", "--output"),
    "neighbors": ("--embedding", "--word", "--n", "--metric", "--output"),
    "report": ("--cooc", "--matrix", "--k", "--samples", "--seed", "--output"),
}

# run main on argv[1:], then print the loaded coocvec modules, the BLAS
# variables and the process's thread count (None where /proc is missing)
PROBE = """
import json, os, sys
{before}
from coocvec.cli import BLAS_THREAD_VARS, main
status = main(sys.argv[1:])
task = "/proc/self/task"
print(json.dumps({{
    "status": status,
    "modules": sorted(m for m in sys.modules if m.startswith("coocvec.")),
    "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
    "env": {{v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


def python(*args: str, **env_vars: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


def probe(argv: list[str], before: str = "", **env_vars: str) -> dict:
    done = python("-c", PROBE.format(before=before), *argv, **env_vars)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["status"] == 0, done.stderr
    return out


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    corpus = root / "corpus.txt"
    corpus.write_text("the quick fox saw the slow fox\nthe slow fox saw the quick cat\n")
    assert main(["count", "--input", str(corpus), "--output", str(root / "counts.txt")]) == 0
    return root


def pmi_argv(counts) -> list[str]:
    return ["pmi", "--cooc", str(counts / "counts.txt"), "--output", str(counts / "pmi.txt"),
            "--variant", "ppmi"]


def test_importing_the_cli_loads_no_numpy_and_no_other_module():
    code = ("import coocvec.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith(('coocvec.', 'numpy'))))")
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['coocvec.cli', 'coocvec.errors']"


@pytest.mark.parametrize("command", ["pmi", "solve", "regularize"])
def test_a_command_loads_only_the_modules_it_calls(counts, command):
    cooc, out = str(counts / "counts.txt"), str(counts / f"{command}.out")
    argv = {
        "pmi": pmi_argv(counts),
        "solve": ["solve", "--cooc", cooc, "--output", out, "--loss", "logistic"],
        "regularize": ["regularize", "--cooc", cooc, "--output", out, "--reg", "l2",
                       "--lam", "0.5"],
    }[command]
    loaded = set(probe(argv)["modules"])
    unused = {"coocvec.convex_model", "coocvec.evaluation", "coocvec.factorization"}
    if command != "regularize":
        unused.add("coocvec.regularization")
    assert not loaded & unused


def test_the_svd_loads_no_scipy(counts):
    # importing scipy.sparse beside numpy costs a command 0.15-0.3 s and 22 MB of RSS
    probe(pmi_argv(counts))  # writes the PPMI matrix to factorize
    argv = ["factorize", "--matrix", str(counts / "pmi.txt"), "--output",
            str(counts / "vectors.txt"), "--dim", "2"]
    out = probe(argv)
    assert "coocvec.factorization" in out["modules"]
    assert out["scipy"] == []


def test_blas_gets_one_thread_when_the_user_set_no_count(counts):
    out = probe(pmi_argv(counts))
    assert out["env"]["OPENBLAS_NUM_THREADS"] == "1"
    if out["threads"] is not None:  # set before numpy loaded, so OpenBLAS started no worker
        assert out["threads"] == 1


def test_a_users_count_is_kept(counts):
    out = probe(pmi_argv(counts), OPENBLAS_NUM_THREADS="2")
    assert out["env"]["OPENBLAS_NUM_THREADS"] == "2"


def test_omp_num_threads_counts_as_the_users_choice(counts):
    out = probe(pmi_argv(counts), OMP_NUM_THREADS="2")
    assert out["env"] == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None,
                          "OMP_NUM_THREADS": "2"}


def test_a_process_that_loaded_numpy_first_keeps_its_environment(counts):
    out = probe(pmi_argv(counts), before="import numpy")
    assert out["env"] == dict.fromkeys(BLAS_THREAD_VARS)


@pytest.fixture(scope="module")
def convex_corpus(tmp_path_factory):
    """The convex corpus of the benchmark's fit-models workload at seed 1."""
    gen = bench_gen()
    path = tmp_path_factory.mktemp("convex") / "convex.txt"
    path.write_text(gen.corpus_text(gen.make_corpus(10_000, [1, 1])))
    return path


def body(path) -> bytes:
    """A written file without its provenance line, which names the output path."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"# provenance "))


@pytest.mark.parametrize(
    "options",
    [["--epochs", "1", "--l1", "1e-4"],
     ["--epochs", "3", "--full-batch", "--step", "0.5", "--mode", "positional"]],
    ids=["sgd", "full-batch-positional"],
)
def test_train_convex_writes_the_same_weights_on_one_and_two_blas_threads(convex_corpus, options):
    bodies = []
    for threads in ("1", "2"):
        out = convex_corpus.parent / f"{'full' if '--full-batch' in options else 'sgd'}-{threads}.txt"
        done = python("-m", "coocvec.cli", "train-convex", "--input", str(convex_corpus),
                      "--output", str(out), "--min-count", "5", *options,
                      OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        bodies.append(body(out))
    assert bodies[0].count(b"\n") > 100 and bodies[0] == bodies[1]


def test_help_lists_every_command():
    done = python("-m", "coocvec.cli", "--help")
    assert done.returncode == 0, done.stderr
    listed = re.findall(r"^    (\S+)\s", done.stdout, re.M)
    assert listed == list(COMMANDS) == list(OPTIONS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_names_every_option(command):
    done = python("-m", "coocvec.cli", command, "--help")
    assert done.returncode == 0, done.stderr
    named = set(re.findall(r"--[a-z][a-z0-9-]*", done.stdout))
    assert named == {"--help", "--config", *OPTIONS[command]}
