"""Benchmark of the coocvec command-line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
package in ./src, started as `python -m coocvec.cli` exactly as a user runs
it.  Generated inputs, artifacts and spans go to ./.bench_work.

--trace 0: a single closed-loop client runs the workload's commands one
after another, each in a fresh interpreter, and repeats the pass until the
next one would end past S seconds (at least MIN_PASSES passes).  Outputs are
checked after the timed passes.  The last line of stdout is a JSON object
with the end-to-end metrics, each the mean over passes without the fastest
and slowest pass (set-up: the median over SETUP_REPS set-ups).

--trace 1: the same commands run in this process through coocvec.cli.main,
alternating an untraced pass and a traced one, and the last line reports the
per-layer metrics (see spans.py for how spans are taken).
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import spans
import workloads

MIN_PASSES = 3
SETUP_REPS = 5
COMMAND_TIMEOUT_S = 150.0
STARTUP_PROBES = 5
CLI = ["-m", "coocvec.cli"]
# Files a command writes itself (cli._emit); every other artifact goes
# through coocvec.formats.
EMITTED = ("eval", "neighbors", "report")


@dataclass
class Result:
    wall: float
    status: int
    cpu: float = 0.0
    rss_mb: float = 0.0


def run_command(argv: list[str], cwd: str, env: dict, log) -> Result:
    """Run one CLI command in a fresh interpreter; rusage comes from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *CLI, *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_in_process(main, argv: list[str], cwd: str) -> Result:
    here = os.getcwd()
    os.chdir(cwd)
    t0 = time.perf_counter()
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        status = exc.code
    except Exception as exc:  # a crash is a failed command, not a benchmark crash
        print(f"# {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        status = 1
    finally:
        wall = time.perf_counter() - t0
        os.chdir(here)
    return Result(wall, status)


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def trimmed_mean(values) -> float:
    """Mean without the fastest and the slowest value (the median of three).

    Pass times on a shared 2-core host switch between a fast and a slow
    state every few passes, so the median of a run jumps from one state to
    the other; the mean of the inner values follows the share of time spent
    in each state and varies less across runs, while one stalled pass still
    cannot move it.
    """
    inner = sorted(values)[1:-1] if len(values) >= 3 else list(values)
    return float(statistics.mean(inner))


class Bench:
    def __init__(self, args):
        self.root = os.getcwd()
        self.src = os.path.join(self.root, "src")
        self.work = os.path.join(self.root, ".bench_work", args.workload)
        self.in_dir = os.path.join(self.work, "in")
        self.pass_dir = os.path.join(self.work, "pass")
        self.seconds = args.seconds
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.wl = workloads.WORKLOADS[args.workload](args.seed, self.in_dir)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        fresh_dir(self.work)
        self.log = open(os.path.join(self.work, "stderr.txt"), "w")

    def close(self) -> None:
        self.log.close()

    def count(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def cli(self, argv: list[str], cwd: str) -> Result:
        return run_command(argv, cwd, self.env, self.log)

    # --------------------------------------------------------------- set-up

    def setup(self, reps: int = SETUP_REPS) -> float:
        """Median time to generate inputs and run the workload's set-up commands.

        Each set-up also starts the CLI once, so imports and the page cache are
        warm before the first timed pass.
        """
        times = []
        for _ in range(reps):
            fresh_dir(self.in_dir)
            t0 = time.perf_counter()
            self.wl.make_inputs()
            for step in self.wl.setup_steps:
                r = self.cli(step.argv, self.in_dir)
                if r.status != 0:
                    raise SystemExit(f"set-up command failed: {' '.join(step.argv)}")
            self.cli(["--help"], self.in_dir)
            times.append(time.perf_counter() - t0)
        return median(times)

    # --------------------------------------------------------------- passes

    def passes(self, run_pass, min_passes: int = MIN_PASSES) -> list:
        """Repeat run_pass until the next pass would end past the time budget.

        Every pass starts from an empty pass directory, and its artifacts must
        be byte-identical to those of the first pass.
        """
        out = []
        digests = set()
        start = time.perf_counter()
        while True:
            fresh_dir(self.pass_dir)
            out.append(run_pass(len(out)))
            digests.add(digest(self.pass_dir))
            elapsed = time.perf_counter() - start
            if len(out) >= min_passes and elapsed * (len(out) + 1) / len(out) > self.seconds:
                break
        if len(out) > 1:
            self.count(len(digests) == 1, f"artifacts differ between {len(out)} passes")
        return out

    def check_outputs(self) -> None:
        for name, problems in self.wl.check(self.pass_dir).items():
            self.count(not problems, f"check {name}: {'; '.join(problems)}")

    def subprocess_pass(self, _index: int) -> dict:
        t0 = time.perf_counter()
        per = defaultdict(float)
        cpu = 0.0
        rss = 0.0
        for step in self.wl.steps:
            r = self.cli(step.argv, self.pass_dir)
            self.count(r.status == 0, f"{' '.join(step.argv)} exited {r.status}")
            per[step.metric] += r.wall
            cpu += r.cpu
            rss = max(rss, r.rss_mb)
        return {"pipeline_s": time.perf_counter() - t0, "pipeline_cpu_s": cpu,
                "peak_rss_mb": rss, **per}

    # --------------------------------------------------------------- modes

    def timed(self) -> dict:
        setup_s = self.setup()
        runs = self.passes(self.subprocess_pass)
        self.check_outputs()
        metrics = {
            "setup_s": (setup_s, "s"),
            "pipeline_s": (trimmed_mean([r["pipeline_s"] for r in runs]), "s"),
            "pipeline_cpu_s": (trimmed_mean([r["pipeline_cpu_s"] for r in runs]), "s"),
            "peak_rss_mb": (trimmed_mean([r["peak_rss_mb"] for r in runs]), "MB"),
        }
        per_command = sorted({s.metric for s in self.wl.steps})
        info = {m: median(r[m] for r in runs) for m in per_command}
        info["failed_ops_frac"] = self.failed / self.attempted
        walls = ", ".join(f"{r['pipeline_s']:.3f}" for r in runs)
        print(f"# {self.wl.name}: {len(runs)} passes of {len(self.wl.steps)} commands "
              f"({walls} s); per-command medians over passes (s): "
              + ", ".join(f"{k} {v:.4f}" for k, v in info.items()))
        return metrics

    def traced(self) -> dict:
        sys.path.insert(0, self.src)
        package = importlib.import_module("coocvec")
        modules = [importlib.import_module(f"coocvec.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        cli = importlib.import_module("coocvec.cli")
        tracer = spans.Tracer(modules)
        self.setup(reps=1)
        startup = median(self.cli(["--help"], self.in_dir).wall for _ in range(STARTUP_PROBES))

        def one_pass(traced: bool) -> float:
            t0 = time.perf_counter()
            if traced:
                tracer.install()
            try:
                for step in self.wl.steps:
                    tracer.command = step.label
                    r = run_in_process(cli.main, step.argv, self.pass_dir)
                    self.count(r.status == 0, f"{' '.join(step.argv)} returned {r.status}")
            finally:
                tracer.uninstall()
            return time.perf_counter() - t0

        def pair(index: int) -> tuple[float, float]:
            plain = one_pass(False)
            plain_digest = digest(self.pass_dir)
            fresh_dir(self.pass_dir)
            tracer.pass_id = index
            traced = one_pass(True)
            self.count(digest(self.pass_dir) == plain_digest,
                       "traced pass artifacts differ from the untraced pass")
            return plain, traced

        # The first in-process pass pays one-time costs (lazy imports, heap
        # growth) that would otherwise land on the untraced side of the pair.
        fresh_dir(self.pass_dir)
        one_pass(False)
        pairs = self.passes(pair, min_passes=1)
        tracer.write_jsonl(os.path.join(self.work, "spans.jsonl"))
        self.check_outputs()
        counters = self.wl.counters(self.pass_dir)
        counters.update(self.file_bytes())
        per_pass = [self.layer_metrics(tracer.records, i, traced, counters)
                    for i, (_, traced) in enumerate(pairs)]
        metrics = {k: (median(p[k][0] for p in per_pass), per_pass[0][k][1]) for k in per_pass[0]}
        metrics["process.startup_s"] = (startup, "s")
        overhead = median(t for _, t in pairs) - median(p for p, _ in pairs)
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics

    def file_bytes(self) -> dict[str, int]:
        """Bytes the pass's commands read and write through coocvec.formats.

        Read bytes count each input file once per command that names it.
        """
        emitted = {s.argv[s.argv.index("--output") + 1] for s in self.wl.steps
                   if s.argv[0] in EMITTED}
        written = sum(os.path.getsize(os.path.join(self.pass_dir, n))
                      for n in os.listdir(self.pass_dir) if n not in emitted)
        read = sum(os.path.getsize(os.path.join(self.pass_dir, f))
                   for s in self.wl.steps for f in s.format_inputs())
        return {"formats.bytes_read": read, "formats.bytes_written": written}

    @staticmethod
    def layer_metrics(records, pass_id: int, wall: float, counters: dict) -> dict:
        def self_s(layer, cmd="", func=""):
            return spans.layer_self(records, pass_id, layer, cmd, func)

        def rate(n_bytes, seconds):
            return n_bytes / 1e6 / seconds if seconds else 0.0

        read_s = self_s("formats", func="read_")
        write_s = self_s("formats", func="write_")
        slots = counters.get("corpus.window_slots", 0)
        count_s = self_s("corpus", cmd="count")
        return {
            "corpus.self_s": (self_s("corpus"), "s"),
            "corpus.window_slots": (slots, "count"),
            "corpus.ns_per_slot": (1e9 * count_s / slots if slots else 0.0, "ns"),
            "corpus.nnz": (counters.get("corpus.nnz", 0), "count"),
            "formats.read_s": (read_s, "s"),
            "formats.write_s": (write_s, "s"),
            "formats.bytes_read": (counters["formats.bytes_read"], "bytes"),
            "formats.bytes_written": (counters["formats.bytes_written"], "bytes"),
            "formats.read_mb_per_s": (rate(counters["formats.bytes_read"], read_s), "MB/s"),
            "formats.write_mb_per_s": (rate(counters["formats.bytes_written"], write_s), "MB/s"),
            "pmi.self_s": (self_s("pmi"), "s"),
            "pmi.nnz_out": (counters.get("pmi.nnz_out", 0), "count"),
            "closed_form.self_s": (self_s("closed_form"), "s"),
            "closed_form.calls": (spans.layer_calls(records, pass_id, "closed_form"), "count"),
            "cli.self_s": (self_s("cli"), "s"),
            "regularization.self_s": (self_s("regularization"), "s"),
            "regularization.pairs": (counters.get("regularization.pairs", 0), "count"),
            "regularization.exact_fallback_frac": (
                counters.get("regularization.exact_fallback_frac", 0.0), "fraction"),
            "factorization.svd_s": (self_s("factorization", cmd="factorize_svd"), "s"),
            "factorization.svd_dense_bytes": (
                counters.get("factorization.svd_dense_bytes", 0), "bytes"),
            "factorization.svd_flops": (counters.get("factorization.svd_flops", 0), "flop"),
            "factorization.als_s": (self_s("factorization", cmd="factorize_als"), "s"),
            "factorization.als_row_solves": (
                counters.get("factorization.als_row_solves", 0), "count"),
            "convex_model.sgd_s": (self_s("convex_model", cmd="train_convex_sgd"), "s"),
            "convex_model.full_batch_s": (self_s("convex_model", cmd="train_convex_full"), "s"),
            "convex_model.examples": (counters.get("convex_model.examples", 0), "count"),
            "convex_model.context_groups": (
                counters.get("convex_model.context_groups", 0), "count"),
            "convex_model.nonzero_frac": (counters.get("convex_model.nonzero_frac", 0.0),
                                          "fraction"),
            "evaluation.self_s": (self_s("evaluation"), "s"),
            "trace.uncovered_frac": (1.0 - spans.covered_time(records, pass_id) / wall,
                                     "fraction"),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "coocvec", "cli.py")):
        print("error: run from a coocvec checkout (src/coocvec/cli.py not found)", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        metrics = bench.traced() if args.trace else bench.timed()
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
