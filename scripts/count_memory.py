"""Time and peak memory of `coocvec count` on a seeded synthetic corpus.

Writes a `bench/gen.py` corpus of about --tokens tokens to --workdir, then
runs `coocvec count` on it --runs times and prints one line per run: wall
time, CPU time (user + system) and peak RSS (ru_maxrss).  Each run starts
from a small launcher process that loads no numpy: a child's ru_maxrss
counts the memory of the process that started it, so starting `count` from
this script, which holds the corpus, would report this script's size.

    python scripts/count_memory.py --tokens 500000 --threads 4 --binary

The count options default to the embed-text benchmark's (min-count 10,
window 5/5, reciprocal, subsample 1e-4 with contexts); --count-args
replaces them.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import gen  # noqa: E402  (bench/gen.py, imported read-only)

EMBED_TEXT_COUNT = (
    "--min-count 10 --left 5 --right 5 --weighting reciprocal --subsample 1e-4 --context-subsample"
)

# Runs argv[1:] and prints its wall time, CPU time and ru_maxrss as JSON.
LAUNCHER = """
import json, os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, use = os.wait4(pid, 0)
print(json.dumps({"status": os.waitstatus_to_exitcode(status),
                  "wall_s": time.perf_counter() - t0,
                  "cpu_s": use.ru_utime + use.ru_stime,
                  "peak_rss_mb": use.ru_maxrss / 1024.0}))
"""


def run_count(corpus: str, workdir: str, threads: int, count_args: list[str], binary: bool) -> dict:
    out = os.path.join(workdir, "counts.bin" if binary else "counts.txt")
    argv = [sys.executable, "-m", "coocvec.cli", "count", "--input", corpus, "--output", out,
            "--threads", str(threads), *count_args, *(["--binary"] if binary else [])]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    if result["status"] != 0:
        sys.exit(f"count failed with status {result['status']}")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tokens", type=int, default=500_000, help="corpus size (about)")
    ap.add_argument("--seed", type=int, default=7, help="corpus seed")
    ap.add_argument("--threads", type=int, default=1, help="count's record shards")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--binary", action="store_true", help="write a binary counts file")
    ap.add_argument("--count-args", default=EMBED_TEXT_COUNT, help="count's other options")
    ap.add_argument("--workdir", help="where the corpus and counts go (default: a temp dir)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or tmp
        os.makedirs(workdir, exist_ok=True)
        corpus = os.path.join(workdir, "corpus.txt")
        text = gen.corpus_text(gen.make_corpus(args.tokens, args.seed))
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write(text)
        del text
        print(f"# count --threads {args.threads} {args.count_args}"
              f"{' --binary' if args.binary else ''} on {args.tokens} tokens (seed {args.seed})")
        count_args = shlex.split(args.count_args)
        runs = [run_count(corpus, workdir, args.threads, count_args, args.binary)
                for _ in range(args.runs)]
        rows = [(f"run {r}", run) for r, run in enumerate(runs)]
        if len(runs) > 1:
            rows.append(("median", {k: statistics.median(run[k] for run in runs) for k in runs[0]}))
        for label, run in rows:
            print(f"{label}: wall {run['wall_s']:.3f} s  cpu {run['cpu_s']:.3f} s  "
                  f"peak_rss {run['peak_rss_mb']:.1f} MB")


if __name__ == "__main__":
    main()
