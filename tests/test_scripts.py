"""Smoke tests: the example scripts and the README's Python API example run end to end,
and the package names the README cites exist."""
import dataclasses
import functools
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(os.path.join(ROOT, "scripts", name), *args)


def test_demo_pipeline_runs(tmp_path):
    done = run_script("demo_pipeline.py", "--workdir", str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_chord_error_grid_prints_worst_case():
    done = run_script("chord_error_grid.py")
    assert done.returncode == 0, done.stderr
    assert "58.5%" in done.stdout


def test_readme_python_api_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_readme_dotted_names_resolve():
    """Every backticked dotted name headed by a coocvec export or submodule, such as
    `pmi.shifted_pmi` or `factorization.ROWS_PER_BLOCK`, is an attribute path from
    coocvec; the last step may name a dataclass field."""
    import coocvec

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        prose = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    heads = set(coocvec.__all__) | set(coocvec._EXPORTS)
    names = {
        m.group(1)
        for span in prose.split("`")[1::2]
        for m in re.finditer(r"\b([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span)
        if m.group(1).split(".")[0] in heads and not m.group(1).endswith(".py")
    }
    assert len(names) >= 10
    missing = []
    for name in sorted(names):
        *path, last = name.split(".")
        owner = functools.reduce(getattr, path, coocvec)
        fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
        if not (hasattr(owner, last) or last in [f.name for f in fields]):
            missing.append(name)
    assert not missing, missing


def test_count_memory_reports_time_and_peak_rss(tmp_path):
    done = run_script("count_memory.py", "--tokens", "3000", "--threads", "2", "--runs", "2",
                      "--workdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# count --threads 2 --min-count 10") and len(lines) == 4
    for line in lines[1:]:
        wall, cpu, rss = map(float, re.findall(r"(\d+\.\d+) (?:s|MB)", line))
        assert wall > 0 and cpu > 0 and 10 < rss < 1000, line
    assert (tmp_path / "counts.txt").exists() and (tmp_path / "counts.txt.vocab").exists()
