"""Smoke tests: the example scripts and the README's Python API example run end to end."""
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
