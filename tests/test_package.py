"""The package's export table: names resolve on first use, each to its defining module's object."""
import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import coocvec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_loads_no_submodule_and_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    probe = ("import coocvec, sys; "
             "print(sorted(m for m in sys.modules if m.startswith(('coocvec.', 'numpy'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("name", coocvec.__all__)
def test_each_export_is_its_modules_object(name):
    module = coocvec._HOME[name]
    obj = getattr(importlib.import_module(f"coocvec.{module}"), name)
    assert getattr(coocvec, name) is obj
    if hasattr(obj, "__module__"):  # the table names where it is defined, not a re-export
        assert obj.__module__ == f"coocvec.{module}"


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(coocvec.__all__) <= set(dir(coocvec))
    assert sum(map(len, coocvec._EXPORTS.values())) == len(coocvec.__all__)  # each name once
    with pytest.raises(AttributeError, match="no_such_name"):
        coocvec.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from coocvec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coocvec.__all__)


def test_submodules_stay_reachable_as_attributes():
    assert coocvec.pmi.SparseMatrix is coocvec.SparseMatrix
    assert coocvec.formats.read_cooc is coocvec.read_cooc


# exports that no module of the package uses, each kept for a stated reason
UNCALLED_EXPORTS = {
    "explain",  # the command that prints a convex model's coordinates (ROADMAP item 5)
    "objective_value",  # becomes the all-pairs objective (ROADMAP item 1)
    "read_provenance",  # the `inspect` command (ROADMAP item 6)
    "check_symmetry",  # a test reference
    "loss_second_derivative",  # a test reference: solve_pair's alpha is its curvature
}


def test_every_export_has_a_caller():
    used = set()
    for path in glob.glob(os.path.join(ROOT, "src", "coocvec", "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(coocvec.__all__) - used) == sorted(UNCALLED_EXPORTS)
