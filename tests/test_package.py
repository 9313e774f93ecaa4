"""The package's public surface and the README's library example."""
import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import spectralbranch

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_exactly_all():
    # every name in __all__ resolves, once, and a star import binds those
    # names and nothing else
    names = spectralbranch.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from spectralbranch import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(names)


def test_no_public_name_outside_all():
    # submodules aside, the package binds no public name that __all__ leaves out
    bound = {name for name, value in vars(spectralbranch).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(spectralbranch.__all__)


def test_no_callable_taking_a_family_takes_tol():
    # tolerances live on the family: a tol beside it could disagree with
    # the one family.unit checks with
    modules = [importlib.import_module(f"spectralbranch.{info.name}")
               for info in pkgutil.iter_modules(spectralbranch.__path__)]
    callables = [getattr(spectralbranch, name) for name in spectralbranch.__all__]
    callables += [fn for module in modules
                  for _, fn in inspect.getmembers(module, inspect.isfunction)
                  if fn.__module__ == module.__name__]
    both = set()
    for fn in filter(callable, callables):
        try:
            params = inspect.signature(fn).parameters
        except ValueError:  # a built-in type's constructor has no signature
            continue
        if "family" in params and "tol" in params:
            both.add(fn.__qualname__)
    assert not both


def test_every_tol_parameter_is_read():
    # a tol that its function never reads is a setting that does nothing
    paths = sorted((ROOT / "src" / "spectralbranch").glob("*.py"))
    assert paths
    unread = []
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            names = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            if "tol" in params and "tol" not in names:
                unread.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not unread


def test_readme_quick_start():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    bs = namespace["bs"]
    # "the line t, exactly, through the crossing at 0"
    assert np.array_equal(bs.branch(0), bs.grid)
    assert len(bs.crossings) == 1
    assert abs(bs.crossings[0].t_star) < 1e-12


def test_failing_hypothesis_test_reaches_the_summary(tmp_path):
    # reporting a falsified @given test imports libcst, whose import warns;
    # with every other warning an error, the session still runs to its summary
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n != n\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
