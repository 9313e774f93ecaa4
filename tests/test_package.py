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


def test_numerics_sit_below_the_config_language():
    # imports run one way: no numerics module imports the config language,
    # and below the gallery none parses an expression
    below = {"linalg": {"config", "expressions"}, "families": {"config", "expressions"},
             "contour": {"config", "expressions"}, "tracker": {"config", "expressions"},
             "gallery": {"config"}}
    crossing = []
    for name, banned in below.items():
        tree = ast.parse((ROOT / "src" / "spectralbranch" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in banned:
                crossing.append(f"{name} imports .{node.module}")
    assert not crossing


def test_tracker_reads_the_family_in_one_function():
    # one function reads A(t) and every consumer works from what it returned,
    # so no point of the estimate or of a crossing reads its matrix twice
    tree = ast.parse((ROOT / "src" / "spectralbranch" / "tracker.py").read_text())
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "tridiagonal"
               or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "unit"}
    assert len(readers) == 1, sorted(readers)


def _called(node: ast.Call) -> str | None:
    return (node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", None))


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, function) of every function in the package that calls name."""
    return {(path.name, fn.name)
            for path in sorted((ROOT / "src" / "spectralbranch").glob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _called(node) == name}


def test_one_dense_eigensolver():
    # every dense eigensolve, the scripts' included, is dense_eig's
    # reduction: no numpy eigensolver, and one function that reduces a
    # matrix to tridiagonal form
    numpy_solvers = [f"{path.name}:{node.lineno}"
                     for path in sorted([*(ROOT / "src" / "spectralbranch").glob("*.py"),
                                         *(ROOT / "scripts").glob("*.py")])
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call) and _called(node) in ("eigh", "eigvalsh")]
    assert not numpy_solvers, numpy_solvers
    assert len(_callers("zhetrd")) == 1, sorted(_callers("zhetrd"))


def test_the_hermitian_check_decides_what_a_matrix_stands_for():
    # one function hands on the matrix zhetrd reads, and no module but
    # linalg measures a Hermitian defect, so no consumer decides again
    assert len(_callers("_lower_hermitian")) == 1, sorted(_callers("_lower_hermitian"))
    assert {module for module, _ in _callers("_hermitian_defect")} == {"linalg.py"}


def test_each_matrix_is_checked_where_it_is_read():
    # the contract check runs in the reads of A(t) and A'(t) alone; the
    # eigensolvers take what it hands on and do not check again
    assert _callers("_hermitian_scale") == {("linalg.py", "ensure_hermitian"),
                                            ("linalg.py", "_checked_tridiagonal")}
    assert _callers("_checked_tridiagonal") == {("tracker.py", "_read_unit"),
                                                ("families.py", "derivative_bands")}
    solvers = {("linalg.py", name) for name in ("dense_eig", "tridiagonal_eig", "_reduction")}
    for check in ("ensure_hermitian", "_hermitian_scale", "_checked_tridiagonal"):
        assert not _callers(check) & solvers, check


def test_the_tracker_solves_values_in_one_place():
    # _solve is the tracker's one values solve, and its record is handed on:
    # every other read of A(t) wants V, A'(t) or a count at a fresh time
    assert _callers("tridiagonal_eig") == {("tracker.py", "_eigenpairs"),
                                           ("tracker.py", "_solve")}
    assert _callers("_read_unit") == {("tracker.py", name) for name in (
        "_solve", "one_sided_derivatives", "_damped_derivative", "estimate_derivative_bound")}


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
