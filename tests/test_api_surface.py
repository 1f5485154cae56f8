"""Every name a module exports is used by the package itself, not only by tests.

A name counts as used when it appears on a line of some module under
src/isotropy (the package __init__ excluded) other than its own def or
class line and the lines of an __all__ list.  An exported exception
class counts as used only when some package module names it in an
``except`` clause: a class that no caller catches by name is a plain
``ValueError`` with a longer name.  The package root binds no public
name but ``__version__``: callers import the submodules.  No module
checks with ``assert``, which ``python -O`` strips: a detected failure
raises ``ValueError``.
"""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

import isotropy

SRC = Path(__file__).resolve().parents[1] / "src" / "isotropy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]


def _all_node(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return node
    return None


def _lines_outside_all(path: Path, tree: ast.Module) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    node = _all_node(tree)
    if node is not None:
        del lines[node.lineno - 1 : node.end_lineno]
    return lines


LINES = [line for path, tree in zip(MODULES, TREES) for line in _lines_outside_all(path, tree)]


def _handler_names(node) -> list[str]:
    """The names an ``except`` clause's type expression lists (``X``, ``mod.X`` or a tuple of them)."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _handler_names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


CAUGHT = {
    name
    for tree in TREES
    for node in ast.walk(tree)
    if isinstance(node, ast.ExceptHandler)
    for name in _handler_names(node.type)
}


def exported(path: Path) -> list[str]:
    node = _all_node(TREES[MODULES.index(path)])
    return [] if node is None else list(ast.literal_eval(node.value))


def used(name: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not own.match(line) for line in LINES)


def is_exception(module: Path, name: str) -> bool:
    obj = getattr(importlib.import_module(f"isotropy.{module.stem}"), name)
    return isinstance(obj, type) and issubclass(obj, BaseException)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_exported_names_are_used_by_the_package(module):
    unused = [
        name
        for name in exported(module)
        if not (name in CAUGHT if is_exception(module, name) else used(name))
    ]
    assert unused == []


def test_package_root_binds_only_version():
    public = {k for k, v in vars(isotropy).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set()
    assert isinstance(isotropy.__version__, str)


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_bodies_decide_containment_in_their_chord_alone():
    # Each body states its containment test once, in _chord_impl; membership and chord are
    # Body's alone, so the bench tracer's wrapper on the classes that define membership
    # (bench/tracer.py) covers every body.
    geometry = importlib.import_module("isotropy.geometry")
    bodies = [c for c in vars(geometry).values() if isinstance(c, type) and issubclass(c, geometry.Body)]
    for name in ("membership", "chord"):
        assert [c.__name__ for c in bodies if name in vars(c)] == ["Body"], name
    defining = [
        f"{path.name}:{node.name}"
        for path, tree in zip(MODULES, TREES)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "_contains" for f in node.body)
    ]
    assert defining == []


@pytest.mark.parametrize(
    "module, function, names",
    [
        ("samplers", "sample_hit_and_run", ("burn_in", "thin", "count")),
        ("bernoulli", "rademacher_trial_norms", ("points", "trials")),
        ("bernoulli", "symmetrization_check", ("trials", "M", "n")),
        ("bernoulli", "rademacher_exact", ("points",)),
    ],
)
def test_parameters_the_bench_tracer_reads_keep_their_names(module, function, names):
    # bench/tracer.py reads each call's arguments by these names to count hit-and-run steps
    # and signed sums; a rename would zero those per-layer metrics without failing a run.
    parameters = inspect.signature(getattr(importlib.import_module(f"isotropy.{module}"), function)).parameters
    assert set(names) <= set(parameters), sorted(parameters)
