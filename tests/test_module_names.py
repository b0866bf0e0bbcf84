"""Guards that every name a robandit module loads or exports is bound in it.

A name used but never imported or defined fails only when its line runs, as a
NameError; the static check finds it without running anything. It is
scope-blind: a name counts as bound if any binding of it appears anywhere in
the module. A stale ``__all__`` entry breaks ``from module import *``; the
export check imports each module that declares ``__all__`` and looks the names up.
Each harness module also imports first in a fresh interpreter, so no module
needs another to have loaded before it, and the only imports a function makes
when it runs are the few that defer a load most runs never need.
"""

import ast
import builtins
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "robandit"
MODULES = sorted(SRC.rglob("*.py"))
MODULE_DUNDERS = {
    "__name__", "__file__", "__doc__", "__package__", "__spec__", "__loader__",
    "__path__", "__builtins__", "__cached__",
}


def _bound_names(tree: ast.AST) -> set[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            # assignment, augmented and annotated assignment, for, with,
            # comprehension and walrus targets
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    return bound


def _loaded_names(tree: ast.AST) -> dict[str, int]:
    loaded = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.setdefault(node.id, node.lineno)
    return loaded


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_loaded_name_is_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    known = _bound_names(tree) | set(dir(builtins)) | MODULE_DUNDERS
    unbound = {name: line for name, line in _loaded_names(tree).items() if name not in known}
    assert not unbound, f"{path.name}: names loaded but never bound (name: first line): {unbound}"


EXPORTING = [p for p in MODULES if "__all__" in p.read_text()]


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(("robandit",) + parts).removesuffix(".__init__")


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: str(p.relative_to(SRC)))
def test_every_exported_name_is_bound(path):
    module = importlib.import_module(_module_name(path))
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert not stale, f"{path.name}: names in __all__ but not bound: {stale}"


REPO = SRC.parents[1]
# Public names that nothing in src/robandit or perfbench/ calls yet, each with
# the open ROADMAP item that will call it.
AWAITING_CALLERS = {
    "in_mad_family": "item 21",
}


def _public_names(package_init: Path) -> list[str]:
    """The names a package's ``__init__`` imports and does not mark private."""
    tree = ast.parse(package_init.read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    return [name for name in names if not name.startswith("_")]


def _loads_outside_definitions(tree: ast.AST) -> set[str]:
    """Names loaded anywhere but inside the function or class of that name."""
    loads = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in defining:
                loads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return loads


def _named_in(tree: ast.AST) -> set[str]:
    """Every name an import, a name, an attribute or a string constant spells."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            named.add(node.asname or node.name)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    return named


def test_every_public_name_has_a_caller():
    """Each name ``robandit`` or ``robandit.harness`` binds is loaded in
    src/robandit outside its own definition, or named by a perfbench/ file
    (the benchmark's tracer patches and spans names), or awaits the open item
    ``AWAITING_CALLERS`` lists for it. A name that loses its last caller fails
    here, and so does a table entry that has found one."""
    names = _public_names(SRC / "__init__.py") + _public_names(SRC / "harness" / "__init__.py")
    loaded = set().union(*(_loads_outside_definitions(ast.parse(p.read_text())) for p in MODULES))
    perfbench = (REPO / "perfbench").rglob("*.py")
    named = set().union(*(_named_in(ast.parse(p.read_text())) for p in perfbench))
    called = loaded | named
    uncalled = [name for name in names if name not in called and name not in AWAITING_CALLERS]
    assert not uncalled, f"public names that nothing in src/robandit or perfbench/ calls: {uncalled}"
    stale = sorted(name for name in AWAITING_CALLERS if name not in names or name in called)
    assert not stale, f"AWAITING_CALLERS entries that are not public or already have a caller: {stale}"
    open_items = (REPO / "ROADMAP.md").read_text().split("## Open items")[1]
    numbers = re.findall(r"^(\d+)\. \*\*", open_items, re.M)
    for name, item in AWAITING_CALLERS.items():
        assert item.removeprefix("item ") in numbers, f"{name}: {item} is not an open ROADMAP item"


def test_guard_sees_every_binding_form():
    assert SRC / "distributions.py" in MODULES
    source = """
import os.path as osp, sys
from json import loads as parse
def f(a, /, b, *args, c, **kwargs):
    global G
    G = [x for x in args if (y := x)]
    for i, j in []: pass
    with open(a) as fh: pass
    try: pass
    except ValueError as err: pass
    return osp, sys, parse, G, y, i, j, fh, err, b, c, kwargs, f
class C: pass
C, missing
"""
    tree = ast.parse(source)
    unbound = set(_loaded_names(tree)) - _bound_names(tree) - set(dir(builtins))
    assert unbound == {"missing"}


HARNESS = sorted((SRC / "harness").glob("*.py"))


@pytest.mark.parametrize("path", HARNESS, ids=lambda p: p.name)
def test_harness_module_imports_first(path):
    pythonpath = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {_module_name(path)}"],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# (module, what a function in it imports when it runs): scipy for the few laws
# that need it; runner's spec_of, which config validates with and which
# imports config at load; the verify suites, which no demo loads; and a
# process pool's modules, only when one starts.
DEFERRED_IMPORTS = {
    ("distributions.py", "scipy.special"),
    ("harness/config.py", ".runner"),
    ("harness/config.py", ".verify"),
    ("harness/cli.py", ".verify"),
    ("harness/runner.py", ".verify"),
    ("harness/runner.py", "multiprocessing"),
    ("harness/runner.py", "concurrent.futures"),
}


def test_function_level_imports_are_the_deferred_ones():
    found = set()
    for path in MODULES:
        name = str(path.relative_to(SRC))
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Import):
                    found.update((name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((name, "." * node.level + (node.module or "")))
    assert found == DEFERRED_IMPORTS
