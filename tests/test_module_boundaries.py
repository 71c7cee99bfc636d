"""Modules of the package use only each other's public names, carry no
unused import or unreferenced private name, load only the modules they
import, and load no scipy."""

import ast
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "halleydyn"


@cache
def _trees():
    """Syntax tree of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_private_name_of_a_sibling():
    private = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("halleydyn")):
                private += [f"{name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _trees().items():
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = _loaded_names(tree)
        unused += [f"{name}: {n}" for n in imported if n not in used]
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unreferenced = []
    for name, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        unreferenced += [f"{name}: {n}" for n in defined
                         if n.startswith("_") and not n.startswith("__") and n not in referenced]
    assert unreferenced == []


def _loaded_modules(module: str, package: str) -> list:
    """Names of the modules of package that a fresh interpreter holds
    after importing module."""
    code = (f"import sys, {module}; "
            f"print(*sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    return out.split()


def test_the_cli_loads_no_scipy():
    # scipy costs a CLI call about half a second of import; numpy suffices
    assert _loaded_modules("halleydyn.cli", "scipy") == []


def test_a_module_loads_only_what_it_imports():
    # the package's top level imports nothing, so polycore comes with its
    # one dependency alone, and the CLI imports the acceptance battery
    # only when paperlab runs
    assert _loaded_modules("halleydyn.polycore", "halleydyn") == [
        "halleydyn", "halleydyn.errors", "halleydyn.polycore"]
    assert "halleydyn.acceptance" not in _loaded_modules("halleydyn.cli", "halleydyn")
