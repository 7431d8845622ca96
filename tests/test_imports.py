"""Every module imports cleanly when it is the first one loaded, and
reads every name it imports.

The package ``__init__`` imports all modules in one fixed order, which
can hide an import cycle that only bites when another module comes
first. Each case therefore runs in a fresh interpreter with the package
registered but its ``__init__`` not run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "scaat"
MODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__init__")

IMPORT_FIRST = """
import importlib, sys, types
pkg = types.ModuleType("scaat")
pkg.__path__ = [{path!r}]
sys.modules["scaat"] = pkg
importlib.import_module("scaat.{module}")
"""


def run_python(code):
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = run_python(IMPORT_FIRST.format(path=str(PKG), module=module))
    assert proc.returncode == 0, proc.stderr


def test_package_imports():
    proc = run_python("import scaat")
    assert proc.returncode == 0, proc.stderr


def imported_names(tree):
    """Each name an import statement binds in ``tree``, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    # __init__.py is left out: its imports are the package's re-exports
    tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in read]
    assert unread == [], f"{module}.py imports names it never reads: {unread}"
