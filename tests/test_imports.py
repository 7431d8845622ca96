"""Every module imports cleanly when it is the first one loaded.

The package ``__init__`` imports all modules in one fixed order, which
can hide an import cycle that only bites when another module comes
first. Each case therefore runs in a fresh interpreter with the package
registered but its ``__init__`` not run.
"""

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
