"""Smoke test: every demo script runs to completion from the repo root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW_DEMOS = {"05_adaptive_training.py"}  # trains two arms


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize(
    "script",
    [pytest.param(p, marks=pytest.mark.slow) if p.name in SLOW_DEMOS else p for p in DEMOS],
    ids=lambda p: p.name,
)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script.relative_to(ROOT))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
