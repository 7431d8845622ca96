"""Smoke run of the benchmark at its smallest size (one timed call per
measurement): every workload untraced and traced, with every printed
metric name and unit checked against BENCHMARK.json.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_untraced_every_workload_at_reference_seed():
    done = _run("--workload", "all", "--seed", "0", "--seconds", "0", "--trace", "0")
    res = _result(done)
    expected = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in _units("end_to_end").items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name in ("train_ms_per_iter", "eval_ms_per_sample", "setup_s", "peak_rss_mb", "failed_frac", "adv_cost_ratio"):
        assert f"\n{name} = " in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    res = _result(_run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("per_layer")
    for name, m in res["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] >= 0, name
    if workload.startswith("train"):
        calls = res["metrics"]["models.forward_eval_calls_per_op"]["value"]
        assert calls >= 1 and calls == int(calls)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
