"""Measure one point of the benchmark trajectory and write it as JSON.

    python3 perfbench/trajectory.py --runs 10 --seconds 25 --label <commit> --out point.json

Runs every workload ``--runs`` times untraced, each run in a fresh
process on its own seed (1..runs), then once traced at seed 0. For each
end-to-end metric it records the median and quartiles of the runs and
their spread (quartile distance over median); for each per-layer metric
the traced value. It also records the machine and the derived
``adv_cost_ratio`` with its base.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return res


def machine() -> dict:
    run._pin_threads()
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--label", required=True, help="commit or change the point measures")
    ap.add_argument("--note", action="append", default=[], help="free-text note, repeatable")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    point = {"label": args.label, "machine": machine(), "runs": args.runs,
             "seconds": args.seconds, "notes": args.note, "workloads": {}}
    for name in run.WORKLOADS:
        runs = [_result(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        e2e = {}
        for metric, unit in run.END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[metric] = {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / statistics.median(values), "values": values}
            print(f"{name} {metric}: median {e2e[metric]['median']:.4g} {unit}, spread {e2e[metric]['spread']:.3f}",
                  flush=True)
        traced = _result(name, 0, args.seconds, 1)["metrics"]
        point["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    pgd = point["workloads"]["train-pgd4"]["end_to_end"]["norm_ms_per_op"]["median"]
    reg = point["workloads"]["train-regular"]["end_to_end"]["norm_ms_per_op"]["median"]
    point["adv_cost_ratio"] = {"value": pgd / reg, "base": "train-regular norm_ms_per_op median",
                               "train-pgd4_ms": pgd, "train-regular_ms": reg}
    print(f"adv_cost_ratio = {pgd / reg:.3f} ({pgd:.1f} / {reg:.1f} ms per iteration)")
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
