"""Benchmark of the scaat lab: three closed-loop workloads on the gate's
3x32x32, 10-class CNN, driven through the package's public entry points.

    python3 perfbench/run.py --workload train-pgd4 --seed 0 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``train-pgd4``: ``scaat_train``, adaptive q, batch 64, PGD k=4, eps 8/255.
* ``train-regular``: ``scaat_train`` on the same data and model, plain CE.
* ``eval-vanilla``: ``evaluate_model`` with the gate's vanilla protocol on a
  held-out split, for a model briefly trained in set-up.

With ``--trace 0`` the last output line holds the end-to-end metrics,
measured with no shims installed. With ``--trace 1`` it holds the
per-layer metrics: the run first measures untraced, then again with the
timing shims of ``layers.py`` installed, then times single ops and
saliency methods alone. ``--workload all`` runs each workload in its own
process and adds the derived ``adv_cost_ratio``.

Run from the root of a checkout: the package is imported from ``src/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("train-pgd4", "train-regular", "eval-vanilla")
END_TO_END = {"norm_ms_per_op": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3          # set-ups per run: this process plus two fresh ones
TRAIN_ITERS = {"train-pgd4": 1, "train-regular": 8}   # iterations per timed call (about 1 s)
EVAL_MODEL_ITERS = 24      # regular iterations that train the eval model in set-up
EVAL_SAMPLES = 64          # held-out split, evaluated in chunks
EVAL_CHUNK = 8
SALIENCY_SAMPLES = 8
REL_TOL = 1e-6             # reference comparison; see README
ABS_TOL = {"size_kib": 1.0 / 1024}   # compressed size moves in whole bytes
HOST_KERNEL_MS = 40.0      # nominal host-kernel time that times are scaled to
KERNELS_PER_CALL = 3


def _pin_threads() -> None:
    """BLAS threads = usable cores, and evaluation fan-out off; set before
    numpy loads so every process of a run computes the same way."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)
    os.environ["SCAAT_THREADS"] = "1"


def _import_scaat() -> None:
    if not (SRC / "scaat" / "__init__.py").is_file():
        sys.exit(f"error: no scaat package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import scaat

    if Path(scaat.__file__).resolve().parent != (SRC / "scaat").resolve():
        sys.exit(f"error: imported scaat from {scaat.__file__}, not from {SRC}")


# -- workloads -----------------------------------------------------------------


def _digest(params) -> list:
    """Sum and L2 norm of each parameter tensor, in order."""
    import numpy as np

    return [[float(a.sum()), float(np.sqrt((a * a).sum()))] for a in params.arrays().values()]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """Set-up state plus ``call`` (one timed unit) and ``check`` (its outputs)."""

    def __init__(self, name: str, seed: int):
        from scaat import data, models

        self.name, self.seed = name, seed
        self.spec = models.ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)
        t = time.perf_counter()
        self.train = data.generate_half_informative(
            n=640, size=32, channels=3, classes=10, seed=2 * seed, task_seed=seed
        )
        self.first: dict = {}     # first output per call slot, for repeat checks
        self.generate_s = time.perf_counter() - t

    def compare(self, slot: int, record: dict) -> list[str]:
        """Every call in a slot must repeat the slot's first output; the
        first output of slot 0 must match the reference at seed 0."""
        if slot not in self.first:
            self.first[slot] = record
            return _against_reference(self.name, self.seed, record) if slot == 0 else []
        return [] if record == self.first[slot] else [f"output of slot {slot} changed between calls"]


class TrainWorkload(Workload):
    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        from scaat.adversarial import AdvConfig
        from scaat.training import TrainConfig

        mode = "scaat_adaptive_q" if name == "train-pgd4" else "regular"
        self.cfg = TrainConfig(
            mode=mode, lam=1.0, batch_size=64, n_iter=TRAIN_ITERS[name], lr=0.05,
            seed=seed, adv=AdvConfig(epsilon=8 / 255, k=4), warmup_iters=0,
        )
        self.samples = (self.train.images[:SALIENCY_SAMPLES], self.train.labels[:SALIENCY_SAMPLES])
        self.call(0)   # warm-up

    def call(self, k: int):
        from scaat import training

        return self.cfg.n_iter, training.scaat_train(self.train, self.spec, self.cfg)

    def params(self, out):
        return out.params

    def check(self, k: int, out) -> list[str]:
        problems = []
        q = out.qstate.q
        if not _finite(v for rec in out.log for v in (rec["L_cls"], rec["L_adv"])):
            problems.append("non-finite loss")
        if q.min() < self.cfg.q_min or q.max() > self.cfg.q_max:
            problems.append("q left [q_min, q_max]")
        record = {"last_log": out.log[-1], "params": _digest(out.params)}
        if not _finite(v for pair in record["params"] for v in pair):
            problems.append("non-finite parameters")
        return problems + self.compare(0, record)


class EvalWorkload(Workload):
    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        from scaat import data, metrics, training

        t = time.perf_counter()
        test = data.generate_half_informative(
            n=EVAL_SAMPLES, size=32, channels=3, classes=10, seed=2 * seed + 1,
            task_seed=seed, split="test",
        )
        self.generate_s += time.perf_counter() - t
        cfg = training.TrainConfig(mode="regular", batch_size=64, n_iter=EVAL_MODEL_ITERS, lr=0.05, seed=seed)
        self.model = training.scaat_train(self.train, self.spec, cfg).params
        self.protocol = metrics.EvalProtocol(saliency="vanilla", steps=20, fraction=0.2, repeats=5, region=4)
        self.chunks = [
            data.Dataset(test.images[lo : lo + EVAL_CHUNK], test.labels[lo : lo + EVAL_CHUNK], 10, "test", "bench")
            for lo in range(0, EVAL_SAMPLES, EVAL_CHUNK)
        ]
        self.samples = (test.images[:SALIENCY_SAMPLES], test.labels[:SALIENCY_SAMPLES])
        metrics.evaluate_model(self.model, self.chunks[0].take(2), self.protocol, seed=seed)  # warm-up

    def call(self, k: int):
        from scaat import metrics

        chunk = self.chunks[k % len(self.chunks)]
        return len(chunk), metrics.evaluate_model(self.model, chunk, self.protocol, seed=self.seed)

    def params(self, out):
        return self.model

    def check(self, k: int, out) -> list[str]:
        problems = []
        agg = out.aggregates
        cols = [float(v) for col in out.per_sample.values() for v in col]
        if not (_finite(agg.values()) and _finite(cols)):
            problems.append("non-finite evaluation value")
        if not 0.0 <= agg["accuracy"] <= 1.0:
            problems.append("accuracy outside [0, 1]")
        record = {"aggregates": agg, "params": _digest(self.model)}
        return problems + self.compare(k % len(self.chunks), record)


def make_workload(name: str, seed: int) -> Workload:
    return (EvalWorkload if name == "eval-vanilla" else TrainWorkload)(name, seed)


def _close(a, b, key="") -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], k) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y, key) for x, y in zip(a, b))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL.get(key, 1e-12))


def _against_reference(name: str, seed: int, record: dict) -> list[str]:
    if seed != 0 or not REFERENCE.is_file():
        return []
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None or _close(ref, json.loads(json.dumps(record))):
        return []
    return [f"seed-0 output differs from {REFERENCE.name}"]


# -- measuring -------------------------------------------------------------------


def host_kernel(rng) -> float:
    """A frozen copy of the engine's heaviest forward work, independent of
    the package: a padded unfold, GEMM and ReLU shaped like the gate CNN's
    first conv at batch 64, then a 2x2 argmax max-pool, all in fresh
    buffers. Its time tracks the shared host's speed; returns ms."""
    import numpy as np

    t = time.perf_counter()
    x = rng.random((64, 3, 34, 34))
    cols = np.empty((27, 64, 32, 32))
    for k in range(9):
        cols[3 * k : 3 * k + 3] = x[:, :, k // 3 : k // 3 + 32, k % 3 : k % 3 + 32].transpose(1, 0, 2, 3)
    h = rng.random((16, 27)) @ cols.reshape(27, -1)
    h = np.maximum(np.ascontiguousarray(h.reshape(16, 64, 32, 32).transpose(1, 0, 2, 3)), 0.0)
    win = h.reshape(64, 16, 16, 2, 16, 2).transpose(0, 1, 2, 4, 3, 5).reshape(64, 16, 16, 16, 4)
    np.take_along_axis(win, win.argmax(axis=-1)[..., None], axis=-1).sum()
    return (time.perf_counter() - t) * 1e3


class Timings:
    """What one closed loop measured."""

    def __init__(self):
        self.per_op: list[float] = []    # ms per op of each call
        self.kernel: list[float] = []    # host kernel ms after each call
        self.attempted = self.failed = 0
        self.out = None

    def host_factor(self) -> float:
        """Nominal over measured host-kernel time: scales a time taken on
        the host as it ran to the time at the nominal host speed."""
        return HOST_KERNEL_MS / statistics.median(self.kernel)

    def norm_ms_per_op(self) -> float:
        return statistics.median(self.per_op) * self.host_factor()


def measure(w: Workload, seconds: float, tracer=None) -> Timings:
    """Closed loop of timed calls for ``seconds`` (at least one call), each
    followed by ``KERNELS_PER_CALL`` runs of the host kernel.

    A call that raises, or whose outputs fail a check, fails all its ops.
    """
    import numpy as np
    from layers import take_search_violations

    res, rng = Timings(), np.random.default_rng(0)
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        n_ops = TRAIN_ITERS.get(w.name, EVAL_CHUNK)
        try:
            t = time.perf_counter()
            n_ops, res.out = w.call(k)
            dt = time.perf_counter() - t
            problems = w.check(k, res.out)
            if tracer is not None:
                problems += take_search_violations(tracer)
            res.per_op.append(dt * 1e3 / n_ops)
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            print(f"FAILED call {k}: {'; '.join(problems)}", file=sys.stderr)
            res.failed += n_ops
        res.attempted += n_ops
        res.kernel.extend(host_kernel(rng) for _ in range(KERNELS_PER_CALL))
        k += 1
    return res


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{len(values)} call"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} calls, quartiles {q1:.1f}..{q3:.1f}"


def setup_seconds(args) -> float:
    """Time from process start to the end of set-up, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_untraced(args, w: Workload, setup_s: float) -> dict:
    setups = [setup_s, *(setup_seconds(args) for _ in range(SETUP_REPEATS - 1))]
    res = measure(w, args.seconds)
    factor = res.host_factor()
    op = "train_ms_per_iter" if w.name.startswith("train") else "eval_ms_per_sample"
    metrics = {
        "norm_ms_per_op": res.norm_ms_per_op(),
        "setup_s": statistics.median(setups) * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{op} = {statistics.median(res.per_op):.2f} ms wall ({_quartiles(res.per_op)})")
    print(f"host_kernel_ms = {statistics.median(res.kernel):.2f} ms ({_quartiles(res.kernel)}; "
          f"nominal {HOST_KERNEL_MS}, host factor {factor:.3f})")
    print(f"norm_ms_per_op = {metrics['norm_ms_per_op']:.2f} ms ({op} times host factor)")
    print(f"setup_s = {metrics['setup_s']:.3f} s (median of {', '.join(f'{s:.3f}' for s in setups)} s wall, "
          "times host factor)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_frac = {res.failed / res.attempted:.4f} frac ({res.failed} of {res.attempted} ops)")
    return {"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}


def run_traced(args, w: Workload) -> dict:
    import layers

    plain = measure(w, args.seconds / 2.0)
    tracer = layers.Tracer()
    with layers.traced(tracer):
        traced = measure(w, args.seconds / 2.0, tracer)
    m = layers.span_metrics(tracer, traced.attempted)
    m.update(layers.op_times(w.params(traced.out), layers.busiest_batch(tracer.spans)))
    m.update(layers.saliency_times(w.params(traced.out), *w.samples))
    m["data.generate_s"] = w.generate_s
    m["trace_overhead_frac"] = traced.norm_ms_per_op() / plain.norm_ms_per_op() - 1.0

    counts = layers.pass_counts(tracer.spans)
    if counts:
        kinds = sorted(set(counts))
        same = "identical in" if len(kinds) == 1 else "NOT identical across"
        print(f"passes per iteration (forward_eval, scores_np, backward): {kinds} ({same} {len(counts)} traced iterations)")
        phases = sum(m[f"training.{p}_ms"] for p in layers.PHASES)
        print(f"training phases sum to {phases:.3f} ms = mean traced iteration")
    metrics = {name: m[name] for name in layers.PER_LAYER}
    for name, unit in layers.PER_LAYER.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    print(f"failed_frac = {failed / attempted:.4f} frac ({failed} of {attempted} ops)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, then the derived cost ratio."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        results.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if not args.trace:
        pgd, reg = results["train-pgd4.norm_ms_per_op"]["value"], results["train-regular.norm_ms_per_op"]["value"]
        print(f"adv_cost_ratio = {pgd / reg:.3f} (train-pgd4 {pgd:.1f} over train-regular {reg:.1f} norm_ms_per_op)")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="record this seed-0 run's first outputs in reference.json")
    args = ap.parse_args(argv)

    _pin_threads()
    _import_scaat()
    import layers

    if args.workload == "all":
        result = run_all(args)
        print(json.dumps(result))
        return 0

    w = make_workload(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.write_reference:
        if args.seed != 0:
            sys.exit("error: references are recorded at seed 0")
        w.check(0, w.call(0)[1])
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        refs[args.workload] = w.first[0]
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.workload} reference to {REFERENCE}")
        return 0

    result = run_traced(args, w) if args.trace else run_untraced(args, w, setup_s)
    units = layers.PER_LAYER if args.trace else END_TO_END
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
