"""Per-layer measurement for the scaat benchmark.

Three parts, all driven from outside the package:

* ``Tracer`` and ``traced``: timing shims rebound over the public
  functions of each ``scaat`` module, in every ``scaat`` namespace that
  imported the name, and restored on exit. Each call becomes a span
  (name, start, end, parent span, rows or other call detail).
* ``span_metrics``: per-operation totals, pass counts and the phase
  partition of every traced training iteration, read from the spans.
* ``op_times`` and ``saliency_times``: each engine op timed alone through
  the public ``conv2d``, ``max_pool2d``, ``matmul`` and
  ``Tensor.backward`` at the batch size the traced workload used, and
  each public saliency method timed per sample.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PHASES = ("saliency", "mask", "search", "qupdate", "loss_fwd", "backward", "update")

# Unit of every per-layer metric, in the order they are printed. "op" is
# the unit the run's ``attempted`` counts: one training iteration or one
# evaluated sample.
PER_LAYER = {
    "autodiff.backward_calls_per_op": "count",
    "autodiff.backward_ms_per_op": "ms",
    **{f"autodiff.{layer}.{part}_ms": "ms" for layer in ("conv1", "conv2", "fc") for part in ("fwd", "dx", "dw")},
    **{f"autodiff.{layer}.{part}_ms": "ms" for layer in ("pool1", "pool2") for part in ("fwd", "bwd")},
    "autodiff.conv1.fwd_gflop_s": "GFLOP/s",
    "autodiff.conv2.fwd_gflop_s": "GFLOP/s",
    "models.forward_eval_calls_per_op": "count",
    "models.scores_np_calls_per_op": "count",
    "models.forward_rows_per_op": "count",
    "models.forward_ms_per_op": "ms",
    "models.predict_rows_per_op": "count",
    "models.predict_ms_per_op": "ms",
    "saliency.batch_ms_per_op": "ms",
    "saliency.vanilla_ms_per_sample": "ms",
    "saliency.smoothgrad_ms_per_sample": "ms",
    "saliency.integrated_ms_per_sample": "ms",
    "adversarial.search_ms_per_op": "ms",
    "adversarial.success_rate": "frac",
    "adversarial.mean_js_bits": "bits",
    **{f"training.{phase}_ms": "ms" for phase in PHASES},
    "training.iter_ms_p50": "ms",
    "training.iter_ms_p90": "ms",
    "metrics.curve_ms_per_op": "ms",
    "metrics.sparsity_ms_per_op": "ms",
    "data.generate_s": "s",
    "trace_overhead_frac": "frac",
}


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: object = None


@dataclass
class Tracer:
    """Spans kept in memory, plus the search records of the current call."""

    spans: list = field(default_factory=list)
    searches: list = field(default_factory=list)   # (x, masks, eps, delta) per perturb_batch
    adv_correct: list = field(default_factory=list)
    js_bits: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        self._stack.pop()


# Hooks run on a call's bound arguments and result; what they return is
# kept as the span's ``info``.


def _rows(tracer, args, out) -> int:
    arr = getattr(out, "data", out)
    return int(arr.shape[0]) if arr.ndim == 2 else 1


def _on_search(tracer, args, out):
    tracer.searches.append((args["x"], args["masks"], args["cfg"].epsilon, out[0]))
    tracer.js_bits.append(np.asarray(out[1], dtype=np.float64))


def _on_update_q(tracer, args, out):
    tracer.adv_correct.append(bool(args["adv_correct"]))


# (defining module, public name, hook)
SHIMS = (
    ("scaat.autodiff", "Tensor.backward", None),
    ("scaat.models", "forward_eval", _rows),
    ("scaat.models", "scores_np", _rows),
    ("scaat.models", "predict_proba", _rows),
    ("scaat.saliency", "batch_gsmap_scores", None),
    ("scaat.adversarial", "perturb_batch", _on_search),
    ("scaat.training", "scaat_train", None),
    ("scaat.training", "update_q", _on_update_q),
    ("scaat.metrics", "perturbation_curve", None),
    ("scaat.metrics", "saliency_entropy", None),
    ("scaat.metrics", "compressed_size", None),
    ("scaat.metrics", "gini_index", None),
)


def _shim(tracer: Tracer, name: str, fn, hook):
    short = name.rsplit(".", 1)[-1]
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(short)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if hook is not None:
            tracer.spans[i].info = hook(tracer, sig.bind(*args, **kwargs).arguments, out)
        return out

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every shimmed name for the duration of the block."""
    undo = []
    try:
        for home, name, hook in SHIMS:
            owner = sys.modules[home]
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(owner, cls_name)
                targets = [(owner, attr)]
            else:
                attr = name
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "scaat" or mod_name.startswith("scaat.")
                    for key, val in vars(mod).items()
                    if val is getattr(owner, name)
                ]
            original = getattr(owner, attr)
            wrapper = _shim(tracer, name, original, hook)
            for target, key in targets:
                undo.append((target, key, getattr(target, key)))
                setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, val in reversed(undo):
            setattr(target, key, val)


def take_search_violations(tracer: Tracer) -> list[str]:
    """Check the three exact search constraints on every recorded
    ``perturb_batch`` result since the last call, then drop the records."""
    problems = []
    for x, masks, eps, delta in tracer.searches:
        n, _, h, w = x.shape
        off = ~np.asarray(masks, dtype=bool).reshape(n, 1, h, w)
        if np.abs(delta).max() > eps:
            problems.append(f"search delta exceeds epsilon {eps}")
        if np.any(np.where(off, delta, 0.0) != 0.0):
            problems.append("search delta is nonzero off the mask")
        if np.any((x + delta < 0.0) | (x + delta > 1.0)):
            problems.append("x + delta leaves [0, 1]")
    tracer.searches.clear()
    return problems


# -- reading the spans ----------------------------------------------------------


def _iterations(spans: list) -> list[dict]:
    """Split each traced ``scaat_train`` call into iterations.

    An iteration opens at its first saliency pass or loss forward that
    is a direct child of the training call, and closes where the next
    one opens (the last at the call's end). Its loss backward is the
    direct-child ``backward`` span.
    """
    out = []
    for ti, t in enumerate(spans):
        if t.name != "scaat_train":
            continue
        iters, cur = [], None
        for s in (s for s in spans if s.parent == ti):
            if cur is None and s.name in ("batch_gsmap_scores", "forward_eval"):
                cur = {"start": s.start}
            if cur is None:
                continue
            if s.name == "batch_gsmap_scores":
                cur["saliency"] = s
            elif s.name == "perturb_batch":
                cur["search"] = s
            elif s.name == "forward_eval":
                cur.setdefault("loss_fwd", s.start)
            elif s.name == "backward":
                cur["backward"] = s
                iters.append(cur)
                cur = None
        for it, nxt in zip(iters, iters[1:] + [{"start": t.end}]):
            it["end"] = nxt["start"]
        out.extend(iters)
    return out


def _phases_ms(it: dict) -> dict:
    """Phase self times of one iteration; ``update`` is the remainder, so
    the phases sum to the iteration exactly."""
    sal, search, bwd = it.get("saliency"), it.get("search"), it["backward"]
    ph = dict.fromkeys(PHASES, 0.0)
    if sal:
        ph["saliency"] = sal.end - sal.start
    if search:
        ph["search"] = search.end - search.start
        if sal:
            ph["mask"] = search.start - sal.end
        ph["qupdate"] = it.get("loss_fwd", bwd.start) - search.end
    ph["loss_fwd"] = bwd.start - it.get("loss_fwd", bwd.start)
    ph["backward"] = bwd.end - bwd.start
    ph["update"] = (it["end"] - it["start"]) - sum(ph.values())
    return {k: v * 1e3 for k, v in ph.items()}


def pass_counts(spans: list) -> list[tuple[int, int, int]]:
    """(forward_eval, scores_np, backward) calls started in each traced
    training iteration, nested calls included."""
    counts = []
    for it in _iterations(spans):
        inside = [s.name for s in spans if it["start"] <= s.start < it["end"]]
        counts.append(tuple(inside.count(n) for n in ("forward_eval", "scores_np", "backward")))
    return counts


def span_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op totals and the training phase breakdown from the spans."""
    spans = tracer.spans

    def total(*names, what="ms"):
        sel = [s for s in spans if s.name in names]
        if what == "calls":
            return len(sel) / n_ops
        if what == "rows":
            return sum(s.info for s in sel) / n_ops
        return sum(s.end - s.start for s in sel) * 1e3 / n_ops

    m = {
        "autodiff.backward_calls_per_op": total("backward", what="calls"),
        "autodiff.backward_ms_per_op": total("backward"),
        "models.forward_eval_calls_per_op": total("forward_eval", what="calls"),
        "models.scores_np_calls_per_op": total("scores_np", what="calls"),
        "models.forward_rows_per_op": total("forward_eval", "scores_np", what="rows"),
        "models.forward_ms_per_op": total("forward_eval", "scores_np"),
        "models.predict_rows_per_op": total("predict_proba", what="rows"),
        "models.predict_ms_per_op": total("predict_proba"),
        "saliency.batch_ms_per_op": total("batch_gsmap_scores"),
        "adversarial.search_ms_per_op": total("perturb_batch"),
        "adversarial.success_rate": (
            1.0 - float(np.mean(tracer.adv_correct)) if tracer.adv_correct else 0.0
        ),
        "adversarial.mean_js_bits": (
            float(np.concatenate(tracer.js_bits).mean()) if tracer.js_bits else 0.0
        ),
        "metrics.curve_ms_per_op": total("perturbation_curve"),
        "metrics.sparsity_ms_per_op": total("saliency_entropy", "compressed_size", "gini_index"),
    }
    iters = [_phases_ms(it) for it in _iterations(spans)]
    lengths = [sum(ph.values()) for ph in iters]
    for phase in PHASES:
        m[f"training.{phase}_ms"] = float(np.mean([ph[phase] for ph in iters])) if iters else 0.0
    m["training.iter_ms_p50"] = float(np.percentile(lengths, 50)) if iters else 0.0
    m["training.iter_ms_p90"] = float(np.percentile(lengths, 90)) if iters else 0.0
    return m


def busiest_batch(spans: list) -> int:
    """Batch size that carries the most rows through model forwards."""
    rows: dict[int, int] = {}
    for s in spans:
        if s.name in ("forward_eval", "scores_np"):
            rows[s.info] = rows.get(s.info, 0) + s.info
    return max(rows, key=rows.get)


# -- ops timed alone ------------------------------------------------------------


def _median_ms(run, reps: int, prepare=lambda: None) -> float:
    """Median time of ``run(prepare())``, with ``prepare`` untimed."""
    times = []
    for _ in range(reps):
        arg = prepare()
        t = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def op_times(params, n: int, reps: int = 7) -> dict:
    """Forward and backward of each CNN layer at batch ``n``, each op alone.

    A backward is timed as ``Tensor.backward`` from the scalar root
    ``sum(out * G)``; the same root over a leaf of the output's shape is
    timed too and subtracted, so only the op's own backward remains. The
    backward into each operand (dX, dW) is timed with only that operand
    requiring grad.
    """
    from scaat.autodiff import Tensor, conv2d, matmul, max_pool2d, mul, tsum

    rng = np.random.default_rng(0)
    c, h, w = params.spec.input_shape
    c1, c2 = params.spec.channels
    weights = {k: v.data for k, v in params.items()}
    backward = lambda root: root.backward()  # noqa: E731

    def timed(fwd, operands, parts):
        out_shape = fwd(*map(Tensor, operands)).data.shape
        g = Tensor(rng.standard_normal(out_shape))
        leaf_root = lambda: tsum(mul(Tensor(rng.standard_normal(out_shape), requires_grad=True), g))  # noqa: E731
        base = _median_ms(backward, reps, leaf_root)
        res = {"fwd": _median_ms(lambda _: fwd(*map(Tensor, operands)), reps)}
        for i, part in enumerate(parts):
            def op_root(i=i):
                return tsum(mul(fwd(*(Tensor(a, requires_grad=j == i) for j, a in enumerate(operands))), g))
            res[part] = _median_ms(backward, reps, op_root) - base
        return res

    conv = lambda a, b: conv2d(a, b, padding=1)  # noqa: E731
    pool = lambda a: max_pool2d(a, 2)  # noqa: E731
    res = {
        "conv1": timed(conv, (rng.uniform(0, 1, (n, c, h, w)), weights["conv1.w"]), ("dx", "dw")),
        "pool1": timed(pool, (rng.uniform(0, 1, (n, c1, h, w)),), ("bwd",)),
        "conv2": timed(conv, (rng.uniform(0, 1, (n, c1, h // 2, w // 2)), weights["conv2.w"]), ("dx", "dw")),
        "pool2": timed(pool, (rng.uniform(0, 1, (n, c2, h // 2, w // 2)),), ("bwd",)),
        "fc": timed(matmul, (rng.uniform(0, 1, (n, c2 * (h // 4) * (w // 4))), weights["fc.w"]), ("dx", "dw")),
    }
    m = {f"autodiff.{lay}.{part}_ms": v for lay, parts in res.items() for part, v in parts.items()}
    for lay, (cin, cout, side) in {"conv1": (c, c1, h), "conv2": (c1, c2, h // 2)}.items():
        flop = 2.0 * n * side * side * cout * cin * 9
        m[f"autodiff.{lay}.fwd_gflop_s"] = flop / (res[lay]["fwd"] * 1e-3) / 1e9
    return m


def saliency_times(params, images, labels) -> dict:
    """Per-sample median time of each public saliency method, with the
    evaluation protocol's default settings."""
    from scaat.metrics import EvalProtocol
    from scaat.saliency import integrated_gradients, smooth_grad, vanilla_gsmap

    p = EvalProtocol()
    methods = {
        "vanilla": lambda x, y, i: vanilla_gsmap(params, x, y),
        "smoothgrad": lambda x, y, i: smooth_grad(params, x, y, p.smooth_samples, p.smooth_sigma, rng=i),
        "integrated": lambda x, y, i: integrated_gradients(params, x, y, np.zeros_like(x), p.ig_steps),
    }
    m = {}
    for name, fn in methods.items():
        times = []
        for i, (x, y) in enumerate(zip(images, labels)):
            t = time.perf_counter()
            fn(x, int(y), i)
            times.append(time.perf_counter() - t)
        m[f"saliency.{name}_ms_per_sample"] = statistics.median(times) * 1e3
    return m
