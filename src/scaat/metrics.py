"""Sparsity and faithfulness metrics for saliency maps.

Sparsity: Shannon entropy of the normalized map, deflate-compressed
8-bit raster size, and the Gini index. Faithfulness: prediction-score
decay curves under least/most-relevant-first region perturbation and
their averages (AOPC), with the relative score AOPC_morf / AOPC_lerf.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import _blas, seeds
from .models import ParamSet, _nested_scorer, predict_proba
from .saliency import SaliencyMap, integrated_gradients, predicted_vanilla, region_mean, smooth_grad, to_u8

SALIENCY_METHODS = ("vanilla", "smoothgrad", "integrated")


def saliency_entropy(smap: SaliencyMap) -> float:
    """Shannon entropy (bits) of pixel scores normalized to a distribution."""
    s = smap.values.ravel()
    total = s.sum()
    if total <= 0:
        raise ValueError("entropy undefined for an all-zero saliency map")
    p = s[s > 0] / total
    return float(-(p * np.log2(p)).sum())


def compressed_size(smap: SaliencyMap) -> float:
    """Deflate-compressed size (KiB) of the min-max normalized 8-bit raster."""
    raw = to_u8(smap.values).tobytes()
    return len(zlib.compress(raw)) / 1024.0


def gini_index(smap: SaliencyMap) -> float:
    """Gini index of the score distribution: 0 uniform, (n-1)/n one-hot."""
    a = np.sort(smap.values.ravel())
    n = a.size
    total = a.sum()
    if total <= 0:
        raise ValueError("Gini index undefined for an all-zero saliency map")
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * a).sum() / (n * total))


@dataclass
class PerturbationCurve:
    """Mean prediction-score decay per perturbation step."""

    order: str            # "lerf" | "morf"
    steps: int
    fraction: float
    repeats: int
    values: np.ndarray    # (steps,)


def _tile_ranking(smap_values: np.ndarray, region: int, order: str) -> np.ndarray:
    tiles = region_mean(smap_values, region)[::region, ::region].ravel()
    key = tiles if order == "lerf" else -tiles
    return np.lexsort((np.arange(tiles.size), key))


def _check_region(region: int, h: int, w: int) -> None:
    if h % region or w % region:
        raise ValueError(f"region side {region} must divide image extents {(h, w)}")


def perturbation_curve(
    params: ParamSet,
    x: np.ndarray,
    smap: SaliencyMap,
    order: str,
    steps: int = 20,
    fraction: float = 0.2,
    repeats: int = 5,
    region: int = 4,
    rng: np.random.Generator | int | None = None,
    p_clean: np.ndarray | None = None,
) -> PerturbationCurve:
    """Decay of the clean argmax-class probability as ranked regions are
    replaced with uniform-random pixels, cumulatively over ``steps``.

    Ranking is by mean region saliency, ascending for "lerf" and
    descending for "morf"; ties break on region index. The random fill
    is redrawn for each of ``repeats`` passes and decays are averaged.
    Steps that perturb the same number of regions share one scored row,
    and steps that perturb none read the clean probabilities
    ``p_clean`` (the model's output at ``x``, predicted when omitted).

    Each scored row perturbs the regions of the row before it and one or
    more besides. A CNN's rows are scored by ``models._nested_scorer``,
    which recomputes only the conv outputs that each row's new regions
    reach; its probabilities are those of ``predict_proba`` on the rows,
    bit for bit wherever that forward's conv GEMMs have a column count
    that is a multiple of 8 (README, Determinism). An MLP's first layer
    mixes every pixel, so its rows run through ``predict_proba``.
    """
    if order not in ("lerf", "morf"):
        raise ValueError(f"order must be 'lerf' or 'morf', got {order!r}")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if region < 1:
        raise ValueError(f"region must be >= 1, got {region}")
    x = np.asarray(x, dtype=np.float64)
    _, h, w = x.shape
    _check_region(region, h, w)
    rng = seeds.as_generator(rng, seeds.EVAL)

    ranking = _tile_ranking(smap.values, region, order)
    n_tiles = ranking.size
    counts = np.floor(np.arange(1, steps + 1) * fraction * n_tiles / steps + 1e-9).astype(int)
    # row 0 is the clean image; the rest each perturb a distinct count
    distinct, step_row = np.unique(np.append(0, counts), return_inverse=True)

    pos_of_tile = np.empty(n_tiles, dtype=np.int64)
    pos_of_tile[ranking] = np.arange(n_tiles)
    masks = pos_of_tile[None, :] < distinct[1:, None]                # (rows - 1, n_tiles)
    masks = masks.reshape(distinct.size - 1, h // region, w // region)
    masks = np.repeat(np.repeat(masks, region, axis=1), region, axis=2)

    probs = np.empty((distinct.size, params.spec.n_classes))
    probs[0] = predict_proba(params, x) if p_clean is None else p_clean
    target = int(probs[0].argmax())

    # The nested scorer rounds every conv column through OpenBLAS's
    # full-width kernel. The full forward does too, unless conv2's GEMM
    # has a column count that is 4 mod 8 (an odd row count on, say,
    # 28x28), whose tail columns OpenBLAS rounds by the GEMM's size;
    # those rows keep the full forward.
    if params.spec.arch == "cnn" and len(masks) and len(masks) * (h // 2) * (w // 2) % 8 == 0:
        score = _nested_scorer(params, x, masks)
    else:
        def score(fill):
            return predict_proba(params, np.where(masks[:, None, :, :], fill[None], x[None]))

    decays = np.zeros(steps)
    for _ in range(repeats):
        fill = rng.uniform(0.0, 1.0, size=x.shape)
        if len(masks):
            probs[1:] = score(fill)
        decays += probs[0, target] - probs[step_row[1:], target]
    return PerturbationCurve(order, steps, fraction, repeats, decays / repeats)


def aopc(curve: PerturbationCurve) -> float:
    """Arithmetic mean of the decay values."""
    return float(np.mean(curve.values))


@dataclass
class EvalProtocol:
    """Evaluation knobs mirroring the measurement procedure."""

    saliency: str = "vanilla"
    steps: int = 20
    fraction: float = 0.2
    repeats: int = 5
    region: int | None = None        # None -> 8 / 4 / 2 by input size
    smooth_samples: int = 25
    smooth_sigma: float = 0.1
    ig_steps: int = 32
    limit: int | None = None

    def __post_init__(self):
        if self.saliency not in SALIENCY_METHODS:
            raise ValueError(f"saliency must be one of {SALIENCY_METHODS}, got {self.saliency!r}")
        for name in ("steps", "repeats", "smooth_samples", "ig_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.region is not None and self.region < 1:
            raise ValueError(f"region must be >= 1, got {self.region}")
        if not 0 <= self.smooth_sigma < math.inf:
            raise ValueError(f"smooth_sigma must be finite and >= 0, got {self.smooth_sigma}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")

    def resolved_region(self, input_shape) -> int:
        if self.region is not None:
            return self.region
        _, h, w = input_shape
        m = min(h, w)
        return 8 if m >= 96 else 4 if m >= 32 else 2


PER_SAMPLE_METRICS = ("entropy", "size_kib", "gini", "aopc_lerf", "aopc_morf", "aopc_rel", "correct")


@dataclass
class MetricsReport:
    """Per-sample metric columns plus their aggregates.

    Aggregates are means of the per-sample values, except ``aopc_rel``
    which is the ratio of the aggregated AOPC values (per-sample ratios
    are kept in the columns).
    """

    per_sample: dict
    aggregates: dict
    protocol: dict
    seed: int
    n_samples: int
    curves: dict          # "lerf" / "morf" -> (n_samples, steps) decay values


def saliency_for_sample(params, x, protocol: EvalProtocol, rng_seed: int) -> tuple[np.ndarray, SaliencyMap]:
    """The model's class probabilities at ``x`` and the saliency map for
    their argmax class; returns (probs, map). The vanilla map's forward
    gives the probabilities too; the other methods predict them first."""
    if protocol.saliency == "vanilla":
        return predicted_vanilla(params, x)
    p_clean = predict_proba(params, x)
    target = int(p_clean.argmax())
    if protocol.saliency == "smoothgrad":
        rng = seeds.stream(rng_seed, seeds.SMOOTH)
        return p_clean, smooth_grad(params, x, target, protocol.smooth_samples, protocol.smooth_sigma, rng)
    return p_clean, integrated_gradients(params, x, target, np.zeros_like(x), protocol.ig_steps)


def evaluate_sample(params: ParamSet, x, protocol: EvalProtocol, seed: int, index: int):
    """One sample's predicted class, its saliency map for that class and
    its LeRF and MoRF curves, all from one prediction at ``x``; returns
    (class, map, lerf, morf). Randomness derives from (seed, index), so a
    sample's result does not depend on which other samples are evaluated
    with it."""
    region = protocol.resolved_region(params.spec.input_shape)
    p_clean, smap = saliency_for_sample(params, x, protocol, rng_seed=seed + index)

    def curve(order: str, tag: int) -> PerturbationCurve:
        return perturbation_curve(
            params, x, smap, order, protocol.steps, protocol.fraction, protocol.repeats, region,
            rng=seeds.stream(seed, seeds.EVAL, index, tag), p_clean=p_clean,
        )

    return int(p_clean.argmax()), smap, curve("lerf", 0), curve("morf", 1)


def _sample_row(params: ParamSet, x, label, protocol: EvalProtocol, seed: int, index: int):
    """One sample's report row and its LeRF and MoRF decay values."""
    pred, smap, lerf, morf = evaluate_sample(params, x, protocol, seed, index)
    a_l, a_m = aopc(lerf), aopc(morf)
    defined = smap.values.sum() > 0
    row = {
        "entropy": saliency_entropy(smap) if defined else float("nan"),
        "size_kib": compressed_size(smap),
        "gini": gini_index(smap) if defined else float("nan"),
        "aopc_lerf": a_l,
        "aopc_morf": a_m,
        "aopc_rel": a_m / a_l if a_l != 0 else float("nan"),
        "correct": float(pred == label),
    }
    return row, lerf.values, morf.values


def evaluate_model(params: ParamSet, dataset, protocol: EvalProtocol, seed: int = 0) -> MetricsReport:
    """Full metric sweep over a dataset split.

    Saliency is taken with respect to each sample's predicted class. An
    all-zero map has no entropy or Gini index; its row reads NaN there,
    and so do those aggregates.

    Samples run through ``_blas.per_sample``, one contiguous block per
    usable core with BLAS held to one thread per caller. Every row
    depends only on its sample, the seed and its index, so the report has
    the bits of a loop over the samples at one BLAS thread, whatever the
    thread counts.
    """
    images = np.asarray(dataset.images, dtype=np.float64)[: protocol.limit]
    n = images.shape[0]
    if n == 0:
        raise ValueError(f"evaluation split {dataset.split!r} is empty")
    _, h, w = params.spec.input_shape
    _check_region(protocol.resolved_region(params.spec.input_shape), h, w)

    rows, lerf, morf = zip(*_blas.per_sample(
        params, n, lambda i: _sample_row(params, images[i], dataset.labels[i], protocol, seed, i)))
    curves = {"lerf": np.array(lerf), "morf": np.array(morf)}

    per_sample = {k: np.array([r[k] for r in rows]) for k in PER_SAMPLE_METRICS}
    agg = {k: float(per_sample[k].mean()) for k in ("entropy", "size_kib", "gini", "aopc_lerf", "aopc_morf")}
    agg["accuracy"] = float(per_sample["correct"].mean())
    agg["aopc_rel"] = agg["aopc_morf"] / agg["aopc_lerf"] if agg["aopc_lerf"] != 0 else float("nan")
    return MetricsReport(
        per_sample=per_sample,
        aggregates=agg,
        protocol=asdict(protocol),
        seed=seed,
        n_samples=n,
        curves=curves,
    )
