"""Gradient-based saliency maps and low-saliency index selection.

Maps are per-pixel absolute input gradients (optionally noise-averaged
or path-integrated), reduced over channels by the per-channel maximum so
the map keeps the input's spatial resolution. Region averaging and the
bottom-quantile index selection drive the masked perturbation search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .autodiff import Tensor, mul, tsum
from .models import ParamSet, forward_eval
from .reports import atomic_write

# Sorted distinct flat pixel indices into an (H, W) map.
IndexSet = np.ndarray


@dataclass
class SaliencyMap:
    """Non-negative per-pixel attribution scores at input resolution."""

    values: np.ndarray  # (H, W), every entry >= 0
    method: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"saliency map must be 2-D, got shape {self.values.shape}")
        if np.any(self.values < 0):
            raise ValueError("saliency map values must be non-negative")


def _channel_reduce(grads: np.ndarray) -> np.ndarray:
    """(C,H,W) or (N,C,H,W) gradients -> per-pixel max of channel |g|."""
    return np.abs(grads).max(axis=-3)


def _input_grads_scores(params: ParamSet, x: np.ndarray, ys: np.ndarray):
    """d score_{y_i} / d x_i for every sample of a batch in one backward
    sweep, and the scores from the same forward.

    Samples do not interact in the forward pass, so the gradient of the
    summed per-sample target scores separates exactly per sample.
    """
    ys = np.atleast_1d(np.asarray(ys))
    n_classes = params.spec.n_classes
    bad = ys[(ys < 0) | (ys >= n_classes)]
    if bad.size:
        raise ValueError(f"class index {bad[0]} out of range for {n_classes} classes")
    xt = Tensor(x, requires_grad=True)
    scores = forward_eval(params.frozen(), xt)
    onehot = np.zeros(scores.shape)
    onehot[np.arange(len(onehot)), ys] = 1.0
    tsum(mul(scores, Tensor(onehot))).backward()
    return xt.grad, scores.data


def vanilla_gsmap(params: ParamSet, x: np.ndarray, y: int) -> SaliencyMap:
    """Absolute gradient of the class-y score wrt each input pixel."""
    g = _input_grads_scores(params, np.asarray(x)[None], np.array([int(y)]))[0][0]
    return SaliencyMap(_channel_reduce(g), method="vanilla")


def batch_gsmap_scores(params: ParamSet, x: np.ndarray, ys: np.ndarray):
    """Batch vanilla maps, (N, H, W), plus the clean scores from the
    same forward."""
    grads, scores = _input_grads_scores(params, x, ys)
    return _channel_reduce(grads), scores


def smooth_grad(
    params: ParamSet,
    x: np.ndarray,
    y: int,
    n_samples: int,
    sigma: float,
    rng: np.random.Generator | int | None = None,
) -> SaliencyMap:
    """Mean vanilla map over Gaussian-noised copies of the input."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = seeds.as_generator(rng, seeds.SMOOTH)
    x = np.asarray(x, dtype=np.float64)
    noisy = x[None] + sigma * rng.standard_normal((n_samples, *x.shape))
    maps = _channel_reduce(_input_grads_scores(params, noisy, np.full(n_samples, int(y)))[0])
    return SaliencyMap(maps.mean(axis=0), method="smoothgrad")


def integrated_gradients(
    params: ParamSet,
    x: np.ndarray,
    y: int,
    baseline: np.ndarray,
    steps: int,
    return_signed: bool = False,
):
    """Midpoint-rule path integral of gradients from baseline to input.

    The map is the channel-reduced absolute attribution. With
    ``return_signed`` the raw (C,H,W) signed attributions come along,
    whose total approximates the score difference between input and
    baseline.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.asarray(x, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != x.shape:
        raise ValueError(f"baseline shape {baseline.shape} != input shape {x.shape}")
    alphas = (np.arange(steps) + 0.5) / steps
    # the path is (steps, *x.shape), so forward_eval rejects an input of
    # the wrong shape as the other methods do
    path = baseline + alphas.reshape(-1, *(1,) * x.ndim) * (x - baseline)
    grads = _input_grads_scores(params, path, np.full(steps, int(y)))[0]
    signed = (x - baseline) * grads.mean(axis=0)
    smap = SaliencyMap(_channel_reduce(signed[None])[0], method="integrated")
    return (smap, signed) if return_signed else smap


def region_mean(values: np.ndarray, r: int) -> np.ndarray:
    """Replace each r x r block of the last two axes by its mean; the
    shape is kept, so any leading batch axes pass through."""
    *lead, h, w = values.shape
    if r < 1 or h % r or w % r:
        raise ValueError(f"region side {r} must divide map shape {(h, w)}")
    blocks = values.reshape(*lead, h // r, r, w // r, r).mean(axis=(-3, -1))
    return np.repeat(np.repeat(blocks, r, axis=-2), r, axis=-1)


def quantile_thresholds(flat: np.ndarray, q) -> np.ndarray:
    """Per row of (N, S) values: the ascending-sort element at position
    floor(q_i * S), or +inf when that position is past the end."""
    n, s = flat.shape
    q = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,))
    if s == 0:
        raise ValueError("quantile of an empty collection")
    bad = q[~((q >= 0.0) & (q <= 1.0))]  # NaN fails both
    if bad.size:
        raise ValueError(f"quantile fraction must be in [0, 1], got {bad[0]}")
    pos = np.floor(q * s).astype(np.int64)
    picked = np.sort(flat, axis=1)[np.arange(n), np.minimum(pos, s - 1)]
    return np.where(pos < s, picked, np.inf)


def lowest_masks(maps: np.ndarray, q) -> np.ndarray:
    """Boolean (N, S) masks of each map's pixels strictly below its
    bottom-q_i quantile value, over the flattened (N, ...) maps."""
    flat = maps.reshape(maps.shape[0], -1)
    return flat < quantile_thresholds(flat, q)[:, None]


def region_average(smap: SaliencyMap, r: int) -> SaliencyMap:
    """Replace each r x r block by its mean; output keeps the resolution."""
    return SaliencyMap(region_mean(smap.values, r), method=smap.method)


def lowest(smap: SaliencyMap, q: float) -> IndexSet:
    """Flat indices of pixels strictly below the bottom-q quantile value."""
    return np.flatnonzero(lowest_masks(smap.values[None], q)[0]).astype(np.int64)


# -- export ---------------------------------------------------------------


def to_u8(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to 8-bit grayscale; constant maps become zeros."""
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        return np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return np.zeros_like(values, dtype=np.uint8)


def save_pgm(smap: SaliencyMap, path) -> None:
    """Binary 8-bit PGM of the map, written atomically."""
    u8 = to_u8(smap.values)
    h, w = u8.shape
    atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + u8.tobytes())


def save_csv(smap: SaliencyMap, path) -> None:
    """One CSV row per map row, values as Python reprs, written atomically."""
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in smap.values)
    atomic_write(path, text.encode("ascii"))
