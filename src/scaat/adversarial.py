"""Masked adversarial perturbation search and output divergences.

The search maximizes the Jensen-Shannon divergence (in bits, symmetrized
KL per the printed definition) between the model's output distribution
on the perturbed and the clean input, subject to three exact
constraints: an L-infinity budget, zero perturbation outside a given
low-saliency pixel set, and valid pixel range after addition.

Both the iterated (pgd) and single-step (fgsm) variants start from a
uniform random point inside the masked budget box, mirrored to whichever
sign scores better; the divergence objective has an exactly zero
gradient at the clean input, so a deterministic zero start would never
move, and plain ascent cannot cross the valley between the two signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds
from .autodiff import Tensor, mul, softmax, tlog, tsum
from .models import ParamSet, forward_eval, predict_proba
from .saliency import IndexSet

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class AdvConfig:
    """Search hyperparameters: budget, step count, step size, variant."""

    epsilon: float = 8.0 / 255.0
    k: int = 4
    alpha: float | None = None  # None resolves to epsilon / 2
    variant: str = "pgd"

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.alpha is not None and not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.variant not in ("pgd", "fgsm"):
            raise ValueError(f"variant must be 'pgd' or 'fgsm', got {self.variant!r}")

    @property
    def step_size(self) -> float:
        return self.alpha if self.alpha is not None else self.epsilon / 2.0


@dataclass
class Perturbation:
    """A found perturbation plus the objective it achieved."""

    delta: np.ndarray        # same shape as the input, exactly 0 off-mask
    mask: IndexSet           # flat pixel indices that were perturbable
    objective: float         # JS divergence (bits) at x + delta
    adv_proba: np.ndarray    # output distribution at x + delta


# -- divergences ------------------------------------------------------------


def _checked_rows(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Same-shape float arrays whose last axis holds distributions:
    finite, non-negative entries, each row summing to 1 within 1e-6."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"distribution length mismatch: {p.shape} vs {q.shape}")
    for arr, name in ((p, "P"), (q, "Q")):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")
        if arr.min() < 0:
            raise ValueError(f"{name} has negative entries")
        sums = np.ravel(arr.sum(axis=-1))
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
        if bad.size:
            raise ValueError(f"{name} sums to {float(sums[bad[0]])!r}, expected 1 within 1e-6")
    return p, q


def _kl_nats(p: Tensor, lp: Tensor, lq: Tensor) -> Tensor:
    """Row-wise KL(P || Q) in nats, given P and both floored logs."""
    return tsum(mul(p, lp - lq), axis=-1)


def js_bits(p: Tensor, q: Tensor) -> Tensor:
    """Row-wise JS divergence in bits between two graph branches.

    Gradients flow into both; pass ``Tensor(q)`` for a constant
    reference distribution.
    """
    lp = tlog(p)
    lq = tlog(q)
    return mul(_kl_nats(p, lp, lq) + _kl_nats(q, lq, lp), Tensor(0.5 / _LN2))


def kl_div(p, q) -> float:
    """KL divergence in bits, log arguments floored at 1e-12."""
    p, q = (Tensor(a) for a in _checked_rows(p, q))
    return float(_kl_nats(p, tlog(p), tlog(q)).data / _LN2)


def js_bits_np(p, q) -> np.ndarray:
    """Row-wise JS divergence of (..., C) distribution arrays, in bits."""
    return js_bits(*(Tensor(a) for a in _checked_rows(p, q))).data


# -- masked search -----------------------------------------------------------


def _project(delta, eps, mask_pix, lo, hi):
    """Exact feasibility: budget clip, off-mask zeroing, range clip.

    The range constraint is applied as bounds on delta itself, ``lo =
    -x`` and ``hi = 1.0 - x`` for the input x; the add-then-subtract form
    can round a boundary delta one ulp past the budget, and these
    constraints are contractually exact.
    """
    delta = np.clip(delta, -eps, eps)
    delta = delta * mask_pix
    return np.clip(delta, lo, hi)


def _objective(params, x_adv, p_clean, grad=False):
    """Row-wise JS (bits) between the model's outputs at ``x_adv`` and
    ``p_clean``; returns (js, d sum(js) / d x_adv or None, the adv
    softmax ``Tensor``, with a graph into ``params`` unless frozen)."""
    xt = Tensor(x_adv, requires_grad=grad)
    probs = softmax(forward_eval(params, xt))
    js_vec = js_bits(probs, Tensor(p_clean))
    if grad:
        tsum(js_vec).backward()
    return js_vec.data, xt.grad, probs


def perturb_batch(
    params: ParamSet,
    x: np.ndarray,
    cfg: AdvConfig,
    masks: np.ndarray,
    rng: np.random.Generator,
    p_clean: np.ndarray,
):
    """Run the masked search for a whole batch.

    ``masks`` is a boolean (N, H*W) array of perturbable pixels, and
    ``p_clean`` the (N, n_classes) reference distributions. FGSM is
    the one-step case of the PGD loop: its step of size epsilon uses the
    gradient at the random start but is taken from the clean input.
    Returns (delta, objective, adv_proba) stacked over samples, each
    sample's best iterate by objective, the first of equal ones (a NaN
    objective counts as the largest, as in ``argmax``); ``adv_proba`` is
    the softmax ``Tensor`` at ``x + delta`` with its graph into the live
    ``params``, so a training loss can reuse it instead of running that
    forward again. Only the current iterate and the running best are
    held, not a stack of all k.
    """
    frozen = params.frozen()
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    mask_pix = masks.reshape(n, 1, h, w)
    eps = cfg.epsilon
    # shape and simplex rows, checked against a uniform reference
    p_clean, _ = _checked_rows(p_clean, np.full((n, params.spec.n_classes), 1.0 / params.spec.n_classes))

    # Uniform random start, but pick the better of the two mirrored signs
    # per sample: the objective is locally U-shaped around the clean
    # input, and plain ascent cannot cross back over that valley.
    bounds = -x, 1.0 - x   # the range bounds of every projection
    draw = rng.uniform(-eps, eps, size=x.shape) * mask_pix
    d_plus = _project(draw, eps, mask_pix, *bounds)
    d_minus = _project(-draw, eps, mask_pix, *bounds)
    del draw
    j_plus = _objective(frozen, x + d_plus, p_clean)[0]
    j_minus = _objective(frozen, x + d_minus, p_clean)[0]
    delta = np.where((j_plus >= j_minus)[:, None, None, None], d_plus, d_minus)
    del d_plus, d_minus

    fgsm = cfg.variant == "fgsm"
    steps, alpha = (1, eps) if fgsm else (cfg.k, cfg.step_size)
    best_delta = best_obj = None  # the running best over the iterates so far
    for t in range(steps):
        # scores the previous step's iterate (at t = 0, the start)
        obj, grad, _ = _objective(frozen, x + delta, p_clean, grad=True)
        if t == 1:
            best_delta, best_obj = delta, obj
        elif t > 1:
            _keep_better(best_delta, best_obj, delta, obj)
        step = alpha * np.sign(grad)
        del grad
        delta = _project(step if fgsm else delta + step, eps, mask_pix, *bounds)
        del step
    del bounds  # freed before the trainable forward, the search's peak
    obj, _, probs = _objective(params, x + delta, p_clean)

    if best_delta is not None and not _keep_better(best_delta, best_obj, delta, obj).all():
        delta, obj = best_delta, best_obj
        del probs  # free the last iterate's graph before building its replacement
        probs = _objective(params, x + delta, p_clean)[2]  # the graph at the returned delta
    return delta, obj, probs


def _keep_better(best_delta, best_obj, delta, obj) -> np.ndarray:
    """Fold a later iterate (delta, obj) into the search's running best,
    in place, by ``argmax``'s rule over the iterates in order: a row takes
    the later iterate only if its objective is larger, or is NaN where the
    best is not, so ties and later NaNs keep the earlier iterate. Returns
    the rows it took."""
    better = (obj > best_obj) | (np.isnan(obj) & ~np.isnan(best_obj))
    np.copyto(best_delta, delta, where=better[:, None, None, None])
    np.copyto(best_obj, obj, where=better)
    return better


def _single(params, x, y, cfg, mask, rng, expected_variant) -> Perturbation:
    if cfg.variant != expected_variant:
        raise ValueError(f"config variant {cfg.variant!r} does not match {expected_variant!r} search")
    if not 0 <= int(y) < params.spec.n_classes:
        raise ValueError(f"class index {y} out of range for {params.spec.n_classes} classes")
    rng = seeds.as_generator(rng, seeds.PGD)
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.int64)
    n_pixels = x.shape[-2] * x.shape[-1]
    if mask.size and (mask.min() < 0 or mask.max() >= n_pixels):
        raise ValueError(f"mask indices out of range [0, {n_pixels})")
    mask_flat = np.zeros((1, n_pixels), dtype=bool)
    mask_flat[0, mask] = True
    delta, obj, probs = perturb_batch(params, x[None], cfg, mask_flat, rng, predict_proba(params, x[None]))
    return Perturbation(delta=delta[0], mask=mask, objective=float(obj[0]), adv_proba=probs.data[0])


def pgd_masked(params: ParamSet, x, y: int, cfg: AdvConfig, mask, rng=None) -> Perturbation:
    """Best-of-k projected ascent on the masked JS objective.

    The class label is accepted for signature parity with the training
    loop but the objective depends only on the output distributions.
    """
    return _single(params, x, y, cfg, mask, rng, "pgd")


def fgsm_masked(params: ParamSet, x, y: int, cfg: AdvConfig, mask, rng=None) -> Perturbation:
    """One signed-gradient step of magnitude epsilon on masked pixels."""
    return _single(params, x, y, cfg, mask, rng, "fgsm")
