"""Training loops: plain cross-entropy and the saliency-constrained
adaptive adversarial scheme.

Per batch in the adversarial modes: build each sample's region-averaged
gradient saliency map, select its bottom-q_i pixel set, search for the
masked perturbation that maximizes output JS divergence, then take one
SGD step on mean(CE + lambda * JS), its gradient flowing through both
softmaxes. The JS term's adversarial branch is swept first, on the
softmax graph the search returns at the chosen perturbation and against
the clean softmax's bits; only then does the loss build its clean
forward, so one trainable graph is alive at a time and no adversarial
forward is repeated. Nothing a sweep does not read is held across it:
the saliency maps go once the masks exist, the search's perturbation is
not kept, and the batch goes once the loss has built its graph. The
per-sample perturbation proportion q_i moves by +/-gamma depending on
whether the perturbed sample kept its label, frozen during warm-up and
clamped to bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .adversarial import AdvConfig, js_bits, perturb_batch
from .autodiff import Tensor, cross_entropy_rows, mul, softmax, softmax_np, tmean
from .models import ModelSpec, ParamSet, forward_eval, init_model
from .saliency import batch_gsmap_scores, lowest_masks, region_mean

MODES = ("regular", "scaat_fixed_q", "scaat_adaptive_q")


class TrainingDiverged(RuntimeError):
    pass


def _check_q_policy(q0: float, q_min: float, q_max: float, gamma: float) -> None:
    """Reject proportion bounds out of order or a step that is not finite and positive."""
    if not 0.0 <= q_min <= q0 <= q_max <= 1.0:
        raise ValueError(f"need 0 <= q_min <= q0 <= q_max <= 1, got ({q_min}, {q0}, {q_max})")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")


@dataclass
class QState:
    """Per-sample perturbation proportions with their update policy."""

    q: np.ndarray
    q0: float
    q_min: float
    q_max: float
    gamma: float
    warmup_iters: int

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        _check_q_policy(self.q0, self.q_min, self.q_max, self.gamma)
        self.check_bounds()

    def check_bounds(self):
        if self.q.size and (self.q.min() < self.q_min or self.q.max() > self.q_max):
            raise AssertionError("q left its configured bounds")


def update_q(q_i: float, iteration: int, adv_correct: bool, qstate: QState) -> float:
    """One proportion update: frozen in warm-up, +/-gamma after, clamped."""
    if iteration <= qstate.warmup_iters:
        new = q_i
    elif adv_correct:
        new = q_i + qstate.gamma
    else:
        new = q_i - qstate.gamma
    return float(min(max(new, qstate.q_min), qstate.q_max))


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the data and model."""

    mode: str = "scaat_adaptive_q"
    lam: float = 1.0          # weight of the divergence term
    batch_size: int = 64
    n_iter: int = 500
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    adv: AdvConfig = field(default_factory=AdvConfig)
    q0: float = 0.5
    gamma: float = 0.05
    q_min: float = 0.1
    q_max: float = 0.9
    warmup_iters: int | None = None   # None -> 10% of n_iter
    train_region: int | None = None   # None -> 4, or 2 below 32x32 inputs

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda weight must be finite and >= 0, got {self.lam}")
        if self.n_iter < 1 or self.batch_size < 1:
            raise ValueError("n_iter and batch_size must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        _check_q_policy(self.q0, self.q_min, self.q_max, self.gamma)
        if self.warmup_iters is not None and self.warmup_iters < 0:
            raise ValueError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if self.train_region is not None and self.train_region < 1:
            raise ValueError(f"train_region must be >= 1, got {self.train_region}")

    def resolved_warmup(self) -> int:
        return self.warmup_iters if self.warmup_iters is not None else int(round(0.1 * self.n_iter))

    def resolved_region(self, input_shape) -> int:
        if self.train_region is not None:
            return self.train_region
        _, h, w = input_shape
        return 4 if min(h, w) >= 32 else 2


@dataclass
class TrainResult:
    params: ParamSet
    qstate: QState
    log: list


def _batch_loss(params, x, probs_adv, labels, lam):
    """Batched loss graph against the adversarial softmax ``probs_adv``,
    a graph or a constant (None: CE only); returns (loss, ce values,
    clean scores)."""
    scores = forward_eval(params, x)
    probs = softmax(scores)
    ce_vec = cross_entropy_rows(probs, labels)
    if probs_adv is None or lam == 0.0:
        return tmean(ce_vec), ce_vec.data.copy(), scores.data
    js_vec = js_bits(probs_adv, probs)
    loss = tmean(ce_vec + mul(js_vec, Tensor(float(lam))))
    return loss, ce_vec.data.copy(), scores.data


def _sweep_adv_branch(probs_adv: Tensor, p_clean: np.ndarray, lam: float) -> Tensor:
    """Sweep the loss's lam * JS term through the adversarial softmax
    graph alone, against ``p_clean``, the bits of the loss's clean
    softmax, and return that softmax as a constant for the loss.

    The sweep dismantles the graph before the loss builds its clean one.
    Each parameter gets the contribution a joint sweep of both graphs
    would give it; the clean sweep adds the other, and a sum of two
    terms does not depend on their order.
    """
    if lam != 0.0:
        tmean(mul(js_bits(probs_adv, Tensor(p_clean)), Tensor(float(lam)))).backward()
    return Tensor(probs_adv.data)


def _batches(n: int, batch_size: int, n_iter: int, rng: np.random.Generator):
    """Deterministic epoch shuffling; the last short chunk is kept."""
    produced = 0
    while produced < n_iter:
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield perm[lo : lo + batch_size]
            produced += 1
            if produced >= n_iter:
                return


def scaat_train(dataset, spec: ModelSpec, cfg: TrainConfig) -> TrainResult:
    """Run one training arm; deterministic given config and spec seeds.

    Emits one log record per iteration with the loss terms, the global
    mean perturbation proportion and the batch accuracy.
    """
    images = np.asarray(dataset.images, dtype=np.float64)
    labels = np.asarray(dataset.labels)
    n = images.shape[0]
    if n == 0:
        raise ValueError("training dataset is empty")

    params = init_model(spec)
    qstate = QState(
        q=np.full(n, cfg.q0),
        q0=cfg.q0,
        q_min=cfg.q_min,
        q_max=cfg.q_max,
        gamma=cfg.gamma,
        warmup_iters=cfg.resolved_warmup(),
    )
    region = cfg.resolved_region(spec.input_shape)
    adversarial_mode = cfg.mode != "regular"
    adaptive = cfg.mode == "scaat_adaptive_q"

    rng_data = seeds.stream(cfg.seed, seeds.DATA)
    rng_pgd = seeds.stream(cfg.seed, seeds.PGD)
    velocity = {name: np.zeros_like(t.data) for name, t in params.items()}
    log: list[dict] = []

    for iteration, idx in enumerate(_batches(n, cfg.batch_size, cfg.n_iter, rng_data), start=1):
        x = images[idx]
        y = labels[idx]

        probs_adv = None
        if adversarial_mode:
            maps, clean_scores = batch_gsmap_scores(params, x, y)
            p_clean = softmax_np(clean_scores, axis=-1)
            if not np.isfinite(p_clean).all():
                # the loss's clean softmax has these bits, so its loss is NaN
                raise TrainingDiverged(f"non-finite loss at iteration {iteration}")
            masks = lowest_masks(region_mean(maps, region), qstate.q[idx])
            del maps
            adv_objective, probs_adv = perturb_batch(
                params, x, cfg.adv, masks, rng_pgd, p_clean=p_clean
            )[1:]
            if adaptive:
                adv_correct = probs_adv.data.argmax(axis=1) == y
                for j, sample in enumerate(idx):
                    qstate.q[sample] = update_q(
                        qstate.q[sample], iteration, bool(adv_correct[j]), qstate
                    )
                qstate.check_bounds()
            probs_adv = _sweep_adv_branch(probs_adv, p_clean, cfg.lam)

        loss, ce_vals, score_vals = _batch_loss(params, x, probs_adv, y, cfg.lam)
        del x  # no backward reads the batch
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at iteration {iteration}")
        loss.backward()

        lr_t = 0.5 * cfg.lr * (1.0 + math.cos(math.pi * (iteration - 1) / cfg.n_iter))
        for name, p in params.items():
            g = p.grad if p.grad is not None else 0.0
            velocity[name] = cfg.momentum * velocity[name] + g
            p.data -= lr_t * velocity[name]
            p.grad = None

        log.append(
            {
                "iter": iteration,
                "L_cls": float(ce_vals.mean()),
                # The search objective is the loss's JS term: the same
                # adversarial softmax against the same clean bits.
                "L_adv": float(adv_objective.mean()) if adversarial_mode else 0.0,
                "mean_q": float(qstate.q.mean()),
                "batch_acc": float((score_vals.argmax(axis=1) == y).mean()),
            }
        )

    return TrainResult(params=params, qstate=qstate, log=log)
