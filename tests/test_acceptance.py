"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy experiment arms cache within the session. The real-data
directional comparison needs the CIFAR-10 binary batches on disk (see
``_cifar_dir``); without them that criterion is skipped and the
synthetic directional analogue carries the evidence.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from scaat.adversarial import AdvConfig, fgsm_masked, js_bits_np, kl_div, pgd_masked
from scaat.autodiff import (
    Tensor,
    backward_grad,
    conv2d,
    matmul,
    max_pool2d,
    mul,
    relu,
    reshape,
    softmax,
    tlog,
    tmean,
    tsum,
)
from scaat.cli import run_cli
from scaat.config import DataConfig, RunConfig, save_run_config
from scaat.data import generate_half_informative, load_cifar_binary
from scaat.metrics import (
    EvalProtocol,
    evaluate_model,
    gini_index,
    perturbation_curve,
    saliency_entropy,
)
from scaat.models import ModelSpec, init_model, predict_proba
from scaat.saliency import SaliencyMap
from scaat.training import QState, TrainConfig, scaat_train, update_q
from conftest import fd_grad, linear_model


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


# -- criterion 1: gradient correctness ---------------------------------------


def _gradcheck(op, make_input, rng, trials=100, rtol=1e-3):
    worst = 0.0
    for _ in range(trials):
        x = make_input(rng)
        probe = rng.standard_normal(op(Tensor(x)).data.shape)

        def loss_np(arr):
            return float((op(Tensor(arr)).data * probe).sum())

        xt = Tensor(x, requires_grad=True)
        (g,) = backward_grad(tsum(mul(op(xt), Tensor(probe))), [xt])
        fd = fd_grad(loss_np, x, h=1e-4)
        np.testing.assert_allclose(g, fd, rtol=rtol, atol=1e-8)
        denom = np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    return worst


def test_criterion_1_gradient_correctness(rng):
    t0 = time.time()
    other = rng.standard_normal((3, 4))
    wc = rng.standard_normal((3, 2, 3, 3))
    mm = rng.standard_normal((5, 3))
    xc = rng.standard_normal((1, 2, 5, 5))
    checks = {
        "add": (lambda t: t + Tensor(other), lambda r: r.standard_normal((3, 4))),
        "mul": (lambda t: mul(t, Tensor(other)), lambda r: r.standard_normal((3, 4))),
        "matmul": (lambda t: matmul(t, Tensor(mm)), lambda r: r.standard_normal((4, 5))),
        "conv2d": (lambda t: conv2d(t, Tensor(wc), padding=1), lambda r: r.standard_normal((1, 2, 5, 5))),
        "conv2d_w": (lambda t: conv2d(Tensor(xc), t, padding=1),
                     lambda r: r.standard_normal((3, 2, 3, 3))),
        "relu": (relu, lambda r: np.where(np.abs(z := r.standard_normal((4, 4))) < 0.05, 0.2, z)),
        "max_pool": (lambda t: max_pool2d(t, 2), lambda r: r.standard_normal((1, 2, 4, 4))),
        "reshape": (lambda t: reshape(t, (8, 2)), lambda r: r.standard_normal((4, 4))),
        "mean": (lambda t: tmean(t, axis=1), lambda r: r.standard_normal((3, 5))),
        "sum": (lambda t: tsum(t, axis=0), lambda r: r.standard_normal((3, 5))),
        "softmax": (softmax, lambda r: r.standard_normal((3, 6))),
        "log": (tlog, lambda r: r.uniform(0.05, 3.0, (4, 4))),
    }
    worst = {}
    for name, (op, make) in checks.items():
        worst[name] = _gradcheck(op, make, rng, trials=100)
    elapsed = time.time() - t0
    detail = (
        f"100 finite-difference checks x {len(checks)} primitives at rtol 1e-3, "
        f"worst rel err {max(worst.values()):.2e}, {elapsed:.1f}s"
    )
    report("criterion 1", elapsed < 60.0, detail)


# -- criterion 2: divergence suite --------------------------------------------

KL_ORACLE_HALF_QUARTER = 0.2075187496394219  # 1 - log2(3)/2, exact evaluation
KL_ORACLE_ONE_BIT = 1.0


def test_criterion_2_divergences(rng):
    n = 10_000
    p = rng.exponential(size=(n, 6))
    p /= p.sum(axis=1, keepdims=True)
    q = rng.exponential(size=(n, 6))
    q /= q.sum(axis=1, keepdims=True)

    kl_pq = (p * (np.log(np.maximum(p, 1e-12)) - np.log(np.maximum(q, 1e-12)))).sum(1) / math.log(2)
    js = js_bits_np(p, q)
    js_swapped = js_bits_np(q, p)
    self_kl = np.array([kl_div(row, row) for row in p[:200]])

    err1 = abs(kl_div([0.5, 0.5], [0.25, 0.75]) - KL_ORACLE_HALF_QUARTER)
    err2 = abs(kl_div([1.0, 0.0], [0.5, 0.5]) - KL_ORACLE_ONE_BIT)

    ok = (
        bool(np.all(kl_pq >= 0))
        and bool(np.all(js >= 0))
        and bool(np.allclose(js, js_swapped, rtol=1e-10))
        and bool(np.all(self_kl == 0.0))
        and err1 < 1e-6
        and err2 < 1e-6
    )
    report(
        "criterion 2",
        ok,
        f"10^4 simplex pairs: KL>=0, JS>=0, JS symmetric, KL(P||P)=0; "
        f"derived-value errors {err1:.2e}, {err2:.2e} (tol 1e-6)",
    )


# -- criterion 3: constraint exactness ----------------------------------------


def test_criterion_3_constraint_exactness(rng):
    violations = 0
    t0 = time.time()
    for trial in range(1000):
        variant = "pgd" if trial % 2 == 0 else "fgsm"
        spec = ModelSpec("mlp", (1, 2, 3), 3, hidden=(5,), seed=trial % 7)
        params = init_model(spec)
        x = rng.uniform(0, 1, (1, 2, 3))
        eps = float(rng.choice([2 / 255, 4 / 255, 8 / 255, 0.1]))
        mask = np.flatnonzero(rng.uniform(size=6) < rng.uniform(0.2, 0.9))
        cfg = AdvConfig(epsilon=eps, k=2, variant=variant)
        fn = pgd_masked if variant == "pgd" else fgsm_masked
        pert = fn(params, x, 0, cfg, mask, rng=trial)
        flat = pert.delta.reshape(-1)
        off = np.setdiff1d(np.arange(6), mask)
        if np.abs(pert.delta).max() > eps:
            violations += 1
        elif np.any(flat[off] != 0.0):
            violations += 1
        elif np.any((x + pert.delta < 0) | (x + pert.delta > 1)):
            violations += 1
    report(
        "criterion 3",
        violations == 0,
        f"1000 randomized masked searches: {violations} violations of "
        f"budget/off-mask/range exactness ({time.time()-t0:.1f}s)",
    )


# -- criterion 4: PGD against the brute-force grid oracle ---------------------


def _grid_oracle(params, x, mask_idx, eps, grid=0.01):
    flat = x.reshape(1, -1)
    cands = np.arange(-eps, eps + grid / 2, grid)
    batch = np.repeat(flat, len(cands), axis=0)
    batch[:, mask_idx] = np.clip(batch[:, mask_idx] + cands, 0.0, 1.0)
    probs = predict_proba(params, batch.reshape(len(cands), *x.shape))
    p_clean = predict_proba(params, x)
    return float(js_bits_np(probs, np.broadcast_to(p_clean, probs.shape)).max())


def test_criterion_4_pgd_grid_oracle(rng):
    t0 = time.time()
    ok = 0
    cases = 200
    for case in range(cases):
        w = rng.normal(0, 1.0, (2, 2))
        params = linear_model(w, b=rng.normal(0, 1.0, 2))
        x = rng.uniform(0.35, 0.65, (1, 1, 2))
        mask_idx = int(rng.integers(2))
        eps = 0.3
        oracle = _grid_oracle(params, x, mask_idx, eps)
        pert = pgd_masked(params, x, 0, AdvConfig(epsilon=eps, k=4), np.array([mask_idx]), rng=case)
        if pert.objective >= 0.95 * oracle:
            ok += 1
    elapsed = time.time() - t0
    report(
        "criterion 4",
        ok >= 0.95 * cases and elapsed < 120.0,
        f"{ok}/{cases} searches within 5% of the exhaustive grid maximum ({elapsed:.1f}s)",
    )


# -- criterion 5: the q update state machine ----------------------------------


def test_criterion_5_q_state_machine():
    qs = QState(np.array([0.5]), q0=0.5, q_min=0.1, q_max=0.9, gamma=0.05, warmup_iters=10)
    ex1 = update_q(0.5, 10, True, qs) == 0.5 and update_q(0.5, 3, False, qs) == 0.5
    ex2 = abs(update_q(0.5, 11, True, qs) - 0.55) < 1e-12
    ex3 = update_q(0.1, 11, False, qs) == 0.1
    clamp_hi = update_q(0.9, 11, True, qs) == 0.9

    data = generate_half_informative(n=96, size=8, classes=2, seed=3)
    cfg = TrainConfig(
        mode="scaat_adaptive_q", batch_size=24, n_iter=40, lr=0.05, seed=1,
        adv=AdvConfig(epsilon=0.15, k=2), warmup_iters=4,
    )
    result = scaat_train(data, ModelSpec("mlp", (1, 8, 8), 2, hidden=(12,), seed=1), cfg)
    q = result.qstate.q
    bounds_ok = bool(np.all((q >= cfg.q_min) & (q <= cfg.q_max)))
    steps = (q - cfg.q0) / cfg.gamma
    quantized = bool(np.allclose(steps, np.round(steps), atol=1e-9))
    moved = bool(np.any(q != cfg.q0))

    frozen_run = scaat_train(
        data, ModelSpec("mlp", (1, 8, 8), 2, hidden=(12,), seed=1),
        TrainConfig(mode="scaat_adaptive_q", batch_size=24, n_iter=8, lr=0.05, seed=1,
                    adv=AdvConfig(epsilon=0.15, k=2), warmup_iters=8),
    )
    warmup_frozen = bool(np.all(frozen_run.qstate.q == cfg.q0))

    ok = ex1 and ex2 and ex3 and clamp_hi and bounds_ok and quantized and moved and warmup_frozen
    report(
        "criterion 5",
        ok,
        "warm-up freeze, +gamma/-gamma updates, clamping verbatim; "
        f"bounds and gamma-grid quantization over a training run (q moved: {moved})",
    )


# -- criterion 6: adaptive q separates irrelevance groups ---------------------


@pytest.mark.slow
def test_criterion_6_adaptive_q_separation():
    t0 = time.time()
    gaps = []
    for seed in range(5):
        data = generate_half_informative(
            n=1500, size=16, classes=2, ratios=(0.25, 0.75), amp=0.2, noise=0.1, seed=seed
        )
        spec = ModelSpec("cnn", (1, 16, 16), 2, channels=(6, 12), seed=seed)
        cfg = TrainConfig(
            mode="scaat_adaptive_q", lam=3.0, batch_size=64, n_iter=600, lr=0.05,
            seed=seed, adv=AdvConfig(epsilon=0.3, k=4), warmup_iters=60, q_max=1.0,
        )
        result = scaat_train(data, spec, cfg)
        ratios = data.meta["irrelevant_ratio"]
        q = result.qstate.q
        gaps.append(float(q[ratios == 0.75].mean() - q[ratios == 0.25].mean()))
    elapsed = time.time() - t0
    hits = sum(g >= 0.05 for g in gaps)
    report(
        "criterion 6",
        hits >= 4 and elapsed < 600.0,
        f"mean-q gap (high-irrelevance minus low) per seed: "
        f"{['%+.3f' % g for g in gaps]}, {hits}/5 seeds >= 0.05 ({elapsed:.0f}s)",
    )


# -- criterion 7: directional comparison, regular vs adaptive -----------------


def _train_and_eval(dataset_train, dataset_test, spec, train_cfg, protocol, seed):
    result = scaat_train(dataset_train, spec, train_cfg)
    rep = evaluate_model(result.params, dataset_test, protocol, seed=seed)
    return result, rep


def _directional_checks(reg, adv):
    checks = {
        "entropy drop >= 0.2 bits": reg["entropy"] - adv["entropy"] >= 0.2,
        "aopc_lerf down >= 2x": adv["aopc_lerf"] <= reg["aopc_lerf"] / 2.0,
        "aopc_rel up >= 2x": adv["aopc_rel"] >= 2.0 * reg["aopc_rel"],
        "gini up >= 0.03": adv["gini"] - reg["gini"] >= 0.03,
        "accuracy within 2 points": abs(adv["accuracy"] - reg["accuracy"]) <= 0.02,
    }
    detail = (
        f"entropy {reg['entropy']:.3f}->{adv['entropy']:.3f}, "
        f"aopc_lerf {reg['aopc_lerf']:.2e}->{adv['aopc_lerf']:.2e}, "
        f"aopc_rel {reg['aopc_rel']:.1f}->{adv['aopc_rel']:.1f}, "
        f"gini {reg['gini']:.3f}->{adv['gini']:.3f}, "
        f"acc {reg['accuracy']:.3f}->{adv['accuracy']:.3f}"
    )
    return checks, detail


def _cifar_dir():
    cand = os.environ.get("SCAAT_CIFAR_DIR", "data/cifar-10-batches-bin")
    path = Path(cand)
    if (path / "data_batch_1.bin").exists() and (path / "test_batch.bin").exists():
        return path
    return None


CIFAR_EPOCHS = 12


@pytest.mark.slow
def test_criterion_7_cifar_directional():
    path = _cifar_dir()
    if path is None:
        pytest.skip(
            "CIFAR-10 binary batches not available (no network in this environment). "
            "Place data_batch_1.bin and test_batch.bin under data/cifar-10-batches-bin "
            "or set SCAAT_CIFAR_DIR, then rerun. The synthetic directional analogue "
            "below exercises the identical pipeline."
        )
    train = load_cifar_binary(path / "data_batch_1.bin", split="train").take(5000)
    test = load_cifar_binary(path / "test_batch.bin", split="test").take(1000)
    spec = ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)
    n_iter = CIFAR_EPOCHS * math.ceil(5000 / 64)
    protocol = EvalProtocol(saliency="vanilla", steps=20, fraction=0.2, repeats=5)
    arms = {}
    for mode in ("regular", "scaat_adaptive_q"):
        cfg = TrainConfig(
            mode=mode, lam=1.0, batch_size=64, n_iter=n_iter, lr=0.05, seed=0,
            adv=AdvConfig(epsilon=8 / 255, k=4),
        )
        t0 = time.time()
        _, rep = _train_and_eval(train, test, spec, cfg, protocol, seed=0)
        assert time.time() - t0 <= 3600.0, f"{mode} arm exceeded 60 min"
        arms[mode] = rep.aggregates
    checks, detail = _directional_checks(arms["regular"], arms["scaat_adaptive_q"])
    failed = [name for name, ok in checks.items() if not ok]
    report("criterion 7", not failed, f"{detail}; failed: {failed or 'none'}")


# The synthetic analogue keeps the CIFAR arm's margins, model, lambda, k,
# batch and evaluation protocol; its workload differs (README, "Two notes"):
# epsilon 0.1 suits the synthetic class patch, 8 epochs keep the suite's
# time, the spurious background gives the regular arm LeRF headroom, and
# lr 0.02 lets both arms train in 8 epochs (at 0.05 they collapse on it).
SYN_EPOCHS = 8
SYN_SPURIOUS = 0.1
SYN_LR = 0.02


@pytest.fixture(scope="module")
def synthetic_directional_arms():
    train = generate_half_informative(
        n=1500, size=32, channels=3, classes=10, ratios=(0.25, 0.75),
        amp=0.2, noise=0.1, spurious=SYN_SPURIOUS, seed=11, split="train",
    )
    test = generate_half_informative(
        n=400, size=32, channels=3, classes=10, ratios=(0.25, 0.75),
        amp=0.2, noise=0.1, spurious=SYN_SPURIOUS, seed=12, split="test",
    )
    spec = ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)
    n_iter = SYN_EPOCHS * math.ceil(len(train) / 64)
    protocol = EvalProtocol(saliency="vanilla", steps=20, fraction=0.2, repeats=5)
    arms = {}
    for mode in ("regular", "scaat_adaptive_q"):
        cfg = TrainConfig(
            mode=mode, lam=1.0, batch_size=64, n_iter=n_iter, lr=SYN_LR, seed=0,
            adv=AdvConfig(epsilon=0.1, k=4),
        )
        arms[mode] = _train_and_eval(train, test, spec, cfg, protocol, seed=0)[1]
    return arms


@pytest.mark.slow
def test_criterion_7_synthetic_directional_analogue(synthetic_directional_arms):
    reg, adv = (synthetic_directional_arms[m] for m in ("regular", "scaat_adaptive_q"))
    # The LeRF and relative-AOPC checks can only be decided if the regular
    # arm's aopc_lerf stands clear of zero; otherwise fail on that cause.
    lerf = reg.per_sample["aopc_lerf"]
    z = lerf.mean() / (lerf.std(ddof=1) / math.sqrt(lerf.size))
    report(
        "criterion 7 (synthetic analogue headroom)",
        z > 3.0,
        f"regular-arm aopc_lerf {lerf.mean():.2e} is {z:.1f} standard errors above zero "
        "(required > 3; below that the workload cannot decide the aopc checks)",
    )
    checks, detail = _directional_checks(reg.aggregates, adv.aggregates)
    failed = [name for name, ok in checks.items() if not ok]
    report("criterion 7 (synthetic analogue)", not failed, f"{detail}; failed: {failed or 'none'}")


# -- criterion 8: training cost ratio ------------------------------------------


@pytest.fixture(scope="module")
def mode_timings():
    data = generate_half_informative(n=640, size=32, channels=3, classes=10, seed=0)
    spec = ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)

    def per_iter(mode, variant, k, iters=8):
        cfg = TrainConfig(
            mode=mode, lam=1.0, batch_size=64, n_iter=iters, lr=0.05, seed=0,
            adv=AdvConfig(epsilon=8 / 255, k=k, variant=variant), warmup_iters=0,
        )
        scaat_train(data, spec, TrainConfig(mode=mode, batch_size=64, n_iter=1, lr=0.05, seed=0,
                                            adv=AdvConfig(epsilon=8 / 255, k=k, variant=variant)))
        t0 = time.perf_counter()
        scaat_train(data, spec, cfg)
        return (time.perf_counter() - t0) / iters

    return {
        "regular": per_iter("regular", "pgd", 4),
        "pgd4": per_iter("scaat_adaptive_q", "pgd", 4),
        "fgsm": per_iter("scaat_adaptive_q", "fgsm", 1),
    }


@pytest.mark.slow
def test_criterion_8_cost_ratio_range(mode_timings):
    ratio = mode_timings["pgd4"] / mode_timings["regular"]
    report(
        "criterion 8 (ratio range)",
        1.5 <= ratio <= 4.0,
        f"wall-clock adaptive/regular ratio {ratio:.2f}x "
        f"(regular {mode_timings['regular']*1e3:.0f} ms/iter, "
        f"pgd-4 {mode_timings['pgd4']*1e3:.0f} ms/iter); required range [1.5, 4.0]",
    )


@pytest.mark.slow
def test_criterion_8_fgsm_cheaper(mode_timings):
    report(
        "criterion 8 (fgsm cheaper)",
        mode_timings["fgsm"] < mode_timings["pgd4"],
        f"fgsm {mode_timings['fgsm']*1e3:.0f} ms/iter < pgd-4 {mode_timings['pgd4']*1e3:.0f} ms/iter",
    )


# -- criterion 9: metric oracles ------------------------------------------------


def test_criterion_9_metric_oracles(rng):
    uniform = SaliencyMap(np.full((4, 4), 0.3), "vanilla")
    onehot = np.zeros((2, 2))
    onehot[0, 1] = 5.0
    onehot = SaliencyMap(onehot, "vanilla")
    e_ok = abs(saliency_entropy(uniform) - 4.0) < 1e-9 and abs(saliency_entropy(onehot)) < 1e-9
    g_ok = abs(gini_index(uniform)) < 1e-9 and abs(gini_index(onehot) - 0.75) < 1e-9

    w0 = np.zeros((8, 8))
    tile_weights = np.linspace(0.5, 4.0, 8)
    k = 0
    for ty in range(4):
        for tx in range(2, 4):
            w0[2 * ty : 2 * ty + 2, 2 * tx : 2 * tx + 2] = tile_weights[k]
            k += 1
    params = linear_model(np.stack([w0.ravel(), np.zeros(64)], axis=1), input_shape=(1, 8, 8))
    x = np.ones((1, 8, 8))
    true_curve = perturbation_curve(
        params, x, SaliencyMap(np.abs(w0), "vanilla"), "lerf",
        steps=10, fraction=0.4, repeats=3, region=2, rng=7,
    ).values
    random_curves = [
        perturbation_curve(
            params, x, SaliencyMap(rng.uniform(0.01, 1.0, (8, 8)), "vanilla"), "lerf",
            steps=10, fraction=0.4, repeats=3, region=2, rng=7,
        ).values
        for _ in range(50)
    ]
    lerf_ok = bool(np.all(true_curve <= np.mean(random_curves, axis=0)))

    report(
        "criterion 9",
        e_ok and g_ok and lerf_ok,
        "entropy/Gini analytic cases exact to 1e-9; "
        f"true-ranking LeRF curve below mean of 50 random rankings: {lerf_ok}",
    )


# -- criterion 10: reproducibility ----------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    cfg = RunConfig(
        model=ModelSpec("mlp", (1, 8, 8), 2, hidden=(10,), seed=0),
        train=TrainConfig(
            mode="scaat_adaptive_q", batch_size=16, n_iter=25, lr=0.05, seed=0,
            adv=AdvConfig(epsilon=0.1, k=2), warmup_iters=3,
        ),
        protocol=EvalProtocol(steps=4, fraction=0.4, repeats=1, region=2),
        data=DataConfig(
            format="synthetic-spec",
            train="half-informative,n=64,size=8,classes=2,seed=5",
            n_classes=2,
        ),
        out_dir=str(tmp_path / "a"),
        seed=0,
    )
    cfg_path = tmp_path / "run.json"
    save_run_config(cfg, cfg_path)
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("checkpoint.sct", "train_log.jsonl", "qstate.json")
    )
    report(
        "criterion 10",
        same,
        "two identically seeded train runs produced byte-identical "
        "checkpoint, training log, and q-state snapshot",
    )
