import sys
import weakref

import numpy as np
import pytest

from scaat import adversarial, seeds, training
from scaat.adversarial import AdvConfig, perturb_batch
from scaat.autodiff import cross_entropy_rows, softmax, softmax_np, Tensor
from scaat.data import generate_half_informative
from scaat.models import ModelSpec, forward_eval, init_model
from scaat.saliency import batch_gsmap_scores
from scaat.training import (
    QState,
    TrainConfig,
    TrainingDiverged,
    _batch_loss,
    _sweep_adv_branch,
    scaat_train,
    update_q,
)
from conftest import linear_model, peak_bytes


def qstate(**kw):
    defaults = dict(q=np.array([0.5]), q0=0.5, q_min=0.1, q_max=0.9, gamma=0.05, warmup_iters=10)
    defaults.update(kw)
    return QState(**defaults)


class TestUpdateQ:
    def test_warmup_freezes(self):
        qs = qstate()
        for adv_correct in (True, False):
            assert update_q(0.5, 10, adv_correct, qs) == 0.5
            assert update_q(0.5, 1, adv_correct, qs) == 0.5

    def test_step_up_when_still_correct(self):
        assert update_q(0.5, 11, True, qstate()) == pytest.approx(0.55, abs=1e-12)

    def test_clamp_at_lower_bound(self):
        assert update_q(0.1, 11, False, qstate()) == 0.1

    def test_step_down_when_misclassified(self):
        assert update_q(0.5, 11, False, qstate()) == pytest.approx(0.45, abs=1e-12)

    def test_clamp_at_upper_bound(self):
        assert update_q(0.9, 11, True, qstate()) == 0.9

    def test_qstate_validation(self):
        with pytest.raises(ValueError, match="q_min"):
            QState(np.array([0.5]), q0=0.95, q_min=0.1, q_max=0.9, gamma=0.05, warmup_iters=0)
        with pytest.raises(ValueError, match="gamma"):
            QState(np.array([0.5]), q0=0.5, q_min=0.1, q_max=0.9, gamma=0.0, warmup_iters=0)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0}, {"lam": float("nan")}, {"lam": float("inf")},
        {"lam": -1.0}, {"momentum": float("nan")}, {"momentum": 5.0}, {"momentum": -1.0}, {"momentum": 1.0},
        {"gamma": float("inf")}, {"warmup_iters": -1}, {"train_region": 0}, {"train_region": -2},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match={"lam": "lambda weight"}.get(name, name) + " must be"):
            TrainConfig(**kwargs)

    def test_accepts_edge_values(self):
        TrainConfig(lam=0.0, momentum=0.0, warmup_iters=0, train_region=1)
        TrainConfig(momentum=0.999)


def one_sample_loss(params, x, x_adv, y, lam):
    """The training loss on one sample, its JS term on a fresh adversarial forward."""
    probs_adv = softmax(forward_eval(params, np.asarray(x_adv)[None]))
    return _batch_loss(params, np.asarray(x)[None], probs_adv, [int(y)], lam)[0]


class TestScaatLoss:
    def test_lambda_zero_is_plain_ce(self, rng):
        params = linear_model(rng.standard_normal((4, 3)))
        x = rng.uniform(0, 1, (1, 1, 4))
        x_adv = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1)
        loss = one_sample_loss(params, x, x_adv, 1, lam=0.0)
        ce = cross_entropy_rows(softmax(Tensor(x.reshape(1, 4) @ params["fc0.w"].data)), [1])
        np.testing.assert_allclose(loss.item(), ce.data[0], rtol=1e-12)

    def test_identical_inputs_reduce_to_ce(self, rng):
        params = linear_model(rng.standard_normal((4, 3)))
        x = rng.uniform(0, 1, (1, 1, 4))
        loss = one_sample_loss(params, x, x.copy(), 2, lam=3.0)
        base = one_sample_loss(params, x, x.copy(), 2, lam=0.0)
        assert loss.item() == base.item()

    def test_loss_at_least_ce(self, rng):
        for _ in range(10):
            params = linear_model(rng.standard_normal((4, 2)))
            x = rng.uniform(0, 1, (1, 1, 4))
            x_adv = np.clip(x + rng.uniform(-0.2, 0.2, x.shape), 0, 1)
            with_adv = one_sample_loss(params, x, x_adv, 0, lam=1.5).item()
            ce_only = one_sample_loss(params, x, x_adv, 0, lam=0.0).item()
            assert with_adv >= ce_only

    def test_differentiable_wrt_params(self, rng):
        params = linear_model(rng.standard_normal((4, 2)))
        x = rng.uniform(0, 1, (1, 1, 4))
        x_adv = np.clip(x + 0.05, 0, 1)
        loss = one_sample_loss(params, x, x_adv, 0, lam=1.0)
        loss.backward()
        assert params["fc0.w"].grad is not None
        assert np.all(np.isfinite(params["fc0.w"].grad))


def tiny_data(seed=0, n=48):
    return generate_half_informative(n=n, size=8, classes=2, ratios=(0.25, 0.75), seed=seed)


def tiny_spec(seed=0):
    return ModelSpec("mlp", (1, 8, 8), 2, hidden=(12,), seed=seed)


def tiny_cfg(**kw):
    defaults = dict(
        mode="scaat_adaptive_q",
        lam=1.0,
        batch_size=16,
        n_iter=12,
        lr=0.05,
        seed=0,
        adv=AdvConfig(epsilon=0.05, k=2),
        warmup_iters=2,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# a small CNN on which alpha = 3 epsilon makes some rows' best iterate an earlier one
ALPHA3_CNN = ModelSpec("cnn", (3, 16, 16), 4, channels=(4, 8), seed=3)
SMALL_CNN = ModelSpec("cnn", (3, 8, 8), 4, channels=(4, 6), seed=3)


class TestScaatTrain:
    def test_deterministic_runs(self):
        data = tiny_data()
        r1 = scaat_train(data, tiny_spec(), tiny_cfg())
        r2 = scaat_train(data, tiny_spec(), tiny_cfg())
        for name, t in r1.params.items():
            assert np.array_equal(t.data, r2.params[name].data)
        assert r1.log == r2.log
        assert np.array_equal(r1.qstate.q, r2.qstate.q)

    def test_lambda_zero_matches_regular_bitwise(self):
        data = tiny_data()
        regular = scaat_train(data, tiny_spec(), tiny_cfg(mode="regular"))
        lam0 = scaat_train(data, tiny_spec(), tiny_cfg(mode="scaat_adaptive_q", lam=0.0))
        for name, t in regular.params.items():
            assert np.array_equal(t.data, lam0.params[name].data)

    def test_regular_mode_skips_adversarial(self):
        result = scaat_train(tiny_data(), tiny_spec(), tiny_cfg(mode="regular"))
        assert all(rec["L_adv"] == 0.0 for rec in result.log)
        assert np.all(result.qstate.q == 0.5)

    def test_fixed_q_constant(self):
        result = scaat_train(tiny_data(), tiny_spec(), tiny_cfg(mode="scaat_fixed_q", q0=0.4))
        assert np.all(result.qstate.q == 0.4)

    def test_warmup_freeze_and_bounds(self):
        cfg = tiny_cfg(n_iter=3, warmup_iters=3)
        result = scaat_train(tiny_data(), tiny_spec(), cfg)
        assert np.all(result.qstate.q == cfg.q0)

    def test_q_quantized_on_gamma_grid(self):
        cfg = tiny_cfg(n_iter=20, warmup_iters=2)
        result = scaat_train(tiny_data(), tiny_spec(), cfg)
        q = result.qstate.q
        steps = (q - cfg.q0) / cfg.gamma
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
        assert np.all((q >= cfg.q_min) & (q <= cfg.q_max))

    def test_q_updates_only_touch_batch(self):
        data = tiny_data(n=40)
        cfg = tiny_cfg(batch_size=10, n_iter=1, warmup_iters=0)
        result = scaat_train(data, tiny_spec(), cfg)
        changed = np.flatnonzero(result.qstate.q != cfg.q0)
        # exactly one batch of samples may have moved
        assert len(changed) <= 10

    def test_log_schema(self):
        result = scaat_train(tiny_data(), tiny_spec(), tiny_cfg(n_iter=4))
        assert len(result.log) == 4
        for i, rec in enumerate(result.log, start=1):
            assert rec["iter"] == i
            assert set(rec) == {"iter", "L_cls", "L_adv", "mean_q", "batch_acc"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_iteration(self):
        # lr large enough to overflow parameters to inf, then inf - inf
        cfg = tiny_cfg(mode="regular", lr=1e308, n_iter=30)
        with pytest.raises(TrainingDiverged, match="iteration 2"):
            scaat_train(tiny_data(), tiny_spec(), cfg)

    def test_empty_dataset_rejected(self):
        data = tiny_data(n=4).take(0)
        with pytest.raises(ValueError, match="empty"):
            scaat_train(data, tiny_spec(), tiny_cfg())

    def test_adaptive_training_learns(self):
        data = tiny_data(n=64)
        cfg = tiny_cfg(n_iter=40, batch_size=16, warmup_iters=4)
        result = scaat_train(data, tiny_spec(), cfg)
        acc_early = np.mean([r["batch_acc"] for r in result.log[:4]])
        acc_late = np.mean([r["batch_acc"] for r in result.log[-4:]])
        assert acc_late > acc_early


class TestPassCounts:
    """Model forwards and backward sweeps per ``scaat_train`` iteration."""

    def count(self, monkeypatch, spec, cfg, data):
        iters = []
        fwd, sweep, batches, search = forward_eval, Tensor.backward, training._batches, training.perturb_batch

        def counted_forward(params, x):
            iters[-1]["forwards"] += 1
            iters[-1]["inputs"].append(np.array(getattr(x, "data", x)))
            return fwd(params, x)

        def counted_sweep(self):
            iters[-1]["sweeps"] += 1
            return sweep(self)

        def marked_batches(*args):
            for idx in batches(*args):
                iters.append({"forwards": 0, "sweeps": 0, "inputs": [], "x_adv": None})
                yield idx

        def recorded_search(params, x, *args, **kwargs):
            iters[-1]["inputs"].clear()  # keep the search's own forward inputs
            out = search(params, x, *args, **kwargs)
            iters[-1]["x_adv"] = x + out[0]
            return out

        for name, mod in list(sys.modules.items()):
            if name == "scaat" or name.startswith("scaat."):
                for key, val in list(vars(mod).items()):
                    if val is fwd:
                        monkeypatch.setattr(mod, key, counted_forward)
        monkeypatch.setattr(Tensor, "backward", counted_sweep)
        monkeypatch.setattr(training, "_batches", marked_batches)
        monkeypatch.setattr(training, "perturb_batch", recorded_search)
        scaat_train(data, spec, cfg)
        assert len(iters) == cfg.n_iter
        return iters

    @staticmethod
    def passes(iters):
        return [(it["forwards"], it["sweeps"]) for it in iters]

    @staticmethod
    def earlier_best(it, steps):
        # the search scores its last iterate at its (steps + 3)-th forward;
        # that input differs from x + delta when an earlier iterate won
        return not np.array_equal(it["inputs"][steps + 2], it["x_adv"])

    def test_regular_one_forward_one_sweep(self, monkeypatch):
        iters = self.count(monkeypatch, tiny_spec(), tiny_cfg(mode="regular", n_iter=3), tiny_data())
        assert self.passes(iters) == [(1, 1)] * 3

    @pytest.mark.parametrize(
        "variant, steps, forwards, sweeps", [("pgd", 4, 9, 7), ("fgsm", 1, 6, 4)], ids=["pgd4", "fgsm"]
    )
    def test_adaptive_passes(self, monkeypatch, variant, steps, forwards, sweeps):
        # the saliency pass (1 forward, 1 sweep); the search: two starts,
        # a forward and a sweep per step, one forward scoring the last
        # iterate; the loss: a sweep of its JS term's adversarial branch,
        # then its clean forward and one sweep
        cfg = tiny_cfg(n_iter=4, adv=AdvConfig(epsilon=0.05, k=4, variant=variant))
        iters = self.count(monkeypatch, tiny_spec(), cfg, tiny_data())
        extra = [self.earlier_best(it, steps) for it in iters]
        assert not all(extra)
        assert self.passes(iters) == [(forwards + e, sweeps) for e in extra]

    def test_earlier_best_iterate_costs_one_forward(self, monkeypatch):
        # alpha = 3 epsilon on a small CNN: some rows' best iterate is an
        # earlier one, and the search scores it once more
        data = generate_half_informative(n=32, size=16, channels=3, classes=4, seed=0)
        cfg = tiny_cfg(n_iter=4, adv=AdvConfig(epsilon=0.05, k=4, alpha=0.15))
        iters = self.count(monkeypatch, ALPHA3_CNN, cfg, data)
        extra = [self.earlier_best(it, 4) for it in iters]
        assert any(extra)
        assert self.passes(iters) == [(9 + e, 7) for e in extra]


def search_batch(spec, seed=0, n=12):
    """A training batch's search inputs as ``scaat_train`` builds them:
    params, x, labels, masks and the clean softmax's bits."""
    params = init_model(spec)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, *spec.input_shape))
    y = rng.integers(0, spec.n_classes, n)
    masks = rng.uniform(size=(n, spec.input_shape[1] * spec.input_shape[2])) < 0.5
    p_clean = softmax_np(batch_gsmap_scores(params, x, y)[1], axis=-1)
    return params, x, y, masks, p_clean


class TestOneGraphLive:
    """The loss sweeps the search's graph before building its clean one."""

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    @pytest.mark.parametrize(
        "spec, cfg, earlier_best",
        [
            (tiny_spec(), AdvConfig(epsilon=0.05, k=4), False),
            (tiny_spec(), AdvConfig(epsilon=0.05, variant="fgsm"), False),
            (SMALL_CNN, AdvConfig(epsilon=0.1, k=4), False),
            (SMALL_CNN, AdvConfig(epsilon=0.05, variant="fgsm"), False),
            (ALPHA3_CNN, AdvConfig(epsilon=0.05, k=4, alpha=0.15), True),
        ],
        ids=["mlp-pgd4", "mlp-fgsm", "cnn-pgd4", "cnn-fgsm", "cnn-earlier-best"],
    )
    def test_split_matches_joint_sweep(self, spec, cfg, earlier_best, lam, monkeypatch):
        params, x, y, masks, p_clean = search_batch(spec)
        forwards = []
        monkeypatch.setattr(adversarial, "forward_eval", lambda *a: forwards.append(1) or forward_eval(*a))
        steps = cfg.k if cfg.variant == "pgd" else 1
        results = []
        for split in (False, True):
            forwards.clear()
            probs_adv = perturb_batch(params, x, cfg, masks, seeds.stream(5, seeds.PGD), p_clean=p_clean)[2]
            assert len(forwards) == steps + 3 + earlier_best
            if split:
                probs_adv = _sweep_adv_branch(probs_adv, p_clean, lam)
            loss = _batch_loss(params, x, probs_adv, y, lam)[0]
            loss.backward()
            results.append((loss.data, {name: t.grad for name, t in params.items()}))
            for _, t in params.items():
                t.grad = None
        (joint, g_joint), (split, g_split) = results
        assert split.tobytes() == joint.tobytes()
        for name, g in g_joint.items():
            assert g_split[name].tobytes() == g.tobytes(), name

    def test_search_graph_dismantled_before_clean_forward(self, monkeypatch):
        returned, checked = [], []
        search, fwd = training.perturb_batch, training.forward_eval

        def recorded_search(*args, **kwargs):
            out = search(*args, **kwargs)
            returned.append(out[2])
            return out

        def checked_forward(params, x):
            probs = returned.pop()
            checked.append(probs._parents == () and probs._backward is None)
            return fwd(params, x)

        monkeypatch.setattr(training, "perturb_batch", recorded_search)
        monkeypatch.setattr(training, "forward_eval", checked_forward)
        scaat_train(tiny_data(), tiny_spec(), tiny_cfg(n_iter=3, adv=AdvConfig(epsilon=0.05, k=4)))
        assert checked == [True] * 3

    def test_stale_graph_freed_before_rescoring(self, monkeypatch):
        # the alpha = 3 epsilon set-up of TestPassCounts: the last iterate's
        # softmax must be gone when the earlier best iterate is scored again
        data = generate_half_informative(n=32, size=16, channels=3, classes=4, seed=0)
        cfg = tiny_cfg(n_iter=4, adv=AdvConfig(epsilon=0.05, k=4, alpha=0.15))
        searches, rescored = [], []
        search, objective = training.perturb_batch, adversarial._objective

        def marked_search(*args, **kwargs):
            searches.append([])
            return search(*args, **kwargs)

        def tracked_objective(params, x_adv, p_clean, grad=False):
            refs = searches[-1]
            if len(refs) == cfg.adv.k + 3:  # two starts, k steps, the last iterate
                rescored.append(refs[-1]() is None)
            out = objective(params, x_adv, p_clean, grad)
            refs.append(weakref.ref(out[2].data))
            return out

        monkeypatch.setattr(training, "perturb_batch", marked_search)
        monkeypatch.setattr(adversarial, "_objective", tracked_objective)
        scaat_train(data, ALPHA3_CNN, cfg)
        assert rescored and all(rescored)


def _gate_iteration_peak(**kw) -> int:
    """tracemalloc peak of one batch-64 iteration of the gate's CNN."""
    spec = ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)
    data = generate_half_informative(n=64, size=32, channels=3, classes=10, seed=0)
    cfg = tiny_cfg(batch_size=64, n_iter=1, warmup_iters=0, **kw)
    return peak_bytes(lambda: scaat_train(data, spec, cfg))[1]


def test_pgd4_iteration_peak_memory():
    # one adaptive PGD-4 iteration peaks at about 34.0 MiB, in the
    # search's final trainable forward, at conv2's routing code, over x,
    # x + delta and the search's current and best perturbations; it read
    # 45.8 MiB while conv1 kept its unfold rather than its padded input,
    # 52.2 in the first trainable sweep's conv2 backward while both
    # convs' unfolds were still held, and 66.5 with pooled nodes that
    # kept their pre-activations and a search that stacked every iterate
    assert _gate_iteration_peak(adv=AdvConfig(epsilon=8 / 255, k=4)) < 37 * 2**20


def test_fgsm_iteration_peak_memory():
    # about 32.5 MiB, in the search's final trainable forward; 44.3 while
    # conv1 kept its unfold, 52.2 while a conv backward still held an
    # unfold that dW had already read
    assert _gate_iteration_peak(adv=AdvConfig(epsilon=8 / 255, variant="fgsm")) < 36 * 2**20


def test_regular_iteration_peak_memory():
    # about 30.1 MiB, in conv1's dW in the loss's backward sweep, over the
    # routed gradient and the unfold built again from the kept padded
    # input; 41.8 while conv1 kept its unfold from the forward, and 48.6
    # while conv2's backward still held both convs' unfolds and the graph
    # the batch
    assert _gate_iteration_peak(mode="regular") < 33 * 2**20


def test_input_gradient_pass_peak_memory():
    # one IG pass (frozen forward, JS, backward to x), the saliency map's
    # and each PGD step's cost, peaks at about 24.3 MiB, in the forward;
    # a conv input gradient that stacked the whole batch read 29.7 (41.8
    # with the padded-grid layout)
    spec = ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)
    params = init_model(spec).frozen()
    x = generate_half_informative(n=64, size=32, channels=3, classes=10, seed=0).images
    p = softmax_np(forward_eval(params, Tensor(x)).data)
    (_, dx, _), peak = peak_bytes(lambda: adversarial._objective(params, x, p, grad=True))
    assert dx.shape == x.shape
    assert peak < 26 * 2**20
