import numpy as np
import pytest

from scaat.adversarial import AdvConfig
from scaat.autodiff import cross_entropy, Tensor
from scaat.data import generate_half_informative
from scaat.models import ModelSpec
from scaat.training import (
    QState,
    TrainConfig,
    TrainingDiverged,
    scaat_loss,
    scaat_train,
    update_q,
)
from conftest import linear_model


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


class TestScaatLoss:
    def test_lambda_zero_is_plain_ce(self, rng):
        params = linear_model(rng.standard_normal((4, 3)))
        x = rng.uniform(0, 1, 4)
        x_adv = np.clip(x + rng.uniform(-0.1, 0.1, 4), 0, 1)
        loss = scaat_loss(params, x, x_adv, 1, lam=0.0)
        ce = cross_entropy(Tensor(np.asarray(params["fc0.w"].data.T @ x)), 1)
        np.testing.assert_allclose(loss.item(), ce.item(), rtol=1e-12)

    def test_identical_inputs_reduce_to_ce(self, rng):
        params = linear_model(rng.standard_normal((4, 3)))
        x = rng.uniform(0, 1, 4)
        loss = scaat_loss(params, x, x.copy(), 2, lam=3.0)
        base = scaat_loss(params, x, x.copy(), 2, lam=0.0)
        assert loss.item() == base.item()

    def test_loss_at_least_ce(self, rng):
        for _ in range(10):
            params = linear_model(rng.standard_normal((4, 2)))
            x = rng.uniform(0, 1, 4)
            x_adv = np.clip(x + rng.uniform(-0.2, 0.2, 4), 0, 1)
            with_adv = scaat_loss(params, x, x_adv, 0, lam=1.5).item()
            ce_only = scaat_loss(params, x, x_adv, 0, lam=0.0).item()
            assert with_adv >= ce_only

    def test_differentiable_wrt_params(self, rng):
        params = linear_model(rng.standard_normal((4, 2)))
        x = rng.uniform(0, 1, 4)
        x_adv = np.clip(x + 0.05, 0, 1)
        loss = scaat_loss(params, x, x_adv, 0, lam=1.0)
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
