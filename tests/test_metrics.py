from dataclasses import replace

import numpy as np
import pytest

from scaat import metrics
from scaat.data import generate_half_informative
from scaat.metrics import (
    EvalProtocol,
    PerturbationCurve,
    aopc,
    compressed_size,
    evaluate_model,
    gini_index,
    perturbation_curve,
    saliency_entropy,
)
from scaat.models import ModelSpec, ParamSet, init_model, predict_proba
from scaat.saliency import SaliencyMap
from conftest import linear_model


def smap_of(values):
    return SaliencyMap(np.asarray(values, dtype=np.float64), "vanilla")


class TestEntropy:
    def test_uniform_sixteen(self):
        assert saliency_entropy(smap_of(np.full((4, 4), 0.3))) == pytest.approx(4.0, abs=1e-9)

    def test_one_hot_zero(self):
        m = np.zeros((4, 4))
        m[1, 2] = 7.0
        assert saliency_entropy(smap_of(m)) == pytest.approx(0.0, abs=1e-9)

    def test_two_one_one(self):
        got = saliency_entropy(smap_of([[2.0, 1.0, 1.0]]))
        assert got == pytest.approx(1.5, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            saliency_entropy(smap_of(np.zeros((3, 3))))

    def test_uniform_is_maximal(self, rng):
        n = 64
        uniform = saliency_entropy(smap_of(np.full((8, 8), 1.0)))
        assert uniform == pytest.approx(np.log2(n), abs=1e-9)
        for _ in range(20):
            m = rng.uniform(0.0, 1.0, (8, 8))
            m[0, 0] = 1.5  # guarantee non-uniform
            assert saliency_entropy(smap_of(m)) < uniform


class TestCompressedSize:
    def test_constant_map_tiny(self):
        size = compressed_size(smap_of(np.full((96, 96), 0.42)))
        assert size <= 0.1

    def test_random_map_incompressible(self, rng):
        size = compressed_size(smap_of(rng.uniform(0, 1, (96, 96))))
        assert size >= 8.0

    def test_deterministic(self, rng):
        m = smap_of(rng.uniform(0, 1, (32, 32)))
        assert compressed_size(m) == compressed_size(m)


class TestGini:
    def test_all_equal_zero(self):
        assert gini_index(smap_of(np.full((5, 5), 2.0))) == pytest.approx(0.0, abs=1e-9)

    def test_one_hot_four(self):
        assert gini_index(smap_of([[0.0, 0.0], [0.0, 3.0]])) == pytest.approx(0.75, abs=1e-9)

    def test_scale_invariance(self, rng):
        m = rng.uniform(0, 1, (6, 6))
        base = gini_index(smap_of(m))
        for c in (0.01, 3.0, 1e6):
            assert gini_index(smap_of(c * m)) == pytest.approx(base, rel=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            g = gini_index(smap_of(rng.uniform(0, 1, (4, 4))))
            assert 0.0 <= g <= 15.0 / 16.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            gini_index(smap_of(np.zeros((2, 2))))

    def test_anticorrelated_with_entropy(self):
        # family interpolating uniform -> one-hot
        ginis, ents = [], []
        for t in np.linspace(0.0, 0.98, 8):
            m = np.full(16, (1.0 - t) / 16.0)
            m[3] += t
            ginis.append(gini_index(smap_of(m.reshape(4, 4))))
            ents.append(saliency_entropy(smap_of(m.reshape(4, 4))))
        assert np.all(np.diff(ginis) > 0)
        assert np.all(np.diff(ents) < 0)


class TestAopc:
    def test_zero_curve(self):
        c = PerturbationCurve("lerf", 3, 0.2, 1, np.zeros(3))
        assert aopc(c) == 0.0

    def test_two_point_mean(self):
        c = PerturbationCurve("lerf", 2, 0.2, 1, np.array([0.1, 0.3]))
        assert aopc(c) == pytest.approx(0.2, abs=1e-12)

    def test_relative_ratio(self):
        morf = PerturbationCurve("morf", 2, 0.2, 1, np.array([0.4, 0.4]))
        lerf = PerturbationCurve("lerf", 2, 0.2, 1, np.array([0.002, 0.002]))
        assert aopc(morf) / aopc(lerf) == pytest.approx(200.0, rel=1e-9)


def staircase_model():
    """Binary linear model over 8x8: zero weight on the left half,
    increasing positive weights on the right half (per 2x2 tile)."""
    w0 = np.zeros((8, 8))
    tile_weights = np.linspace(0.5, 4.0, 8)
    k = 0
    for ty in range(4):
        for tx in range(2, 4):
            w0[2 * ty : 2 * ty + 2, 2 * tx : 2 * tx + 2] = tile_weights[k]
            k += 1
    w = np.stack([w0.ravel(), np.zeros(64)], axis=1)
    return linear_model(w, input_shape=(1, 8, 8)), w0


class TestPerturbationCurve:
    def test_paper_protocol_shape(self, rng):
        params, _ = staircase_model()
        x = np.ones((1, 8, 8))
        smap = smap_of(rng.uniform(0, 1, (8, 8)))
        curve = perturbation_curve(params, x, smap, "lerf", steps=20, fraction=0.2, repeats=5, region=2, rng=0)
        assert curve.values.shape == (20,)
        assert curve.steps == 20 and curve.repeats == 5

    def test_constant_model_zero_decay(self, rng):
        params = linear_model(np.zeros((64, 2)), input_shape=(1, 8, 8))
        x = rng.uniform(0, 1, (1, 8, 8))
        smap = smap_of(rng.uniform(0, 1, (8, 8)))
        curve = perturbation_curve(params, x, smap, "morf", steps=5, fraction=0.5, repeats=2, region=2, rng=1)
        np.testing.assert_array_equal(curve.values, np.zeros(5))

    def test_morf_dominates_lerf_on_calibrated_model(self):
        params, w0 = staircase_model()
        x = np.ones((1, 8, 8))
        smap = smap_of(np.abs(w0))
        lerf = perturbation_curve(params, x, smap, "lerf", steps=8, fraction=0.5, repeats=3, region=2, rng=5)
        morf = perturbation_curve(params, x, smap, "morf", steps=8, fraction=0.5, repeats=3, region=2, rng=5)
        assert np.all(morf.values >= lerf.values)

    def test_true_ranking_beats_random_rankings(self, rng):
        # brute-force baseline: mean LeRF curve over 50 random rankings
        params, w0 = staircase_model()
        x = np.ones((1, 8, 8))
        true_curve = perturbation_curve(
            params, x, smap_of(np.abs(w0)), "lerf", steps=10, fraction=0.4, repeats=3, region=2, rng=7
        ).values
        random_curves = []
        for i in range(50):
            fake = smap_of(rng.uniform(0.01, 1.0, (8, 8)))
            random_curves.append(
                perturbation_curve(params, x, fake, "lerf", steps=10, fraction=0.4, repeats=3, region=2, rng=7).values
            )
        assert np.all(true_curve <= np.mean(random_curves, axis=0))

    def test_saliency_scale_invariance(self, rng):
        params, w0 = staircase_model()
        x = rng.uniform(0, 1, (1, 8, 8))
        smap = smap_of(np.abs(w0) + 0.01)
        a = perturbation_curve(params, x, smap, "morf", steps=6, fraction=0.3, repeats=2, region=2, rng=3)
        b = perturbation_curve(params, x, smap_of(137.0 * smap.values), "morf", steps=6, fraction=0.3, repeats=2, region=2, rng=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_fraction_above_one_rejected(self, rng):
        params, w0 = staircase_model()
        with pytest.raises(ValueError, match="fraction"):
            perturbation_curve(params, np.ones((1, 8, 8)), smap_of(np.abs(w0)), "lerf", fraction=1.2, region=2)

    def test_ties_break_by_tile_index(self):
        params, _ = staircase_model()
        x = np.ones((1, 8, 8))
        flat = smap_of(np.full((8, 8), 1.0))
        a = perturbation_curve(params, x, flat, "lerf", steps=4, fraction=0.5, repeats=1, region=2, rng=2)
        b = perturbation_curve(params, x, flat, "morf", steps=4, fraction=0.5, repeats=1, region=2, rng=2)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"repeats": 0}, "repeats", id="repeats-0"),
        pytest.param({"repeats": -1}, "repeats", id="repeats-neg"),
        pytest.param({"region": 0}, "region", id="region-0"),
        pytest.param({"steps": 0}, "steps", id="steps-0"),
    ])
    def test_bad_protocol_rejected_before_any_forward(self, monkeypatch, kwargs, message):
        params, w0 = staircase_model()

        def no_forward(*args):
            raise AssertionError("forward ran")

        monkeypatch.setattr(metrics, "predict_proba", no_forward)
        with pytest.raises(ValueError, match=message):
            perturbation_curve(params, np.ones((1, 8, 8)), smap_of(np.abs(w0)), "lerf", **{"region": 2, **kwargs})


GATE = dict(steps=20, fraction=0.2, repeats=5, region=4)   # counts 0..12 repeat: 12 perturbed rows of 20
NO_REPEAT = dict(steps=8, fraction=0.5, repeats=3, region=4)  # counts 4, 8, ..., 32


def count_predicted_rows(monkeypatch) -> list:
    """Record the rows of each ``predict_proba`` call that metrics makes."""
    scored = []

    def counting(p, batch):
        scored.append(1 if batch.ndim == 3 else batch.shape[0])
        return predict_proba(p, batch)

    monkeypatch.setattr(metrics, "predict_proba", counting)
    return scored


def oracle_curve(params, x, smap, order, steps, fraction, repeats, region, rng):
    """The curve scored one row per step, as a reference."""
    ranking = metrics._tile_ranking(smap.values, region, order)
    n_tiles = ranking.size
    counts = np.floor(np.arange(1, steps + 1) * fraction * n_tiles / steps + 1e-9).astype(int)
    pos_of_tile = np.empty(n_tiles, dtype=np.int64)
    pos_of_tile[ranking] = np.arange(n_tiles)
    _, h, w = x.shape
    step_masks = (pos_of_tile[None, :] < counts[:, None]).reshape(steps, h // region, w // region)
    step_masks = np.repeat(np.repeat(step_masks, region, axis=1), region, axis=2)
    p_clean = predict_proba(params, x)
    target = int(p_clean.argmax())
    decays = np.zeros(steps)
    for _ in range(repeats):
        fill = rng.uniform(0.0, 1.0, size=x.shape)
        probs = predict_proba(params, np.where(step_masks[:, None, :, :], fill[None], x[None]))
        decays += p_clean[target] - probs[:, target]
    return decays / repeats


class TestCurveAgainstOracle:
    @pytest.fixture(scope="class")
    def setup(self):
        params = init_model(ModelSpec("cnn", (3, 32, 32), 10, channels=(4, 8), seed=2))
        gen = np.random.default_rng(9)
        x = gen.uniform(0.0, 1.0, (3, 32, 32))
        smap = smap_of(gen.uniform(0.0, 1.0, (32, 32)))
        return params, x, smap

    @pytest.mark.parametrize("protocol", [GATE, NO_REPEAT], ids=["gate", "no-repeat"])
    @pytest.mark.parametrize("order", ["lerf", "morf"])
    def test_matches_oracle_and_stream(self, setup, protocol, order):
        params, x, smap = setup
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        got = perturbation_curve(params, x, smap, order, rng=rng_a, **protocol)
        want = oracle_curve(params, x, smap, order, rng=rng_b, **protocol)
        np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-15)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("protocol, rows", [(GATE, 1 + 5 * 12), (NO_REPEAT, 1 + 3 * 8)], ids=["gate", "no-repeat"])
    def test_scores_each_distinct_image_once(self, setup, monkeypatch, protocol, rows):
        params, x, smap = setup
        scored = count_predicted_rows(monkeypatch)
        perturbation_curve(params, x, smap, "lerf", rng=0, **protocol)
        assert sum(scored) == rows
        assert len(scored) == 1 + protocol["repeats"]

    def test_steps_perturbing_nothing_run_no_forward(self, setup, monkeypatch):
        # 0.01 of 64 tiles over 4 steps: counts 0, 0, 0, 0
        params, x, smap = setup
        p_clean = predict_proba(params, x)
        scored = count_predicted_rows(monkeypatch)
        kwargs = dict(steps=4, fraction=0.01, repeats=3, region=4, rng=0)
        given = perturbation_curve(params, x, smap, "morf", p_clean=p_clean, **kwargs)
        assert scored == []
        computed = perturbation_curve(params, x, smap, "morf", **kwargs)
        assert scored == [1]
        for curve in (given, computed):
            np.testing.assert_array_equal(curve.values, np.zeros(4))


class TestEvaluateModel:
    def make_setup(self):
        data = generate_half_informative(n=12, size=8, classes=2, seed=3, split="test")
        spec = ModelSpec("cnn", (1, 8, 8), 2, channels=(2, 3), seed=1)
        return init_model(spec), data

    def test_report_aggregates_are_means(self):
        params, data = self.make_setup()
        protocol = EvalProtocol(steps=5, fraction=0.4, repeats=2, region=2)
        report = evaluate_model(params, data, protocol, seed=11)
        for key in ("entropy", "size_kib", "gini", "aopc_lerf", "aopc_morf"):
            assert report.aggregates[key] == pytest.approx(report.per_sample[key].mean(), abs=1e-9)
        assert report.aggregates["accuracy"] == pytest.approx(report.per_sample["correct"].mean(), abs=1e-12)
        assert report.aggregates["aopc_rel"] == pytest.approx(
            report.aggregates["aopc_morf"] / report.aggregates["aopc_lerf"], rel=1e-12
        )
        assert report.n_samples == 12

    def test_one_prediction_per_sample(self, monkeypatch):
        # counts 0, 1, 2, 3, 4, 4, 5, 6 over 16 tiles: 6 perturbed rows per repeat
        params, data = self.make_setup()
        protocol = EvalProtocol(steps=8, fraction=0.4, repeats=3, region=2)
        scored = count_predicted_rows(monkeypatch)
        report = evaluate_model(params, data, protocol, seed=4)
        assert sum(scored) == len(data) * (1 + 2 * 3 * 6)
        assert len(scored) == len(data) * (1 + 2 * 3)
        for curve in report.curves.values():
            assert curve.shape == (len(data), 8)
            np.testing.assert_array_equal(curve[:, 0], 0.0)

    def test_correct_is_the_batch_one_prediction(self):
        params, data = self.make_setup()
        report = evaluate_model(params, data, EvalProtocol(steps=3, fraction=0.3, repeats=1, region=2), seed=0)
        preds = [predict_proba(params, x).argmax() for x in data.images]
        np.testing.assert_array_equal(report.per_sample["correct"], np.equal(preds, data.labels))

    def test_limit_rows_equal_full_run_prefix(self):
        # per-sample randomness is keyed by (seed, sample index)
        params, data = self.make_setup()
        protocol = EvalProtocol(steps=4, fraction=0.4, repeats=2, region=2)
        full = evaluate_model(params, data, protocol, seed=5)
        limited = evaluate_model(params, data, replace(protocol, limit=8), seed=5)
        for key in full.per_sample:
            np.testing.assert_array_equal(limited.per_sample[key], full.per_sample[key][:8])

    def test_all_zero_saliency_map_evaluates(self):
        params, data = self.make_setup()
        arrays = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        arrays["fc.b"] = np.array([0.3, -0.2])
        report = evaluate_model(ParamSet.from_arrays(params.spec, arrays), data, EvalProtocol(steps=4, region=2), seed=0)
        for key in ("entropy", "gini"):
            assert np.all(np.isnan(report.per_sample[key]))
            assert np.isnan(report.aggregates[key])
        for key in ("aopc_lerf", "aopc_morf", "size_kib"):
            assert np.all(np.isfinite(report.per_sample[key]))
        assert report.aggregates["accuracy"] == pytest.approx(np.mean(data.labels == 0), abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"steps": 0}, {"repeats": 0}, {"repeats": -1}, {"fraction": 0.0}, {"fraction": 1.5},
        {"fraction": float("nan")}, {"region": 0}, {"smooth_samples": 0}, {"smooth_sigma": -0.1},
        {"smooth_sigma": float("nan")}, {"smooth_sigma": float("inf")}, {"ig_steps": 0},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_protocol_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            EvalProtocol(**kwargs)

    def test_saliency_method_switch(self):
        params, data = self.make_setup()
        for method in ("vanilla", "smoothgrad", "integrated"):
            protocol = EvalProtocol(saliency=method, steps=3, fraction=0.3, repeats=1, region=2, limit=3)
            report = evaluate_model(params, data, protocol, seed=2)
            assert report.n_samples == 3
            assert np.all(np.isfinite(report.per_sample["entropy"]))
