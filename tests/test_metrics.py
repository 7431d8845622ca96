import contextlib
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from scaat import _blas, metrics, models, saliency
from scaat.data import generate_half_informative
from scaat.metrics import (
    SALIENCY_METHODS,
    EvalProtocol,
    PerturbationCurve,
    aopc,
    compressed_size,
    evaluate_model,
    gini_index,
    perturbation_curve,
    saliency_entropy,
)
from scaat.models import ModelSpec, ParamSet, _nested_scorer, forward_eval, init_model, predict_proba
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


def count_nested_rows(monkeypatch) -> list:
    """Record the rows of each call of every nested scorer that metrics
    builds, which returns them from its fill without a full forward."""
    scored = []

    def building(params, x, masks):
        score = _nested_scorer(params, x, masks)

        def counting(fill):
            scored.append(len(masks))
            return score(fill)

        return counting

    monkeypatch.setattr(metrics, "_nested_scorer", building)
    return scored


def tile_masks(smap, x, order, region, counts) -> np.ndarray:
    """(len(counts), H, W) masks of the ``counts[i]`` first-ranked regions."""
    ranking = metrics._tile_ranking(smap.values, region, order)
    pos_of_tile = np.empty(ranking.size, dtype=np.int64)
    pos_of_tile[ranking] = np.arange(ranking.size)
    _, h, w = x.shape
    masks = (pos_of_tile[None, :] < np.asarray(counts)[:, None]).reshape(-1, h // region, w // region)
    return np.repeat(np.repeat(masks, region, axis=1), region, axis=2)


def step_counts(smap, steps, fraction, region) -> np.ndarray:
    n_tiles = smap.values.size // region**2
    return np.floor(np.arange(1, steps + 1) * fraction * n_tiles / steps + 1e-9).astype(int)


def oracle_curve(params, x, smap, order, steps, fraction, repeats, region, rng):
    """The curve scored one row per step, as a reference."""
    step_masks = tile_masks(smap, x, order, region, step_counts(smap, steps, fraction, region))
    p_clean = predict_proba(params, x)
    target = int(p_clean.argmax())
    decays = np.zeros(steps)
    for _ in range(repeats):
        fill = rng.uniform(0.0, 1.0, size=x.shape)
        probs = predict_proba(params, np.where(step_masks[:, None, :, :], fill[None], x[None]))
        decays += p_clean[target] - probs[:, target]
    return decays / repeats


def full_rows_curve(params, x, smap, order, steps, fraction, repeats, region, rng):
    """The curve with each repeat's distinct perturbed rows scored by one
    ``predict_proba`` forward over all of them, the bitwise reference."""
    distinct, step_row = np.unique(np.append(0, step_counts(smap, steps, fraction, region)), return_inverse=True)
    masks = tile_masks(smap, x, order, region, distinct[1:])
    p_clean = predict_proba(params, x)
    target = int(p_clean.argmax())
    decays = np.zeros(steps)
    for _ in range(repeats):
        fill = rng.uniform(0.0, 1.0, size=x.shape)
        probs = np.vstack([p_clean, predict_proba(params, np.where(masks[:, None, :, :], fill[None], x[None]))])
        decays += p_clean[target] - probs[step_row[1:], target]
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

    @pytest.mark.parametrize("protocol", [GATE, NO_REPEAT], ids=["gate", "no-repeat"])
    @pytest.mark.parametrize("order", ["lerf", "morf"])
    def test_cnn_curve_matches_full_rows_bitwise(self, setup, protocol, order):
        params, x, smap = setup
        got = perturbation_curve(params, x, smap, order, rng=np.random.default_rng(4), **protocol)
        want = full_rows_curve(params, x, smap, order, rng=np.random.default_rng(4), **protocol)
        np.testing.assert_array_equal(got.values, want)

    def test_gemm_tail_rows_keep_the_full_forward(self, monkeypatch):
        # 9 rows of 28x28 with 4x4 regions: conv2's full GEMM has 9 * 196
        # columns, 4 mod 8, and at one BLAS thread OpenBLAS rounds the
        # last 4 in a kernel the nested scorer's GEMMs do not reach
        params = init_model(ModelSpec("cnn", (1, 28, 28), 10, channels=(16, 32), seed=5))
        gen = np.random.default_rng(3)
        x, smap = gen.uniform(0.0, 1.0, (1, 28, 28)), smap_of(gen.uniform(0.0, 1.0, (28, 28)))
        nested = count_nested_rows(monkeypatch)
        with _blas.one_thread_per_caller():
            for order in ("lerf", "morf"):
                got = perturbation_curve(params, x, smap, order, rng=np.random.default_rng(4), **GATE)
                want = full_rows_curve(params, x, smap, order, rng=np.random.default_rng(4), **GATE)
                np.testing.assert_array_equal(got.values, want)
        assert nested == []

    @pytest.mark.parametrize("protocol, rows", [(GATE, 12), (NO_REPEAT, 8)], ids=["gate", "no-repeat"])
    def test_scores_each_distinct_image_once(self, setup, monkeypatch, protocol, rows):
        # the clean row is predicted; the perturbed rows, nested, are
        # scored once per repeat from the fill alone
        params, x, smap = setup
        predicted = count_predicted_rows(monkeypatch)
        nested = count_nested_rows(monkeypatch)
        perturbation_curve(params, x, smap, "lerf", rng=0, **protocol)
        assert predicted == [1]
        assert nested == [rows] * protocol["repeats"]

    @pytest.mark.parametrize("protocol, rows", [(GATE, 12), (NO_REPEAT, 8)], ids=["gate", "no-repeat"])
    def test_mlp_predicts_each_distinct_image_once(self, monkeypatch, protocol, rows):
        params = init_model(ModelSpec("mlp", (3, 32, 32), 10, hidden=(16,), seed=2))
        gen = np.random.default_rng(9)
        x, smap = gen.uniform(0.0, 1.0, (3, 32, 32)), smap_of(gen.uniform(0.0, 1.0, (32, 32)))
        predicted = count_predicted_rows(monkeypatch)
        nested = count_nested_rows(monkeypatch)
        perturbation_curve(params, x, smap, "lerf", rng=0, **protocol)
        assert predicted == [1] + [rows] * protocol["repeats"]
        assert nested == []

    @pytest.mark.parametrize("order", ["lerf", "morf"])
    def test_mlp_curve_unchanged(self, order):
        # an MLP's rows run through predict_proba, as the oracle's do
        params = init_model(ModelSpec("mlp", (3, 32, 32), 10, hidden=(16,), seed=2))
        gen = np.random.default_rng(9)
        x, smap = gen.uniform(0.0, 1.0, (3, 32, 32)), smap_of(gen.uniform(0.0, 1.0, (32, 32)))
        got = perturbation_curve(params, x, smap, order, rng=np.random.default_rng(4), **GATE)
        want = full_rows_curve(params, x, smap, order, rng=np.random.default_rng(4), **GATE)
        np.testing.assert_array_equal(got.values, want)

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

    @pytest.mark.parametrize("arch", ["cnn", "mlp"])
    def test_one_clean_forward_per_sample(self, monkeypatch, arch):
        # counts 0, 1, 2, 3, 4, 4, 5, 6 over 16 tiles: 6 perturbed rows per repeat
        params, data = self.make_setup()
        if arch == "mlp":
            params = init_model(ModelSpec("mlp", (1, 8, 8), 2, hidden=(5,), seed=1))
        protocol = EvalProtocol(steps=8, fraction=0.4, repeats=3, region=2)
        graph_rows = []

        def graph_forward(p, x):
            graph_rows.append(len(x.data))
            return forward_eval(p, x)

        monkeypatch.setattr(saliency, "forward_eval", graph_forward)
        predicted = count_predicted_rows(monkeypatch)
        nested = count_nested_rows(monkeypatch)
        report = evaluate_model(params, data, protocol, seed=4)
        # the vanilla map's forward is the sample's one clean row
        assert graph_rows == [1] * len(data)
        curve_rows = [6] * (len(data) * 2 * 3)
        assert (predicted, nested) == (([], curve_rows) if arch == "cnn" else (curve_rows, []))
        for curve in report.curves.values():
            assert curve.shape == (len(data), 8)
            np.testing.assert_array_equal(curve[:, 0], 0.0)

    def test_region_checked_before_any_forward(self, monkeypatch):
        params, data = self.make_setup()

        def no_forward(*args):
            raise AssertionError("forward ran")

        for module in (models, saliency):
            monkeypatch.setattr(module, "forward_eval", no_forward)
        monkeypatch.setattr(metrics, "predict_proba", no_forward)
        with pytest.raises(ValueError, match="region side 3 must divide image extents"):
            evaluate_model(params, data, EvalProtocol(region=3))

    def test_correct_is_the_batch_one_prediction(self):
        params, data = self.make_setup()
        report = evaluate_model(params, data, EvalProtocol(steps=3, fraction=0.3, repeats=1, region=2), seed=0)
        preds = [predict_proba(params, x).argmax() for x in data.images]
        np.testing.assert_array_equal(report.per_sample["correct"], np.equal(preds, data.labels))

    def test_empty_split_rejected(self):
        params, data = self.make_setup()
        with pytest.raises(ValueError, match="evaluation split 'test' is empty"):
            evaluate_model(params, data.take(0), EvalProtocol(steps=3, fraction=0.3, repeats=1, region=2))

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


def sequential_report(params, data, protocol, seed):
    """The per-sample columns and curves of ``evaluate_model``, from one
    loop over ``evaluate_sample`` on the calling thread."""
    cols = {k: [] for k in metrics.PER_SAMPLE_METRICS}
    curves = {"lerf": [], "morf": []}
    with _blas.one_thread_per_caller():
        for i, x in enumerate(data.images[: protocol.limit]):
            pred, smap, lerf, morf = metrics.evaluate_sample(params, x, protocol, seed, i)
            defined = smap.values.sum() > 0
            a_l, a_m = aopc(lerf), aopc(morf)
            row = {
                "entropy": saliency_entropy(smap) if defined else float("nan"),
                "size_kib": compressed_size(smap),
                "gini": gini_index(smap) if defined else float("nan"),
                "aopc_lerf": a_l,
                "aopc_morf": a_m,
                "aopc_rel": a_m / a_l if a_l != 0 else float("nan"),
                "correct": float(pred == data.labels[i]),
            }
            for k, v in row.items():
                cols[k].append(v)
            curves["lerf"].append(lerf.values)
            curves["morf"].append(morf.values)
    return {k: np.array(v) for k, v in cols.items()}, {k: np.array(v) for k, v in curves.items()}


def assert_same_bits(report, per_sample, curves):
    for key, col in per_sample.items():
        assert report.per_sample[key].tobytes() == col.tobytes(), key
    for order, values in curves.items():
        assert report.curves[order].shape == values.shape
        assert report.curves[order].tobytes() == values.tobytes(), order


def before_each_sample(monkeypatch, hook):
    """Call ``hook(index)`` on the evaluating thread ahead of each sample."""
    sample = metrics.evaluate_sample

    def hooked(params, x, protocol, seed, index):
        hook(index)
        return sample(params, x, protocol, seed, index)

    monkeypatch.setattr(metrics, "evaluate_sample", hooked)


def blas_controls() -> list:
    with _blas._lock:
        return _blas._loaded()


def blas_counts() -> list:
    return [get() for get, _ in blas_controls()]


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS at 2 threads, so a count left at 1 shows;
    skips where the process has no OpenBLAS to drive."""
    controls = blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    before = blas_counts()
    for _, set_ in controls:
        set_(2)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)


class TestEvaluateModelThreads:
    """``evaluate_model`` splits the samples into contiguous blocks, one
    per thread, with BLAS held to one thread per caller."""

    PROTOCOL = EvalProtocol(steps=3, repeats=1, region=2)

    @pytest.fixture(scope="class")
    def setup(self):
        data = generate_half_informative(n=8, size=8, classes=3, seed=6, split="test")
        params = init_model(ModelSpec("cnn", (1, 8, 8), 3, channels=(2, 3), seed=3))
        return params, data

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("method", SALIENCY_METHODS)
    def test_matches_sequential_loop_bitwise(self, setup, monkeypatch, method, n, cores):
        params, data = setup
        protocol = EvalProtocol(saliency=method, steps=4, fraction=0.5, repeats=2, region=2,
                                smooth_samples=3, ig_steps=4, limit=n)
        want = sequential_report(params, data, protocol, seed=7)
        monkeypatch.setattr(_blas, "_usable_cores", lambda: cores)
        threads = set()
        before_each_sample(monkeypatch, lambda i: threads.add(threading.get_ident()))
        report = evaluate_model(params, data, protocol, seed=7)
        assert_same_bits(report, *want)
        assert report.n_samples == n
        if blas_controls():   # the pool may run two short blocks on one thread
            assert (len(threads) > 1) == (n > 1)

    def test_blas_held_inside_and_restored_after(self, setup, monkeypatch, blas_at_two):
        params, data = setup
        monkeypatch.setattr(_blas, "_usable_cores", lambda: 2)
        seen = []
        before_each_sample(monkeypatch, lambda i: seen.append(blas_counts()))
        evaluate_model(params, data, self.PROTOCOL, seed=1)
        assert len(seen) == len(data) and all(set(c) == {1} for c in seen)
        assert set(blas_counts()) == {2}

    @pytest.mark.parametrize("bad", [(2, 5), (5,)], ids=["both-blocks", "worker-block"])
    def test_failing_sample_restores_blas_and_raises_lowest_index(self, setup, monkeypatch, blas_at_two, bad):
        # blocks [0..3] and [4..7]: sample 2 runs on this thread, sample 5 on the other
        params, data = setup
        monkeypatch.setattr(_blas, "_usable_cores", lambda: 2)

        def fail(i):
            if i in bad:
                raise RuntimeError(f"sample {i} failed")

        before_each_sample(monkeypatch, fail)
        with pytest.raises(RuntimeError, match=f"sample {bad[0]} failed"):
            evaluate_model(params, data, self.PROTOCOL, seed=1)
        assert set(blas_counts()) == {2}

    def test_failure_stops_the_other_block_early(self, setup, monkeypatch):
        # blocks [0..3] and [4..7]: sample 4 waits until sample 0 has failed
        params, data = setup
        monkeypatch.setattr(_blas, "_usable_cores", lambda: 2)
        failed, ran = threading.Event(), []

        def hook(i):
            ran.append(i)
            if i == 0:
                failed.set()
                raise RuntimeError("sample 0 failed")
            if i == 4:
                assert failed.wait(timeout=60)
                time.sleep(0.5)   # for the error to reach the calling thread

        before_each_sample(monkeypatch, hook)
        with pytest.raises(RuntimeError, match="sample 0 failed"):
            evaluate_model(params, data, self.PROTOCOL, seed=1)
        assert sorted(ran) == ([0, 4] if blas_controls() else [0])

    def test_without_blas_control_one_thread_same_bits(self, setup, monkeypatch):
        params, data = setup
        want = evaluate_model(params, data, self.PROTOCOL, seed=3)
        monkeypatch.setattr(_blas, "one_thread_per_caller", lambda: contextlib.nullcontext(False))
        threads = set()
        before_each_sample(monkeypatch, lambda i: threads.add(threading.get_ident()))
        report = evaluate_model(params, data, self.PROTOCOL, seed=3)
        assert threads == {threading.get_ident()}
        assert_same_bits(report, want.per_sample, want.curves)


def test_blas_blocks_on_many_threads_restore_the_count(blas_at_two):
    # more threads than cores, each opening and closing nested blocks
    inside = []
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=60)
        for _ in range(200):
            with _blas.one_thread_per_caller():
                with _blas.one_thread_per_caller():
                    time.sleep(0)   # let the other threads enter and leave
                    inside.append(blas_counts())
                inside.append(blas_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(inside) == 8 * 2 * 200 and all(set(c) == {1} for c in inside)
    assert set(blas_counts()) == {2}
