import os

import numpy as np
import pytest

from scaat.models import ModelSpec, ParamSet, init_model, scores_np
from scaat.saliency import (
    SaliencyMap,
    integrated_gradients,
    lowest,
    lowest_masks,
    quantile_thresholds,
    region_average,
    region_mean,
    save_csv,
    save_pgm,
    smooth_grad,
    vanilla_gsmap,
)
from conftest import linear_model


def two_channel_model(w_by_channel):
    """Linear model over a (2,1,2) input with per-channel weight rows."""
    spec = ModelSpec("mlp", (2, 1, 2), 2, hidden=())
    w = np.asarray(w_by_channel, dtype=np.float64).reshape(4, 1)
    w = np.hstack([w, np.zeros((4, 1))])
    return ParamSet.from_arrays(spec, {"fc0.w": w, "fc0.b": np.zeros(2)})


class TestVanilla:
    def test_linear_model_gives_abs_weights(self):
        w = np.array([[0.5, -1.0], [-2.0, 0.25], [3.0, 0.0]])
        params = linear_model(w)
        smap = vanilla_gsmap(params, np.array([[[0.1, 0.2, 0.3]]]), 1)
        np.testing.assert_allclose(smap.values, np.abs(w[:, 1]).reshape(1, 3))

    def test_channel_reduction_is_max(self):
        # channel 0 grads (1, -4), channel 1 grads (2, 3) -> map max(|.|) = (2, 4)
        params = two_channel_model([1.0, -4.0, 2.0, 3.0])
        smap = vanilla_gsmap(params, np.zeros((2, 1, 2)), 0)
        np.testing.assert_allclose(smap.values, [[2.0, 4.0]])

    def test_constant_model_zero_map(self):
        params = linear_model(np.zeros((4, 3)))
        smap = vanilla_gsmap(params, np.full((1, 1, 4), 0.5), 2)
        np.testing.assert_array_equal(smap.values, np.zeros((1, 4)))

    def test_nonnegative_random(self, rng):
        spec = ModelSpec("cnn", (3, 8, 8), 4, channels=(3, 4), seed=7)
        params = init_model(spec)
        smap = vanilla_gsmap(params, rng.uniform(0, 1, (3, 8, 8)), 1)
        assert np.all(smap.values >= 0)
        assert smap.values.shape == (8, 8)

    def test_invariant_to_uniform_score_shift(self, rng):
        spec = ModelSpec("mlp", (1, 4, 4), 3, hidden=(6,), seed=11)
        params = init_model(spec)
        x = rng.uniform(0, 1, (1, 4, 4))
        base = vanilla_gsmap(params, x, 2)
        shifted_arrays = {k: v.copy() for k, v in params.arrays().items()}
        shifted_arrays["fc1.b"] = shifted_arrays["fc1.b"] + 7.5
        shifted = ParamSet.from_arrays(params.spec, shifted_arrays)
        np.testing.assert_array_equal(base.values, vanilla_gsmap(shifted, x, 2).values)

    def test_rejects_bad_class(self):
        params = linear_model(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            vanilla_gsmap(params, np.zeros(2), 5)


@pytest.mark.parametrize("method", [
    lambda params, x, y: vanilla_gsmap(params, x, y),
    lambda params, x, y: smooth_grad(params, x, y, n_samples=2, sigma=0.1, rng=0),
    lambda params, x, y: integrated_gradients(params, x, y, np.zeros_like(x), steps=2),
], ids=["vanilla", "smoothgrad", "integrated"])
@pytest.mark.parametrize("y", [-1, 3], ids=["negative", "n_classes"])
def test_every_method_rejects_class_out_of_range(method, y):
    # a negative index would otherwise wrap to the last class
    params = linear_model(np.eye(3))
    with pytest.raises(ValueError, match="out of range"):
        method(params, np.full((1, 1, 3), 0.5), y)


class TestSmoothGrad:
    def test_sigma_zero_equals_vanilla(self, rng):
        spec = ModelSpec("cnn", (1, 8, 8), 3, channels=(2, 2), seed=3)
        params = init_model(spec)
        x = rng.uniform(0, 1, (1, 8, 8))
        plain = vanilla_gsmap(params, x, 0)
        smooth = smooth_grad(params, x, 0, n_samples=4, sigma=0.0, rng=rng)
        np.testing.assert_array_equal(plain.values, smooth.values)

    def test_single_sample_equals_vanilla_of_noised(self):
        spec = ModelSpec("mlp", (1, 3, 3), 2, hidden=(5,), seed=1)
        params = init_model(spec)
        x = np.full((1, 3, 3), 0.5)
        sigma = 0.2
        smooth = smooth_grad(params, x, 1, n_samples=1, sigma=sigma, rng=np.random.default_rng(42))
        noise = np.random.default_rng(42).standard_normal((1, 1, 3, 3))[0]
        plain = vanilla_gsmap(params, x + sigma * noise, 1)
        np.testing.assert_array_equal(smooth.values, plain.values)

    def test_linear_model_mean_is_abs_weights(self, rng):
        w = rng.standard_normal((4, 2))
        params = linear_model(w)
        smap = smooth_grad(params, rng.uniform(0, 1, (1, 1, 4)), 0, n_samples=500, sigma=0.5, rng=rng)
        # constant gradient: every noisy copy contributes exactly |w|
        np.testing.assert_allclose(smap.values, np.abs(w[:, 0]).reshape(1, 4), rtol=1e-12)

    def test_validation(self):
        params = linear_model(np.eye(2))
        with pytest.raises(ValueError, match="n_samples"):
            smooth_grad(params, np.zeros(2), 0, n_samples=0, sigma=0.1)
        with pytest.raises(ValueError, match="sigma"):
            smooth_grad(params, np.zeros(2), 0, n_samples=1, sigma=-0.1)


class TestIntegratedGradients:
    def test_baseline_equals_input_gives_zero(self, rng):
        spec = ModelSpec("mlp", (1, 3, 3), 2, seed=5)
        params = init_model(spec)
        x = rng.uniform(0, 1, (1, 3, 3))
        smap = integrated_gradients(params, x, 0, baseline=x.copy(), steps=8)
        np.testing.assert_array_equal(smap.values, np.zeros((3, 3)))

    def test_linear_model_exact_and_steps_independent(self, rng):
        w = rng.standard_normal((4, 3))
        params = linear_model(w)
        x = rng.uniform(0.1, 1, (1, 1, 4))
        expected = np.abs(w[:, 2] * x[0, 0]).reshape(1, 4)
        for steps in (1, 7, 64):
            smap = integrated_gradients(params, x, 2, baseline=np.zeros((1, 1, 4)), steps=steps)
            np.testing.assert_allclose(smap.values, expected, rtol=1e-12)

    def test_completeness_on_cnn(self, rng):
        spec = ModelSpec("cnn", (1, 8, 8), 3, channels=(3, 4), seed=9)
        params = init_model(spec)
        x = rng.uniform(0.2, 1.0, (1, 8, 8))
        baseline = np.zeros_like(x)
        _, signed = integrated_gradients(params, x, 1, baseline, steps=128, return_signed=True)
        delta = scores_np(params, x)[1] - scores_np(params, baseline)[1]
        assert abs(signed.sum() - delta) <= 0.01 * abs(delta)

    def test_flat_input_rejected_like_other_methods(self):
        params = linear_model(np.eye(4)[:, :3])  # a (1, 1, 4) model
        x = np.full(4, 0.5)
        for saliency in (
            lambda: vanilla_gsmap(params, x, 0),
            lambda: smooth_grad(params, x, 0, n_samples=2, sigma=0.1, rng=0),
            lambda: integrated_gradients(params, x, 0, baseline=np.zeros(4), steps=4),
        ):
            with pytest.raises(ValueError, match="shape mismatch"):
                saliency()

    def test_baseline_shape_check(self):
        params = linear_model(np.eye(2))
        with pytest.raises(ValueError, match="baseline shape"):
            integrated_gradients(params, np.zeros(2), 0, baseline=np.zeros(3), steps=4)


class TestRegionAverage:
    def test_unit_region_is_identity(self, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (4, 6)), "vanilla")
        np.testing.assert_array_equal(region_average(smap, 1).values, smap.values)

    def test_two_by_two_mean(self):
        smap = SaliencyMap(np.array([[0.0, 2.0], [4.0, 6.0]]), "vanilla")
        np.testing.assert_allclose(region_average(smap, 2).values, np.full((2, 2), 3.0))

    def test_preserves_mean(self, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (8, 8)), "vanilla")
        out = region_average(smap, 4)
        np.testing.assert_allclose(out.values.mean(), smap.values.mean(), rtol=1e-12)

    def test_idempotent(self, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (8, 8)), "vanilla")
        once = region_average(smap, 2)
        twice = region_average(once, 2)
        np.testing.assert_allclose(once.values, twice.values, rtol=1e-12)

    def test_non_divisible_region(self, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (6, 6)), "vanilla")
        with pytest.raises(ValueError, match="divide"):
            region_average(smap, 4)

    def test_batch_matches_single(self, rng):
        maps = rng.uniform(0, 1, (5, 8, 8))
        batch = region_mean(maps, 2)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], region_average(SaliencyMap(maps[i], "vanilla"), 2).values)


class TestQuantileAndLowest:
    def test_zero_quantile_is_minimum(self):
        assert quantile_thresholds(np.array([[5.0, 1.0, 3.0]]), 0.0)[0] == 1.0

    def test_position_convention(self):
        # ascending [1,2,3,4,5], position floor(0.4*5) = 2 -> value 3
        assert quantile_thresholds(np.array([[5.0, 1.0, 3.0, 2.0, 4.0]]), 0.4)[0] == 3.0

    def test_full_quantile_sentinel(self):
        assert quantile_thresholds(np.array([[1.0, 2.0]]), 1.0)[0] == np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantile_thresholds(np.array([[]]), 0.5)

    def test_nan_fraction_rejected(self):
        smap = SaliencyMap(np.array([[5.0, 1.0], [3.0, 2.0]]), "vanilla")
        with pytest.raises(ValueError, match=r"quantile fraction must be in \[0, 1\], got nan"):
            lowest(smap, float("nan"))

    def test_lowest_zero_empty(self):
        smap = SaliencyMap(np.array([[5.0, 1.0], [3.0, 2.0]]), "vanilla")
        assert lowest(smap, 0.0).size == 0

    def test_lowest_known_indices(self):
        smap = SaliencyMap(np.array([5.0, 1.0, 3.0, 2.0, 4.0]).reshape(1, 5), "vanilla")
        np.testing.assert_array_equal(lowest(smap, 0.4), [1, 3])

    def test_lowest_all_equal_empty(self):
        smap = SaliencyMap(np.full((3, 3), 2.0), "vanilla")
        for q in (0.2, 0.5, 0.99):
            assert lowest(smap, q).size == 0

    def test_lowest_size_on_distinct(self, rng):
        vals = rng.permutation(100).astype(np.float64).reshape(10, 10)
        smap = SaliencyMap(vals, "vanilla")
        for q in (0.1, 0.37, 0.5, 0.93):
            assert lowest(smap, q).size == int(np.floor(q * 100))

    def test_monotone_nesting(self, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (6, 6)), "vanilla")
        prev: set = set()
        for q in (0.0, 0.15, 0.4, 0.7, 1.0):
            cur = set(lowest(smap, q).tolist())
            assert prev <= cur
            prev = cur


class TestLowestMasks:
    def test_matches_public_ops(self, rng):
        maps = rng.uniform(0, 1, (7, 8, 8))
        q = np.concatenate([rng.uniform(0.1, 0.9, 5), [0.0, 1.0]])
        masks = lowest_masks(maps, q)
        for i in range(7):
            flat = maps[i].ravel()
            pos = int(np.floor(q[i] * flat.size))
            thr = np.sort(flat)[pos] if pos < flat.size else np.inf
            np.testing.assert_array_equal(np.flatnonzero(masks[i]), np.flatnonzero(flat < thr))
            expected = lowest(SaliencyMap(maps[i], "vanilla"), q[i])
            np.testing.assert_array_equal(np.flatnonzero(masks[i]), expected)

    def test_fraction_out_of_range(self, rng):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lowest_masks(rng.uniform(0, 1, (2, 4, 4)), [0.5, 1.5])


class TestExport:
    def test_pgm_header_and_size(self, tmp_path, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (5, 7)), "vanilla")
        path = tmp_path / "m.pgm"
        save_pgm(smap, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n7 5\n255\n")
        assert len(blob) == len(b"P5\n7 5\n255\n") + 35

    def test_csv_round_trip(self, tmp_path, rng):
        smap = SaliencyMap(rng.uniform(0, 1, (3, 4)), "vanilla")
        path = tmp_path / "m.csv"
        save_csv(smap, path)
        back = np.array([[float(v) for v in line.split(",")] for line in path.read_text().splitlines()])
        np.testing.assert_array_equal(back, smap.values)

    @pytest.mark.parametrize("save", [save_pgm, save_csv])
    def test_failed_replace_keeps_old_file(self, tmp_path, rng, monkeypatch, save):
        path = tmp_path / "m.out"
        save(SaliencyMap(rng.uniform(0, 1, (3, 4)), "vanilla"), path)
        old = path.read_bytes()

        def fail(src, dst):
            raise error

        monkeypatch.setattr(os, "replace", fail)
        error = OSError("replace refused")
        with pytest.raises(OSError, match="replace refused"):
            save(SaliencyMap(rng.uniform(0, 1, (3, 4)), "vanilla"), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.out"]
        error = KeyboardInterrupt()   # not an OSError: raised unchanged, and the temp file still goes
        with pytest.raises(KeyboardInterrupt) as caught:
            save(SaliencyMap(rng.uniform(0, 1, (3, 4)), "vanilla"), path)
        assert caught.value is error
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.out"]
