import numpy as np
import pytest

from scaat import seeds
from scaat.adversarial import AdvConfig, pgd_masked
from scaat.metrics import perturbation_curve
from scaat.models import ModelSpec, init_model
from scaat.saliency import SaliencyMap, smooth_grad

PARAMS = init_model(ModelSpec("mlp", (1, 4, 4), 3, hidden=(5,), seed=1))
X = np.random.default_rng(0).uniform(0.2, 0.8, (1, 4, 4))
SMAP = SaliencyMap(np.arange(16.0).reshape(4, 4), "vanilla")

RANDOMIZED = {
    "smooth_grad": lambda rng: smooth_grad(PARAMS, X, 0, n_samples=3, sigma=0.2, rng=rng).values,
    "pgd_masked": lambda rng: pgd_masked(PARAMS, X, 0, AdvConfig(epsilon=0.1, k=2), np.arange(8), rng=rng).delta,
    "perturbation_curve": lambda rng: perturbation_curve(
        PARAMS, X, SMAP, "lerf", steps=4, fraction=0.5, repeats=2, region=2, rng=rng
    ).values,
}


@pytest.mark.parametrize("run", RANDOMIZED.values(), ids=RANDOMIZED.keys())
def test_numpy_integer_seed_equals_int_seed(run):
    want = run(3)
    for seed in (np.int64(3), np.int32(3), np.uint8(3)):
        np.testing.assert_array_equal(run(seed), want)
    np.testing.assert_array_equal(run(None), run(0))


def test_generator_passes_through():
    rng = np.random.default_rng(5)
    assert seeds.as_generator(rng, seeds.SMOOTH) is rng


# every key tuple the package draws a stream with
KEYS = (*((k,) for k in (seeds.INIT, seeds.DATA, seeds.PGD, seeds.SMOOTH, seeds.EVAL, seeds.SYNTH)), (seeds.SYNTH, 7))


def _draws(seed, *key):
    return seeds.stream(seed, *key).integers(0, 2**63, size=4)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**31, 2**32 - 1])
def test_narrow_seed_draws_as_its_entropy_list(seed):
    # seeds below 2**32 keep their draws, so every artifact keeps its bytes
    for key in KEYS:
        want = np.random.default_rng([seed, *key]).integers(0, 2**63, size=4)
        np.testing.assert_array_equal(_draws(seed, *key), want)


@pytest.mark.parametrize("wide, narrow", [(2**32, 0), (2**32 + 7, 7), (2**64 - 1, 2**32 - 1), (2**64, 0)])
def test_wide_seed_repeats_no_narrow_stream(wide, narrow):
    # masking to 32 bits made stream(2**32) draw as stream(0); a bare
    # [2**32, INIT] list would draw as [0, DATA]
    seen = {tuple(_draws(s, *key)) for s in (narrow, 0, 1) for key in KEYS}
    for key in KEYS:
        assert tuple(_draws(wide, *key)) not in seen


def test_wide_seeds_keep_their_streams_apart():
    wide = [(s, *key) for s in (2**32, 2**33, 2**64, 2**128, 2**160) for key in ((0,), (1,), (5, 7), (0, 0))]
    assert len({tuple(_draws(*args)) for args in wide}) == len(wide)


def test_negative_seed_rejected():
    # masking made stream(-1) draw as stream(2**32 - 1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        seeds.stream(-1, seeds.INIT)
