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
