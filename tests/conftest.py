import tracemalloc

import numpy as np
import pytest

from scaat.models import ModelSpec, ParamSet


def fd_grad(f, x, h=1e-4):
    """Central finite differences of a scalar function, the gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def kept_bytes(build):
    """``build()``'s result and the bytes allocated during the call that
    are still held when it returns, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def linear_model(w, b=None, input_shape=None):
    """MLP with no hidden layer: scores = flatten(x) @ w + b."""
    w = np.asarray(w, dtype=np.float64)
    d, c = w.shape
    spec = ModelSpec("mlp", input_shape or (1, 1, d), c, hidden=())
    return ParamSet.from_arrays(spec, {"fc0.w": w, "fc0.b": np.zeros(c) if b is None else b})


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
