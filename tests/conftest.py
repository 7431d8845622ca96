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


def flip_every_bit(data: bytes, load, typed_error):
    """Call ``load`` on ``data`` with each of its bits flipped in turn.

    Each call must return or raise ``typed_error``; any other exception
    fails with the bit's index. Returns one outcome per bit: the loaded
    value, or the typed error raised."""
    outcomes = []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            outcomes.append(load(bytes(flipped)))
        except typed_error as exc:
            outcomes.append(exc)
        except Exception as exc:
            raise AssertionError(f"bit {bit} (byte {bit // 8}) escaped as {exc!r}") from exc
    return outcomes


def linear_model(w, b=None, input_shape=None):
    """MLP with no hidden layer: scores = flatten(x) @ w + b."""
    w = np.asarray(w, dtype=np.float64)
    d, c = w.shape
    spec = ModelSpec("mlp", input_shape or (1, 1, d), c, hidden=())
    return ParamSet.from_arrays(spec, {"fc0.w": w, "fc0.b": np.zeros(c) if b is None else b})


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
