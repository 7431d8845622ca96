"""Named, independent RNG streams.

Each consumer (weight init, data order, perturbation init, noise, eval
fill, synthesis) draws from its own stream so that enabling one feature
never shifts the randomness of another.
"""

from __future__ import annotations

import numpy as np

INIT = 0
DATA = 1
PGD = 2
SMOOTH = 3
EVAL = 4
SYNTH = 5


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *key])


def as_generator(rng, key: int) -> np.random.Generator:
    """A generator as given; an integer seed, or None for 0, as its ``key`` stream."""
    if rng is None or isinstance(rng, (int, np.integer)):
        return stream(rng or 0, key)
    return rng
