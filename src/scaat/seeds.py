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
    """The ``key`` stream of a non-negative ``seed``.

    A seed below 2**32 seeds ``[seed, *key]``. A wider one goes in as
    the entropy of a ``SeedSequence`` with the keys and their count as
    its spawn key: the sequence pads that entropy to four words, so it
    never reads as a narrower seed's list (``[2**32, INIT]`` would read
    as ``[0, DATA]``), and the count keeps two wide seeds apart.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed < 2**32:
        return np.random.default_rng([seed, *key])
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, len(key))))


def as_generator(rng, key: int) -> np.random.Generator:
    """A generator as given; an integer seed, or None for 0, as its ``key`` stream."""
    if rng is None or isinstance(rng, (int, np.integer)):
        return stream(rng or 0, key)
    return rng
