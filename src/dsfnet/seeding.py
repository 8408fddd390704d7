"""Deterministic seed derivation for parallel-safe experiments.

Every unit of work (window, sweep cell, model replicate) gets its own RNG
seeded by mixing a master seed with the unit's index. Serial and parallel
schedules therefore draw identical random streams.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# The tag of every stream the package draws from, its first index after
# the master seed; one entry per stream, so no two streams share a seed.
# Replicate k of a sweep takes tag "replicate" + k. (The acceptance tests
# draw their cell seeds with tag 9.)
STREAMS = {"model_init": 0xD5F, "batch_order": 1, "dropout": 2,
           "augmentation": 3, "feature_augmentation": 4, "cell": 5,
           "replicate": 100}


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Mix a master seed with one or more stream indices into a new seed.

    The master is mixed before the first index, so (m, i) and (m', i')
    with m ^ i == m' ^ i' draw different seeds."""
    x = splitmix64(master_seed & _MASK64)
    for idx in indices:
        x = splitmix64(x ^ (idx & _MASK64))
    return x


def rng_for(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator seeded from (master_seed, indices); scheduling-independent."""
    return np.random.default_rng(derive_seed(master_seed, *indices))
