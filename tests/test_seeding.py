import numpy as np

from dsfnet.harness import ExperimentConfig, sweep_units
from dsfnet.seeding import STREAMS, derive_seed, rng_for, splitmix64
from dsfnet.synth import SynthConfig, generate_dataset


def test_splitmix64_known_vector():
    # First output of the reference splitmix64 stream seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= splitmix64(x) < 2**64


def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1) != derive_seed(8, 1)


def test_derive_seed_collision_free_over_small_grid():
    seen = {derive_seed(0, i, j) for i in range(100) for j in range(100)}
    assert len(seen) == 100 * 100


def test_derive_seed_collision_free_over_masters_and_indices():
    # Mixing the master only after xor-ing in the index gave
    # derive_seed(m, i) == derive_seed(m ^ 1, i ^ 1).
    one = [derive_seed(m, i) for m in range(64) for i in range(64)]
    two = [derive_seed(m, i, j) for m in range(16) for i in range(16)
           for j in range(16)]
    assert len(set(one + two)) == len(one) + len(two)


def test_stream_tags_are_distinct():
    assert len(set(STREAMS.values())) == len(STREAMS)


def test_adjacent_generator_seeds_share_no_recording():
    cfg = SynthConfig(n_channels=3, n_times=128, n_recordings=8,
                      windows_per_recording=2, n_classes=1)
    a, b = (generate_dataset(cfg, seed).recordings for seed in (0, 1))
    assert not any(np.array_equal(ra.windows, rb.windows)
                   for ra in a for rb in b)


def test_sweep_units_of_adjacent_masters_share_no_seed():
    seeds = [unit.seed for master in range(10)
             for unit in sweep_units(
                 ExperimentConfig(n_seeds=3, master_seed=master), 6)]
    assert len(set(seeds)) == len(seeds) == 30


def test_rng_for_reproducible_independent_streams():
    a = rng_for(5, 3).normal(size=10)
    b = rng_for(5, 3).normal(size=10)
    c = rng_for(5, 4).normal(size=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
