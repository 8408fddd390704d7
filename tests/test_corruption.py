import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet.corruption import (CorruptionSpec, augment_batch,
                               corrupt_recording, corrupt_window,
                               corruption_fraction, draw_mask, psd_slope,
                               sample_mask, _draw_params)
from dsfnet.seeding import rng_for


def test_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(p=1.5)
    with pytest.raises(ValueError):
        CorruptionSpec(eta_range=(0.8, 0.2))
    with pytest.raises(ValueError):
        CorruptionSpec(sigma_range_uv=(0.0, 10.0))
    with pytest.raises(ValueError, match="^sigma_range_uv must satisfy"):
        CorruptionSpec(sigma_range_uv=(20.0, np.inf))
    with pytest.raises(ValueError):
        CorruptionSpec(scope="sometimes")


def test_sample_mask_probability(rng):
    masks = np.stack([sample_mask(8, 0.3, rng) for _ in range(5000)])
    assert set(np.unique(masks)) <= {0.0, 1.0}
    assert masks.mean() == pytest.approx(0.3, abs=0.02)
    np.testing.assert_array_equal(sample_mask(4, 0.0, rng), np.zeros(4))
    np.testing.assert_array_equal(sample_mask(4, 1.0, rng), np.ones(4))


def test_corrupt_window_eta_zero_is_identity(rng):
    X = rng.normal(size=(4, 500))
    out = corrupt_window(X, np.ones(4), 0.0, 30.0, rng)
    assert np.array_equal(out, X)
    assert out is not X


def test_corrupt_window_unmasked_channels_untouched(rng):
    X = rng.normal(size=(4, 500))
    nu = np.array([1.0, 0.0, 1.0, 0.0])
    out = corrupt_window(X, nu, 0.7, 30.0, rng)
    assert np.array_equal(out[1], X[1])
    assert np.array_equal(out[3], X[3])
    assert not np.array_equal(out[0], X[0])


def test_corrupt_window_full_noise_statistics():
    # nu=1, eta=1: output is pure N(0, sigma^2), independent of X.
    rng = rng_for(0, 1)
    X = np.full((3, 3000), 1e6)
    out = corrupt_window(X, np.ones(3), 1.0, 40.0, rng)
    stds = out.std(axis=1)
    assert np.all(np.abs(stds - 40.0) / 40.0 < 0.05)
    # Same rng state, different input: identical noise.
    out2 = corrupt_window(np.zeros((3, 3000)), np.ones(3), 1.0, 40.0,
                          rng_for(0, 1))
    np.testing.assert_array_equal(out, out2)


def test_corrupt_window_variance_interpolation():
    # Signal and noise are independent, so
    # var = (1-eta)^2 var_X + eta^2 sigma^2.
    rng = np.random.default_rng(2)
    X = rng.normal(0.0, 10.0, size=(1, 200000))
    eta, sigma = 0.6, 30.0
    out = corrupt_window(X, np.ones(1), eta, sigma, rng)
    expected = (1 - eta) ** 2 * 100.0 + eta**2 * sigma**2
    assert out.var() == pytest.approx(expected, rel=0.02)


def test_corrupt_window_validation(rng):
    X = np.zeros((2, 10))
    with pytest.raises(ValueError):
        corrupt_window(X, np.ones(2), 1.5, 30.0, rng)
    with pytest.raises(ValueError):
        corrupt_window(X, np.ones(2), 0.5, 0.0, rng)
    for sigma in (float("nan"), np.inf):
        with pytest.raises(ValueError, match="sigma must be positive"):
            corrupt_window(X, np.ones(2), 0.5, sigma, rng)


def test_augment_batch_is_batching_invariant():
    # The same window index gives the same corruption regardless of how
    # the stream is chopped into batches.
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(6, 4, 300))
    spec = CorruptionSpec()
    full = augment_batch(batch, spec, master_seed=42)
    part1 = augment_batch(batch[:2], spec, 42, index_offset=0)
    part2 = augment_batch(batch[2:], spec, 42, index_offset=2)
    np.testing.assert_array_equal(full, np.concatenate([part1, part2]))


def test_augment_batch_requires_per_window_scope(rng):
    spec = CorruptionSpec(scope="per_recording")
    with pytest.raises(ValueError):
        augment_batch(rng.normal(size=(1, 2, 100)), spec, 0)


def test_recording_mask_forced_count(rng):
    spec = CorruptionSpec(forced_count=3, scope="per_recording")
    for _ in range(50):
        nu = draw_mask(6, spec, rng)
        assert nu.sum() == 3.0
    with pytest.raises(ValueError, match="exceeds"):
        draw_mask(2, spec, rng)


@pytest.mark.parametrize("entry", [0.5, 2.0, float("nan")])
def test_spec_rejects_forced_mask_entries_other_than_0_and_1(entry):
    # Before, 0.5 and 2.0 corrupted the channel fully and NaN left it clean.
    with pytest.raises(ValueError, match="forced_mask entries must be 0 or 1"):
        CorruptionSpec(forced_mask=np.array([1.0, entry, 0.0]))


def test_spec_rejects_a_forced_mask_that_is_not_1d():
    with pytest.raises(ValueError,
                       match=r"forced_mask must be 1-D, got shape \(2, 3\)"):
        CorruptionSpec(forced_mask=np.ones((2, 3)), scope="per_recording")


def test_spec_rejects_forced_mask_and_forced_count_together():
    # Before, the count was silently ignored.
    with pytest.raises(ValueError, match="forced_mask or forced_count"):
        CorruptionSpec(forced_mask=np.ones(3), forced_count=1)


def test_spec_rejects_negative_forced_count():
    with pytest.raises(ValueError, match="forced_count must be >= 0, got -3"):
        CorruptionSpec(forced_count=-3, scope="per_recording")
    assert CorruptionSpec(forced_count=0).forced_count == 0


def test_recording_mask_forced_mask(rng):
    forced = np.array([1.0, 0.0, 1.0])
    spec = CorruptionSpec(forced_mask=forced, scope="per_recording")
    np.testing.assert_array_equal(draw_mask(3, spec, rng), forced)


def test_draw_mask_rejects_forced_mask_of_wrong_shape(rng):
    spec = CorruptionSpec(forced_mask=np.ones(3), scope="per_recording")
    with pytest.raises(ValueError, match=r"shape \(3,\) is not \(6,\)"):
        draw_mask(6, spec, rng)
    with pytest.raises(ValueError, match="shape"):
        corrupt_recording(np.zeros((2, 6, 300)), spec, rng)


def _corrupted_channels(before, after):
    return np.any(before != after, axis=-1)


def test_augment_batch_honours_forced_count_and_mask():
    rng = np.random.default_rng(8)
    batch = rng.normal(size=(200, 6, 300))
    out = augment_batch(batch, CorruptionSpec(forced_count=2), master_seed=9)
    hit = _corrupted_channels(batch, out)
    np.testing.assert_array_equal(hit.sum(axis=1), np.full(200, 2))
    assert hit.any(axis=0).all()  # each window draws its own channels
    forced = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    out = augment_batch(batch, CorruptionSpec(forced_mask=forced), 9)
    np.testing.assert_array_equal(_corrupted_channels(batch, out),
                                  np.broadcast_to(forced > 0, (200, 6)))


def test_augment_batch_default_spec_matches_per_window_reference():
    # Guard: the default spec draws mask, eta, sigma and Z per window in
    # the same order as a sample_mask + _draw_params + corrupt_window loop.
    rng = np.random.default_rng(10)
    batch = rng.normal(size=(16, 5, 300))
    spec = CorruptionSpec()
    want = np.empty_like(batch)
    for i, X in enumerate(batch):
        wrng = rng_for(11, 3 + i)
        nu = sample_mask(5, spec.p, wrng)
        eta, sigma = _draw_params(spec, wrng)
        want[i] = corrupt_window(X, nu, eta, sigma, wrng)
    got = augment_batch(batch, spec, master_seed=11, index_offset=3)
    assert got.tobytes() == want.tobytes()


def window_by_window_corrupt(X, nu, eta, sigma_uv, rng):
    """corrupt_window as it was before it mixed in place: the oracle."""
    X = np.asarray(X, dtype=np.float64)
    masked = np.asarray(nu, dtype=np.float64) > 0
    if eta == 0.0 or not masked.any():
        return X.copy()
    out = X.copy()
    Z = rng.normal(0.0, sigma_uv, size=(int(masked.sum()), X.shape[1]))
    out[masked] = (1.0 - eta) * X[masked] + eta * Z
    return out


@settings(max_examples=60, deadline=None)
@given(eta_range=st.sampled_from([(0.5, 0.5), (1.0, 1.0), (0.0, 1.0),
                                  (0.3, 0.8), (0.0, 0.0)]),
       sigma_range=st.sampled_from([(20.0, 50.0), (30.0, 30.0)]),
       p=st.sampled_from([0.0, 0.5, 1.0]),
       count=st.sampled_from([None, 0, 2, 6]),
       n_win=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_corruption_matches_window_by_window_oracle(eta_range, sigma_range,
                                                    p, count, n_win, seed):
    windows = np.random.default_rng(seed).normal(0.0, 10.0,
                                                 size=(n_win, 6, 64))
    kw = dict(p=p, eta_range=eta_range, sigma_range_uv=sigma_range,
              forced_count=count)
    # Per window: each window its own rng, mask, eta, sigma, then noise.
    spec = CorruptionSpec(**kw)
    want = np.empty_like(windows)
    for i, X in enumerate(windows):
        rng = rng_for(seed, 2 + i)
        nu = draw_mask(6, spec, rng)
        eta, sigma = _draw_params(spec, rng)
        want[i] = window_by_window_corrupt(X, nu, eta, sigma, rng)
    got = augment_batch(windows, spec, seed, index_offset=2)
    assert got.tobytes() == want.tobytes()
    # Per recording: one mask, then eta, sigma and noise window by window.
    spec = CorruptionSpec(scope="per_recording", **kw)
    rng = rng_for(seed, 1)
    nu = draw_mask(6, spec, rng)
    for i, X in enumerate(windows):
        eta, sigma = _draw_params(spec, rng)
        want[i] = window_by_window_corrupt(X, nu, eta, sigma, rng)
    got = corrupt_recording(windows, spec, rng_for(seed, 1))
    assert got.tobytes() == want.tobytes()
    # One window.
    eta, sigma = eta_range[1], sigma_range[0]
    got = corrupt_window(windows[0], nu, eta, sigma, rng_for(seed, 3))
    want = window_by_window_corrupt(windows[0], nu, eta, sigma,
                                    rng_for(seed, 3))
    assert got.tobytes() == want.tobytes()


def test_corruption_leaves_its_input_unchanged():
    windows = np.random.default_rng(5).normal(size=(4, 3, 300))
    before = windows.copy()
    out = augment_batch(windows, CorruptionSpec(p=1.0), 0)
    assert not np.array_equal(out, windows)
    corrupt_recording(windows, CorruptionSpec(p=1.0, scope="per_recording"),
                      rng_for(0, 1))
    corrupt_window(windows[0], np.ones(3), 1.0, 30.0, rng_for(0, 2))
    assert windows.tobytes() == before.tobytes()


def test_corrupt_recording_shares_one_mask():
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(8, 5, 400))
    spec = CorruptionSpec(scope="per_recording", eta_range=(1.0, 1.0))
    out = corrupt_recording(windows, spec, rng_for(0, 7))
    assert out.shape == windows.shape
    # Re-derive the mask the function drew.
    nu = draw_mask(5, spec, rng_for(0, 7))
    for Xin, Xout in zip(windows, out):
        for ch in range(5):
            if nu[ch] == 0.0:
                assert np.array_equal(Xout[ch], Xin[ch])
            else:
                assert not np.array_equal(Xout[ch], Xin[ch])


def test_corrupt_recording_validation(rng):
    with pytest.raises(ValueError):
        corrupt_recording(np.zeros((1, 2, 300)), CorruptionSpec(), rng)
    spec = CorruptionSpec(scope="per_recording")
    with pytest.raises(ValueError):
        corrupt_recording(np.zeros((0, 2, 300)), spec, rng)


# ---------------------------------------------------------------------------
# Detector


def synth_power_law(exponent, T, sfreq, rng):
    """Signal whose periodogram follows f^exponent over the full band."""
    freqs = np.fft.rfftfreq(T, d=1.0 / sfreq)
    amp = np.zeros_like(freqs)
    amp[1:] = freqs[1:] ** (exponent / 2.0)
    phase = rng.uniform(0, 2 * np.pi, size=len(freqs))
    spec = amp * np.exp(1j * phase)
    spec[0] = 0.0
    return np.fft.irfft(spec, n=T)


@pytest.mark.parametrize("exponent", [-2.0, -1.0, 0.0, 1.0])
def test_psd_slope_recovers_power_law(exponent, rng):
    x = synth_power_law(exponent, 4096, 100.0, rng)
    slope = psd_slope(x, 0.1, 30.0, 100.0)
    assert slope == pytest.approx(exponent, abs=0.15)


def test_psd_slope_white_noise_is_flat(rng):
    slopes = [psd_slope(rng.normal(size=3000), 0.1, 30.0, 100.0)
              for _ in range(10)]
    assert abs(np.mean(slopes)) < 0.1


def test_psd_slope_validation(rng):
    with pytest.raises(ValueError, match="256"):
        psd_slope(np.zeros(100), 0.1, 30.0, 100.0)
    with pytest.raises(ValueError, match="bins"):
        psd_slope(rng.normal(size=1000), 45.01, 45.02, 100.0)
    # 1000 samples at 100 Hz: bins every 0.1 Hz, one of them near 10 Hz.
    with pytest.raises(ValueError, match="2 or more frequency bins.*got 1"):
        psd_slope(rng.normal(size=(2, 1000)), 9.95, 10.05, 100.0)


@pytest.mark.parametrize("T", [600, 777])
def test_psd_slope_on_stacks_matches_polyfit(T):
    # Guard: the closed-form slope of every channel of an (n, C, T) stack
    # equals a per-channel np.polyfit fit.
    rng = np.random.default_rng(T)
    X = rng.normal(size=(5, 3, T)) * rng.uniform(1.0, 50.0, size=(5, 3, 1))
    X[0, 1] = np.cumsum(X[0, 1])  # a steep spectrum too
    slopes = psd_slope(X, 0.1, 30.0, 100.0)
    assert slopes.shape == (5, 3)
    freqs = np.fft.rfftfreq(T, d=1.0 / 100.0)
    sel = (freqs >= 0.1) & (freqs <= 30.0) & (freqs > 0)
    for idx in np.ndindex(5, 3):
        power = np.abs(np.fft.rfft(X[idx])) ** 2 / T
        want = np.polyfit(np.log10(freqs[sel]),
                          np.log10(np.maximum(power[sel], 1e-300)), 1)[0]
        assert abs(slopes[idx] - want) <= 1e-12


def test_corruption_fraction_counts_noised_channels():
    rng = np.random.default_rng(6)
    # Steep-spectrum low-power "physiological" channels vs. loud white noise.
    windows = []
    for _ in range(5):
        X = np.stack([synth_power_law(-2.0, 600, 100.0, rng) for _ in range(4)])
        X *= 10.0 / X.std(axis=1, keepdims=True)
        X[1] = rng.normal(0.0, 40.0, size=600)
        X[3] = rng.normal(0.0, 40.0, size=600)
        windows.append(X)
    assert corruption_fraction(windows, 100.0) == pytest.approx(0.5, abs=0.05)


def test_corruption_fraction_clean_is_zero():
    rng = np.random.default_rng(7)
    windows = []
    for _ in range(3):
        X = np.stack([synth_power_law(-2.0, 600, 100.0, rng) for _ in range(3)])
        X *= 10.0 / X.std(axis=1, keepdims=True)
        windows.append(X)
    assert corruption_fraction(windows, 100.0) == 0.0
    with pytest.raises(ValueError):
        corruption_fraction([], 100.0)
