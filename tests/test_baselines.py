import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet.baselines import (HANDCRAFTED_NAMES, POWER_BAND_EDGES,
                              RIEMANN_BANDS, LogisticRegression,
                              aggregate_recording, band_cov_stack,
                              handcrafted_features, handcrafted_length,
                              impute_apply, impute_fit, riemann_length,
                              riemann_vectorize, zscore_apply, zscore_fit)
from dsfnet.linalg import EIG_FLOOR, oas_shrink, sample_covariance


def test_feature_lengths():
    assert len(HANDCRAFTED_NAMES) == 22
    assert handcrafted_length(6) == 132
    assert riemann_length(6) == 7 * 21
    assert riemann_length(4) == 7 * 10


def test_filterbank_isolates_sinusoid():
    # A 10 Hz tone's power must land in the 8-15 Hz band's covariance and
    # in no other band's.
    t = np.arange(1000) / 100.0
    X = np.sin(2 * np.pi * 10.0 * t)[None, :]
    powers = band_cov_stack(X, 100.0)[:, 0, 0]
    target = RIEMANN_BANDS.index((8.0, 15.0))
    assert powers[target] == pytest.approx(0.5 * 1000 / 999, rel=1e-6)
    for i, p in enumerate(powers):
        if i != target:
            assert p < 1e-20


def test_filterbank_rejects_band_above_nyquist():
    with pytest.raises(ValueError, match="Nyquist"):
        band_cov_stack(np.zeros((1, 100)), 20.0)


def filterbank_band_covs(X, sfreq):
    """Band covariances the long way: brick-wall band-pass every band with
    one irfft (bands closed at both ends), then sample_covariance and
    OAS."""
    T = X.shape[-1]
    spec = np.fft.rfft(X, axis=-1)[..., None, :, :]
    freqs = np.fft.rfftfreq(T, d=1.0 / sfreq)
    lo, hi = np.asarray(RIEMANN_BANDS).T
    keep = (freqs >= lo[:, None]) & (freqs <= hi[:, None])
    bands = np.fft.irfft(spec * keep[:, None, :], n=T, axis=-1)
    return oas_shrink(sample_covariance(bands), T)


def assert_matches_filterbank(X, sfreq):
    got = band_cov_stack(X, sfreq)
    ref = filterbank_band_covs(X, sfreq)
    np.testing.assert_allclose(got, ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())
    return got


@settings(max_examples=40, deadline=None)
@given(n_win=st.integers(1, 4), C=st.integers(1, 5), T=st.integers(16, 240),
       sfreq=st.sampled_from([98.0, 100.0, 250.0]),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 30.0]))
def test_band_covs_match_filterbank_oracle(n_win, C, T, sfreq, seed, scale):
    X = np.random.default_rng(seed).normal(size=(n_win, C, T)) * scale
    assert_matches_filterbank(X, sfreq)


@pytest.mark.parametrize("T", [200, 199])
def test_band_covs_match_filterbank_with_band_at_nyquist(rng, T):
    # At 98 Hz the 35-49 Hz band ends at Nyquist; an even T has that bin.
    assert RIEMANN_BANDS[-1][1] == 98.0 / 2
    if T % 2 == 0:
        assert np.fft.rfftfreq(T, d=1.0 / 98.0)[-1] == 49.0
    assert_matches_filterbank(rng.normal(size=(3, 4, T)), 98.0)


def test_band_covs_match_filterbank_on_flat_and_duplicated_channels(rng):
    X = rng.normal(size=(2, 4, 300)) * 20.0
    X[0, 1] = 0.0
    X[1, 2] = 1.5
    X[1, 3] = X[1, 0]
    assert_matches_filterbank(X, 100.0)


def test_band_with_no_bin_is_the_eigenvalue_floor(rng):
    # At T = 16 and 100 Hz the bins are 6.25 Hz apart: the 0.1-1.5 Hz band
    # holds none.
    covs = assert_matches_filterbank(rng.normal(size=(2, 3, 16)), 100.0)
    empty = RIEMANN_BANDS.index((0.1, 1.5))
    np.testing.assert_array_equal(covs[:, empty],
                                  np.broadcast_to(EIG_FLOOR * np.eye(3),
                                                  (2, 3, 3)))


def test_riemann_features_shape_and_finiteness(rng):
    X = rng.normal(size=(4, 500)) * 10.0
    covs = band_cov_stack(X, 100.0)
    assert covs.shape == (7, 4, 4)
    out = riemann_vectorize(covs)
    assert out.shape == (riemann_length(4),)
    assert np.all(np.isfinite(out))


def test_handcrafted_statistical_features_oracle(rng):
    x = rng.normal(3.0, 2.0, size=2000)
    X = x[None, :]
    values = handcrafted_features(X, 100.0)
    named = dict(zip(HANDCRAFTED_NAMES, values))
    assert named["mean"] == pytest.approx(x.mean(), rel=1e-12)
    assert named["std"] == pytest.approx(x.std(), rel=1e-12)
    assert named["rms"] == pytest.approx(np.sqrt((x**2).mean()), rel=1e-12)
    assert named["kurtosis"] == pytest.approx(scipy.stats.kurtosis(x), abs=1e-9)
    assert named["skewness"] == pytest.approx(scipy.stats.skew(x), abs=1e-9)
    assert named["q25"] == pytest.approx(np.quantile(x, 0.25), rel=1e-12)
    assert named["ptp"] == pytest.approx(x.max() - x.min(), rel=1e-12)
    assert named["line_length"] == pytest.approx(np.abs(np.diff(x)).sum(),
                                                rel=1e-12)


def test_handcrafted_sine_oracle():
    # 5 Hz sine at 100 Hz for 10 s: 100 zero crossings, energy in the
    # 4-8 Hz band, Hjorth mobility = 2 sin(pi f / sfreq).
    t = np.arange(1000) / 100.0
    x = np.sin(2 * np.pi * 5.0 * t)
    named = dict(zip(HANDCRAFTED_NAMES,
                     handcrafted_features(x[None], 100.0)))
    assert named["zero_crossings"] == pytest.approx(100, abs=1)
    band_keys = [k for k in HANDCRAFTED_NAMES if k.startswith("logpow")]
    best = max(band_keys, key=lambda k: named[k])
    assert best == "logpow_4_8"
    assert named["hjorth_mobility"] == pytest.approx(
        2 * np.sin(np.pi * 5.0 / 100.0), rel=1e-3)


def reference_channel_features(x, sfreq):
    """The 22 features of one channel, one statistic at a time."""
    T = len(x)
    centered = x - x.mean()
    var = centered.var()
    std = np.sqrt(var)
    moments = ([np.mean(centered**4) / var**2 - 3.0,
                np.mean(centered**3) / std**3] if std > 0 else [0.0, 0.0])
    spec = np.abs(np.fft.rfft(x)) ** 2 / T
    freqs = np.fft.rfftfreq(T, d=1.0 / sfreq)
    edges = POWER_BAND_EDGES
    log_powers = [
        np.log(max(spec[(freqs >= lo) & (freqs < hi)].sum(), 1e-300))
        for lo, hi in zip(edges[:-1], edges[1:])]
    dx = np.diff(x)
    var_dx = dx.var()
    mobility = np.sqrt(var_dx / var) if var > 0 else 0.0
    mobility_dx = np.sqrt(np.diff(dx).var() / var_dx) if var_dx > 0 else 0.0
    complexity = mobility_dx / mobility if mobility > 0 else 0.0
    return [x.mean(), std, np.sqrt(np.mean(x**2)), *moments,
            *np.quantile(x, (0.1, 0.25, 0.75, 0.9)), x.max() - x.min(),
            *log_powers, mobility, complexity, np.abs(dx).sum(),
            float(np.sum(np.sign(x[:-1]) * np.sign(x[1:]) < 0))]


def test_handcrafted_matches_per_channel_reference(rng):
    X = rng.normal(size=(3, 4, 300)) * 20.0
    X[0, 1] = 0.0  # flat
    X[1, 2] = 1.5  # constant
    X[2, 3] = X[2, 0]  # duplicated
    got = handcrafted_features(X, 100.0).reshape(3, 4, -1)
    ref = np.array([[reference_channel_features(ch, 100.0) for ch in x]
                    for x in X])
    # Array powers round differently from scalar ones by a few ulp.
    moments = np.isin(HANDCRAFTED_NAMES, ("kurtosis", "skewness"))
    assert np.array_equal(got[..., ~moments], ref[..., ~moments])
    np.testing.assert_allclose(got[..., moments], ref[..., moments],
                               rtol=1e-13, atol=1e-14)


def test_zero_crossings_skip_exact_zeros_and_nan():
    x = np.array([[1.0, 0.0, -1.0, 0.0, 1.0, -2.0, 2.0],
                  [1.0, -1.0, np.nan, -1.0, 1.0, 0.0, -3.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    named = handcrafted_features(x, 100.0).reshape(3, -1)
    got = named[:, HANDCRAFTED_NAMES.index("zero_crossings")]
    ref = [reference_channel_features(ch, 100.0)[-1] for ch in x]
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(got, [2.0, 2.0, 0.0])


def test_handcrafted_flat_channel_is_finite():
    values = handcrafted_features(np.zeros((2, 500)), 100.0)
    assert np.all(np.isfinite(values))


def test_impute(rng):
    F = rng.normal(size=(6, 3))
    F[0, 1] = np.nan
    F[3, 1] = np.inf
    means = impute_fit(F)
    finite = np.isfinite(F[:, 1])
    assert means[1] == pytest.approx(F[finite, 1].mean())
    out = impute_apply(F, means)
    assert np.all(np.isfinite(out))
    assert out[0, 1] == out[3, 1] == pytest.approx(means[1])
    # All-bad column imputes to 0.
    G = np.full((3, 1), np.nan)
    assert impute_fit(G)[0] == 0.0


def test_zscore(rng):
    F = rng.normal(5.0, 3.0, size=(200, 4))
    F[:, 2] = 7.0  # constant column
    mean, std = zscore_fit(F)
    out = zscore_apply(F, mean, std)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, 2], 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0)[[0, 1, 3]], 1.0, rtol=1e-12)


def test_logistic_regression_learns_separable_blobs(rng):
    X = np.concatenate([rng.normal(-2.0, 1.0, size=(100, 5)),
                        rng.normal(2.0, 1.0, size=(100, 5))])
    y = np.repeat([0, 1], 100)
    clf = LogisticRegression(5, 2, seed=0, n_steps=200)
    clf.fit(X, y)
    assert np.mean(clf.predict(X) == y) >= 0.99
    probs = clf.predict_proba(X)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)


def test_logistic_regression_is_deterministic(rng):
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    a = LogisticRegression(3, 2, seed=1, n_steps=50).fit(X, y)
    b = LogisticRegression(3, 2, seed=1, n_steps=50).fit(X, y)
    np.testing.assert_array_equal(a.store["logreg.W"].value,
                                  b.store["logreg.W"].value)


def test_aggregate_median(rng):
    items = [rng.normal(size=4) for _ in range(5)]
    np.testing.assert_array_equal(aggregate_recording(items),
                                  np.median(np.stack(items), axis=0))
    with pytest.raises(ValueError):
        aggregate_recording([])
