"""Batch contract of the window-level feature path.

Each summary function applied to a stack of windows must give, bit for
bit, what it gives window by window, including on flat and duplicated
channels; a non-finite entry anywhere in the stack must raise. The
handcrafted features instead carry non-finite entries through to
fit-time imputation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet.baselines import (HANDCRAFTED_NAMES, band_cov_stack,
                              handcrafted_features)
from dsfnet.linalg import matrix_log_eig, oas_shrink, sample_covariance
from dsfnet.spatial import phi_logm_cov, phi_logvar

SFREQ = 100.0


@st.composite
def window_stacks(draw):
    n_win = draw(st.integers(1, 6))
    C = draw(st.integers(2, 6))
    T = draw(st.integers(16, 160))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    X = np.random.default_rng(seed).normal(size=(n_win, C, T)) * scale
    cells = st.tuples(st.integers(0, n_win - 1), st.integers(0, C - 1))
    for w, c in draw(st.lists(cells, max_size=3)):
        X[w, c] = draw(st.sampled_from([0.0, 1.5]))  # flat channel
    for w, c in draw(st.lists(cells, max_size=3)):
        X[w, c] = X[w, (c + 1) % C]  # duplicated channel
    return X


def per_window(fn, X):
    return np.stack([fn(x) for x in X])


def shrunk_covs(X):
    return oas_shrink(sample_covariance(X), X.shape[-1])


BATCHED = {
    "phi_logvar": phi_logvar,
    "phi_logm_cov": phi_logm_cov,
    "band_cov_stack": lambda X: band_cov_stack(X, SFREQ),
    "matrix_log_eig": lambda X: matrix_log_eig(shrunk_covs(X)),
}


@settings(max_examples=40, deadline=None)
@given(X=window_stacks())
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_stack_equals_window_by_window(name, X):
    fn = BATCHED[name]
    assert np.array_equal(fn(X), per_window(fn, X))


@settings(max_examples=20, deadline=None)
@given(X=window_stacks(), data=st.data())
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_non_finite_window_anywhere_raises(name, X, data):
    n_win, C, T = X.shape
    idx = (data.draw(st.integers(0, n_win - 1)),
           data.draw(st.integers(0, C - 1)),
           data.draw(st.integers(0, T - 1)))
    X[idx] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match="non-finite"):
        BATCHED[name](X)


@settings(max_examples=40, deadline=None)
@given(X=window_stacks(), data=st.data())
def test_handcrafted_stack_equals_window_by_window(X, data):
    n_win, C, T = X.shape
    for _ in range(data.draw(st.integers(0, 2))):
        X[data.draw(st.integers(0, n_win - 1)),
          data.draw(st.integers(0, C - 1)),
          data.draw(st.integers(0, T - 1))] = np.nan
    stack = handcrafted_features(X, SFREQ).reshape(n_win, C, -1)
    windows = per_window(lambda x: handcrafted_features(x, SFREQ),
                         X).reshape(n_win, C, -1)
    # Kurtosis and skewness go through array powers: allow a few ulp.
    moments = np.isin(HANDCRAFTED_NAMES, ("kurtosis", "skewness"))
    assert np.array_equal(stack[..., ~moments], windows[..., ~moments],
                          equal_nan=True)
    np.testing.assert_allclose(stack[..., moments], windows[..., moments],
                               rtol=1e-14, atol=0)
