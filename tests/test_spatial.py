import numpy as np
import pytest

from dsfnet.linalg import (matrix_log_eig, oas_shrink, sample_covariance,
                           vec_upper)
from dsfnet.spatial import (compute_summary, phi_length, phi_logm_cov,
                            phi_logvar)


def test_phi_logvar_oracle(rng):
    X = rng.normal(size=(4, 300)) * np.array([[1.0], [2.0], [0.5], [3.0]])
    out = phi_logvar(X)
    np.testing.assert_allclose(out, np.log(X.var(axis=1, ddof=1)),
                               rtol=1e-12, atol=0)


def test_phi_logvar_flat_channel_maps_to_zero(rng):
    X = rng.normal(size=(3, 100))
    X[1] = 7.5  # constant channel
    out = phi_logvar(X)
    assert out[1] == 0.0
    assert np.all(np.isfinite(out))


def test_phi_logm_cov_composition(rng):
    X = rng.normal(size=(5, 200))
    expected = vec_upper(matrix_log_eig(
        oas_shrink(sample_covariance(X), 200)))
    out = phi_logm_cov(X)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_phi_logm_cov_survives_flat_and_duplicate_channels(rng):
    X = rng.normal(size=(4, 150))
    X[0] = 0.0
    X[2] = X[3]
    values = phi_logm_cov(X)
    assert np.all(np.isfinite(values))
    assert values.shape == (10,)


def test_phi_length():
    assert phi_length("log_variance", 6) == 6
    assert phi_length("logm_covariance", 6) == 21
    assert phi_length("logm_covariance", 4) == 10
    with pytest.raises(ValueError):
        phi_length("nope", 4)


def test_compute_summary_dispatch(rng):
    X = rng.normal(size=(3, 128))
    np.testing.assert_array_equal(
        compute_summary("log_variance", X), phi_logvar(X))
    np.testing.assert_array_equal(
        compute_summary("logm_covariance", X), phi_logm_cov(X))
    with pytest.raises(ValueError):
        compute_summary("nope", X)
