import numpy as np
import pytest

from dsfnet.attention import VARIANTS, DsfConfig, DsfModule, dsf_param_count
from dsfnet.linalg import (matrix_log_eig, oas_shrink, sample_covariance,
                           vec_upper)
from dsfnet.nn import ParamStore
from dsfnet.spatial import (SUMMARIES, compute_summary, phi_logm_cov,
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
    assert SUMMARIES["log_variance"][1](6) == 6
    assert SUMMARIES["logm_covariance"][1](6) == 21
    assert SUMMARIES["logm_covariance"][1](4) == 10
    for variant, length in (("dsfd", 6), ("dsfm", 21)):
        cfg = DsfConfig(variant=variant, n_channels=6, n_virtual=3)
        assert cfg.summary_length == length
    with pytest.raises(ValueError):
        DsfConfig(variant="nope", n_channels=4, n_virtual=3)


def test_compute_summary_dispatch(rng):
    X = rng.normal(size=(3, 128))
    np.testing.assert_array_equal(
        compute_summary("log_variance", X), phi_logvar(X))
    np.testing.assert_array_equal(
        compute_summary("logm_covariance", X), phi_logm_cov(X))
    with pytest.raises(KeyError):
        compute_summary("nope", X)


def test_summary_table_lengths_and_variant_table_readers(rng):
    for kind, (phi, length) in SUMMARIES.items():
        for C in range(3, 9):
            X = rng.normal(size=(2, C, 64))
            out = compute_summary(kind, X)
            np.testing.assert_array_equal(out, phi(X))
            assert out.shape == (2, length(C))
    for name, (kind, thresholded) in VARIANTS.items():
        cfg = DsfConfig(variant=name, n_channels=5, n_virtual=3)
        assert (cfg.summary_kind, cfg.thresholded) == (kind, thresholded)
        assert cfg.summary_length == SUMMARIES[kind][1](5)
        store = ParamStore()
        DsfModule(cfg, store, rng)
        assert dsf_param_count(cfg) == store.n_parameters()
