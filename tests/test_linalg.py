import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsfnet.linalg import (DegenerateInputError, NotPSDError, matrix_exp_eig,
                           matrix_log_eig, matrix_log_taylor, oas_shrink,
                           sample_covariance, sym_eig, vec_upper)

from conftest import random_spd


def test_sample_covariance_matches_numpy(rng):
    X = rng.normal(size=(5, 200))
    S = sample_covariance(X)
    np.testing.assert_allclose(S, np.cov(X), rtol=1e-12, atol=1e-12)
    assert np.array_equal(S, S.T)


def test_sample_covariance_centers_rows(rng):
    X = rng.normal(size=(3, 100)) + np.array([[10.0], [-5.0], [0.0]])
    np.testing.assert_allclose(sample_covariance(X),
                               np.cov(X), rtol=1e-12, atol=1e-12)


def test_sample_covariance_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        sample_covariance(np.zeros((4, 1)))
    with pytest.raises(DegenerateInputError):
        sample_covariance(np.zeros(10))


def test_oas_formula_oracle(rng):
    # Independent reimplementation of the shrinkage coefficient.
    X = rng.normal(size=(6, 50))
    S = sample_covariance(X)
    n, C = 50, 6
    tr_S = np.trace(S)
    tr_S2 = np.trace(S @ S)
    num = (1 - 2.0 / C) * tr_S2 + tr_S**2
    den = (n + 1 - 2.0 / C) * (tr_S2 - tr_S**2 / C)
    rho = min(1.0, num / den)
    expected = (1 - rho) * S + rho * (tr_S / C) * np.eye(C)
    out = oas_shrink(S, n)
    assert 0 < rho < 1
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
    assert not np.allclose(out, 1e-12 * np.eye(C))


def test_oas_output_is_spd_for_rank_deficient_input(rng):
    # Rank-1 covariance from a single repeated source.
    v = rng.normal(size=4)
    S = np.outer(v, v)
    out = oas_shrink(S, 100)
    w = np.linalg.eigvalsh(out)
    assert w.min() > 0


def test_oas_identity_is_fixed_point():
    out = oas_shrink(np.eye(5), 100)
    np.testing.assert_allclose(out, np.eye(5), rtol=0, atol=1e-15)


def test_oas_zero_trace_degenerate():
    out = oas_shrink(np.zeros((3, 3)), 10)
    np.testing.assert_array_equal(out, 1e-12 * np.eye(3))
    assert np.all(np.linalg.eigvalsh(out) > 0)


@pytest.mark.parametrize("k", [600, -600])
def test_oas_commutes_with_power_of_two_scaling(rng, k):
    # Unscaled, tr(S^2) of 2**600 S overflows and that of 2**-600 S
    # underflows to 0, and either way S is shrunk all the way to mu I.
    S = sample_covariance(rng.normal(size=(4, 5, 50)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = oas_shrink(np.ldexp(S, k), 50)
    np.testing.assert_array_equal(out, np.ldexp(oas_shrink(S, 50), k))


def test_oas_of_huge_entries_keeps_their_shape():
    # C = 2 and n = 100: rho = 2 / n, so diag(a, 1) -> diag(.99a, .01a + .98).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = oas_shrink(np.diag([1e200, 1.0]), 100)
    np.testing.assert_allclose(out, np.diag([0.99e200, 0.01e200 + 0.98]),
                               rtol=1e-15, atol=0)


WINDOW_STACKS = arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(2, 12)),
    elements=st.floats(allow_nan=False, allow_infinity=False))


# The example's covariance is diag(5e-324, 0): its eigenvalue floor
# rho tr(S)/C underflows to zero when scaled back.
@settings(max_examples=200, deadline=None)
@given(X=WINDOW_STACKS)
@example(X=np.array([[[5.13572304e-162, 0.0, 0.0, 0.0], [0.0] * 4]]))
def test_oas_of_any_finite_covariance_is_spd(X):
    with np.errstate(over="ignore", invalid="ignore"):
        S = sample_covariance(X)
    assume(np.all(np.isfinite(S)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = oas_shrink(S, X.shape[-1])
    assert np.array_equal(out, np.swapaxes(out, -1, -2))
    assert np.all(np.linalg.eigvalsh(out) > 0)


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("trace", [8688.542943473192, 6137.939524426634])
def test_oas_one_matrix_equals_batch_of_one(trace, n):
    # For these traces, pow(trace, 2) on a NumPy scalar rounds one ulp
    # away from trace * trace, the square an array computes.
    S = np.array([[trace - 2.0, 0.5, 0.25],
                  [0.5, 1.0, 0.125],
                  [0.25, 0.125, 1.0]])
    assert np.trace(S) == trace
    np.testing.assert_array_equal(oas_shrink(S, n), oas_shrink(S[None], n)[0])


def test_sym_eig_matches_numpy_and_orders_descending(rng):
    S = random_spd(6, rng)
    w, U = sym_eig(S)
    assert np.all(np.diff(w) <= 0)
    recon = (U * w) @ U.T
    np.testing.assert_allclose(recon, S, rtol=0, atol=1e-10)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_matrix_log_matches_scipy(rng):
    import warnings
    for _ in range(20):
        S = random_spd(6, rng, cond=100.0)
        with warnings.catch_warnings():
            # scipy warns about its own estimated round-off here.
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = scipy.linalg.logm(S)
        np.testing.assert_allclose(matrix_log_eig(S), ref,
                                   rtol=1e-9, atol=1e-9)


def test_matrix_log_exp_round_trip(rng):
    S = rng.normal(size=(6, 6))
    S = (S + S.T) / 2
    np.testing.assert_allclose(matrix_log_eig(matrix_exp_eig(S)), S,
                               rtol=0, atol=1e-10)


def test_matrix_log_identity_is_zero():
    assert np.max(np.abs(matrix_log_eig(np.eye(7)))) <= 1e-12


def test_matrix_log_floors_tiny_eigenvalues():
    # A singular PSD matrix: the zero eigenvalue's log is replaced by 0,
    # not -inf, so the result stays finite.
    S = np.diag([2.0, 1.0, 0.0])
    L = matrix_log_eig(S)
    assert np.all(np.isfinite(L))
    np.testing.assert_allclose(np.diag(L), [np.log(2.0), 0.0, 0.0],
                               rtol=0, atol=1e-12)


def test_matrix_log_rejects_negative_eigenvalues():
    with pytest.raises(NotPSDError):
        matrix_log_eig(np.diag([1.0, -0.5]))


def test_taylor_log_converges_to_exact(rng):
    S = random_spd(5, rng, cond=5.0)
    exact = matrix_log_eig(S)
    errs = [np.linalg.norm(exact - matrix_log_taylor(S, n), 2)
            / np.linalg.norm(exact, 2) for n in (5, 20, 80)]
    assert errs[-1] < 1e-6
    assert errs[0] >= errs[1] >= errs[2]


def test_taylor_log_scaled_identity_exact_at_one_term():
    # For c*I the normalized matrix has spectrum {2/sqrt(C)}; with C=4,
    # A_hat = I so every series term vanishes and log(s) I is exact.
    S = 3.0 * np.eye(4)
    np.testing.assert_allclose(matrix_log_taylor(S, 1), np.log(3.0) * np.eye(4),
                               rtol=0, atol=1e-14)


def test_taylor_log_input_validation():
    with pytest.raises(ValueError):
        matrix_log_taylor(np.eye(3), 0)
    with pytest.raises(DegenerateInputError):
        matrix_log_taylor(np.zeros((3, 3)), 5)


def test_vec_upper_ordering():
    S = np.array([[1.0, 2.0, 3.0],
                  [2.0, 4.0, 5.0],
                  [3.0, 5.0, 6.0]])
    np.testing.assert_array_equal(vec_upper(S), [1, 2, 3, 4, 5, 6])


def test_checks_and_floor_apply_per_matrix_of_a_stack(rng):
    good = np.stack([random_spd(3, rng) for _ in range(4)])
    out = oas_shrink(np.concatenate([good, np.zeros((1, 3, 3))]), 50)
    np.testing.assert_array_equal(out[-1], 1e-12 * np.eye(3))
    np.testing.assert_array_equal(out[:-1], oas_shrink(good, 50))
    asym = good.copy()
    asym[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(asym)
    neg = good.copy()
    neg[1] = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(NotPSDError):
        matrix_log_eig(neg)
    with pytest.raises(DegenerateInputError):
        matrix_log_taylor(np.concatenate([good, np.zeros((1, 3, 3))]), 5)
