"""Fixed spatial summaries of multichannel windows.

These feed the dynamic filter generator: either per-channel log-variance
or the vectorized matrix logarithm of the (shrunk) covariance matrix.
Every summary maps a stack of windows (..., C, T) to (..., d) in one call.
"""

import numpy as np
from numpy.typing import NDArray

from .linalg import (check_finite, matrix_log_eig, oas_shrink,
                     sample_covariance, vec_upper)

VAR_FLOOR = 1e-12


def phi_logvar(X: NDArray) -> NDArray:
    """Per-channel log-variance; flat channels map to 0 instead of -inf."""
    X = np.asarray(X, dtype=np.float64)
    check_finite(X, "window")
    var = X.var(axis=-1, ddof=1)
    return np.where(var > VAR_FLOOR, np.log(np.maximum(var, VAR_FLOOR)), 0.0)


def phi_logm_cov(X: NDArray) -> NDArray:
    """Upper triangle of logm of the OAS-shrunk covariance, C(C+1)/2 values.

    Shrinkage guarantees the matrix log sees an SPD input even when some
    channels are flat or duplicated.
    """
    X = np.asarray(X, dtype=np.float64)
    S = oas_shrink(sample_covariance(X), X.shape[-1])
    return vec_upper(matrix_log_eig(S))


def phi_length(kind: str, n_channels: int) -> int:
    """Length of the summary vector for a given kind and channel count."""
    if kind == "log_variance":
        return n_channels
    if kind == "logm_covariance":
        return n_channels * (n_channels + 1) // 2
    raise ValueError(f"unknown summary kind: {kind!r}")


def compute_summary(kind: str, X: NDArray) -> NDArray:
    if kind == "log_variance":
        return phi_logvar(X)
    if kind == "logm_covariance":
        return phi_logm_cov(X)
    raise ValueError(f"unknown summary kind: {kind!r}")
