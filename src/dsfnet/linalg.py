"""Dense symmetric linear algebra for covariance-based spatial features.

Covariance estimation, Oracle Approximating Shrinkage, symmetric
eigendecomposition, matrix logarithm (exact and truncated Taylor series)
and upper-triangle vectorization. All functions are pure, operate on
float64 numpy arrays and accept stacks: windows of shape (..., C, T) and
matrices of shape (..., C, C). Each check applies to the whole stack, and
every matrix in a stack gets the same bits it would get on its own.
"""

import numpy as np
from numpy.typing import NDArray

from .nn import check_interval

EIG_FLOOR = 1e-12
SYM_TOL = 1e-9


class DegenerateInputError(ValueError):
    """Input carries too few samples or no variance to work with."""


class NotPSDError(ValueError):
    """Matrix has a significantly negative eigenvalue."""


def check_finite(S: NDArray, name: str = "matrix") -> None:
    if not np.all(np.isfinite(S)):
        raise ValueError(f"{name} contains non-finite entries")


def _square_stack(S: NDArray) -> NDArray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim < 2 or S.shape[-2] != S.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {S.shape}")
    check_finite(S)
    return S


def _mT(S: NDArray) -> NDArray:
    return np.swapaxes(S, -1, -2)


def sample_covariance(X: NDArray) -> NDArray:
    """Unbiased covariance X_c X_c^T / (T-1) of (..., C, T) windows.

    Rows are mean-centered first, so the zero-mean assumption holds by
    construction. Output is exactly symmetric, shape (..., C, C).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] < 2:
        raise DegenerateInputError(
            f"need windows with at least 2 samples, got shape {X.shape}"
        )
    check_finite(X, "window")
    Xc = X - X.mean(axis=-1, keepdims=True)
    S = Xc @ _mT(Xc) / (X.shape[-1] - 1)
    return (S + _mT(S)) / 2.0


def oas_shrink(S: NDArray, n_samples: int) -> NDArray:
    """Oracle Approximating Shrinkage toward the scaled identity.

    shrunk = (1 - rho) S + rho (tr(S)/C) I with

        rho = min(1, [(1 - 2/C) tr(S^2) + tr(S)^2]
                     / [(n + 1 - 2/C) (tr(S^2) - tr(S)^2 / C)])

    Every eigenvalue of the output is at least rho tr(S)/C, so it is SPD
    whenever that bound is a normal float. An input below that (zero trace,
    or so small that the bound underflows) is degenerate and maps to
    EIG_FLOOR * I.
    """
    S = _square_stack(S)
    if n_samples < 2:
        raise DegenerateInputError("OAS needs n_samples >= 2")
    C = S.shape[-1]
    eye = np.eye(C)
    # rho is scale-free: scaling each matrix by a power of two (exact)
    # keeps tr(S^2) from overflowing and changes no bit of the result.
    exp = np.frexp(np.abs(S).max(axis=(-2, -1), keepdims=True, initial=0))[1]
    S = np.ldexp(S, -exp)

    tr_S = np.trace(S, axis1=-2, axis2=-1)
    tr_S2 = np.sum(S * S, axis=(-2, -1))
    # tr_S * tr_S, not tr_S**2: on a NumPy scalar ** calls pow, which can
    # round differently from the product a stack computes.
    num = (1.0 - 2.0 / C) * tr_S2 + tr_S * tr_S
    den = (n_samples + 1.0 - 2.0 / C) * (tr_S2 - tr_S * tr_S / C)
    positive = den > 0.0
    rho = np.where(positive,
                   np.minimum(1.0, num / np.where(positive, den, 1.0)), 1.0)

    mu = tr_S / C
    rho, rho_mu = rho[..., None, None], (rho * mu)[..., None, None]
    shrunk = (1.0 - rho) * S + rho_mu * eye
    shrunk = (shrunk + _mT(shrunk)) / 2.0
    # Scaling back can round a subnormal eigenvalue floor down to zero.
    degenerate = np.ldexp(rho_mu, exp) < np.finfo(np.float64).tiny
    return np.where(degenerate, EIG_FLOOR * eye, np.ldexp(shrunk, exp))


def sym_eig(S: NDArray) -> tuple[NDArray, NDArray]:
    """Eigendecomposition S = U diag(w) U^T of symmetric matrices.

    Returns (w, U) with eigenvalues descending along the last axis.
    """
    S = _square_stack(S)
    asym = float(np.max(np.abs(S - _mT(S)))) if S.size else 0.0
    if asym >= SYM_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3g})")
    w, U = np.linalg.eigh((S + _mT(S)) / 2.0)
    order = np.argsort(w, axis=-1)[..., ::-1]
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(U, order[..., None, :], axis=-1))


def _eig_apply(U: NDArray, fw: NDArray) -> NDArray:
    out = (U * fw[..., None, :]) @ _mT(U)
    return (out + _mT(out)) / 2.0


def matrix_log_eig(S: NDArray) -> NDArray:
    """Matrix logarithm of symmetric PSD matrices via eigendecomposition.

    Eigenvalues at or below EIG_FLOOR have their logarithm replaced by 0
    (flat-channel rule); eigenvalues below -SYM_TOL raise NotPSDError.
    """
    w, U = sym_eig(S)
    if np.any(w < -SYM_TOL):
        raise NotPSDError(f"matrix has negative eigenvalue {w.min():.3g}")
    logw = np.where(w > EIG_FLOOR, np.log(np.maximum(w, EIG_FLOOR)), 0.0)
    return _eig_apply(U, logw)


def matrix_exp_eig(S: NDArray) -> NDArray:
    """Matrix exponential of symmetric matrices via eigendecomposition."""
    w, U = sym_eig(S)
    return _eig_apply(U, np.exp(w))


def matrix_log_taylor(A: NDArray, n_terms: int) -> NDArray:
    """Truncated Taylor-series matrix logarithm for SPD matrices.

    log(A) = sum_{k=1..n} (-1)^{k+1} (A_hat - I)^k / k + log(s) I,
    where A_hat = A / s and s = ||A||_F / 2. Halving the Frobenius norm
    before normalizing centers the spectrum inside the convergence disk
    ||A_hat - I|| < 1.
    """
    check_interval("n_terms", n_terms, "[1, inf)", integer=True)
    A = _square_stack(A)
    eye = np.eye(A.shape[-1])
    flat = A.reshape(*A.shape[:-2], 1, -1)
    # (..., 1, 1): the same dot product norm(A, "fro") takes on one matrix.
    s = np.sqrt(flat @ _mT(flat)) / 2.0
    if np.any(s <= 0.0):
        raise DegenerateInputError("matrix has zero Frobenius norm")
    D = A / s - eye
    acc = np.zeros_like(A)
    term = np.broadcast_to(eye, A.shape)
    for k in range(1, n_terms + 1):
        term = term @ D
        acc += ((-1.0) ** (k + 1)) * term / k
    return acc + np.log(s) * eye


def vec_upper(S: NDArray) -> NDArray:
    """Row-major flattening of the diagonal and strict upper triangle.

    Maps (..., C, C) to (..., C(C+1)/2) values (S11, S12, ..., S1C, S22,
    ...); no off-diagonal rescaling is applied.
    """
    S = np.asarray(S, dtype=np.float64)
    iu = np.triu_indices(S.shape[-1])
    return S[..., iu[0], iu[1]]
