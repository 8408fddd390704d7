"""Interpolation-family ablation ladder.

Four modules of increasing expressiveness that replace channels by linear
combinations of the others: a static interpolation matrix, the same matrix
gated by a scalar or per-channel attention weight, and a fully dynamic
variant where both the weights and the matrix are predicted per window.
The dynamic variant collapses to a single matrix product via
``dynamic_omega``.
"""

import numpy as np
from numpy.typing import NDArray

from .nn import Dense, Layer, ParamStore, Sigmoid
from .spatial import compute_summary, phi_length

INTERP_KINDS = ("interp_only", "scalar", "vector", "dynamic")

SUMMARY_KIND = "logm_covariance"


def dynamic_omega(alpha: NDArray, W_X: NDArray) -> NDArray:
    """Single-matrix-product form of dynamic interpolation.

    Omega has alpha on the diagonal and (1 - alpha_i) * W_ij off-diagonal,
    so Omega @ X equals diag(alpha) X + (I - diag(alpha)) W_X X.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    W_X = np.asarray(W_X, dtype=np.float64)
    if np.any(np.diag(W_X) != 0.0):
        raise ValueError("W_X must have an exactly zero diagonal")
    return np.diag(alpha) + (1.0 - alpha)[:, None] * W_X


class InterpModule(Layer):
    """One rung of the ablation ladder; batched forward/backward."""

    def __init__(self, kind: str, n_channels: int, store: ParamStore,
                 rng: np.random.Generator):
        if kind not in INTERP_KINDS:
            raise ValueError(f"unknown interpolation kind: {kind!r}")
        self.kind = kind
        self.C = n_channels
        C = n_channels

        if kind in ("interp_only", "scalar", "vector"):
            # Geometry-free start: every channel is the average of the others.
            W0 = np.full((C, C), 1.0 / (C - 1))
            np.fill_diagonal(W0, 0.0)
            self.w_name = "interp.W"
            store.add(self.w_name, W0)

        if kind != "interp_only":
            d_phi = phi_length(SUMMARY_KIND, C)
            out_dim = {"scalar": 1, "vector": C, "dynamic": C * C}[kind]
            self.fc1 = Dense("interp.fc1", d_phi, C * C, store, rng)
            self.act = Sigmoid()
            self.fc2 = Dense("interp.fc2", C * C, out_dim, store, rng)

    # The static matrix is used with its diagonal masked out, so the
    # diagonal entries carry no gradient and AdamW keeps them at their
    # initial 0 (zero moments, and weight decay of 0 is 0).
    def static_w(self, store: ParamStore) -> NDArray:
        W = store[self.w_name].value
        return W * (1.0 - np.eye(self.C))

    def _mlp_forward(self, X: NDArray, store: ParamStore) -> NDArray:
        phi = compute_summary(SUMMARY_KIND, X)
        h = self.act.forward(self.fc1.forward(phi, store), store)
        return self.fc2.forward(h, store)

    def _mlp_backward(self, dout: NDArray, store: ParamStore) -> None:
        dh = self.fc2.backward(dout, store)
        self.fc1.backward(self.act.backward(dh, store), store)

    def forward(self, X: NDArray, store: ParamStore, train: bool = False,
                rng: np.random.Generator | None = None) -> NDArray:
        self._X = X
        B, C, T = X.shape

        if self.kind == "interp_only":
            W = self.static_w(store)
            self._W = W
            return np.einsum("ij,bjt->bit", W, X, optimize=True)

        if self.kind in ("scalar", "vector"):
            raw = self._mlp_forward(X, store)  # (B, 1) or (B, C)
            alpha = 1.0 / (1.0 + np.exp(-raw))
            W = self.static_w(store)
            WX = np.einsum("ij,bjt->bit", W, X, optimize=True)
            self._alpha, self._W, self._WX = alpha, W, WX
            a = alpha[:, :, None]
            return a * X + (1.0 - a) * WX

        # dynamic: one MLP emits C*C values; the diagonal becomes the
        # sigmoid-squashed attention vector, the rest the interpolation matrix.
        raw = self._mlp_forward(X, store).reshape(B, C, C)
        diag = np.einsum("bii->bi", raw, optimize=True)
        alpha = 1.0 / (1.0 + np.exp(-diag))
        W_X = raw * (1.0 - np.eye(C))
        WX = np.einsum("bij,bjt->bit", W_X, X, optimize=True)
        self._alpha, self._W_X, self._WX = alpha, W_X, WX
        a = alpha[:, :, None]
        return a * X + (1.0 - a) * WX

    def backward(self, dY: NDArray, store: ParamStore) -> NDArray:
        X = self._X
        B, C, T = X.shape
        offdiag = 1.0 - np.eye(C)

        if self.kind == "interp_only":
            store[self.w_name].grad += (
                np.einsum("bit,bjt->ij", dY, X, optimize=True) * offdiag
            )
            return np.einsum("ij,bit->bjt", self._W, dY, optimize=True)

        if self.kind in ("scalar", "vector"):
            alpha, W, WX = self._alpha, self._W, self._WX
            a = alpha[:, :, None]
            diff = X - WX
            if self.kind == "scalar":
                dalpha = np.einsum("bit,bit->b", dY, diff, optimize=True)[:, None]
            else:
                dalpha = np.einsum("bit,bit->bi", dY, diff, optimize=True)
            draw = dalpha * alpha * (1.0 - alpha)
            self._mlp_backward(draw, store)
            dWX = (1.0 - a) * dY
            store[self.w_name].grad += (
                np.einsum("bit,bjt->ij", dWX, X, optimize=True) * offdiag
            )
            return a * dY + np.einsum("ij,bit->bjt", W, dWX, optimize=True)

        # dynamic
        alpha, W_X, WX = self._alpha, self._W_X, self._WX
        a = alpha[:, :, None]
        dalpha = np.einsum("bit,bit->bi", dY, X - WX, optimize=True)
        dM = (1.0 - a) * dY
        dW_X = np.einsum("bit,bjt->bij", dM, X, optimize=True) * offdiag
        draw = dW_X.copy()
        ddiag = dalpha * alpha * (1.0 - alpha)
        idx = np.arange(C)
        draw[:, idx, idx] = ddiag
        self._mlp_backward(draw.reshape(B, C * C), store)
        return a * dY + np.einsum("bij,bit->bjt", W_X, dM, optimize=True)
