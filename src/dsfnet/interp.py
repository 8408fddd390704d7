"""Interpolation-family ablation ladder.

Four modules of increasing expressiveness that replace channels by linear
combinations of the others: a static interpolation matrix, the same matrix
gated by a scalar or per-channel attention weight, and a fully dynamic
variant where both the weights and the matrix are predicted per window.
Every rung is one matrix product Omega_X X (``dynamic_omega``), the same
form as DSF's W X + b; the rungs differ only in where alpha and W_X come
from.
"""

import numpy as np
from numpy.typing import NDArray

from .nn import Dense, Layer, ParamStore, Sequential, Sigmoid
from .spatial import SUMMARIES, compute_summary

INTERP_KINDS = ("interp_only", "scalar", "vector", "dynamic")

SUMMARY_KIND = "logm_covariance"


def dynamic_omega(alpha: NDArray, W_X: NDArray) -> NDArray:
    """Single-matrix-product form of dynamic interpolation.

    Omega has alpha on the diagonal and (1 - alpha_i) * W_ij off-diagonal,
    so Omega @ X equals diag(alpha) X + (I - diag(alpha)) W_X X. Takes one
    matrix or a stack: alpha (..., C), or (..., 1) for one weight shared
    by every channel, against W_X (..., C, C), each with a zero diagonal.
    """
    alpha = np.asarray(alpha, dtype=np.float64)[..., :, None]
    W_X = np.asarray(W_X, dtype=np.float64)
    if np.any(np.diagonal(W_X, axis1=-2, axis2=-1) != 0.0):
        raise ValueError("W_X must have an exactly zero diagonal")
    return alpha * np.eye(W_X.shape[-1]) + (1.0 - alpha) * W_X


class InterpModule(Layer):
    """One rung of the ablation ladder; batched forward/backward.

    interp_only: alpha = 0 and the static matrix ``interp.W``. scalar and
    vector: alpha = sigmoid(MLP) of shape (B, 1) or (B, C), and the static
    matrix. dynamic: one MLP emits C * C values per window; the sigmoid of
    its diagonal is alpha and the rest is W_X.
    """

    def __init__(self, kind: str, n_channels: int, store: ParamStore,
                 rng: np.random.Generator):
        if kind not in INTERP_KINDS:
            raise ValueError(f"unknown interpolation kind: {kind!r}")
        self.kind = kind
        C = n_channels
        self.offdiag = ~np.eye(C, dtype=bool)

        if kind != "dynamic":
            # Geometry-free start: every channel is the average of the others.
            self.w_name = "interp.W"
            store.add(self.w_name, np.where(self.offdiag, 1.0 / (C - 1), 0.0))

        if kind != "interp_only":
            d_phi = SUMMARIES[SUMMARY_KIND][1](C)
            out_dim = {"scalar": 1, "vector": C, "dynamic": C * C}[kind]
            self.mlp = Sequential([
                Dense("interp.fc1", d_phi, C * C, store, rng),
                Sigmoid(),
                Dense("interp.fc2", C * C, out_dim, store, rng),
            ])

    # The static matrix is used with its diagonal masked out, so the
    # diagonal entries carry no gradient and AdamW keeps them at their
    # initial 0 (zero moments, and weight decay of 0 is 0).
    def static_w(self, store: ParamStore) -> NDArray:
        return np.where(self.offdiag, store[self.w_name].value, 0.0)

    def forward(self, X: NDArray, store: ParamStore, train: bool = False,
                rng: np.random.Generator | None = None) -> NDArray:
        B, C, _ = X.shape
        if self.kind == "interp_only":
            alpha, W_X = np.zeros((B, 1)), self.static_w(store)
        else:
            raw = self.mlp.forward(compute_summary(SUMMARY_KIND, X), store)
            if self.kind == "dynamic":
                raw = raw.reshape(B, C, C)
                W_X = np.where(self.offdiag, raw, 0.0)
                raw = np.einsum("bii->bi", raw)
            else:
                W_X = self.static_w(store)
            alpha = 1.0 / (1.0 + np.exp(-raw))
        self._X, self._alpha, self._W_X = X, alpha, W_X
        self._omega = dynamic_omega(alpha, W_X)
        return self._omega @ X

    def backward(self, dY: NDArray, store: ParamStore) -> NDArray | None:
        alpha, W_X = self._alpha, self._W_X
        dOmega = dY @ self._X.swapaxes(-1, -2)
        dW_X = np.where(self.offdiag, (1.0 - alpha)[..., None] * dOmega, 0.0)
        if self.kind != "dynamic":
            store[self.w_name].grad += dW_X.sum(axis=0)
        if self.kind != "interp_only":
            dalpha = (np.einsum("bii->bi", dOmega)
                      - (W_X * dOmega).sum(axis=-1))
            if alpha.shape[-1] == 1:
                dalpha = dalpha.sum(axis=-1, keepdims=True)
            draw = dalpha * alpha * (1.0 - alpha)
            if self.kind == "dynamic":
                draw = np.where(self.offdiag, dW_X, draw[..., None])
            self.mlp.backward(draw.reshape(len(dY), -1), store)
        if not self.input_grad:
            return None
        return self._omega.swapaxes(-1, -2) @ dY
