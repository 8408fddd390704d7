"""Dynamic spatial filter (DSF) attention module.

A 2-layer MLP conditioned on a fixed spatial summary of each window emits
a per-window set of spatial filters W (C' x C) and biases b (C'), applied
as Y = W X + b. Gradients flow into the MLP parameters but not through
the summary into X.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .nn import (Dense, Layer, ParamStore, Sequential, Sigmoid, bounded,
                 check_bounds, check_interval)
from .spatial import SUMMARIES, compute_summary

# name -> (summary kind, whether the filters are soft-thresholded)
VARIANTS = {"dsfd": ("log_variance", False),
            "dsfm": ("logm_covariance", False),
            "dsfm_st": ("logm_covariance", True)}


@dataclass(frozen=True)
class DsfConfig:
    variant: str = "dsfm_st"
    n_channels: int = bounded(6, "[1, inf)")
    n_virtual: int = bounded(6, "[1, inf)")  # C': output (virtual) channels
    tau: float = bounded(0.1, "[0, inf)")

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown DSF variant: {self.variant!r}")
        check_bounds(self)

    @property
    def summary_kind(self) -> str:
        return VARIANTS[self.variant][0]

    @property
    def hidden_size(self) -> int:
        return self.n_channels**2

    @property
    def summary_length(self) -> int:
        return SUMMARIES[self.summary_kind][1](self.n_channels)

    @property
    def thresholded(self) -> bool:
        return VARIANTS[self.variant][1]


def soft_threshold(W: NDArray, tau: float) -> NDArray:
    """sign(w) * max(|w| - tau, 0), elementwise."""
    check_interval("tau", tau, "[0, inf)")
    return np.sign(W) * np.maximum(np.abs(W) - tau, 0.0)


def soft_threshold_subgradient(W: NDArray, tau: float) -> NDArray:
    """Subgradient of soft_threshold: 0 where |w| <= tau, 1 elsewhere."""
    return (np.abs(W) > tau).astype(np.float64)


def channel_contribution(W: NDArray) -> NDArray:
    """Column-wise Euclidean norms of (..., C', C) filters, shape (..., C):
    how much each input channel feeds the virtual channels."""
    return np.sqrt(np.sum(np.asarray(W, dtype=np.float64) ** 2, axis=-2))


def dsf_param_count(cfg: DsfConfig) -> int:
    """Trainable parameter count of the filter generator MLP."""
    d = cfg.summary_length
    h = cfg.hidden_size
    return (d + 1) * h + (h + 1) * cfg.n_virtual * (cfg.n_channels + 1)


class DsfModule(Layer):
    """Trainable DSF filter generator; batched forward/backward."""

    def __init__(self, cfg: DsfConfig, store: ParamStore,
                 rng: np.random.Generator):
        self.cfg = cfg
        out_dim = cfg.n_virtual * (cfg.n_channels + 1)
        self.mlp = Sequential([
            Dense("dsf.fc1", cfg.summary_length, cfg.hidden_size, store, rng),
            Sigmoid(),
            Dense("dsf.fc2", cfg.hidden_size, out_dim, store, rng),
        ])

    def summaries(self, X: NDArray) -> NDArray:
        """Spatial summaries of a (B, C, T) batch; no gradient flows here."""
        return compute_summary(self.cfg.summary_kind, X)

    def filters_from_summary(self, phi: NDArray, store: ParamStore
                             ) -> tuple[NDArray, NDArray]:
        """MLP output reshaped into W (B, C', C) and b (B, C'), thresholded
        when the variant asks for it."""
        cfg = self.cfg
        raw = self.mlp.forward(phi, store)
        B = raw.shape[0]
        split = cfg.n_virtual * cfg.n_channels
        W_pre = raw[:, :split].reshape(B, cfg.n_virtual, cfg.n_channels)
        b = raw[:, split:]
        self._W_pre = W_pre
        if cfg.thresholded:
            W = soft_threshold(W_pre, cfg.tau)
        else:
            W = W_pre
        return W, b

    def forward(self, X: NDArray, store: ParamStore, train: bool = False,
                rng: np.random.Generator | None = None) -> NDArray:
        """(B, C, T) -> (B, C', T): Y_i = W_i X_i + b_i."""
        phi = self.summaries(X)
        W, b = self.filters_from_summary(phi, store)
        self._X = X
        self._W = W
        return W @ X + b[:, :, None]

    def backward(self, dY: NDArray, store: ParamStore) -> NDArray | None:
        """Propagate dL/dY into the MLP parameters; returns dL/dX through
        the filter application only (the summary path carries no gradient),
        or None with ``input_grad`` off."""
        cfg = self.cfg
        dW = dY @ self._X.swapaxes(-1, -2)
        db = dY.sum(axis=2)
        if cfg.thresholded:
            dW = dW * soft_threshold_subgradient(self._W_pre, cfg.tau)
        B = dY.shape[0]
        draw = np.concatenate([dW.reshape(B, -1), db], axis=1)
        self.mlp.backward(draw, store)
        if not self.input_grad:
            return None
        return self._W.swapaxes(-1, -2) @ dY
