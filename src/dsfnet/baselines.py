"""Non-attention comparison pipelines.

Filter-bank covariance features projected through the matrix logarithm,
a handcrafted per-channel feature set, z-scoring, a linear logistic
regression classifier built on the nn stack, and recording-wise
aggregation helpers.
"""

import math

import numpy as np
from numpy.typing import NDArray

from .linalg import (DegenerateInputError, _mT, check_finite,
                     matrix_log_eig, oas_shrink, vec_upper)
from .nn import (Dense, ParamStore, TrainConfig, adamw_step, cosine_lr,
                 softmax, softmax_xent)

RIEMANN_BANDS = ((0.1, 1.5), (1.5, 4.0), (4.0, 8.0), (8.0, 15.0),
                 (15.0, 26.0), (26.0, 35.0), (35.0, 49.0))

POWER_BAND_EDGES = (0.0, 2.0, 4.0, 8.0, 13.0, 18.0, 24.0, 30.0, 49.0)

LOGREG_LR0 = 0.05
LOGREG_WEIGHT_DECAY = 1e-4

# Per-channel handcrafted feature schema, in order. 22 features: five
# moment/amplitude statistics, four quantiles, peak-to-peak, eight log band
# powers, Hjorth mobility and complexity, line length and zero crossings.
HANDCRAFTED_NAMES = (
    ["mean", "std", "rms", "kurtosis", "skewness",
     "q10", "q25", "q75", "q90", "ptp"]
    + [f"logpow_{POWER_BAND_EDGES[i]:g}_{POWER_BAND_EDGES[i + 1]:g}"
       for i in range(len(POWER_BAND_EDGES) - 1)]
    + ["hjorth_mobility", "hjorth_complexity", "line_length",
       "zero_crossings"]
)


def band_cov_stack(X: NDArray, sfreq: float) -> NDArray:
    """Per-band OAS-shrunk covariances of (..., C, T) windows, shape
    (..., n_bands, C, C).

    Each band's covariance is that of the window brick-wall filtered to
    the band, closed at both ends, with the DC bin excluded (the centring
    of a sample covariance). By Parseval it comes straight from the rFFT
    bins X^: S_b = Re sum_{f in b} w_f X^_f X^_f^H / (T (T - 1)), with
    w_f = 2 except at the Nyquist bin of an even T, where w_f = 1.
    """
    X = np.asarray(X, dtype=np.float64)
    check_finite(X, "window")
    T = X.shape[-1]
    if T < 2:
        raise DegenerateInputError(
            f"need windows with at least 2 samples, got shape {X.shape}")
    nyquist = sfreq / 2.0
    for f_lo, f_hi in RIEMANN_BANDS:
        if f_hi > nyquist:
            raise ValueError(f"band ({f_lo}, {f_hi}) Hz exceeds Nyquist "
                             f"{nyquist} Hz")
    freqs = np.fft.rfftfreq(T, d=1.0 / sfreq)
    lo, hi = np.asarray(RIEMANN_BANDS, dtype=np.float64).T
    starts = np.maximum(np.searchsorted(freqs, lo, side="left"), 1)
    stops = np.searchsorted(freqs, hi, side="right")
    weight = np.full(len(freqs), 2.0)
    if T % 2 == 0:
        weight[-1] = 1.0
    spec = np.fft.rfft(X, axis=-1) * np.sqrt(weight / (T * (T - 1)))
    # Interleaved (re, im) pairs: a band's slice R gives Re(A A^H) as
    # R @ R^T. The band axis keeps every product at least 3-D, so a lone
    # (C, T) window takes the same matmul path as its row of a stack.
    pairs = spec.view(np.float64)[..., None, :, :]
    bands = [pairs[..., 2 * a:2 * b] for a, b in zip(starts, stops)]
    S = np.concatenate([R @ _mT(R) for R in bands], axis=-3)
    return oas_shrink((S + _mT(S)) / 2.0, T)


def riemann_vectorize(covs: NDArray) -> NDArray:
    """Upper triangles of the matrix logs of (..., n_bands, C, C) per-band
    covariances, concatenated over bands: (..., n_bands * C(C+1)/2)."""
    vecs = vec_upper(matrix_log_eig(covs))
    return vecs.reshape(*vecs.shape[:-2], -1)


def handcrafted_features(X: NDArray, sfreq: float) -> NDArray:
    """Fixed per-channel statistics of (..., C, T) windows, concatenated
    over channels: shape (..., 22 * C), channel-major. Any non-finite
    entries are left for fit-time mean imputation."""
    X = np.asarray(X, dtype=np.float64)
    T = X.shape[-1]
    mean = X.mean(axis=-1)
    centered = X - mean[..., None]
    var = centered.var(axis=-1)
    std = np.sqrt(var)
    rms = np.sqrt(np.mean(X**2, axis=-1))
    # Sorted once: NaN sorts last, so a channel holding one gets NaN
    # quantiles, as np.quantile gives, and a NaN ptp, as max - min gives.
    X_sorted = np.sort(X, axis=-1)
    last = X_sorted[..., -1]
    nan = np.isnan(last)
    quantiles = []
    for q in (0.1, 0.25, 0.75, 0.9):
        # np.quantile's default 'linear' method, op for op: position
        # (T - 1) q between two neighbours, interpolated from the nearer
        # one. At T = 1 numpy measures t from index -1, as lo = T - 2 does.
        pos = (T - 1) * q
        lo = min(math.floor(pos), T - 2)
        t = pos - lo
        a, b = X_sorted[..., lo], X_sorted[..., lo + 1]
        diff = b - a
        value = b - diff * (1 - t) if t >= 0.5 else a + diff * t
        quantiles.append(np.where(nan, last, value))
    q10, q25, q75, q90 = quantiles
    ptp = last - X_sorted[..., 0]

    spec = np.abs(np.fft.rfft(X, axis=-1)) ** 2 / T
    freqs = np.fft.rfftfreq(T, d=1.0 / sfreq)
    # freqs is sorted, so each band [lo, hi) is a contiguous slice of bins.
    edges = np.searchsorted(freqs, POWER_BAND_EDGES)
    log_powers = [np.log(np.maximum(spec[..., lo:hi].sum(axis=-1), 1e-300))
                  for lo, hi in zip(edges[:-1], edges[1:])]

    dx = np.diff(X, axis=-1)
    ddx = np.diff(dx, axis=-1)
    var_dx = dx.var(axis=-1)
    c2 = centered * centered  # products: ** 3 and ** 4 would call libm pow
    # Statistics with a zero denominator are 0; NaN compares false, so a
    # non-finite channel gets 0 here too.
    with np.errstate(divide="ignore", invalid="ignore"):
        kurtosis = np.where(std > 0, np.mean(c2 * c2, axis=-1) / var**2
                            - 3.0, 0.0)
        skewness = np.where(std > 0, np.mean(c2 * centered, axis=-1)
                            / std**3, 0.0)
        mobility = np.where(var > 0, np.sqrt(var_dx / var), 0.0)
        mobility_dx = np.where(var_dx > 0,
                               np.sqrt(ddx.var(axis=-1) / var_dx), 0.0)
        complexity = np.where(mobility > 0, mobility_dx / mobility, 0.0)
    line_length = np.abs(dx).sum(axis=-1)
    # A strict sign change: exact zeros and NaN never count.
    a, b = X[..., :-1], X[..., 1:]
    zero_crossings = np.sum((a < 0) & (b > 0) | (a > 0) & (b < 0), axis=-1)

    feats = np.stack([mean, std, rms, kurtosis, skewness, q10, q25, q75, q90,
                      ptp, *log_powers, mobility, complexity, line_length,
                      zero_crossings.astype(np.float64)], axis=-1)
    return feats.reshape(*feats.shape[:-2], -1)


def impute_fit(features: NDArray) -> NDArray:
    """Column means over finite entries; 0 where a column is all-bad."""
    finite = np.isfinite(features)
    with np.errstate(invalid="ignore"):
        sums = np.where(finite, features, 0.0).sum(axis=0)
        counts = finite.sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def impute_apply(features: NDArray, means: NDArray) -> NDArray:
    out = np.array(features, dtype=np.float64)
    bad = ~np.isfinite(out)
    out[bad] = np.broadcast_to(means, out.shape)[bad]
    return out


def zscore_fit(features: NDArray) -> tuple[NDArray, NDArray]:
    """Column mean and std from a training matrix; zero stds become 1."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def zscore_apply(features: NDArray, mean: NDArray, std: NDArray) -> NDArray:
    return (features - mean) / std


class LogisticRegression:
    """Linear softmax classifier trained with AdamW full-batch."""

    def __init__(self, n_features: int, n_classes: int, seed: int = 0,
                 n_steps: int = 500):
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.layer = Dense("logreg", n_features, n_classes, self.store, rng)
        self.n_steps = n_steps
        self.cfg = TrainConfig(lr0=LOGREG_LR0,
                               weight_decay=LOGREG_WEIGHT_DECAY,
                               max_epochs=n_steps, t_max=n_steps)

    def fit(self, features: NDArray, labels: NDArray,
            class_weights: NDArray | None = None) -> "LogisticRegression":
        labels = np.asarray(labels, dtype=np.intp)
        n_classes = self.store["logreg.W"].value.shape[1]
        if class_weights is None:
            class_weights = np.ones(n_classes)
        for t in range(1, self.n_steps + 1):
            self.store.zero_grads()
            logits = self.layer.forward(features, self.store)
            _, dlogits = softmax_xent(logits, labels, class_weights)
            self.layer.backward(dlogits, self.store)
            lr = cosine_lr(t - 1, self.n_steps, self.cfg.lr0)
            adamw_step(self.store, lr, self.cfg, t)
        return self

    def predict_proba(self, features: NDArray) -> NDArray:
        return softmax(self.layer.forward(features, self.store))

    def predict(self, features: NDArray) -> NDArray:
        return np.argmax(self.predict_proba(features), axis=1)


def aggregate_recording(items) -> NDArray:
    """Elementwise median of window-level items, stacked along the first
    axis: one recording-level item."""
    if len(items) == 0:
        raise ValueError("nothing to aggregate")
    return np.median(np.asarray(items, dtype=np.float64), axis=0)
