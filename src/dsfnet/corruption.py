"""Channel-corruption transform and corruption detector.

The same masked convex combination of signal and Gaussian white noise
serves as training-time augmentation (each window draws a mask) and as
evaluation-time corruption (a recording draws one mask for all its
windows), both through `draw_mask`. A spectral-slope plus variance
detector flags corrupted channel-windows in one pass over the stack.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .nn import bounded, check_bounds, check_interval
from .seeding import rng_for

# Detector thresholds: a channel-window is flagged above both.
SLOPE_THRESH = -0.5
VAR_THRESH_UV2 = 1000.0


@dataclass(frozen=True)
class CorruptionSpec:
    p: float = bounded(0.5, "[0, 1]")
    eta_range: tuple[float, float] = bounded((0.5, 1.0), "[0, 1]")
    sigma_range_uv: tuple[float, float] = bounded((20.0, 50.0), "(0, inf)")
    scope: str = "per_window"  # or "per_recording"
    forced_mask: NDArray | None = None
    forced_count: int | None = bounded(None, "[0, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.scope not in ("per_window", "per_recording"):
            raise ValueError(f"unknown scope: {self.scope!r}")
        if self.forced_mask is not None:
            if self.forced_count is not None:
                raise ValueError("set forced_mask or forced_count, not both")
            mask = np.asarray(self.forced_mask, dtype=np.float64)
            if mask.ndim != 1:
                raise ValueError(f"forced_mask must be 1-D, got shape "
                                 f"{mask.shape}")
            if not ((mask == 0.0) | (mask == 1.0)).all():
                raise ValueError(f"forced_mask entries must be 0 or 1, got "
                                 f"{mask.tolist()}")


def sample_mask(C: int, p: float, rng: np.random.Generator) -> NDArray:
    """i.i.d. Bernoulli(p) corruption mask; 1 marks a corrupted channel."""
    check_interval("p", p, "[0, 1]")
    return (rng.random(C) < p).astype(np.float64)


def corrupt_window(X: NDArray, nu: NDArray, eta: float, sigma_uv: float,
                   rng: np.random.Generator) -> NDArray:
    """Masked convex combination of the window with Gaussian white noise.

    X~ = (1 - eta) diag(nu) X + eta diag(nu) Z + diag(1 - nu) X with
    Z ~ N(0, sigma^2). Unmasked channels come out bit-identical; with
    eta = 0 the whole window does.
    """
    check_interval("eta", eta, "[0, 1]")
    check_interval("sigma_uv", sigma_uv, "(0, inf)")
    out = np.array(X, dtype=np.float64)
    _mix_noise(out, np.asarray(nu, dtype=np.float64) > 0, eta, sigma_uv, rng)
    return out


def _mix_noise(X: NDArray, masked: NDArray, eta: float, sigma_uv: float,
               rng: np.random.Generator) -> None:
    """In place, X[masked] = (1 - eta) X[masked] + eta Z with Z drawn from
    rng as N(0, sigma^2); at eta = 0 or with no row masked, draws nothing.
    Callers check eta and sigma."""
    if eta == 0.0 or not masked.any():
        return
    Z = rng.normal(0.0, sigma_uv, size=(int(masked.sum()), X.shape[1]))
    X[masked] = (1.0 - eta) * X[masked] + eta * Z


def _draw_params(spec: CorruptionSpec, rng: np.random.Generator
                 ) -> tuple[float, float]:
    lo, hi = spec.eta_range
    eta = lo if lo == hi else rng.uniform(lo, hi)
    slo, shi = spec.sigma_range_uv
    sigma = slo if slo == shi else rng.uniform(slo, shi)
    return eta, sigma


def augment_batch(batch: NDArray, spec: CorruptionSpec, master_seed: int,
                  index_offset: int = 0) -> NDArray:
    """Corrupt each window of a (B, C, T) batch independently.

    Per-window RNGs are derived from (master_seed, window index), so the
    augmented stream does not depend on batching or scheduling.
    """
    if spec.scope != "per_window":
        raise ValueError("augment_batch needs scope='per_window'")
    out = np.array(batch, dtype=np.float64)
    C = out.shape[1]
    for i, X in enumerate(out):
        rng = rng_for(master_seed, index_offset + i)
        masked = draw_mask(C, spec, rng) > 0
        eta, sigma = _draw_params(spec, rng)
        _mix_noise(X, masked, eta, sigma, rng)
    return out


def draw_mask(C: int, spec: CorruptionSpec,
              rng: np.random.Generator) -> NDArray:
    """Corruption mask over C channels: the spec's forced mask, else
    forced_count channels without replacement, else Bernoulli(p) each."""
    if spec.forced_mask is not None:
        nu = np.asarray(spec.forced_mask, dtype=np.float64)
        if nu.shape != (C,):
            raise ValueError(f"forced_mask shape {nu.shape} is not ({C},)")
        return nu
    if spec.forced_count is not None:
        check_interval("forced_count", spec.forced_count, f"[0, {C}]")
        nu = np.zeros(C)
        nu[rng.choice(C, size=spec.forced_count, replace=False)] = 1.0
        return nu
    return sample_mask(C, spec.p, rng)


def corrupt_recording(windows: NDArray, spec: CorruptionSpec,
                      rng: np.random.Generator) -> NDArray:
    """Corrupt every window of an (n_win, C, T) recording with one shared
    mask; eta and sigma are redrawn per window within the spec's ranges.
    Every draw comes from the one rng, in window order."""
    if spec.scope != "per_recording":
        raise ValueError("corrupt_recording needs scope='per_recording'")
    out = np.array(windows, dtype=np.float64)
    if len(out) == 0:
        raise ValueError("recording has no windows")
    masked = draw_mask(out.shape[1], spec, rng) > 0
    for X in out:
        eta, sigma = _draw_params(spec, rng)
        _mix_noise(X, masked, eta, sigma, rng)
    return out


def psd_slope(x: NDArray, f_lo: float, f_hi: float, sfreq: float) -> NDArray:
    """Log10-log10 spectral slopes, shape (...), of (..., T) rectangular-
    window periodograms: closed-form least-squares slope of log10(power)
    against centred log10(frequency) over the bins in [f_lo, f_hi], DC
    excluded."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-1]
    if T < 256:
        raise ValueError(f"need at least 256 samples, got {T}")
    freqs = np.fft.rfftfreq(T, d=1.0 / sfreq)
    sel = (freqs >= f_lo) & (freqs <= f_hi) & (freqs > 0)
    if sel.sum() < 2:
        raise ValueError(f"a slope needs 2 or more frequency bins inside "
                         f"[{f_lo}, {f_hi}] Hz, got {sel.sum()}")
    logf = np.log10(freqs[sel])
    logf -= logf.mean()
    power = np.abs(np.fft.rfft(x)[..., sel]) ** 2 / T
    return np.log10(np.maximum(power, 1e-300)) @ logf / (logf @ logf)


def corruption_fraction(windows: list[NDArray], sfreq: float) -> float:
    """Fraction of (window, channel) pairs flagged as corrupted.

    A channel-window is flagged when its 0.1-30 Hz spectral slope is above
    SLOPE_THRESH and its variance is above VAR_THRESH_UV2: flat-spectrum,
    high-power content that physiological signal does not produce.
    """
    if len(windows) == 0:
        raise ValueError("recording has no windows")
    X = np.asarray(windows, dtype=np.float64)
    flagged = ((X.var(axis=-1) > VAR_THRESH_UV2)
               & (psd_slope(X, 0.1, 30.0, sfreq) > SLOPE_THRESH))
    return float(flagged.mean())
