"""Minimal differentiable-computation stack with hand-derived gradients.

Layers cache what their backward pass needs and drop it once no backward
can read it, parameters live in a flat named ParamStore, and AdamW with
cosine annealing drives the updates. Everything is plain float64 numpy; a
finite-difference checker in the test suite pins every gradient.
"""

import functools
import struct
from dataclasses import dataclass, field, fields
from typing import get_args

import numpy as np
from numpy.typing import NDArray

from .binio import (atomic_write, expect_end, read_exact, read_float64,
                    read_header, read_shape, unpack_exact, write_header)

LOG_FLOOR = 1e-6
MAGIC = b"DSF1"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class Param:
    value: NDArray
    grad: NDArray
    adam_m: NDArray
    adam_v: NDArray


class ParamStore:
    """Flat named collection of trainable tensors plus optimizer state."""

    def __init__(self) -> None:
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: NDArray) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        value = np.asarray(value, dtype=np.float64)
        p = Param(
            value=value,
            grad=np.zeros_like(value),
            adam_m=np.zeros_like(value),
            adam_v=np.zeros_like(value),
        )
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    # Binary round-trip: magic, version, entry count, then per entry the
    # name, shape and raw little-endian float64 values. Bit-exact across
    # runs on the same platform.
    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            write_header(f, MAGIC, FORMAT_VERSION)
            f.write(struct.pack("<I", len(self._params)))
            for name in sorted(self._params):
                value = self._params[name].value
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)) + encoded)
                f.write(struct.pack(f"<{value.ndim + 1}Q", value.ndim,
                                    *value.shape))
                f.write(np.ascontiguousarray(value, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "ParamStore":
        store = cls()
        with open(path, "rb") as f:
            read_header(f, MAGIC, (FORMAT_VERSION,), "parameter", path)
            (count,) = unpack_exact(f, "<I", path)
            for _ in range(count):
                (name_len,) = unpack_exact(f, "<I", path)
                name = read_exact(f, name_len, path)
                (rank,) = unpack_exact(f, "<Q", path)
                value = read_float64(f, read_shape(f, rank, path), path)
                try:  # a name that is not UTF-8, or that repeats
                    store.add(name.decode("utf-8"), value)
                except ValueError as e:
                    raise ValueError(f"{path}: bad parameter name: {e}") from e
            expect_end(f, path)
        return store


def he_uniform_init(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> NDArray:
    """Uniform He initialization: i.i.d. U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    check_interval("fan_in", fan_in, "[1, inf)", integer=True)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Layers


class Layer:
    """Forward caches activations; backward returns the input gradient and
    accumulates parameter gradients into the store.

    The activations a forward keeps for its backward, and nothing else, sit
    in attributes whose names start with an underscore; ``release`` drops
    them. A bare forward keeps them, so that a backward can follow in train
    or eval mode alike.

    A model sets ``input_grad`` to False on its first layer, whose input
    gradient nobody reads; layers that can come first (TemporalConv and
    the front ends) then return None from backward instead of computing it.
    """

    input_grad = True

    def forward(self, x, store, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout, store):
        raise NotImplementedError

    def release(self):
        """Drop the activations of the last forward, here and in every
        layer this one holds."""
        for name, value in list(vars(self).items()):
            if name.startswith("_"):
                delattr(self, name)
            elif isinstance(value, Layer):
                value.release()


class Dense(Layer):
    """Affine map on the last axis: y = x @ W + b."""

    def __init__(self, name, in_dim, out_dim, store, rng):
        self.w_name = f"{name}.W"
        self.b_name = f"{name}.b"
        store.add(self.w_name, he_uniform_init((in_dim, out_dim), in_dim, rng))
        store.add(self.b_name, np.zeros(out_dim))

    def forward(self, x, store, train=False, rng=None):
        self._x = x
        return x @ store[self.w_name].value + store[self.b_name].value

    def backward(self, dout, store):
        store[self.w_name].grad += self._x.T @ dout
        store[self.b_name].grad += dout.sum(axis=0)
        return dout @ store[self.w_name].value.T


def _bins(spectrum):
    """(..., W) spectra -> contiguous (W, ...) stack, one matrix per bin."""
    return np.ascontiguousarray(np.moveaxis(spectrum, -1, 0))


def _irfft_bins(stack, T):
    """(W, P, Q) bin stack -> (P, Q, T) signals. irfft runs on a contiguous
    copy: about twice as fast as on the transposed view, copy included."""
    return np.fft.irfft(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), n=T)


class TemporalConv(Layer):
    """Valid-padding temporal convolution, filters shared across channels,
    with an optional spatial projection folded into the same kernel.

    On its own: (B, C, T) -> (B, C * n_filters, T - k + 1); output map
    index is c * n_filters + f. With a SpatialConv over those maps set as
    ``spatial``, it returns that layer's output instead, (B, S, T - k + 1),
    and its backward writes that layer's parameter gradients too; the
    SpatialConv's own forward and backward are never called.

    Either way the projection Ws, bs (without a spatial layer, the identity
    and 0) is folded into one kernel K[c, s, j] = sum_f Ws[c*F + f, s]
    Wt[f, j] with bias sum_{c,f} Ws[c*F + f, s] bt[f] + bs[s], and every
    correlation is an rFFT product of length T, at which a valid
    correlation never wraps. Each of the W = T//2 + 1 bins mixes channels
    with one matrix product: forward X^ (W, B, C) @ conj(K^) (W, C, S), and
    backward one stacked product each for dK and, unless ``input_grad`` is
    off, dx.
    """

    def __init__(self, name, n_filters, kernel, store, rng):
        self.n_filters = n_filters
        self.kernel = kernel
        self.w_name = f"{name}.W"
        self.b_name = f"{name}.b"
        store.add(self.w_name, he_uniform_init((n_filters, kernel), kernel, rng))
        store.add(self.b_name, np.zeros(n_filters))
        self.spatial: SpatialConv | None = None

    def _projection(self, C, store):
        """Ws as (C, F, S) and bs (S,)."""
        if self.spatial is None:
            M = C * self.n_filters
            Ws, bs = np.eye(M), np.zeros(M)
        else:
            Ws = store[self.spatial.w_name].value
            bs = store[self.spatial.b_name].value
        return Ws.reshape(C, self.n_filters, -1), bs

    def forward(self, x, store, train=False, rng=None):
        _, C, T = x.shape
        k = self.kernel
        if T < k:
            raise ValueError(f"window of {T} samples shorter than kernel {k}")
        Ws, bs = self._projection(C, store)
        K = np.einsum("cfs,fj->csj", Ws, store[self.w_name].value)
        bias = np.einsum("cfs,f->s", Ws, store[self.b_name].value) + bs
        self._xf = _bins(np.fft.rfft(x))
        self._kf = _bins(np.fft.rfft(K, n=T))
        y = _irfft_bins(self._xf @ self._kf.conj(), T)
        return y[..., :T - k + 1] + bias[:, None]

    def backward(self, dout, store):
        xf, kf, k = self._xf, self._kf, self.kernel
        C, T = xf.shape[2], dout.shape[-1] + k - 1
        df = _bins(np.fft.rfft(dout, n=T))
        dK = _irfft_bins(xf.swapaxes(1, 2) @ df.conj(), T)[..., :k]
        dbias = dout.sum(axis=(0, 2))
        Ws, _ = self._projection(C, store)
        store[self.w_name].grad += np.einsum("cfs,csj->fj", Ws, dK)
        store[self.b_name].grad += np.einsum("cfs,s->f", Ws, dbias)
        if self.spatial is not None:
            Wt, bt = store[self.w_name].value, store[self.b_name].value
            dWs = np.einsum("fj,csj->cfs", Wt, dK) + np.outer(bt, dbias)
            p = store[self.spatial.w_name]
            p.grad += dWs.reshape(p.grad.shape)
            store[self.spatial.b_name].grad += dbias
        if not self.input_grad:
            return None
        return _irfft_bins(df @ kf.swapaxes(1, 2), T)


class SpatialConv(Layer):
    """Affine map across the map axis applied independently at every time step.

    (B, M, T) -> (B, out_maps, T).
    """

    def __init__(self, name, in_maps, out_maps, store, rng):
        self.w_name = f"{name}.W"
        self.b_name = f"{name}.b"
        store.add(self.w_name, he_uniform_init((in_maps, out_maps), in_maps, rng))
        store.add(self.b_name, np.zeros(out_maps))

    def forward(self, x, store, train=False, rng=None):
        self._x = x
        W = store[self.w_name].value
        b = store[self.b_name].value
        return np.einsum("bmt,mo->bot", x, W, optimize=True) + b[None, :, None]

    def backward(self, dout, store):
        store[self.w_name].grad += np.einsum("bmt,bot->mo", self._x, dout, optimize=True)
        store[self.b_name].grad += dout.sum(axis=(0, 2))
        return np.einsum("bot,mo->bmt", dout, store[self.w_name].value, optimize=True)


class Square(Layer):
    def forward(self, x, store, train=False, rng=None):
        self._x = x
        return x * x

    def backward(self, dout, store):
        return 2.0 * self._x * dout


class LogFloor(Layer):
    """Elementwise natural log with floor: log(max(x, LOG_FLOOR))."""

    def forward(self, x, store, train=False, rng=None):
        self._clipped = np.maximum(x, LOG_FLOOR)
        return np.log(self._clipped)

    def backward(self, dout, store):
        # x > LOG_FLOOR exactly where the clipped value is, NaN included.
        return np.where(self._clipped > LOG_FLOOR, dout / self._clipped, 0.0)


class AvgPool(Layer):
    """Temporal average pooling with window w and stride s on the last axis,
    as one product with a (T, n_pool) matrix holding 1/w on each window,
    built once per input length."""

    def __init__(self, width, stride):
        self.width = width
        self.stride = stride
        self.matrix = None

    def forward(self, x, store, train=False, rng=None):
        T = x.shape[-1]
        if self.matrix is None or len(self.matrix) != T:
            if T < self.width:
                raise ValueError(
                    f"cannot pool {T} samples with window {self.width}")
            n_pool = (T - self.width) // self.stride + 1
            offset = np.arange(T)[:, None] - self.stride * np.arange(n_pool)
            self.matrix = ((offset >= 0) & (offset < self.width)) / self.width
        return x @ self.matrix

    def backward(self, dout, store):
        return dout @ self.matrix.T


class Dropout(Layer):
    """Inverted-scaling dropout; identity in eval mode."""

    def __init__(self, rate):
        check_interval("dropout rate", rate, "[0, 1)")
        self.rate = rate

    def forward(self, x, store, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout, store):
        if self._mask is None:
            return dout
        return dout * self._mask


class Sigmoid(Layer):
    def forward(self, x, store, train=False, rng=None):
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, dout, store):
        return dout * self._y * (1.0 - self._y)


class Flatten(Layer):
    def forward(self, x, store, train=False, rng=None):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, store):
        return dout.reshape(self._in_shape)


class Sequential(Layer):
    """Layers applied in order; backward runs them in reverse and releases
    each layer once its backward has read the caches."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, store, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, store, train=train, rng=rng)
        return x

    def backward(self, dout, store):
        for layer in reversed(self.layers):
            dout = layer.backward(dout, store)
            layer.release()
        return dout

    def release(self):
        for layer in self.layers:
            layer.release()


# ---------------------------------------------------------------------------
# Loss


def softmax(logits: NDArray) -> NDArray:
    """Row-wise softmax of (B, K) logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def softmax_xent(
    logits: NDArray, labels: NDArray, class_weights: NDArray
) -> tuple[float, NDArray]:
    """Class-weighted cross-entropy: mean over the batch of -w_y log p_y.

    Returns the scalar loss and its gradient with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite values")
    labels = np.asarray(labels, dtype=np.intp)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    B = logits.shape[0]

    shifted = logits - logits.max(axis=1, keepdims=True)
    logZ = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logZ
    w = class_weights[labels]
    loss = float(-(w * log_probs[np.arange(B), labels]).mean())

    probs = np.exp(log_probs)
    grad = probs * w[:, None]
    grad[np.arange(B), labels] -= w
    return loss, grad / B


# ---------------------------------------------------------------------------
# Config bounds


@functools.cache
def _interval(interval: str, reason: str):
    """(lo, hi, lo open, hi open, rule as the message writes it)."""
    lo, hi = (float(v) for v in interval[1:-1].split(","))
    rule = f"in {interval}"
    if hi == np.inf and lo > -np.inf:  # a half-line
        rule = f"{'>' if interval[0] == '(' else '>='} {lo:g}"
    rule += f" ({reason})" if reason else ""
    return lo, hi, interval[0] == "(", interval[-1] == ")", rule


def check_interval(name: str, value, interval: str, reason: str = "",
                   integer: bool = False) -> None:
    """Hold a value to an interval written as its message writes it:
    "[lo, hi)", a square bracket closing an end and a round one opening it.
    An infinite end is written open, so a value inside is finite. NaN fails,
    and so, with integer set, does a value that is not an int. A reason, if
    given, follows the rule in the message."""
    lo, hi, lo_open, hi_open, rule = _interval(interval, reason)
    if not ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        raise ValueError(f"{name} must be {rule}, got {value}")
    if integer and not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")


def bounded(default, interval: str, reason: str = ""):
    """A dataclass field that check_bounds holds to check_interval's
    interval and reason."""
    return field(default=default, metadata={"bound": (interval, reason)})


def check_bounds(cfg) -> None:
    """Hold each bounded field of cfg to its interval, as an integer if it
    is declared int (or int | None, or tuple[int, ...]). A tuple (or list)
    is checked entry by entry, and None not at all; a tuple[float, float]
    must also be an ordered pair."""
    for f in fields(cfg):
        if "bound" not in f.metadata:
            continue
        value = getattr(cfg, f.name)
        integer = int in (f.type, *get_args(f.type))
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if v is not None:
                check_interval(f.name, v, *f.metadata["bound"], integer)
        if get_args(f.type) == (float, float) and (
                len(value) != 2 or value[0] > value[1]):
            raise ValueError(f"{f.name} must be a pair lo <= hi, got {value}")


# ---------------------------------------------------------------------------
# Optimization


@dataclass
class TrainConfig:
    lr0: float = bounded(1e-3, "(0, inf)")
    beta1: float = bounded(0.9, "[0, 1)")
    beta2: float = bounded(0.999, "[0, 1)")
    eps: float = bounded(1e-8, "(0, inf)")
    weight_decay: float = bounded(0.01, "[0, inf)")
    max_epochs: int = bounded(40, "[1, inf)")
    patience: int = bounded(7, "[0, inf)")
    batch_size: int = bounded(64, "[1, inf)")
    t_max: int = bounded(40, "[1, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)
        check_interval("patience", self.patience, f"[0, {self.max_epochs}]",
                       "at most max_epochs")


def adamw_step(store: ParamStore, lr: float, config: TrainConfig, t: int) -> None:
    """One decoupled-weight-decay Adam update with bias correction at step t."""
    b1, b2, eps, wd = config.beta1, config.beta2, config.eps, config.weight_decay
    for name in store.names():
        p = store[name]
        p.adam_m[...] = b1 * p.adam_m + (1.0 - b1) * p.grad
        p.adam_v[...] = b2 * p.adam_v + (1.0 - b2) * p.grad**2
        m_hat = p.adam_m / (1.0 - b1**t)
        v_hat = p.adam_v / (1.0 - b2**t)
        p.value[...] -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p.value)


def cosine_lr(t: int, t_max: int, lr0: float) -> float:
    """Cosine annealing from lr0 at t=0 down to 0 at t=t_max."""
    check_interval("t_max", t_max, "(0, inf)")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * t / t_max))


# ---------------------------------------------------------------------------
# ShallowNet-style classifier


@dataclass
class ShallowNetConfig:
    n_temporal_filters: int = bounded(8, "[1, inf)")
    temporal_kernel: int = bounded(25, "[1, inf)")
    n_spatial_filters: int = bounded(8, "[1, inf)")
    pool_width: int = bounded(75, "[1, inf)")
    pool_stride: int = bounded(15, "[1, inf)")
    dropout_rate: float = bounded(0.5, "[0, 1)")

    def __post_init__(self) -> None:
        check_bounds(self)


class ShallowNet(Sequential):
    """Temporal conv -> spatial conv -> square -> avg pool -> log -> dropout
    -> dense classifier, on (batch, channels, time) input, with one output
    per class."""

    def __init__(self, n_channels, n_times, cfg: ShallowNetConfig, store, rng,
                 n_classes: int):
        self.cfg = cfg
        t_conv = n_times - cfg.temporal_kernel + 1
        if t_conv < cfg.pool_width:
            raise ValueError(
                f"{n_times} samples leave {t_conv} after convolution, "
                f"fewer than the pool width {cfg.pool_width}"
            )
        n_pool = (t_conv - cfg.pool_width) // cfg.pool_stride + 1
        # The spatial convolution owns its parameters but runs inside the
        # temporal one, folded into a single kernel.
        tconv = TemporalConv("net.tconv", cfg.n_temporal_filters,
                             cfg.temporal_kernel, store, rng)
        tconv.spatial = SpatialConv("net.sconv",
                                    n_channels * cfg.n_temporal_filters,
                                    cfg.n_spatial_filters, store, rng)
        super().__init__([
            tconv,
            Square(),
            AvgPool(cfg.pool_width, cfg.pool_stride),
            LogFloor(),
            Dropout(cfg.dropout_rate),
            Flatten(),
            Dense("net.out", cfg.n_spatial_filters * n_pool, n_classes,
                  store, rng),
        ])
