"""Deterministic synthetic multichannel dataset generator.

Two oscillatory sources (10 Hz and 20 Hz) plus a distractor are mixed
into C sensor channels by a fixed full-rank matrix; the class label
controls which source is boosted. Spatial structure therefore carries the
discriminative signal, and amplitudes sit in the tens-of-microvolts range
so that the 20-50 uV corruption regime is genuinely destructive.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .binio import (atomic_write, expect_end, read_exact, read_float64,
                    read_header, unpack_exact, write_header)
from .nn import bounded, check_bounds
from .seeding import rng_for

MAGIC = b"DSFD"
FORMAT_VERSION = 2  # version 1 files (fixed C, T, sfreq header) still load
RECORD = "<QBBI"  # per recording: id, label, split tag, window count
SPLIT_TAGS = ("", "train", "valid", "test")  # split tag byte -> tag


@dataclass(frozen=True)
class SynthConfig:
    n_channels: int = bounded(6, "[3, inf)", "three sources mix at full rank")
    n_times: int = bounded(600, "[128, inf)")
    sfreq: float = bounded(100.0, "(0, inf)")
    n_recordings: int = bounded(60, "[1, inf)")
    windows_per_recording: int = bounded(20, "[1, inf)")
    n_classes: int = bounded(2, "[1, 3]", "one per boosted source")
    mixing_seed: int = bounded(12345, "[0, inf)")
    class_freqs: tuple[float, float] = (10.0, 20.0)
    distractor_freq: float = bounded(5.0, "(-inf, inf)")
    base_amplitude_uv: float = bounded(10.0, "(-inf, inf)")
    # amplitude boost of the class-preferred source
    boost_factor: float = bounded(2.0, "(-inf, inf)")
    background_std_uv: float = bounded(4.0, "[0, inf)")
    sensor_noise_std_uv: float = bounded(2.0, "[0, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)
        if len(self.class_freqs) != 2 or not all(map(math.isfinite,
                                                      self.class_freqs)):
            raise ValueError(f"class_freqs must be two finite values, got "
                             f"{self.class_freqs}")


@dataclass
class Recording:
    id: int
    label: int
    windows: NDArray  # (n_windows, C, T)


@dataclass
class Dataset:
    config: SynthConfig
    recordings: list[Recording]
    splits: dict[int, str] = field(default_factory=dict)  # id -> tag

    def __post_init__(self) -> None:
        # The id is all that links a recording to its split.
        seen: set[int] = set()
        for rec in self.recordings:
            if rec.id in seen:
                raise ValueError(f"recording id {rec.id} repeats")
            seen.add(rec.id)

    def split(self, tag: str) -> list[Recording]:
        return [r for r in self.recordings if self.splits.get(r.id) == tag]

    def window_views(self, tag: str) -> tuple[list[NDArray], NDArray]:
        """Every window of a split, in recording order, as a view into its
        recording (nothing is copied), and the windows' labels."""
        recs = self.split(tag)
        if not recs:
            raise ValueError(f"split {tag!r} is empty")
        views = [w for r in recs for w in r.windows]
        y = np.concatenate([np.full(len(r.windows), r.label) for r in recs])
        return views, y

    def windows_and_labels(self, tag: str) -> tuple[NDArray, NDArray]:
        """The split's windows copied into one (n, C, T) array."""
        views, y = self.window_views(tag)
        return np.stack(views), y


def mixing_matrix(cfg: SynthConfig) -> NDArray:
    """Fixed C x 3 full-rank mixing matrix with unit-norm columns."""
    rng = np.random.default_rng(cfg.mixing_seed)
    while True:
        A = rng.uniform(-1.0, 1.0, size=(cfg.n_channels, 3))
        if np.linalg.matrix_rank(A) == 3:
            return A / np.linalg.norm(A, axis=0, keepdims=True)


# Finite fields can still overflow (a huge amplitude or noise scale, or a
# tiny sfreq); generate_dataset reports that as a ValueError instead.
@np.errstate(over="ignore", invalid="ignore")
def generate_dataset(cfg: SynthConfig, seed: int) -> Dataset:
    """Deterministic dataset: same (cfg, seed) gives bit-identical data.

    Recording r draws from rng_for(seed, r), window by window: three
    source phases, then C x T white noise for the 1/f background and
    C x T sensor noise. Window w is then

        A @ (amp * sin(2 pi f t + phase)) + pink + sensor,

    where pink is the white noise shaped by 1/sqrt(f) in the spectrum (DC
    removed) and scaled to background_std_uv per channel, and sensor is
    the sensor noise times sensor_noise_std_uv. The arithmetic runs once
    on the recording's (n, C, T) stack, in reused buffers.
    """
    C, T, n = cfg.n_channels, cfg.n_times, cfg.windows_per_recording
    A = mixing_matrix(cfg)
    freqs = np.array([*cfg.class_freqs, cfg.distractor_freq])
    omega_t = (2.0 * np.pi * freqs)[:, None] * (np.arange(T) / cfg.sfreq)
    f = np.fft.rfftfreq(T)
    weights = np.zeros_like(f)
    weights[1:] = 1.0 / np.sqrt(f[1:])
    phases = np.empty((n, 3))
    white = np.empty((n, C, T))
    sensor = np.empty((n, C, T))
    sources = np.empty((n, 3, T))
    mixed = np.empty((n, C, T))
    spec = np.empty((n, C, len(f)), dtype=np.complex128)
    recordings = []
    for rec_id in range(cfg.n_recordings):
        label = rec_id % cfg.n_classes
        rng = rng_for(seed, rec_id)
        for w in range(n):
            phases[w] = rng.uniform(0.0, 2.0 * np.pi, size=3)
            rng.standard_normal(out=white[w])
            rng.standard_normal(out=sensor[w])
        # rng.normal(loc, scale) is loc + scale * z on the same z stream;
        # the + 0.0 turns a -0.0 draw into +0.0 as loc = 0.0 does there.
        white += 0.0
        sensor *= cfg.sensor_noise_std_uv
        sensor += 0.0
        amps = np.full(3, cfg.base_amplitude_uv)
        amps[label] *= cfg.boost_factor
        np.add(omega_t, phases[:, :, None], out=sources)
        np.sin(sources, out=sources)
        sources *= amps[:, None]
        np.fft.rfft(white, axis=-1, out=spec)
        spec *= weights
        # X holds the pink noise, then the window: pink + mixed is
        # mixed + pink bit for bit, since IEEE addition commutes.
        X = np.fft.irfft(spec, n=T, axis=-1)
        X /= X.std(axis=-1, keepdims=True)
        X *= cfg.background_std_uv
        X += np.matmul(A, sources, out=mixed)
        X += sensor
        if not np.isfinite(X).all():
            raise ValueError(f"recording {rec_id} has non-finite samples: "
                             "base_amplitude_uv, boost_factor, "
                             "background_std_uv, sensor_noise_std_uv or "
                             "sfreq is out of range")
        recordings.append(Recording(id=rec_id, label=label, windows=X))
    return Dataset(config=cfg, recordings=recordings)


def split_dataset(ds: Dataset, fractions: tuple[float, float, float],
                  seed: int) -> Dataset:
    """Label-stratified recording-wise split into train/valid/test."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    splits: dict[int, str] = {}
    labels = sorted({r.label for r in ds.recordings})
    for label in labels:
        ids = [r.id for r in ds.recordings if r.label == label]
        ids = list(rng.permutation(ids))
        n = len(ids)
        n_train = int(round(fractions[0] * n))
        n_valid = int(round(fractions[1] * n))
        if fractions[0] > 0 and n_train == 0 or fractions[1] > 0 and n_valid == 0:
            raise ValueError(f"too few recordings of class {label} to split")
        for i, rec_id in enumerate(ids):
            if i < n_train:
                splits[rec_id] = "train"
            elif i < n_train + n_valid:
                splits[rec_id] = "valid"
            else:
                splits[rec_id] = "test"
    return Dataset(config=ds.config, recordings=ds.recordings, splits=splits)


def save_dataset(ds: Dataset, path: str) -> None:
    """Binary dataset file; see load_dataset for the layout."""
    config = json.dumps(asdict(ds.config)).encode("utf-8")
    with atomic_write(path) as f:
        write_header(f, MAGIC, FORMAT_VERSION)
        f.write(struct.pack("<I", len(config)) + config)
        f.write(struct.pack("<I", len(ds.recordings)))
        for rec in ds.recordings:
            tag = ds.splits.get(rec.id, "")
            if tag not in SPLIT_TAGS:
                raise ValueError(f"recording {rec.id}: unknown split tag "
                                 f"{tag!r}")
            f.write(struct.pack(RECORD, rec.id, rec.label,
                                SPLIT_TAGS.index(tag), len(rec.windows)))
            f.write(np.ascontiguousarray(rec.windows, dtype="<f8").tobytes())


def _config(raw: bytes | str, path: str) -> SynthConfig:
    """SynthConfig from its fields as JSON; the rest take their defaults."""
    try:
        return SynthConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in json.loads(raw).items()})
    except (AttributeError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad dataset config: {e}") from e


def load_dataset(path: str) -> Dataset:
    """Read a save_dataset file: magic, version, the SynthConfig as a u32
    length and its UTF-8 JSON (version 1: C, T, sfreq), the recording
    count, then per recording a RECORD and its little-endian float64
    windows. Every length is checked exactly. A version 1 file takes its
    class count from its labels (max + 1)."""
    with open(path, "rb") as f:
        version = read_header(f, MAGIC, (1, FORMAT_VERSION), "dataset", path)
        if version == 1:
            C, T, sfreq, n_rec = unpack_exact(f, "<IIdI", path)
            cfg = _config(json.dumps(dict(n_channels=C, n_times=T,
                                          sfreq=sfreq, n_recordings=n_rec)),
                          path)
        else:
            (n,) = unpack_exact(f, "<I", path)
            cfg = _config(read_exact(f, n, path), path)
            (n_rec,) = unpack_exact(f, "<I", path)
        recordings: dict[int, Recording] = {}  # id -> recording, file order
        splits: dict[int, str] = {}
        for _ in range(n_rec):
            id_offset = f.tell()
            tag_offset = id_offset + struct.calcsize("<QB")
            rec_id, label, tag_code, n_win = unpack_exact(f, RECORD, path)
            if rec_id in recordings:
                raise ValueError(f"{path}: repeated recording id {rec_id} at "
                                 f"byte offset {id_offset}")
            if tag_code >= len(SPLIT_TAGS):
                raise ValueError(f"{path}: unknown split tag {tag_code} at "
                                 f"byte offset {tag_offset}")
            if version == FORMAT_VERSION and label >= cfg.n_classes:
                raise ValueError(f"{path}: label {label} at byte offset "
                                 f"{tag_offset - 1} is not below n_classes "
                                 f"{cfg.n_classes}")
            windows = read_float64(
                f, (n_win, cfg.n_channels, cfg.n_times), path)
            recordings[rec_id] = Recording(id=rec_id, label=label,
                                           windows=windows)
            if SPLIT_TAGS[tag_code]:
                splits[rec_id] = SPLIT_TAGS[tag_code]
        expect_end(f, path)
    if version == 1 and recordings:
        try:
            cfg = replace(cfg, n_classes=max(r.label for r in
                                             recordings.values()) + 1)
        except ValueError as e:
            raise ValueError(f"{path}: bad dataset labels: {e}") from e
    return Dataset(config=cfg, recordings=list(recordings.values()),
                   splits=splits)
