import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet.baselines import LogisticRegression, zscore_apply, zscore_fit
from dsfnet.harness import balanced_accuracy
from dsfnet.seeding import rng_for
from dsfnet.synth import (RECORD, Dataset, Recording, SynthConfig,
                          generate_dataset, load_dataset, mixing_matrix,
                          save_dataset, split_dataset)

TINY = SynthConfig(n_channels=3, n_times=128, n_recordings=8,
                   windows_per_recording=3)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_times=64)


@pytest.mark.parametrize("field,value", [
    ("sfreq", 0.0), ("sfreq", -100.0), ("sfreq", float("inf")),
    ("sfreq", float("nan")),
    ("n_recordings", 0), ("windows_per_recording", 0),
    ("background_std_uv", -1.0), ("sensor_noise_std_uv", -1.0),
    ("sensor_noise_std_uv", float("nan")),
    ("sensor_noise_std_uv", float("inf")),
    ("background_std_uv", float("inf")),
    ("base_amplitude_uv", float("nan")), ("boost_factor", float("inf")),
    ("distractor_freq", float("nan")),
    ("class_freqs", (float("nan"), 20.0)), ("class_freqs", (10.0, -math.inf)),
    ("class_freqs", (10.0,)), ("mixing_seed", -1),
    ("n_channels", float("nan")), ("n_times", float("nan")),
])
def test_config_rejects_values_that_break_generation(field, value):
    with pytest.raises(ValueError, match=field):
        SynthConfig(**{field: value})


@pytest.mark.parametrize("n_channels", [1, 2])
def test_config_rejects_fewer_channels_than_sources(n_channels):
    # Three sources need three channels for a full-rank mixing matrix.
    with pytest.raises(ValueError, match="three sources"):
        SynthConfig(n_channels=n_channels)


@pytest.mark.parametrize("n_classes", [0, 4])
def test_config_rejects_unsupported_class_count(n_classes):
    # The generator has three sources to boost, one per class.
    with pytest.raises(ValueError, match="n_classes"):
        SynthConfig(n_classes=n_classes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fields", [
    dict(boost_factor=1e308),
    dict(base_amplitude_uv=1e307, boost_factor=100.0),
    dict(background_std_uv=1e308, sensor_noise_std_uv=1e308),
    dict(sfreq=1e-320),  # the phase rate 2 pi f / sfreq overflows
], ids=["boost", "amplitude", "noise", "sfreq"])
def test_generate_rejects_finite_fields_that_overflow(fields):
    with pytest.raises(ValueError, match=(
            r"^recording 0 has non-finite samples: base_amplitude_uv, "
            r"boost_factor, background_std_uv, sensor_noise_std_uv or "
            r"sfreq is out of range$")):
        generate_dataset(dataclasses.replace(TINY, **fields), seed=0)


def test_mixing_matrix_properties():
    A = mixing_matrix(SynthConfig())
    assert A.shape == (6, 3)
    np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, rtol=1e-12)
    assert np.linalg.matrix_rank(A) == 3
    # Fixed by the mixing seed, independent of the dataset seed.
    np.testing.assert_array_equal(A, mixing_matrix(SynthConfig()))


def test_generate_is_deterministic():
    a = generate_dataset(TINY, seed=5)
    b = generate_dataset(TINY, seed=5)
    c = generate_dataset(TINY, seed=6)
    for ra, rb in zip(a.recordings, b.recordings):
        np.testing.assert_array_equal(ra.windows, rb.windows)
    assert not np.array_equal(a.recordings[0].windows, c.recordings[0].windows)


def pink_noise(shape, rng, std):
    """1/f-shaped background noise, scaled to the requested std per row."""
    C, T = shape
    white = rng.normal(size=(C, T))
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(T)
    weights = np.ones_like(freqs)
    weights[1:] = 1.0 / np.sqrt(freqs[1:])
    weights[0] = 0.0
    shaped = np.fft.irfft(spec * weights, n=T, axis=1)
    shaped /= shaped.std(axis=1, keepdims=True)
    return std * shaped


def one_window(cfg, label, A, rng):
    """One window the long way: its own draws, then its own arithmetic."""
    t = np.arange(cfg.n_times) / cfg.sfreq
    amps = np.full(3, cfg.base_amplitude_uv)
    amps[label] *= cfg.boost_factor
    freqs = (*cfg.class_freqs, cfg.distractor_freq)
    sources = np.stack([
        amp * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        for amp, f in zip(amps, freqs)
    ])
    X = A @ sources
    X += pink_noise((cfg.n_channels, cfg.n_times), rng, cfg.background_std_uv)
    X += rng.normal(0.0, cfg.sensor_noise_std_uv,
                    size=(cfg.n_channels, cfg.n_times))
    return X


def window_by_window(cfg, seed):
    A = mixing_matrix(cfg)
    out = []
    for rec_id in range(cfg.n_recordings):
        rng = rng_for(seed, rec_id)
        out.append(np.stack([
            one_window(cfg, rec_id % cfg.n_classes, A, rng)
            for _ in range(cfg.windows_per_recording)]))
    return out


@settings(max_examples=30, deadline=None)
@given(C=st.integers(3, 6), T=st.integers(128, 601),
       n_win=st.integers(1, 24), n_classes=st.integers(1, 3),
       background=st.sampled_from([0.0, 4.0, 0.3]),
       sensor=st.sampled_from([0.0, 2.0, 7.5]),
       sfreq=st.sampled_from([100.0, 250.0]), seed=st.integers(0, 2**32 - 1))
def test_generate_matches_window_by_window_oracle(C, T, n_win, n_classes,
                                                  background, sensor, sfreq,
                                                  seed):
    cfg = SynthConfig(n_channels=C, n_times=T, sfreq=sfreq,
                      n_recordings=n_classes + 1, windows_per_recording=n_win,
                      n_classes=n_classes, background_std_uv=background,
                      sensor_noise_std_uv=sensor)
    got = generate_dataset(cfg, seed).recordings
    for rec, ref in zip(got, window_by_window(cfg, seed), strict=True):
        assert rec.windows.tobytes() == ref.tobytes()


def test_leading_recordings_do_not_depend_on_the_recording_count():
    full = generate_dataset(TINY, seed=4).recordings
    for k in (1, 3):
        short = generate_dataset(dataclasses.replace(TINY, n_recordings=k),
                                 seed=4).recordings
        assert len(short) == k
        for a, b in zip(short, full):
            assert (a.id, a.label) == (b.id, b.label)
            assert a.windows.tobytes() == b.windows.tobytes()


def test_shapes_and_labels():
    ds = generate_dataset(TINY, seed=0)
    assert len(ds.recordings) == 8
    for rec in ds.recordings:
        assert rec.windows.shape == (3, 3, 128)
        assert rec.label == rec.id % 2
    labels = [r.label for r in ds.recordings]
    assert labels.count(0) == labels.count(1) == 4


def test_amplitude_scale_is_tens_of_microvolts():
    ds = generate_dataset(SynthConfig(n_recordings=4), seed=1)
    stds = np.concatenate([r.windows.std(axis=2).ravel()
                           for r in ds.recordings])
    assert 3.0 < np.median(stds) < 50.0


def test_split_is_stratified_and_partitions():
    ds = generate_dataset(SynthConfig(n_recordings=20, windows_per_recording=2),
                          seed=2)
    ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=2)
    tags = {tag: ds.split(tag) for tag in ("train", "valid", "test")}
    assert len(tags["train"]) == 12
    assert len(tags["valid"]) == 4
    assert len(tags["test"]) == 4
    all_ids = [r.id for recs in tags.values() for r in recs]
    assert sorted(all_ids) == list(range(20))
    for recs in tags.values():
        labels = [r.label for r in recs]
        assert labels.count(0) == labels.count(1)


def test_split_validation():
    ds = generate_dataset(TINY, seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(ds, (0.5, 0.2, 0.2), seed=0)


def test_windows_and_labels():
    ds = split_dataset(generate_dataset(TINY, seed=0), (0.5, 0.25, 0.25), 0)
    X, y = ds.windows_and_labels("train")
    assert X.shape == (4 * 3, 3, 128)
    assert len(y) == len(X)
    with pytest.raises(ValueError, match="empty"):
        Dataset(config=TINY, recordings=ds.recordings).windows_and_labels("train")


def test_save_load_round_trip(tmp_path):
    ds = split_dataset(generate_dataset(TINY, seed=3), (0.5, 0.25, 0.25), 3)
    path = str(tmp_path / "data.bin")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.config == ds.config
    assert loaded.splits == ds.splits
    for ra, rb in zip(ds.recordings, loaded.recordings):
        assert (ra.id, ra.label) == (rb.id, rb.label)
        np.testing.assert_array_equal(ra.windows, rb.windows)


def test_save_load_keeps_every_config_field(tmp_path):
    cfg = SynthConfig(n_channels=3, n_times=128, n_recordings=6, n_classes=3,
                      windows_per_recording=2, boost_factor=3.0)
    path = str(tmp_path / "data.bin")
    save_dataset(generate_dataset(cfg, seed=1), path)
    assert load_dataset(path).config == cfg


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        load_dataset(str(path))


@pytest.fixture
def dataset_bytes(tmp_path):
    ds = split_dataset(generate_dataset(TINY, seed=3), (0.5, 0.25, 0.25), 3)
    path = str(tmp_path / "data.bin")
    save_dataset(ds, path)
    return open(path, "rb").read()


def count_offset(data):
    """Byte offset of the recording count in a version 2 file: magic,
    version, config length, config JSON."""
    (n,) = struct.unpack_from("<I", data, 8)
    return 12 + n


def as_version_1(data, cfg):
    """The same file in the version 1 layout: (C, T, sfreq) in place of
    the config JSON."""
    return (data[:4] + struct.pack("<IIId", 1, cfg.n_channels, cfg.n_times,
                                   cfg.sfreq) + data[count_offset(data):])


def test_load_version_1_file(tmp_path, dataset_bytes):
    ds = split_dataset(generate_dataset(TINY, seed=3), (0.5, 0.25, 0.25), 3)
    path = tmp_path / "v1.bin"
    path.write_bytes(as_version_1(dataset_bytes, TINY))
    loaded = load_dataset(str(path))
    # Version 1 keeps only C, T and sfreq; the rest are defaults.
    assert loaded.config == SynthConfig(n_channels=3, n_times=128,
                                        n_recordings=8)
    assert loaded.splits == ds.splits
    for ra, rb in zip(ds.recordings, loaded.recordings):
        assert (ra.id, ra.label) == (rb.id, rb.label)
        np.testing.assert_array_equal(ra.windows, rb.windows)


def test_load_version_1_file_takes_class_count_from_labels(tmp_path):
    cfg = dataclasses.replace(TINY, n_recordings=9, n_classes=3)
    ds = split_dataset(generate_dataset(cfg, seed=3), (0.5, 0.25, 0.25), 3)
    v2 = tmp_path / "v2.bin"
    save_dataset(ds, str(v2))
    v1 = as_version_1(v2.read_bytes(), cfg)
    path = tmp_path / "v1.bin"
    path.write_bytes(v1)
    assert load_dataset(str(path)).config.n_classes == 3
    # Version 1 header (28 bytes), then the first recording's u64 id and
    # its label byte.
    path.write_bytes(v1[:36] + bytes([5]) + v1[37:])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: bad dataset labels"):
        load_dataset(str(path))


@pytest.mark.parametrize("C,T,sfreq,field", [
    (2, 128, 100.0, "n_channels"),
    (3, 64, 100.0, "n_times must be >= 128"),
    (3, 128, 0.0, "sfreq"),
    (3, 128, float("nan"), "sfreq"),
])
def test_load_version_1_rejects_bad_header(tmp_path, dataset_bytes, C, T,
                                           sfreq, field):
    path = tmp_path / "v1.bin"
    path.write_bytes(dataset_bytes[:4] + struct.pack("<IIId", 1, C, T, sfreq)
                     + dataset_bytes[count_offset(dataset_bytes):])
    where = re.escape(str(path))
    with pytest.raises(ValueError,
                       match=f"^{where}: bad dataset config: .*{field}"):
        load_dataset(str(path))


@pytest.mark.parametrize("change", [
    lambda fields: b"{not json",
    lambda fields: json.dumps({**fields, "bogus": 1}).encode(),
    lambda fields: json.dumps({**fields, "n_classes": 4}).encode(),
    lambda fields: json.dumps({**fields, "n_times": 1e8}).encode(),
], ids=["malformed", "unknown_field", "failed_check", "float_shape"])
def test_load_rejects_bad_config(tmp_path, dataset_bytes, change):
    config = change(dataclasses.asdict(TINY))
    path = tmp_path / "badcfg.bin"
    path.write_bytes(dataset_bytes[:8] + struct.pack("<I", len(config))
                     + config + dataset_bytes[count_offset(dataset_bytes):])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: bad dataset config"):
        load_dataset(str(path))


def test_load_rejects_truncated_header(tmp_path, dataset_bytes):
    path = tmp_path / "short.bin"
    path.write_bytes(dataset_bytes[:10])  # magic, version, half a length
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: truncated at byte offset 8"):
        load_dataset(str(path))


def test_load_rejects_truncated_payload(tmp_path, dataset_bytes):
    path = tmp_path / "short.bin"
    path.write_bytes(dataset_bytes[:-5])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: truncated at byte offset"):
        load_dataset(str(path))


def test_load_rejects_trailing_bytes(tmp_path, dataset_bytes):
    path = tmp_path / "long.bin"
    path.write_bytes(dataset_bytes + b"\x00")
    offset = len(dataset_bytes)
    where = re.escape(str(path))
    with pytest.raises(ValueError,
                       match=f"{where}: .*trailing bytes at byte offset {offset}"):
        load_dataset(str(path))


def check_unknown_split_tag(tmp_path, data, tag):
    data = bytearray(data)
    data[tag] = 9
    path = tmp_path / "badtag.bin"
    path.write_bytes(bytes(data))
    where = re.escape(str(path))
    with pytest.raises(ValueError,
                       match=f"{where}: unknown split tag 9 at byte offset "
                             f"{tag}$"):
        load_dataset(str(path))


def test_load_rejects_label_outside_class_count(tmp_path, dataset_bytes):
    # The first recording's label byte follows the count and its u64 id.
    label = count_offset(dataset_bytes) + 4 + 8
    path = tmp_path / "badlabel.bin"
    path.write_bytes(dataset_bytes[:label] + bytes([2])
                     + dataset_bytes[label + 1:])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: label 2 at byte offset "
                                         f"{label} is not below n_classes 2"):
        load_dataset(str(path))


def test_load_rejects_unknown_split_tag(tmp_path, dataset_bytes):
    # The first record's tag follows the 4-byte recording count, its
    # 8-byte id and 1-byte label.
    check_unknown_split_tag(tmp_path, dataset_bytes,
                            count_offset(dataset_bytes) + 13)


def test_load_rejects_unknown_split_tag_version_1(tmp_path, dataset_bytes):
    # Version 1 header: magic, version, C, T, sfreq, count (28 bytes).
    check_unknown_split_tag(tmp_path, as_version_1(dataset_bytes, TINY), 37)


def test_dataset_rejects_repeated_recording_id():
    recs = generate_dataset(TINY, seed=0).recordings
    recs[2].id = recs[3].id
    with pytest.raises(ValueError, match="recording id 3 repeats"):
        Dataset(config=TINY, recordings=recs)


def test_load_rejects_repeated_recording_id(tmp_path, dataset_bytes):
    # Every record is its RECORD header and 3 windows of 3 x 128 float64s;
    # the second starts one record after the recording count.
    first = count_offset(dataset_bytes) + 4
    second = first + struct.calcsize(RECORD) + 3 * 3 * 128 * 8
    path = tmp_path / "repeated.bin"
    path.write_bytes(dataset_bytes[:second] + dataset_bytes[first:first + 8]
                     + dataset_bytes[second + 8:])
    rec_id = struct.unpack_from("<Q", dataset_bytes, first)[0]
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: repeated recording id "
                                         f"{rec_id} at byte offset {second}$"):
        load_dataset(str(path))


def bandpower_features(X, sfreq, bands=((8.0, 12.0), (18.0, 22.0))):
    spec = np.abs(np.fft.rfft(X, axis=-1)) ** 2
    freqs = np.fft.rfftfreq(X.shape[-1], d=1.0 / sfreq)
    feats = []
    for lo, hi in bands:
        sel = (freqs >= lo) & (freqs <= hi)
        feats.append(np.log(spec[..., sel].sum(axis=-1)))
    return np.concatenate(feats, axis=-1)


def test_classes_are_linearly_separable_from_bandpower():
    # Oracle separability: a plain logistic regression on per-channel
    # narrow-band log power must discriminate the two classes.
    cfg = SynthConfig(n_recordings=30, windows_per_recording=6)
    ds = split_dataset(generate_dataset(cfg, seed=7), (0.6, 0.2, 0.2), 7)
    X_tr, y_tr = ds.windows_and_labels("train")
    X_te, y_te = ds.windows_and_labels("test")
    f_tr = bandpower_features(X_tr, cfg.sfreq)
    f_te = bandpower_features(X_te, cfg.sfreq)
    mean, std = zscore_fit(f_tr)
    clf = LogisticRegression(f_tr.shape[1], 2, seed=0, n_steps=300)
    clf.fit(zscore_apply(f_tr, mean, std), y_tr, np.ones(2))
    preds = clf.predict(zscore_apply(f_te, mean, std))
    assert balanced_accuracy(preds, y_te) >= 0.9
