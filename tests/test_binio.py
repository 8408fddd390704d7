"""The file layer: every writer is atomic, and every saved file either
reloads to the same bytes or fails with a ValueError naming its path."""

import errno
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dsfnet.binio
import dsfnet.cli
from dsfnet.binio import atomic_write
from dsfnet.corruption import CorruptionSpec
from dsfnet.harness import (DeepModel, ExperimentConfig, cell_seed,
                            inspect_filters, run_sweep)
from dsfnet.nn import ParamStore, ShallowNetConfig
from dsfnet.synth import (SPLIT_TAGS, Dataset, Recording, SynthConfig,
                          generate_dataset, load_dataset, save_dataset,
                          split_dataset)

TINY = SynthConfig(n_channels=3, n_times=128, n_recordings=8,
                   windows_per_recording=3)
TINY_NET = ShallowNetConfig(n_temporal_filters=2, temporal_kernel=9,
                            n_spatial_filters=2, pool_width=20, pool_stride=10)
TAYLOR_CFG = """
[data]
n_channels = 3
n_times = 128
n_recordings = 2
windows_per_recording = 2
"""


class FailingFile:
    """A file whose second write raises, as a full disk would."""

    def __init__(self, f):
        self.f = f
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)


def write_params(path):
    store = ParamStore()
    store.add("layer.W", np.ones((2, 3)))
    store.save(path)


def write_dataset(path):
    save_dataset(split_dataset(generate_dataset(TINY, 3), (0.5, 0.25, 0.25),
                               3), path)


def write_results(path):
    ds = split_dataset(generate_dataset(TINY, 3), (0.5, 0.25, 0.25), 3)
    run_sweep(ExperimentConfig(models=[("riemann", "none")]), ds, path)


def write_dump(path):
    recordings = generate_dataset(TINY, 0).recordings[:1]
    inspect_filters(DeepModel("dsfm_st", 3, 128, TINY_NET, seed=6),
                    recordings, CorruptionSpec(eta_range=(0.0, 0.0)),
                    cell_seed(0), dump_path=path)


def write_taylor(path):
    cfg = os.path.join(os.path.dirname(path), "taylor.cfg")
    with open(cfg, "w") as f:
        f.write(TAYLOR_CFG)
    args = dsfnet.cli.build_parser().parse_args(
        ["taylor-bench", "--config", cfg, "--out", path, "--n-windows", "4",
         "--terms", "5,10"])
    assert dsfnet.cli.cmd_taylor_bench(args) == 0


WRITERS = {"params": write_params, "dataset": write_dataset,
           "results_csv": write_results, "inspect_dump": write_dump,
           "taylor_csv": write_taylor}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    out = tmp_path / "out" / "artifact"
    out.parent.mkdir()
    out.write_bytes(b"previous contents\n")
    monkeypatch.setattr(dsfnet.binio, "open",
                        lambda *a, **k: FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](str(out))
    assert out.read_bytes() == b"previous contents\n"
    assert not list(out.parent.glob("*.tmp"))


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_the_old_file(tmp_path, writer):
    out = tmp_path / "artifact"
    out.write_bytes(b"previous contents\n")
    WRITERS[writer](str(out))
    assert out.read_bytes() != b"previous contents\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    with open(tmp_path / "plain", "wb") as f:
        f.write(b"x")
    with atomic_write(str(tmp_path / "atomic")) as f:
        f.write(b"x")
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "atomic")]
    assert modes[0] == modes[1]


def test_save_dataset_with_unknown_split_tag_keeps_the_old_file(tmp_path):
    path = tmp_path / "data.bin"
    write_dataset(str(path))
    before = path.read_bytes()
    ds = split_dataset(generate_dataset(TINY, 4), (0.5, 0.25, 0.25), 4)
    ds.splits[ds.recordings[-1].id] = "holdout"
    with pytest.raises(ValueError, match="unknown split tag 'holdout'"):
        save_dataset(ds, str(path))
    assert path.read_bytes() == before
    assert load_dataset(str(path)).splits


# ---------------------------------------------------------------------------
# Round trips and damaged files


@st.composite
def param_stores(draw):
    store = ParamStore()
    names = st.text(st.characters(codec="utf-8"), max_size=6)
    for name in draw(st.lists(names, unique=True, max_size=4)):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        store.add(name, draw(arrays(np.float64, shape)))
    return store


@st.composite
def datasets(draw):
    cfg = SynthConfig(n_channels=draw(st.integers(3, 4)), n_times=128,
                      sfreq=draw(st.floats(1.0, 1e4)),
                      n_recordings=draw(st.integers(1, 100)),
                      n_classes=draw(st.integers(1, 3)),
                      boost_factor=draw(st.floats(-1e3, 1e3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    recordings, splits = [], {}
    ids = st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=3)
    for rec_id in draw(ids):
        n_win = draw(st.integers(0, 2))
        label = draw(st.integers(0, cfg.n_classes - 1))
        windows = rng.normal(size=(n_win, cfg.n_channels, cfg.n_times))
        recordings.append(Recording(id=rec_id, label=label, windows=windows))
        tag = draw(st.sampled_from(SPLIT_TAGS))
        if tag:
            splits[rec_id] = tag
    return Dataset(config=cfg, recordings=recordings, splits=splits)


FORMATS = {
    "params": (param_stores(), lambda store, path: store.save(path),
               ParamStore.load),
    "dataset": (datasets(), save_dataset, load_dataset),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_save_load_save_gives_the_same_bytes(tmp_path_factory, kind, data):
    strategy, save, load = FORMATS[kind]
    first = tmp_path_factory.mktemp(kind) / "first.bin"
    second = first.with_name("second.bin")
    save(data.draw(strategy), str(first))
    save(load(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_damaged_file_loads_or_names_its_path(tmp_path_factory, kind, data):
    strategy, save, load = FORMATS[kind]
    path = tmp_path_factory.mktemp(kind) / "damaged.bin"
    save(data.draw(strategy), str(path))
    raw = path.read_bytes()
    # Half the positions fall in the headers: the config, names, shapes.
    at = data.draw(st.integers(0, min(len(raw), 512) - 1)
                   | st.integers(0, len(raw) - 1))
    if data.draw(st.booleans(), label="truncate"):
        path.write_bytes(raw[:at])
    else:
        flipped = raw[at] ^ data.draw(st.integers(1, 255))
        path.write_bytes(raw[:at] + bytes([flipped]) + raw[at + 1:])
    try:
        load(str(path))
    except ValueError as e:
        assert str(path) in str(e)
