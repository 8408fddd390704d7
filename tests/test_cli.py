import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsfnet
import dsfnet.cli
from dsfnet.binio import write_csv
from dsfnet.cli import build_parser, main, taylor_error_curve
from dsfnet.config import load_experiment_config
from dsfnet.corruption import CorruptionSpec
from dsfnet.harness import (RANDOM_MASK, _cell_spec, cell_seed,
                            corrupt_test_recordings, evaluate_cell,
                            inspect_filters, sweep_units)
from dsfnet.nn import ParamStore
from dsfnet.synth import (generate_dataset, load_dataset, save_dataset,
                          split_dataset)

TINY_CFG = """
[data]
n_channels = 3
n_times = 128
n_recordings = 12
windows_per_recording = 3

[train]
max_epochs = 2
patience = 2
t_max = 2
batch_size = 16

[sweep]
models = {models}
eta_grid = 0.0, 1.0
n_seeds = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    def make(models="vanilla:none"):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CFG.format(models=models))
        return str(path)

    return make


@pytest.fixture
def dataset_path(tmp_path, cfg_path):
    out = str(tmp_path / "data.bin")
    assert main(["gen", "--config", cfg_path(), "--seed", "3",
                 "--out", out]) == 0
    return out


def test_gen_writes_loadable_dataset(dataset_path):
    ds = load_dataset(dataset_path)
    assert len(ds.recordings) == 12
    assert ds.config.n_channels == 3
    tags = {ds.splits[r.id] for r in ds.recordings}
    assert tags == {"train", "valid", "test"}


def test_gen_is_deterministic(tmp_path, cfg_path):
    p1 = str(tmp_path / "a.bin")
    p2 = str(tmp_path / "b.bin")
    main(["gen", "--config", cfg_path(), "--seed", "3", "--out", p1])
    main(["gen", "--config", cfg_path(), "--seed", "3", "--out", p2])
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_train_saves_parameters(tmp_path, cfg_path, dataset_path, capsys):
    out = str(tmp_path / "params.bin")
    assert main(["train", "--config", cfg_path(), "--seed", "1",
                 "--dataset", dataset_path, "--out", out]) == 0
    store = ParamStore.load(out)
    assert any(name.startswith("net.") for name in store.names())
    assert "saved parameters" in capsys.readouterr().out


def test_train_rejects_a_feature_model_before_loading_data(
        tmp_path, cfg_path, dataset_path, capsys, monkeypatch):
    def no_loading(path):
        raise AssertionError("loaded the dataset")
    monkeypatch.setattr(dsfnet.cli, "load_dataset", no_loading)
    out = tmp_path / "params.bin"
    assert main(["train", "--config", cfg_path("handcrafted:none"), "--seed",
                 "1", "--dataset", dataset_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 'handcrafted' is not a deep model"]
    assert not out.exists()


def test_sweep_writes_results_csv(tmp_path, cfg_path, dataset_path):
    out = str(tmp_path / "results.csv")
    assert main(["sweep", "--config", cfg_path(), "--seed", "5",
                 "--dataset", dataset_path, "--out", out]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2  # 1 model x 1 seed x 2 etas x 1 count
    assert {r["eta"] for r in rows} == {"0.0", "1.0"}
    for r in rows:
        assert 0.0 <= float(r["value"]) <= 1.0


def test_inspect_prints_channel_summary(tmp_path, cfg_path, dataset_path,
                                        capsys):
    out = str(tmp_path / "filters.csv")
    assert main(["inspect", "--config", cfg_path("dsfm_st:none"),
                 "--seed", "1", "--dataset", dataset_path, "--out", out,
                 "--eta", "1.0", "--n-corrupted", "1"]) == 0
    printed = capsys.readouterr().out
    assert "channel 0" in printed and "channel 2" in printed
    assert len(open(out).read().splitlines()) > 0


@pytest.mark.parametrize("n_corrupted", [None, 1])
def test_inspect_corrupts_as_the_sweep_does(tmp_path, dataset_path,
                                            monkeypatch, n_corrupted):
    path = tmp_path / "noise.cfg"
    path.write_text(TINY_CFG.format(models="dsfm_st:none")
                    + "sigma_range_uv = 1, 1\nmask_p = 0.25\n")
    specs = []

    def fake_inspect_filters(model, recordings, spec, seed, dump_path):
        specs.append(spec)
        return None, {}

    monkeypatch.setattr(dsfnet.cli, "inspect_filters", fake_inspect_filters)
    argv = ["inspect", "--config", str(path), "--seed", "1",
            "--dataset", dataset_path, "--out", str(tmp_path / "f.csv"),
            "--eta", "0.5"]
    if n_corrupted is not None:
        argv += ["--n-corrupted", str(n_corrupted)]
    assert main(argv) == 0
    _, cfg = load_experiment_config(str(path))
    assert specs == [_cell_spec(cfg, 0.5, RANDOM_MASK if n_corrupted is None
                                else n_corrupted)]


@pytest.fixture
def first_sweep_unit(tmp_path, dataset_path, monkeypatch):
    """Run `sweep --seed 4` on a config whose first unit is dsfm_st at
    C' = 2; return the config path, the model the sweep trained first and
    the test recordings it was scored on in cell (eta 1, 1 channel)."""
    path = tmp_path / "first.cfg"
    path.write_text(TINY_CFG.format(models="dsfm_st:augmentation, vanilla")
                    .replace("n_seeds = 1", "n_seeds = 2")
                    + "count_grid = 1\nc_prime_grid = 2, 3\n")
    calls = []

    def spy(model, recordings, spec, cell_seed, metric):
        calls.append((model, spec,
                      corrupt_test_recordings(recordings, spec, cell_seed)))
        return evaluate_cell(model, recordings, spec, cell_seed, metric)

    monkeypatch.setattr(dsfnet.harness, "evaluate_cell", spy)
    assert main(["sweep", "--config", str(path), "--seed", "4", "--dataset",
                 dataset_path, "--out", str(tmp_path / "r.csv")]) == 0
    model = calls[0][0]
    assert model.name == "dsfm_st" and model.c_prime == 2
    scored = [recs for m, spec, recs in calls
              if m is model and spec.eta_range == (1.0, 1.0)]
    assert len(scored) == 1
    return str(path), model, scored[0]


def test_train_saves_the_unit_the_sweep_scored_first(tmp_path, dataset_path,
                                                     first_sweep_unit):
    path, model, _ = first_sweep_unit
    out = tmp_path / "params.bin"
    assert main(["train", "--config", path, "--seed", "4",
                 "--dataset", dataset_path, "--out", str(out)]) == 0
    model.store.save(str(tmp_path / "sweep.bin"))
    assert out.read_bytes() == (tmp_path / "sweep.bin").read_bytes()


def test_inspect_dumps_the_windows_the_sweep_scored(tmp_path, dataset_path,
                                                    first_sweep_unit):
    path, model, scored = first_sweep_unit
    out = tmp_path / "filters.csv"
    assert main(["inspect", "--config", path, "--seed", "4",
                 "--dataset", dataset_path, "--out", str(out),
                 "--eta", "1.0", "--n-corrupted", "1"]) == 0
    inspect_filters(model, scored, CorruptionSpec(eta_range=(0.0, 0.0)),
                    cell_seed(0), dump_path=str(tmp_path / "sweep.csv"))
    assert out.read_bytes() == (tmp_path / "sweep.csv").read_bytes()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dsfnet ")]
    assert {argv[0] for argv in examples} == {
        "gen", "train", "sweep", "inspect", "taylor-bench"}
    for argv in examples:
        build_parser().parse_args(argv)  # a bad flag exits with usage


def test_class_count_comes_from_data_section(tmp_path):
    path = tmp_path / "three.cfg"
    path.write_text(TINY_CFG.format(models="vanilla, dsfd, riemann")
                    .replace("[data]\n", "[data]\nn_classes = 3\n"))
    data = str(tmp_path / "data.bin")
    assert main(["gen", "--config", str(path), "--seed", "3",
                 "--out", data]) == 0
    assert {r.label for r in load_dataset(data).recordings} == {0, 1, 2}
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(path), "--seed", "1",
                 "--dataset", data, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 2
    params = str(tmp_path / "params.bin")
    assert main(["train", "--config", str(path), "--seed", "1",
                 "--dataset", data, "--out", params]) == 0
    assert ParamStore.load(params)["net.out.b"].value.shape == (3,)


def test_inspect_rejects_non_dsf_model(tmp_path, cfg_path, dataset_path):
    assert main(["inspect", "--config", cfg_path(), "--seed", "1",
                 "--dataset", dataset_path,
                 "--out", str(tmp_path / "f.csv")]) == 2


def test_inspect_rejects_non_dsf_model_before_loading_data(
        tmp_path, cfg_path, capsys, monkeypatch):
    def no_loading(path):
        raise AssertionError("loaded the dataset")
    monkeypatch.setattr(dsfnet.cli, "load_dataset", no_loading)
    assert main(["inspect", "--config", cfg_path("riemann:none"),
                 "--dataset", str(tmp_path / "data.bin"),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 'riemann' is not a DSF-family model"]


@pytest.mark.parametrize("flags,message", [
    (["--eta", "-0.5"], "--eta must be in [0, 1], got -0.5"),
    (["--eta", "1.5"], "--eta must be in [0, 1], got 1.5"),
    (["--eta", "1.0", "--n-corrupted", "-1"],
     "--n-corrupted must be in [0, 3] for a 3-channel dataset, got -1"),
    (["--eta", "1.0", "--n-corrupted", "-3"],
     "--n-corrupted must be in [0, 3] for a 3-channel dataset, got -3"),
    (["--eta", "1.0", "--n-corrupted", "4"],
     "--n-corrupted must be in [0, 3] for a 3-channel dataset, got 4"),
])
def test_inspect_rejects_bad_corruption_in_one_line(tmp_path, cfg_path,
                                                    dataset_path, capsys,
                                                    monkeypatch, flags,
                                                    message):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a unit")
    monkeypatch.setattr(dsfnet.cli, "train_model_unit", no_training)
    out = tmp_path / "f.csv"
    assert main(["inspect", "--config", cfg_path("dsfm_st:none"),
                 "--seed", "1", "--dataset", dataset_path,
                 "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("section,line", [
    ("train", "lr0 = 0"),
    ("data", "n_channels = 2"),
    ("data", "n_times = abc"),
    ("sweep", "eta_grid = 2.0"),
    ("data", "sfreq = 0"),
    ("data", "sfreq = -100"),
    ("data", "n_recordings = 0"),
    ("data", "windows_per_recording = 0"),
    ("data", "sensor_noise_std_uv = -1"),
    ("data", "sensor_noise_std_uv = inf"),
    ("data", "base_amplitude_uv = nan"),
    ("data", "boost_factor = inf"),
    ("data", "distractor_freq = nan"),
    ("data", "class_freqs = 10, nan"),
    ("data", "mixing_seed = -1"),
    ("sweep", "models = riemann:none, riemann:none\neta_grid = 0.5, 0.5"),
    ("train", "eps = 0"),
    ("train", "eps = inf"),
    ("sweep", "dsf_tau = inf"),
])
def test_bad_config_fails_in_one_line(tmp_path, section, line, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{line}\n")
    assert main(["gen", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "data.bin")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: ")
    assert err[0].endswith(f" in [{section}]")


def test_train_rejects_bad_net_config_in_one_line(tmp_path, cfg_path,
                                                  dataset_path, capsys):
    path = tmp_path / "bad_net.cfg"
    path.write_text(Path(cfg_path()).read_text() + "[net]\npool_stride = 0\n")
    out = tmp_path / "params.bin"
    assert main(["train", "--config", str(path), "--dataset", dataset_path,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: pool_stride must be >= 1, got 0 in [net]"]
    assert not out.exists()


def test_train_rejects_negative_dsf_tau_before_loading_data(
        tmp_path, cfg_path, dataset_path, capsys, monkeypatch):
    def no_loading(path):
        raise AssertionError("loaded the dataset")
    monkeypatch.setattr(dsfnet.cli, "load_dataset", no_loading)
    path = tmp_path / "bad_tau.cfg"
    path.write_text(Path(cfg_path("dsfm_st:none")).read_text()
                    + "dsf_tau = -1\n")
    out = tmp_path / "params.bin"
    assert main(["train", "--config", str(path), "--dataset", dataset_path,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: dsf_tau must be >= 0, got -1.0 in [sweep]"]
    assert not out.exists()


def test_missing_config_fails_in_one_line(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    assert main(["gen", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "data.bin")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(path) in err[0]


@pytest.mark.parametrize("command", ["train", "sweep", "inspect"])
def test_truncated_dataset_fails_in_one_line(tmp_path, cfg_path, dataset_path,
                                             command):
    short = tmp_path / "short.bin"
    short.write_bytes(Path(dataset_path).read_bytes()[:-5])
    # inspect rejects a model that is not DSF before it reads the data.
    models = "dsfm_st:none" if command == "inspect" else "vanilla:none"
    env = dict(os.environ, PYTHONPATH=str(Path(dsfnet.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "dsfnet.cli", command, "--config",
         cfg_path(models),
         "--dataset", str(short), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {short}: truncated at byte offset")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("models, error", [
    # Noise of 1e200 overflows the classifier at eta = 1, where an argmax
    # over NaN probabilities would pick class 0.
    ("vanilla:none", "vanilla: logits contain non-finite values"),
    # With augmentation the same noise overflows the summaries in training,
    # and the error names the unit's seed, the epoch and the batch.
    ("dsfm_st:augmentation", "dsfm_st (seed {seed}) epoch 0, training "
     "batch 0: matrix contains non-finite entries"),
], ids=["vanilla", "dsfm_st-augmentation"])
def test_sweep_rejects_non_finite_outputs_in_one_line(tmp_path, cfg_path,
                                                     dataset_path, capfd,
                                                     models, error, jobs):
    path = tmp_path / "huge.cfg"
    path.write_text(Path(cfg_path(models)).read_text()
                    + "sigma_range_uv = 1e200, 1e200\n")
    [(_, _, seed, _)] = sweep_units(load_experiment_config(str(path))[1])
    error = error.format(seed=seed)
    out = tmp_path / "results.csv"
    # capfd sees the file descriptors, so numpy warnings printed by a
    # worker process count too.
    assert main(["sweep", "--config", str(path), "--dataset", dataset_path,
                 "--out", str(out), "--jobs", jobs]) == 2
    assert capfd.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


def test_inspect_rejects_a_dataset_without_test_split_before_training(
        tmp_path, cfg_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a unit")
    monkeypatch.setattr(dsfnet.cli, "train_model_unit", no_training)
    data_cfg, _ = load_experiment_config(cfg_path())
    data = str(tmp_path / "no_test.bin")
    save_dataset(split_dataset(generate_dataset(data_cfg, 0),
                               (0.5, 0.5, 0.0), 0), data)
    out = tmp_path / "f.csv"
    assert main(["inspect", "--config", cfg_path("dsfm_st:none"),
                 "--dataset", data, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data}: dataset has no test split"]
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
@pytest.mark.parametrize("command", ["gen", "train", "sweep", "inspect",
                                     "taylor-bench"])
def test_seed_outside_64_bits_is_rejected(tmp_path, command, seed, capsys):
    # derive_seed keeps 64 bits, so 2**64 + 1 would reuse seed 1's streams.
    out = tmp_path / "out"
    argv = [command, "--seed", seed, "--out", str(out)]
    if command in ("train", "sweep", "inspect"):
        argv += ["--dataset", str(tmp_path / "data.bin")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: must be an integer in [0, 2**64)" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one_in_one_line(tmp_path, cfg_path,
                                                  dataset_path, capsys,
                                                  monkeypatch, jobs):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a unit")
    monkeypatch.setattr(dsfnet.harness, "train_model_unit", no_training)
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", cfg_path(), "--seed", "0",
                 "--dataset", dataset_path, "--out", str(out),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: jobs must be >= 1"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "inspect",
                                     "taylor-bench"])
def test_jobs_is_a_sweep_option_only(tmp_path, command, capsys):
    argv = [command, "--out", str(tmp_path / "out"), "--jobs", "2"]
    if command in ("train", "inspect"):
        argv += ["--dataset", str(tmp_path / "data.bin")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_taylor_bench_curve_and_csv(tmp_path, cfg_path):
    out = str(tmp_path / "taylor.csv")
    assert main(["taylor-bench", "--config", cfg_path(), "--seed", "0",
                 "--out", out, "--n-windows", "20",
                 "--terms", "5,20"]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [int(r["n_terms"]) for r in rows] == [5, 20]
    errs = [float(r["median_rel_error"]) for r in rows]
    assert errs[1] <= errs[0]


@pytest.mark.parametrize("n_windows", [1, 7, 9, 36])
def test_taylor_bench_generates_only_the_recordings_it_reads(
        tmp_path, cfg_path, monkeypatch, n_windows):
    # The config has 12 recordings of 3 windows each.
    path = cfg_path()
    data_cfg, _ = load_experiment_config(path)
    full = generate_dataset(data_cfg, 2)
    windows = np.concatenate([r.windows for r in full.recordings])
    expected = tmp_path / "expected.csv"
    write_csv(str(expected), [
        ("n_terms", "median_rel_error", "mean_rel_error", "std_rel_error"),
        *taylor_error_curve(windows[:n_windows], [5, 20])])
    generated = []

    def spy(cfg, seed):
        generated.append(cfg.n_recordings)
        return generate_dataset(cfg, seed)
    monkeypatch.setattr(dsfnet.cli, "generate_dataset", spy)
    out = tmp_path / "taylor.csv"
    assert main(["taylor-bench", "--config", path, "--seed", "2",
                 "--out", str(out), "--n-windows", str(n_windows),
                 "--terms", "20,5"]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert generated == [min(12, -(-n_windows // 3))]


@pytest.mark.parametrize("n_windows", ["0", "-1"])
def test_taylor_bench_rejects_n_windows_below_one(tmp_path, cfg_path, capsys,
                                                  n_windows):
    out = tmp_path / "taylor.csv"
    assert main(["taylor-bench", "--config", cfg_path(), "--seed", "0",
                 "--out", str(out), "--n-windows", n_windows]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --n-windows must be >= 1, got {n_windows}"]
    assert not out.exists()


def test_taylor_bench_rejects_more_windows_than_the_config_has(
        tmp_path, cfg_path, capsys, monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("generated a dataset")
    monkeypatch.setattr(dsfnet.cli, "generate_dataset", no_generation)
    out = tmp_path / "taylor.csv"
    assert main(["taylor-bench", "--config", cfg_path(), "--seed", "0",
                 "--out", str(out), "--n-windows", "50"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --n-windows 50 exceeds the 36 windows of the [data] config"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["gen"],
                                     ["taylor-bench", "--n-windows", "4"]])
def test_overflowing_data_config_fails_in_one_line(tmp_path, cfg_path, capsys,
                                                   command):
    path = Path(cfg_path())
    path.write_text(path.read_text() + "\n[data]\nboost_factor = 1e308\n")
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--seed", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: recording 0 has non-finite samples: base_amplitude_uv, "
        "boost_factor, background_std_uv, sensor_noise_std_uv or sfreq is "
        "out of range"]
    assert not out.exists()


@pytest.mark.parametrize("terms", ["0", "5,-1", "5,x", "2.5", ""])
def test_taylor_bench_rejects_bad_terms_in_one_line(tmp_path, cfg_path, capsys,
                                                    monkeypatch, terms):
    def no_generation(*args, **kwargs):
        raise AssertionError("generated a dataset")
    monkeypatch.setattr(dsfnet.cli, "generate_dataset", no_generation)
    out = tmp_path / "taylor.csv"
    assert main(["taylor-bench", "--config", cfg_path(), "--seed", "0",
                 "--out", str(out), "--terms", terms]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --terms must be integers >= 1, got {terms!r}"]
    assert not out.exists()


def test_taylor_error_curve_shrinks_with_terms(rng):
    windows = [rng.normal(size=(4, 300)) * 10.0 for _ in range(10)]
    curve = taylor_error_curve(windows, [2, 10, 40])
    medians = [med for _, med, _, _ in curve]
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] < 0.01


def test_taylor_bench_failed_write_leaves_no_temp_file(tmp_path, cfg_path,
                                                       monkeypatch):
    class FailingRow:
        def __iter__(self):
            raise RuntimeError("row write failed")

    monkeypatch.setattr("dsfnet.cli.taylor_error_curve",
                        lambda windows, grid: [(5, 0.1, 0.1, 0.0),
                                               FailingRow()])
    out = tmp_path / "out" / "taylor.csv"
    with pytest.raises(RuntimeError, match="row write failed"):
        main(["taylor-bench", "--config", cfg_path(), "--seed", "0",
              "--out", str(out), "--n-windows", "4", "--terms", "5"])
    assert not out.exists()
    assert list(out.parent.glob("*.tmp")) == []
