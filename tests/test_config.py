import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet.config import (PARSERS, ConfigError, load_experiment_config,
                           parse_config_text)
from dsfnet.harness import MODEL_NAMES, ExperimentConfig
from dsfnet.nn import ShallowNetConfig, TrainConfig
from dsfnet.synth import SynthConfig

GOOD = """
# experiment definition
[data]
n_channels = 4
n_times = 256
sfreq = 128.0
n_recordings = 10

[train]
max_epochs = 3
lr0 = 0.002
batch_size = 8
patience = 3
t_max = 3

[net]
n_temporal_filters = 4

[sweep]
models = vanilla:none, dsfm_st:augmentation, riemann
eta_grid = 0.0, 0.5, 1.0
count_grid = -1, 2
n_seeds = 2
mask_p = 0.25
"""


def test_parse_sections_and_comments():
    sections = parse_config_text("# top\n[a]\nx = 1\n\n# mid\ny = hello world\n")
    assert sections == {"a": {"x": "1", "y": "hello world"}}


def test_parse_errors():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config_text("x = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[a]\nx = 1\nx = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("[a]\njust some words\n")
    with pytest.raises(ConfigError, match="empty section"):
        parse_config_text("[ ]\n")


CONFIG_LINES = st.one_of(
    st.text(),
    st.sampled_from(["[", "]", "[]", "[data]", "=", "x = 1", "x=", "# c",
                     " [a] ", "\r", "\x0b", "\u2028"]))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=8))
def test_parse_config_text_raises_only_config_errors(lines):
    try:
        parse_config_text("\n".join(lines))
    except ConfigError:
        pass


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_load_full_config(tmp_path):
    data_cfg, sweep_cfg = load_experiment_config(write(tmp_path, GOOD))
    assert data_cfg.n_channels == 4
    assert data_cfg.n_times == 256
    assert data_cfg.sfreq == 128.0
    assert sweep_cfg.train.max_epochs == 3
    assert sweep_cfg.train.lr0 == 0.002
    assert sweep_cfg.net.n_temporal_filters == 4
    assert sweep_cfg.models == [("vanilla", "none"),
                                ("dsfm_st", "augmentation"),
                                ("riemann", "none")]
    assert sweep_cfg.eta_grid == (0.0, 0.5, 1.0)
    assert sweep_cfg.count_grid == (-1, 2)
    assert sweep_cfg.n_seeds == 2
    assert sweep_cfg.mask_p == 0.25


def test_defaults_when_sections_missing(tmp_path):
    data_cfg, sweep_cfg = load_experiment_config(
        write(tmp_path, "[sweep]\nmodels = vanilla\n"))
    assert data_cfg.n_channels == 6
    assert sweep_cfg.models == [("vanilla", "none")]
    assert sweep_cfg.eta_grid == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section"):
        load_experiment_config(write(tmp_path, "[bogus]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_experiment_config(write(tmp_path, "[data]\nbogus = 1\n"))


@pytest.mark.parametrize("section,key", [
    pytest.param("train", "dropout_rate", id="dropout_rate"),
    pytest.param("train", "seed", id="seed"),
    pytest.param("sweep", "train", id="sweep-train"),
    pytest.param("sweep", "net", id="sweep-net"),
    pytest.param("sweep", "master_seed", id="sweep-master_seed"),
    pytest.param("net", "n_classes", id="net-n_classes"),
])
def test_removed_train_keys_rejected(tmp_path, section, key):
    # Dropout lives in [net], the nested [train] and [net] configs are
    # sections of their own, the seed comes from --seed and the class
    # count from [data].
    with pytest.raises(ConfigError,
                       match=rf"unknown key '{key}' in \[{section}\]"):
        load_experiment_config(write(tmp_path, f"[{section}]\n{key} = 1\n"))


def test_every_field_but_the_nested_configs_has_a_parser():
    # A field whose declared type has no parser is silently no key.
    no_parser = [f.name
                 for cls in (SynthConfig, TrainConfig, ShallowNetConfig,
                             ExperimentConfig)
                 for f in fields(cls) if f.type not in PARSERS]
    assert no_parser == ["train", "net"]


@pytest.mark.parametrize("section,line", [
    ("train", "lr0 = 0"),            # TrainConfig check
    ("data", "n_channels = 2"),      # SynthConfig check
    ("data", "n_times = abc"),       # value coercion
    ("sweep", "eta_grid = 2.0"),     # ExperimentConfig check
    ("sweep", "count_grid = -2"),
    ("sweep", "c_prime_grid = 0"),
    ("sweep", "n_seeds = 0"),
    ("sweep", "mask_p = 1.5"),
    ("sweep", "sigma_range_uv = 5"),     # a pair takes two values
    ("sweep", "sigma_range_uv = 50, 20"),
    ("data", "class_freqs = 10"),
    ("train", "batch_size = -1"),
    ("train", "max_epochs = 0\npatience = 0"),
    ("train", "t_max = 0"),
    ("train", "patience = -1"),
    ("net", "pool_stride = 0"),
    ("net", "temporal_kernel = 0"),
    ("net", "n_spatial_filters = -2"),
    ("net", "dropout_rate = 1.0"),
    ("net", "dropout_rate = -0.1"),
    ("sweep", "dsf_tau = -1"),
    ("data", "sfreq = 0"),
    ("data", "sfreq = -100"),
    ("data", "sfreq = inf"),
    ("data", "sfreq = nan"),
    ("data", "n_recordings = 0"),
    ("data", "windows_per_recording = 0"),
    ("data", "background_std_uv = -1"),
    ("data", "sensor_noise_std_uv = -1"),
    ("sweep", "models = riemann:none, riemann:none"),
    ("sweep", "models = vanilla, vanilla:none"),
    ("sweep", "eta_grid = 0.5, 0.5"),
    ("sweep", "eta_grid = 0.0, -0.0"),
    ("sweep", "count_grid = 1, -1, 1"),
    ("sweep", "c_prime_grid = 2, 2"),
    ("train", "lr0 = nan"),
    ("train", "lr0 = inf"),
    ("train", "beta1 = 1"),
    ("train", "beta1 = -1"),
    ("train", "beta2 = 1"),
    ("train", "beta2 = nan"),
    ("train", "eps = 0"),
    ("train", "eps = nan"),
    ("train", "weight_decay = inf"),
    ("train", "weight_decay = -0.01"),
])
def test_bad_value_names_file_and_section(tmp_path, section, line):
    path = write(tmp_path, f"[{section}]\n{line}\n")
    where = rf"^{re.escape(path)}: .* in \[{section}\]$"
    with pytest.raises(ConfigError, match=where) as info:
        load_experiment_config(path)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("section,key,value", [
    ("data", "n_times", "abc"),
    ("data", "class_freqs", "10"),
    ("sweep", "count_grid", "1.5"),
])
def test_unparsable_value_names_its_key(tmp_path, section, key, value):
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf": {key}: .* in \[{section}\]$"):
        load_experiment_config(path)


def test_invalid_model_rejected_by_experiment_config(tmp_path):
    with pytest.raises(ValueError, match="unknown model"):
        load_experiment_config(write(tmp_path, "[sweep]\nmodels = resnet\n"))


def readme_config_example() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_example_config_loads(tmp_path):
    data_cfg, sweep_cfg = load_experiment_config(
        write(tmp_path, readme_config_example()))
    assert data_cfg.n_channels == 6
    assert data_cfg.n_recordings == 60
    assert sweep_cfg.train.max_epochs == 25
    assert sweep_cfg.models == [("vanilla", "none"),
                                ("dsfm_st", "augmentation"),
                                ("riemann", "none")]
    assert sweep_cfg.count_grid == (-1,)
    assert sweep_cfg.n_seeds == 3


def test_readme_lists_every_model_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Model names:", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", listed)) == MODEL_NAMES
