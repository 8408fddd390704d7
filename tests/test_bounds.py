"""One range rule, nn.check_interval, for every numeric input. The bounds
tables of the config classes, read from their fields, and a table of the
function arguments and CLI flags that a range limits: each rejects NaN,
+-inf, the first value past each finite edge and, if integral, a
non-integral value, naming the input each time, and accepts each closed
edge. A scan of the package source keeps hand-written range checks from
coming back."""

import ast
import re
from argparse import Namespace
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet import cli, harness
from dsfnet.attention import DsfConfig, soft_threshold
from dsfnet.corruption import (CorruptionSpec, corrupt_window, draw_mask,
                               sample_mask)
from dsfnet.harness import ExperimentConfig, run_sweep
from dsfnet.linalg import matrix_log_taylor
from dsfnet.nn import (Dropout, ShallowNetConfig, TrainConfig, cosine_lr,
                       he_uniform_init)
from dsfnet.synth import (SynthConfig, generate_dataset, save_dataset,
                          split_dataset)

CONFIGS = (SynthConfig, ExperimentConfig, CorruptionSpec, TrainConfig,
           ShallowNetConfig, DsfConfig)
# The one numeric field without an interval: class_freqs are two finite
# values, checked by hand.
UNBOUNDED = {"class_freqs"}
# Other fields' values under which every value a bound admits passes the
# hand-written rules too: patience <= max_epochs.
BASE = {TrainConfig: dict(patience=0, max_epochs=2**64)}


def parse(interval: str) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo open, hi open) of an interval written "[lo, hi)"."""
    lo, hi = (float(v) for v in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def table(cls) -> dict[str, tuple[float, float, bool, bool, bool]]:
    """name -> (lo, hi, lo open, hi open, integral) of each bounded field;
    a field declared int, int | None or tuple[int, ...] is integral."""
    return {f.name: (*parse(f.metadata["bound"][0]),
                     int in (f.type, *get_args(f.type)))
            for f in fields(cls) if "bound" in f.metadata}


ENTRIES = [(cls, name) for cls in CONFIGS for name in table(cls)]
IDS = [f"{cls.__name__}.{name}" for cls, name in ENTRIES]


def build(cls, name, value):
    """cls with the field set to value, or to a tuple of it: (value, value)
    for an ordered pair, (value,) for any other tuple."""
    kind = {f.name: f.type for f in fields(cls)}[name]
    if get_origin(kind) is tuple:
        value = (value, value) if get_args(kind) == (float, float) else (
            value,)
    return cls(**{**BASE.get(cls, {}), name: value})


def rejects(make, name, value) -> None:
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be .*, "
                       "got "):
        make(value)


def check_edges(make, name, lo, hi, lo_open, hi_open, integral) -> None:
    """make(value) rejects NaN, +-inf, the first value past each finite
    edge and, if integral, a non-integral value, naming `name`, and
    accepts each closed edge."""
    for value in (np.nan, np.inf, -np.inf):
        rejects(make, name, value)
    if integral:
        rejects(make, name, lo + 0.5 if np.isfinite(lo) else 0.5)
    for edge, is_open, outward in ((lo, lo_open, -1), (hi, hi_open, 1)):
        if not np.isfinite(edge):
            continue
        if integral:
            edge = int(edge)
        if is_open:
            rejects(make, name, edge)
            continue
        make(edge)
        rejects(make, name, edge + outward if integral
                else np.nextafter(edge, outward * np.inf))


def test_every_numeric_field_is_bounded():
    for cls in CONFIGS:
        numeric = {f.name for f in fields(cls)
                   if {f.type, *get_args(f.type)} & {int, float}}
        assert numeric - UNBOUNDED == set(table(cls)), cls.__name__


@pytest.mark.parametrize("cls,name", ENTRIES, ids=IDS)
def test_bound_edges(cls, name):
    check_edges(lambda v: build(cls, name, v), name, *table(cls)[name])


@pytest.mark.parametrize("cls,name", ENTRIES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(value=st.floats() | st.integers(-1000, 1000))
def test_bound_admits_exactly_its_interval(cls, name, value):
    lo, hi, lo_open, hi_open, integral = table(cls)[name]
    inside = ((lo < value if lo_open else lo <= value)
              and (value < hi if hi_open else value <= hi)
              and (isinstance(value, int) or not integral))
    if inside:
        build(cls, name, value)
    else:
        rejects(lambda v: build(cls, name, v), name, value)


@pytest.mark.parametrize("cls,name", [
    (CorruptionSpec, "eta_range"), (CorruptionSpec, "sigma_range_uv"),
    (ExperimentConfig, "sigma_range_uv")])
@pytest.mark.parametrize("pair", [(0.8, 0.2), (0.5,), (0.2, 0.5, 0.8), (),
                                  [0.8, 0.2]])
def test_pair_fields_are_ordered_pairs(cls, name, pair):
    with pytest.raises(ValueError, match=rf"^{name} must be a pair lo <= hi, "
                       rf"got {re.escape(str(pair))}$"):
        cls(**{name: pair})


def test_master_seed_does_not_alias_past_64_bits():
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match=r"^master_seed must be in "
                           rf"\[0, 18446744073709551616\) \(64 bits\), "
                           rf"got {seed}$"):
            ExperimentConfig(master_seed=seed)
    assert ExperimentConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


# ---------------------------------------------------------------------------
# Call sites: every function argument and CLI flag that a range limits is
# held to it by the same rule, with the same message form.


class Reached(Exception):
    """The call passed its checks and began the work behind them."""


@pytest.fixture
def env(tmp_path, monkeypatch):
    """A 3-channel dataset with a test split, saved, and a DSF sweep
    config; training and data generation stop with Reached."""
    def reached(*args, **kwargs):
        raise Reached
    ds = split_dataset(generate_dataset(SynthConfig(
        n_channels=3, n_times=128, n_recordings=8, windows_per_recording=2),
        0), (0.5, 0.25, 0.25), 0)
    for module, name in ((harness, "train_model_unit"),
                         (cli, "train_model_unit"),
                         (cli, "generate_dataset")):
        monkeypatch.setattr(module, name, reached)
    save_dataset(ds, str(tmp_path / "data.bin"))
    (tmp_path / "exp.cfg").write_text("[sweep]\nmodels = dsfm_st:none\n")

    def args(command, **values):
        """Parsed arguments of a subcommand, then the given values."""
        argv = [command, "--config", str(tmp_path / "exp.cfg"),
                "--out", str(tmp_path / "out")]
        if command == "inspect":
            argv += ["--dataset", str(tmp_path / "data.bin")]
        parsed = cli.build_parser().parse_args(argv)
        vars(parsed).update(values)
        return parsed
    return Namespace(ds=ds, out=str(tmp_path / "r.csv"), args=args)


def rng():
    return np.random.default_rng(0)


# id -> (name in the message, interval, integral, call with a value).
# Data-dependent limits read their data from env: 3 channels, and the
# default [data] config's 60 x 20 windows.
SITES = {
    "he_uniform_init": ("fan_in", "[1, inf)", True, lambda v, e:
                        he_uniform_init((2,), v, rng())),
    "Dropout": ("dropout rate", "[0, 1)", False, lambda v, e: Dropout(v)),
    "cosine_lr": ("t_max", "(0, inf)", False, lambda v, e:
                  cosine_lr(0, v, 1e-3)),
    "soft_threshold": ("tau", "[0, inf)", False, lambda v, e:
                       soft_threshold(np.ones(3), v)),
    "sample_mask": ("p", "[0, 1]", False, lambda v, e:
                    sample_mask(4, v, rng())),
    "corrupt_window.eta": ("eta", "[0, 1]", False, lambda v, e:
                           corrupt_window(np.zeros((2, 8)), np.ones(2), v,
                                          30.0, rng())),
    "corrupt_window.sigma_uv": ("sigma_uv", "(0, inf)", False, lambda v, e:
                                corrupt_window(np.zeros((2, 8)), np.ones(2),
                                               0.5, v, rng())),
    "matrix_log_taylor": ("n_terms", "[1, inf)", True, lambda v, e:
                          matrix_log_taylor(2.0 * np.eye(2), v)),
    "run_sweep.jobs": ("jobs", "[1, inf)", True, lambda v, e:
                       run_sweep(ExperimentConfig(), e.ds, e.out, jobs=v)),
    "split_dataset": ("fractions", "[0, 1]", False, lambda v, e:
                      split_dataset(e.ds, (0.0, 1.0 - v, v), 0)),
    "TrainConfig.patience": ("patience", "[0, 5]", True, lambda v, e:
                             TrainConfig(max_epochs=5, patience=v)),
    "draw_mask.forced_count": ("forced_count", "[0, 3]", True, lambda v, e:
                               draw_mask(3, CorruptionSpec(
                                   forced_count=v, scope="per_recording"),
                                   rng())),
    "run_sweep.count_grid": ("count_grid", "[-1, 3]", True, lambda v, e:
                             run_sweep(ExperimentConfig(count_grid=(v,)),
                                       e.ds, e.out)),
    "cli.master_seed": ("master_seed", "[0, 18446744073709551616)", True,
                        lambda v, e: cli._load_configs(
                            Namespace(config=None, seed=v))),
    "inspect --eta": ("--eta", "[0, 1]", False, lambda v, e:
                      cli.cmd_inspect(e.args("inspect", eta=v))),
    "inspect --n-corrupted": ("--n-corrupted", "[0, 3]", True, lambda v, e:
                              cli.cmd_inspect(e.args("inspect", eta=1.0,
                                                     n_corrupted=v))),
    "taylor-bench --n-windows": ("--n-windows", "[1, 1200]", True,
                                 lambda v, e: cli.cmd_taylor_bench(
                                     e.args("taylor-bench", n_windows=v,
                                            config=None))),
}


@pytest.mark.parametrize("site", SITES)
def test_call_site_edges(site, env):
    name, interval, integral, call = SITES[site]

    def make(value):
        try:
            call(value, env)
        except Reached:
            pass
    check_edges(make, name, *parse(interval), integral)


# ---------------------------------------------------------------------------
# No range check outside the one rule


RANGE_WORDS = re.compile(
    r"must be (>|<|in \[|positive)|must lie inside|exceeds|must satisfy")
# (module, function) of the checks that may word a range themselves: the
# rule, the ordered-pair rule and the Nyquist check.
OWN_WORDING = {("nn", "check_interval"), ("nn", "check_bounds"),
               ("baselines", "band_cov_stack")}


def range_raises(path: Path) -> set[tuple[str, str, int]]:
    """(module, function, line) of each raise in a source file whose
    string parts word a range."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and RANGE_WORDS.search("".join(
                part.value for part in ast.walk(node)
                if isinstance(part, ast.Constant)
                and isinstance(part.value, str))):
            found.add((path.stem, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(path.read_text()), None)
    return found


def test_range_checks_go_through_check_interval():
    src = Path(__file__).resolve().parent.parent / "src" / "dsfnet"
    found = set().union(*map(range_raises, sorted(src.glob("*.py"))))
    assert {site for site in found if site[:2] not in OWN_WORDING} == set()
    assert ("baselines", "band_cov_stack") in {site[:2] for site in found}
