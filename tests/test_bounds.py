"""The bounds tables of the config classes, read from their fields: every
bounded field rejects NaN, +-inf, the first value past each finite edge
and, if declared int, a non-integral value, naming the field each time,
and accepts each closed edge."""

from dataclasses import fields
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfnet.attention import DsfConfig
from dsfnet.corruption import CorruptionSpec
from dsfnet.harness import ExperimentConfig
from dsfnet.nn import ShallowNetConfig, TrainConfig
from dsfnet.synth import SynthConfig

CONFIGS = (SynthConfig, ExperimentConfig, CorruptionSpec, TrainConfig,
           ShallowNetConfig, DsfConfig)
# Numeric fields without an interval: the ordered pairs are checked by
# hand, and master_seed comes from --seed, which the CLI bounds.
UNBOUNDED = {"class_freqs", "eta_range", "sigma_range_uv", "master_seed"}
# Other fields' values under which every value a bound admits passes the
# hand-written rules too: patience <= max_epochs.
BASE = {TrainConfig: dict(patience=0, max_epochs=2**64)}


def table(cls) -> dict[str, tuple[float, float, bool, bool, bool]]:
    """name -> (lo, hi, lo open, hi open, integral) of each bounded field;
    a field declared int, int | None or tuple[int, ...] is integral."""
    return {f.name: (*f.metadata["bound"][:4],
                     int in (f.type, *get_args(f.type)))
            for f in fields(cls) if "bound" in f.metadata}


ENTRIES = [(cls, name) for cls in CONFIGS for name in table(cls)]
IDS = [f"{cls.__name__}.{name}" for cls, name in ENTRIES]


def build(cls, name, value):
    """cls with the field set to value, or to (value,) if it is a tuple."""
    if get_origin({f.name: f.type for f in fields(cls)}[name]) is tuple:
        value = (value,)
    return cls(**{**BASE.get(cls, {}), name: value})


def rejects(cls, name, value) -> None:
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got "):
        build(cls, name, value)


def test_every_numeric_field_is_bounded():
    for cls in CONFIGS:
        numeric = {f.name for f in fields(cls)
                   if {f.type, *get_args(f.type)} & {int, float}}
        assert numeric - UNBOUNDED == set(table(cls)), cls.__name__


@pytest.mark.parametrize("cls,name", ENTRIES, ids=IDS)
def test_bound_edges(cls, name):
    lo, hi, lo_open, hi_open, integral = table(cls)[name]
    for value in (np.nan, np.inf, -np.inf):
        rejects(cls, name, value)
    if integral:
        rejects(cls, name, lo + 0.5 if np.isfinite(lo) else 0.5)
    for edge, is_open, outward in ((lo, lo_open, -1), (hi, hi_open, 1)):
        if not np.isfinite(edge):
            continue
        if integral:
            edge = int(edge)
        if is_open:
            rejects(cls, name, edge)
            continue
        build(cls, name, edge)
        rejects(cls, name, edge + outward if integral
                else np.nextafter(edge, outward * np.inf))


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
        rejects(cls, name, value)
