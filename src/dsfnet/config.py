"""Line-oriented experiment configuration files.

UTF-8 `key = value` pairs under `[section]` headers; blank lines and
`#` comments are ignored. Unknown sections or keys are errors so typos
fail fast instead of silently using defaults.
"""

from dataclasses import fields, replace

from .harness import ExperimentConfig
from .nn import ShallowNetConfig, TrainConfig
from .synth import SynthConfig


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in "
                              f"[{current}]")
        sections[current][key] = value
    return sections


def _items(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _pair(value: str) -> tuple[float, float]:
    pair = tuple(float(v) for v in _items(value))
    if len(pair) != 2:
        raise ConfigError(f"expected two comma-separated values, got "
                          f"{value!r}")
    return pair


def _parse_models(value: str) -> list[tuple[str, str]]:
    out = []
    for item in _items(value):
        name, _, denoise = item.partition(":")
        out.append((name.strip(), denoise.strip() or "none"))
    if not out:
        raise ConfigError("models list is empty")
    return out


# Declared field type -> parser of its config value. A section's keys are
# the fields of its dataclass with a type in this table, so the nested
# train and net configs are not keys.
PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[int, ...]: lambda value: tuple(int(v) for v in _items(value)),
    tuple[float, ...]: lambda value: tuple(float(v) for v in _items(value)),
    tuple[float, float]: _pair,
    list[tuple[str, str]]: _parse_models,
}
NOT_KEYS = ("master_seed",)  # set from --seed only


def _apply_section(obj, section: dict[str, str]):
    parsers = {f.name: PARSERS[f.type] for f in fields(obj)
               if f.type in PARSERS and f.name not in NOT_KEYS}
    updates = {}
    for key, value in section.items():
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r}")
        try:
            updates[key] = parsers[key](value)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from e
    return replace(obj, **updates)


KNOWN_SECTIONS = ("data", "train", "net", "sweep")


def load_experiment_config(path: str | None
                           ) -> tuple[SynthConfig, ExperimentConfig]:
    """Data and sweep configs from a file; no path gives the defaults."""
    sections = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            sections = parse_config_text(f.read())
    for name in sections:
        if name not in KNOWN_SECTIONS:
            raise ConfigError(f"{path}: unknown section [{name}]")

    def apply(obj, name: str):
        # The parsers and the dataclass checks raise plain ValueErrors.
        try:
            return _apply_section(obj, sections.get(name, {}))
        except ValueError as e:
            raise ConfigError(f"{path}: {e} in [{name}]") from e

    data_cfg = apply(SynthConfig(), "data")
    train_cfg = apply(TrainConfig(), "train")
    net_cfg = apply(ShallowNetConfig(), "net")
    sweep_cfg = apply(ExperimentConfig(train=train_cfg, net=net_cfg), "sweep")
    return data_cfg, sweep_cfg
