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


def _coerce(value: str, target):
    if target is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"not a boolean: {value!r}")
    return target(value)


def _float_tuple(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.split(",") if v.strip())


def _int_tuple(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split(",") if v.strip())


def _apply_section(obj, section: dict[str, str], special: dict | None = None):
    special = special or {}
    valid = {f.name: f.type for f in fields(obj)}
    updates = {}
    for key, value in section.items():
        if key in special:
            updates[key] = special[key](value)
        elif key in valid:
            current = getattr(obj, key)
            if isinstance(current, bool):
                updates[key] = _coerce(value, bool)
            elif isinstance(current, int):
                updates[key] = int(value)
            elif isinstance(current, float):
                updates[key] = float(value)
            elif isinstance(current, tuple):
                updates[key] = (_int_tuple(value)
                                if all(isinstance(v, int) for v in current)
                                else _float_tuple(value))
            else:
                updates[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}")
    return replace(obj, **updates)


def _parse_models(value: str) -> list[tuple[str, str]]:
    out = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, denoise = item.partition(":")
        out.append((name.strip(), denoise.strip() or "none"))
    if not out:
        raise ConfigError("models list is empty")
    return out


KNOWN_SECTIONS = ("data", "train", "net", "sweep")


def load_experiment_config(path: str) -> tuple[SynthConfig, ExperimentConfig]:
    with open(path, encoding="utf-8") as f:
        sections = parse_config_text(f.read())
    for name in sections:
        if name not in KNOWN_SECTIONS:
            raise ConfigError(f"{path}: unknown section [{name}]")

    def apply(obj, name: str, special: dict | None = None):
        # Coercion and the dataclass checks raise plain ValueErrors.
        try:
            return _apply_section(obj, sections.get(name, {}), special)
        except ValueError as e:
            raise ConfigError(f"{path}: {e} in [{name}]") from e

    data_cfg = apply(SynthConfig(), "data")
    train_cfg = apply(TrainConfig(), "train")
    net_cfg = apply(ShallowNetConfig(), "net")
    sweep_cfg = apply(
        ExperimentConfig(models=[("vanilla", "none")], train=train_cfg,
                         net=net_cfg),
        "sweep",
        special={
            "models": _parse_models,
            "eta_grid": _float_tuple,
            "count_grid": _int_tuple,
            "c_prime_grid": _int_tuple,
            "sigma_range_uv": _float_tuple,
        })
    return data_cfg, sweep_cfg
