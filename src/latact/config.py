"""Flat text configuration: `key = value` lines under [section] headers.

No nesting. Unknown sections or keys are errors that name the offender and
its line number; values are coerced to the types of the corresponding
dataclass defaults.
"""

import dataclasses
import hashlib
import json

from .models import ModelConfig
from .training import TrainConfig, make_config
from .worldgen import DGPSpec


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class DataConfig:
    m_target: int = 10
    source_count: int = 300
    target_e: int = 0


SECTION_TYPES = {
    "dgp": DGPSpec,
    "model": ModelConfig,
    "train": TrainConfig,
    "data": DataConfig,
}


# What a key expects, by the type of its default, and how its text parses.
# bool comes before int, whose subclass it is; a str default takes the text.
BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
PARSERS = (
    (bool, "a boolean", lambda raw: BOOLEANS[raw.lower()]),
    (int, "an integer", int),
    (float, "a number", float),
    (tuple, "comma-separated integers",
     lambda raw: tuple(int(p) for p in raw.split(",") if p.strip())),
)


def _coerce(raw, default, key, lineno):
    for kind, expects, parse in PARSERS:
        if isinstance(default, kind):
            try:
                return parse(raw)
            except (KeyError, ValueError):
                raise ConfigError(f"line {lineno}: key '{key}' expects {expects}, got {raw!r}")
    return raw


def parse_config(text):
    """-> {section: {key: typed value}}; strict about sections and keys."""
    out = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SECTION_TYPES:
                raise ConfigError(f"line {lineno}: unknown section '{section}'")
            defaults = {f.name: f.default for f in dataclasses.fields(SECTION_TYPES[section])}
            out.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, raw = (p.strip() for p in stripped.split("=", 1))
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        out[section][key] = _coerce(raw, defaults[key], key, lineno)
    return out


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def build_section(config, section, **overrides):
    """Instantiate the section's dataclass with file values plus the values
    the command sets (`overrides`); a file may not set those keys."""
    kwargs = dict(config.get(section, {}))
    clash = sorted(set(kwargs) & set(overrides))
    if clash:
        raise ConfigError(f"[{section}] key '{clash[0]}' is set by the command, "
                          "not by the config file")
    kwargs.update(overrides)
    # `make_config` zeroes the weight of each loss term the variant drops
    build = make_config if section == "train" else SECTION_TYPES[section]
    try:
        return build(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def config_hash(config):
    """Stable under key and section reordering."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
