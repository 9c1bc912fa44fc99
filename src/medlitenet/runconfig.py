"""YAML run configuration: model / train / data / paths sections.

An empty (or absent) file yields the documented defaults; unknown keys are
rejected with their full dotted path; CLI flags override individual keys.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .data import AugmentConfig
from .errors import ConfigError, require
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class DataConfig:
    n_train: int = 64
    n_val: int = 16
    n_test: int = 8
    size: int = 64
    base_seed: int = 1000
    difficulty_mix: tuple = (0.6, 0.25, 0.15)

    def validate(self):
        for key in ("n_train", "n_val", "n_test"):
            value = getattr(self, key)
            require(value >= 1, f"data.{key}", "must be >= 1", value)
        require(self.size > 0 and self.size % 32 == 0, "data.size",
                "must be a positive multiple of 32", self.size)
        mix = self.difficulty_mix
        require(len(mix) == 3 and all(m >= 0 for m in mix), "data.difficulty_mix",
                "must be three non-negative proportions", mix)
        return self


@dataclass
class PathsConfig:
    out_dir: str = "runs/run"
    dataset_dir: str = None
    checkpoint: str = None


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self):
        self.model.validate()
        self.train.validate()
        self.data.validate()
        self.augment.validate()
        return self

    def to_dict(self) -> dict:
        d = {
            "model": asdict(self.model),
            "train": asdict(self.train),
            "data": asdict(self.data),
            "augment": asdict(self.augment),
            "paths": asdict(self.paths),
        }
        # yaml-friendly: tuples -> lists
        return _tuples_to_lists(d)


_SECTION_TYPES = {
    "model": ModelConfig,
    "train": TrainConfig,
    "data": DataConfig,
    "augment": AugmentConfig,
    "paths": PathsConfig,
}

_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _checked(dotted: str, value, default):
    """``value`` if it has the type of the field's ``default``, else ConfigError.

    A tuple field takes a list of its default's element type, an int is a
    valid float but a bool is no number, and a ``None`` default (an optional
    path) takes a string or null.
    """
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config key {dotted} must be a list, got {value!r}")
        return tuple(_checked(f"{dotted}[{i}]", v, default[0])
                     for i, v in enumerate(value))
    if default is None:
        ok, name = value is None or isinstance(value, str), "a string or null"
    else:
        kind = type(default)
        number = (int, float) if kind is float else kind
        ok = isinstance(value, number) and (
            kind is bool or not isinstance(value, bool))
        name = _KIND_NAMES[kind]
    if not ok:
        raise ConfigError(f"config key {dotted} must be {name}, got {value!r}")
    return value


def _tuples_to_lists(obj):
    if isinstance(obj, dict):
        return {k: _tuples_to_lists(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return [_tuples_to_lists(v) for v in obj]
    return obj


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats.

    PyYAML follows YAML 1.1, where a float needs a dot and a signed
    exponent, so ``1e-3``, ``1.5e3`` or ``.5E3`` would load as strings.
    """


# YAML 1.2 core-schema floats that carry an exponent; the forms without one
# already resolve as YAML 1.1 floats or ints
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9][0-9_]*(\.[0-9_]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_run_config(path=None) -> RunConfig:
    """Parse a YAML config file; a missing/empty file gives the defaults."""
    raw = {}
    if path is not None:
        text = Path(path).read_text()
        loaded = yaml.load(text, Loader=_Loader)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a mapping")
        raw = loaded
    return run_config_from_dict(raw)


def run_config_from_dict(raw: dict) -> RunConfig:
    unknown = set(raw) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"config key {sorted(unknown)[0]!r} is not recognized")
    kwargs = {}
    for section, cls in _SECTION_TYPES.items():
        body = raw.get(section, {})
        if body is None:
            body = {}
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        defaults = {f.name: f.default for f in fields(cls)}
        coerced = {}
        for key, value in body.items():
            if key not in defaults:
                raise ConfigError(
                    f"config key {section}.{key} is not recognized")
            coerced[key] = _checked(f"{section}.{key}", value, defaults[key])
        try:
            kwargs[section] = cls(**coerced)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config section {section}: {exc}") from exc
    config = RunConfig(**kwargs)
    config.validate()
    return config


def dump_resolved(config: RunConfig, path) -> None:
    """Write the fully-resolved configuration echo for the run."""
    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True,
                       default_flow_style=False)
