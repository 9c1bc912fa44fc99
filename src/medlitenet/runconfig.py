"""YAML run configuration: model / train / data / augment / paths sections.

An empty (or absent) file yields the documented defaults; ``errors.parse``
checks each key's type and rejects unknown keys with their full dotted path,
and each section checks its ranges when it is built.  Every section is a
frozen dataclass, so CLI flags override keys with ``dataclasses.replace``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .data import AugmentConfig
from .errors import ConfigError, parse, require
from .model import DOWNSAMPLE_FACTOR, ModelConfig
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    n_train: int = 64
    n_val: int = 16
    size: int = 64
    base_seed: int = 1000
    difficulty_mix: tuple = (0.6, 0.25, 0.15)

    def __post_init__(self):
        for key in ("n_train", "n_val"):
            value = getattr(self, key)
            require(value >= 1, f"data.{key}", "must be >= 1", value)
        require(self.size > 0 and self.size % DOWNSAMPLE_FACTOR == 0, "data.size",
                f"must be a positive multiple of {DOWNSAMPLE_FACTOR}", self.size)
        mix = self.difficulty_mix
        require(len(mix) == 3 and all(m >= 0 for m in mix), "data.difficulty_mix",
                "must be three non-negative proportions", mix)
        require(all(math.isfinite(m) for m in mix) and sum(mix) > 0,
                "data.difficulty_mix", "must be finite with a positive sum", mix)


@dataclass(frozen=True)
class PathsConfig:
    out_dir: str = "runs/run"
    dataset_dir: str = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def to_dict(self) -> dict:
        # yaml-friendly: the json round trip turns tuples into lists
        return json.loads(json.dumps(asdict(self)))


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
    """Parse a YAML config file; no path or an empty file gives the defaults.
    A file that exists but is no YAML or cannot be read raises ConfigError."""
    try:
        raw = None if path is None else yaml.load(Path(path).read_text(), Loader=_Loader)
    except FileNotFoundError:
        raise
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path} cannot be loaded: {exc}") from exc
    return parse(RunConfig, {} if raw is None else raw)


def dump_resolved(config: RunConfig, path) -> None:
    """Write the fully-resolved configuration echo for the run."""
    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True,
                       default_flow_style=False)
