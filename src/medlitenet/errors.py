"""The configuration error and its one check, shared by every config layer.

This module imports nothing from the package, so the data and training
configs can use it without importing the network.
"""


class ConfigError(ValueError):
    """Raised when a model or run configuration is invalid."""


def require(ok: bool, key: str, rule: str, value) -> None:
    """Raise a ConfigError naming the dotted config ``key`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"config key {key} {rule}, got {value!r}")
