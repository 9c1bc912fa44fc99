"""The configuration error, its range check, and ``parse``, the one parser
that turns an outside mapping (YAML, a checkpoint header, the estimator's
arguments) into a config dataclass.  Each config is frozen and runs its range
checks in ``__post_init__``, so no caller checks one again.  This module
imports nothing from the package, so every config layer and ``checkpoint``
can use it without a cycle.
"""

from dataclasses import fields, is_dataclass


class ConfigError(ValueError):
    """Raised when a model or run configuration is invalid."""


def require(ok: bool, key: str, rule: str, value) -> None:
    """Raise a ConfigError naming the dotted config ``key`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"config key {key} {rule}, got {value!r}")


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


# dotted keys that nothing reads any more; ``parse`` skips them, so configs
# written while they existed (every config_resolved.yaml and checkpoint
# header) still load.  A key mapped to a value is skipped only with that
# value, the one every build still has; None takes any value
RETIRED = {"data.n_test": None, "paths.checkpoint": None, "model.in_channels": 3}


def parse(cls, raw, section: str = None):
    """Build the config dataclass ``cls`` from the mapping ``raw``.

    Each key must be a field of ``cls`` with its default's type; a field
    whose ``default_factory`` is a config dataclass is a nested section
    (null means its defaults), and a ``RETIRED`` key is skipped, or refused
    if its value contradicts the one the package still builds.  Building
    ``cls`` runs its range checks, so the result is a valid config.  Errors
    name the dotted key under ``section``.
    """
    if not isinstance(raw, dict):
        where = f"section {section!r}" if section else "top level"
        raise ConfigError(f"config {where} must be a mapping")
    defaults = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        dotted = f"{section}.{key}" if section else key
        if dotted in RETIRED:
            fixed = RETIRED[dotted]
            require(fixed is None or value == fixed, dotted,
                    f"is retired and can only be {fixed!r}", value)
            continue
        if key not in defaults:
            raise ConfigError(f"config key {dotted} is not recognized")
        sub = defaults[key].default_factory
        if is_dataclass(sub):
            kwargs[key] = parse(sub, {} if value is None else value, dotted)
        else:
            kwargs[key] = _checked(dotted, value, defaults[key].default)
    return cls(**kwargs)
