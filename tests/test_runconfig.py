"""YAML run configuration: defaults, unknown keys, typed values with dotted
paths, YAML 1.2 exponent floats, retired keys that old configs still
hold, out-of-range values named by their dotted key, configs that cannot be
built out of range or changed once built, and the CLI's exit code for a bad
config or override."""

import re
from dataclasses import FrozenInstanceError, fields

import pytest
import yaml

from medlitenet import cli
from medlitenet.data import AugmentConfig
from medlitenet.errors import RETIRED, ConfigError, parse
from medlitenet.model import ModelConfig
from medlitenet.runconfig import (
    DataConfig,
    PathsConfig,
    RunConfig,
    dump_resolved,
    load_run_config,
)
from medlitenet.training import TrainConfig


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("")
    config = load_run_config(path)
    assert config.model == ModelConfig()
    assert config.to_dict() == parse(RunConfig, {}).to_dict()


def test_resolved_echo_loads_back(tmp_path):
    config = parse(RunConfig, {
        "model": {"stage_widths": [8, 16, 24, 32], "width_mult": 1},
        "train": {"epochs": 3, "lr0": 0.002, "augment": False},
        "data": {"size": 32, "difficulty_mix": [1, 0, 0]},
        "paths": {"dataset_dir": "data"},
    })
    dump_resolved(config, tmp_path / "resolved.yaml")
    again = load_run_config(tmp_path / "resolved.yaml")
    assert again.to_dict() == config.to_dict()
    assert again.model.stage_widths == (8, 16, 24, 32)


@pytest.mark.parametrize("raw, match", [
    ({"modle": {}}, "config key modle is not recognized"),
    ({"train": {"epoch": 3}}, r"config key train\.epoch is not recognized"),
    ({"model": {"stage_widths": 32}}, r"model\.stage_widths must be a list"),
    ({"augment": {"gamma": "0.8"}}, r"augment\.gamma must be a list"),
    ({"data": [1, 2]}, "section 'data' must be a mapping"),
    ([1, 2], "config top level must be a mapping"),
], ids=["section", "key", "tuple_scalar", "tuple_string", "section_list",
        "top_level_list"])
def test_unknown_keys_and_non_lists(raw, match):
    with pytest.raises(ConfigError, match=match):
        parse(RunConfig, raw)


BAD_TYPES = {
    "str_int": ("train:\n  epochs: ten\n",
                r"train\.epochs must be an integer, got 'ten'"),
    "null_int": ("data:\n  size: null\n",
                 r"data\.size must be an integer, got None"),
    "str_in_tuple": ("model:\n  stage_widths: [16, wide, 64, 128]\n",
                     r"model\.stage_widths\[1\] must be an integer, got 'wide'"),
    "bool_float": ("train:\n  lr0: yes\n", r"train\.lr0 must be a number, got True"),
    "int_bool": ("train:\n  augment: 1\n", r"train\.augment must be true or false"),
    "list_str": ("paths:\n  out_dir: [a]\n", r"paths\.out_dir must be a string"),
}


@pytest.mark.parametrize("case", sorted(BAD_TYPES))
def test_wrong_typed_value_names_its_dotted_path(tmp_path, case):
    text, match = BAD_TYPES[case]
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_run_config(path)


def test_numbers_accept_ints_and_optional_paths_accept_null():
    config = parse(RunConfig, {"train": {"lr0": 1, "clip_norm": 2},
                               "paths": {"dataset_dir": None}})
    assert config.train.lr0 == 1 and config.paths.dataset_dir is None


# a config echo as written while data.n_test, paths.checkpoint and
# model.in_channels were fields
OLD_ECHO = """\
data:
  n_test: 8
  n_train: 12
  n_val: 4
model:
  in_channels: 3
  input_size: 64
paths:
  checkpoint: null
  out_dir: runs/old
train:
  epochs: 3
"""


def test_retired_keys_still_load_and_are_no_longer_written(tmp_path):
    path = tmp_path / "old.yaml"
    path.write_text(OLD_ECHO)
    without = tmp_path / "new.yaml"
    without.write_text(OLD_ECHO.replace("  n_test: 8\n", "")
                       .replace("  checkpoint: null\n", "")
                       .replace("  in_channels: 3\n", ""))
    config = load_run_config(path)
    assert config == load_run_config(without)
    assert (config.data.n_train, config.model.input_size,
            config.paths.out_dir) == (12, 64, "runs/old")
    dump_resolved(config, tmp_path / "resolved.yaml")
    echo = yaml.safe_load((tmp_path / "resolved.yaml").read_text())
    assert "n_test" not in echo["data"] and "checkpoint" not in echo["paths"]
    assert "in_channels" not in echo["model"]


@pytest.mark.parametrize("value", [1, 4, None, "3"])
def test_a_retired_in_channels_other_than_3_is_refused(value):
    # the package builds 3-channel models only: a config that asks for any
    # other count must not load as a 3-channel one
    with pytest.raises(ConfigError, match=r"model\.in_channels"):
        parse(RunConfig, {"model": {"in_channels": value}})


def test_retired_keys_load_with_the_values_they_may_hold():
    for raw in ({"model": {"in_channels": 3}}, {"data": {"n_test": 0}},
                {"data": {"n_test": "any"}}, {"paths": {"checkpoint": "x.ckpt"}},
                {"paths": {"checkpoint": None}}):
        assert parse(RunConfig, raw) == RunConfig(), raw


def test_a_config_file_with_in_channels_1_exits_train_with_2(tmp_path, capsys):
    path = tmp_path / "one.yaml"
    path.write_text(OLD_ECHO.replace("in_channels: 3", "in_channels: 1"))
    assert cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    assert "model.in_channels" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_no_retired_key_is_a_live_field():
    sections = {f.name: f.default_factory for f in fields(RunConfig)}
    for dotted in RETIRED:
        section, key = dotted.split(".")
        assert key not in {f.name for f in fields(sections[section])}, dotted


OUT_OF_RANGE = [
    (TrainConfig, {"epochs": 0}, "train.epochs"),
    (ModelConfig, {"trans_layers": 0}, "model.trans_layers"),
    (DataConfig, {"n_train": 0}, "data.n_train"),
    (AugmentConfig, {"brightness": 0.5}, "augment.brightness"),
]


@pytest.mark.parametrize("cls, kwargs, key", OUT_OF_RANGE,
                         ids=[key for _, _, key in OUT_OF_RANGE])
def test_out_of_range_config_cannot_be_built(cls, kwargs, key):
    with pytest.raises(ConfigError, match=rf"^config key {re.escape(key)} "):
        cls(**kwargs)


CONFIGS = (RunConfig, ModelConfig, TrainConfig, DataConfig, AugmentConfig,
           PathsConfig)


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_no_field_of_a_built_config_can_be_assigned(cls):
    config = cls()
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


def test_every_config_section_is_frozen():
    sections = {f.default_factory for f in fields(RunConfig)}
    for cls in {RunConfig, TrainConfig, ModelConfig} | sections:
        assert cls.__dataclass_params__.frozen, cls.__name__


@pytest.mark.parametrize("case", ["str_int", "null_int", "str_in_tuple"])
def test_cli_train_exits_2_naming_the_key(tmp_path, capsys, case):
    text, match = BAD_TYPES[case]
    path = tmp_path / "run.yaml"
    path.write_text(text)
    code = cli.main(["train", "--config", str(path), "--out",
                     str(tmp_path / "run")])
    assert code == 2
    assert re.search(match, capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_exponent_floats_load_as_numbers(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("train:\n  lr0: 1e-3\n  lr_min: -5e-8\n  eps: 1E-8\n"
                    "  clip_norm: 1E+2\n  weight_decay: 1.5e3\n  ema_decay: .5E0\n")
    with pytest.raises(ConfigError, match=r"train\.lr_min must be positive, "
                                          r"got -5e-08"):
        load_run_config(path)
    path.write_text(path.read_text().replace("-5e-8", "5e-8"))
    config = load_run_config(path)
    assert (config.train.lr0, config.train.lr_min) == (1e-3, 5e-8)
    assert (config.train.eps, config.train.clip_norm) == (1e-8, 100.0)
    assert (config.train.weight_decay, config.train.ema_decay) == (1500.0, 0.5)
    dump_resolved(config, tmp_path / "resolved.yaml")
    assert load_run_config(tmp_path / "resolved.yaml").to_dict() == config.to_dict()


# one out-of-range value per checked field of the train, augment and data
# sections (and the non-finite one of each unbounded train float), two model
# fields, and the dotted key each error must name
BAD_VALUES = [
    ("model", "trans_layers", "0", "must be >= 1, got 0"),
    ("model", "input_size", "48", "must be a positive multiple of 32, got 48"),
    ("train", "batch_size", "0", "must be >= 1, got 0"),
    ("train", "epochs", "0", "must be >= 1, got 0"),
    ("train", "accumulation", "-1", "must be >= 1, got -1"),
    ("train", "lr0", "0", "must be positive, got 0"),
    ("train", "lr_min", "-1.0e-6", "must be positive, got -1e-06"),
    ("train", "eps", "0.0", "must be positive, got 0.0"),
    ("train", "clip_norm", "-0.5", "must be positive, got -0.5"),
    ("train", "ema_decay", "1.0", r"must lie in \[0, 1\), got 1.0"),
    ("train", "weight_decay", "-0.01", "must be non-negative, got -0.01"),
    ("train", "beta1", "1.5", r"must lie in \[0, 1\), got 1.5"),
    ("train", "beta1", "-0.2", r"must lie in \[0, 1\), got -0.2"),
    ("train", "beta2", "1.0", r"must lie in \[0, 1\), got 1.0"),
    ("train", "lr0", ".inf", "must be finite, got inf"),
    ("train", "lr_min", ".inf", "must be finite, got inf"),
    ("train", "eps", ".inf", "must be finite, got inf"),
    ("train", "clip_norm", ".inf", "must be finite, got inf"),
    ("train", "weight_decay", ".inf", "must be finite, got inf"),
    ("augment", "brightness", "0.5", r"must lie in \[0, 0.2\], got 0.5"),
    ("augment", "contrast", "[0.5, 1.2]",
     r"must be an ordered pair within \[0.8, 1.2\], got \(0.5, 1.2\)"),
    ("augment", "gamma", "[1.2, 0.9]",
     r"must be an ordered pair within \[0.7, 1.5\], got \(1.2, 0.9\)"),
    ("augment", "noise_sigma", "0.2", r"must lie in \[0, 0.05\], got 0.2"),
    ("data", "n_train", "0", "must be >= 1, got 0"),
    ("data", "n_val", "0", "must be >= 1, got 0"),
    ("data", "size", "48", "must be a positive multiple of 32, got 48"),
    ("data", "difficulty_mix", "[0.5, 0.5]",
     r"must be three non-negative proportions, got \(0.5, 0.5\)"),
    ("data", "difficulty_mix", "[0, 0, 0]",
     r"must be finite with a positive sum, got \(0, 0, 0\)"),
    ("data", "difficulty_mix", "[.inf, 1, 1]",
     r"must be finite with a positive sum, got \(inf, 1, 1\)"),
]


def _bad_value_ids(rows):
    """``section.key``, and ``section.key=value`` for a key's later rows."""
    seen, ids = set(), []
    for section, key, value, _ in rows:
        name = f"{section}.{key}"
        ids.append(f"{name}={value}" if name in seen else name)
        seen.add(name)
    return ids


@pytest.mark.parametrize("section, key, value, rule", BAD_VALUES,
                         ids=_bad_value_ids(BAD_VALUES))
def test_cli_out_of_range_value_exits_2_naming_the_key(tmp_path, capsys,
                                                      section, key, value, rule):
    path = tmp_path / "run.yaml"
    path.write_text(f"{section}:\n  {key}: {value}\n")
    code = cli.main(["train", "--config", str(path), "--out",
                     str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(rf"error: config key {section}\.{key} {rule}", err), err
    assert not (tmp_path / "run").exists()


def test_cli_out_of_range_override_exits_2_naming_the_key(tmp_path, capsys):
    code = cli.main(["train", "--epochs", "0", "--out", str(tmp_path / "run")])
    assert code == 2
    assert re.search(r"error: config key train\.epochs must be >= 1, got 0",
                     capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["truncated", "python_tag", "directory"])
def test_cli_unloadable_config_exits_2_naming_the_file(tmp_path, capsys, case):
    path = tmp_path / "run.yaml"
    if case == "directory":
        path.mkdir()
    else:
        path.write_text({"truncated": "train: {epochs: [1,\n",
                         "python_tag": "train: !!python/object:os.getcwd {}\n"}[case])
    assert cli.main(["params", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} cannot be loaded: "), err
