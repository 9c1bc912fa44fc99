"""YAML run configuration: defaults, unknown keys, typed values with dotted
paths, and the CLI's exit code for a bad config."""

import re

import pytest

from medlitenet import cli
from medlitenet.model import ConfigError, ModelConfig
from medlitenet.runconfig import (
    dump_resolved,
    load_run_config,
    run_config_from_dict,
)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("")
    config = load_run_config(path)
    assert config.model == ModelConfig()
    assert config.to_dict() == run_config_from_dict({}).to_dict()


def test_resolved_echo_loads_back(tmp_path):
    config = run_config_from_dict({
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
    ({"modle": {}}, "config key 'modle' is not recognized"),
    ({"train": {"epoch": 3}}, r"config key train\.'epoch' is not recognized"),
    ({"model": {"stage_widths": 32}}, r"model\.stage_widths must be a list"),
    ({"augment": {"gamma": "0.8"}}, r"augment\.gamma must be a list"),
    ({"data": [1, 2]}, "section 'data' must be a mapping"),
], ids=["section", "key", "tuple_scalar", "tuple_string", "section_list"])
def test_unknown_keys_and_non_lists(raw, match):
    with pytest.raises(ConfigError, match=match):
        run_config_from_dict(raw)


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
    config = run_config_from_dict({"train": {"lr0": 1, "clip_norm": 2},
                                   "paths": {"checkpoint": None}})
    assert config.train.lr0 == 1 and config.paths.checkpoint is None


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
