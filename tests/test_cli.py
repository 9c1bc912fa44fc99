"""The `medlitenet eval` paths that run a model over a dataset directory,
synth's samples, synth -> train -> infer -> eval end to end, train's
override flags, a dataset whose mask does not fit its image, paths the
filesystem refuses, the gradcheck and params commands, and every command
line in README.md parsing with the real parser."""

import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from medlitenet import checkpoint, cli, training
from medlitenet.data import make_split, synth_sample
from medlitenet.model import PARAM_GROUPS, MedLiteNet, ModelConfig
from medlitenet.netpbm import save_image_ppm, save_mask_pgm
from medlitenet.runconfig import load_run_config
from medlitenet.workers import WorkerError


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    assert cli.main(["synth", "--count", "3", "--size", "64", "--out", str(root)]) == 0
    return root


def _save_micro(path, seed, dice):
    model = MedLiteNet(ModelConfig.micro(64), seed=seed)
    checkpoint.save_checkpoint(model, path, meta={"best_val_dice": dice})
    return str(path)


@pytest.mark.parametrize("mode", ["ckpt", "ckpt_tta", "ensemble",
                                  "ensemble_tta"])
def test_eval_model_on_dataset(mode, dataset, tmp_path, capsys, monkeypatch):
    a = _save_micro(tmp_path / "a.ckpt", seed=0, dice=0.6)
    b = _save_micro(tmp_path / "b.ckpt", seed=1, dice=0.4)
    source = {"ckpt": ["--ckpt", a], "ckpt_tta": ["--ckpt", a, "--tta"],
              "ensemble": ["--ensemble", a, b],
              "ensemble_tta": ["--ensemble", a, b, "--tta"]}[mode]
    tta_calls = []
    real_tta = training.tta_predict
    monkeypatch.setattr(training, "tta_predict",
                        lambda fn, batch: tta_calls.append(1) or real_tta(fn, batch))
    rows_csv = tmp_path / "rows.csv"
    code = cli.main(["eval", *source, "--dataset", str(dataset),
                     "--out", str(rows_csv)])
    assert code == 0, capsys.readouterr().err
    # one TTA pass per image, and only when --tta is given
    assert len(tta_calls) == (3 if "--tta" in source else 0)
    lines = rows_csv.read_text().splitlines()
    assert lines[0].startswith("name,dice,iou")
    assert [line.split(",")[0] for line in lines[1:]] == [
        f"sample_{i:05d}" for i in range(3)]


RUN_YAML = """model:
  input_size: 32
  stage_widths: [8, 16, 24, 32]
  trans_layers: 1
  trans_dim: 32
  trans_heads: 4
  aspp_branch_width: 16
  aspp_out_channels: 32
  decoder_widths: [16, 16, 16, 8]
train: {epochs: 1, batch_size: 2, accumulation: 1, lr0: 2e-3, eps: 1e-8}
"""


def test_synth_writes_the_train_split_of_make_split(tmp_path, capsys):
    assert cli.main(["synth", "--count", "7", "--seed", "5", "--size", "32",
                     "--out", str(tmp_path)]) == 0
    printed = [line.split()[2:] for line in capsys.readouterr().out.splitlines()]
    assert printed == [[f"seed={s.seed}", f"difficulty={s.difficulty}"]
                       for s in make_split(7, 1, 1, 5)[0]]


def test_synth_train_infer_eval_end_to_end(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    names = [f"sample_{i:05d}" for i in range(4)]
    assert cli.main(["synth", "--count", "4", "--size", "32", "--out",
                     str(data)]) == 0
    assert sorted(p.name for p in data.iterdir()) == sorted(
        f"{n}{suffix}" for n in names for suffix in (".ppm", "_mask.pgm"))

    (tmp_path / "run.yaml").write_text(RUN_YAML)
    assert cli.main(["train", "--config", str(tmp_path / "run.yaml"),
                     "--dataset", str(data), "--out", str(run)]) == 0
    assert {"best.ckpt", "last.ckpt", "metrics.csv",
            "config_resolved.yaml"} <= {p.name for p in run.iterdir()}
    assert (run / "metrics.csv").read_text().splitlines()[0] == \
        "epoch,split,loss,dice,iou,lr"
    resolved = load_run_config(run / "config_resolved.yaml").train
    assert (resolved.lr0, resolved.eps) == (2e-3, 1e-8)   # YAML 1.2 floats
    ckpt = str(run / "best.ckpt")

    plain, tta = tmp_path / "plain", tmp_path / "tta"
    assert cli.main(["infer", "--ckpt", ckpt, "--input", str(data),
                     "--out", str(plain)]) == 0
    assert sorted(p.name for p in plain.iterdir()) == [f"{n}_pred.pgm" for n in names]
    assert cli.main(["infer", "--ckpt", ckpt, "--input", str(data),
                     "--out", str(tta), "--tta", "--prob"]) == 0
    assert sorted(p.name for p in tta.iterdir()) == sorted(
        f"{n}{suffix}" for n in names for suffix in ("_pred.pgm", "_prob.pgm"))

    for source in (["--pred-dir", str(plain), "--gt-dir", str(data)],
                   ["--ckpt", ckpt, "--dataset", str(data)]):
        rows = tmp_path / "rows.csv"
        assert cli.main(["eval", *source, "--out", str(rows)]) == 0
        lines = rows.read_text().splitlines()
        assert lines[0] == "name,dice,iou,accuracy,sensitivity,specificity"
        assert [line.split(",")[0] for line in lines[1:]] == names
        rows.unlink()

    bad = tmp_path / "bad.ppm"
    whole = (data / "sample_00000.ppm").read_bytes()
    bad.write_bytes(whole[:len(whole) // 2])
    capsys.readouterr()
    assert cli.main(["infer", "--ckpt", ckpt, "--input", str(bad),
                     "--out", str(tmp_path / "bad_out")]) == 2
    assert "truncated pixel payload" in capsys.readouterr().err


def test_train_flags_override_their_keys(dataset, tmp_path, monkeypatch):
    fitted = []

    def fake_fit(model, train, val, config, **kwargs):
        fitted.append(config)
        return SimpleNamespace(best_epoch=0, best_val_dice=0.0,
                               best_checkpoint="b", last_checkpoint="l")

    monkeypatch.setattr(cli, "fit", fake_fit)
    (tmp_path / "run.yaml").write_text(RUN_YAML)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(tmp_path / "run.yaml"),
                     "--seed", "7", "--epochs", "2", "--out", str(run),
                     "--dataset", str(dataset)]) == 0
    echo = load_run_config(run / "config_resolved.yaml")
    assert (echo.train.seed, echo.train.epochs) == (7, 2)
    assert (echo.paths.out_dir, echo.paths.dataset_dir) == (str(run), str(dataset))
    assert echo.train.lr0 == 2e-3 and fitted == [echo.train]


def test_train_on_a_mask_of_another_size_exits_2_naming_it(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["synth", "--count", "3", "--size", "64", "--out",
                     str(data)]) == 0
    bad = data / "sample_00001_mask.pgm"
    save_mask_pgm(bad, synth_sample(1, 32).mask)
    capsys.readouterr()
    assert cli.main(["train", "--dataset", str(data), "--out", str(run)]) == 2
    assert f"error: mask {bad} is 32x32" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("argv", [
    ["infer", "--ckpt", "m.ckpt", "--input", "in", "--out", "out",
     "--threshold", "1.5"],
    ["eval", "--pred-dir", "p", "--gt-dir", "g", "--threshold", "nan"],
], ids=["infer-1.5", "eval-nan"])
def test_threshold_outside_unit_interval_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error: argument --threshold: must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["infer-ckpt-dir", "eval-ckpt-dir",
                                  "train-out-under-file", "synth-out-file"])
def test_a_path_the_filesystem_refuses_exits_2(case, dataset, tmp_path, capsys):
    a_file = tmp_path / "file"
    a_file.write_text("")
    argv = {
        "infer-ckpt-dir": ["infer", "--ckpt", str(tmp_path), "--input",
                           str(dataset), "--out", str(tmp_path / "out")],
        "eval-ckpt-dir": ["eval", "--ckpt", str(tmp_path), "--dataset",
                          str(dataset)],
        "train-out-under-file": ["train", "--dataset", str(dataset), "--out",
                                 str(a_file / "x")],
        "synth-out-file": ["synth", "--out", str(a_file)],
    }[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_dead_tta_worker_exits_4_without_a_traceback(tmp_path, capsys,
                                                       monkeypatch):
    def dead(*args):
        raise WorkerError("TTA worker 123 died with exit status -9")

    monkeypatch.setattr(cli, "predict_proba", dead)
    image = tmp_path / "a.ppm"
    save_image_ppm(image, np.zeros((3, 64, 64), np.float32))
    ckpt = _save_micro(tmp_path / "m.ckpt", seed=0, dice=0.5)
    code = cli.main(["infer", "--ckpt", ckpt, "--input", str(image),
                     "--out", str(tmp_path / "out"), "--tta"])
    assert code == cli.WORKER_ERROR == 4
    assert capsys.readouterr().err == (
        "worker failure: TTA worker 123 died with exit status -9\n")


def test_gradcheck_model_scope_passes(capsys):
    assert cli.main(["gradcheck", "--scope", "model"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "model: 1/1 checks passed (tol 0.002)"


def test_params_prints_the_default_budget(capsys):
    assert cli.main(["params"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == [*PARAM_GROUPS, "total"]
    assert rows[-1][1] == "3,547,671"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_command_line_parses():
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    lines = [line.strip() for block in blocks for line in block.splitlines()
             if line.strip().startswith("medlitenet ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command
                for line in lines}
    assert commands == {"synth", "train", "infer", "eval", "gradcheck", "params"}
