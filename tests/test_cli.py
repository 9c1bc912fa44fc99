"""The `medlitenet eval` paths that run a model over a dataset directory."""

import pytest

from medlitenet import checkpoint, cli
from medlitenet.model import MedLiteNet, ModelConfig


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
    real_tta = cli.tta_predict
    monkeypatch.setattr(cli, "tta_predict",
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
