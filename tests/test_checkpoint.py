"""Checkpoint file modes, and loading checkpoints whose BatchNorm statistics
are missing or mis-shaped."""

import os
import stat

import numpy as np
import pytest

from medlitenet import checkpoint, cli
from medlitenet.checkpoint import CheckpointError, load_checkpoint
from medlitenet.data import synth_sample
from medlitenet.model import MedLiteNet, ModelConfig
from medlitenet.netpbm import save_image_ppm


def _micro():
    return MedLiteNet(ModelConfig.micro(64), seed=0)


def _infer_exit_code(ckpt, tmp_path):
    image = tmp_path / "img.ppm"
    save_image_ppm(image, synth_sample(0, 64).image)
    return cli.main(["infer", "--ckpt", str(ckpt), "--input", str(image),
                     "--out", str(tmp_path / "pred")])


def test_missing_running_var(tmp_path, monkeypatch):
    model = _micro()
    target = next(model.named_states())[0] + ".running_var"
    real = checkpoint._named_tensors
    monkeypatch.setattr(checkpoint, "_named_tensors",
                        lambda m: [e for e in real(m) if e[0] != target])
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=f"missing tensor '{target}'"):
        load_checkpoint(path)
    assert _infer_exit_code(path, tmp_path) == 2


def test_misshaped_running_mean(tmp_path):
    model = _micro()
    name, state = next(model.named_states())
    state.mean = np.zeros(state.mean.size + 1, np.float32)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=f"'{name}.running_mean' has shape"):
        load_checkpoint(path)
    assert _infer_exit_code(path, tmp_path) == 2


def test_stats_round_trip(tmp_path):
    model = _micro()
    for i, (_, state) in enumerate(model.named_states()):
        state.mean = np.full_like(state.mean, i)
        state.var = np.full_like(state.var, i + 1)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    for (_, a), (_, b) in zip(model.named_states(), loaded.named_states()):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.var, b.var)


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_file_mode_follows_umask(tmp_path, umask):
    path = tmp_path / "m.ckpt"
    old = os.umask(umask)
    try:
        checkpoint.save_checkpoint(_micro(), path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
