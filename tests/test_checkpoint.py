"""Checkpoint file modes, the byte layout, memory while saving and loading,
a whole training state round trip, and loading checkpoints that are
corrupted, whose header holds a malformed config, seed or meta, or whose
model, EMA or optimizer tensors are missing, extra or mis-shaped; and a
built model's config, which cannot change under its weights."""

import json
import os
import stat
import struct
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import yaml

from medlitenet import checkpoint, cli
from medlitenet.autodiff import Tensor
from medlitenet.checkpoint import CheckpointError, load_checkpoint, read_checkpoint
from medlitenet.data import synth_sample
from medlitenet.errors import ConfigError
from medlitenet.model import MedLiteNet, ModelConfig
from medlitenet.netpbm import save_image_ppm
from medlitenet.runconfig import load_run_config
from medlitenet.training import TrainConfig, batch_arrays, fit


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
    real = MedLiteNet.state_dict
    monkeypatch.setattr(MedLiteNet, "state_dict", lambda m: {
        k: v for k, v in real(m).items() if k != target})
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path)
    monkeypatch.undo()
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


def test_unexpected_model_tensor(tmp_path, monkeypatch):
    model = _micro()
    real = MedLiteNet.state_dict
    monkeypatch.setattr(MedLiteNet, "state_dict", lambda m: {
        **real(m), "extra.weight": np.zeros(3, np.float32)})
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="unexpected tensor 'extra.weight'"):
        load_checkpoint(path)
    assert _infer_exit_code(path, tmp_path) == 2


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fit_last_checkpoint_round_trip(tmp_path, monkeypatch):
    """last.ckpt of a one-step fit loads back the model, its EMA shadows and
    the AdamW state bitwise."""
    saves = []
    real_save = checkpoint.save_checkpoint
    monkeypatch.setattr(checkpoint, "save_checkpoint", lambda model, path, **kw: (
        saves.append(kw), real_save(model, path, **kw)))
    model = MedLiteNet(ModelConfig.micro(32), seed=4)
    train = [synth_sample(i, 32) for i in range(2)]
    result = fit(model, train, train[:1],
                 TrainConfig(batch_size=2, accumulation=1, epochs=1, seed=4),
                 out_dir=tmp_path, max_steps=1)
    monkeypatch.undo()
    loaded, extras = load_checkpoint(result.last_checkpoint)

    want, got = model.state_dict(), loaded.state_dict()
    assert list(got) == list(want)
    assert all(_bitwise_equal(got[k], want[k]) for k in want)
    ema, opt = saves[-1]["ema_shadow"], saves[-1]["optimizer_state"]
    assert list(extras["ema_shadow"]) == list(ema) == list(want)
    assert all(_bitwise_equal(extras["ema_shadow"][k], ema[k]) for k in ema)
    assert extras["optimizer_state"]["step"] == opt["step"] == 1
    for moment in ("exp_avg", "exp_avg_sq"):
        stored = extras["optimizer_state"][moment]
        assert list(stored) == list(opt[moment])
        assert all(_bitwise_equal(stored[k], opt[moment][k]) for k in stored)
    x = Tensor(batch_arrays(train)[0])
    assert _bitwise_equal(loaded.eval()(x).data, model.eval()(x).data)


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


def _small_with_state():
    model = MedLiteNet(ModelConfig.small(128), seed=3)
    named = list(model.named_parameters())
    ema = {name: p.data * 0.5 for name, p in named}
    opt = {"step": 7, "exp_avg": {name: p.data * 0.25 for name, p in named},
           "exp_avg_sq": {name: p.data * p.data for name, p in named}}
    return model, ema, opt


def _reference_bytes(model, ema, opt, meta) -> bytes:
    """The documented layout, encoded independently of the writer."""
    payload = {"config": model.config.to_dict(), "seed": model.seed,
               "meta": {**meta, "optimizer_step": opt["step"]}}
    entries = [(name, p.data) for name, p in model.named_parameters()]
    for name, state in model.named_states():
        entries += [(name + ".running_mean", state.mean),
                    (name + ".running_var", state.var)]
    entries += [("ema/" + name, a) for name, a in ema.items()]
    entries += [("opt/exp_avg/" + name, a) for name, a in opt["exp_avg"].items()]
    entries += [("opt/exp_avg_sq/" + name, a)
                for name, a in opt["exp_avg_sq"].items()]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray(b"MLN1" + struct.pack("<II", 1, len(blob)) + blob)
    out += struct.pack("<I", len(entries))
    for name, arr in entries:
        out += struct.pack("<H", len(name)) + name.encode()
        out += struct.pack(f"<BB{arr.ndim}Q", 0, arr.ndim, *arr.shape)
        out += arr.astype("<f4").tobytes()
    return bytes(out)


def test_file_bytes_follow_the_documented_layout(tmp_path):
    model, ema, opt = _small_with_state()
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path, ema_shadow=ema, optimizer_state=opt,
                               meta={"best_val_dice": 0.5})
    assert path.read_bytes() == _reference_bytes(model, ema, opt,
                                                 {"best_val_dice": 0.5})


def test_save_streams_tensor_by_tensor(tmp_path):
    model, ema, opt = _small_with_state()
    path = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        checkpoint.save_checkpoint(model, path, ema_shadow=ema,
                                   optimizer_state=opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-file buffer (or two, with a join) would be >= the file size
    assert peak < path.stat().st_size / 4


def test_read_allocates_each_tensor_once(tmp_path):
    model, ema, opt = _small_with_state()
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path, ema_shadow=ema, optimizer_state=opt)
    tracemalloc.start()
    try:
        _, tensors = read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 1.1 * size + (1 << 20)
    assert np.array_equal(tensors["ema/" + next(iter(ema))], next(iter(ema.values())))


def test_corrupted_files_raise_only_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path)
    good = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    rng = np.random.default_rng(0)
    loaded = 0
    for i in range(200):
        buf = bytearray(good)
        if i % 4 == 0:
            del buf[rng.integers(0, len(buf)):]
        else:
            # the json payload and the first tensor records, where a flip
            # changes structure rather than one weight
            buf[rng.integers(0, 4096)] ^= int(rng.integers(1, 256))
        bad.write_bytes(bytes(buf))
        try:
            load_checkpoint(bad)
            loaded += 1          # a flip the v1 format cannot detect
        except CheckpointError:
            pass
    assert loaded < 200


@pytest.mark.parametrize("field, value, match", [
    ("name", b"\xff", "not utf-8"),
    ("dim", struct.pack("<Q", 2 ** 62), "needed"),
    ("rank", bytes([200]), "needed|invalid shape"),
], ids=["name_bytes", "huge_dim", "huge_rank"])
def test_malformed_record_is_checkpoint_error(tmp_path, field, value, match):
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path)
    buf = bytearray(path.read_bytes())
    json_len = struct.unpack_from("<I", buf, 8)[0]
    record = 12 + json_len + 4                  # first tensor record
    name_len = struct.unpack_from("<H", buf, record)[0]
    offset = {"name": record + 2, "rank": record + 3 + name_len,
              "dim": record + 4 + name_len}[field]
    buf[offset:offset + len(value)] = value
    path.write_bytes(bytes(buf))
    with pytest.raises(CheckpointError, match=match):
        read_checkpoint(path)


def _rewrite_header(path, edit):
    """Rewrite the json header of the checkpoint at ``path`` through ``edit``."""
    buf = path.read_bytes()
    json_len = struct.unpack_from("<I", buf, 8)[0]
    payload = json.loads(buf[12:12 + json_len])
    edit(payload)
    blob = json.dumps(payload).encode()
    path.write_bytes(buf[:8] + struct.pack("<I", len(blob)) + blob
                     + buf[12 + json_len:])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    assert cli.main(["synth", "--count", "1", "--size", "64", "--out", str(root)]) == 0
    return root


def _cli_exit_codes(ckpt, tmp_path, dataset):
    """The exit codes of ``infer`` and ``eval --ensemble`` on ``ckpt``."""
    return (_infer_exit_code(ckpt, tmp_path),
            cli.main(["eval", "--ensemble", str(ckpt), "--dataset", str(dataset)]))


# one malformed `model` section per case, as a YAML file or a checkpoint
# header holds it, and the dotted key the error must name
BAD_MODEL_SECTIONS = {
    "float_expansion": ({"expansion": 2.5},
                        r"config key model\.expansion must be an integer, got 2\.5"),
    "float_decoder_width": ({"decoder_widths": [16, 16, 16, 8.0]},
                            r"model\.decoder_widths\[3\] must be an integer"),
    "float_aspp_rate": ({"aspp_rates": [1, 2, 3, 4.5]},
                        r"model\.aspp_rates\[3\] must be an integer"),
    "bool_trans_layers": ({"trans_layers": True},
                          r"model\.trans_layers must be an integer, got True"),
    "unknown_key": ({"stem_channels": 8},
                    r"config key model\.stem_channels is not recognized"),
    "not_a_mapping": ([8, 16], r"config section 'model' must be a mapping"),
    "infinite_width_mult": ({"width_mult": float("inf")},
                            r"model\.width_mult must be positive and finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_SECTIONS))
def test_bad_model_section_names_its_key_in_yaml_and_checkpoint(
        tmp_path, dataset, case):
    bad, match = BAD_MODEL_SECTIONS[case]
    micro = json.loads(json.dumps(ModelConfig.micro(64).to_dict()))
    section = {**micro, **bad} if isinstance(bad, dict) else bad

    yaml_path = tmp_path / "run.yaml"
    yaml_path.write_text(yaml.safe_dump({"model": section}))
    with pytest.raises(ConfigError, match=match):
        load_run_config(yaml_path)

    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path, meta={"best_val_dice": 0.5})
    _rewrite_header(path, lambda payload: payload.update(config=section))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)
    assert _cli_exit_codes(path, tmp_path, dataset) == (2, 2)


@pytest.mark.parametrize("key, value, match", [
    ("seed", None, "stored seed must be a non-negative integer, got None"),
    ("seed", True, "stored seed must be a non-negative integer, got True"),
    ("meta", "x", "stored meta must be an object, got 'x'"),
    ("meta", {"optimizer_step": 1.5},
     r"stored meta\.optimizer_step must be a non-negative integer, got 1\.5"),
], ids=["null_seed", "bool_seed", "string_meta", "float_step"])
def test_bad_header_value_is_checkpoint_error(tmp_path, dataset, key, value, match):
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path, meta={"best_val_dice": 0.5})
    assert _cli_exit_codes(path, tmp_path, dataset) == (0, 0)
    _rewrite_header(path, lambda payload: payload.update({key: value}))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)
    assert _cli_exit_codes(path, tmp_path, dataset) == (2, 2)


@pytest.mark.parametrize("dice", ["high", float("nan")], ids=["string", "nan"])
def test_ensemble_member_without_finite_dice_names_its_path(tmp_path, dataset,
                                                            capsys, dice):
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path, meta={"best_val_dice": dice})
    assert cli.main(["eval", "--ensemble", str(path), "--dataset",
                     str(dataset)]) == 2
    assert (f"checkpoint {path} stores no finite best_val_dice, got {dice!r}"
            in capsys.readouterr().err)


def test_ensemble_refuses_a_training_state_naming_its_path(tmp_path, dataset,
                                                           capsys):
    # last.ckpt repeats best.ckpt's best_val_dice for live weights that no
    # validation scored; its ema/ tables tell it apart
    model = _micro()
    best, last = tmp_path / "best.ckpt", tmp_path / "last.ckpt"
    checkpoint.save_checkpoint(model, best, meta={"best_val_dice": 0.6})
    checkpoint.save_checkpoint(model, last, ema_shadow=model.state_dict(),
                               meta={"epoch": 5, "best_val_dice": 0.6})
    assert cli.main(["eval", "--ensemble", str(best), str(last), "--dataset",
                     str(dataset)]) == 2
    assert f"checkpoint {last} is a training state" in capsys.readouterr().err
    assert cli.main(["eval", "--ensemble", str(best), "--dataset",
                     str(dataset)]) == 0


def test_a_header_with_the_retired_in_channels_key_still_loads(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path)
    _rewrite_header(path, lambda payload: payload["config"].update(in_channels=3))
    model, _ = load_checkpoint(path, ModelConfig.micro(64))
    assert model.config == ModelConfig.micro(64)
    for name, arr in _micro().state_dict().items():
        assert np.array_equal(model.state_dict()[name], arr), name


def _full_state(model):
    """An EMA table and AdamW moments with the model's own names and shapes."""
    state = model.state_dict()
    params = {name: p.data for name, p in model.named_parameters()}
    return (dict(state),
            {"step": 3, "exp_avg": dict(params), "exp_avg_sq": dict(params)})


def _bad_ema_shape(ema, opt):
    ema["stem.conv.weight"] = np.zeros(5, np.float32)


def _missing_ema(ema, opt):
    del ema[next(reversed(ema))]


def _extra_ema(ema, opt):
    ema["bogus"] = np.zeros(1, np.float32)


def _opt_only_x(ema, opt):
    opt["exp_avg"] = {"x": np.zeros(1, np.float32)}


@pytest.mark.parametrize("edit, match", [
    (_bad_ema_shape, r"tensor 'ema/stem\.conv\.weight' has shape \(5,\)"),
    (_missing_ema, r"missing tensor 'ema/.*\.running_var'"),
    (_extra_ema, "unexpected tensor 'ema/bogus'"),
    (_opt_only_x, r"missing tensor 'opt/exp_avg/stem\.conv\.weight'"),
], ids=["ema_shape", "ema_missing", "ema_extra", "opt_only_x"])
def test_ema_and_optimizer_tables_must_fit_the_model(tmp_path, edit, match):
    model = _micro()
    ema, opt = _full_state(model)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(model, path, ema_shadow=ema, optimizer_state=opt)
    _, extras = load_checkpoint(path)
    assert list(extras["ema_shadow"]) == list(ema)
    assert extras["optimizer_state"]["step"] == 3

    edit(ema, opt)
    checkpoint.save_checkpoint(model, path, ema_shadow=ema, optimizer_state=opt)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_expected_config_names_the_differing_keys(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(_micro(), path)
    assert load_checkpoint(path, ModelConfig.micro(64))[0].config == ModelConfig.micro(64)
    with pytest.raises(CheckpointError, match=r"\(differs in: input_size\)$"):
        load_checkpoint(path, ModelConfig.micro(32))


def test_a_built_models_config_cannot_drift_from_its_weights(tmp_path):
    # a config changed after the build would write a header that contradicts
    # the weights, so the file would no longer load
    config = ModelConfig.micro(64)
    net = MedLiteNet(config)
    path = tmp_path / "m.ckpt"
    with pytest.raises(FrozenInstanceError):
        config.trans_dim = 64
        checkpoint.save_checkpoint(net, path)
    assert not path.exists()
    checkpoint.save_checkpoint(net, path)
    assert load_checkpoint(path)[0].config == ModelConfig.micro(64)
