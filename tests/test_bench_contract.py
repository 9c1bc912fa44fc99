"""Every callable the benchmark's tracer wraps still exists under its name,
every call the benchmark makes into the package still binds, and a traced
step still books time and tape to every module group.

``perfbench/tracing.py`` replaces package attributes by name, and
``perfbench/workloads.py`` passes arguments by position; a rename or a
dropped parameter in ``src/`` would otherwise break only benchmark runs.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from medlitenet import (  # noqa: E402
    blocks, checkpoint, data, gradcheck, losses, model, netpbm, training)
from medlitenet.autodiff import Graph, Tensor  # noqa: E402


# (callable, positional arguments, keyword arguments) as the benchmark
# passes them; the values only stand in for the real ones
BENCHMARK_CALLS = [
    (checkpoint.load_checkpoint, ("model.ckpt", "config"), {}),
    (checkpoint.save_checkpoint, ("net", "model.ckpt"), {}),
    (training.backward, ("loss", "graph"), {}),          # the tracer's wrapper
    (model.build_model, ("config", 0), {}),
    (model.ModelConfig.small, (128,), {}),
    (model.ModelConfig.micro, (64,), {}),
    (training.TrainConfig, (), {"batch_size": 4, "accumulation": 2,
                                "epochs": 1, "augment": True, "seed": 0}),
    (training.fit, ("net", "train", "val", "cfg"),
     {"out_dir": "fit", "max_steps": 1}),
    (training.tta_predict, ("net", "batch"), {}),
    (model.predict_mask, ("prob", 0.5), {}),
    (gradcheck.cast_module, ("net", np.float64), {}),
    (data.make_split, (16, 8, 1, 0), {}),
    (data.generate_samples, ("specs", 64), {}),
    (data.normalize_imagenet, ("image",), {}),
    (netpbm.load_image_ppm, ("request0.ppm",), {}),
    (netpbm.save_image_ppm, ("request0.ppm", "image"), {}),
    (netpbm.save_mask_pgm, ("request0_pred.pgm", "mask"), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", BENCHMARK_CALLS,
                         ids=[fn.__qualname__ for fn, _, _ in BENCHMARK_CALLS])
def test_benchmark_calls_still_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_sets_batchnorm_momentum():
    # the deployed-model calibration overwrites each layer's momentum
    assert blocks.BatchNorm2d(4).momentum == 0.1


def test_tracer_installs_and_restores_every_wrapped_name():
    originals = (checkpoint.load_checkpoint, vars(training.EmaState)["averaged"])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert checkpoint.load_checkpoint is not originals[0]
    finally:
        tracer.uninstall()
    assert (checkpoint.load_checkpoint,
            vars(training.EmaState)["averaged"]) == originals


def test_tracer_books_every_module_group():
    net = model.MedLiteNet(model.ModelConfig.micro(32), seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 32, 32))
               .astype(np.float32))
    mask = Tensor(np.zeros((1, 1, 32, 32), np.float32))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with Graph():
            training.backward(losses.total_loss(net(x), mask))
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics()
    assert len(model.PARAM_GROUPS) == 12
    for group in model.PARAM_GROUPS:
        assert values[f"model.{group}.fwd_ms"] > 0, group
        assert values[f"model.{group}.tape_mib"] > 0, group
