"""Every callable the benchmark's tracer wraps still exists under its name,
and a traced step still books time and tape to every module group.

``perfbench/tracing.py`` replaces package attributes by name; a rename in
``src/`` would otherwise break only traced benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from medlitenet import checkpoint, losses, model, training  # noqa: E402
from medlitenet.autodiff import Graph, Tensor  # noqa: E402


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
