"""Every callable the benchmark's tracer wraps still exists under its name.

``perfbench/tracing.py`` replaces package attributes by name; a rename in
``src/`` would otherwise break only traced benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from medlitenet import checkpoint, training  # noqa: E402


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
