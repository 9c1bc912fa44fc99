"""The forked TTA workers: bitwise equal to the in-process views, refreshed
when the predictor changes, errors raised in the parent with their type,
a dead worker reported as one typed error, and no worker left running."""

import faulthandler
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medlitenet import workers
from medlitenet.autodiff import ShapeError, Tensor
from medlitenet.model import MedLiteNet, ModelConfig
from medlitenet.training import Ensemble, tta_predict

from test_training import _Pointwise

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or workers._openblas() is None,
    reason="the worker pool needs os.fork and numpy's OpenBLAS")


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    # the pool runs even on a one-CPU host; each test starts without one,
    # and a test that hangs on a worker ends the run with a traceback
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    workers.close()
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        yield
        workers.close()
    finally:
        faulthandler.cancel_dump_traceback_later()


def in_process(net, batch):
    """The reference: tta_predict with one worker, so no pool."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "worker_count", lambda: 1)
        return tta_predict(net, batch)


def pids():
    return [pid for pid, _, _ in workers._pool.workers]


def _micro(seed=0):
    return MedLiteNet(ModelConfig.micro(64), seed=seed)


def _batch(shape=(1, 3, 64, 64), seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


@pytest.mark.parametrize("case", ["micro", "pointwise", "ensemble"])
def test_workers_match_the_in_process_views_bitwise(case):
    net, x = {"micro": (_micro(), _batch()),
              "pointwise": (_Pointwise(), _batch((1, 3, 32, 64))),
              "ensemble": (Ensemble([_micro(0), _micro(1)], [0.6, 0.4]), _batch())}[case]
    reference = in_process(net, x)
    assert workers._pool is None
    out = tta_predict(net, x)
    assert len(pids()) == 2
    assert out.tobytes() == reference.tobytes()


def test_a_parameter_changed_in_place_reaches_the_workers():
    net, x = _micro(), _batch()
    before = tta_predict(net, x)
    first = pids()
    weight = next(iter(net.state_dict().values()))
    weight += np.float32(0.25)
    after = tta_predict(net, x)
    assert after.tobytes() != before.tobytes()
    assert after.tobytes() == in_process(net, x).tobytes()
    assert set(pids()).isdisjoint(first)


def test_a_reloaded_copy_of_the_same_weights_reuses_the_workers():
    x = _batch()
    tta_predict(_micro(seed=3), x)
    first = pids()
    tta_predict(_micro(seed=3), x)
    assert pids() == first


def test_a_worker_error_is_raised_with_its_type_and_message():
    net, x = _micro(), _batch((1, 4, 64, 64))
    with pytest.raises(ShapeError) as reference:
        in_process(net, x)
    with pytest.raises(ShapeError) as raised:
        tta_predict(net, x)
    assert str(raised.value) == str(reference.value)
    # the pool is still in step: the next call works on the same workers
    first = pids()
    assert tta_predict(net, _batch()).tobytes() == in_process(net, _batch()).tobytes()
    assert pids() == first


def _wait_dead(pid):
    """Block until ``pid`` has exited, leaving it for the pool to reap."""
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def test_a_worker_killed_between_calls_fails_the_send():
    net, x = _micro(), _batch()
    tta_predict(net, x)
    victim = pids()[1]
    os.kill(victim, signal.SIGKILL)
    _wait_dead(victim)
    with pytest.raises(workers.WorkerError,
                       match=f"worker {victim} died with exit status -9") as err:
        tta_predict(net, x)
    assert isinstance(err.value.__context__, BrokenPipeError)
    assert workers._pool is None
    # the next call forks a fresh pool
    assert tta_predict(net, x).tobytes() == in_process(net, x).tobytes()
    assert victim not in pids()


def _die(net, batch, names):
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_worker_that_dies_at_work_fails_the_receive():
    net, x = _micro(), _batch()
    tta_predict(net, x)
    first = pids()[0]
    with pytest.raises(workers.WorkerError,
                       match=f"worker {first} died with exit status -9") as err:
        workers.map_split(net, _die, x, ("identity", "hflip"))
    assert isinstance(err.value.__context__, EOFError)
    assert workers._pool is None
    assert tta_predict(net, x).tobytes() == in_process(net, x).tobytes()


SCRIPT = """
import numpy as np
from medlitenet import MedLiteNet, ModelConfig, tta_predict, workers
workers.worker_count = lambda: 2
net = MedLiteNet(ModelConfig.micro(64), seed=0)
x = np.zeros((1, 3, 64, 64), np.float32)
tta_predict(net, x)
pids = [pid for pid, _, _ in workers._pool.workers]
if {refork}:
    next(iter(net.state_dict().values()))[...] += 1
    tta_predict(net, x)
    pids += [pid for pid, _, _ in workers._pool.workers]
    workers.close()
print(*pids)
"""


@pytest.mark.parametrize("refork", [False, True], ids=["at_exit", "after_refork"])
def test_no_worker_outlives_its_parent(refork):
    out = subprocess.run([sys.executable, "-c", SCRIPT.format(refork=refork)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(set(pids)) == (4 if refork else 2)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
