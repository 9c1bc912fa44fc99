"""The forked workers of TTA and of training: bitwise equal to the
in-process views, fed the predictor's new values without a new fork, errors
raised in the parent with the in-process type and text, a dead worker
reported as one typed error naming its job, one fork for a fit, a TTA and
another fit, micro-batch rounds and the sharded optimizer step bitwise equal
to one process, a model that owns its arrays after a fit however it ends,
and no worker left running."""

import faulthandler
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from medlitenet import training, workers
from medlitenet.autodiff import ShapeError, Tensor
from medlitenet.checkpoint import load_checkpoint
from medlitenet.data import synth_sample
from medlitenet.model import MedLiteNet, ModelConfig
from medlitenet.training import Ensemble, NumericalError, TrainConfig, fit, tta_predict

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
    # the new values went through shared memory, not a new fork
    assert pids() == first


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


def _fit(net=None, out=None, train=None, **config):
    """One epoch of a micro@32 fit: two steps of two micro-batches of 2."""
    train = train or [synth_sample(i, 32) for i in range(8)]
    config = TrainConfig(**{"batch_size": 2, "accumulation": 2, "epochs": 1,
                            "augment": False, **config})
    return fit(net or MedLiteNet(ModelConfig.micro(32), seed=0), train,
               [synth_sample(100, 32)], config, out_dir=out)


def _fit_error(error, count, **kwargs) -> str:
    """The message of the ``error`` that ``_fit`` raises at ``count`` workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "worker_count", lambda: count)
        with pytest.raises(error) as raised:
            _fit(**kwargs)
    return str(raised.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_non_finite_loss_on_a_worker_raises_the_in_process_error():
    # the first step at this rate throws the weights out of range, so the
    # second step's loss is not finite
    messages = [_fit_error(NumericalError, count, lr0=1e30) for count in (1, 2)]
    assert messages[0] == messages[1]
    assert re.fullmatch(r"non-finite loss \S+ at optimizer step 1 \(lr=1\.000e\+30\)",
                        messages[0])


def _poison(monkeypatch):
    """Make every backward leave a NaN in head.bias's gradient; a pool
    forked after this runs it too."""
    real = training._micro_step

    def poisoned(net, images, masks):
        out = real(net, images, masks)
        dict(net.named_parameters())["head.bias"].grad[0] = np.nan
        return out

    monkeypatch.setattr(training, "_micro_step", poisoned)


def _kill_second_call(monkeypatch):
    """Make each worker SIGKILL itself at its second micro-batch."""
    parent, real, served = os.getpid(), training._micro_step, []

    def second_call_dies(net, images, masks):
        # ``served`` is each worker's own copy
        if os.getpid() != parent and served:
            os.kill(os.getpid(), signal.SIGKILL)
        served.append(1)
        return real(net, images, masks)

    monkeypatch.setattr(training, "_micro_step", second_call_dies)


def test_a_non_finite_gradient_from_a_worker_is_named_by_its_parameter(monkeypatch):
    _poison(monkeypatch)
    messages = [_fit_error(NumericalError, count) for count in (1, 2)]
    assert messages == ["non-finite gradient in parameter 'head.bias'; step 1 aborted"] * 2


def test_a_shape_error_on_a_worker_keeps_its_type_and_message():
    # 32 px masks under 64 px images: the loss refuses the pair
    train = [replace(synth_sample(i, 64), mask=synth_sample(i, 32).mask)
             for i in range(4)]
    messages = [_fit_error(ShapeError, count, train=train) for count in (1, 2)]
    assert messages[0] == messages[1]
    assert workers._pool is not None            # still in step


def test_a_training_worker_killed_mid_fit_raises_and_the_next_fit_forks_afresh():
    with pytest.MonkeyPatch.context() as mp:
        _kill_second_call(mp)
        with pytest.raises(workers.WorkerError, match=r"worker \d+ died with exit "
                           r"status -9 during training, at optimizer step 1$"):
            _fit()
    assert workers._pool is None
    _fit()
    assert len(pids()) == 2


def test_fit_then_tta_on_its_checkpoint_then_fit_again_fork_once(tmp_path, monkeypatch):
    forks = []

    class Counted(workers._Pool):
        def __init__(self, *args):
            forks.append(args)
            super().__init__(*args)

    monkeypatch.setattr(workers, "_Pool", Counted)
    first = MedLiteNet(ModelConfig.micro(32), seed=0)
    _fit(first, tmp_path / "a")
    kept = {name: a.copy() for name, a in first.state_dict().items()}
    best, _ = load_checkpoint(tmp_path / "a" / "best.ckpt")
    x = _batch((1, 3, 32, 32))
    assert tta_predict(best, x).tobytes() == in_process(best, x).tobytes()
    _fit(MedLiteNet(ModelConfig.micro(32), seed=1), tmp_path / "b")
    assert len(forks) == 1
    # the first fit's model holds its own tensors, which the second left alone
    assert all(np.array_equal(a, kept[name]) for name, a in first.state_dict().items())


def test_parameter_runs_split_by_bytes_and_cover_every_tensor():
    assert workers._runs([100, 1, 1, 100], 2) == [slice(0, 2), slice(2, 4)]
    assert workers._runs([400, 1, 1], 2) == [slice(0, 1), slice(1, 3)]
    assert workers._runs([5], 3) == [slice(0, 0), slice(0, 1), slice(1, 1)]
    assert workers._runs([], 2) == [slice(0, 0), slice(0, 0)]


def test_rounds_and_a_tail_group_match_one_process(tmp_path, monkeypatch):
    # 8 samples in batches of 2, accumulated in threes: at two workers, a
    # group of three runs in rounds of two and one, then a tail group of
    # one; three workers, more than most test hosts have cores, split the
    # step three ways
    rounds, real_run = {}, workers._Pool.run

    def run(self, fn, chunks, job, mode="tta"):
        if mode == "train":
            rounds.setdefault(len(self.workers), []).append(len(chunks))
        return real_run(self, fn, chunks, job, mode)

    monkeypatch.setattr(workers._Pool, "run", run)
    found = []
    for count in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workers, "worker_count", lambda: count)
            result = _fit(out=tmp_path / str(count), accumulation=3, epochs=2)
        found.append((result.step_losses,
                      (tmp_path / str(count) / "last.ckpt").read_bytes()))
    assert rounds == {2: [2, 1, 1] * 2, 3: [3, 1] * 2}
    assert len(found[0][0]) == 8
    assert found[0] == found[1] == found[2]


def _pools(monkeypatch) -> list:
    """Every _Pool constructed from here on."""
    made = []

    class Recorded(workers._Pool):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(workers, "_Pool", Recorded)
    return made


@pytest.mark.parametrize("ending, error", [
    (None, None), (_poison, NumericalError), (_kill_second_call, workers.WorkerError)],
    ids=["returned", "non_finite_gradient", "dead_worker"])
def test_the_model_owns_its_arrays_after_a_fit(monkeypatch, ending, error):
    made = _pools(monkeypatch)
    if ending is not None:
        ending(monkeypatch)
    net = MedLiteNet(ModelConfig.micro(32), seed=0)
    if error is None:
        _fit(net)
    else:
        with pytest.raises(error):
            _fit(net)
    pool, = made
    shared = np.frombuffer(pool.memory, np.uint8)
    assert not any(np.shares_memory(a, shared) for a in net.state_dict().values())
    assert all(p.grad is None for _, p in net.named_parameters())


SCRIPT = """
import numpy as np
from medlitenet import MedLiteNet, ModelConfig, fit, synth_sample, tta_predict, workers
from medlitenet.training import TrainConfig
workers.worker_count = lambda: 2
def pids():
    return [pid for pid, _, _ in workers._pool.workers]
net = MedLiteNet(ModelConfig.micro(32), seed=0)
x = np.zeros((1, 3, 32, 32), np.float32)
fit(net, [synth_sample(i, 32) for i in range(4)], [synth_sample(9, 32)],
    TrainConfig(batch_size=2, accumulation=2, epochs=1))
tta_predict(net, x)
found = pids()
if {refork}:
    tta_predict(MedLiteNet(ModelConfig.micro(64), seed=0), np.zeros((1, 3, 64, 64), np.float32))
    found += pids()
    workers.close()
print(*found)
"""


@pytest.mark.parametrize("refork", [False, True], ids=["at_exit", "after_refork"])
def test_no_worker_outlives_its_parent(refork):
    # a fit and then a TTA, on one pool; then maybe a TTA of another layout
    out = subprocess.run([sys.executable, "-c", SCRIPT.format(refork=refork)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(set(pids)) == (4 if refork else 2)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
