"""Golden digests: a 2-epoch micro ``fit`` (its step losses, ``metrics.csv``
and both checkpoints), the plain, TTA and ensemble predictions of its best
checkpoint, and one small@128 step's parameter gradients, each at one worker
and at two, against the SHA-256 prefixes pinned in ``golden.json``.

A change that moves any of them by one bit fails here, naming the digests
and the numpy and BLAS builds they were pinned with.  A change that means
to move them re-pins the file with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import faulthandler
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from medlitenet import checkpoint, data, training, workers
from medlitenet.model import ModelConfig, build_model

GOLDEN = Path(__file__).with_name("golden.json")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def _builds() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')} "
                    f"({blas.get('openblas configuration', '').strip()})"}


def _samples(n_train: int, n_val: int, size: int, seed: int) -> tuple:
    train, val, _ = data.make_split(n_train, n_val, 1, seed)
    return data.generate_samples(train, size), data.generate_samples(val, size)


def micro_fit_digests(out: Path) -> dict:
    """The fit (8 train, 4 val, batch 2 x 2, 2 epochs, seed 3) and the
    predictions of its best checkpoint on the validation images."""
    train, val = _samples(8, 4, 64, seed=3)
    config = training.TrainConfig(batch_size=2, accumulation=2, epochs=2, seed=3)
    net = build_model(ModelConfig.micro(64), seed=3)
    result = training.fit(net, train, val, config, out_dir=out)
    best, _ = checkpoint.load_checkpoint(out / "best.ckpt")
    images = np.stack([s.image for s in val])
    ensemble = training.Ensemble([best, net], [0.6, 0.4])
    return {
        "fit.step_losses": _digest(np.asarray(result.step_losses, np.float64)),
        "fit.metrics_csv": _digest((out / "metrics.csv").read_bytes()),
        "fit.best_ckpt": _digest((out / "best.ckpt").read_bytes()),
        "fit.last_ckpt": _digest((out / "last.ckpt").read_bytes()),
        "predict.plain": _digest(training.predict_proba(best, images)),
        "predict.tta": _digest(training.predict_proba(best, images, tta=True)),
        "predict.ensemble_tta": _digest(
            training.predict_proba(ensemble, images, tta=True)),
    }


def small_step_digests() -> dict:
    """The averaged parameter gradients that reach clipping in the first
    step of a small@128 fit: two micro-batches of 4 images, seed 3."""
    train, val = _samples(8, 1, 128, seed=3)
    config = training.TrainConfig(batch_size=4, accumulation=2, epochs=1, seed=3)
    net = build_model(ModelConfig.small(128), seed=3)
    seen = []
    clip = training.clip_grad_norm

    def spy(params, max_norm):
        params = list(params)
        seen.append(_digest(*(b"none" if p.grad is None else p.grad for p in params)))
        return clip(params, max_norm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "clip_grad_norm", spy)
        training.fit(net, train, val, config, max_steps=1)
    assert len(seen) == 1
    return {"small128.step_grads": seen[0]}


@pytest.fixture(params=[1, 2], ids=["1_worker", "2_workers"])
def worker_count(request, monkeypatch):
    count = request.param
    if count > 1 and (not hasattr(os, "fork") or workers._openblas() is None):
        pytest.skip("the worker pool needs os.fork and numpy's OpenBLAS")
    monkeypatch.setattr(workers, "worker_count", lambda: count)
    workers.close()
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        yield count
        workers.close()
    finally:
        faulthandler.cancel_dump_traceback_later()


def _check(found: dict, worker_count: int):
    golden = json.loads(GOLDEN.read_text())
    mismatched = {name: f"expected {golden['digests'][name]}, found {digest}"
                  for name, digest in found.items()
                  if digest != golden["digests"][name]}
    assert not mismatched, (
        f"{mismatched} at {worker_count} worker(s); pinned with "
        f"{golden['builds']}, running {_builds()}")


def test_a_micro_fit_and_its_predictions_match(worker_count, tmp_path):
    _check(micro_fit_digests(tmp_path), worker_count)


def test_one_small128_step_s_gradients_match(worker_count):
    _check(small_step_digests(), worker_count)


if __name__ == "__main__":
    # re-pin: one worker, in this process
    workers.worker_count = lambda: 1
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**micro_fit_digests(Path(tmp)), **small_step_digests()}
    GOLDEN.write_text(json.dumps({"builds": _builds(), "digests": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
