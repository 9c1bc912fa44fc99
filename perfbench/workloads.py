"""The three benchmark workloads, run through the package's public API.

Every input comes from the workload seed: the data split, the model weights,
the training seed and the request images.  Each workload is one closed loop
in this process: the next ``fit`` call or request starts when the previous one
has returned.  The timed work runs in rounds (train: one ``fit``, then a few
plain and TTA requests; infer: a few plain, then a TTA request), so that
every metric samples the whole run and not one stretch of it.

Operations counted against ``error_rate``: optimizer steps and checkpoint
loads in ``fit`` calls, requests, and the float64 cross-check on infer.  A
failed correctness check counts as a failed operation; it never stops the
run.
"""

from __future__ import annotations

import copy
import gc
import math
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from medlitenet import blocks, checkpoint, data, gradcheck, model, netpbm, training
from medlitenet.autodiff import Tensor

from tracing import Tracer

THRESHOLD = 0.5
F64_TOL = 1e-4
MAX_NOTES = 20


@dataclass(frozen=True)
class Plan:
    """How much work one run of a workload does."""

    kind: str                      # "train" or "infer"
    config: Callable[[], model.ModelConfig]
    size: int                      # image side in pixels
    n_train: int = 16              # one fit: 2 optimizer steps of 4 x 2 images
    n_val: int = 4                 # also the request images of train workloads
    n_images: int = 8              # infer: distinct request images, sent in turn
    n_calib: int = 4               # infer: images that set the BatchNorm stats
    setup_repeats: int = 7
    round_plain: int = 8           # requests per round
    round_tta: int = 2
    min_fits: int = 3
    min_plain: int = 40            # p75 needs 10 samples beyond it
    min_tta: int = 8
    trace_rounds: int = 3          # traced runs: fixed work, not timed


WORKLOADS = {
    # activation-heavy: the largest tape; SiLU, train-mode BatchNorm and
    # depthwise convs dominate forward and backward
    "train-small128": Plan(
        kind="train", config=lambda: model.ModelConfig.small(128), size=128),
    # exactly `medlitenet train` without a config: the default model on 64 px
    # data; parameter-bound layers (AdamW, EMA, clipping, checkpoint writes)
    # and per-op dispatch on small arrays take their biggest share here
    "train-default64": Plan(kind="train", config=model.ModelConfig, size=64),
    # the deployment shape: `medlitenet infer [--tta]` on 256 px images;
    # no tape, no backward, no optimizer
    "infer-default256": Plan(kind="infer", config=model.ModelConfig, size=256,
                             round_plain=7, round_tta=1, min_tta=6),
}


def quick(plan: Plan) -> Plan:
    """The self-test scale: micro model, one optimizer step, two requests."""
    return replace(plan, config=lambda: model.ModelConfig.micro(64), size=64,
                   n_train=8, n_val=2, n_images=2, n_calib=1, setup_repeats=1,
                   round_plain=2, round_tta=2, min_fits=1, min_plain=2,
                   min_tta=2, trace_rounds=1)


def train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(batch_size=4, accumulation=2, epochs=1,
                                augment=True, seed=seed)


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), linear between closest ranks."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def batchnorms(module):
    for child in module._children.values():
        if isinstance(child, blocks.BatchNorm2d):
            yield child
        yield from batchnorms(child)


class Tally:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok: bool, what: str, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < MAX_NOTES:
                self.notes.append(what)

    def error(self, what: str, count: int = 1):
        lines = traceback.format_exc().strip().splitlines()
        self.record(False, f"{what}: {lines[-1] if lines else 'error'}", count)


class Run:
    """One workload run: set-up, warm-up and the timed or traced work."""

    def __init__(self, plan: Plan, seed: int, workdir: Path):
        self.plan = plan
        self.seed = seed
        self.config = plan.config()
        self.workdir = workdir
        self.tally = Tally()
        self.samples = {}                 # sample counts behind the metrics
        self.warm_losses = None
        self.tracer = None
        self._next_image = 0
        if plan.kind == "infer":
            self.ckpt_path = workdir / "model.ckpt"
            self._save_deployed_model()

    def _save_deployed_model(self):
        """Not set-up: the checkpoint a user would deploy.

        A fresh model's BatchNorm stats (mean 0, var 1) drive the logits far
        into saturation, where float32 and float64 outputs can differ by
        0.4.  The stats are set, as training would, to the mean batch
        statistics of a few generated 256 px images.
        """
        net = model.build_model(self.config, self.seed)
        _, calib_specs, _ = data.make_split(self.plan.n_images, self.plan.n_calib,
                                            1, self.seed)
        layers = list(batchnorms(net))
        momenta = [bn.momentum for bn in layers]
        net.train()
        for k, sample in enumerate(data.generate_samples(calib_specs, self.plan.size)):
            for bn in layers:
                bn.momentum = 1.0 / (k + 1)   # running mean over the images
            net(Tensor(data.normalize_imagenet(sample.image)[None]))
        for bn, momentum in zip(layers, momenta):
            bn.momentum = momentum
        checkpoint.save_checkpoint(net, self.ckpt_path)

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> float:
        """Build or load the model and generate the data; returns seconds."""
        p = self.plan
        t0 = time.perf_counter()
        if p.kind == "train":
            train_specs, val_specs, _ = data.make_split(p.n_train, p.n_val, 1, self.seed)
            self.train_samples = data.generate_samples(train_specs, p.size)
            self.val_samples = data.generate_samples(val_specs, p.size)
            self.net = model.build_model(self.config, self.seed)
        else:
            self.net, _ = checkpoint.load_checkpoint(self.ckpt_path, self.config)
            specs, _, _ = data.make_split(p.n_images, p.n_calib, 1, self.seed)
            self.request_samples = data.generate_samples(specs, p.size)
        elapsed = time.perf_counter() - t0
        if p.kind == "infer":
            self.net.eval()
            self.image_paths = self._write_images(self.request_samples)
        return elapsed

    def _write_images(self, samples):
        paths = []
        for i, sample in enumerate(samples):
            path = self.workdir / f"request{i}.ppm"
            netpbm.save_image_ppm(path, sample.image)
            paths.append(path)
        return paths

    def warm_up(self):
        """Untimed: one optimizer step (train) and one request of each kind."""
        if self.plan.kind == "train":
            net = model.build_model(self.config, self.seed)
            try:
                result = training.fit(net, self.train_samples, self.val_samples,
                                      train_config(self.seed),
                                      out_dir=self.workdir / "warmup", max_steps=1)
                self.warm_losses = list(result.step_losses)
            except Exception:
                self.tally.error("warm-up fit")
            self.net = self._load_back(self.workdir / "warmup", net)
            self.image_paths = self._write_images(self.val_samples)
        self.requests(tta=False, count=1)
        self.requests(tta=True, count=1)

    def _window(self, name: str):
        """A coverage window of the tracer, when the round is traced."""
        return self.tracer.window(name) if self.tracer is not None else nullcontext()

    # -- training -------------------------------------------------------------
    def fit(self) -> tuple:
        """One timed ``fit`` on a fresh model; returns (images, seconds)."""
        cfg = train_config(self.seed)
        steps = math.ceil(math.ceil(len(self.train_samples) / cfg.batch_size)
                          / cfg.accumulation) * cfg.epochs
        # every fit starts from the heap a fresh `medlitenet train` process
        # has: the tape's Tensor <-> node cycles are only freed by the cyclic
        # collector, so without this the peak would grow with the fit count
        gc.collect()
        net = model.build_model(self.config, self.seed)
        out = self.workdir / "fit"
        result = None
        t0 = time.perf_counter()
        try:
            with self._window("fit"):
                result = training.fit(net, self.train_samples, self.val_samples,
                                      cfg, out_dir=out)
        except Exception:
            self.tally.error("fit", steps)
        elapsed = time.perf_counter() - t0
        if result is not None:
            self._check_fit(result, steps)
        self.net = self._load_back(out, net)
        return len(self.train_samples) * cfg.epochs, elapsed

    def _check_fit(self, result, steps: int):
        losses = result.step_losses
        per_step = math.ceil(len(losses) / steps)
        for s in range(steps):
            chunk = losses[s * per_step:(s + 1) * per_step]
            ok = bool(chunk) and all(math.isfinite(v) for v in chunk)
            if s == 0 and self.warm_losses is not None:
                # the warm-up ran the same first step from the same seed
                ok = ok and chunk == self.warm_losses
            self.tally.record(ok, f"optimizer step {s}: losses {chunk}")

    def _load_back(self, out: Path, fallback):
        """Load last.ckpt and best.ckpt; serve the best one."""
        served = fallback
        for name in ("last.ckpt", "best.ckpt"):
            try:
                served, _ = checkpoint.load_checkpoint(out / name, self.config)
                self.tally.record(True, name)
            except Exception:
                self.tally.error(f"load {name}")
        served.eval()
        return served

    # -- requests -------------------------------------------------------------
    def request(self, path: Path, tta: bool):
        """One `medlitenet infer` request: image file in, mask file out."""
        image = netpbm.load_image_ppm(path)
        batch = data.normalize_imagenet(image)[None].astype(np.float32)
        if tta:
            prob = training.tta_predict(self.net, batch)
        else:
            prob = self.net(Tensor(batch)).data
        mask = model.predict_mask(prob[0, 0], THRESHOLD)
        netpbm.save_mask_pgm(self.workdir / f"{path.stem}_pred.pgm", mask)
        return prob

    def requests(self, tta: bool, count: int) -> list:
        """``count`` requests in a closed loop; returns each latency in ms."""
        latencies = []
        for _ in range(count):
            path = self.image_paths[self._next_image % len(self.image_paths)]
            self._next_image += 1
            prob = None
            t0 = time.perf_counter()
            try:
                with self._window("request"):
                    prob = self.request(path, tta)
            except Exception:
                self.tally.error(f"request {path.name}")
            latencies.append((time.perf_counter() - t0) * 1000.0)
            if prob is not None:
                self._check_prob(prob, path.name)
        return latencies

    def _check_prob(self, prob, what: str):
        prob = np.asarray(prob)
        shape = (1, 1, self.plan.size, self.plan.size)
        ok = (prob.shape == shape and bool(np.isfinite(prob).all())
              and float(prob.min()) >= 0.0 and float(prob.max()) <= 1.0)
        self.tally.record(ok, f"request {what}: output not a finite "
                              f"{shape} map in [0, 1]")

    def check_float64(self):
        """One request's float32 output against a float64 copy of the model."""
        path = self.image_paths[0]
        try:
            prob32 = self.request(path, tta=False)
            net64 = gradcheck.cast_module(copy.deepcopy(self.net), np.float64)
            batch = data.normalize_imagenet(netpbm.load_image_ppm(path))[None]
            prob64 = net64(Tensor(batch.astype(np.float64))).data
            diff = float(np.max(np.abs(prob64 - prob32)))
            self.samples["float64_max_abs_diff"] = diff
            self.tally.record(diff <= F64_TOL,
                              f"float64 cross-check: max abs diff {diff:.3g}")
        except Exception:
            self.tally.error("float64 cross-check")

    # -- the two kinds of run ---------------------------------------------------
    def round(self, work: "Work"):
        """One round of timed work: a fit (train), then plain and TTA requests."""
        if self.plan.kind == "train":
            images, seconds = self.fit()
            work.images += images
            work.fit_s += seconds
            work.fits += 1
        work.plain += self.requests(False, self.plan.round_plain)
        work.tta += self.requests(True, self.plan.round_tta)

    def measure(self, seconds: float) -> dict:
        """Untraced run: the end-to-end metrics."""
        p = self.plan
        setups = [self.setup() for _ in range(p.setup_repeats)]
        self.warm_up()
        work = Work()
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(work.plain) < p.min_plain
               or len(work.tta) < p.min_tta
               or (p.kind == "train" and work.fits < p.min_fits)):
            self.round(work)
        m = {"setup_s": statistics.median(setups), **work.metrics(),
             "infer_ms_p75": percentile(work.plain, 75),
             # read before the float64 copy below, which is not serving
             "peak_rss_mib": peak_rss_mib()}
        self.samples.update(setups=len(setups), **work.counts())
        if p.kind == "infer":
            self.check_float64()
        return m

    def trace(self) -> dict:
        """Traced run: untraced and traced rounds in turn, then the layers.

        Each round does the same fixed work (set-up included), so per-layer
        totals compare across runs, and the untraced rounds give the
        tracing overhead.
        """
        self.setup()
        self.warm_up()
        untraced, traced, tracer = Work(), Work(), Tracer()
        for _ in range(self.plan.trace_rounds):
            self.setup()
            self.round(untraced)
            with tracer:
                self.tracer = tracer
                try:
                    self.setup()
                    self.round(traced)
                finally:
                    self.tracer = None
        m = tracer.layer_metrics()
        base, with_trace = untraced.metrics(), traced.metrics()
        for key in base:
            m[f"trace.{key}.untraced"] = base[key]
            m[f"trace.{key}.traced"] = with_trace[key]
            slower = (base[key] / with_trace[key] if key == "img_per_s"
                      else with_trace[key] / base[key])
            m[f"trace.{key}.overhead_pct"] = 100.0 * (slower - 1.0)
        m["trace.fit_coverage_pct"] = tracer.coverage_pct("fit")
        m["trace.request_coverage_pct"] = tracer.coverage_pct("request")
        self.samples.update(traced.counts())
        return m


class Work:
    """What a stretch of rounds did: fit images and seconds, latencies."""

    def __init__(self):
        self.images = self.fit_s = 0.0
        self.fits = 0
        self.plain = []
        self.tta = []

    def metrics(self) -> dict:
        if self.fits:
            img_per_s = self.images / self.fit_s
        else:
            img_per_s = 1000.0 * len(self.plain) / sum(self.plain)
        return {"img_per_s": img_per_s,
                "infer_ms_p50": percentile(self.plain, 50),
                "tta_ms_p50": percentile(self.tta, 50)}

    def counts(self) -> dict:
        return {"fits": self.fits, "plain_requests": len(self.plain),
                "tta_requests": len(self.tta)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Run one workload; returns metrics, the tally and the sample counts."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(WORKLOADS[name], seed, workdir)
        metrics = run.trace() if trace else run.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"metrics": metrics, "attempted": run.tally.attempted,
            "failed": run.tally.failed, "failures": run.tally.notes,
            "samples": run.samples}
