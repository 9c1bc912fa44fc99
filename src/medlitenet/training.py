"""Optimization recipe: AdamW, cosine annealing, gradient clipping, EMA,
gradient accumulation, plus validation, test-time augmentation and ensembling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Graph, Tensor, backward
from .data import AugmentConfig, SegmentationSample, augment, normalize_imagenet
from .errors import require
from .losses import total_loss
from .metrics import dice_coef, iou as iou_metric
from .model import MedLiteNet, predict_mask
from . import checkpoint as ckpt, workers

CSV_HEADER = ("epoch", "split", "loss", "dice", "iou", "lr")


class NumericalError(RuntimeError):
    """Non-finite loss or gradient encountered during optimization."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4                 # desk-scale default; the paper used 16
    epochs: int = 300
    lr0: float = 1e-3
    lr_min: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 0.5
    ema_decay: float = 0.999
    accumulation: int = 2
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        for key in ("batch_size", "epochs", "accumulation"):
            value = getattr(self, key)
            require(value >= 1, f"train.{key}", "must be >= 1", value)
        for key in ("lr0", "lr_min", "eps", "clip_norm"):
            value = getattr(self, key)
            require(value > 0, f"train.{key}", "must be positive", value)
        require(self.weight_decay >= 0, "train.weight_decay",
                "must be non-negative", self.weight_decay)
        for key in ("lr0", "lr_min", "eps", "clip_norm", "weight_decay"):
            value = getattr(self, key)
            require(math.isfinite(value), f"train.{key}", "must be finite", value)
        for key in ("beta1", "beta2", "ema_decay"):
            value = getattr(self, key)
            require(0.0 <= value < 1.0, f"train.{key}", "must lie in [0, 1)", value)


# ---------------------------------------------------------------------------
# Optimizer, schedule, clipping, EMA
# ---------------------------------------------------------------------------

class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Normalization affine parameters (flagged ``decay_exempt``) are excluded
    from the decay term.  A non-finite (NaN or inf) gradient aborts the step
    before any weight changes, naming the tensor.
    """

    def __init__(self, named_params: Sequence[tuple], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.named_params = list(named_params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.exp_avg = {name: np.zeros_like(p.data)
                        for name, p in self.named_params}
        self.exp_avg_sq = {name: np.zeros_like(p.data)
                           for name, p in self.named_params}

    def step(self, lr: float):
        for name, p in self.named_params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(
                    f"non-finite gradient in parameter {name!r}; step "
                    f"{self.step_count + 1} aborted")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.exp_avg[name]
            v = self.exp_avg_sq[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            if self.weight_decay and not p.decay_exempt:
                p.data -= lr * self.weight_decay * p.data
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for _, p in self.named_params:
            p.zero_grad()

    def state_dict(self) -> dict:
        return {"exp_avg": dict(self.exp_avg),
                "exp_avg_sq": dict(self.exp_avg_sq),
                "step": self.step_count}

    def load_state_dict(self, state: dict):
        self.exp_avg = {k: np.array(v) for k, v in state["exp_avg"].items()}
        self.exp_avg_sq = {k: np.array(v)
                           for k, v in state["exp_avg_sq"].items()}
        self.step_count = int(state["step"])


def cosine_lr(epoch: int, total_epochs: int, lr0: float, lr_min: float) -> float:
    """Cosine annealing from lr0 (epoch 0) down to lr_min (epoch == total)."""
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * epoch
                                                           / total_epochs))


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the applied scale (1.0 when no clipping was needed).  A non-finite
    norm leaves the gradients as they are, for AdamW to name the bad one.
    """
    total = 0.0
    grads = []
    for p in params:
        if p.grad is not None:
            grads.append(p.grad)
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if not math.isfinite(norm) or norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for g in grads:
        g *= scale
    return scale


class EmaState:
    """Exponential moving average of every ``model.state_dict()`` tensor.

    The shadow accumulates from zero with ``shadow <- d*shadow + (1-d)*value``;
    ``averaged()`` divides out the (1 - d^t) startup bias so evaluation
    weights track the parameter trajectory from the very first update instead
    of being dragged toward zero (or toward the random init) by the long
    0.999 time constant.  BatchNorm running stats are part of the table:
    averaged weights need stats from the same trajectory window, not the
    final model's.
    """

    def __init__(self, model: MedLiteNet, decay: float = 0.999):
        self.model = model
        self.decay = decay
        self.num_updates = 0
        self.shadow = {name: np.zeros_like(value)
                       for name, value in model.state_dict().items()}

    def update(self):
        self.num_updates += 1
        d = self.decay
        for name, value in self.model.state_dict().items():
            s = self.shadow[name]
            s *= d
            s += (1.0 - d) * value

    def averaged(self) -> dict:
        """Bias-corrected evaluation tensors, keyed like ``state_dict()``."""
        if self.num_updates == 0:
            return {name: value.copy()
                    for name, value in self.model.state_dict().items()}
        corr = 1.0 - self.decay ** self.num_updates
        return {name: s / corr for name, s in self.shadow.items()}

    def averaged_states(self) -> dict:
        """The BatchNorm-stat entries of ``averaged()``."""
        params = {name for name, _ in self.model.named_parameters()}
        return {name: value for name, value in self.averaged().items()
                if name not in params}


class _SwappedWeights:
    """Temporarily load another ``state_dict()`` table (EMA validation)."""

    def __init__(self, model: MedLiteNet, table: dict):
        self.model = model
        self.table = table

    def __enter__(self):
        self.saved = self.model.state_dict()
        self.model.load_state_dict(self.table)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.model.load_state_dict(self.saved)
        return False


# ---------------------------------------------------------------------------
# Batching helpers
# ---------------------------------------------------------------------------

def batch_arrays(samples: Sequence[SegmentationSample]) -> tuple:
    images = np.stack([normalize_imagenet(s.image) for s in samples])
    masks = np.stack([s.mask for s in samples])
    return images.astype(np.float32), masks.astype(np.float32)


class _Tally:
    """Per-sample means of a split: the loss weighted by batch size, and
    each sample's hard-mask Dice and IoU."""

    def __init__(self):
        self.loss, self.dices, self.ious = 0.0, [], []

    def add(self, loss: float, probs, masks):
        self.loss += loss * len(masks)
        hard = predict_mask(probs)
        for j in range(len(masks)):
            self.dices.append(dice_coef(hard[j], masks[j]))
            self.ious.append(iou_metric(hard[j], masks[j]))

    def row(self) -> dict:
        return {"loss": self.loss / len(self.dices),
                "dice": float(np.mean(self.dices)),
                "iou": float(np.mean(self.ious))}


def evaluate(model: MedLiteNet, samples: Sequence[SegmentationSample],
             batch_size: int = 4) -> dict:
    """Eval-mode loss/Dice/IoU over a sample list (per-sample metric means)."""
    if not samples:
        raise ValueError("evaluate needs at least one sample")
    model.eval()
    tally = _Tally()
    for i in range(0, len(samples), batch_size):
        images, masks = batch_arrays(samples[i:i + batch_size])
        probs = model(Tensor(images))
        tally.add(total_loss(probs, Tensor(masks)).item(), probs, masks)
    return tally.row()


def _append_csv(path: Path, rows, mode: str = "a"):
    with open(path, mode, newline="") as fh:
        csv.writer(fh).writerows(rows)


@dataclass
class FitResult:
    history: list
    best_epoch: int
    best_val_dice: float
    best_checkpoint: Optional[str]
    last_checkpoint: Optional[str]
    step_losses: list = field(default_factory=list)


def fit(model: MedLiteNet, train_samples: Sequence[SegmentationSample],
        val_samples: Sequence[SegmentationSample], config: TrainConfig,
        out_dir=None, augment_config: Optional[AugmentConfig] = None,
        max_steps: Optional[int] = None,
        log_fn: Optional[Callable[[str], None]] = None) -> FitResult:
    """Run the full training recipe; deterministic given config and seeds.

    Gradients accumulate over ``config.accumulation`` micro-batches (an
    epoch's last group takes the rest) and are averaged before clipping and
    the AdamW step; a group's micro-batches run on the forked workers of
    ``workers``, one each, with the bits of one process.  ``max_steps`` (at
    least 1) ends training after that many steps.  Validation runs each
    epoch with the EMA weights in eval mode; the best-val-Dice checkpoint is
    kept.  Each epoch's train and val rows (in
    ``history`` and ``metrics.csv``) hold per-sample means of loss, Dice and
    IoU over the samples that ran, also in an epoch that ``max_steps`` cuts.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if not train_samples or not val_samples:
        raise ValueError(
            f"fit needs at least one training and one validation sample, got "
            f"{len(train_samples)} and {len(val_samples)}")
    named = list(model.named_parameters())
    opt = AdamW(named, betas=(config.beta1, config.beta2), eps=config.eps,
                weight_decay=config.weight_decay)
    ema = EmaState(model, decay=config.ema_decay)
    aug_cfg = augment_config or AugmentConfig()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _append_csv(out / "metrics.csv", [CSV_HEADER], mode="w")

    history = []
    step_losses = []
    best_epoch, best_val_dice = -1, -1.0
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.lr0, config.lr_min)
        rng = np.random.default_rng([config.seed, 7919, epoch])
        order = rng.permutation(len(train_samples))
        starts = range(0, len(order), config.batch_size)

        model.train()
        tally = _Tally()
        for first in range(0, len(starts), config.accumulation):
            micro = []
            for start in starts[first:first + config.accumulation]:
                idx = order[start:start + config.batch_size]
                batch = [train_samples[i] for i in idx]
                if config.augment:
                    batch = [augment(s, aug_cfg,
                                     seed=config.seed + 1_000_003 * epoch)
                             for s in batch]
                micro.append(batch_arrays(batch))
            job = f"training, at optimizer step {opt.step_count}"
            steps = _micro_steps(model, named, micro, job)
            for (_, masks), (loss_val, probs) in zip(micro, steps):
                if not math.isfinite(loss_val):
                    raise NumericalError(
                        f"non-finite loss {loss_val} at optimizer "
                        f"step {opt.step_count} (lr={lr:.3e})")
                step_losses.append(loss_val)
                tally.add(loss_val, probs, masks)
            _apply_step(named, opt, ema, config, lr, len(micro))
            if max_steps is not None and opt.step_count >= max_steps:
                break

        train_row = {"epoch": epoch, "split": "train", **tally.row(), "lr": lr}
        with _SwappedWeights(model, ema.averaged()):
            val_stats = evaluate(model, val_samples, config.batch_size)
            if val_stats["dice"] > best_val_dice:
                best_val_dice = val_stats["dice"]
                best_epoch = epoch
                if out is not None:
                    # the weights that actually scored best: the EMA
                    # evaluation weights and their stats
                    ckpt.save_checkpoint(
                        model, out / "best.ckpt",
                        meta={"epoch": epoch, "best_val_dice": best_val_dice})
        val_row = {"epoch": epoch, "split": "val", "lr": lr, **val_stats}
        history.extend([train_row, val_row])
        if out is not None:
            _append_csv(out / "metrics.csv", [
                [row["epoch"], row["split"], f"{row['loss']:.6f}",
                 f"{row['dice']:.6f}", f"{row['iou']:.6f}", f"{row['lr']:.8e}"]
                for row in (train_row, val_row)])
        if log_fn is not None:
            log_fn(f"epoch {epoch:3d}  lr {lr:.2e}  "
                   f"train loss {train_row['loss']:.4f} "
                   f"dice {train_row['dice']:.4f}  "
                   f"val loss {val_row['loss']:.4f} "
                   f"dice {val_row['dice']:.4f}")
        if max_steps is not None and opt.step_count >= max_steps:
            break

    if out is not None:
        # config.epochs >= 1, so ``epoch`` is the last epoch that ran
        ckpt.save_checkpoint(
            model, out / "last.ckpt", ema_shadow=ema.averaged(),
            optimizer_state=opt.state_dict(),
            meta={"epoch": epoch, "best_val_dice": best_val_dice})
    model.eval()
    return FitResult(history=history, best_epoch=best_epoch,
                     best_val_dice=best_val_dice,
                     best_checkpoint=str(out / "best.ckpt") if out else None,
                     last_checkpoint=str(out / "last.ckpt") if out else None,
                     step_losses=step_losses)


def _micro_step(net, images, masks) -> tuple:
    """Forward, loss and, if the loss is finite, backward of one micro-batch:
    ``(loss, probs)``; the gradients add into each parameter's ``grad``."""
    # no name outlives the call, so the tape is freed on return, before the
    # optimizer step
    with Graph():
        probs = net(Tensor(images))
        loss = total_loss(probs, Tensor(masks))
        loss_val = loss.item()
        if math.isfinite(loss_val):
            backward(loss)
    return loss_val, probs.data


def _worker_step(net, images, masks) -> tuple:
    """``_micro_step`` on a worker's copy of the model: also each BatchNorm's
    running-stat updates, for the parent to replay."""
    net.train()
    states = [state for _, state in net.named_states()]
    for state in states:
        state.log = []
    return (*_micro_step(net, images, masks), [state.log for state in states])


def _micro_steps(model, named, micro, job):
    """``(loss, probs)`` of each ``(images, masks)`` micro-batch of one
    accumulation group, in order, with their gradients summed into each
    parameter's ``grad`` in that order.

    A group of one, or one where no worker pool can run, runs here.
    Otherwise the model's state goes to the workers' shared memory and each
    micro-batch runs on a worker, which returns its BatchNorm updates, to be
    replayed here in order, and leaves 0 + G in its zeroed gradient slot.
    Every parameter takes one gradient per backward, so (0 + G1) + G2 + ...
    is the sum a serial backward builds.
    """
    pool = workers.acquire(model) if len(micro) > 1 else None
    if pool is None:
        for images, masks in micro:
            yield _micro_step(model, images, masks)
        return
    pool.load(model, train=True)
    for loss_val, probs, logs in pool.each(_worker_step, micro, job, named):
        for (_, state), log in zip(model.named_states(), logs):
            for update in log:
                state.update(*update)
        yield loss_val, probs


def _apply_step(named, opt, ema, config, lr, micro_count):
    if micro_count > 1:
        inv = 1.0 / micro_count
        for _, p in named:
            if p.grad is not None:
                p.grad *= inv
    clip_grad_norm([p for _, p in named], config.clip_norm)
    opt.step(lr=lr)
    ema.update()
    opt.zero_grad()


# ---------------------------------------------------------------------------
# Test-time augmentation and ensembling
# ---------------------------------------------------------------------------

_TTA_NAMES = ("identity", "hflip", "vflip", "rot90", "rot180", "rot270")
# rot90 and rot270 undo each other; every other view undoes itself
_TTA_INVERSE = {"rot90": "rot270", "rot270": "rot90"}


def _tta_apply(arr: np.ndarray, name: str) -> np.ndarray:
    if name == "identity":
        return arr
    if name == "hflip":
        return arr[..., ::-1]
    if name == "vflip":
        return arr[..., ::-1, :]
    k = {"rot90": 1, "rot180": 2, "rot270": 3}[name]
    return np.rot90(arr, k, axes=(-2, -1))


def _tta_views(net, batch: np.ndarray, names) -> list:
    """``net``'s map of each named view of ``batch``, transformed back."""
    net.eval()                   # a worker's copy may have trained since
    maps = []
    for name in names:
        view = np.ascontiguousarray(_tta_apply(batch, name))
        pred = net(Tensor(view)).data
        restored = _tta_apply(pred, _TTA_INVERSE.get(name, name))
        maps.append(np.ascontiguousarray(restored))
    return maps


def tta_predict(net, batch: np.ndarray) -> np.ndarray:
    """Six-fold TTA of an NCHW batch: mean of inverse-transformed predictions.

    ``net`` is a model or an ``Ensemble``; it is put in eval mode and called
    on each transformed view, the views shared among forked one-thread
    workers (``workers.map_split``).  Accumulation runs in float64, in view
    order, so the mean of six identical branches reproduces them bitwise
    after the float32 cast.
    """
    net.eval()
    batch = np.asarray(batch, dtype=np.float32)
    acc = None
    for pred in workers.map_split(net, _tta_views, batch, _TTA_NAMES):
        pred = pred.astype(np.float64)
        acc = pred if acc is None else acc + pred
    return (acc / len(_TTA_NAMES)).astype(np.float32)


def predict_proba(net, images: np.ndarray, tta: bool = False) -> np.ndarray:
    """Probability maps [N, 1, H, W] of raw [N, 3, H, W] images in [0, 1].

    The one prediction path of the CLI and the estimator: ImageNet
    normalization, then the eval-mode ``net`` (a model or an ``Ensemble``),
    through six-fold TTA when ``tta`` is set.
    """
    batch = normalize_imagenet(images)
    if tta:
        return tta_predict(net, batch)
    return net.eval()(Tensor(batch)).data


def ensemble_weights(val_dices: Sequence[float]) -> np.ndarray:
    """Performance weights w_i = dice_i / sum(dice)."""
    dices = np.asarray(val_dices, dtype=np.float64)
    if dices.size == 0:
        raise ValueError("ensemble needs at least one member")
    for i, dice in enumerate(dices):
        if not math.isfinite(dice):
            raise ValueError(f"validation Dice of member {i} is not finite: {dice}")
    if (dices < 0).any() or dices.sum() <= 0:
        raise ValueError("validation Dice scores must be non-negative and "
                         "not all zero")
    return dices / dices.sum()


class Ensemble:
    """Probability-map average weighted by each member's validation Dice.

    Called like an eval-mode model: a Tensor batch in, a Tensor map out.
    """

    def __init__(self, models: Sequence, val_dices: Sequence[float]):
        if len(models) != len(val_dices):
            raise ValueError("one validation Dice per model is required")
        self.weights = ensemble_weights(val_dices)
        self.models = list(models)

    def eval(self) -> "Ensemble":
        for model in self.models:
            model.eval()
        return self

    def __call__(self, x: Tensor) -> Tensor:
        acc = None
        for w, model in zip(self.weights, self.models):
            pred = model(x).data.astype(np.float64)
            if acc is not None and pred.shape != acc.shape:
                raise ValueError(
                    f"ensemble member output shape {pred.shape} does not "
                    f"match {acc.shape}")
            acc = w * pred if acc is None else acc + w * pred
        return Tensor(acc.astype(np.float32))
