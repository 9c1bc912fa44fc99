"""Hard-mask evaluation metrics (no gradients involved)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


@dataclass
class EvalRecord:
    dice: float
    iou: float
    accuracy: float
    sensitivity: float
    specificity: float
    tp: int
    fp: int
    tn: int
    fn: int


def _as_binary(mask, name: str) -> np.ndarray:
    arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must be strictly binary (0/1)")
    return arr.astype(bool)


def dice_coef(pred_mask, gt_mask) -> float:
    """Hard Dice overlap; both-empty masks score 1 by convention."""
    return confusion_metrics(pred_mask, gt_mask).dice


def iou(pred_mask, gt_mask) -> float:
    """Intersection over union; both-empty masks score 1 by convention."""
    return confusion_metrics(pred_mask, gt_mask).iou


def confusion_metrics(pred_mask, gt_mask) -> EvalRecord:
    """Pixel confusion counts plus the derived rates.

    Sensitivity defaults to 1 when the ground truth has no positives, and
    specificity to 1 when it has no negatives.
    """
    p = _as_binary(pred_mask, "pred_mask")
    g = _as_binary(gt_mask, "gt_mask")
    if p.shape != g.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {g.shape}")
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    n = tp + fp + tn + fn
    # Dice and IoU from the same counts; both-empty masks score 1
    return EvalRecord(
        dice=2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0,
        iou=tp / (tp + fp + fn) if tp + fp + fn else 1.0,
        accuracy=(tp + tn) / n,
        sensitivity=tp / (tp + fn) if tp + fn else 1.0,
        specificity=tn / (tn + fp) if tn + fp else 1.0,
        tp=tp, fp=fp, tn=tn, fn=fn,
    )
