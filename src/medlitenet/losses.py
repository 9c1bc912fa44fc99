"""Differentiable training losses: Dice, BCE and their weighted sum."""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor, clamp, log, mul, tmean, tsum

SMOOTH = 1e-6        # Dice smoothing: two empty maps score 1, not 0/0
PROB_CLAMP = 1e-7    # BCE keeps probabilities in [PROB_CLAMP, 1 - PROB_CLAMP]


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))   # Tensor keeps float32/float64 as given


def _check_pair(p: Tensor, g: Tensor):
    if p.shape != g.shape:
        raise ShapeError(
            f"loss: prediction shape {tuple(p.shape)} != target shape "
            f"{tuple(g.shape)}")


def _sample_axes(t: Tensor):
    # axis 0 is the batch for rank >= 2; a flat vector is one sample
    return tuple(range(1, t.ndim)) if t.ndim > 1 else None


def dice_coef_soft(p, g) -> Tensor:
    """Soft Dice on probabilities, computed per sample then batch-averaged."""
    p, g = _as_tensor(p), _as_tensor(g)
    _check_pair(p, g)
    axes = _sample_axes(p)
    inter = tsum(mul(p, g), axis=axes)
    denom = tsum(p, axis=axes) + tsum(g, axis=axes)
    return tmean((2.0 * inter + SMOOTH) / (denom + SMOOTH))


def dice_loss(p, g) -> Tensor:
    """1 - soft Dice; zero when prediction equals a binary target."""
    return 1.0 - dice_coef_soft(p, g)


def bce_loss(p, g) -> Tensor:
    """Mean binary cross-entropy with probability clamping for finite logs."""
    p, g = _as_tensor(p), _as_tensor(g)
    _check_pair(p, g)
    pc = clamp(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = mul(g, log(pc))
    neg = mul(1.0 - g, log(1.0 - pc))
    return -tmean(pos + neg)


def total_loss(p, g) -> Tensor:
    """0.5 * BCE + 0.5 * Dice, the combined segmentation objective."""
    return 0.5 * bce_loss(p, g) + 0.5 * dice_loss(p, g)
