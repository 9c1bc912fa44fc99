"""Scikit-learn style estimator wrapper around the segmentation stack.

``MedLiteNetSegmenter`` follows the sklearn estimator contract without
importing sklearn: it is a dataclass, so constructor arguments are stored
verbatim, ``get_params`` / ``set_params`` read its fields, fitted state lives
in trailing-underscore attributes, and ``fit`` returns ``self`` -- so the
class works with ``sklearn.base.clone``, pipelines and model-selection
utilities.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import SegmentationSample
from .errors import parse
from .model import (DOWNSAMPLE_FACTOR, IN_CHANNELS, MedLiteNet, ModelConfig,
                    predict_mask)
from .metrics import dice_coef
from .training import TrainConfig, fit, predict_proba


class NotFittedError(ValueError, AttributeError):
    """Prediction requested before fit (sklearn-compatible exception shape)."""


def validate_image_batch(X) -> np.ndarray:
    """Check/coerce X into float32 [N, 3, H, W] with H, W divisible by
    ``DOWNSAMPLE_FACTOR``."""
    arr = np.asarray(X, dtype=np.float32)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[1] != IN_CHANNELS:
        raise ValueError(
            f"X must be [N, {IN_CHANNELS}, H, W] (or a single "
            f"[{IN_CHANNELS}, H, W] image), got shape {arr.shape}")
    if arr.shape[2] % DOWNSAMPLE_FACTOR or arr.shape[3] % DOWNSAMPLE_FACTOR:
        raise ValueError(f"image size {arr.shape[2]}x{arr.shape[3]} must be "
                         f"divisible by {DOWNSAMPLE_FACTOR}")
    if not np.isfinite(arr).all():
        raise ValueError("X must be finite; it contains NaN or inf")
    if arr.min() < -1e-6 or arr.max() > 1 + 1e-6:
        raise ValueError("X must contain raw intensities in [0, 1]; "
                         "normalization happens inside the estimator")
    return arr


def validate_mask_batch(y, X: np.ndarray) -> np.ndarray:
    """Check/coerce y into float32 [N, 1, H, W] binary masks matching X."""
    arr = np.asarray(y, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim == 3:
        arr = arr[:, None]
    if arr.shape != (X.shape[0], 1, X.shape[2], X.shape[3]):
        raise ValueError(
            f"y shape {np.asarray(y).shape} does not match X "
            f"{X.shape[0]} masks of {X.shape[2]}x{X.shape[3]}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("y must be strictly binary (0/1)")
    return arr


@dataclass(eq=False)
class MedLiteNetSegmenter:
    """Binary lesion segmenter with a fit/predict interface.

    Parameters mirror the architectural and training knobs; defaults are the
    desk-scale micro configuration, except ``decoder_widths`` (16, 16, 8, 8)
    where ``ModelConfig.micro`` has (16, 16, 16, 8), so ``fit`` on a handful
    of images finishes in seconds-to-minutes on a CPU.  ``eq=False`` keeps
    identity equality and hashing, as sklearn estimators have.
    """

    stage_widths: tuple = (8, 16, 24, 32)
    trans_dim: int = 32
    trans_layers: int = 1
    trans_heads: int = 4
    decoder_widths: tuple = (16, 16, 8, 8)
    aspp_branch_width: int = 16
    aspp_out_channels: int = 32
    expansion: int = 6
    width_mult: float = 1.0
    epochs: int = 20
    batch_size: int = 4
    lr0: float = 1e-3
    weight_decay: float = 0.01
    clip_norm: float = 0.5
    ema_decay: float = 0.999
    accumulation: int = 2
    val_fraction: float = 0.2
    threshold: float = 0.5
    use_augment: bool = False
    use_tta: bool = False
    seed: int = 0

    # -- sklearn plumbing ----------------------------------------------------
    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for MedLiteNetSegmenter")
            setattr(self, key, value)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError(
                "this MedLiteNetSegmenter instance is not fitted yet; call "
                "'fit' first")

    # -- estimator API --------------------------------------------------------
    def fit(self, X, y):
        """Train on images X in [0, 1] ([N, 3, H, W]) and binary masks y.

        Building the model and train configs checks the parameters, so a bad
        one raises ``ConfigError`` naming its dotted key before any training.
        """
        for key in ("threshold", "val_fraction"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:     # NaN fails too, as in predict_mask
                raise ValueError(f"{key} must lie in [0, 1], got {value}")
        X = validate_image_batch(X)
        y = validate_mask_batch(y, X)
        n = X.shape[0]
        samples = [SegmentationSample(image=X[i], mask=y[i], seed=i)
                   for i in range(n)]
        # at least one image each for validation and training, when n > 1
        n_val = min(n - 1, max(1, round(self.val_fraction * n))) if n > 1 else 0
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        val_idx = set(order[:n_val].tolist())
        train_samples = [samples[i] for i in range(n) if i not in val_idx]
        val_samples = [samples[i] for i in range(n) if i in val_idx]
        if not val_samples:
            val_samples = train_samples

        # the parameters named like a config field fill that field
        params = {**self.get_params(), "augment": self.use_augment,
                  "input_size": X.shape[2] if X.shape[2] == X.shape[3]
                  else DOWNSAMPLE_FACTOR * 8}
        config, train_config = (
            parse(cls, {k: v for k, v in params.items()
                        if k in {f.name for f in fields(cls)}}, section)
            for cls, section in ((ModelConfig, "model"), (TrainConfig, "train")))

        self.model_ = MedLiteNet(config, seed=self.seed)
        result = fit(self.model_, train_samples, val_samples, train_config)
        self.history_ = result.history
        self.best_val_dice_ = result.best_val_dice
        self.n_features_in_ = int(np.prod(X.shape[1:]))
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Probability maps [N, 1, H, W] in (0, 1)."""
        self._check_fitted()
        return predict_proba(self.model_, validate_image_batch(X), self.use_tta)

    def predict(self, X) -> np.ndarray:
        """Binary masks [N, H, W] thresholded at ``self.threshold``."""
        proba = self.predict_proba(X)
        return predict_mask(proba, self.threshold)[:, 0]

    def score(self, X, y) -> float:
        """Mean Dice coefficient over the batch."""
        X = validate_image_batch(X)
        y = validate_mask_batch(y, X)
        masks = self.predict(X)
        return float(np.mean([dice_coef(masks[i], y[i, 0])
                              for i in range(X.shape[0])]))
