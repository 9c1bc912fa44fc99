"""MedLiteNet: lightweight CNN-Transformer lesion segmentation, self-contained.

The package carries its own tensor/autodiff core (``autodiff``), the
architectural blocks and assembled network (``blocks``, ``model``), losses
and metrics, a deterministic synthetic data pipeline, the full training
recipe with TTA/ensembling, a CLI (``medlitenet``) and an sklearn-style
estimator facade.
"""

from .autodiff import (
    BatchNormState,
    Conv2dSpec,
    Graph,
    Parameter,
    ShapeError,
    Tensor,
    backward,
)
from .data import (
    AugmentConfig,
    SampleSpec,
    SegmentationSample,
    augment,
    corpus_digest,
    make_split,
    normalize_imagenet,
    synth_sample,
)
from .estimator import MedLiteNetSegmenter
from .gradcheck import finite_diff_gradcheck
from .losses import bce_loss, dice_loss, total_loss
from .errors import ConfigError
from .metrics import EvalRecord, confusion_metrics, dice_coef, iou
from .model import MedLiteNet, ModelConfig, build_model, predict_mask
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .training import (
    AdamW,
    EmaState,
    Ensemble,
    FitResult,
    NumericalError,
    TrainConfig,
    clip_grad_norm,
    cosine_lr,
    ensemble_weights,
    evaluate,
    fit,
    predict_proba,
    tta_predict,
)
from .workers import WorkerError

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AugmentConfig",
    "BatchNormState",
    "CheckpointError",
    "ConfigError",
    "Conv2dSpec",
    "EmaState",
    "Ensemble",
    "EvalRecord",
    "FitResult",
    "Graph",
    "MedLiteNet",
    "MedLiteNetSegmenter",
    "ModelConfig",
    "NumericalError",
    "Parameter",
    "SampleSpec",
    "SegmentationSample",
    "ShapeError",
    "Tensor",
    "TrainConfig",
    "WorkerError",
    "augment",
    "backward",
    "bce_loss",
    "build_model",
    "clip_grad_norm",
    "confusion_metrics",
    "corpus_digest",
    "cosine_lr",
    "dice_coef",
    "dice_loss",
    "ensemble_weights",
    "evaluate",
    "finite_diff_gradcheck",
    "fit",
    "iou",
    "load_checkpoint",
    "make_split",
    "normalize_imagenet",
    "predict_mask",
    "predict_proba",
    "save_checkpoint",
    "synth_sample",
    "total_loss",
    "tta_predict",
]
