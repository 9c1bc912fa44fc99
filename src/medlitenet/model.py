"""Full encoder-bottleneck-decoder segmentation network.

Dataflow (input H x W, H and W divisible by 32):

    stem /2 -> four MBConv stages (/2 each) -> 8x8-scale bottleneck
    bottleneck -> tokens -> transformer layers -> global map F_trans
    boundary attention (encoder side, with global projection) on the conv map
    local-global fusion -> ASPP -> four decoder stages with skips
    boundary attention (decoder side) -> 1x1 head -> bilinear x2 -> sigmoid

The decoder's four upsampling stages recover H/2; the remaining factor of two
(introduced by the stem) is applied to the single-channel logit map before the
sigmoid, so the probability map always matches the input size.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import ShapeError, Tensor, sigmoid, upsample_bilinear
from .blocks import (
    ASPPModule,
    BoundaryAttention,
    Conv2d,
    ConvBnSiLU,
    DecoderStage,
    FusionBlock,
    MBConvBlock,
    Module,
    ModuleList,
    Tokenizer,
    TransformerLayer,
)
from .errors import require

DOWNSAMPLE_FACTOR = 32
# RGB: netpbm P6 images and the ImageNet normalization have three channels
IN_CHANNELS = 3


def _round_width(width: float) -> int:
    """Round a scaled width to the nearest multiple of 8 (minimum 8)."""
    return max(8, int(width / 8 + 0.5) * 8)


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural hyper-parameter of the network; checked when built."""

    input_size: int = 256
    stage_widths: tuple = (32, 64, 128, 256)
    blocks_per_stage: tuple = (2, 2, 2, 2)
    expansion: int = 6
    trans_layers: int = 2
    trans_dim: int = 256
    trans_heads: int = 4
    ffn_mult: int = 2
    aspp_rates: tuple = (1, 4, 8, 12)
    aspp_branch_width: int = 64
    aspp_out_channels: int = 256
    decoder_widths: tuple = (128, 64, 32, 16)
    scse_reduction: int = 8
    width_mult: float = 1.0

    def __post_init__(self):
        for key in ("stage_widths", "blocks_per_stage", "aspp_rates",
                    "decoder_widths"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        require(self.input_size > 0 and self.input_size % DOWNSAMPLE_FACTOR == 0,
                "model.input_size",
                f"must be a positive multiple of {DOWNSAMPLE_FACTOR}", self.input_size)
        require(len(self.stage_widths) == 4 and all(w > 0 for w in self.stage_widths),
                "model.stage_widths", "must be four positive widths",
                self.stage_widths)
        require(len(self.blocks_per_stage) == 4
                and all(b >= 1 for b in self.blocks_per_stage),
                "model.blocks_per_stage", "must be four block counts >= 1",
                self.blocks_per_stage)
        for key in ("expansion", "trans_layers", "trans_heads", "aspp_branch_width",
                    "aspp_out_channels", "scse_reduction"):
            value = getattr(self, key)
            require(value >= 1, f"model.{key}", "must be >= 1", value)
        require(self.trans_dim % self.trans_heads == 0, "model.trans_dim",
                f"must be divisible by model.trans_heads={self.trans_heads}",
                self.trans_dim)
        require(self.trans_dim % 4 == 0, "model.trans_dim",
                "must be a multiple of 4 for the 2-D positional encoding",
                self.trans_dim)
        require(len(self.aspp_rates) == 4 and all(r >= 1 for r in self.aspp_rates),
                "model.aspp_rates", "must be four dilation rates >= 1",
                self.aspp_rates)
        require(len(self.decoder_widths) == 4, "model.decoder_widths",
                "must be four decoder widths", self.decoder_widths)
        require(self.width_mult > 0 and np.isfinite(self.width_mult),
                "model.width_mult", "must be positive and finite", self.width_mult)
        scaled = self.scaled(self.decoder_widths)
        require(all(w % self.scse_reduction == 0 for w in scaled),
                "model.decoder_widths",
                f"must scale to widths divisible by model.scse_reduction="
                f"{self.scse_reduction}", scaled)

    def scaled(self, widths: tuple) -> tuple:
        """``widths`` times ``width_mult``, each rounded to a multiple of 8."""
        if self.width_mult == 1.0:
            return widths
        return tuple(_round_width(w * self.width_mult) for w in widths)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def micro(cls, input_size: int = 64) -> "ModelConfig":
        """Desk-scale config for gradient checks and overfit runs."""
        return cls(input_size=input_size,
                   stage_widths=(8, 16, 24, 32),
                   trans_layers=1, trans_dim=32, trans_heads=4,
                   aspp_branch_width=16, aspp_out_channels=32,
                   decoder_widths=(16, 16, 16, 8))

    @classmethod
    def small(cls, input_size: int = 64) -> "ModelConfig":
        """Intermediate config for the generalization smoke run."""
        return cls(input_size=input_size,
                   stage_widths=(16, 32, 64, 128),
                   trans_layers=1, trans_dim=64, trans_heads=4,
                   aspp_branch_width=32, aspp_out_channels=64,
                   decoder_widths=(64, 32, 16, 8))


PARAM_GROUPS = ("stem", "stage1", "stage2", "stage3", "stage4", "baa_enc",
                "transformer", "fusion", "aspp", "decoder", "baa_dec", "head")


class MedLiteNet(Module):
    """The assembled network; weights fully determined by (config, seed)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)

        widths = config.scaled(config.stage_widths)
        dec_widths = config.scaled(config.decoder_widths)
        dim = config.trans_dim

        self.stem = ConvBnSiLU(IN_CHANNELS, widths[0], 3, rng, stride=2)
        stages = []
        prev = widths[0]
        for width, depth in zip(widths, config.blocks_per_stage):
            blocks = []
            for b in range(depth):
                blocks.append(MBConvBlock(prev, width, rng,
                                          expansion=config.expansion,
                                          stride=2 if b == 0 else 1))
                prev = width
            stages.append(ModuleList(blocks))
        self.stages = ModuleList(stages)

        self.tokenizer = Tokenizer(widths[3], dim, rng)
        self.transformer = ModuleList([
            TransformerLayer(dim, config.trans_heads, rng,
                             ffn_mult=config.ffn_mult)
            for _ in range(config.trans_layers)
        ])
        self.baa_enc = BoundaryAttention(widths[3], rng, trans_dim=dim)
        self.fusion = FusionBlock(widths[3], dim, rng)
        self.aspp = ASPPModule(dim, rng, rates=config.aspp_rates,
                               branch_width=config.aspp_branch_width,
                               out_channels=config.aspp_out_channels)

        # skip channels, deepest first: stage3, stage2, stage1, stem
        skip_channels = (widths[2], widths[1], widths[0], widths[0])
        decoder = []
        prev = config.aspp_out_channels
        for width, skip_c in zip(dec_widths, skip_channels):
            decoder.append(DecoderStage(prev, skip_c, width, rng,
                                        scse_reduction=config.scse_reduction))
            prev = width
        self.decoder = ModuleList(decoder)
        self.baa_dec = BoundaryAttention(dec_widths[3], rng)
        self.head = Conv2d(dec_widths[3], 1, 1, rng, bias=True)
        # start from a background prior so early training does not thrash on
        # the dominant negative class
        self.head.bias.data[:] = -2.0

    # -- inference ----------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"forward: expected NCHW input, got rank {x.ndim}")
        n, c, h, w = x.shape
        if c != IN_CHANNELS:
            raise ShapeError(
                f"forward: input has {c} channels, model expects {IN_CHANNELS}")
        if h % DOWNSAMPLE_FACTOR != 0 or w % DOWNSAMPLE_FACTOR != 0:
            raise ShapeError(
                f"forward: spatial size {h}x{w} must be divisible by "
                f"{DOWNSAMPLE_FACTOR}")

        feat = self.stem(x)
        skips = [feat]
        for stage in self.stages:
            for block in stage:
                feat = block(feat)
            skips.append(feat)
        bottleneck = skips.pop()                 # stage-4 output
        skips = skips[:4]                        # stem, stage1, stage2, stage3

        bh, bw = bottleneck.shape[2], bottleneck.shape[3]
        tokens = self.tokenizer.tokenize(bottleneck)
        for layer in self.transformer:
            tokens = layer(tokens)
        f_trans = self.tokenizer.detokenize(tokens, bh, bw)

        refined = self.baa_enc(bottleneck, f_trans)
        fused = self.fusion(refined, f_trans)
        feat = self.aspp(fused)

        for i, stage in enumerate(self.decoder):
            feat = stage(feat, skips[3 - i])

        feat = self.baa_dec(feat)
        logits = upsample_bilinear(self.head(feat), 2)
        return sigmoid(logits)

    # its own __call__, not Module's: the benchmark's tracer wraps this one
    __call__ = forward

    # -- reporting ----------------------------------------------------------
    def count_parameters(self) -> dict:
        """Trainable parameter totals, bucketed per architectural group."""
        breakdown = {key: 0 for key in PARAM_GROUPS}
        for name, p in self.named_parameters():
            breakdown[self._group_of(name)] += p.size
        total = sum(breakdown.values())
        return {"total": total, "breakdown": breakdown}

    @staticmethod
    def _group_of(name: str) -> str:
        root = name.split(".", 1)[0]
        if root == "stages":
            return f"stage{int(name.split('.')[1]) + 1}"
        if root in ("tokenizer", "transformer"):
            return "transformer"
        return root


def build_model(config: ModelConfig, seed: int = 0) -> MedLiteNet:
    return MedLiteNet(config, seed)


def predict_mask(prob, threshold: float = 0.5) -> np.ndarray:
    """Binarize a probability map; ties (p == threshold) count as foreground."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    data = prob.data if isinstance(prob, Tensor) else np.asarray(prob)
    return (data >= threshold).astype(np.float32)
