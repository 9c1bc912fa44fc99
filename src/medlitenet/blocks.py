"""Reusable network building blocks on top of the autodiff core.

Weight-holding units follow a small Module convention: parameters and
submodules auto-register on attribute assignment, giving every tensor a
stable dotted name (used for checkpoints, the optimizer and EMA shadows).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .autodiff import (
    NORM_EPS,
    BatchNormState,
    Conv2dSpec,
    Parameter,
    ShapeError,
    Tensor,
    batchnorm2d,
    concat_channels,
    conv2d,
    div,
    handover,
    matmul,
    mul,
    pad_edge,
    release,
    relu,
    reshape,
    sigmoid,
    silu,
    softmax,
    sqrt,
    sub,
    tmean,
    transpose,
    upsample_bilinear,
)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def check_tensor_table(table: dict, expected: dict) -> None:
    """Raise ``ShapeError`` unless ``table`` holds exactly the names of
    ``expected``, each with the shape of ``expected``'s array."""
    for name, arr in expected.items():
        if name not in table:
            raise ShapeError(f"missing tensor {name!r}")
        if table[name].shape != arr.shape:
            raise ShapeError(f"tensor {name!r} has shape {table[name].shape}, "
                             f"model expects {arr.shape}")
    for name in table:
        if name not in expected:
            raise ShapeError(f"unexpected tensor {name!r}")


class Module:
    """Minimal parameter container with recursive named traversal; calling
    a module runs its ``forward``."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_states", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_state(self, name: str, state: BatchNormState):
        self._states[name] = state
        object.__setattr__(self, name, state)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def named_states(self, prefix: str = "") -> Iterator[tuple]:
        for name, s in self._states.items():
            yield prefix + name, s
        for cname, child in self._children.items():
            yield from child.named_states(prefix + cname + ".")

    def state_dict(self) -> dict:
        """Every named tensor: the parameters in ``named_parameters`` order,
        then ``<bn>.running_mean`` and ``<bn>.running_var`` per BatchNorm in
        ``named_states`` order.  The values are the live arrays, not copies.
        """
        table = {name: p.data for name, p in self.named_parameters()}
        for name, state in self.named_states():
            table[name + ".running_mean"] = state.mean
            table[name + ".running_var"] = state.var
        return table

    def load_state_dict(self, table: dict) -> "Module":
        """Rebind every tensor of ``state_dict()`` to ``table``'s array.

        A missing, unexpected or misshaped name raises ``ShapeError`` before
        anything is rebound.
        """
        check_tensor_table(table, self.state_dict())
        for name, p in self.named_parameters():
            p.data = table[name]
        for name, state in self.named_states():
            state.mean = table[name + ".running_mean"]
            state.var = table[name + ".running_var"]
        return self

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        setattr(self, str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, idx):
        return self._items[idx]


# ---------------------------------------------------------------------------
# Elementary layers
# ---------------------------------------------------------------------------

class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel, rng,
                 stride=1, dilation=1, groups=1, bias=False):
        super().__init__()
        self.spec = Conv2dSpec(in_channels, out_channels, kernel,
                               stride=stride, dilation=dilation, groups=groups)
        fan_in = (in_channels // groups) * kernel * kernel
        self.weight = Parameter(kaiming_uniform(rng, self.spec.weight_shape, fan_in))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.spec, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels):
        super().__init__()
        self.momentum = 0.1
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.gamma.decay_exempt = True
        self.beta.decay_exempt = True
        self.register_state("stats", BatchNormState.initial(channels))

    def forward(self, x: Tensor, silu: bool = False) -> Tensor:
        """BatchNorm of ``x``; ``silu=True`` fuses the SiLU that follows."""
        return batchnorm2d(x, self.gamma, self.beta, self.stats,
                           training=self.training, momentum=self.momentum,
                           silu=silu)


class Linear(Module):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.weight = Parameter(
            kaiming_uniform(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias


class LayerNorm(Module):
    def __init__(self, dim):
        super().__init__()
        self.gamma = Parameter(np.ones(dim, dtype=np.float32))
        self.beta = Parameter(np.zeros(dim, dtype=np.float32))
        self.gamma.decay_exempt = True
        self.beta.decay_exempt = True

    def forward(self, x: Tensor) -> Tensor:
        mu = tmean(x, axis=-1, keepdims=True)
        xc = sub(x, mu)
        var = tmean(mul(xc, xc), axis=-1, keepdims=True)
        xn = div(xc, sqrt(var + NORM_EPS))
        return xn * self.gamma + self.beta


class ConvBnSiLU(Module):
    """Conv (no bias) + BatchNorm + SiLU, the encoder's basic unit."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, kernel, rng, stride=stride)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(handover(self.conv(x)), silu=True)


class SeparableConvBlock(Module):
    """Depthwise 3x3 + pointwise 1x1, then BN + SiLU."""

    def __init__(self, in_channels, out_channels, rng):
        super().__init__()
        self.depthwise = Conv2d(in_channels, in_channels, 3, rng,
                                groups=in_channels)
        self.pointwise = Conv2d(in_channels, out_channels, 1, rng)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(handover(self.pointwise(self.depthwise(x))), silu=True)


# ---------------------------------------------------------------------------
# Inverted residual (MBConv)
# ---------------------------------------------------------------------------

class MBConvBlock(Module):
    """Expand 1x1 -> depthwise 3x3 -> project 1x1, skip when shape-preserving.

    The widest tensor sits in the middle (expansion factor t), so the spatial
    3x3 runs depthwise at t*C_in channels instead of densely.
    """

    def __init__(self, in_channels, out_channels, rng, expansion=6, stride=1):
        super().__init__()
        if stride not in (1, 2):
            raise ShapeError(f"MBConv stride must be 1 or 2, got {stride}")
        ce = expansion * in_channels
        self.expand = Conv2d(in_channels, ce, 1, rng)
        self.bn1 = BatchNorm2d(ce)
        self.depthwise = Conv2d(ce, ce, 3, rng, stride=stride, groups=ce)
        self.bn2 = BatchNorm2d(ce)
        self.project = Conv2d(ce, out_channels, 1, rng)
        self.bn3 = BatchNorm2d(out_channels)
        self.use_skip = stride == 1 and in_channels == out_channels

    def forward(self, x: Tensor) -> Tensor:
        # under a Graph the expand map and both SiLU maps (a) leave the tape
        # once read, and backward rebuilds them: the tape keeps x and the
        # depthwise and projection outputs.  Reusing the names h and a frees
        # each untaped map as soon as nothing reads it
        h = self.expand(x)
        a = self.bn1(handover(h), silu=True)
        release(h)
        h = self.depthwise(a)
        release(a)
        a = self.bn2(handover(h), silu=True)
        h = self.project(a)
        release(a)
        h = self.bn3(handover(h))  # no activation after projection
        if self.use_skip:
            h = h + x
        return h


# ---------------------------------------------------------------------------
# Token pipeline and transformer layer
# ---------------------------------------------------------------------------

def sinusoidal_encoding_2d(h: int, w: int, dim: int) -> np.ndarray:
    """Fixed 2-D positional table [h*w, dim]: rows in the first half of the
    embedding, columns in the second half, classic sin/cos frequency ladder."""
    if dim % 4 != 0:
        raise ShapeError(f"positional encoding needs dim % 4 == 0, got {dim}")
    half = dim // 2

    def axis_table(n):
        pos = np.arange(n, dtype=np.float64)[:, None]
        i = np.arange(half // 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * i / half)
        tab = np.zeros((n, half), dtype=np.float64)
        tab[:, 0::2] = np.sin(angle)
        tab[:, 1::2] = np.cos(angle)
        return tab

    rows = axis_table(h)
    cols = axis_table(w)
    pe = np.zeros((h * w, dim), dtype=np.float32)
    for y in range(h):
        pe[y * w:(y + 1) * w, :half] = rows[y]
        pe[y * w:(y + 1) * w, half:] = cols
    return pe


class Tokenizer(Module):
    """Flatten an NCHW map into tokens (row-major), project to the embedding
    width and add the fixed positional encoding; detokenize inverts layout."""

    def __init__(self, in_channels, dim, rng):
        super().__init__()
        self.dim = dim
        self.proj = Linear(in_channels, dim, rng)

    def tokenize(self, fmap: Tensor) -> Tensor:
        n, c, h, w = fmap.shape
        seq = reshape(transpose(fmap, (0, 2, 3, 1)), (n, h * w, c))
        return self.proj(seq) + Tensor(sinusoidal_encoding_2d(h, w, self.dim))

    def detokenize(self, tokens: Tensor, h: int, w: int) -> Tensor:
        n, t, d = tokens.shape
        if t != h * w:
            raise ShapeError(
                f"detokenize: {t} tokens cannot fill a {h}x{w} grid")
        return transpose(reshape(tokens, (n, h, w, d)), (0, 3, 1, 2))


class TransformerLayer(Module):
    """Pre-norm MHSA + FFN sublayers with residual connections."""

    def __init__(self, dim, heads, rng, ffn_mult=2):
        super().__init__()
        if dim % heads != 0:
            raise ShapeError(f"embed dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.ln1 = LayerNorm(dim)
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, ffn_mult * dim, rng)
        self.fc2 = Linear(ffn_mult * dim, dim, rng)

    def _split_heads(self, x: Tensor, n: int, t: int) -> Tensor:
        return transpose(reshape(x, (n, t, self.heads, self.head_dim)),
                         (0, 2, 1, 3))

    def _attention(self, xn: Tensor) -> Tensor:
        n, t, _ = xn.shape
        q = self._split_heads(self.wq(xn), n, t)
        k = self._split_heads(self.wk(xn), n, t)
        v = self._split_heads(self.wv(xn), n, t)
        scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (self.head_dim ** -0.5)
        ctx = matmul(softmax(scores, axis=-1), v)
        ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (n, t, self.dim))
        return self.wo(ctx)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self._attention(self.ln1(x))
        ff = self.fc2(silu(self.fc1(self.ln2(x))))
        return x + ff


# ---------------------------------------------------------------------------
# Local-global fusion
# ---------------------------------------------------------------------------

class FusionBlock(Module):
    """sigma(W1 * [F_conv || F_trans] + b1) + F_conv + F_trans (sigma = ReLU).

    A 1x1 conv aligns the convolutional stream to the embedding width when
    the channel counts differ.
    """

    def __init__(self, conv_channels, dim, rng):
        super().__init__()
        self.align = (Conv2d(conv_channels, dim, 1, rng, bias=True)
                      if conv_channels != dim else None)
        self.fuse = Conv2d(2 * dim, dim, 1, rng, bias=True)

    def forward(self, f_conv: Tensor, f_trans: Tensor) -> Tensor:
        if self.align is not None:
            f_conv = self.align(f_conv)
        gated = relu(self.fuse(concat_channels([f_conv, f_trans])))
        return gated + f_conv + f_trans


# ---------------------------------------------------------------------------
# Boundary-aware attention
# ---------------------------------------------------------------------------

LAPLACIAN_KERNEL = np.array([[0.0, 1.0, 0.0],
                             [1.0, -4.0, 1.0],
                             [0.0, 1.0, 0.0]], dtype=np.float32)


class BoundaryAttention(Module):
    """Laplacian boundary response -> sigmoid mask -> F * (1 + M).

    The Laplacian runs on the channel-mean map with its border edge-replicated,
    so a constant map has zero response, also along the image frame.

    The encoder-side instance carries a global projection that mixes the
    transformer map into the boundary response; the decoder-side one does not.
    """

    def __init__(self, channels, rng, trans_dim: Optional[int] = None):
        super().__init__()
        self._lap_weight = Tensor(LAPLACIAN_KERNEL.reshape(1, 1, 3, 3))
        self._lap_spec = Conv2dSpec(1, 1, 3, padding=0)
        self.global_proj = (Conv2d(trans_dim, 1, 1, rng)
                            if trans_dim is not None else None)
        self.mask_conv = Conv2d(channels + 1, 1, 1, rng, bias=True)

    def boundary_response(self, fmap: Tensor,
                          f_trans: Optional[Tensor] = None) -> Tensor:
        mean_map = tmean(fmap, axis=1, keepdims=True)
        b = conv2d(pad_edge(mean_map, 1), self._lap_weight, self._lap_spec)
        if self.global_proj is not None:
            if f_trans is None:
                raise ValueError(
                    "boundary_response: this instance has a global projection "
                    "and requires transformer features")
            b = b + self.global_proj(f_trans)
        return b

    def attention_mask(self, fmap: Tensor, response: Tensor) -> Tensor:
        return sigmoid(self.mask_conv(concat_channels([fmap, response])))

    @staticmethod
    def refine(fmap: Tensor, mask: Tensor) -> Tensor:
        return mul(fmap, mask + 1.0)

    def forward(self, fmap: Tensor, f_trans: Optional[Tensor] = None) -> Tensor:
        response = self.boundary_response(fmap, f_trans)
        mask = self.attention_mask(fmap, response)
        return self.refine(fmap, mask)


# ---------------------------------------------------------------------------
# ASPP and SCSE
# ---------------------------------------------------------------------------

class ASPPModule(Module):
    """Parallel dilated 3x3 branches plus a pooled branch, fused by 1x1.

    The dilated branches are zero-padded "same" convs (as in DeepLabv3), so a
    constant input gives a constant output only at least the largest rate
    away from the border.
    """

    def __init__(self, in_channels, rng, rates=(1, 4, 8, 12), branch_width=64,
                 out_channels=256):
        super().__init__()
        self.branches = ModuleList([
            Conv2d(in_channels, branch_width, 3, rng, dilation=r, bias=True)
            for r in rates
        ])
        self.pool_conv = Conv2d(in_channels, branch_width, 1, rng, bias=True)
        self.fuse = Conv2d(branch_width * (len(rates) + 1), out_channels,
                           1, rng, bias=True)

    def forward(self, x: Tensor) -> Tensor:
        h, w = x.shape[2], x.shape[3]
        outs = [silu(branch(x)) for branch in self.branches]
        pooled = silu(self.pool_conv(tmean(x, axis=(2, 3), keepdims=True)))
        # times ones is exact: the pooled map broadcast over the grid
        outs.append(mul(pooled, Tensor(np.ones((1, 1, h, w), pooled.dtype))))
        return silu(self.fuse(concat_channels(outs)))


class SCSEBlock(Module):
    """Concurrent channel and spatial squeeze-excitation, combined by sum."""

    def __init__(self, channels, rng, reduction=8):
        super().__init__()
        if channels % reduction != 0 or channels < reduction:
            raise ShapeError(
                f"SCSE: channels={channels} must be a positive multiple of "
                f"reduction={reduction}")
        hidden = channels // reduction
        self.ch_squeeze = Conv2d(channels, hidden, 1, rng, bias=True)
        self.ch_excite = Conv2d(hidden, channels, 1, rng, bias=True)
        self.sp_gate = Conv2d(channels, 1, 1, rng, bias=True)

    def forward(self, x: Tensor) -> Tensor:
        pooled = tmean(x, axis=(2, 3), keepdims=True)
        cgate = sigmoid(self.ch_excite(relu(self.ch_squeeze(pooled))))
        sgate = sigmoid(self.sp_gate(x))
        return mul(x, cgate) + mul(x, sgate)


class DecoderStage(Module):
    """Upsample, concat the skip, fuse with two separable convs, then SCSE."""

    def __init__(self, in_channels, skip_channels, out_channels, rng,
                 scse_reduction=8):
        super().__init__()
        self.conv1 = SeparableConvBlock(in_channels + skip_channels,
                                        out_channels, rng)
        self.conv2 = SeparableConvBlock(out_channels, out_channels, rng)
        self.scse = SCSEBlock(out_channels, rng, reduction=scse_reduction)

    def forward(self, x: Tensor, skip: Tensor) -> Tensor:
        x = concat_channels([upsample_bilinear(x, 2), skip])
        x = self.conv2(self.conv1(x))
        return self.scse(x)
