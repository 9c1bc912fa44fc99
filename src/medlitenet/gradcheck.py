"""Central-difference gradient verification for ops, blocks and the model.

Checks rebuild their inputs (and cast module weights) in float64 so the
finite-difference reference is limited by truncation error, not float32
rounding; the backward formulas under test are dtype-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import AutodiffError, Graph, Tensor, backward
from .blocks import (
    ASPPModule,
    BoundaryAttention,
    DecoderStage,
    FusionBlock,
    MBConvBlock,
    Module,
    SCSEBlock,
    SeparableConvBlock,
    Tokenizer,
    TransformerLayer,
)
from .losses import total_loss
from .model import MedLiteNet, ModelConfig

DEFAULT_TOLS = {"ops": 1e-3, "blocks": 1e-3, "model": 2e-3}


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    checked: int
    worst_coord: tuple


def finite_diff_gradcheck(f: Callable[[Tensor], Tensor], x: Tensor,
                          h: float = 1e-3, tol: float = 1e-3,
                          max_coords: int = 48, seed: int = 0) -> GradCheckReport:
    """Compare analytic d f/d x against central differences per coordinate.

    ``f`` must be scalar-valued and deterministic; large tensors are probed
    on a seeded random subset of at least 32 coordinates.  The relative error
    denominator is floored at 1e-4 so exact-zero gradients do not divide out.
    """
    y1 = f(Tensor(x.data.copy()))
    y2 = f(Tensor(x.data.copy()))
    if not np.array_equal(y1.data, y2.data):
        raise AutodiffError("gradcheck: function is not deterministic "
                            "(two evaluations differ)")

    leaf = Tensor(x.data.copy(), requires_grad=True)
    with Graph():
        backward(f(leaf))
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    flat = x.data.reshape(-1)
    n = flat.size
    if n <= max_coords:
        coords = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        coords = rng.choice(n, size=max(32, max_coords), replace=False)

    max_rel = 0.0
    worst = ()
    analytic_flat = analytic.reshape(-1)
    for c in coords:
        xp = flat.copy()
        xp[c] += h
        fp = f(Tensor(xp.reshape(x.data.shape))).item()
        xm = flat.copy()
        xm[c] -= h
        fm = f(Tensor(xm.reshape(x.data.shape))).item()
        fd = (fp - fm) / (2.0 * h)
        a = float(analytic_flat[c])
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
        if rel > max_rel:
            max_rel = rel
            worst = tuple(np.unravel_index(int(c), x.data.shape))
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel < tol,
                           checked=len(coords), worst_coord=worst)


# ---------------------------------------------------------------------------
# Suite helpers
# ---------------------------------------------------------------------------

def _rand(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


def _away_from(rng, shape, points, margin, lo=-2.0, hi=2.0):
    # resample values that sit within `margin` of a non-differentiable point
    vals = rng.uniform(lo, hi, size=shape)
    for _ in range(64):
        near = np.zeros(vals.shape, dtype=bool)
        for p in points:
            near |= np.abs(vals - p) < margin
        if not near.any():
            break
        vals[near] = rng.uniform(lo, hi, size=int(near.sum()))
    return Tensor(vals)


def _weigher(rng, shape):
    w = Tensor(rng.uniform(0.5, 1.5, size=shape))

    def reduce(t: Tensor) -> Tensor:
        return ad.tsum(ad.mul(t, w))

    return reduce


def _with_param(module: Module, dotted: str, probe: Tensor, thunk):
    """Evaluate thunk with one named parameter replaced by the probe tensor."""
    obj = module
    *path, attr = dotted.split(".")
    for part in path:
        obj = getattr(obj, part)
    saved = getattr(obj, attr)
    object.__setattr__(obj, attr, probe)
    try:
        return thunk()
    finally:
        object.__setattr__(obj, attr, saved)


def cast_module(module: Module, dtype) -> Module:
    """Cast all parameters and running stats of a module tree in place."""
    return module.load_state_dict(
        {name: arr.astype(dtype) for name, arr in module.state_dict().items()})


# ---------------------------------------------------------------------------
# Scope: ops
# ---------------------------------------------------------------------------

def ops_suite() -> list:
    checks = []

    def run(name, f, x, **kw):
        checks.append((name, finite_diff_gradcheck(
            f, x, tol=DEFAULT_TOLS["ops"], **kw)))

    rng = np.random.default_rng(11)
    a = _rand(rng, (3, 5))
    b = Tensor(rng.uniform(0.5, 2.0, size=(3, 5)))
    w_ab = _weigher(rng, (3, 5))
    w_row = _weigher(rng, (3,))
    run("add", lambda t: w_ab(ad.add(t, b)), a)
    run("sub", lambda t: w_ab(ad.sub(t, b)), a)
    run("mul", lambda t: w_ab(ad.mul(t, b)), a)
    run("div_num", lambda t: w_ab(ad.div(t, b)), a)
    run("div_den", lambda t: w_ab(ad.div(a, t)), b)
    run("log", lambda t: w_ab(ad.log(t)), Tensor(rng.uniform(0.2, 3.0, (3, 5))))
    run("sqrt", lambda t: w_ab(ad.sqrt(t)), Tensor(rng.uniform(0.2, 3.0, (3, 5))))
    run("clamp", lambda t: w_ab(ad.clamp(t, -1.0, 1.0)),
        _away_from(rng, (3, 5), (-1.0, 1.0), 0.05))
    run("relu", lambda t: w_ab(ad.relu(t)), _away_from(rng, (3, 5), (0.0,), 0.05))
    run("sigmoid", lambda t: w_ab(ad.sigmoid(t)), a)
    run("silu", lambda t: w_ab(ad.silu(t)), a)
    run("softmax", lambda t: w_ab(ad.softmax(t, axis=-1)), a)
    run("sum", lambda t: ad.tsum(t), a)
    run("mean", lambda t: w_row(ad.tmean(t, axis=1)), a)

    m1 = _rand(rng, (2, 3, 4))
    m2 = _rand(rng, (4, 5))
    w_mm = _weigher(rng, (2, 3, 5))
    run("matmul_lhs", lambda t: w_mm(ad.matmul(t, m2)), m1)
    run("matmul_rhs", lambda t: w_mm(ad.matmul(m1, t)), m2)

    # convolution variants, each w.r.t. input, weight and bias
    def run_conv(name, spec, xshape):
        x = _rand(rng, xshape)
        w = Tensor(rng.uniform(-1, 1, size=spec.weight_shape))
        bias = Tensor(rng.uniform(-0.5, 0.5, size=(spec.out_channels,)))
        oshape = (xshape[0], spec.out_channels,
                  spec.out_size(xshape[2]), spec.out_size(xshape[3]))
        w_out = _weigher(rng, oshape)
        run(f"{name}_x", lambda t, s=spec, ww=w, bb=bias, r=w_out:
            r(ad.conv2d(t, ww, s, bb)), x)
        run(f"{name}_w", lambda t, s=spec, xx=x, bb=bias, r=w_out:
            r(ad.conv2d(xx, t, s, bb)), w)
        run(f"{name}_b", lambda t, s=spec, xx=x, ww=w, r=w_out:
            r(ad.conv2d(xx, ww, s, t)), bias)

    run_conv("conv3x3", ad.Conv2dSpec(4, 5, 3), (2, 4, 8, 8))
    run_conv("conv1x1", ad.Conv2dSpec(6, 4, 1), (2, 6, 5, 5))
    run_conv("conv1x1_nonsquare", ad.Conv2dSpec(5, 3, 1), (2, 5, 4, 7))
    run_conv("conv_s2_d2", ad.Conv2dSpec(3, 4, 3, stride=2, dilation=2), (1, 3, 8, 8))
    run_conv("conv_depthwise", ad.Conv2dSpec(6, 6, 3, groups=6, stride=2), (2, 6, 8, 8))
    run_conv("conv_depthwise_s1", ad.Conv2dSpec(6, 6, 3, groups=6), (2, 6, 7, 9))

    # batchnorm through the batch statistics
    xbn = _rand(rng, (3, 4, 5, 5))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=4))
    beta = Tensor(rng.uniform(-0.5, 0.5, size=4))
    w_bn = _weigher(rng, (3, 4, 5, 5))

    def bn_train(x_, g_, b_):
        state = ad.BatchNormState.initial(4, dtype=np.float64)
        return w_bn(ad.batchnorm2d(x_, g_, b_, state, training=True))

    run("batchnorm_train_x", lambda t: bn_train(t, gamma, beta), xbn)
    run("batchnorm_train_gamma", lambda t: bn_train(xbn, t, beta), gamma)
    run("batchnorm_train_beta", lambda t: bn_train(xbn, gamma, t), beta)
    eval_state = ad.BatchNormState(
        mean=rng.uniform(-0.5, 0.5, 4), var=rng.uniform(0.5, 1.5, 4))
    run("batchnorm_eval_x", lambda t: w_bn(ad.batchnorm2d(
        t, gamma, beta, eval_state, training=False)), xbn)

    xu = _rand(rng, (2, 3, 4, 4))
    w_up = _weigher(rng, (2, 3, 8, 8))
    run("upsample_bilinear", lambda t: w_up(ad.upsample_bilinear(t, 2)), xu)
    w_bc = _weigher(rng, (2, 3, 6, 6))
    ones = Tensor(np.ones((1, 1, 6, 6)))
    run("mul_broadcast", lambda t: w_bc(ad.mul(t, ones)), _rand(rng, (2, 3, 1, 1)))

    c2 = _rand(rng, (1, 3, 4, 4))
    w_cat = _weigher(rng, (1, 5, 4, 4))
    run("concat_channels", lambda t: w_cat(ad.concat_channels([t, c2])),
        _rand(rng, (1, 2, 4, 4)))
    run("transpose_reshape", lambda t: w_ab(
        ad.reshape(ad.transpose(t, (1, 0)), (3, 5))), _rand(rng, (5, 3)))
    # pad 3 is wider than the 2-row map: edge padding is still defined there
    w_pad = _weigher(rng, (1, 3, 8, 11))
    run("pad_edge", lambda t: w_pad(ad.pad_edge(t, 3)), _rand(rng, (1, 3, 2, 5)))
    # odd map, stride 2 and dilation 2: every tap of a row reads the same phase
    run_conv("conv_depthwise_s2_d2",
             ad.Conv2dSpec(4, 4, 3, groups=4, stride=2, dilation=2), (2, 4, 9, 7))

    # batchnorm with its SiLU fused into the node (drawn last, so the inputs
    # of every check above stay as they were)
    xbs = _rand(rng, (2, 3, 4, 5))
    gbs = Tensor(rng.uniform(0.5, 1.5, size=3))
    bbs = Tensor(rng.uniform(-0.5, 0.5, size=3))
    w_bs = _weigher(rng, (2, 3, 4, 5))

    def bn_silu_train(x_, g_, b_):
        state = ad.BatchNormState.initial(3, dtype=np.float64)
        return w_bs(ad.batchnorm2d(x_, g_, b_, state, training=True, silu=True))

    run("batchnorm_silu_train_x", lambda t: bn_silu_train(t, gbs, bbs), xbs)
    run("batchnorm_silu_train_gamma", lambda t: bn_silu_train(xbs, t, bbs), gbs)
    run("batchnorm_silu_train_beta", lambda t: bn_silu_train(xbs, gbs, t), bbs)
    bs_state = ad.BatchNormState(
        mean=rng.uniform(-0.5, 0.5, 3), var=rng.uniform(0.5, 1.5, 3))
    run("batchnorm_silu_eval_x", lambda t: w_bs(ad.batchnorm2d(
        t, gbs, bbs, bs_state, training=False, silu=True)), xbs)
    return checks


# ---------------------------------------------------------------------------
# Scope: blocks
# ---------------------------------------------------------------------------

def blocks_suite() -> list:
    checks = []
    rng = np.random.default_rng(23)

    def run(name, f, x, **kw):
        checks.append((name, finite_diff_gradcheck(
            f, x, tol=DEFAULT_TOLS["blocks"], **kw)))

    def fresh(builder):
        module = builder(np.random.default_rng(5))
        return cast_module(module, np.float64).train()

    x88 = _rand(rng, (2, 8, 8, 8))
    w88 = _weigher(rng, (2, 8, 8, 8))

    mb1 = fresh(lambda r: MBConvBlock(8, 8, r, expansion=2, stride=1))
    run("mbconv_s1", lambda t: w88(mb1(t)), x88)
    mb2 = fresh(lambda r: MBConvBlock(8, 12, r, expansion=2, stride=2))
    w_mb2 = _weigher(rng, (2, 12, 4, 4))
    run("mbconv_s2", lambda t: w_mb2(mb2(t)), x88)
    run("mbconv_expand_weight",
        lambda t: _with_param(mb1, "expand.weight", t, lambda: w88(mb1(x88))),
        Tensor(mb1.expand.weight.data.copy()))

    sep = fresh(lambda r: SeparableConvBlock(8, 8, r))
    run("separable_conv", lambda t: w88(sep(t)), x88)

    tok = fresh(lambda r: Tokenizer(8, 16, r))
    xtk = _rand(rng, (2, 8, 4, 4))
    w_tok = _weigher(rng, (2, 16, 4, 4))
    run("tokenize_detokenize", lambda t: w_tok(
        tok.detokenize(tok.tokenize(t), 4, 4)), xtk)

    tl = fresh(lambda r: TransformerLayer(16, 4, r))
    toks = _rand(rng, (2, 6, 16), lo=-1.0, hi=1.0)
    w_tl = _weigher(rng, (2, 6, 16))
    run("transformer_layer", lambda t: w_tl(tl(t)), toks)
    run("transformer_wq",
        lambda t: _with_param(tl, "wq.weight", t, lambda: w_tl(tl(toks))),
        Tensor(tl.wq.weight.data.copy()))

    fus = fresh(lambda r: FusionBlock(8, 16, r))
    ft44 = _rand(rng, (2, 16, 4, 4))
    w_fus = _weigher(rng, (2, 16, 4, 4))
    run("fusion_conv_side", lambda t: w_fus(fus(t, ft44)), xtk)
    run("fusion_trans_side", lambda t: w_fus(fus(xtk, t)), ft44)

    ft88 = _rand(rng, (2, 16, 8, 8))
    baa = fresh(lambda r: BoundaryAttention(8, r, trans_dim=16))
    run("boundary_attention_f", lambda t: w88(baa(t, ft88)), x88)
    run("boundary_attention_trans", lambda t: w88(baa(x88, t)), ft88)
    baa_plain = fresh(lambda r: BoundaryAttention(8, r))
    run("boundary_attention_local", lambda t: w88(baa_plain(t)), x88)

    aspp = fresh(lambda r: ASPPModule(8, r, rates=(1, 2, 3, 4), branch_width=8,
                                      out_channels=16))
    w_aspp = _weigher(rng, (1, 16, 8, 8))
    run("aspp", lambda t: w_aspp(aspp(t)), _rand(rng, (1, 8, 8, 8)))

    scse = fresh(lambda r: SCSEBlock(16, r))
    w_scse = _weigher(rng, (2, 16, 4, 4))
    run("scse", lambda t: w_scse(scse(t)), _rand(rng, (2, 16, 4, 4)))

    dec = fresh(lambda r: DecoderStage(8, 8, 8, r))
    w_dec = _weigher(rng, (1, 8, 8, 8))
    skip = _rand(rng, (1, 8, 8, 8))
    run("decoder_stage", lambda t: w_dec(dec(t, skip)), _rand(rng, (1, 8, 4, 4)))

    gmask = Tensor((np.random.default_rng(3).uniform(0, 1, (2, 1, 6, 6)) > 0.6)
                   .astype(np.float64))
    probs = Tensor(np.random.default_rng(4).uniform(0.05, 0.95, (2, 1, 6, 6)))
    run("total_loss", lambda t: total_loss(t, gmask), probs)
    return checks


def model_suite() -> list:
    """End-to-end loss gradient on the micro config at 32x32, float64."""
    config = ModelConfig.micro(input_size=32)
    model = cast_module(MedLiteNet(config, seed=0), np.float64)
    model.train()
    rng = np.random.default_rng(41)
    x = Tensor(rng.uniform(-1.5, 1.5, size=(1, 3, 32, 32)))
    gy, gx = np.mgrid[0:32, 0:32]
    mask = Tensor((((gy - 16) ** 2 + (gx - 16) ** 2) < 81)
                  .astype(np.float64)[None, None])

    def f(t):
        return total_loss(model(t), mask)

    report = finite_diff_gradcheck(f, x, tol=DEFAULT_TOLS["model"], max_coords=32,
                                   seed=7)
    return [("model_micro_32x32", report)]


def run_scope(scope: str) -> list:
    if scope not in DEFAULT_TOLS:
        raise ValueError(f"unknown gradcheck scope {scope!r}")
    return {"ops": ops_suite, "blocks": blocks_suite, "model": model_suite}[scope]()
