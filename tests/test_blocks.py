"""Architectural block semantics: MBConv, transformer, fusion, BAA, ASPP, SCSE."""

import tracemalloc

import numpy as np
import pytest

from medlitenet import autodiff as ad
from medlitenet.autodiff import ShapeError, Tensor
from medlitenet.blocks import (
    ASPPModule,
    BoundaryAttention,
    ConvBnSiLU,
    FusionBlock,
    MBConvBlock,
    SCSEBlock,
    Tokenizer,
    TransformerLayer,
    sinusoidal_encoding_2d,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_all(module):
    for _, p in module.named_parameters():
        p.data[...] = 0.0
    return module


class TestConvBnSiLU:
    def test_tape_keeps_conv_output_and_unit_output_only(self):
        # a 1x1 conv keeps nothing but its input, which exists before the unit
        unit = ConvBnSiLU(8, 16, 1, rng(0))
        x = Tensor(rng(1).standard_normal((4, 8, 96, 96)).astype(np.float32))
        tracemalloc.start()
        try:
            with ad.Graph() as g:
                start = tracemalloc.get_traced_memory()[0]
                out = unit(x)
                kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        conv_out = g.nodes[0].out
        assert conv_out.shape == out.shape
        # the unfused chain also kept the BN output and SiLU's sigmoid
        assert kept <= conv_out.data.nbytes + out.data.nbytes + (1 << 20)
        assert [node.op for node in g.nodes] == ["conv2d", "batchnorm2d"]


class TestMBConv:
    def test_untaped_eval_writes_into_its_conv_outputs(self):
        # expansion 6 on 16 channels: the expand and depthwise outputs are
        # the only full-width maps; BN, SiLU and the residual add go into
        # them, with at most 1 MiB of sigmoid or depthwise scratch
        blk = MBConvBlock(16, 16, rng(0), expansion=6, stride=1).eval()
        x = Tensor(rng(1).standard_normal((1, 16, 96, 96)).astype(np.float32))
        before = x.data.copy()
        blk(x)                                   # warm the module's caches
        wide = 96 * 96 * 96 * 4
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = blk(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= wide + wide + (1 << 20)
        assert x.data.tobytes() == before.tobytes()
        assert out.shape == x.shape

    def test_taped_forward_keeps_input_depthwise_and_projection_only(self):
        # 16 -> 96 -> 16 channels at stride 2 on [4, 16, 64, 64]: the expand
        # map and the first SiLU map are 6 MiB each, the depthwise and second
        # SiLU maps 1.5 MiB, the projection and BN3 maps 0.25 MiB; kept
        # whole, the tape held 15.5 MiB
        blk = MBConvBlock(16, 16, rng(0), expansion=6, stride=2)
        x = Tensor(rng(1).standard_normal((4, 16, 64, 64)).astype(np.float32),
                   requires_grad=True)
        with ad.Graph():
            blk(x)                               # warm the module's caches
        tracemalloc.start()
        try:
            with ad.Graph() as g:
                start = tracemalloc.get_traced_memory()[0]
                out = blk(x)
                kept = tracemalloc.get_traced_memory()[0] - start
                ad.backward(ad.tsum(out), g)
        finally:
            tracemalloc.stop()
        assert kept <= 3 << 20
        assert x.grad is not None

    @pytest.mark.parametrize("stride, cout", [(2, 16), (1, 8)])
    def test_released_maps_leave_gradients_bitwise(self, stride, cout):
        blk = MBConvBlock(8, cout, rng(2), expansion=6, stride=stride)
        x0 = rng(3).standard_normal((2, 8, 16, 16)).astype(np.float32)
        weights = Tensor(rng(4).uniform(0.5, 1.5, (2, cout, 16 // stride,
                                                   16 // stride)).astype(np.float32))

        def chain(x):
            # the same ops as MBConvBlock.forward, with nothing released
            h = blk.bn1(blk.expand(x), silu=True)
            h = blk.bn2(blk.depthwise(h), silu=True)
            h = blk.bn3(blk.project(h))
            return h + x if blk.use_skip else h

        def grads(forward):
            for _, p in blk.named_parameters():
                p.zero_grad()
            x = Tensor(x0, requires_grad=True)
            with ad.Graph() as g:
                out = forward(x)
                ad.backward(ad.tsum(ad.mul(out, weights)), g)
            return ([out.data.tobytes(), x.grad.tobytes()]
                    + [p.grad.tobytes() for _, p in blk.named_parameters()])

        assert blk.use_skip == (stride == 1)
        assert grads(blk) == grads(chain)

    def test_pure_skip_when_zeroed(self):
        blk = MBConvBlock(8, 8, rng(0), expansion=6, stride=1)
        for name, p in blk.named_parameters():
            if not name.endswith("gamma"):
                p.data[...] = 0.0
        blk.eval()   # initial running stats are (0, 1): BN(0) == 0
        x = Tensor(rng(1).uniform(-1, 1, (2, 8, 6, 6)).astype(np.float32))
        out = blk(x)
        assert np.abs(out.data - x.data).max() < 1e-6

    def test_stride_two_halves_spatial(self):
        blk = MBConvBlock(8, 16, rng(0), stride=2)
        out = blk(Tensor(np.zeros((1, 8, 64, 64), np.float32)))
        assert out.shape == (1, 16, 32, 32)

    def test_no_skip_when_channels_differ(self):
        assert not MBConvBlock(8, 16, rng(0), stride=1).use_skip
        assert not MBConvBlock(8, 8, rng(0), stride=2).use_skip
        assert MBConvBlock(8, 8, rng(0), stride=1).use_skip

    def test_analytic_param_count(self):
        blk = MBConvBlock(32, 64, rng(0), expansion=6)
        enumerated = sum(p.size for _, p in blk.named_parameters())
        # conv weights 32*192 + 9*192 + 192*64 = 20160, then three BN affine pairs
        assert enumerated == 20160 + 2 * (192 + 192 + 64) == 21056

    def test_count_equals_buffer_enumeration(self):
        for cin, cout, t in ((8, 8, 6), (32, 64, 6), (16, 24, 4)):
            blk = MBConvBlock(cin, cout, rng(0), expansion=t)
            ce = t * cin
            enumerated = sum(p.size for _, p in blk.named_parameters())
            assert enumerated == cin * ce + 9 * ce + ce * cout + 4 * ce + 2 * cout

    def test_channel_mismatch_rejected(self):
        blk = MBConvBlock(8, 8, rng(0))
        with pytest.raises(ShapeError, match="channels"):
            blk(Tensor(np.zeros((1, 4, 8, 8), np.float32)))


class TestPositionalEncoding:
    def test_shape_and_structure(self):
        pe = sinusoidal_encoding_2d(4, 6, 16)
        assert pe.shape == (24, 16)
        # tokens in the same row share the row half of the embedding
        assert np.array_equal(pe[0, :8], pe[5, :8])
        # tokens in the same column share the column half
        assert np.array_equal(pe[0, 8:], pe[6, 8:])

    def test_dim_divisibility(self):
        with pytest.raises(ShapeError):
            sinusoidal_encoding_2d(2, 2, 6)


class TestTokenizer:
    def test_token_count(self):
        tok = Tokenizer(8, 16, rng(0))
        tokens = tok.tokenize(Tensor(np.zeros((1, 8, 8, 8), np.float32)))
        assert tokens.shape == (1, 64, 16)

    def test_roundtrip_is_identity_permutation(self):
        tok = Tokenizer(4, 16, rng(0))
        x = Tensor(rng(1).uniform(-1, 1, (2, 4, 3, 5)).astype(np.float32))
        marked = Tensor(np.arange(2 * 16 * 3 * 5, dtype=np.float32)
                        .reshape(2, 16, 3, 5))
        back = tok.detokenize(tok.tokenize(x) * 0.0 +
                              ad.reshape(ad.transpose(marked, (0, 2, 3, 1)),
                                         (2, 15, 16)), 3, 5)
        assert np.array_equal(back.data, marked.data)

    def test_zero_input_zero_bias_gives_positional_encoding(self):
        tok = Tokenizer(4, 16, rng(0))
        tokens = tok.tokenize(Tensor(np.zeros((1, 4, 4, 4), np.float32)))
        pe = sinusoidal_encoding_2d(4, 4, 16)
        assert np.allclose(tokens.data[0], pe, atol=1e-6)

    def test_token_count_mismatch_rejected(self):
        tok = Tokenizer(4, 16, rng(0))
        tokens = tok.tokenize(Tensor(np.zeros((1, 4, 4, 4), np.float32)))
        with pytest.raises(ShapeError, match="tokens"):
            tok.detokenize(tokens, 5, 5)


class TestTransformerLayer:
    def test_single_token_attention_weight_is_one(self):
        # a lone key gets weight 1 in every head, so its value passes through
        layer = TransformerLayer(16, 4, rng(0))
        x = Tensor(rng(1).uniform(-1, 1, (1, 1, 16)).astype(np.float32))
        got = layer._attention(x)
        assert np.allclose(got.data, layer.wo(layer.wv(x)).data, atol=1e-6)

    def test_attention_rows_sum_to_one(self):
        # every value row is c, so each token's context is c times its row sum
        layer = TransformerLayer(32, 4, rng(0))
        c = rng(3).uniform(-1, 1, 32).astype(np.float32)
        layer.wv.weight.data[...] = 0.0
        layer.wv.bias.data[...] = c
        x = Tensor(rng(2).uniform(-1, 1, (2, 9, 32)).astype(np.float32))
        got = layer._attention(x).data
        expected = layer.wo(Tensor(c[None, None])).data
        assert np.abs(got - expected).max() < 1e-5

    def test_identical_tokens_identical_outputs(self):
        layer = TransformerLayer(16, 2, rng(0))
        token = rng(3).uniform(-1, 1, 16).astype(np.float32)
        x = Tensor(np.stack([token, token])[None])
        out = layer(x)
        assert np.allclose(out.data[0, 0], out.data[0, 1], atol=1e-6)

    def test_permutation_equivariance(self):
        layer = TransformerLayer(16, 4, rng(0))
        x = rng(4).uniform(-1, 1, (1, 6, 16)).astype(np.float32)
        perm = np.array([3, 0, 5, 1, 4, 2])
        out = layer(Tensor(x)).data
        out_perm = layer(Tensor(x[:, perm])).data
        assert np.allclose(out[:, perm], out_perm, atol=1e-5)

    def test_output_shape(self):
        layer = TransformerLayer(32, 4, rng(0))
        x = Tensor(rng(5).uniform(-1, 1, (3, 7, 32)).astype(np.float32))
        assert layer(x).shape == (3, 7, 32)

    def test_matches_brute_force_attention(self):
        # independent dense per-head computation of the MHSA sublayer
        d, heads, t = 8, 2, 4
        layer = TransformerLayer(d, heads, rng(0))
        x = rng(6).uniform(-1, 1, (1, t, d)).astype(np.float32)
        got = layer._attention(Tensor(x))

        def linear(v, lin):
            return v @ lin.weight.data + lin.bias.data

        q, k, v = (linear(x[0], layer.wq), linear(x[0], layer.wk),
                   linear(x[0], layer.wv))
        dh = d // heads
        heads_out = []
        for h in range(heads):
            qs, ks, vs = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
            scores = qs @ ks.T / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            att = e / e.sum(axis=1, keepdims=True)
            heads_out.append(att @ vs)
        expected = linear(np.concatenate(heads_out, axis=1), layer.wo)
        assert np.abs(got.data[0] - expected).max() < 1e-5

    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            TransformerLayer(15, 4, rng(0))


class TestFusionBlock:
    def test_zero_everything_gives_zero(self):
        blk = zero_all(FusionBlock(16, 16, rng(0)))
        z = Tensor(np.zeros((1, 16, 4, 4), np.float32))
        assert np.array_equal(blk(z, z).data, z.data)

    def test_residual_paths_survive_zero_fuse(self):
        blk = zero_all(FusionBlock(16, 16, rng(0)))
        a = Tensor(rng(1).uniform(-1, 1, (1, 16, 4, 4)).astype(np.float32))
        b = Tensor(rng(2).uniform(-1, 1, (1, 16, 4, 4)).astype(np.float32))
        assert np.allclose(blk(a, b).data, a.data + b.data, atol=1e-7)

    def test_gate_is_nonnegative(self):
        blk = FusionBlock(16, 16, rng(3))
        a = Tensor(rng(4).uniform(-1, 1, (2, 16, 4, 4)).astype(np.float32))
        b = Tensor(rng(5).uniform(-1, 1, (2, 16, 4, 4)).astype(np.float32))
        out = blk(a, b).data
        base = a.data + b.data
        # out = fl(fl(gate + a) + b) with gate = relu(...) >= 0.  Rounded
        # addition is monotone, so out >= fl(a + b) holds exactly in float32
        # for any summation order; recomputing the gate as fl(fl(out - a) - b)
        # would not, as it rounds to tiny negatives where the gate is 0.
        assert out.dtype == np.float32
        assert (out >= base).all()
        # a gate that is identically zero would pass the check above
        assert (out > base).any()

    def test_align_conv_used_when_channels_differ(self):
        blk = FusionBlock(8, 16, rng(0))
        assert blk.align is not None
        a = Tensor(rng(1).uniform(-1, 1, (1, 8, 4, 4)).astype(np.float32))
        b = Tensor(rng(2).uniform(-1, 1, (1, 16, 4, 4)).astype(np.float32))
        assert blk(a, b).shape == (1, 16, 4, 4)

    def test_spatial_mismatch_rejected(self):
        blk = FusionBlock(16, 16, rng(0))
        a = Tensor(np.zeros((1, 16, 4, 4), np.float32))
        b = Tensor(np.zeros((1, 16, 8, 8), np.float32))
        with pytest.raises(ShapeError, match="spatial"):
            blk(a, b)


class TestBoundaryAttention:
    def test_constant_input_zero_response(self):
        baa = BoundaryAttention(4, rng(0))
        x = Tensor(np.full((1, 4, 8, 8), 3.7, np.float32))
        assert np.abs(baa.boundary_response(x).data).max() < 1e-5

    def test_step_edge_response_localized(self):
        baa = BoundaryAttention(1, rng(0))
        x = np.zeros((1, 1, 8, 8), np.float32)
        x[:, :, :, 4:] = 1.0
        b = baa.boundary_response(Tensor(x)).data[0, 0]
        # Laplacian of a vertical step: largest on the two columns at the edge
        assert np.abs(b[:, 3]).min() > 0.5
        assert np.abs(b[:, 4]).min() > 0.5
        assert np.abs(b[:, :2]).max() == 0.0
        assert np.abs(b[:, 6:]).max() == 0.0

    def test_zero_global_projection_keeps_response(self):
        baa = BoundaryAttention(4, rng(0), trans_dim=8)
        baa.global_proj.weight.data[...] = 0.0
        x = Tensor(rng(1).uniform(-1, 1, (1, 4, 8, 8)).astype(np.float32))
        ft = Tensor(rng(2).uniform(-1, 1, (1, 8, 8, 8)).astype(np.float32))
        plain = BoundaryAttention(4, rng(0))
        assert np.allclose(baa.boundary_response(x, ft).data,
                           plain.boundary_response(x).data, atol=1e-7)

    def test_global_projection_requires_features(self):
        baa = BoundaryAttention(4, rng(0), trans_dim=8)
        x = Tensor(np.zeros((1, 4, 8, 8), np.float32))
        with pytest.raises(ValueError, match="transformer features"):
            baa.boundary_response(x, None)

    def test_mask_examples(self):
        baa = BoundaryAttention(4, rng(0))
        x = Tensor(rng(1).uniform(-1, 1, (1, 4, 8, 8)).astype(np.float32))
        b = baa.boundary_response(x)
        baa.mask_conv.weight.data[...] = 0.0
        baa.mask_conv.bias.data[...] = 0.0
        assert np.allclose(baa.attention_mask(x, b).data, 0.5)
        baa.mask_conv.bias.data[...] = 50.0
        assert baa.attention_mask(x, b).data.min() > 1.0 - 1e-6
        baa.mask_conv.bias.data[...] = -3.0
        m = baa.attention_mask(x, b).data
        assert (m > 0).all() and (m < 1).all()

    def test_refine_identities(self):
        x = Tensor(rng(2).uniform(-2, 2, (1, 4, 6, 6)).astype(np.float32))
        zero_mask = Tensor(np.zeros((1, 1, 6, 6), np.float32))
        one_mask = Tensor(np.ones((1, 1, 6, 6), np.float32))
        assert np.array_equal(BoundaryAttention.refine(x, zero_mask).data, x.data)
        assert np.array_equal(BoundaryAttention.refine(x, one_mask).data,
                              2 * x.data)
        m = Tensor(rng(3).uniform(0, 1, (1, 1, 6, 6)).astype(np.float32))
        refined = BoundaryAttention.refine(x, m).data
        assert np.array_equal(np.sign(refined), np.sign(x.data))
        assert (np.abs(refined) <= 2 * np.abs(x.data) + 1e-7).all()


class TestASPP:
    def test_output_shape(self):
        aspp = ASPPModule(32, rng(0), rates=(1, 4, 8, 12), branch_width=16,
                          out_channels=64)
        out = aspp(Tensor(np.zeros((2, 32, 8, 8), np.float32)))
        assert out.shape == (2, 64, 8, 8)

    def test_constant_input_constant_branches(self):
        aspp = ASPPModule(4, rng(0), rates=(1, 2, 3, 4), branch_width=4,
                          out_channels=8)
        x = Tensor(np.full((1, 4, 12, 12), 0.5, np.float32))
        out = aspp(x).data
        # all ops are spatially structured but zero padding breaks edge
        # constancy; the interior, at least the widest dilation (4) away from
        # every border, reads no padding and must stay constant.  On 12x12
        # that is rows and columns 4..7.
        inner = out[:, :, 4:8, 4:8]
        assert np.abs(inner - inner[:, :, :1, :1]).max() < 1e-5

    def test_rate_one_branch_equals_dense_conv(self):
        aspp = ASPPModule(8, rng(0), rates=(1, 4, 8, 12), branch_width=8,
                          out_channels=16)
        x = Tensor(rng(1).uniform(-1, 1, (1, 8, 8, 8)).astype(np.float32))
        branch = aspp.branches[0]
        got = branch(x)
        dense = ad.conv2d(x, branch.weight,
                          ad.Conv2dSpec(8, 8, 3, dilation=1), branch.bias)
        assert np.abs(got.data - dense.data).max() < 1e-6

    def test_small_bottleneck_supported(self):
        aspp = ASPPModule(8, rng(0), branch_width=8, out_channels=16)
        out = aspp(Tensor(np.zeros((1, 8, 2, 2), np.float32)))
        assert out.shape == (1, 16, 2, 2)


class TestSCSE:
    def test_gates_saturated_high_doubles_input(self):
        blk = SCSEBlock(16, rng(0))
        blk.ch_excite.weight.data[...] = 0.0
        blk.ch_excite.bias.data[...] = 50.0
        blk.sp_gate.weight.data[...] = 0.0
        blk.sp_gate.bias.data[...] = 50.0
        x = Tensor(rng(1).uniform(-1, 1, (1, 16, 4, 4)).astype(np.float32))
        assert np.allclose(blk(x).data, 2 * x.data, atol=1e-5)

    def test_output_bounded_by_twice_input(self):
        blk = SCSEBlock(16, rng(2))
        x = Tensor(rng(3).uniform(-2, 2, (2, 16, 5, 5)).astype(np.float32))
        out = blk(x).data
        assert (np.abs(out) <= 2 * np.abs(x.data) + 1e-6).all()

    def test_zero_input_zero_output(self):
        blk = SCSEBlock(8, rng(0))
        z = Tensor(np.zeros((1, 8, 4, 4), np.float32))
        assert np.array_equal(blk(z).data, z.data)

    def test_channel_constraint(self):
        with pytest.raises(ShapeError, match="reduction"):
            SCSEBlock(4, rng(0))
        with pytest.raises(ShapeError, match="reduction"):
            SCSEBlock(12, rng(0))


class TestStateDict:
    def test_parameters_then_running_stats_as_live_arrays(self):
        unit = ConvBnSiLU(3, 4, 3, rng(0))
        table = unit.state_dict()
        (bn, state), = unit.named_states()
        params = list(unit.named_parameters())
        assert list(table) == [n for n, _ in params] + [
            bn + ".running_mean", bn + ".running_var"]
        assert all(table[n] is p.data for n, p in params)
        assert table[bn + ".running_mean"] is state.mean
        assert table[bn + ".running_var"] is state.var

    def test_load_rebinds_every_tensor(self):
        unit = ConvBnSiLU(3, 4, 3, rng(0))
        table = {k: v + 1 for k, v in unit.state_dict().items()}
        assert unit.load_state_dict(table) is unit
        assert all(unit.state_dict()[k] is v for k, v in table.items())

    @pytest.mark.parametrize("case", ["missing", "unexpected", "misshaped"])
    def test_load_names_the_bad_key_and_changes_nothing(self, case):
        unit = ConvBnSiLU(3, 4, 3, rng(0))
        before = unit.state_dict()
        table = dict(before)
        (bn, _), = unit.named_states()
        if case == "missing":
            del table[bn + ".running_var"]
            match = f"missing tensor '{bn}.running_var'"
        elif case == "unexpected":
            table["head.bias"] = np.zeros(1, np.float32)
            match = "unexpected tensor 'head.bias'"
        else:
            table["conv.weight"] = np.zeros((4, 3, 1, 1), np.float32)
            match = r"tensor 'conv.weight' has shape \(4, 3, 1, 1\)"
        table = {k: v.copy() for k, v in table.items()}
        with pytest.raises(ShapeError, match=match):
            unit.load_state_dict(table)
        assert all(unit.state_dict()[k] is v for k, v in before.items())
