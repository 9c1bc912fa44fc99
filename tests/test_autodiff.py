"""Tensor-core op semantics: spec examples and invariants."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from medlitenet import autodiff as ad
from medlitenet.autodiff import (
    BatchNormState,
    Conv2dSpec,
    Graph,
    ShapeError,
    Tensor,
    backward,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_identity_kernel_bitwise(self):
        x = Tensor(rng(1).uniform(-2, 2, (2, 3, 6, 6)).astype(np.float32))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = ad.conv2d(x, Tensor(w), Conv2dSpec(3, 3, 3, groups=1))
        assert np.array_equal(out.data, x.data)

    def test_all_ones_3x3(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = ad.conv2d(x, w, Conv2dSpec(1, 1, 3))
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        assert np.array_equal(out.data[0, 0], expected)

    def test_dilated_center(self):
        x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = ad.conv2d(x, w, Conv2dSpec(1, 1, 3, dilation=2))
        assert out.shape == (1, 1, 5, 5)
        assert out.data[0, 0, 2, 2] == 9.0

    @pytest.mark.parametrize("spec,shape", [
        (Conv2dSpec(5, 4, 3), (2, 5, 7, 7)),
        (Conv2dSpec(4, 4, 3, stride=2), (1, 4, 8, 8)),
        (Conv2dSpec(4, 4, 3, dilation=2), (1, 4, 9, 9)),
        (Conv2dSpec(6, 6, 3, groups=6), (2, 6, 6, 6)),
        (Conv2dSpec(3, 7, 1), (2, 3, 5, 5)),
        (Conv2dSpec(4, 4, 3, groups=4), (2, 4, 7, 9)),
        (Conv2dSpec(5, 5, 3, groups=5, stride=2), (1, 5, 9, 7)),
        (Conv2dSpec(4, 4, 3, groups=4, dilation=2), (1, 4, 9, 9)),
        (Conv2dSpec(3, 7, 1), (2, 3, 5, 8)),
        (Conv2dSpec(4, 6, 1, stride=2), (1, 4, 7, 9)),
    ])
    def test_fast_path_matches_direct(self, spec, shape):
        r = rng(3)
        x = Tensor(r.uniform(-2, 2, shape).astype(np.float32))
        w = Tensor(r.uniform(-1, 1, spec.weight_shape).astype(np.float32))
        bias = Tensor(r.uniform(-1, 1, spec.out_channels).astype(np.float32))
        fast = ad.conv2d(x, w, spec, bias)
        ref = ad.conv2d_direct(x, w, spec, bias)
        assert np.abs(fast.data - ref.data).max() < 1e-5

    @pytest.mark.parametrize("spec,path", [
        (Conv2dSpec(6, 6, 3, groups=6), "_conv_depthwise"),
        (Conv2dSpec(6, 6, 3, groups=6, stride=2, dilation=2), "_conv_depthwise"),
        (Conv2dSpec(3, 7, 1), "_conv_pointwise"),
        (Conv2dSpec(4, 6, 1, stride=2), "_conv_windowed"),
        (Conv2dSpec(4, 6, 1, padding=1), "_conv_windowed"),
        (Conv2dSpec(5, 4, 3), "_conv_windowed"),
    ])
    def test_dispatch(self, spec, path, monkeypatch):
        taken = []
        for name in ("_conv_depthwise", "_conv_pointwise", "_conv_windowed"):
            def spy(*args, _name=name, _real=getattr(ad, name)):
                taken.append(_name)
                return _real(*args)
            monkeypatch.setattr(ad, name, spy)
        x = Tensor(np.ones((1, spec.in_channels, 5, 6), np.float32))
        ad.conv2d(x, Tensor(np.ones(spec.weight_shape, np.float32)), spec)
        assert taken == [path]

    def test_weight_count_decomposition(self):
        dense = Conv2dSpec(16, 16, 3)
        depthwise = Conv2dSpec(16, 16, 3, groups=16)
        assert np.prod(dense.weight_shape) == 9 * 16 * 16
        assert np.prod(depthwise.weight_shape) == 9 * 16
        assert depthwise.depthwise

    def test_shape_diagnostics(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="channels"):
            ad.conv2d(x, w, Conv2dSpec(4, 2, 3))
        with pytest.raises(ShapeError, match="stride"):
            Conv2dSpec(3, 2, 3, stride=0)
        with pytest.raises(ShapeError, match="dilation"):
            Conv2dSpec(3, 2, 3, dilation=-1)
        with pytest.raises(ShapeError, match="groups"):
            Conv2dSpec(3, 2, 3, groups=2)

    @pytest.mark.parametrize("cin,cout,groups", [(6, 4, 2), (6, 6, 3), (4, 8, 4)])
    def test_only_dense_or_depthwise_groups(self, cin, cout, groups):
        with pytest.raises(ShapeError, match=f"groups={groups} .*depthwise"):
            Conv2dSpec(cin, cout, 3, groups=groups)

    def test_forward_deterministic(self):
        r = rng(5)
        x = Tensor(r.uniform(-1, 1, (2, 4, 8, 8)).astype(np.float32))
        w = Tensor(r.uniform(-1, 1, (4, 4, 3, 3)).astype(np.float32))
        spec = Conv2dSpec(4, 4, 3)
        a = ad.conv2d(x, w, spec).data
        b = ad.conv2d(x, w, spec).data
        assert np.array_equal(a, b)


def _run_conv_kernel(kernel, spec, x, w, g):
    out, bw = kernel(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), spec)
    return (out, *bw(g))


def _depthwise_by_windowed(spec, x, w, g):
    """A depthwise conv run by the dense windowed kernel on a channel-diagonal
    weight; the weight gradient is the diagonal of the dense one."""
    c, k, diag = spec.in_channels, spec.kernel, np.arange(spec.in_channels)
    dense = Conv2dSpec(c, c, k, stride=spec.stride, dilation=spec.dilation,
                       padding=spec.padding)
    wd = np.zeros((c, c, k, k), w.dtype)
    wd[diag, diag] = w[:, 0]
    out, gx, gw = _run_conv_kernel(ad._conv_windowed, dense, x, wd, g)
    return out, gx, gw[diag, diag][:, None]


DEPTHWISE_CASES = [
    (Conv2dSpec(7, 7, 3, groups=7), (1, 7, 9, 11)),
    (Conv2dSpec(7, 7, 3, groups=7, stride=2), (1, 7, 9, 7)),
    (Conv2dSpec(7, 7, 3, groups=7, dilation=2), (1, 7, 9, 9)),
    (Conv2dSpec(7, 7, 3, groups=7, stride=2, dilation=2), (1, 7, 11, 13)),
    (Conv2dSpec(7, 7, 3, groups=7, stride=2), (3, 7, 8, 10)),
    (Conv2dSpec(1, 1, 3, padding=0), (2, 1, 7, 6)),   # boundary Laplacian
]


def _depthwise_inputs(spec, shape):
    r = rng(11)
    x = r.uniform(-2, 2, shape)
    w = r.uniform(-1, 1, spec.weight_shape)
    g = r.uniform(-1, 1, (shape[0], shape[1], spec.out_size(shape[2]),
                          spec.out_size(shape[3])))
    return x, w, g


def _spy_channel_blocks(monkeypatch) -> list:
    """Record (scratch bytes of one channel, m, blocks) of each blocking."""
    calls = []

    def spy(n, c, channel_bytes, _real=ad._channel_blocks):
        m, blocks = _real(n, c, channel_bytes)
        calls.append((n * channel_bytes, m, blocks))
        return m, blocks

    monkeypatch.setattr(ad, "_channel_blocks", spy)
    return calls


def _assert_matches_windowed(spec, x, w, g):
    got = _run_conv_kernel(ad._conv_depthwise, spec, x, w, g)
    want = _depthwise_by_windowed(spec, x, w, g)
    for a, b in zip(got, want):
        assert a.dtype == np.float64
        assert np.abs(a - b).max() < 1e-12


class TestDepthwiseBlocks:
    @pytest.mark.parametrize("spec,shape", DEPTHWISE_CASES)
    def test_blocks_match_windowed(self, spec, shape, monkeypatch):
        x, w, g = _depthwise_inputs(spec, shape)
        calls = _spy_channel_blocks(monkeypatch)
        _run_conv_kernel(ad._conv_depthwise, spec, x, w, g)
        # room for two channels of backward scratch, and two or three of the
        # smaller forward scratch: 7 channels end in a short block either way
        monkeypatch.setattr(ad, "_DW_BLOCK_BYTES", 2 * max(b for b, _, _ in calls))
        calls.clear()
        _assert_matches_windowed(spec, x, w, g)
        if shape[1] > 1:
            assert len(calls) == 2
            for _, m, blocks in calls:
                assert len(blocks) > 1
                assert blocks[-1].stop - blocks[-1].start < m

    @pytest.mark.parametrize("spec,shape", DEPTHWISE_CASES)
    def test_one_channel_blocks_match_windowed(self, spec, shape, monkeypatch):
        x, w, g = _depthwise_inputs(spec, shape)
        calls = _spy_channel_blocks(monkeypatch)
        _run_conv_kernel(ad._conv_depthwise, spec, x, w, g)
        # a budget below one channel's scratch: every block is one channel
        monkeypatch.setattr(ad, "_DW_BLOCK_BYTES", min(b for b, _, _ in calls) // 2)
        calls.clear()
        _assert_matches_windowed(spec, x, w, g)
        assert len(calls) == 2
        for _, m, blocks in calls:
            assert m == 1
            assert [(b.start, b.stop) for b in blocks] == [
                (i, i + 1) for i in range(shape[1])]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_scratch_stays_within_the_block_budget(self, stride):
        r = rng(13)
        spec = Conv2dSpec(32, 32, 3, groups=32, stride=stride)
        x = r.standard_normal((2, 32, 96, 96)).astype(np.float32)
        w = r.standard_normal((32, 1, 3, 3)).astype(np.float32)
        slack = 64 << 10
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, bw = ad._conv_depthwise(Tensor(x, requires_grad=True),
                                         Tensor(w, requires_grad=True), spec)
            fw_scratch = tracemalloc.get_traced_memory()[1] - before - out.nbytes
            g = np.ones_like(out)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gx, gw = bw(g)
            bw_scratch = (tracemalloc.get_traced_memory()[1] - before
                          - gx.nbytes - gw.nbytes)
        finally:
            tracemalloc.stop()
        assert fw_scratch <= ad._DW_BLOCK_BYTES + slack
        assert bw_scratch <= ad._DW_BLOCK_BYTES + slack

    def test_node_keeps_no_padded_copy(self):
        r = rng(12)
        x = Tensor(r.standard_normal((2, 32, 96, 96)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(r.standard_normal((32, 1, 3, 3)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            with Graph() as g:
                before = tracemalloc.get_traced_memory()[0]
                out = ad.conv2d(x, w, Conv2dSpec(32, 32, 3, groups=32))
                kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(g.nodes) == 1
        # a padded copy of x (2.4 MiB) would exceed this
        assert kept <= out.data.nbytes + ad._DW_BLOCK_BYTES


# ---------------------------------------------------------------------------
# batchnorm2d
# ---------------------------------------------------------------------------

class TestBatchNorm:
    @pytest.mark.parametrize("silu", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_writes_only_into_a_handed_over_input(self, training, silu):
        data = rng(3).uniform(-3, 3, (2, 4, 5, 6)).astype(np.float32)
        gamma = Tensor(np.linspace(0.5, 1.5, 4).astype(np.float32))
        beta = Tensor(np.linspace(-1, 1, 4).astype(np.float32))

        def bn(x):
            state = BatchNormState(np.linspace(-1, 1, 4).astype(np.float32),
                                   np.linspace(0.5, 2, 4).astype(np.float32))
            out = ad.batchnorm2d(x, gamma, beta, state, training=training,
                                 silu=silu)
            return out, state

        given = data.copy()
        fresh, fresh_state = bn(Tensor(given))
        assert given.tobytes() == data.tobytes()          # an op's input
        owned = data.copy()
        handed = ad.handover(Tensor(owned))
        assert handed.data is owned
        out, state = bn(handed)
        assert out.data is owned                           # a unit's own map
        assert out.data.tobytes() == fresh.data.tobytes()
        assert state.mean.tobytes() == fresh_state.mean.tobytes()
        assert state.var.tobytes() == fresh_state.var.tobytes()

    def test_no_handover_under_a_graph(self):
        x = Tensor(np.ones((1, 2, 3, 3), np.float32))
        with Graph():
            assert ad.handover(x) is x
        assert ad.handover(x) is not x
        strided = Tensor(np.ones((1, 2, 3, 6), np.float32)[..., ::2])
        assert ad.handover(strided) is strided

    def test_eval_identity_with_initial_stats(self):
        x = Tensor(rng(0).uniform(-2, 2, (2, 3, 4, 4)).astype(np.float32))
        out = ad.batchnorm2d(x, Tensor(np.ones(3, np.float32)),
                             Tensor(np.zeros(3, np.float32)),
                             BatchNormState.initial(3), training=False)
        # identity up to the eps term: x / sqrt(1 + 1e-5)
        assert np.abs(out.data - x.data).max() < 2e-5

    def test_train_normalizes(self):
        x = Tensor(rng(1).uniform(-3, 3, (4, 5, 6, 6)).astype(np.float32))
        out = ad.batchnorm2d(x, Tensor(np.ones(5, np.float32)),
                             Tensor(np.zeros(5, np.float32)),
                             BatchNormState.initial(5), training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-4
        assert np.abs(var - 1).max() < 1e-3

    def test_constant_channel_maps_to_zero(self):
        x = Tensor(np.full((2, 1, 3, 3), 7.0, dtype=np.float32))
        out = ad.batchnorm2d(x, Tensor(np.ones(1, np.float32)),
                             Tensor(np.zeros(1, np.float32)),
                             BatchNormState.initial(1), training=True)
        assert np.abs(out.data).max() < 1e-4

    def test_eval_matches_textbook_formula(self):
        r = rng(6)
        x = Tensor(r.normal(2.0, 3.0, (2, 4, 5, 3)))
        gamma = r.uniform(0.5, 1.5, 4)
        beta = r.uniform(-1, 1, 4)
        state = BatchNormState(mean=r.uniform(-2, 4, 4), var=r.uniform(0.2, 9, 4))
        out = ad.batchnorm2d(x, Tensor(gamma), Tensor(beta), state, training=False)
        col = (1, 4, 1, 1)
        ref = (gamma.reshape(col) * (x.data - state.mean.reshape(col))
               / np.sqrt(state.var.reshape(col) + 1e-5) + beta.reshape(col))
        assert out.dtype == np.float64
        assert np.abs(out.data - ref).max() < 1e-6

    def test_running_stats_update(self):
        state = BatchNormState.initial(2)
        x = Tensor(rng(2).normal(3.0, 2.0, (8, 2, 4, 4)).astype(np.float32))
        ad.batchnorm2d(x, Tensor(np.ones(2, np.float32)),
                       Tensor(np.zeros(2, np.float32)), state, training=True)
        batch_mean = x.data.mean(axis=(0, 2, 3))
        assert np.allclose(state.mean, 0.1 * batch_mean, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_fused_silu_is_bitwise_the_two_op_chain(self, training, dtype):
        r = rng(9)
        data = r.normal(0.5, 2.0, (3, 4, 5, 6)).astype(dtype)
        data[0, 0, 0, :3] = (40.0, -40.0, 0.0)    # saturated sigmoid, and zero
        gamma = r.uniform(0.5, 1.5, 4).astype(dtype)
        beta = r.uniform(-1, 1, 4).astype(dtype)
        mean = r.uniform(-1, 1, 4).astype(dtype)
        var = r.uniform(0.5, 2, 4).astype(dtype)
        weights = Tensor(r.uniform(0.5, 1.5, data.shape).astype(dtype))
        results = []
        for fused in (True, False):
            x = Tensor(data.copy(), requires_grad=True)
            g = Tensor(gamma.copy(), requires_grad=True)
            b = Tensor(beta.copy(), requires_grad=True)
            state = BatchNormState(mean=mean.copy(), var=var.copy())
            with Graph() as graph:
                if fused:
                    out = ad.batchnorm2d(x, g, b, state, training, silu=True)
                else:
                    out = ad.silu(ad.batchnorm2d(x, g, b, state, training))
                backward(ad.tsum(ad.mul(out, weights)), graph)
            results.append((out.data, x.grad, g.grad, b.grad, state.mean, state.var))
        for fused, chain in zip(*results):
            assert fused.dtype == chain.dtype == dtype
            assert fused.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_fused_silu_backward_holds_two_full_size_arrays(self, training):
        # BN backward needs the normalized map next to the SiLU gradient; the
        # SiLU part (z, sigmoid(z)) goes through channel-block scratch
        r = rng(13)
        shape = (4, 96, 64, 64)
        x = Tensor(r.standard_normal(shape).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(96, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(96, np.float32), requires_grad=True)
        g = np.ones(shape, np.float32)
        with Graph() as graph:
            ad.batchnorm2d(x, gamma, beta, BatchNormState.initial(96), training,
                           silu=True)
            (node,) = graph.nodes
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                grads = node.backward_fn(g)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert grads[0].shape == shape
        assert peak <= 2 * x.data.nbytes + (1 << 20)

    def test_fused_silu_is_one_batchnorm_node(self):
        x = Tensor(rng(10).standard_normal((2, 3, 4, 4)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones(3, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with Graph() as g:
            out = ad.batchnorm2d(x, gamma, beta, BatchNormState.initial(3), True,
                                 silu=True)
        (node,) = g.nodes
        assert node.op == "batchnorm2d"
        assert node.parents == (x, gamma, beta)
        assert node.out is out


# ---------------------------------------------------------------------------
# activations / softmax
# ---------------------------------------------------------------------------

class TestActivations:
    def test_known_values(self):
        assert ad.silu(Tensor(np.float32(0.0))).item() == 0.0
        assert ad.sigmoid(Tensor(np.float32(0.0))).item() == 0.5
        assert ad.relu(Tensor(np.float32(-3.0))).item() == 0.0
        assert abs(ad.silu(Tensor(np.float32(1.0))).item() - 0.73106) < 1e-4

    def test_sigmoid_saturation_safe(self):
        with np.errstate(over="raise"):
            out = ad.sigmoid(Tensor(np.array([40.0, -40.0], np.float32)))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_exactly(self, dtype):
        with np.errstate(all="raise"):
            out = ad.sigmoid(Tensor(np.array([1e4, -1e4], dtype)))
        assert out.data[0] == 1.0
        assert out.data[1] == 0.0

    def test_softmax_examples(self):
        out = ad.softmax(Tensor(np.array([0.0, np.log(2.0)], np.float32)), 0)
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-6)
        big = ad.softmax(Tensor(np.array([1000.0, 1000.0], np.float32)), 0)
        assert np.allclose(big.data, [0.5, 0.5])
        assert np.isfinite(big.data).all()

    def test_softmax_properties(self):
        x = Tensor(rng(4).uniform(-5, 5, (3, 7)).astype(np.float32))
        out = ad.softmax(x, axis=1)
        assert (out.data >= 0).all()
        assert np.abs(out.data.sum(axis=1) - 1).max() < 1e-6
        shifted = ad.softmax(Tensor(x.data + 3.25), axis=1)
        assert np.abs(out.data - shifted.data).max() < 1e-6

    def test_uniform_row(self):
        out = ad.softmax(Tensor(np.full((4,), 1.7, np.float32)), 0)
        assert np.allclose(out.data, 0.25)


# ---------------------------------------------------------------------------
# kernels that work in preallocated or reused buffers
# ---------------------------------------------------------------------------

def _bn(training, silu=False):
    def op(x):
        c = x.shape[1]
        gamma = Tensor(np.linspace(0.5, 1.5, c).astype(x.dtype), requires_grad=True)
        beta = Tensor(np.linspace(-1, 1, c).astype(x.dtype), requires_grad=True)
        state = BatchNormState(mean=np.linspace(-1, 1, c).astype(x.dtype),
                               var=np.linspace(0.5, 2, c).astype(x.dtype))
        return ad.batchnorm2d(x, gamma, beta, state, training=training, silu=silu)
    return op


def _conv(spec):
    def op(x):
        w = np.linspace(-1, 1, np.prod(spec.weight_shape)).reshape(spec.weight_shape)
        bias = np.linspace(-1, 1, spec.out_channels)
        return ad.conv2d(x, Tensor(w.astype(x.dtype), requires_grad=True), spec,
                         Tensor(bias.astype(x.dtype), requires_grad=True))
    return op


KERNELS = {
    "sigmoid": ad.sigmoid,
    "silu": ad.silu,
    "batchnorm_train": _bn(True),
    "batchnorm_eval": _bn(False),
    "batchnorm_silu_train": _bn(True, silu=True),
    "batchnorm_silu_eval": _bn(False, silu=True),
    "conv_depthwise": _conv(Conv2dSpec(4, 4, 3, groups=4)),
    "conv_depthwise_s2": _conv(Conv2dSpec(4, 4, 3, groups=4, stride=2)),
    "conv_1x1": _conv(Conv2dSpec(4, 3, 1)),
}


class TestKernelBuffers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_input_untouched_and_dtype_kept(self, kernel, dtype):
        data = rng(7).uniform(-3, 3, (2, 4, 5, 6)).astype(dtype)
        before = data.copy()
        x = Tensor(data, requires_grad=True)
        with Graph() as g:
            out = KERNELS[kernel](x)
            weights = Tensor(rng(8).uniform(0.5, 1.5, out.shape).astype(dtype))
            backward(ad.tsum(ad.mul(out, weights)), g)
        assert x.data is data
        assert data.tobytes() == before.tobytes()
        assert out.dtype == dtype
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", [ad.sigmoid, ad.silu])
    def test_zero_dim_input(self, op, dtype):
        data = np.array(0.75, dtype)
        x = Tensor(data, requires_grad=True)
        with Graph() as g:
            out = op(x)
            backward(out, g)
        assert isinstance(out.data, np.ndarray)
        assert out.data.shape == ()
        assert out.dtype == dtype
        assert data == dtype(0.75)
        assert np.isfinite(x.grad)


# ---------------------------------------------------------------------------
# matmul / shape ops / pooling
# ---------------------------------------------------------------------------

class TestLinearAlgebraOps:
    def test_matmul_identity(self):
        a = Tensor(rng(0).uniform(-1, 1, (3, 4)).astype(np.float32))
        out = ad.matmul(a, Tensor(np.eye(4, dtype=np.float32)))
        assert np.allclose(out.data, a.data, atol=1e-6)

    def test_matmul_hand_values(self):
        a = Tensor(np.array([[1, 2], [3, 4]], np.float32))
        b = Tensor(np.array([[5, 6], [7, 8]], np.float32))
        assert np.array_equal(ad.matmul(a, b).data,
                              np.array([[19, 22], [43, 50]], np.float32))

    def test_row_times_column_is_dot(self):
        row = Tensor(np.array([[1.0, 2.0, 3.0]], np.float32))
        col = Tensor(np.array([[4.0], [5.0], [6.0]], np.float32))
        assert ad.matmul(row, col).item() == pytest.approx(32.0)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dims"):
            ad.matmul(Tensor(np.zeros((2, 3), np.float32)),
                      Tensor(np.zeros((4, 2), np.float32)))

    def test_upsample_examples(self):
        single = ad.upsample_bilinear(Tensor(np.full((1, 1, 1, 1), 5.0,
                                                     np.float32)))
        assert np.array_equal(single.data, np.full((1, 1, 2, 2), 5.0))
        row = ad.upsample_bilinear(Tensor(np.array([[[[0.0, 1.0]]]], np.float32)))
        assert np.allclose(row.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0])
        const = ad.upsample_bilinear(Tensor(np.full((1, 2, 3, 3), 2.5,
                                                    np.float32)))
        assert const.shape == (1, 2, 6, 6)
        assert np.allclose(const.data, 2.5)

    # the inputs of every upsample the model runs: the decoder's four and the
    # head's at default@256 (batch 1) and small@128 (batch 4), then a 1x1
    # map and a non-square one
    UPSAMPLE_SHAPES = [(1, 256, 8, 8), (1, 128, 16, 16), (1, 64, 32, 32),
                       (1, 32, 64, 64), (1, 1, 128, 128),
                       (4, 64, 4, 4), (4, 64, 8, 8), (4, 32, 16, 16),
                       (4, 16, 32, 32), (4, 1, 64, 64),
                       (2, 3, 1, 1), (2, 3, 5, 7)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", UPSAMPLE_SHAPES,
                             ids=["x".join(map(str, s)) for s in UPSAMPLE_SHAPES])
    def test_upsample_equals_per_axis_einsum_bitwise(self, shape, dtype):
        gen = rng(4)
        x = Tensor(gen.uniform(-1, 1, shape).astype(dtype), requires_grad=True)
        g = gen.uniform(-1, 1, (shape[0], shape[1], 2 * shape[2],
                                2 * shape[3])).astype(dtype)
        ah = ad._upsample_matrix(shape[2], 2, dtype)
        aw = ad._upsample_matrix(shape[3], 2, dtype)
        rows = np.einsum("Yh,nchw->ncYw", ah, x.data, optimize=True)
        want = np.einsum("Xw,ncYw->ncYX", aw, rows, optimize=True)
        grows = np.einsum("Xw,ncYX->ncYw", aw, g, optimize=True)
        want_grad = np.einsum("Yh,ncYw->nchw", ah, grows, optimize=True)
        with Graph() as graph:
            out = ad.upsample_bilinear(x, 2)
            assert [node.op for node in graph.nodes] == ["matmul", "matmul"]
            backward(ad.tsum(ad.mul(out, Tensor(g))), graph)
        assert out.dtype == dtype and np.array_equal(out.data, want)
        assert x.grad.dtype == dtype and np.array_equal(x.grad, want_grad)

    def test_spatial_mean_pools_each_channel(self):
        # the pooled branch of ASPP and the channel gate of SCSE
        const = ad.tmean(Tensor(np.full((1, 2, 4, 4), 3.0, np.float32)),
                         axis=(2, 3), keepdims=True)
        assert const.shape == (1, 2, 1, 1)
        assert np.allclose(const.data, 3.0)
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32),
                   requires_grad=True)
        with Graph() as g:
            out = ad.tmean(x, axis=(2, 3), keepdims=True)
            assert out.item() == pytest.approx(2.5)
            backward(ad.tsum(out), g)
        assert np.allclose(x.grad, 0.25)

    @pytest.mark.parametrize("axis, keepdims", [((2, 3), True), (1, True),
                                                (-1, False), (None, False)])
    def test_mean_gradient_matches_full_size_division(self, axis, keepdims):
        # reference: the upstream gradient broadcast to the input, then divided
        x = Tensor(rng(3).uniform(-1, 1, (2, 3, 5, 7)).astype(np.float32),
                   requires_grad=True)
        weight = rng(4).uniform(0.5, 1.5, ad.tmean(x, axis, keepdims).shape)
        with Graph() as g:
            out = ad.tmean(x, axis, keepdims)
            backward(ad.tsum(ad.mul(out, Tensor(weight.astype(np.float32)))), g)
        axes = tuple(range(4)) if axis is None else np.atleast_1d(axis) % 4
        up = weight.astype(np.float32)
        if not keepdims:
            up = np.expand_dims(up, tuple(axes))
        count = int(np.prod([x.shape[i] for i in axes]))
        assert x.grad.tobytes() == (np.broadcast_to(up, x.shape) / count).tobytes()

    def test_concat_channels(self):
        a = Tensor(rng(1).uniform(0, 1, (1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng(2).uniform(0, 1, (1, 3, 4, 4)).astype(np.float32))
        out = ad.concat_channels([a, b])
        assert out.shape == (1, 5, 4, 4)
        assert np.array_equal(out.data[:, :2], a.data)
        assert np.array_equal(out.data[:, 2:], b.data)
        assert np.array_equal(ad.concat_channels([a]).data, a.data)
        with pytest.raises(ShapeError, match="spatial"):
            ad.concat_channels([a, Tensor(np.zeros((1, 1, 3, 3), np.float32))])

    @pytest.mark.parametrize("p,h,w", [(0, 2, 5), (1, 2, 5), (3, 2, 5),
                                       (2, 1, 1)])
    def test_pad_edge_matches_numpy_and_folds_gradient(self, p, h, w):
        # pad 3 is wider than the 2-row map; on 1x1 both edges are one pixel
        x = Tensor(rng(4).uniform(-1, 1, (2, 3, h, w)).astype(np.float32),
                   requires_grad=True)
        g = rng(5).integers(-4, 5, (2, 3, h + 2 * p, w + 2 * p)).astype(np.float32)
        with Graph() as graph:
            out = ad.pad_edge(x, p)
            backward(ad.tsum(ad.mul(out, Tensor(g))), graph)
        pad = ((0, 0), (0, 0), (p, p), (p, p))
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, np.pad(x.data, pad, mode="edge"))
        # each padded pixel copies the clipped source pixel: one-hot adjoint
        src_h = np.clip(np.arange(-p, h + p), 0, h - 1)
        src_w = np.clip(np.arange(-p, w + p), 0, w - 1)
        expected = np.einsum("ri,cj,nkrc->nkij", np.eye(h)[src_h],
                             np.eye(w)[src_w], g)
        assert np.array_equal(x.grad, expected)

    def test_pad_edge_rejects_bad_args(self):
        with pytest.raises(ShapeError, match="4-D"):
            ad.pad_edge(Tensor(np.zeros((3, 3), np.float32)), 1)
        with pytest.raises(ShapeError, match=">= 0"):
            ad.pad_edge(Tensor(np.zeros((1, 1, 3, 3), np.float32)), -1)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rng(0).uniform(-1, 1, (3, 4)).astype(np.float32),
                   requires_grad=True)
        with Graph() as g:
            backward(ad.tsum(x), g)
        assert np.array_equal(x.grad, np.ones((3, 4), np.float32))

    def test_elementwise_square(self):
        x = Tensor(rng(1).uniform(-1, 1, (5,)).astype(np.float32),
                   requires_grad=True)
        with Graph() as g:
            backward(ad.tsum(ad.mul(x, x)), g)
        assert np.allclose(x.grad, 2 * x.data, atol=1e-6)

    def test_two_graphs_accumulate_exactly_twice(self):
        # what gradient accumulation over micro-batches relies on
        x = Tensor(rng(2).uniform(-1, 1, (4, 4)).astype(np.float32),
                   requires_grad=True)

        def one_pass():
            with Graph() as g:
                backward(ad.tsum(ad.silu(ad.mul(x, x))), g)

        one_pass()
        once = x.grad.copy()
        one_pass()
        assert np.array_equal(x.grad, 2 * once)

    def test_second_backward_on_one_graph_raises(self):
        x = Tensor(rng(2).uniform(-1, 1, (4, 4)).astype(np.float32),
                   requires_grad=True)
        with Graph() as g:
            loss = ad.tsum(ad.silu(ad.mul(x, x)))
            backward(loss, g)
            once = x.grad.copy()
            with pytest.raises(ad.AutodiffError, match="already ran"):
                backward(loss, g)
            # the loss's node is released: it no longer names its graph
            with pytest.raises(ad.AutodiffError, match="not attached"):
                backward(loss)
        assert x.grad.tobytes() == once.tobytes()
        assert loss.grad is None

    def test_loss_from_another_graph_raises(self):
        x = Tensor(np.array([3.0], np.float32), requires_grad=True)
        with Graph() as outer:
            with Graph():
                loss = ad.tsum(ad.mul(x, x))
                with pytest.raises(ad.AutodiffError, match="another Graph"):
                    backward(loss, outer)
        assert x.grad is None and loss.grad is None

    def test_backward_frees_processed_nodes(self):
        r = rng(3)
        x = Tensor(r.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(r.standard_normal((4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(4, np.float32), requires_grad=True)
        gc.disable()
        try:
            with Graph() as g:
                conv = ad.conv2d(x, w, Conv2dSpec(3, 4, 3))
                y = ad.batchnorm2d(conv, gamma, beta, BatchNormState.initial(4),
                                   True, silu=True)
                alive = weakref.ref(conv.data)
                del conv
                backward(ad.tsum(y))
                # freed by reference counting while the block is still open
                assert alive() is None
                assert g.nodes == [] and y.creator is None
        finally:
            gc.enable()
        assert w.grad is not None and gamma.grad is not None

    def test_raising_backward_fn_propagates_and_exit_frees_tape(self):
        r = rng(4)
        x = Tensor(r.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(r.standard_normal((4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(4, np.float32), requires_grad=True)

        def boom(g):
            raise FloatingPointError("boom")

        gc.disable()
        try:
            with Graph() as graph:
                conv = ad.conv2d(x, w, Conv2dSpec(3, 4, 3))
                y = ad.batchnorm2d(conv, gamma, beta, BatchNormState.initial(4),
                                   True, silu=True)
                loss = ad.tsum(y)
                y.creator.backward_fn = boom
                alive = weakref.ref(conv.data)
                del conv, y
                with pytest.raises(FloatingPointError, match="boom"):
                    backward(loss, graph)
                with pytest.raises(ad.AutodiffError, match="already ran"):
                    backward(loss, graph)
                assert alive() is not None      # the conv node is not reached
            del graph, loss
            # the raising node was released, the rest unlinked on exit
            assert alive() is None
        finally:
            gc.enable()
        assert w.grad is None and gamma.grad is None

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros((2, 2), np.float32), requires_grad=True)
        with Graph() as g:
            y = ad.mul(x, x)
            with pytest.raises(ad.AutodiffError, match="scalar"):
                backward(y, g)

    def test_no_graph_no_recording(self):
        x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        y = ad.mul(x, x)
        assert y.creator is None
        assert not y.requires_grad

    def test_grad_flows_through_shared_operand(self):
        x = Tensor(np.array([3.0], np.float32), requires_grad=True)
        with Graph() as g:
            backward(ad.tsum(ad.mul(x, x)), g)   # both operands are x
        assert x.grad[0] == pytest.approx(6.0)

    def test_backward_after_exit_raises(self):
        x = Tensor(np.array([3.0], np.float32), requires_grad=True)
        with Graph() as g:
            loss = ad.tsum(ad.mul(x, x))
        with pytest.raises(ad.AutodiffError, match="exited"):
            backward(loss, g)
        with pytest.raises(ad.AutodiffError, match="not attached"):
            backward(loss)
        assert x.grad is None and loss.grad is None

    def test_tape_freed_without_cyclic_collector(self):
        r = rng(3)
        x = Tensor(r.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(r.standard_normal((4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(4, np.float32), requires_grad=True)
        gc.disable()
        try:
            with Graph():
                conv = ad.conv2d(x, w, Conv2dSpec(3, 4, 3))
                y = ad.silu(ad.batchnorm2d(conv, gamma, beta,
                                           BatchNormState.initial(4), True))
                backward(ad.tsum(y))
            alive = weakref.ref(conv.data)
            del conv, y
            # reference counting alone must free the tape and its activations
            assert alive() is None
        finally:
            gc.enable()
        assert w.grad is not None


# ---------------------------------------------------------------------------
# release: arrays the tape rebuilds in backward
# ---------------------------------------------------------------------------

def _count_rebuilds(t):
    """Wrap the rebuild of ``t``'s node; the list grows by one per call."""
    calls, real = [], t.creator.rebuild

    def rebuild():
        calls.append(1)
        return real()

    t.creator.rebuild = rebuild
    return calls


def _params(r, *shapes, dtype=np.float32):
    return [Tensor(r.uniform(-1, 1, s).astype(dtype), requires_grad=True)
            for s in shapes]


class TestRelease:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_three_op_silu_is_bitwise_z_times_sigmoid(self, dtype):
        r = rng(20)
        x = r.standard_normal((3, 5, 70, 90)).astype(dtype) * 4
        x[0, 0, 0, :5] = [1e4, -1e4, 0.0, -0.0, 1e-3]
        scale = r.uniform(0.1, 3, (1, 5, 1, 1)).astype(dtype)
        shift = r.uniform(-1, 1, (1, 5, 1, 1)).astype(dtype)
        scale[0, 0, 0, 0], shift[0, 0, 0, 0] = 1.0, 0.0
        z = x * scale + shift
        ref = z * ad._stable_sigmoid(z)
        with np.errstate(all="raise"):
            out = ad._affine_silu(x, scale, shift, True, np.empty_like(x))
        assert out.tobytes() == ref.tobytes()
        assert out[0, 0, 0, 0] == 1e4 and out[0, 0, 0, 1] == 0.0
        assert out[0, 0, 0, 2] == 0.0

    def test_does_nothing_without_a_graph(self):
        x = Tensor(rng(21).standard_normal((2, 3, 4, 4)).astype(np.float32))
        w = Tensor(rng(22).standard_normal((5, 3, 1, 1)).astype(np.float32))
        y = ad.conv2d(x, w, Conv2dSpec(3, 5, 1))
        data = y.data
        ad.release(y)
        assert y.data is data
        # not even a tensor the tape could never rebuild raises
        ad.release(ad.conv2d(y, Tensor(np.ones((5, 1, 3, 3), np.float32)),
                             Conv2dSpec(5, 5, 3, groups=5)))

    @pytest.mark.parametrize("case", ["depthwise", "bias_1x1", "mul", "leaf"])
    def test_an_output_the_tape_cannot_rebuild_raises(self, case):
        r = rng(23)
        x, w1, wd, b = _params(r, (2, 3, 4, 4), (3, 3, 1, 1), (3, 1, 3, 3), (3,))
        with Graph():
            t = {"depthwise": lambda: ad.conv2d(x, wd, Conv2dSpec(3, 3, 3, groups=3)),
                 "bias_1x1": lambda: ad.conv2d(x, w1, Conv2dSpec(3, 3, 1), b),
                 "mul": lambda: ad.mul(x, x),
                 "leaf": lambda: x}[case]()
            data = t.data
            with pytest.raises(ad.AutodiffError, match="cannot rebuild"):
                ad.release(t)
            assert t.data is data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["conv_1x1", "batchnorm_silu",
                                      "batchnorm", "silu"])
    def test_rebuilt_once_bitwise_and_shape_read_without_rebuild(self, kind, dtype):
        r = rng(24)
        x, w, gamma, beta = _params(r, (2, 4, 5, 6), (3, 4, 1, 1), (4,), (4,),
                                    dtype=dtype)
        op = {"conv_1x1": lambda: ad.conv2d(x, w, Conv2dSpec(4, 3, 1)),
              "batchnorm_silu": lambda: ad.batchnorm2d(
                  x, gamma, beta, BatchNormState.initial(4), True, silu=True),
              "batchnorm": lambda: ad.batchnorm2d(
                  x, gamma, beta, BatchNormState.initial(4), True),
              "silu": lambda: ad.silu(x)}[kind]
        with Graph():
            t = op()
            first = t.data.copy()
            calls = _count_rebuilds(t)
            ad.release(t)
            assert (t.shape, t.dtype, t.ndim, t.size) == (
                first.shape, first.dtype, first.ndim, first.size)
            assert calls == []
            assert t.data.tobytes() == first.tobytes()
            assert t.data.tobytes() == first.tobytes()
            assert calls == [1]

    def test_a_shape_only_consumer_never_rebuilds(self):
        r = rng(25)
        x, w, v = _params(r, (2, 4, 5, 6), (3, 4, 1, 1), (2, 3, 5, 6))
        with Graph() as g:
            y = ad.conv2d(x, w, Conv2dSpec(4, 3, 1))
            s = ad.reshape(ad.concat_channels([ad.sub(ad.add(y, v), v), y]),
                           (2, 6 * 30))
            loss = ad.tsum(ad.tmean(s, axis=1))
            calls = _count_rebuilds(y)
            ad.release(y)
            backward(loss, g)
        # the conv's own backward reads x and w, not y
        assert calls == []
        assert np.array_equal(v.grad, np.zeros_like(v.data))
        assert w.grad is not None

    def test_a_dropped_input_that_needs_no_gradient_is_freed_before_backward(self):
        x = Tensor(rng(26).standard_normal((2, 3)).astype(np.float32),
                   requires_grad=True)
        with Graph() as g:
            const = Tensor(np.ones((2, 3), np.float32))
            dead = weakref.ref(const.data)
            y = ad.add(x, const)
            del const
            gc.collect()
            assert dead() is None
            backward(ad.tsum(y), g)
        assert np.array_equal(x.grad, np.ones((2, 3), np.float32))

    def test_a_released_tensor_never_rebuilt_cannot_be_read_after_exit(self):
        x, w = _params(rng(27), (1, 2, 3, 3), (2, 2, 1, 1))
        with Graph():
            y = ad.conv2d(x, w, Conv2dSpec(2, 2, 1))
            ad.release(y)
        assert y.shape == (1, 2, 3, 3)
        with pytest.raises(ad.AutodiffError, match="cannot be rebuilt"):
            y.data
