"""AdamW's guard against non-finite gradients, the lifetime of the tape in
``fit``, and fused BatchNorm->SiLU units leaving training bitwise unchanged."""

import gc
import tracemalloc

import numpy as np
import pytest

from medlitenet import blocks
from medlitenet.autodiff import Parameter, batchnorm2d, silu
from medlitenet.data import synth_sample
from medlitenet.model import MedLiteNet, ModelConfig
from medlitenet.training import AdamW, NumericalError, TrainConfig, fit


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adamw_rejects_non_finite_gradient(bad):
    a = Parameter(np.ones(3, np.float32), name="a")
    b = Parameter(np.ones(2, np.float32), name="b")
    a.grad = np.full(3, 0.5, np.float32)
    b.grad = np.array([0.1, bad], np.float32)
    opt = AdamW([("a", a), ("b", b)], lr=0.1)
    with pytest.raises(NumericalError, match="non-finite gradient in parameter 'b'"):
        opt.step()
    # no weight moved, not even those checked before the bad one
    assert np.array_equal(a.data, np.ones(3, np.float32))
    assert np.array_equal(b.data, np.ones(2, np.float32))
    assert opt.step_count == 0
    b.grad[1] = 0.0
    opt.step()
    assert opt.step_count == 1
    assert (a.data < 1).all()


def test_fit_keeps_no_tape_without_cyclic_collector():
    train = [synth_sample(i, 64) for i in range(4)]
    val = [synth_sample(100 + i, 64) for i in range(2)]
    net = MedLiteNet(ModelConfig.micro(64), seed=0)   # allocated before tracing
    config = TrainConfig(batch_size=2, epochs=2, accumulation=1)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fit(net, train, val, config)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(result.step_losses) == 4
    # one micro@64 x2 tape takes about 10 MiB; all four would stay without
    # the unlink, since the collector is off
    assert kept < 1 << 20


def test_fused_units_leave_fit_bitwise_unchanged(monkeypatch):
    train = [synth_sample(i, 64) for i in range(4)]
    val = [synth_sample(100 + i, 64) for i in range(2)]
    config = TrainConfig(batch_size=2, epochs=2, accumulation=1, seed=3)

    def run():
        net = MedLiteNet(ModelConfig.micro(64), seed=3)
        result = fit(net, train, val, config)
        return net, result

    fused_net, fused = run()
    chained = []

    def two_op_chain(self, x, silu_after=False):
        chained.append(silu_after)
        out = batchnorm2d(x, self.gamma, self.beta, self.stats,
                          training=self.training, momentum=self.momentum,
                          eps=self.eps)
        return silu(out) if silu_after else out

    monkeypatch.setattr(blocks.BatchNorm2d, "__call__",
                        lambda self, x, silu=False: two_op_chain(self, x, silu))
    chain_net, chain = run()
    assert any(chained)
    assert len(fused.step_losses) == 4
    assert fused.step_losses == chain.step_losses
    assert fused.history == chain.history
    for (name, a), (_, b) in zip(fused_net.named_parameters(),
                                 chain_net.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    for (name, a), (_, b) in zip(fused_net.named_states(),
                                 chain_net.named_states()):
        assert a.mean.tobytes() == b.mean.tobytes(), name
        assert a.var.tobytes() == b.var.tobytes(), name
