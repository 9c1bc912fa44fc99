"""The assembled network: output contract, determinism, the untaped forward
against the taped one, and parameter budget."""

import numpy as np
import pytest

from medlitenet import blocks
from medlitenet.autodiff import Graph, Tensor, backward, mul, tsum
from medlitenet.gradcheck import cast_module
from medlitenet.model import PARAM_GROUPS, MedLiteNet, ModelConfig


def _image(h, w, seed=0):
    return np.random.default_rng(seed).standard_normal((2, 3, h, w)).astype(np.float32)


@pytest.mark.parametrize("h,w", [(64, 64), (64, 96)])
def test_output_is_a_probability_map_of_the_input_size(h, w):
    net = MedLiteNet(ModelConfig.micro(64), seed=0)
    for set_mode in (net.train, net.eval):
        set_mode()
        out = net(Tensor(_image(h, w)))
        assert out.shape == (2, 1, h, w)
        assert out.dtype == np.float32
        assert np.isfinite(out.data).all()
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_weights_and_outputs_follow_config_and_seed():
    config = ModelConfig.micro(64)
    a, b = MedLiteNet(config, seed=3), MedLiteNet(config, seed=3)
    other = MedLiteNet(config, seed=4)
    pa, pb, po = (list(m.named_parameters()) for m in (a, b, other))
    assert [n for n, _ in pa] == [n for n, _ in pb]
    assert all(np.array_equal(x.data, y.data) for (_, x), (_, y) in zip(pa, pb))
    assert not all(np.array_equal(x.data, y.data) for (_, x), (_, y) in zip(pa, po))
    image = _image(64, 64)
    for net in (a, b):
        net.eval()
    assert np.array_equal(a(Tensor(image)).data, b(Tensor(image)).data)


def test_default_parameter_budget():
    counts = MedLiteNet(ModelConfig(), seed=0).count_parameters()
    assert counts["total"] == 3_547_671
    assert tuple(counts["breakdown"]) == PARAM_GROUPS
    assert len(PARAM_GROUPS) == 12
    assert all(n > 0 for n in counts["breakdown"].values())
    assert sum(counts["breakdown"].values()) == counts["total"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("config", [ModelConfig.micro(64), ModelConfig(input_size=64)],
                         ids=["micro64", "default64"])
def test_untaped_forward_is_bitwise_the_taped_one(config, training, dtype):
    # with no Graph the units write BatchNorm and SiLU into their own conv
    # outputs; under a Graph every op writes a fresh buffer
    image = _image(64, 64).astype(dtype)
    before = image.copy()
    runs = []
    for taped in (False, True):
        net = cast_module(MedLiteNet(config, seed=2), dtype).train(training)
        if taped:
            with Graph():
                out = net(Tensor(image))
        else:
            out = net(Tensor(image))
        assert image.tobytes() == before.tobytes()
        runs.append((out.data, list(net.named_states())))
    (plain, plain_states), (taped, taped_states) = runs
    assert plain.dtype == dtype
    assert plain.tobytes() == taped.tobytes()
    for (name, a), (_, b) in zip(plain_states, taped_states):
        assert a.mean.tobytes() == b.mean.tobytes(), name
        assert a.var.tobytes() == b.var.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_released_mbconv_maps_leave_every_gradient_bitwise(dtype, monkeypatch):
    # the reference keeps every map on the tape: the same op chain, with
    # ``release`` doing nothing
    image = _image(64, 64).astype(dtype)
    weights = Tensor(np.random.default_rng(5).uniform(
        0.5, 1.5, (2, 1, 64, 64)).astype(dtype))

    def step():
        net = cast_module(MedLiteNet(ModelConfig.micro(64), seed=4), dtype)
        x = Tensor(image, requires_grad=True)
        with Graph() as g:
            out = net(x)
            backward(tsum(mul(out, weights)), g)
        return ([out.data.tobytes(), x.grad.tobytes()]
                + [p.grad.tobytes() for _, p in net.named_parameters()])

    released = step()
    monkeypatch.setattr(blocks, "release", lambda t: None)
    assert step() == released
