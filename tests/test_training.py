"""AdamW, the cosine schedule, clipping and EMA against hand values, and the
EMA's shadow of BatchNorm stats; AdamW's guard against non-finite gradients,
which names the bad parameter through a whole optimizer step; the lifetime
of the tape in ``fit`` and in backward; ``fit`` repeating itself bitwise; its
accumulation groups, ``max_steps``, the train row of a cut epoch, the
``metrics.csv`` it writes and the inputs that ``fit`` and ``evaluate``
reject; fused BatchNorm->SiLU units leaving training bitwise unchanged; the
Dice-weighted ensemble, TTA and the shared prediction path."""

import csv
import gc
import tracemalloc

import numpy as np
import pytest

from medlitenet import blocks, training
from medlitenet.autodiff import (
    Graph,
    Parameter,
    Tensor,
    backward,
    batchnorm2d,
    silu,
)
from medlitenet.data import normalize_imagenet, synth_sample
from medlitenet.losses import total_loss
from medlitenet.model import MedLiteNet, ModelConfig
from medlitenet.training import (
    AdamW,
    EmaState,
    Ensemble,
    NumericalError,
    TrainConfig,
    batch_arrays,
    clip_grad_norm,
    cosine_lr,
    ensemble_weights,
    fit,
    predict_proba,
    tta_predict,
)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adamw_rejects_non_finite_gradient(bad):
    a = Parameter(np.ones(3, np.float32))
    b = Parameter(np.ones(2, np.float32))
    a.grad = np.full(3, 0.5, np.float32)
    b.grad = np.array([0.1, bad], np.float32)
    opt = AdamW([("a", a), ("b", b)])
    with pytest.raises(NumericalError, match="non-finite gradient in parameter 'b'"):
        opt.step(0.1)
    # no weight moved, not even those checked before the bad one
    assert np.array_equal(a.data, np.ones(3, np.float32))
    assert np.array_equal(b.data, np.ones(2, np.float32))
    assert opt.step_count == 0
    b.grad[1] = 0.0
    opt.step(0.1)
    assert opt.step_count == 1
    assert (a.data < 1).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_gradient_is_named_through_a_whole_step(bad):
    net = MedLiteNet(ModelConfig.micro(32), seed=0)
    named = list(net.named_parameters())
    for _, p in named:
        p.grad = np.full_like(p.data, 0.01)   # global norm above clip_norm
    head_bias = dict(named)["head.bias"]
    head_bias.grad[0] = bad
    with pytest.raises(NumericalError, match="parameter 'head.bias'"):
        training._apply_step(named, AdamW(named), EmaState(net), TrainConfig(),
                             1e-3, 1)
    # clipping left every gradient as it was
    assert all((p.grad == 0.01).all() for name, p in named if name != "head.bias")


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


def test_backward_peak_stays_at_the_forward_end_tape():
    # nodes are released as backward passes their gradients on, so the
    # activations they free make room for the gradients still to come
    net = MedLiteNet(ModelConfig.small(64), seed=0).train()
    images, masks = batch_arrays([synth_sample(i, 64) for i in range(2)])

    def step():
        with Graph():
            loss = total_loss(net(Tensor(images)), Tensor(masks))
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            return after_forward, tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        step()                      # gradient buffers and caches exist after it
        after_forward, peak = step()
    finally:
        tracemalloc.stop()
    assert peak <= after_forward + (1 << 20)


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
                          training=self.training, momentum=self.momentum)
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


def _adamw_closed_form(p0, grads, lr, b1, b2, eps, wd):
    """Textbook AdamW with decoupled decay, step by step in float64."""
    p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * wd * p
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return p


def test_adamw_matches_closed_form_with_decay_exemption():
    lr, b1, b2, eps, wd = 0.1, 0.8, 0.9, 1e-8, 0.05
    w0, n0 = np.array([1.0, -2.0, 0.5]), np.array([0.25, 3.0])
    w = Parameter(w0.copy())
    n = Parameter(n0.copy())
    n.decay_exempt = True
    opt = AdamW([("w", w), ("norm", n)], betas=(b1, b2), eps=eps,
                weight_decay=wd)
    gw = [np.array([0.5, -1.0, 2.0]), np.array([-0.25, 0.75, 1.0])]
    gn = [np.array([1.5, -0.5]), np.array([0.5, 0.25])]
    # one step: with m and v bias-corrected, the update is g / (|g| + eps)
    w.grad, n.grad = gw[0].copy(), gn[0].copy()
    opt.step(lr)
    assert np.allclose(w.data, w0 * (1 - lr * wd) - lr * gw[0] / (np.abs(gw[0]) + eps),
                       rtol=1e-12, atol=0)
    assert np.allclose(n.data, n0 - lr * gn[0] / (np.abs(gn[0]) + eps),
                       rtol=1e-12, atol=0)
    w.grad, n.grad = gw[1].copy(), gn[1].copy()
    opt.step(lr)
    assert opt.step_count == 2
    assert np.allclose(w.data, _adamw_closed_form(w0, gw, lr, b1, b2, eps, wd),
                       rtol=1e-12, atol=0)
    assert np.allclose(n.data, _adamw_closed_form(n0, gn, lr, b1, b2, eps, 0.0),
                       rtol=1e-12, atol=0)


def test_cosine_lr_hand_values_and_range():
    assert cosine_lr(0, 10, 1e-3, 1e-5) == pytest.approx(1e-3, rel=1e-15)
    assert cosine_lr(5, 10, 1e-3, 1e-5) == pytest.approx(0.5 * (1e-3 + 1e-5),
                                                          rel=1e-15)
    assert cosine_lr(10, 10, 1e-3, 1e-5) == pytest.approx(1e-5, rel=1e-15)
    for epoch in (-1, 11):
        with pytest.raises(ValueError, match=rf"epoch {epoch} outside \[0, 10\]"):
            cosine_lr(epoch, 10, 1e-3, 1e-5)


def test_clip_grad_norm_scale_and_clipped_norm():
    a = Parameter(np.zeros(2))
    b = Parameter(np.zeros(1))
    idle = Parameter(np.zeros(3))      # no gradient: skipped
    a.grad, b.grad = np.array([3.0, 4.0]), np.array([12.0])   # global norm 13
    assert clip_grad_norm([a, b, idle], max_norm=13.0) == 1.0
    assert np.array_equal(a.grad, [3.0, 4.0]) and np.array_equal(b.grad, [12.0])
    scale = clip_grad_norm([a, b, idle], max_norm=6.5)
    assert scale == 0.5
    assert np.array_equal(a.grad, [1.5, 2.0]) and np.array_equal(b.grad, [6.0])
    assert np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2)) == 6.5
    assert idle.grad is None


def test_ema_averaged_divides_out_the_startup_bias():
    holder = blocks.Module()
    holder.p = p = Parameter(np.array([2.0, -4.0]))
    ema = EmaState(holder, decay=0.5)
    assert np.array_equal(ema.averaged()["p"], p.data)   # before any update
    ema.update()
    # shadow (1-d)*p1, corrected by 1-d: exactly p1
    assert np.array_equal(ema.averaged()["p"], [2.0, -4.0])
    values = [np.array([2.0, -4.0]), np.array([6.0, 0.0]), np.array([-2.0, 8.0])]
    for value in values[1:]:
        p.data = value.copy()
        ema.update()
    d = 0.5
    want = (1 - d) * (d * d * values[0] + d * values[1] + values[2]) / (1 - d ** 3)
    assert np.allclose(ema.averaged()["p"], want, rtol=1e-15, atol=0)
    assert ema.num_updates == 3


def test_ema_shadows_the_state_dict_including_batchnorm_stats():
    unit = blocks.ConvBnSiLU(3, 4, 3, np.random.default_rng(0))
    ema = EmaState(unit, decay=0.5)
    assert list(ema.shadow) == list(unit.state_dict())
    (bn, state), = unit.named_states()
    means = []
    for seed in (1, 2):
        x = np.random.default_rng(seed).standard_normal((2, 3, 8, 8))
        unit.train()(Tensor(x.astype(np.float32)))
        means.append(state.mean.copy())
        ema.update()
    averaged = ema.averaged()
    stats = {f"{bn}.running_mean", f"{bn}.running_var"}
    assert set(ema.averaged_states()) == stats
    for name, value in ema.averaged_states().items():
        assert np.array_equal(value, averaged[name])
    want = 0.5 * (0.5 * means[0] + means[1]) / (1 - 0.5 ** 2)
    assert np.allclose(averaged[f"{bn}.running_mean"], want, rtol=1e-6, atol=0)


def test_two_micro_fits_are_bitwise_equal():
    train = [synth_sample(i, 32) for i in range(4)]
    val = [synth_sample(100 + i, 32) for i in range(2)]
    config = TrainConfig(batch_size=2, epochs=2, accumulation=2, seed=5)

    def run():
        return fit(MedLiteNet(ModelConfig.micro(32), seed=5), train, val, config)

    first, second = run(), run()
    assert len(first.step_losses) == 4
    assert first.step_losses == second.step_losses
    assert first.history == second.history


@pytest.fixture
def step_spy(monkeypatch):
    """The micro-batch count of each optimizer step that ``fit`` takes."""
    counts = []
    real = training._apply_step

    def spy(named, opt, ema, config, lr, micro_count):
        counts.append(micro_count)
        real(named, opt, ema, config, lr, micro_count)

    monkeypatch.setattr(training, "_apply_step", spy)
    return counts


def _fit_three_micro_batches_an_epoch(**kwargs):
    # 6 samples in batches of 2, accumulated in twos: each epoch takes a
    # group of two micro-batches, then a tail group of one
    train = [synth_sample(i, 32) for i in range(6)]
    val = [synth_sample(100, 32)]
    config = TrainConfig(batch_size=2, accumulation=2, epochs=3, augment=False)
    return fit(MedLiteNet(ModelConfig.micro(32), seed=0), train, val, config,
               **kwargs)


def test_fit_averages_a_tail_group_by_its_own_count(step_spy):
    result = _fit_three_micro_batches_an_epoch()
    assert step_spy == [2, 1] * 3
    assert len(result.step_losses) == 9


def test_fit_stops_at_max_steps_reached_by_a_tail_group(step_spy):
    result = _fit_three_micro_batches_an_epoch(max_steps=2)
    assert step_spy == [2, 1]
    assert len(result.step_losses) == 3
    assert [row["epoch"] for row in result.history] == [0, 0]


def test_train_rows_weight_step_losses_by_batch_size_also_in_a_cut_epoch():
    # 5 samples in batches of 2, 2 and 1, one step each: epoch 0 runs whole,
    # and max_steps=5 cuts epoch 1 after its two batches of two
    train = [synth_sample(i, 32) for i in range(5)]
    config = TrainConfig(batch_size=2, accumulation=1, epochs=2, augment=False)
    result = fit(MedLiteNet(ModelConfig.micro(32), seed=0), train,
                 [synth_sample(100, 32)], config, max_steps=5)
    losses = result.step_losses
    assert len(losses) == 5
    first, cut = (row for row in result.history if row["split"] == "train")
    assert first["loss"] == pytest.approx(
        (2 * losses[0] + 2 * losses[1] + losses[2]) / 5, rel=1e-12)
    assert cut["loss"] == pytest.approx((2 * losses[3] + 2 * losses[4]) / 4,
                                        rel=1e-12)


def test_metrics_csv_reads_back_as_the_history(tmp_path):
    result = _fit_three_micro_batches_an_epoch(out_dir=tmp_path)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == training.CSV_HEADER
    assert len(rows) == len(result.history) == 6
    for cells, row in zip(rows, result.history):
        assert int(cells[0]) == row["epoch"] and cells[1] == row["split"]
        for cell, key in zip(cells[2:5], ("loss", "dice", "iou")):
            assert float(cell) == pytest.approx(row[key], abs=5e-7)
        assert float(cells[5]) == pytest.approx(row["lr"], rel=5e-9)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_fit_rejects_max_steps_below_one(step_spy, max_steps):
    with pytest.raises(ValueError, match=f"max_steps must be >= 1, got {max_steps}"):
        _fit_three_micro_batches_an_epoch(max_steps=max_steps)
    assert step_spy == []


def test_evaluate_rejects_an_empty_sample_list():
    with pytest.raises(ValueError, match="needs at least one sample"):
        training.evaluate(MedLiteNet(ModelConfig.micro(32), seed=0), [])


@pytest.mark.parametrize("n_train, n_val", [(0, 1), (1, 0)])
def test_fit_rejects_an_empty_sample_list(tmp_path, n_train, n_val):
    samples = [synth_sample(i, 32) for i in range(2)]
    with pytest.raises(ValueError, match="at least one training and one "
                                         f"validation sample, got {n_train} "
                                         f"and {n_val}"):
        fit(MedLiteNet(ModelConfig.micro(32), seed=0), samples[:n_train],
            samples[1:1 + n_val], TrainConfig(epochs=1), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


class _Constant:
    """A model stub whose map is ``value`` at every pixel."""

    def __init__(self, value, channels=1):
        self.value, self.channels = value, channels

    def __call__(self, x):
        n, _, h, w = x.shape
        return Tensor(np.full((n, self.channels, h, w), self.value, np.float32))


def test_ensemble_weights_members_by_val_dice():
    ensemble = Ensemble([_Constant(0.25), _Constant(0.75)], [0.6, 0.4])
    out = ensemble(Tensor(np.zeros((2, 3, 32, 64), np.float32)))
    # 0.6 * 0.25 + 0.4 * 0.75
    assert np.array_equal(out.data, np.full((2, 1, 32, 64), np.float32(0.45)))
    assert out.data.dtype == np.float32


@pytest.mark.parametrize("dices, member", [([float("nan"), 0.5], 0),
                                           ([0.5, float("inf")], 1)])
def test_ensemble_weights_reject_non_finite_dice(dices, member):
    with pytest.raises(ValueError, match=f"Dice of member {member} is not finite"):
        ensemble_weights(dices)


def test_ensemble_rejects_mismatched_members():
    with pytest.raises(ValueError, match="one validation Dice per model"):
        Ensemble([_Constant(0.5)], [0.5, 0.5])
    ensemble = Ensemble([_Constant(0.5), _Constant(0.5, channels=2)], [0.5, 0.5])
    with pytest.raises(ValueError, match="output shape"):
        ensemble(Tensor(np.zeros((1, 3, 32, 32), np.float32)))


class _Pointwise:
    """Maps each pixel on its own, so it commutes with every flip and rotation."""

    def eval(self):
        return self

    def __call__(self, x):
        return Tensor(np.tanh(x.data[:, :1] - 2 * x.data[:, 2:]))


def test_tta_inverts_every_view():
    # non-square, so a rotation left uninverted changes the shape or the values
    x = np.random.default_rng(0).standard_normal((1, 3, 32, 64)).astype(np.float32)
    net = _Pointwise()
    assert tta_predict(net, x).tobytes() == net(Tensor(x)).data.tobytes()


def test_predict_proba_normalizes_then_runs_the_eval_model():
    net = MedLiteNet(ModelConfig.micro(32), seed=0)
    x = np.random.default_rng(1).uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
    prob = predict_proba(net, x)
    assert not net.training
    assert prob.tobytes() == net(Tensor(normalize_imagenet(x))).data.tobytes()
    assert predict_proba(net, x, tta=True).tobytes() == \
        tta_predict(net, normalize_imagenet(x)).tobytes()
