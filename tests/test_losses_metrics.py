"""Loss and metric contracts, including the Dice/IoU algebraic identity."""

import numpy as np
import pytest

from medlitenet import losses, metrics
from medlitenet.autodiff import ShapeError, Tensor
from medlitenet.gradcheck import finite_diff_gradcheck
from medlitenet.losses import bce_loss, dice_coef_soft, dice_loss, total_loss
from medlitenet.metrics import confusion_metrics, dice_coef, iou


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDiceLoss:
    def test_perfect_prediction(self):
        g = (rng(0).uniform(0, 1, (2, 1, 8, 8)) > 0.5).astype(np.float32)
        assert dice_loss(g, g).item() <= 1e-6

    def test_hand_value(self):
        p = np.array([1.0, 1.0, 0.0, 0.0], np.float32)
        g = np.array([1.0, 0.0, 1.0, 0.0], np.float32)
        eps = 1e-6
        expected = 1.0 - (2.0 + eps) / (4.0 + eps)
        assert dice_loss(p, g).item() == pytest.approx(expected, abs=1e-6)

    def test_both_empty_is_zero(self):
        z = np.zeros(16, np.float32)
        assert dice_loss(z, z).item() == 0.0

    def test_complement_identity(self):
        p = rng(1).uniform(0, 1, (3, 1, 6, 6)).astype(np.float32)
        g = (rng(2).uniform(0, 1, (3, 1, 6, 6)) > 0.5).astype(np.float32)
        assert dice_loss(p, g).item() + dice_coef_soft(p, g).item() == \
            pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice_loss(np.zeros(4, np.float32), np.zeros(5, np.float32))


class TestBceLoss:
    def test_half_probability_is_ln2(self):
        g = (rng(0).uniform(0, 1, (64,)) > 0.5).astype(np.float32)
        p = np.full(64, 0.5, np.float32)
        assert bce_loss(p, g).item() == pytest.approx(np.log(2.0), abs=1e-6)

    def test_perfect_binary_is_clamp_floor(self):
        g = (rng(1).uniform(0, 1, (32,)) > 0.5).astype(np.float32)
        # -log(1 - delta) in float32 lands on the nearest representable step
        assert bce_loss(g, g).item() == pytest.approx(0.0, abs=2e-7)

    def test_inverted_binary_is_finite_clamp_value(self):
        # float64 keeps 1 - (1 - delta) == delta to full precision
        g = (rng(2).uniform(0, 1, (32,)) > 0.5).astype(np.float64)
        val = bce_loss(1.0 - g, g).item()
        assert val == pytest.approx(-np.log(1e-7), rel=1e-6)
        assert np.isfinite(val)
        # float32 path stays finite and lands within a percent of -log(delta)
        val32 = bce_loss((1.0 - g).astype(np.float32),
                         g.astype(np.float32)).item()
        assert np.isfinite(val32)
        assert val32 == pytest.approx(-np.log(1e-7), rel=0.02)

    def test_finite_for_any_probability(self):
        p = np.array([0.0, 1.0, 0.5, 1e-9, 1 - 1e-9], np.float32)
        g = np.array([1.0, 0.0, 1.0, 1.0, 0.0], np.float32)
        assert np.isfinite(bce_loss(p, g).item())


class TestTotalLoss:
    def test_weighted_composition(self):
        p = rng(4).uniform(0.05, 0.95, (1, 1, 8, 8))
        g = (rng(5).uniform(0, 1, (1, 1, 8, 8)) > 0.5).astype(np.float64)
        combined = total_loss(p, g).item()
        by_hand = 0.5 * bce_loss(p, g).item() + 0.5 * dice_loss(p, g).item()
        assert combined == pytest.approx(by_hand, abs=1e-9)
        # float32 path agrees to float32 resolution
        p32, g32 = p.astype(np.float32), g.astype(np.float32)
        assert total_loss(p32, g32).item() == pytest.approx(
            0.5 * bce_loss(p32, g32).item() + 0.5 * dice_loss(p32, g32).item(),
            abs=1e-6)

    def test_half_everywhere_composition(self):
        g = np.zeros((1, 1, 4, 4), np.float32)
        g[0, 0, :2] = 1.0    # balanced mask
        p = np.full_like(g, 0.5)
        expected = 0.5 * np.log(2.0) + 0.5 * dice_loss(p, g).item()
        assert total_loss(p, g).item() == pytest.approx(expected, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        p = Tensor(rng(6).uniform(0.1, 0.9, (2, 1, 5, 5)))
        g = Tensor((rng(7).uniform(0, 1, (2, 1, 5, 5)) > 0.5).astype(np.float64))
        report = finite_diff_gradcheck(lambda t: total_loss(t, g), p, tol=1e-3)
        assert report.passed, report


class TestHardMetrics:
    def test_identical_masks(self):
        m = (rng(0).uniform(0, 1, (16, 16)) > 0.4).astype(np.uint8)
        assert dice_coef(m, m) == 1.0
        assert iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.zeros((4, 4), np.uint8)
        a[0, 0] = 1
        b[3, 3] = 1
        assert dice_coef(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_half_overlap(self):
        gt = np.ones((4, 4), np.uint8)
        pred = np.zeros((4, 4), np.uint8)
        pred[:, :2] = 1
        assert iou(pred, gt) == pytest.approx(0.5)
        assert dice_coef(pred, gt) == pytest.approx(2 / 3)

    def test_both_empty_convention(self):
        z = np.zeros((8, 8), np.uint8)
        assert dice_coef(z, z) == 1.0
        assert iou(z, z) == 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            dice_coef(np.full((2, 2), 0.5), np.zeros((2, 2)))

    def test_flat_vs_2d_identical(self):
        a = (rng(1).uniform(0, 1, (12, 12)) > 0.5).astype(np.uint8)
        b = (rng(2).uniform(0, 1, (12, 12)) > 0.5).astype(np.uint8)
        assert dice_coef(a, b) == dice_coef(a.ravel(), b.ravel())
        assert iou(a, b) == iou(a.ravel(), b.ravel())
        rec2d = confusion_metrics(a, b)
        rec1d = confusion_metrics(a.ravel(), b.ravel())
        assert rec2d == rec1d


class TestDiceIouIdentity:
    # Dice = 2 IoU / (IoU + 1) holds exactly for any pair of masks

    def test_reported_pair_consistent(self):
        # the published single-model pair: Dice 0.897 +/- 0.010, IoU 0.821
        assert abs(2.0 * 0.821 / (0.821 + 1.0) - 0.897) <= 0.010

    def test_identity_over_random_masks(self):
        r = rng(3)
        worst = 0.0
        for _ in range(1000):
            a = (r.uniform(0, 1, (8, 8)) > r.uniform(0.2, 0.8)).astype(np.uint8)
            b = (r.uniform(0, 1, (8, 8)) > r.uniform(0.2, 0.8)).astype(np.uint8)
            j = iou(a, b)
            worst = max(worst, abs(dice_coef(a, b) - 2.0 * j / (j + 1.0)))
        assert worst < 1e-12


class TestConfusionMetrics:
    def test_perfect(self):
        m = (rng(0).uniform(0, 1, (8, 8)) > 0.5).astype(np.uint8)
        rec = confusion_metrics(m, m)
        assert (rec.dice, rec.iou, rec.accuracy, rec.sensitivity,
                rec.specificity) == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert rec.fp == rec.fn == 0

    def test_inverted_balanced(self):
        gt = np.zeros((4, 4), np.uint8)
        gt[:2] = 1
        rec = confusion_metrics(1 - gt, gt)
        assert rec.accuracy == 0.0
        assert rec.sensitivity == 0.0
        assert rec.specificity == 0.0

    def test_all_ones_prediction(self):
        gt = np.zeros((4, 4), np.uint8)
        gt[:2] = 1
        rec = confusion_metrics(np.ones((4, 4), np.uint8), gt)
        assert rec.sensitivity == 1.0
        assert rec.specificity == 0.0
        assert rec.accuracy == 0.5

    def test_counts_partition_pixels(self):
        a = (rng(1).uniform(0, 1, (10, 10)) > 0.3).astype(np.uint8)
        b = (rng(2).uniform(0, 1, (10, 10)) > 0.7).astype(np.uint8)
        rec = confusion_metrics(a, b)
        assert rec.tp + rec.fp + rec.tn + rec.fn == 100

    def test_degenerate_conventions(self):
        z = np.zeros((4, 4), np.uint8)
        rec = confusion_metrics(z, z)
        assert rec.sensitivity == 1.0    # no positives to find
        rec = confusion_metrics(np.ones_like(z), np.ones_like(z))
        assert rec.specificity == 1.0    # no negatives to keep
