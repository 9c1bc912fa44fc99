"""Synthetic generator, netpbm I/O, normalization, augmentation, splits,
dataset directories."""

import os
import re
import stat
from dataclasses import replace

import numpy as np
import pytest

from medlitenet import data as dpipe
from medlitenet.data import (
    AREA_FRACTION_RANGE,
    AugmentConfig,
    DIFFICULTIES,
    augment,
    corpus_digest,
    load_dataset_dir,
    make_split,
    normalize_imagenet,
    synth_sample,
)
from medlitenet.netpbm import (
    NetpbmError,
    load_image_ppm,
    load_mask_pgm,
    save_image_ppm,
    save_mask_pgm,
)


class TestSynthSample:
    def test_bitwise_determinism(self):
        a = synth_sample(7, 64, "irregular")
        b = synth_sample(7, 64, "irregular")
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_difficulties_differ(self):
        imgs = {d: synth_sample(3, 64, d).image.tobytes() for d in DIFFICULTIES}
        assert len(set(imgs.values())) == 3

    def test_size_validation(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            synth_sample(0, 100)

    def test_value_ranges(self):
        s = synth_sample(11, 64, "low_contrast")
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert np.isin(s.mask, (0.0, 1.0)).all()
        assert s.image.shape == (3, 64, 64)
        assert s.mask.shape == (1, 64, 64)

    @pytest.mark.parametrize("difficulty", DIFFICULTIES)
    def test_area_fraction_bounds(self, difficulty):
        lo, hi = AREA_FRACTION_RANGE
        for seed in range(25):
            frac = synth_sample(seed, 64, difficulty).mask.mean()
            assert lo <= frac <= hi

    @pytest.mark.parametrize("difficulty", DIFFICULTIES)
    def test_mask_matches_analytic_region(self, difficulty):
        # brute-force per-pixel point-in-region oracle
        seed, size = 5, 64
        sample = synth_sample(seed, size, difficulty)
        # replay the generator's geometry phase, rejections included
        geom, _ = dpipe._draw_geometry(
            dpipe._generator_rng(seed, size, difficulty), size, difficulty)
        oracle = np.zeros((size, size), dtype=np.float32)
        for y in range(size):
            for x in range(size):
                if geom.contains(x + 0.5, y + 0.5):
                    oracle[y, x] = 1.0
        assert np.array_equal(sample.mask[0], oracle)

    def test_low_contrast_color_gap(self):
        geom_rngs = [synth_sample(s, 64, "low_contrast") for s in range(5)]
        for s in geom_rngs:
            inside = s.mask[0] > 0
            border = ~inside
            gap = np.array([abs(s.image[c][inside].mean()
                                - s.image[c][border].mean()) for c in range(3)])
            # per-channel color gap stays small by construction
            assert gap.max() < 0.15

    def test_corpus_digest_stable(self):
        assert corpus_digest() == corpus_digest()


class TestNetpbm:
    def test_image_roundtrip_quantized(self, tmp_path):
        s = synth_sample(1, 64)
        path = tmp_path / "img.ppm"
        save_image_ppm(path, s.image)
        loaded = load_image_ppm(path)
        assert loaded.shape == (3, 64, 64)
        assert np.abs(loaded - s.image).max() <= 1.0 / 255.0 + 1e-6

    def test_mask_roundtrip_exact_bytes(self, tmp_path):
        s = synth_sample(2, 64)
        path = tmp_path / "m.pgm"
        save_mask_pgm(path, s.mask)
        first = path.read_bytes()
        save_mask_pgm(path, load_mask_pgm(path))
        assert path.read_bytes() == first

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, bool])
    def test_mask_is_written_as_levels_0_and_255(self, tmp_path, dtype):
        path = tmp_path / "m.pgm"
        save_mask_pgm(path, np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype))
        payload = bytes([0, 255, 255, 255, 0, 0])
        assert path.read_bytes() == b"P5\n3 2\n255\n" + payload

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_file_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "m.pgm"
        old = os.umask(umask)
        try:
            save_mask_pgm(path, synth_sample(2, 64).mask)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["m.pgm"]

    def test_pgm_payload_decoding(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
        mask = load_mask_pgm(path)
        assert np.array_equal(mask[0], [[0, 1], [0, 1]])

    def test_header_comments(self, tmp_path):
        payload = bytes(range(12))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# comment line\n2 # trailing\n2\n255\n" + payload)
        img = load_image_ppm(path)
        assert img.shape == (3, 2, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
        with pytest.raises(NetpbmError, match="magic"):
            load_image_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(NetpbmError, match="maxval"):
            load_mask_pgm(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(NetpbmError, match="byte offset"):
            load_image_ppm(path)


class TestNormalization:
    def test_mean_pixel_maps_to_zero(self):
        img = np.empty((3, 2, 2), np.float32)
        img[0], img[1], img[2] = 0.485, 0.456, 0.406
        assert np.abs(normalize_imagenet(img)).max() < 1e-6

    def test_white_pixel(self):
        out = normalize_imagenet(np.ones((3, 1, 1), np.float32))
        expected = [(1 - 0.485) / 0.229, (1 - 0.456) / 0.224, (1 - 0.406) / 0.225]
        assert np.allclose(out[:, 0, 0], expected, atol=1e-3)

    def test_invertible(self):
        img = np.random.default_rng(0).uniform(0, 1, (3, 8, 8)).astype(np.float32)
        back = (normalize_imagenet(img) * dpipe.IMAGENET_STD.reshape(3, 1, 1)
                + dpipe.IMAGENET_MEAN.reshape(3, 1, 1))
        assert np.abs(back - img).max() < 1e-6

    def test_batched_shape(self):
        batch = np.zeros((2, 3, 4, 4), np.float32)
        assert normalize_imagenet(batch).shape == (2, 3, 4, 4)


NO_AUGMENT = AugmentConfig(hflip=False, vflip=False, rot90=False,
                           brightness=0.0, contrast=(1.0, 1.0),
                           gamma=(1.0, 1.0), noise_sigma=0.0)


class TestAugment:
    def test_disabled_is_identity(self):
        s = synth_sample(4, 64)
        out = augment(s, NO_AUGMENT, seed=9)
        assert np.array_equal(out.image, s.image)
        assert np.array_equal(out.mask, s.mask)

    def test_hflip_involution(self):
        s = synth_sample(5, 64)
        cfg = replace(NO_AUGMENT, hflip=True)
        seeds = [seed for seed in range(50)
                 if not np.array_equal(augment(s, cfg, seed).image, s.image)]
        assert seeds, "expected some seeds to flip"
        seed = seeds[0]
        flipped = augment(s, cfg, seed)
        assert np.array_equal(flipped.image, s.image[:, :, ::-1])
        assert np.array_equal(flipped.mask, s.mask[:, :, ::-1])

    def test_deterministic_per_seed(self):
        s = synth_sample(6, 64)
        cfg = AugmentConfig()
        a = augment(s, cfg, seed=3)
        b = augment(s, cfg, seed=3)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_mask_stays_binary_and_area_preserved(self):
        s = synth_sample(7, 64)
        cfg = AugmentConfig()
        for seed in range(20):
            out = augment(s, cfg, seed)
            assert np.isin(out.mask, (0.0, 1.0)).all()
            assert out.mask.sum() == s.mask.sum()

    def test_photometric_range(self):
        s = synth_sample(8, 64)
        cfg = AugmentConfig(hflip=False, vflip=False, rot90=False)
        for seed in range(20):
            img = augment(s, cfg, seed).image
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(brightness=0.5)
        with pytest.raises(ValueError):
            AugmentConfig(contrast=(0.5, 1.2))
        with pytest.raises(ValueError):
            AugmentConfig(gamma=(0.7, 2.0))
        with pytest.raises(ValueError):
            AugmentConfig(noise_sigma=0.2)


class TestSplits:
    def test_disjoint_seed_ranges(self):
        train, val, test = make_split(20, 7, 5, base_seed=100)
        seeds = [s.seed for part in (train, val, test) for s in part]
        assert len(seeds) == len(set(seeds)) == 32

    def test_reproducible(self):
        a = make_split(10, 3, 2, base_seed=5)
        b = make_split(10, 3, 2, base_seed=5)
        assert a == b

    def test_difficulty_proportions(self):
        train, _, _ = make_split(40, 1, 1, base_seed=0,
                                 difficulty_mix=(0.6, 0.25, 0.15))
        counts = {d: sum(1 for s in train if s.difficulty == d)
                  for d in DIFFICULTIES}
        assert abs(counts["regular"] - 24) <= 1
        assert abs(counts["irregular"] - 10) <= 1
        assert abs(counts["low_contrast"] - 6) <= 1

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            make_split(0, 1, 1, base_seed=0)

    @pytest.mark.parametrize("mix", [(0, 0, 0), (float("inf"), 1, 1),
                                     (float("nan"), 1, 1), (1, -1, 1), (0.5, 0.5)])
    def test_difficulty_mix_validated(self, mix):
        with pytest.raises(ValueError, match="difficulty_mix must be three finite"):
            make_split(4, 1, 1, base_seed=0, difficulty_mix=mix)


class TestDatasetDir:
    def test_roundtrip_directory(self, tmp_path):
        for i in range(3):
            s = synth_sample(i, 64)
            save_image_ppm(tmp_path / f"s{i}.ppm", s.image)
            save_mask_pgm(tmp_path / f"s{i}_mask.pgm", s.mask)
        pairs = load_dataset_dir(tmp_path)
        assert [name for name, _ in pairs] == ["s0", "s1", "s2"]
        assert np.isin(pairs[0][1].mask, (0, 1)).all()

    def test_missing_mask_listed(self, tmp_path):
        s = synth_sample(0, 64)
        save_image_ppm(tmp_path / "a.ppm", s.image)
        with pytest.raises(FileNotFoundError, match="a.ppm"):
            load_dataset_dir(tmp_path)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_dir(tmp_path / "nope")

    def test_mask_of_another_size_named(self, tmp_path):
        for i in range(3):
            s = synth_sample(i, 64)
            save_image_ppm(tmp_path / f"s{i}.ppm", s.image)
            save_mask_pgm(tmp_path / f"s{i}_mask.pgm", s.mask)
        bad = tmp_path / "s1_mask.pgm"
        save_mask_pgm(bad, synth_sample(1, 32).mask)
        with pytest.raises(ValueError, match=re.escape(
                f"mask {bad} is 32x32, but its image s1.ppm is 64x64")):
            load_dataset_dir(tmp_path)
