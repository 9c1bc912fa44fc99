"""Synthetic dermoscopy-like data, normalization, augmentation and splits.

Every sample is fully determined by (seed, size, difficulty).  The lesion is
an analytic region -- an ellipse whose radius is modulated by a low-frequency
cosine series -- and the mask is the exact per-pixel point-in-region test of
that boundary, so tests can re-derive it independently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import require
from .netpbm import load_image_ppm, load_mask_pgm, quantize_u8

REGULAR = "regular"
IRREGULAR = "irregular"
LOW_CONTRAST = "low_contrast"
DIFFICULTIES = (REGULAR, IRREGULAR, LOW_CONTRAST)
_DIFFICULTY_CODE = {REGULAR: 1, IRREGULAR: 2, LOW_CONTRAST: 3}

AREA_FRACTION_RANGE = (0.03, 0.4)

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


@dataclass
class SegmentationSample:
    image: np.ndarray          # [3, H, W] float32 in [0, 1]
    mask: np.ndarray           # [1, H, W] float32 in {0, 1}
    seed: int
    difficulty: str = REGULAR


@dataclass
class SampleSpec:
    seed: int
    difficulty: str


@dataclass
class LesionGeometry:
    """Analytic lesion region: rotated ellipse with radial modulation.

    A point p is inside iff |q| <= g(phi) where q is p mapped into the
    unit-circle frame of the ellipse and g(phi) = 1 + sum_k a_k cos(k phi + psi_k).
    """

    cx: float
    cy: float
    r0: float
    ax: float
    ay: float
    theta: float
    orders: np.ndarray
    amps: np.ndarray
    phases: np.ndarray

    def radius_ratio(self, phi):
        g = 1.0 + sum(a * np.cos(k * phi + ps)
                      for k, a, ps in zip(self.orders, self.amps, self.phases))
        return np.maximum(g, 0.25)

    def margin(self, x, y):
        """Signed inside-distance in the normalized frame (>= 0 means inside)."""
        dx = x - self.cx
        dy = y - self.cy
        ct, st = np.cos(self.theta), np.sin(self.theta)
        ux = ct * dx + st * dy
        uy = -st * dx + ct * dy
        qx = ux / (self.ax * self.r0)
        qy = uy / (self.ay * self.r0)
        rho = np.sqrt(qx * qx + qy * qy)
        phi = np.arctan2(qy, qx)
        return self.radius_ratio(phi) - rho

    def contains(self, x, y):
        return self.margin(x, y) >= 0.0


def _sample_geometry(rng: np.random.Generator, size: int,
                     difficulty: str) -> LesionGeometry:
    if difficulty == IRREGULAR:
        orders = np.arange(2, 9)
        amp_scale = 0.16
    else:
        orders = np.arange(2, 6)
        amp_scale = 0.05
    amps = rng.uniform(0.0, amp_scale, size=len(orders)) * (3.0 / orders)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(orders))
    return LesionGeometry(
        cx=rng.uniform(0.35, 0.65) * size,
        cy=rng.uniform(0.35, 0.65) * size,
        r0=rng.uniform(0.17, 0.32) * size,
        ax=1.0,
        ay=rng.uniform(0.6, 1.0),
        theta=rng.uniform(0.0, np.pi),
        orders=orders, amps=amps, phases=phases,
    )


def _generator_rng(seed, size, difficulty) -> np.random.Generator:
    if difficulty not in _DIFFICULTY_CODE:
        raise ValueError(f"unknown difficulty {difficulty!r}, "
                         f"expected one of {DIFFICULTIES}")
    return np.random.default_rng([int(seed), int(size),
                                  _DIFFICULTY_CODE[difficulty]])


def _pixel_grid(size):
    # pixel centers at half-integer coordinates
    coords = np.arange(size, dtype=np.float64) + 0.5
    return np.meshgrid(coords, coords, indexing="xy")


def _draw_geometry(rng, size, difficulty):
    xs, ys = _pixel_grid(size)
    lo, hi = AREA_FRACTION_RANGE
    for _ in range(200):
        geom = _sample_geometry(rng, size, difficulty)
        margin = geom.margin(xs, ys)
        frac = float((margin >= 0.0).mean())
        if lo <= frac <= hi:
            return geom, margin
    raise RuntimeError("lesion geometry rejection loop did not converge")


def _smooth_field(rng, size, sigma):
    """Low-frequency noise: an 8x8 grid bilinearly upsampled to size x size."""
    from .autodiff import _upsample_matrix
    grid = rng.normal(0.0, sigma, size=(8, 8))
    a = _upsample_matrix(8, size // 8, np.float64)
    return a @ grid @ a.T


def synth_sample(seed: int, size: int, difficulty: str = REGULAR) -> SegmentationSample:
    """Generate one deterministic skin-like image with an exact lesion mask."""
    if size % 32 != 0 or size <= 0:
        raise ValueError(f"size must be a positive multiple of 32, got {size}")
    rng = _generator_rng(seed, size, difficulty)

    # phase 1: geometry (only geometry draws happen inside the rejection loop)
    geom, margin = _draw_geometry(rng, size, difficulty)
    mask = (margin >= 0.0).astype(np.float32)[None, :, :]

    # phase 2: appearance
    base = np.array([rng.uniform(0.66, 0.80),
                     rng.uniform(0.47, 0.58),
                     rng.uniform(0.38, 0.50)])
    grad_angle = rng.uniform(0.0, 2.0 * np.pi)
    grad_strength = rng.uniform(0.03, 0.10)
    xs, ys = _pixel_grid(size)
    ramp = ((xs / size - 0.5) * np.cos(grad_angle)
            + (ys / size - 0.5) * np.sin(grad_angle))
    illum = 1.0 + 2.0 * grad_strength * ramp
    texture = _smooth_field(rng, size, 0.01)

    if difficulty == LOW_CONTRAST:
        delta = rng.uniform(0.04, 0.08, size=3)
    else:
        delta = rng.uniform(0.15, 0.35, size=3)
    lesion = np.clip(base - delta, 0.02, 1.0)

    # feathered blend for the image only; the mask stays the exact predicate
    alpha = np.clip(0.5 + margin * geom.r0, 0.0, 1.0)
    img = np.empty((3, size, size), dtype=np.float64)
    for c in range(3):
        flat = base[c] * (1.0 - alpha) + lesion[c] * alpha
        img[c] = flat * illum + texture

    if rng.random() < 0.5:
        _draw_hairs(rng, img, size)

    img += rng.normal(0.0, 0.005, size=img.shape)
    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    return SegmentationSample(image=img, mask=mask, seed=seed,
                              difficulty=difficulty)


def _draw_hairs(rng, img, size):
    dark = np.array([0.06, 0.05, 0.04])
    for _ in range(int(rng.integers(1, 5))):
        x = rng.uniform(0.1, 0.9) * size
        y = rng.uniform(0.1, 0.9) * size
        angle = rng.uniform(0.0, 2.0 * np.pi)
        steps = int(rng.uniform(0.3, 0.8) * size)
        turns = rng.normal(0.0, 0.12, size=steps)
        for t in range(steps):
            xi, yi = int(x), int(y)
            if 0 <= xi < size and 0 <= yi < size:
                img[:, yi, xi] = 0.45 * img[:, yi, xi] + 0.55 * dark
            angle += turns[t]
            x += np.cos(angle)
            y += np.sin(angle)


def corpus_digest(count: int = 10, size: int = 64, base_seed: int = 0) -> str:
    """SHA-256 over the quantized bytes of a canonical sample corpus."""
    h = hashlib.sha256()
    for i in range(count):
        sample = synth_sample(base_seed + i, size, DIFFICULTIES[i % 3])
        h.update(quantize_u8(sample.image).tobytes())
        h.update(sample.mask.astype(np.uint8).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_imagenet(image: np.ndarray) -> np.ndarray:
    """Per-channel (x - mean) / std with the ImageNet statistics."""
    arr = np.asarray(image, dtype=np.float32)
    shape = (3, 1, 1) if arr.ndim == 3 else (1, 3, 1, 1)
    return (arr - IMAGENET_MEAN.reshape(shape)) / IMAGENET_STD.reshape(shape)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentConfig:
    """Flip/rotation flags and photometric ranges (all within spec bounds).

    Geometric transforms apply jointly to image and mask; photometric ones
    touch the image only and clamp back into [0, 1].
    """

    hflip: bool = True
    vflip: bool = True
    rot90: bool = True
    brightness: float = 0.2            # delta drawn from [-b, b]
    contrast: tuple = (0.8, 1.2)
    gamma: tuple = (0.7, 1.5)
    noise_sigma: float = 0.05          # sigma drawn from [0, s]

    def __post_init__(self):
        require(0.0 <= self.brightness <= 0.2, "augment.brightness",
                "must lie in [0, 0.2]", self.brightness)
        for key, lo, hi in (("contrast", 0.8, 1.2), ("gamma", 0.7, 1.5)):
            value = getattr(self, key)
            require(len(value) == 2 and lo <= value[0] <= value[1] <= hi,
                    f"augment.{key}", f"must be an ordered pair within [{lo}, {hi}]",
                    value)
        require(0.0 <= self.noise_sigma <= 0.05, "augment.noise_sigma",
                "must lie in [0, 0.05]", self.noise_sigma)


def augment(sample: SegmentationSample, config: AugmentConfig,
            seed: int) -> SegmentationSample:
    """Deterministic per-(sample, seed) augmentation."""
    rng = np.random.default_rng([int(seed), int(sample.seed)])
    img = sample.image
    mask = sample.mask

    if config.hflip and rng.random() < 0.5:
        img, mask = img[:, :, ::-1], mask[:, :, ::-1]
    if config.vflip and rng.random() < 0.5:
        img, mask = img[:, ::-1, :], mask[:, ::-1, :]
    if config.rot90 and rng.random() < 0.5:
        k = int(rng.integers(1, 4))
        img = np.rot90(img, k, axes=(1, 2))
        mask = np.rot90(mask, k, axes=(1, 2))
    img = np.ascontiguousarray(img, dtype=np.float32)
    mask = np.ascontiguousarray(mask, dtype=np.float32)

    if config.brightness > 0.0:
        img = np.clip(img + rng.uniform(-config.brightness, config.brightness),
                      0.0, 1.0)
    if tuple(config.contrast) != (1.0, 1.0):
        f = rng.uniform(*config.contrast)
        img = np.clip((img - 0.5) * f + 0.5, 0.0, 1.0)
    if tuple(config.gamma) != (1.0, 1.0):
        img = img ** rng.uniform(*config.gamma)
    if config.noise_sigma > 0.0:
        sigma = rng.uniform(0.0, config.noise_sigma)
        img = np.clip(img + rng.normal(0.0, 1.0, size=img.shape) * sigma,
                      0.0, 1.0)
    return SegmentationSample(image=img.astype(np.float32), mask=mask,
                              seed=sample.seed, difficulty=sample.difficulty)


# ---------------------------------------------------------------------------
# Splits and dataset directories
# ---------------------------------------------------------------------------

def _assign_difficulties(n: int, mix, rng) -> list:
    # largest-remainder apportionment, then a seeded shuffle
    mix = np.asarray(mix, dtype=np.float64)
    mix = mix / mix.sum()
    raw = mix * n
    counts = np.floor(raw).astype(int)
    for _ in range(n - counts.sum()):
        counts[int(np.argmax(raw - counts))] += 1
    tags = [d for d, c in zip(DIFFICULTIES, counts) for _ in range(c)]
    rng.shuffle(tags)
    return tags


def make_split(n_train: int, n_val: int, n_test: int, base_seed: int,
               difficulty_mix=(0.6, 0.25, 0.15)) -> tuple:
    """Disjoint seed ranges for train/val/test with a seeded difficulty mix."""
    if min(n_train, n_val, n_test) < 1:
        raise ValueError("all split sizes must be >= 1")
    mix = np.asarray(difficulty_mix, dtype=np.float64)
    if (mix.shape != (3,) or not np.isfinite(mix).all() or (mix < 0).any()
            or mix.sum() <= 0):
        raise ValueError("difficulty_mix must be three finite, non-negative "
                         f"proportions with a positive sum, got {difficulty_mix}")
    splits = []
    offset = base_seed
    for idx, n in enumerate((n_train, n_val, n_test)):
        rng = np.random.default_rng([int(base_seed), idx])
        tags = _assign_difficulties(n, difficulty_mix, rng)
        splits.append([SampleSpec(seed=offset + i, difficulty=tags[i])
                       for i in range(n)])
        offset += n
    return tuple(splits)


def generate_samples(specs, size: int) -> list:
    return [synth_sample(s.seed, size, s.difficulty) for s in specs]


def load_dataset_dir(path) -> list:
    """Read ``<name>.ppm`` + ``<name>_mask.pgm`` pairs from a directory.

    A sample's seed is its index in name order, which keys its augmentation.
    A mask whose size differs from its image's raises ValueError.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    images = sorted(p for p in root.glob("*.ppm"))
    unmatched = [p.name for p in images
                 if not (root / f"{p.stem}_mask.pgm").exists()]
    if unmatched:
        raise FileNotFoundError(
            f"missing mask files for: {', '.join(unmatched)}")
    if not images:
        raise FileNotFoundError(f"no .ppm images in {root}")
    out = []
    for i, p in enumerate(images):
        image = load_image_ppm(p)
        mask_path = root / f"{p.stem}_mask.pgm"
        mask = load_mask_pgm(mask_path)
        if mask.shape[1:] != image.shape[1:]:
            raise ValueError(
                f"mask {mask_path} is {mask.shape[1]}x{mask.shape[2]}, but its "
                f"image {p.name} is {image.shape[1]}x{image.shape[2]}")
        out.append((p.stem, SegmentationSample(image=image, mask=mask,
                                               seed=i, difficulty=REGULAR)))
    return out
