"""Binary netpbm I/O: P6 (PPM, RGB images) and P5 (PGM, grayscale masks).

Only maxval 255 is supported.  Header comments (``# ...``) are tolerated in
any whitespace position after the magic.  Writes are atomic (temp + rename)
so concurrent readers never observe a partial file.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable

import numpy as np


class NetpbmError(ValueError):
    """Malformed netpbm data; message carries the byte offset."""


def _parse_header(buf: bytes, magic: bytes):
    pos = 0
    if buf[:2] != magic:
        raise NetpbmError(
            f"bad magic {buf[:2]!r} at byte offset 0, expected {magic!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and comment lines
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and buf[pos:pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise NetpbmError(
                f"expected integer header field at byte offset {pos}")
        fields.append(int(buf[start:pos]))
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise NetpbmError(
            f"expected single whitespace after maxval at byte offset {pos}")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise NetpbmError(f"only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise NetpbmError(f"invalid dimensions {width}x{height}")
    return width, height, pos


def _read_payload(path, magic: bytes, channels: int) -> np.ndarray:
    """The uint8 payload of a binary netpbm file as [channels, H, W]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    width, height, pos = _parse_header(buf, magic)
    need = width * height * channels
    if len(buf) - pos < need:
        raise NetpbmError(
            f"truncated pixel payload at byte offset {len(buf)}: have "
            f"{len(buf) - pos} of {need} bytes")
    raw = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    return raw.reshape(height, width, channels).transpose(2, 0, 1)


def load_image_ppm(path) -> np.ndarray:
    """Read a binary P6 image into a float32 [3, H, W] array in [0, 1]."""
    return _read_payload(path, b"P6", 3).astype(np.float32) / 255.0


def save_image_ppm(path, image: np.ndarray) -> None:
    """Write a [3, H, W] float array in [0, 1] (or uint8) as binary P6."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {arr.shape}")
    data = quantize_u8(arr).transpose(1, 2, 0)
    header = f"P6\n{arr.shape[2]} {arr.shape[1]}\n255\n".encode("ascii")
    atomic_write(path, (header, np.ascontiguousarray(data)))


def load_mask_pgm(path) -> np.ndarray:
    """Read a binary P5 mask into a float32 [1, H, W] array in {0, 1}.

    Gray levels binarize at 128 (>= 128 is foreground).
    """
    return (_read_payload(path, b"P5", 1) >= 128).astype(np.float32)


def save_mask_pgm(path, mask: np.ndarray) -> None:
    """Write a [1, H, W] (or [H, W]) binary mask as P5 with values 0/255."""
    arr = np.asarray(mask)
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise ValueError(f"expected single-channel mask, got {arr.shape}")
        arr = arr[0]
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("mask values must be strictly 0/1")
    # gray levels 0/255: a uint8 0/1 mask would pass through as levels 0/1
    save_gray_pgm(path, arr.astype(np.uint8) * 255)


def save_gray_pgm(path, values: np.ndarray) -> None:
    """Write a [H, W] map as 8-bit P5: floats in [0, 1] quantized, uint8 as is."""
    arr = np.asarray(values)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise ValueError(f"expected [H, W] map, got shape {arr.shape}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, (header, np.ascontiguousarray(quantize_u8(arr))))


def quantize_u8(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.uint8:
        return arr
    return np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)


def atomic_write(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` in turn to ``path`` through a temporary
    file and a rename, so that no copy of the whole file is built in memory.

    The file gets the mode a plain ``open`` gives (0o666 less the umask);
    ``mkstemp`` alone would leave it readable by its owner only.
    """
    path = os.fspath(path)
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
