"""Versioned binary checkpoint container.

Layout (little-endian):

    magic "MLN1" | u32 version | u32 json_len | json payload
    u32 tensor_count
    per tensor: u16 name_len | utf-8 name | u8 dtype (0 = float32)
                | u8 rank | u64 dims... | raw row-major data

The JSON payload echoes the model config plus run metadata (seed, step count,
best validation Dice).  Model tensors are stored under their
``Module.state_dict`` names, the one naming scheme of parameters and
BatchNorm running stats; EMA shadows use the same names under ``ema/`` and
optimizer moments under ``opt/exp_avg/`` and ``opt/exp_avg_sq/``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Optional

import numpy as np

from .autodiff import ShapeError
from .model import ConfigError, MedLiteNet, ModelConfig
from .netpbm import atomic_write

MAGIC = b"MLN1"
FORMAT_VERSION = 1
_DTYPE_F32 = 0


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def _tensor_chunks(name: str, arr: np.ndarray):
    """The header of one tensor record, then its data as a buffer, not a copy."""
    data = np.ascontiguousarray(arr, dtype="<f4")
    name_b = name.encode("utf-8")
    if len(name_b) > 0xFFFF:
        raise CheckpointError(f"tensor name too long: {name!r}")
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<BB", _DTYPE_F32, data.ndim)
    head += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
    return head, data


def save_checkpoint(model: MedLiteNet, path, *, ema_shadow: Optional[dict] = None,
                    optimizer_state: Optional[dict] = None,
                    meta: Optional[dict] = None) -> None:
    """Serialize model (+ optional EMA / optimizer state) atomically.

    Tensors are written one at a time from their own buffers, so saving
    allocates no more than the largest tensor needing a float32 cast.
    """
    payload = {
        "config": model.config.to_dict(),
        "seed": model.seed,
        "meta": dict(meta or {}),
    }
    entries = list(model.state_dict().items())
    if ema_shadow is not None:
        entries.extend(("ema/" + name, arr) for name, arr in ema_shadow.items())
    if optimizer_state is not None:
        payload["meta"]["optimizer_step"] = int(optimizer_state.get("step", 0))
        for name, arr in optimizer_state.get("exp_avg", {}).items():
            entries.append(("opt/exp_avg/" + name, arr))
        for name, arr in optimizer_state.get("exp_avg_sq", {}).items():
            entries.append(("opt/exp_avg_sq/" + name, arr))

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def chunks():
        yield MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob))
        yield blob
        yield struct.pack("<I", len(entries))
        for name, arr in entries:
            yield from _tensor_chunks(name, arr)

    atomic_write(path, chunks())


class _Reader:
    """Reads a checkpoint in order, checking each length against the file."""

    def __init__(self, fh):
        self.fh = fh
        self.pos = 0
        self.size = os.fstat(fh.fileno()).st_size

    def _truncated(self, n: int, what: str) -> CheckpointError:
        return CheckpointError(
            f"truncated checkpoint: needed {n} bytes for {what} at byte "
            f"offset {self.pos}, file has {self.size}")

    def take(self, n: int, what: str) -> bytes:
        if n > self.size - self.pos:
            raise self._truncated(n, what)
        out = self.fh.read(n)
        if len(out) != n:
            raise self._truncated(n, what)
        self.pos += n
        return out

    def array(self, dims: tuple, what: str) -> np.ndarray:
        """A float32 array of shape ``dims`` read straight into its buffer."""
        n = 4 * math.prod(dims)
        if n > self.size - self.pos:
            raise self._truncated(n, what)
        try:
            arr = np.empty(dims, dtype="<f4")
        except ValueError as exc:
            raise CheckpointError(f"invalid shape {dims} for {what}: {exc}") from exc
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != n:
            raise self._truncated(n, what)
        self.pos += n
        return arr

    def text(self, n: int, what: str) -> str:
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{what} at byte offset {self.pos - n} is not utf-8: {exc}") from exc

    def u8(self, what):
        return self.take(1, what)[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


def read_checkpoint(path) -> tuple:
    """Parse a checkpoint file into (payload dict, {name: array}).

    Every malformed file raises ``CheckpointError``; each tensor is read into
    its own array once its byte count is known to fit in the file.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise CheckpointError(
                f"bad magic {magic!r} at byte offset 0, expected {MAGIC!r}")
        version = r.u32("version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} at byte offset 4")
        json_len = r.u32("json length")
        try:
            payload = json.loads(r.text(json_len, "json payload"))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"invalid json payload: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError("json payload is not an object")
        count = r.u32("tensor count")
        tensors = {}
        for i in range(count):
            name_len = r.u16(f"name length of tensor {i}")
            name = r.text(name_len, f"name of tensor {i}")
            dtype = r.u8(f"dtype of {name}")
            if dtype != _DTYPE_F32:
                raise CheckpointError(
                    f"unknown dtype code {dtype} for tensor {name!r} at byte "
                    f"offset {r.pos - 1}")
            rank = r.u8(f"rank of {name}")
            dims = tuple(r.u64(f"dim {d} of {name}") for d in range(rank))
            tensors[name] = r.array(dims, f"data of {name}")
        if r.pos != r.size:
            raise CheckpointError(
                f"{r.size - r.pos} trailing bytes at byte offset {r.pos}")
    return payload, tensors


def load_checkpoint(path, expected_config: Optional[ModelConfig] = None) -> tuple:
    """Rebuild the model from a checkpoint.

    Returns (model, extras) where extras carries ``ema_shadow``,
    ``optimizer_state`` (or None) and the stored ``meta`` dict.
    """
    payload, tensors = read_checkpoint(path)
    try:
        config = ModelConfig.from_dict(payload["config"])
        config.validate()
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"invalid stored config: {exc}") from exc
    if expected_config is not None and expected_config.to_dict() != config.to_dict():
        diff = [k for k, v in config.to_dict().items()
                if expected_config.to_dict().get(k) != v]
        raise CheckpointError(
            f"checkpoint config does not match requested build "
            f"(differs in: {', '.join(diff)})")

    model = MedLiteNet(config, seed=int(payload.get("seed", 0)))
    try:
        model.load_state_dict({name: arr for name, arr in tensors.items()
                               if not name.startswith(("ema/", "opt/"))})
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint does not fit the model: {exc}") from exc

    ema_shadow = {name[len("ema/"):]: arr for name, arr in tensors.items()
                  if name.startswith("ema/")} or None
    opt_state = None
    avg = {name[len("opt/exp_avg/"):]: arr for name, arr in tensors.items()
           if name.startswith("opt/exp_avg/")}
    avg_sq = {name[len("opt/exp_avg_sq/"):]: arr for name, arr in tensors.items()
              if name.startswith("opt/exp_avg_sq/")}
    if avg:
        opt_state = {"exp_avg": avg, "exp_avg_sq": avg_sq,
                     "step": int(payload.get("meta", {}).get("optimizer_step", 0))}
    extras = {"ema_shadow": ema_shadow, "optimizer_state": opt_state,
              "meta": payload.get("meta", {}), "config": config}
    return model, extras
