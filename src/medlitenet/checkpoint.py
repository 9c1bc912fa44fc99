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

Loading builds the header's config through ``errors.parse``, as a YAML
``model:`` section, which checks its types and ranges, and checks each tensor
table by name and shape; a fault is a ``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Optional

import numpy as np

from .autodiff import ShapeError
from .blocks import check_tensor_table
from .errors import ConfigError, parse
from .model import MedLiteNet, ModelConfig
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

    def unpack(self, fmt: str, what: str) -> int:
        """One little-endian unsigned integer of struct format ``fmt``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


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
        version = r.unpack("<I", "version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} at byte offset 4")
        json_len = r.unpack("<I", "json length")
        try:
            payload = json.loads(r.text(json_len, "json payload"))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"invalid json payload: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError("json payload is not an object")
        count = r.unpack("<I", "tensor count")
        tensors = {}
        for i in range(count):
            name_len = r.unpack("<H", f"name length of tensor {i}")
            name = r.text(name_len, f"name of tensor {i}")
            dtype = r.unpack("<B", f"dtype of {name}")
            if dtype != _DTYPE_F32:
                raise CheckpointError(
                    f"unknown dtype code {dtype} for tensor {name!r} at byte "
                    f"offset {r.pos - 1}")
            rank = r.unpack("<B", f"rank of {name}")
            dims = tuple(r.unpack("<Q", f"dim {d} of {name}") for d in range(rank))
            tensors[name] = r.array(dims, f"data of {name}")
        if r.pos != r.size:
            raise CheckpointError(
                f"{r.size - r.pos} trailing bytes at byte offset {r.pos}")
    return payload, tensors


def _stored_tables(model: MedLiteNet, tensors: dict) -> dict:
    """``tensors`` as ``{prefix: {name: array}}``, each table checked against
    ``model``; returning drops the references to its initial arrays."""
    state = model.state_dict()
    params = {name: p.data for name, p in model.named_parameters()}
    tables = {"": state}
    if any(name.startswith("ema/") for name in tensors):
        tables["ema/"] = state
    if any(name.startswith("opt/") for name in tensors):
        tables["opt/exp_avg/"] = tables["opt/exp_avg_sq/"] = params
    check_tensor_table(tensors, {prefix + name: arr
                                 for prefix, table in tables.items()
                                 for name, arr in table.items()})
    return {prefix: {name: tensors[prefix + name] for name in table}
            for prefix, table in tables.items()}


def load_checkpoint(path, expected_config: Optional[ModelConfig] = None) -> tuple:
    """Rebuild the model from a checkpoint.

    The stored config is parsed as a YAML ``model`` section; ``seed`` and
    ``meta.optimizer_step`` must be non-negative integers.  The tensors must
    be the model's ``state_dict``, optionally again under ``ema/``, and its
    parameters under ``opt/exp_avg/`` and ``opt/exp_avg_sq/``, by name and
    shape.  Any fault raises ``CheckpointError``.

    Returns (model, extras) where extras carries ``ema_shadow``,
    ``optimizer_state`` (or None) and the stored ``meta`` dict.
    """
    payload, tensors = read_checkpoint(path)
    try:
        config = parse(ModelConfig, payload.get("config"), "model")
    except ConfigError as exc:
        raise CheckpointError(f"invalid stored config: {exc}") from exc
    want = (expected_config or config).to_dict()
    diff = [k for k, v in config.to_dict().items() if want[k] != v]
    if diff:
        raise CheckpointError(
            f"checkpoint config does not match requested build "
            f"(differs in: {', '.join(diff)})")
    seed, meta = payload.get("seed", 0), payload.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"stored meta must be an object, got {meta!r}")
    step = meta.get("optimizer_step", 0)
    for key, value in (("seed", seed), ("meta.optimizer_step", step)):
        if type(value) is not int or value < 0:
            raise CheckpointError(
                f"stored {key} must be a non-negative integer, got {value!r}")

    model = MedLiteNet(config, seed=seed)
    try:
        stored = _stored_tables(model, tensors)
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint does not fit the model: {exc}") from exc
    model.load_state_dict(stored[""])
    opt_state = None
    if "opt/exp_avg/" in stored:
        opt_state = {"exp_avg": stored["opt/exp_avg/"],
                     "exp_avg_sq": stored["opt/exp_avg_sq/"], "step": step}
    extras = {"ema_shadow": stored.get("ema/"), "optimizer_state": opt_state,
              "meta": meta}
    return model, extras
