"""NXNF checkpoints: versioned little-endian parameter snapshots.

Layout (all little-endian):

    magic b"NXNF", u32 version
    u32 length + model-config echo (UTF-8 key = value lines)
    u64 step counter
    u32 array count; per array (learnable parameters and the PLU buffers
        ``p``/``u_sign``, sorted by name): u16 name length + name,
        u8 rank (<= 64), rank x u32 extents, float64 payload
    u8 optimizer-present flag; if set: u64 t, u32 state count, then per
        learnable parameter (sorted by name): u16 name length + name, and
        the Adam m then v payloads, float64, in the shape of that array
    u32 length + rng-state JSON (UTF-8)

Text fields that are not UTF-8 raise FormatError at the offending byte.
Version 3's config echo has no 1x1-mode line (the 1x1 convolution is
always PLU); versions 1 and 2 are refused. Round trips are bit-exact;
loading refuses a mismatched config echo.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

NXNF_MAGIC = b"NXNF"
NXNF_VERSION = 3
MAX_RANK = 64  # numpy's limit on array dimensions


@dataclass
class Checkpoint:
    config_text: str
    step: int
    params: dict          # name -> float64 array
    adam_t: int | None    # None when no optimizer state
    adam_m: dict
    adam_v: dict
    rng_state: str        # JSON blob


def write_atomic(path, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-nxnf-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode()
    parts = [struct.pack("<H", len(nb)), nb, struct.pack("<B", arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def serialize(ckpt: Checkpoint) -> bytes:
    cfg = ckpt.config_text.encode()
    parts = [NXNF_MAGIC, struct.pack("<I", NXNF_VERSION),
             struct.pack("<I", len(cfg)), cfg,
             struct.pack("<Q", ckpt.step),
             struct.pack("<I", len(ckpt.params))]
    names = sorted(ckpt.params)
    for name in names:
        parts.append(_pack_array(name, ckpt.params[name]))
    if ckpt.adam_t is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(struct.pack("<Q", ckpt.adam_t))
        opt_names = sorted(ckpt.adam_m)
        parts.append(struct.pack("<I", len(opt_names)))
        for name in opt_names:
            nb = name.encode()
            parts.append(struct.pack("<H", len(nb)))
            parts.append(nb)
            parts.append(np.ascontiguousarray(ckpt.adam_m[name], dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(ckpt.adam_v[name], dtype="<f8").tobytes())
    rng = ckpt.rng_state.encode()
    parts.append(struct.pack("<I", len(rng)))
    parts.append(rng)
    return b"".join(parts)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated checkpoint, wanted {n} bytes", offset=self.pos)
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        start = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not UTF-8", offset=start + e.start)


def deserialize(raw: bytes) -> Checkpoint:
    r = _Reader(raw)
    if r.take(4) != NXNF_MAGIC:
        raise FormatError("bad NXNF magic", offset=0)
    (version,) = r.unpack("<I")
    if version != NXNF_VERSION:
        raise FormatError(f"unsupported NXNF version {version}", offset=4)
    (cfg_len,) = r.unpack("<I")
    config_text = r.text(cfg_len, "config echo")
    (step,) = r.unpack("<Q")
    (count,) = r.unpack("<I")
    params = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "array name")
        rank_at = r.pos
        (rank,) = r.unpack("<B")
        if rank > MAX_RANK:
            raise FormatError(f"array rank {rank} exceeds {MAX_RANK}", offset=rank_at)
        shape = r.unpack(f"<{rank}I")
        # numpy refuses a shape whose nonzero extents span more bytes than an
        # intp holds, even when another extent is 0
        if 8 * math.prod(e for e in shape if e) > np.iinfo(np.intp).max:
            raise FormatError(f"array shape {shape} is too large", offset=rank_at)
        size = math.prod(shape)
        arr = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape).copy()
        params[name] = arr
    (has_opt,) = r.unpack("<B")
    adam_t, adam_m, adam_v = None, {}, {}
    if has_opt:
        (adam_t,) = r.unpack("<Q")
        (opt_count,) = r.unpack("<I")
        for _ in range(opt_count):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len, "array name")
            if name not in params:
                raise FormatError(f"optimizer state for unknown param {name!r}",
                                  offset=r.pos)
            shape = params[name].shape
            size = params[name].size
            adam_m[name] = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape).copy()
            adam_v[name] = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape).copy()
    (rng_len,) = r.unpack("<I")
    rng_state = r.text(rng_len, "rng state")
    if r.pos != len(raw):
        raise FormatError("trailing bytes after checkpoint", offset=r.pos)
    return Checkpoint(config_text, step, params, adam_t, adam_m, adam_v, rng_state)


def save(ckpt: Checkpoint, path) -> None:
    write_atomic(path, serialize(ckpt))


def load(path) -> Checkpoint:
    with open(path, "rb") as f:
        return deserialize(f.read())


def snapshot_params(model) -> dict:
    """Learnable parameters plus non-learnable buffers, copied."""
    out = {k: v.copy() for k, v in model.param_tree().items()}
    out.update({k: v.copy() for k, v in model.buffer_tree().items()})
    return out


def restore_model(ckpt: Checkpoint, model) -> None:
    """Load parameters into a freshly built model; config echo must match."""
    if ckpt.config_text != model.config.to_text():
        raise ConfigError("checkpoint config does not match the loading model's config")
    buffer_names = set(model.buffer_tree())
    model.set_params({k: v for k, v in ckpt.params.items() if k not in buffer_names})
    model.set_buffers({k: v for k, v in ckpt.params.items() if k in buffer_names})
    for steps in model.steps:
        for step in steps:
            step.actnorm.initialized = True
