"""NXNF checkpoints: versioned little-endian snapshots of a model's state
tree and its Adam state.

Layout (all little-endian):

    magic b"NXNF", u32 version
    u32 length + model-config echo (UTF-8 key = value lines)
    u64 step counter
    u32 array count; per array, sorted by name: u16 name length + name,
        u8 rank (<= 64), rank x u32 extents, float64 payload
    u8 optimizer flag (always 1), u64 Adam step t
    u32 length + rng-state JSON (UTF-8)

The arrays are the model's state tree (learnable parameters and the PLU
buffers ``p``/``u_sign``) and the Adam moments of each learnable parameter
as ``adam/m/<param>`` and ``adam/v/<param>``. An optimizer flag other than
1, a repeated array name, and text fields that are not UTF-8 raise
FormatError at the offending byte. Version 5 is the only version read;
versions 1-4 (older moment encodings or ``shift`` arrays) are refused.
Round trips are bit-exact; loading refuses an echo of another config. The
state tree (``restore_model``) and, on resume, the moments go through
``model.load_tree``: a missing, unknown, wrongly shaped or non-finite
array is a FormatError naming it.
Both directions stream: ``save`` writes the header fields and each array's
own buffer into ``write_atomic``'s temp file, and ``load`` reads each payload
straight into its new array once its extent is checked against the file.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import model_config_from_text
from .errors import ConfigError, FormatError

NXNF_MAGIC = b"NXNF"
NXNF_VERSION = 5
MAX_RANK = 64  # numpy's limit on array dimensions
MAX_BYTES = np.iinfo(np.intp).max  # numpy's limit on the bytes one shape spans


@dataclass
class Checkpoint:
    """One NXNF file's contents. Every checkpoint carries its optimizer
    state; a model that has not trained yet has t = 0 and zero moments."""
    config_text: str
    step: int
    params: dict          # the model's state tree, name -> float64 array
    adam_t: int           # Adam step count
    adam_m: dict          # Adam moments per learnable parameter name
    adam_v: dict
    rng_state: str        # JSON blob


def write_atomic(path, chunks) -> None:
    """Write an iterable of bytes-like chunks to a temp file in the same
    directory, then rename it over ``path``, so a failed write leaves no temp
    file and the old file as it was. The temp file's mode is 0666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-nxnf-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _chunks(ckpt: Checkpoint):
    """The NXNF bytes of ``ckpt``: header fields, and each array's own buffer."""
    arrays = dict(ckpt.params)
    for what, moments in (("m", ckpt.adam_m), ("v", ckpt.adam_v)):
        arrays.update({f"adam/{what}/{k}": v for k, v in moments.items()})
    cfg = ckpt.config_text.encode()
    yield NXNF_MAGIC + struct.pack("<II", NXNF_VERSION, len(cfg)) + cfg
    yield struct.pack("<QI", ckpt.step, len(arrays))
    for name in sorted(arrays):
        arr, nb = np.ascontiguousarray(arrays[name], dtype="<f8"), name.encode()
        yield struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape)
        yield arr
    rng = ckpt.rng_state.encode()
    yield struct.pack("<BQI", 1, ckpt.adam_t, len(rng)) + rng


def serialize(ckpt: Checkpoint) -> bytes:
    return b"".join(_chunks(ckpt))


class _Reader:
    def __init__(self, f):
        self.f = f
        self.size = f.seek(0, os.SEEK_END)
        self.pos = f.seek(0)

    def skip(self, n: int) -> int:
        """Claim the next n bytes, which must remain; returns their offset."""
        if self.pos + n > self.size:
            raise FormatError(f"truncated checkpoint, wanted {n} bytes", offset=self.pos)
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        at, raw = self.skip(n), self.f.read(n)
        if len(raw) != n:
            raise FormatError("checkpoint file shrank while it was read", offset=at)
        return raw

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        start = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not UTF-8", offset=start + e.start)


def _read(f) -> Checkpoint:
    r = _Reader(f)
    if r.take(4) != NXNF_MAGIC:
        raise FormatError("bad NXNF magic", offset=0)
    (version,) = r.unpack("<I")
    if version != NXNF_VERSION:
        raise FormatError(f"unsupported NXNF version {version}", offset=4)
    (cfg_len,) = r.unpack("<I")
    config_text = r.text(cfg_len, "config echo")
    (step,) = r.unpack("<Q")
    (count,) = r.unpack("<I")
    params, adam_m, adam_v = {}, {}, {}
    moment_trees = {"adam/m/": adam_m, "adam/v/": adam_v}
    for _ in range(count):
        name_at = r.pos
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "array name")
        moments = moment_trees.get(name[:7])
        tree, key = (params, name) if moments is None else (moments, name[7:])
        if key in tree:
            raise FormatError(f"array name {name} appears twice", offset=name_at)
        rank_at = r.pos
        (rank,) = r.unpack("<B")
        if rank > MAX_RANK:
            raise FormatError(f"array rank {rank} exceeds {MAX_RANK}", offset=rank_at)
        shape = r.unpack(f"<{rank}I")
        # numpy refuses a shape whose nonzero extents span more bytes than an
        # intp holds, even when another extent is 0
        if 8 * math.prod(e for e in shape if e) > MAX_BYTES:
            raise FormatError(f"array shape {shape} is too large", offset=rank_at)
        at = r.skip(8 * math.prod(shape))  # the extent is checked before the array is made
        tree[key] = np.empty(shape, "<f8")
        if f.readinto(tree[key]) != tree[key].nbytes:
            raise FormatError("checkpoint file shrank while it was read", offset=at)
    flag_at = r.pos
    (flag,) = r.unpack("<B")
    if flag != 1:
        raise FormatError(f"optimizer flag {flag} is not 1", offset=flag_at)
    (adam_t,) = r.unpack("<Q")
    (rng_len,) = r.unpack("<I")
    rng_state = r.text(rng_len, "rng state")
    if r.pos != r.size:
        raise FormatError("trailing bytes after checkpoint", offset=r.pos)
    return Checkpoint(config_text, step, params, adam_t, adam_m, adam_v, rng_state)


def deserialize(raw: bytes) -> Checkpoint:
    return _read(io.BytesIO(raw))


def save(ckpt: Checkpoint, path) -> None:
    write_atomic(path, _chunks(ckpt))


def load(path) -> Checkpoint:
    with open(path, "rb") as f:
        return _read(f)


def snapshot_params(model) -> dict:
    """A copy of the model's state tree."""
    return {k: v.copy() for k, v in model.state_tree().items()}


def restore_model(ckpt: Checkpoint, model) -> None:
    """Load a checkpoint's state tree into a freshly built model; the parsed
    config echo (a missing key takes its default) must equal the model's
    config and ``model.set_state`` checks every array."""
    if model_config_from_text(ckpt.config_text) != model.config:
        raise ConfigError("checkpoint config does not match the loading model's config")
    model.set_state(ckpt.params)
