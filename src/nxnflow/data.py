"""Datasets: synthetic 2D densities, textures, and the NXNI format.

NXNI is a flat little-endian binary container for small integer image sets:

    offset 0   magic  b"NXNI"
    offset 4   u32 version (currently 1)
    offset 8   u32 count, u32 channels, u32 height, u32 width, u32 bits
    offset 28  payload: count*channels*height*width unsigned bytes, NCHW order

Every payload value must be < 2^bits. Samples can also be written as a P6
PPM montage. Every writer here replaces its file atomically.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_atomic
from .errors import ConfigError, DataError, FormatError
from .tensor import Rng

NXNI_MAGIC = b"NXNI"
NXNI_VERSION = 1
_HEADER = struct.Struct("<4sIIIIII")

GENERATORS_2D = ("eight_gaussians", "two_moons", "checkerboard")


@dataclass
class Dataset2D:
    points: np.ndarray  # N x 2 float64


@dataclass
class ImageDataset:
    images: np.ndarray  # count x C x H x W uint8
    bits: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataError(f"images must be rank 4, got rank {self.images.ndim}")
        if self.images.size and self.images.max() >= (1 << self.bits):
            raise DataError(f"image values must be < 2^{self.bits}")


def _normalize(points: np.ndarray) -> np.ndarray:
    mu = points.mean(axis=0)
    sigma = points.std(axis=0)
    sigma[sigma < 1e-12] = 1.0
    return (points - mu) / sigma


def gen_2d(kind: str, n: int, rng: Rng) -> Dataset2D:
    """Standard synthetic 2D densities, normalized to zero mean, unit scale."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    if kind == "eight_gaussians":
        # modes on a radius-2 circle, std 0.2, before normalization
        angles = 2.0 * math.pi * np.arange(8) / 8.0
        centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        which = rng.integers(0, 8, (n,))
        points = centers[which] + 0.2 * rng.normal((n, 2))
    elif kind == "two_moons":
        theta = math.pi * rng.uniform((n,))
        upper = rng.integers(0, 2, (n,)).astype(bool)
        x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
        y = np.where(upper, np.sin(theta), 0.5 - np.sin(theta))
        points = np.stack([x, y], axis=1) + 0.08 * rng.normal((n, 2))
    elif kind == "checkerboard":
        x = rng.uniform((n,), -4.0, 4.0)
        shift = rng.integers(0, 2, (n,)) * 2.0 - 1.0
        y = rng.uniform((n,), 0.0, 1.0) + shift + np.floor(x) % 2
        points = np.stack([x, 2.0 * y - 1.0], axis=1)
    else:
        raise ConfigError(f"unknown 2D generator {kind!r}")
    if n == 1:
        return Dataset2D(points=points)
    return Dataset2D(points=_normalize(points))


def save_images(ds: ImageDataset, path) -> None:
    count, c, h, w = ds.images.shape
    header = _HEADER.pack(NXNI_MAGIC, NXNI_VERSION, count, c, h, w, ds.bits)
    write_atomic(path, [header + np.ascontiguousarray(ds.images, dtype=np.uint8).tobytes()])


def load_images(path) -> ImageDataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise FormatError("truncated NXNI header", offset=len(raw))
    magic, version, count, c, h, w, bits = _HEADER.unpack_from(raw, 0)
    if magic != NXNI_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != NXNI_VERSION:
        raise FormatError(f"unsupported NXNI version {version}", offset=4)
    if not (1 <= bits <= 8):
        raise FormatError(f"invalid bit depth {bits}", offset=24)
    expected = count * c * h * w
    if len(raw) != _HEADER.size + expected:
        raise FormatError(
            f"payload length {len(raw) - _HEADER.size} != expected {expected}",
            offset=_HEADER.size)
    payload = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    limit = 1 << bits
    if payload.size and payload.max() >= limit:
        bad = int(np.argmax(payload >= limit))
        raise FormatError(f"value {payload[bad]} >= 2^{bits}", offset=_HEADER.size + bad)
    return ImageDataset(images=payload.reshape(count, c, h, w).copy(), bits=bits)


def save_ppm_montage(images: np.ndarray, bits: int, path) -> None:
    """Write C x H x W integer images as one P6 PPM, 8 to a row: one channel
    is grey, two are red and green with blue 0, and from three on the first
    three are RGB."""
    count = images.shape[0]
    c, h, w = images.shape[1:]
    cols = max(1, min(8, count))
    rows = max(1, (count + cols - 1) // cols)
    canvas = np.zeros((3, rows * h, cols * w), dtype=np.uint8)
    scale = 255 // max((1 << bits) - 1, 1)
    for i in range(count):
        r, col = divmod(i, cols)
        img = images[i].astype(np.uint16) * scale
        if c == 1:
            img = np.repeat(img, 3, axis=0)
        rgb = img[:3].astype(np.uint8)
        canvas[:len(rgb), r * h:(r + 1) * h, col * w:(col + 1) * w] = rgb
    header = f"P6\n{canvas.shape[2]} {canvas.shape[1]}\n255\n".encode()
    write_atomic(path, [header + canvas.transpose(1, 2, 0).tobytes()])


def gen_textures(n: int, channels: int, size: int, bits: int, rng: Rng) -> ImageDataset:
    """Synthetic low-entropy textures: smooth two-color gradients plus a
    little quantization noise. Structured enough that a small flow beats the
    uniform baseline quickly."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    levels = (1 << bits) - 1
    ii, jj = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    out = np.empty((n, channels, size, size), dtype=np.uint8)
    for i in range(n):
        theta = rng.uniform((), 0.0, 2.0 * math.pi)
        ramp = (math.cos(theta) * ii + math.sin(theta) * jj + 1.0) / 2.0
        phase = rng.uniform((), 0.0, 2.0 * math.pi)
        freq = rng.uniform((), 0.5, 2.0)
        wave = 0.5 + 0.5 * np.sin(2.0 * math.pi * freq * ramp + phase)
        for ch in range(channels):
            lo = rng.uniform((), 0.0, 0.4)
            hi = rng.uniform((), 0.6, 1.0)
            vals = lo + (hi - lo) * wave + 0.02 * rng.normal((size, size))
            out[i, ch] = np.clip(np.rint(vals * levels), 0, levels).astype(np.uint8)
    return ImageDataset(images=out, bits=bits)


def save_points_csv(points: np.ndarray, path) -> None:
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in points)
    write_atomic(path, [text.encode()])


def load_points_csv(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 at byte offset {e.start}")
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise DataError(f"{path} line {lineno}: not a number: {line!r}")
        if not all(map(math.isfinite, row)):
            raise DataError(f"{path} line {lineno}: not a finite number: {line!r}")
        if rows and len(row) != len(rows[0]):
            raise DataError(f"{path} line {lineno}: {len(row)} columns, "
                            f"expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        return np.zeros((0, 2))
    return np.asarray(rows, dtype=np.float64)
