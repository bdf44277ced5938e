"""Minimal dense tensor kernels in float64.

Tensors are plain ``numpy.ndarray`` values in one layout: rank-4
batch-major NCHW (batch, channel, row, column). Every channel product is
an N*H*W x C_in by C_in x C_out product of pixel rows in one-thread blocks,
viewed as NCHW. All math is done in 64-bit floats so the finite-difference
oracles have headroom.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ShapeError

# Relative pivot tolerance below which an LU pivot is treated as zero.
PIVOT_TOL = 1e-12
# OpenBLAS runs a dgemm of at most this many multiply-adds (m*n*k) on one
# thread; a larger one wakes its worker pool, which keeps spinning after the call.
ONE_THREAD_MNK = 1 << 18


def nchw(x: np.ndarray) -> tuple[int, int, int, int]:
    """The (N, C, H, W) extents of x; ShapeError unless x is rank 4."""
    if x.ndim != 4:
        raise ShapeError(f"expected a rank-4 NCHW tensor, got rank {x.ndim}")
    return x.shape


def channel_affine(x: np.ndarray, scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out[n,c,i,j] = scale[c] * x[n,c,i,j] + bias[c]."""
    scale = np.asarray(scale, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    c = nchw(x)[1]
    if scale.shape != (c,) or bias.shape != (c,):
        raise ShapeError(
            f"scale/bias must have length {c}, got {scale.shape} and {bias.shape}"
        )
    return scale[None, :, None, None] * x + bias[None, :, None, None]


def _row_product(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ cols (M x K times K x D) as stacked products of row blocks of
    at most ONE_THREAD_MNK multiply-adds each, then one for the rest."""
    (m, k), d = rows.shape, cols.shape[1]
    out = np.empty((m, d))
    block = max(1, ONE_THREAD_MNK // max(1, k * d))
    whole = m - m % block
    if whole:
        np.matmul(rows[:whole].reshape(-1, block, k), cols,
                  out=out[:whole].reshape(-1, block, d))
    if whole < m:
        np.matmul(rows[whole:], cols, out=out[whole:])
    return out


def channel_matmul(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the C_out x C_in matrix w to the channel fiber at every pixel.
    The result is an NCHW view of channels-last memory."""
    w = np.asarray(w, dtype=np.float64)
    n, c, h, wd = nchw(x)
    if w.ndim != 2:
        raise ShapeError(f"w must be a matrix, got rank {w.ndim}")
    if w.shape[1] != c:
        raise ShapeError(f"w has {w.shape[1]} columns but x has {c} channels")
    y = _row_product(x.transpose(0, 2, 3, 1).reshape(-1, c), w.T)
    return y.reshape(n, h, wd, w.shape[0]).transpose(0, 3, 1, 2)


def channel_outer(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum over batch and pixels of dy[n,:,i,j] x[n,:,i,j]^T, a D x C matrix:
    the gradient of channel_matmul(w, x) with respect to w."""
    if nchw(dy)[0] != nchw(x)[0] or dy.shape[2:] != x.shape[2:]:
        raise ShapeError(f"batch and pixel extents differ: {dy.shape} and {x.shape}")
    return np.tensordot(dy, x, axes=([0, 2, 3], [0, 2, 3]))


def lu_factor(a: np.ndarray):
    """LU with partial pivoting: returns (perm, lower, upper).

    perm is a row-permutation vector such that a[perm] = lower @ upper,
    lower has unit diagonal. Pivots below PIVOT_TOL relative to the
    largest magnitude in the matrix are treated as zero.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    perm = np.arange(n)
    scale = np.max(np.abs(a)) if n else 0.0
    tol = PIVOT_TOL * max(scale, 1.0)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= tol:
            a[k, k] = 0.0
            continue
        if p != k:
            a[[k, p]] = a[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    lower = np.tril(a, -1) + np.eye(n)
    upper = np.triu(a)
    return perm, lower, upper


def lu_slogdet(w: np.ndarray) -> tuple[int, float]:
    """(sign, log|det|) via LU with partial pivoting; sign 0 iff singular."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    perm, _, upper = lu_factor(w)
    diag = np.diag(upper)
    if np.any(diag == 0.0):
        return 0, -np.inf
    # permutation parity: count transpositions needed to sort perm
    visited = np.zeros(n, dtype=bool)
    swaps = 0
    for i in range(n):
        if visited[i]:
            continue
        j = i
        cycle = 0
        while not visited[j]:
            visited[j] = True
            j = perm[j]
            cycle += 1
        swaps += cycle - 1
    sign = -1 if swaps % 2 else 1
    sign *= int(np.prod(np.sign(diag)))
    return sign, float(np.sum(np.log(np.abs(diag))))


def _derive_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Deterministic, splittable random stream (counter-based Philox).

    Identical seed and call sequence yields an identical stream on any
    platform. ``child(label)`` derives an independent stream whose seed
    depends only on (seed, label).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, label: str) -> "Rng":
        return Rng(_derive_seed(self.seed, label))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape, dtype=np.float64)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def state_json(self) -> str:
        st = self._gen.bit_generator.state
        enc = {
            "seed": self.seed,
            "state": {k: v.tolist() for k, v in st["state"].items()},
            "buffer": st["buffer"].tolist(),
            "buffer_pos": st["buffer_pos"],
            "has_uint32": st["has_uint32"],
            "uinteger": st["uinteger"],
        }
        return json.dumps(enc, sort_keys=True)

    @classmethod
    def from_state_json(cls, text: str) -> "Rng":
        enc = json.loads(text)
        rng = cls(enc["seed"])
        rng._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {k: np.array(v, dtype=np.uint64) for k, v in enc["state"].items()},
            "buffer": np.array(enc["buffer"], dtype=np.uint64),
            "buffer_pos": enc["buffer_pos"],
            "has_uint32": enc["has_uint32"],
            "uinteger": enc["uinteger"],
        }
        return rng
