"""Minimal dense tensor kernels in float64.

Tensors are plain ``numpy.ndarray`` values in one layout: rank-4
batch-major NCHW (batch, channel, row, column). Every channel product in
the model, the 1x1 mix included, is ``conv``: products in one-thread
blocks, viewed as NCHW, of the N*H*W x k*k*C_in patch rows with the kernel
as k*k*C_in x C_out columns or, on a grid of fewer than k*k pixels, of the
N x H*W*C_in sample rows with the H*W*C_in x H*W*C_out matrix of the whole
convolution. The kernel columns are one C-contiguous array (OpenBLAS
multiplies a transposed operand slower), and a product with one input
channel is the exact broadcast rows * cols[0], not a K = 1 dgemm. A k > 1
forward builds and multiplies its patch rows one block of samples at a
time, at most PATCH_BLOCK doubles of patches each, so a block stays in cache
and no whole-batch patch matrix exists. All math is done in 64-bit floats
so the finite-difference oracles have headroom.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

from .errors import ShapeError

# OpenBLAS runs a dgemm of at most this many multiply-adds (m*n*k) on one
# thread; a larger one wakes its worker pool, which keeps spinning after the call.
ONE_THREAD_MNK = 1 << 18
# A k > 1 conv forward builds the patch rows of at most this many doubles
# (512 KB, or of one sample if that is more) at a time, well inside L2.
PATCH_BLOCK = 1 << 16


def nchw(x: np.ndarray) -> tuple[int, int, int, int]:
    """The (N, C, H, W) extents of x; ShapeError unless x is rank 4."""
    if x.ndim != 4:
        raise ShapeError(f"expected a rank-4 NCHW tensor, got rank {x.ndim}")
    return x.shape


def _row_product(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ cols (M x K times K x D): at K = 1 the exact broadcast
    rows * cols[0], faster than a K = 1 dgemm; else one call when it is at
    most ONE_THREAD_MNK multiply-adds, else stacked products of row blocks of
    at most that many each, then one for the rest. M = 0 makes no call."""
    (m, k), d = rows.shape, cols.shape[1]
    if k == 1:
        return rows * cols[0]
    if 0 < m * k * d <= ONE_THREAD_MNK:
        return np.matmul(rows, cols)
    out = np.empty((m, d))
    block = max(1, ONE_THREAD_MNK // max(1, k * d))
    whole = m - m % block
    if whole:
        np.matmul(rows[:whole].reshape(-1, block, k), cols,
                  out=out[:whole].reshape(-1, block, d))
    if whole < m:
        np.matmul(rows[whole:], cols, out=out[whole:])
    return out


def _patches(x: np.ndarray, k: int) -> np.ndarray:
    """N x C x H x W -> N*H*W x k*k*C: row (n*H + i)*W + j holds the
    zero-padded k x k neighbourhood of pixel (i, j) of sample n, ordered
    (row tap, column tap, channel) like the kernel columns of ``conv``. A
    tap row's k*C values are contiguous in the padded channels-last copy, so
    the one copy that builds the matrix, from a read-only strided view made
    by the ndarray constructor (as_strided costs about 8x as much a call),
    moves runs of k*C doubles. For k = 1 the rows are the pixels' channel
    fibers, a view when x is channels-last in memory."""
    n, c, h, w = nchw(x)
    if k == 1:
        return x.transpose(0, 2, 3, 1).reshape(-1, c)
    pad = k // 2
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    sn, si, sj, sc = xp.strides
    rows = np.ndarray((n, h, w, k, k * c), xp.dtype, xp, 0, (sn, si, sj, si, sc))
    rows.flags.writeable = False
    return rows.reshape(n * h * w, k * k * c)


@functools.cache
def _taps(h: int, w: int, k: int) -> np.ndarray:
    """The read-only k*k x (h*w)^2 0/1 matrix whose entry (t, q*h*w + p) is 1
    iff tap t of output pixel p reads input pixel q (raster orders)."""
    i, j = np.divmod(np.arange(h * w), w)
    a, b = np.divmod(np.arange(k * k)[:, None], k)
    qi, qj = i + a - k // 2, j + b - k // 2
    q = np.where((0 <= qi) & (qi < h) & (0 <= qj) & (qj < w), qi * w + qj, -1)
    taps = (q[:, None, :] == np.arange(h * w)[:, None]).astype(float).reshape(k * k, -1)
    taps.flags.writeable = False
    return taps


def conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """x convolved with a C_out x C_in x k x k kernel (odd k, stride 1, zero
    padding to the same extents, no bias); a 1x1 kernel is a channel matrix.
    On a grid of fewer than k*k pixels it is one dense product per sample, so
    no padding tap is copied or multiplied. Otherwise a k > 1 kernel fills
    one N*H*W x C_out result a block of samples at a time, building and
    multiplying the patch rows of at most PATCH_BLOCK doubles (one sample at
    least) per block. The result is an NCHW view of channels-last memory."""
    n, c, h, w = nchw(x)
    if kernel.ndim != 4 or kernel.shape[1] != c or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"kernel {kernel.shape} does not fit {c} input channels")
    d, k, p = kernel.shape[0], kernel.shape[2], h * w
    # at k = 1 the reshape is a transposed view: copy it to C order
    cols = np.ascontiguousarray(kernel.transpose(2, 3, 1, 0).reshape(-1, d))
    if k == 1:
        y = _row_product(_patches(x, 1), cols)
    elif p < k * k:  # the (input pixel, channel) x (output pixel, channel) matrix
        cols = (_taps(h, w, k).T @ cols.reshape(k * k, c * d)).reshape(p, p, c, d)
        y = _row_product(x.transpose(0, 2, 3, 1).reshape(n, p * c),
                         cols.transpose(0, 2, 1, 3).reshape(p * c, p * d))
    else:
        y = np.empty((n * p, d))
        per = max(1, PATCH_BLOCK // (p * k * k * c))
        for s in range(0, n, per):
            y[s * p:(s + per) * p] = _row_product(_patches(x[s:s + per], k), cols)
    return y.reshape(n, h, w, d).transpose(0, 3, 1, 2)


def conv_backward(dy: np.ndarray, x: np.ndarray, kernel: np.ndarray):
    """(dx, dkernel): the adjoints of conv(x, kernel) for the output
    gradient dy. dx is dy convolved with the flipped, channel-transposed
    kernel. At k = 1 that is dy's pixel rows times the C_out x C_in matrix,
    and dkernel is dy's pixel rows, transposed, times x's. At k > 1 one
    patch matrix, of dy, gives both: dx is its product with the flipped
    kernel's columns, and dkernel is x's pixel rows, transposed, times it,
    with the taps flipped back. On a grid of fewer than k*k pixels dkernel
    is the tap matrix times X^T dY, and dx the dense flipped conv."""
    d, c, k, _ = kernel.shape
    if nchw(dy)[:2] != (x.shape[0], d) or dy.shape[2:] != x.shape[2:]:
        raise ShapeError(f"gradient {dy.shape} does not fit input {x.shape}")
    n, _, h, w = dy.shape
    p = h * w
    if 1 < k and p < k * k:  # X^T dY: (input pixel, channel) x (output pixel, channel)
        xty = x.transpose(0, 2, 3, 1).reshape(n, p * c).T @ dy.transpose(0, 2, 3, 1).reshape(n, p * d)
        dkernel = _taps(h, w, k) @ xty.reshape(p, c, p, d).transpose(0, 2, 1, 3).reshape(p * p, c * d)
        dx = conv(dy, kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return dx, dkernel.reshape(k, k, c, d).transpose(3, 2, 0, 1)
    if k == 1:
        rows = _patches(dy, 1)
        dkernel = (rows.T @ _patches(x, 1)).reshape(d, k, k, c)
        cols = kernel[:, :, 0, 0]
    else:
        rows = _patches(dy, k)
        dkernel = (_patches(x, 1).T @ rows).reshape(c, k, k, d)[:, ::-1, ::-1].transpose(3, 1, 2, 0)
        cols = kernel[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
    dx = _row_product(rows, cols).reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return dx, dkernel.transpose(0, 3, 1, 2)


def lu_factor(a: np.ndarray):
    """LU of a square matrix with partial pivoting: returns (perm, lower, upper).

    perm is a row-permutation vector such that a[perm] = lower @ upper,
    lower has unit diagonal. There is no pivot tolerance: the one caller,
    ``Inv1x1``, passes a rotation, whose pivots stay far from zero.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    lower = np.tril(a, -1) + np.eye(n)
    upper = np.triu(a)
    return perm, lower, upper


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
        """The seed and numpy's Philox state, less its name, as sorted-key JSON."""
        state = self._gen.bit_generator.state
        del state["bit_generator"]
        return json.dumps({"seed": self.seed, **state}, sort_keys=True,
                          default=lambda a: a.tolist())

    @classmethod
    def from_state_json(cls, text: str) -> "Rng":
        """The stream state_json wrote. numpy truncates a value that is not an
        integer (1.5, or true) and bounds neither buffer_pos, the index of the
        next of the 4 buffered words (4: none left), nor the has_uint32 flag;
        a state that does not read back as written, a buffer_pos outside 0..4
        or a has_uint32 other than 0 or 1 is a ValueError."""
        state = json.loads(text)
        rng = cls(state["seed"])
        if not 0 <= state["buffer_pos"] <= 4:
            raise ValueError(f"buffer_pos {state['buffer_pos']!r} is outside 0..4")
        rng._gen.bit_generator.state = {**state, "bit_generator": "Philox"}
        if rng.state_json() != json.dumps(state, sort_keys=True):
            raise ValueError("stream state does not read back as written "
                             "(a value that is not an integer, or an unknown key)")
        if state["has_uint32"] not in (0, 1):
            raise ValueError(f"has_uint32 {state['has_uint32']!r} is not 0 or 1")
        return rng
