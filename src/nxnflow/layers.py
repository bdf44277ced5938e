"""Invertible flow layers with hand-derived gradients.

Every layer follows one contract:

    forward(x)  -> (y, logdet, cache)   logdet has shape (N,), nats per sample
    inverse(y)  -> x
    backward(dy, dlogdet, cache) -> (dx, grads)

where ``dlogdet`` is dL/dlogdet per sample and ``grads`` is a list with one
array per ``params()`` entry, in ``params()`` order. Only ``params()`` names
parameters: attribute paths (``net/conv0/w`` is ``layer.net.conv0.w``) that
the model rebinds to views of one vector. Inputs are rank-4 NCHW
arrays; the model runs rank-2 points as N x D x 1 x 1, so no layer knows a
second layout. A rank-2 array passed straight to a layer is a ShapeError.

A flow step's invertible layer is the Inv1x1 mix. The paper's n x n layer
(a spatial shift, then that mix) is not built or checked yet:
``conv_reformulation`` checks direct conv against the sum of shifted 1x1s.
The mix and the conditioner's Conv2d run one kernel pair,
``tensor.conv`` and ``tensor.conv_backward``; the mix passes its C x C
matrix as a C x C x 1 x 1 kernel. A kernel-3 conditioner builds its patch
rows one cache-sized block of samples at a time in the forward and once, of
the output gradient, in the backward; on a grid of fewer than 9 pixels it
runs as one dense product per sample. A coupling's inverse keeps no caches:
its conditioner, when pointwise (rank-2 mode), runs its Conv2d layers on one
block of samples at a time (``ConditionerNet.forward_only``). Per-channel
scales are stored as logs, so they stay strictly positive and an identity
initialization is a zero log.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateChannelError, ShapeError, StateError
from .tensor import Rng, conv, conv_backward, lu_factor, nchw

# Sampling runs a pointwise conditioner, and Adam its update, on blocks of at
# most this many doubles per array: 128 KB, glibc's default mmap threshold.
# Larger blocks page-faulted on every call, smaller ones cost time.
ACTIVATION_BLOCK = 1 << 14


class ChannelAffine:
    """Per-channel affine map y = exp(log_scale) * x + bias, starting at the
    identity. A flow step uses it as actnorm: the model's one-time
    ``init_actnorms`` calls ``init_from_batch``, which sets it in place so
    the batch leaves with zero mean and unit variance per channel. The
    Jacobian is diagonal, so the log-det is H*W * sum_c log_scale_c.
    """

    def __init__(self, channels: int):
        self.log_scale = np.zeros(channels)
        self.bias = np.zeros(channels)

    def params(self):
        return {"log_scale": self.log_scale, "bias": self.bias}

    def init_from_batch(self, batch: np.ndarray) -> None:
        if batch.shape[0] < 2:
            raise StateError("data-dependent init needs at least 2 samples")
        nchw(batch)
        mu = batch.mean(axis=(0, 2, 3))
        sigma = batch.std(axis=(0, 2, 3))
        ok = (sigma >= 1e-6) & (sigma < np.inf)  # both false for a NaN std: a NaN entry, or inf - inf
        if not ok.all():
            bad = int(np.argmin(ok))  # the first refused channel
            s = sigma[bad]
            why = ("nan: the batch is not finite" if np.isnan(s) else
                   "inf: the batch variance overflows" if s == np.inf else f"{s:.3e} < 1e-6")
            raise DegenerateChannelError(f"channel {bad} has std {why}")
        self.log_scale[...] = -np.log(sigma)
        self.bias[...] = -mu / sigma

    def forward(self, x):
        n, _, h, w = nchw(x)
        y = np.exp(self.log_scale)[None, :, None, None] * x + self.bias[None, :, None, None]
        return y, np.full(n, h * w * self.log_scale.sum()), {"x": x}

    def inverse(self, y):
        nchw(y)
        scale = np.exp(self.log_scale)
        return (1.0 / scale)[None, :, None, None] * y + (-self.bias / scale)[None, :, None, None]

    def backward(self, dy, dlogdet, cache):
        x = cache["x"]
        scale = np.exp(self.log_scale)
        dx = dy * scale[None, :, None, None]
        g_bias = dy.sum(axis=(0, 2, 3))
        hw = x.shape[2] * x.shape[3]
        g_log_scale = (dy * x).sum(axis=(0, 2, 3)) * scale + hw * dlogdet.sum()
        return dx, [g_log_scale, g_bias]


class Inv1x1:
    """Invertible 1x1 convolution, PLU-parameterized.

    W = P @ L @ U with P a fixed permutation, L unit lower triangular and U
    upper triangular with diag(U) = sign * exp(log_u_diag), so invertibility
    is structural and the log-det is O(C).
    """

    def __init__(self, channels: int, rng: Rng):
        self.channels = channels
        # rotation init: orthogonal, |det| = 1, so the initial logdet is 0
        a = rng.normal((channels, channels))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))[None, :]
        perm, lower, upper = lu_factor(q)
        self.p = np.eye(channels)[np.argsort(perm)]  # a[perm] = L U -> a = P L U
        self.l_strict = np.tril(lower, -1)
        diag = np.diag(upper)
        self.u_sign = np.sign(diag)
        self.log_u_diag = np.log(np.abs(diag))
        self.u_off = np.triu(upper, 1)
        self._strict_lower = np.tri(channels, k=-1, dtype=bool)
        self._strict_upper = self._strict_lower.T
        self._eye = np.eye(channels)

    def params(self):
        return {k: getattr(self, k) for k in ("l_strict", "u_off", "log_u_diag")}

    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L (unit lower) and U (upper) from the parameters, and W = P @ L @ U."""
        lower = np.where(self._strict_lower, self.l_strict, self._eye)
        upper = np.where(self._strict_upper, self.u_off, 0.0)
        upper.flat[::self.channels + 1] = self.u_sign * np.exp(self.log_u_diag)
        return lower, upper, self.p @ lower @ upper

    @property
    def matrix(self) -> np.ndarray:
        return self._factors()[2]

    def forward(self, x):
        n, _, h, w = nchw(x)
        logdet = np.full(n, h * w * float(self.log_u_diag.sum()))
        lower, upper, matrix = self._factors()
        cache = {"x": x, "lower": lower, "upper": upper, "w": matrix}
        return conv(x, matrix[:, :, None, None]), logdet, cache

    def inverse(self, y):
        # The C x C inverse, then the forward's channel product. A triangular
        # solve over all N*H*W fibers runs OpenBLAS's multi-threaded trsm even
        # for a 2 x 2 matrix, and its woken worker keeps spinning on another
        # CPU after the call returns. A singular matrix gives a NaN output,
        # which the model's checked rerun reports with this layer's name.
        try:
            return conv(y, np.linalg.inv(self.matrix)[:, :, None, None])
        except np.linalg.LinAlgError:
            return np.full_like(y, np.nan)

    def backward(self, dy, dlogdet, cache):
        x, lower, upper = cache["x"], cache["lower"], cache["upper"]
        ld = x.shape[2] * x.shape[3] * dlogdet.sum()
        dx, gw = conv_backward(dy, x, cache["w"][:, :, None, None])
        gw = gw[:, :, 0, 0]
        g_lower = self.p.T @ gw @ upper.T
        g_upper = lower.T @ self.p.T @ gw
        g_log_u = np.diag(g_upper) * self.u_sign * np.exp(self.log_u_diag) + ld
        return dx, [np.where(self._strict_lower, g_lower, 0.0),
                    np.where(self._strict_upper, g_upper, 0.0), g_log_u]


class Conv2d:
    """Plain 3x3 / 1x1 convolution with zero padding and a bias.

    Forward and backward are ``tensor.conv`` and ``tensor.conv_backward``,
    the kernel pair the 1x1 mix runs too: products in one-thread blocks,
    viewed as NCHW, of pixel patch rows with the kernel columns, or on a grid
    of fewer than k*k pixels of sample rows with the whole convolution's
    matrix. A 3x3 forward builds the patch rows one block of samples at a
    time; backward builds one patch matrix, of dy, for both gradients. The
    cache holds only the input. Without an rng the kernel is zero.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: Rng | None):
        if rng is None:
            self.w = np.zeros((c_out, c_in, kernel, kernel))
        else:
            fan_in = c_in * kernel * kernel
            self.w = rng.normal((c_out, c_in, kernel, kernel)) * math.sqrt(2.0 / fan_in)
        self.b = np.zeros(c_out)

    def forward(self, x):
        y = conv(x, self.w)
        y += self.b[None, :, None, None]
        return y, {"x": x}

    def backward(self, dy, cache):
        dx, gw = conv_backward(dy, cache["x"], self.w)
        return dx, gw, dy.sum(axis=(0, 2, 3))


class ConditionerNet:
    """The coupling conditioner: conv -> relu -> conv -> relu -> conv(zero).

    Kernel size 3 for image data and 1 for rank-2 data (a 1x1 convolution
    on a 1x1 grid is a dense layer). The zero output layer makes the
    coupling start as the identity. ReLU works in place and keeps
    no mask: the next conv caches its output, which is > 0 exactly where
    the pre-activation is, so backward takes the mask from that cache.
    ``forward_only`` is the cache-free pass the coupling's inverse runs.
    """

    def __init__(self, c_in: int, c_out: int, hidden: int, kernel: int, rng: Rng):
        self.layers = [
            Conv2d(c_in, hidden, kernel, rng.child("conv0")),
            Conv2d(hidden, hidden, kernel, rng.child("conv1")),
            Conv2d(hidden, c_out, kernel, None),
        ]
        self.conv0, self.conv1, self.conv2 = self.layers  # the names params() uses

    def params(self):
        return {f"conv{i}/{a}": getattr(layer, a) for i, layer in enumerate(self.layers)
                for a in ("w", "b")}

    def forward(self, x):
        caches = []
        h = x
        for layer in self.layers:
            if caches:  # relu between the convs
                np.maximum(h, 0, out=h)
            h, c = layer.forward(h)
            caches.append(c)
        return h, caches

    def forward_only(self, x):
        """forward(x)[0], made for a pointwise net (kernel 1) one block of
        samples at a time, each activation at most ACTIVATION_BLOCK doubles,
        into one preallocated result: no N*H*W x hidden array exists and a
        block's caches go with it. A kernel-3 net runs ``forward`` whole."""
        if self.layers[0].w.shape[2] != 1:
            return self.forward(x)[0]
        n, _, h, w = nchw(x)
        out = np.empty((n, h, w, self.layers[-1].w.shape[0])).transpose(0, 3, 1, 2)
        per = max(1, ACTIVATION_BLOCK // (h * w * max(layer.w.shape[0] for layer in self.layers)))
        for start in range(0, n, per):
            out[start:start + per] = self.forward(x[start:start + per])[0]
        return out

    def backward(self, dout, caches):
        grads = []
        g = dout
        for i in reversed(range(len(self.layers))):
            if i < len(self.layers) - 1:
                g = g * (caches[i + 1]["x"] > 0)
            g, gw, gb = self.layers[i].backward(g, caches[i])
            grads[:0] = [gw, gb]
        return g, grads


class Coupling:
    """Affine coupling: y_a = x_a * s(x_b) + t(x_b), y_b = x_b.

    x_a is the first ceil(C/2) channels. s = exp(tanh(raw_s)) keeps the
    per-entry log-det in [-1, 1] and the conditioner's zero output layer
    makes the layer start as the identity. ``forward`` keeps the
    conditioner's caches for backward; ``inverse`` runs its cache-free
    ``forward_only``, so a pointwise conditioner makes no N*H*W x hidden array.
    """

    def __init__(self, channels: int, hidden: int, kernel: int, rng: Rng):
        if channels < 2:
            raise ShapeError("coupling needs at least 2 channels")
        self.c_a = (channels + 1) // 2
        self.c_b = channels - self.c_a
        self.net = ConditionerNet(self.c_b, 2 * self.c_a, hidden, kernel, rng)

    def params(self):
        return {f"net/{k}": v for k, v in self.net.params().items()}

    def _scale_shift(self, raw):
        """s, t and tanh(raw_s) from the conditioner's output."""
        th = np.tanh(raw[:, :self.c_a])
        return np.exp(th), raw[:, self.c_a:], th

    def forward(self, x):
        nchw(x)
        x_a, x_b = x[:, :self.c_a], x[:, self.c_a:]
        raw, caches = self.net.forward(x_b)
        s, t, th = self._scale_shift(raw)
        y = np.concatenate([x_a * s + t, x_b], axis=1)
        cache = {"x_a": x_a, "s": s, "th": th, "net": caches}
        return y, th.sum(axis=(1, 2, 3)), cache

    def inverse(self, y):
        nchw(y)
        y_a, y_b = y[:, :self.c_a], y[:, self.c_a:]
        s, t, _ = self._scale_shift(self.net.forward_only(y_b))
        return np.concatenate([(y_a - t) / s, y_b], axis=1)

    def backward(self, dy, dlogdet, cache):
        x_a, s, th = cache["x_a"], cache["s"], cache["th"]
        dy_a, dy_b = dy[:, :self.c_a], dy[:, self.c_a:]
        dx_a = dy_a * s
        dth = dy_a * x_a * s + dlogdet[:, None, None, None]
        draw_s = dth * (1.0 - th * th)
        draw = np.concatenate([draw_s, dy_a], axis=1)
        dx_b_net, net_grads = self.net.backward(draw, cache["net"])
        dx = np.concatenate([dx_a, dy_b + dx_b_net], axis=1)
        return dx, net_grads


class Squeeze:
    """Trade 2x2 spatial blocks for 4x channels; volume preserving."""

    def params(self):
        return {}

    def forward(self, x):
        y = squeeze2x2(x)
        return y, np.zeros(x.shape[0]), {}

    def inverse(self, y):
        return unsqueeze2x2(y)

    def backward(self, dy, dlogdet, cache):
        return unsqueeze2x2(dy), []


def squeeze2x2(x: np.ndarray) -> np.ndarray:
    """C x H x W -> 4C x H/2 x W/2; block order (tl, tr, bl, br) per channel."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"squeeze needs even spatial extents, got {h}x{w}")
    y = x.reshape(n, c, h // 2, 2, w // 2, 2)
    y = y.transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(y.reshape(n, 4 * c, h // 2, w // 2))


def unsqueeze2x2(y: np.ndarray) -> np.ndarray:
    n, c4, h, w = y.shape
    if c4 % 4:
        raise ShapeError(f"unsqueeze needs channels divisible by 4, got {c4}")
    c = c4 // 4
    x = y.reshape(n, c, 2, 2, h, w)
    x = x.transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(x.reshape(n, c, 2 * h, 2 * w))


def split_channels(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First half of channels continues, second half is factored out."""
    c = nchw(x)[1]
    if c % 2:
        raise ShapeError(f"split needs an even channel count, got {c}")
    half = c // 2
    return x[:, :half].copy(), x[:, half:].copy()


def unsplit_channels(kept: np.ndarray, factored: np.ndarray) -> np.ndarray:
    return np.concatenate([kept, factored], axis=1)

