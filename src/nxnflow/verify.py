"""Independent numerical oracles: finite-difference Jacobians, the
shifted-1x1 convolution reformulation check, round trips, and density
normalization by grid quadrature.

These deliberately avoid the analytic code paths they certify: Jacobians and
gradients come entry by entry from ``central_differences``, the one
perturb-evaluate-restore loop, at the fixed step ``FD_STEP``, and log-dets
from LAPACK's ``slogdet``; the convolution check compares a brute-force
sliding window against the shifted-sum and fused forms on a D x C x kh x kw
kernel laid out like ``Conv2d.w``, and quadrature integrates exp(log_prob)
on a dense grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Rng

FD_STEP = 1e-5  # central-difference step on float64: ~1e-10 entry error


@dataclass
class CheckResult:
    name: str
    passed: bool
    metric: float
    threshold: float

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name},{status},{self.metric:.6e},{self.threshold:.6e}"


def central_differences(f, flat: np.ndarray) -> np.ndarray:
    """Row i is (f+ - f-) / (2 FD_STEP): f() with flat[i] moved by +FD_STEP
    and by -FD_STEP in place, then restored bit-exactly. f reads the live
    vector ``flat`` and may return a scalar or an array."""
    rows = []
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        rows.append((fp - fm) / (2.0 * FD_STEP))
    return np.array(rows)


def numerical_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Dense Jacobian of f at x by central differences; rows = outputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.size > 64:
        raise ShapeError(f"jacobian build capped at 64 dims, got {x.size}")
    flat = x.ravel().copy()
    return central_differences(lambda: np.asarray(f(flat.reshape(x.shape))).ravel(), flat).T


def numerical_logdet(layer, x: np.ndarray) -> float:
    """slogdet of the finite-difference Jacobian of a layer's forward map.

    x is a single sample (no batch axis); the layer sees a batch of one.
    """
    def f(xi):
        y, _, _ = layer.forward(xi[None])
        return y[0]

    jac = numerical_jacobian(f, x)
    sign, logabs = np.linalg.slogdet(jac)
    if sign == 0:
        raise ShapeError("numerical Jacobian is singular")
    return float(logabs)


def max_offdiagonal(jac: np.ndarray) -> float:
    off = jac.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off))) if off.size else 0.0


# -- Eq. (standard conv = sum of shifted 1x1 convs) check --------------------

def kernel_taps(kernel: np.ndarray, x: np.ndarray) -> list:
    """The (D x C tap matrix, (di, dj)) pairs of a D x C x kh x kw kernel in
    raster order; tap (a, b) reads x[:, i + a - kh//2, j + b - kw//2] of a
    C x H x W input. ShapeError unless kh and kw are odd and x has C channels."""
    _, c, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0 or x.shape[0] != c:
        raise ShapeError(f"kernel {kernel.shape} needs odd extents and the input's "
                         f"{x.shape[0]} channels")
    return [(kernel[:, :, a, b], (a - kh // 2, b - kw // 2)) for a in range(kh) for b in range(kw)]


def shift_input(x: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Spatially shift a C x H x W array with zero fill: out[.., i, j] =
    x[.., i + di, j + dj] where in range."""
    c, h, w = x.shape
    out = np.zeros_like(x)
    si0, si1 = max(0, di), min(h, h + di)
    sj0, sj1 = max(0, dj), min(w, w + dj)
    out[:, si0 - di:si1 - di, sj0 - dj:sj1 - dj] = x[:, si0:si1, sj0:sj1]
    return out


def direct_convolution(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Brute-force sliding window, pixel by pixel: y[:, i, j] = sum over taps
    of tap @ x[:, i + di, j + dj], zero padded."""
    taps = kernel_taps(kernel, x)
    _, h, w = x.shape
    y = np.zeros((kernel.shape[0], h, w))
    for i in range(h):
        for j in range(w):
            for tap, (di, dj) in taps:
                ii, jj = i + di, j + dj
                if 0 <= ii < h and 0 <= jj < w:
                    y[:, i, j] += tap @ x[:, ii, jj]
    return y


def shifted_sum_convolution(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over taps of a 1x1 convolution applied to the shifted input."""
    y = np.zeros((kernel.shape[0],) + x.shape[1:])
    for tap, (di, dj) in kernel_taps(kernel, x):
        y += np.einsum("dc,chw->dhw", tap, shift_input(x, di, dj))
    return y


def conv_reformulation_check(kernel: np.ndarray, x: np.ndarray, shared_shift=None) -> float:
    """Max deviation over (a) direct conv vs the sum of shifted 1x1 convs, and
    (b) the taps applied one by one to ``shared_shift(x)`` vs one 1x1 conv with
    their sum (numpy's sum over the stacked raster-order taps), which checks
    linearity only, not that a spatial shift then a 1x1 is an n x n conv."""
    direct = direct_convolution(kernel, x)
    shifted = shifted_sum_convolution(kernel, x)
    dev = float(np.max(np.abs(direct - shifted))) if direct.size else 0.0
    sx = shared_shift(x) if shared_shift is not None else x
    taps = [tap for tap, _ in kernel_taps(kernel, x)]
    per_tap = np.zeros_like(direct)
    for tap in taps:
        per_tap += np.einsum("dc,chw->dhw", tap, sx)
    fused = np.einsum("dc,chw->dhw", np.sum(taps, axis=0), sx)
    return max(dev, float(np.max(np.abs(per_tap - fused))))


# -- round trips and quadrature ----------------------------------------------

@dataclass
class RoundTripReport:
    max_reconstruction: float
    max_logdet_asymmetry: float


def roundtrip_suite(make_layer, make_input, trials: int, rng: Rng) -> RoundTripReport:
    """For each trial, build a fresh layer and input, then measure
    max |x - inv(fwd(x))| and |logdet(fwd) at x + logdet contribution of inv|.

    The inverse log-det is recomputed as the negated forward log-det at the
    reconstructed point, which must agree with the forward value.
    """
    max_rec = 0.0
    max_asym = 0.0
    for t in range(trials):
        tr = rng.child(f"trial{t}")
        layer = make_layer(tr.child("layer"))
        x = make_input(tr.child("input"))
        y, ld_fwd, _ = layer.forward(x)
        x_rec = layer.inverse(y)
        _, ld_again, _ = layer.forward(x_rec)
        max_rec = max(max_rec, float(np.max(np.abs(x - x_rec))))
        max_asym = max(max_asym, float(np.max(np.abs(ld_fwd - ld_again))))
    return RoundTripReport(max_rec, max_asym)


def quadrature_normalization(model, bound: float = 6.0, step: float = 0.05) -> float:
    """Riemann-sum mass of exp(log_prob) for a rank-2 model on [-b, b]^2."""
    if model.config.mode != "rank2" or model.config.dim != 2:
        raise ShapeError("quadrature oracle needs a rank-2 model with dim 2")
    axis = np.arange(-bound, bound + step / 2, step)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    mass = 0.0
    for start in range(0, pts.shape[0], 8192):
        lp = model.log_prob(pts[start:start + 8192])
        mass += float(np.exp(lp).sum())
    return mass * step * step


# -- gradient checking ---------------------------------------------------------

def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_param_gradients(loss_fn, params: dict, analytic: list) -> float:
    """Max relative error of analytic parameter gradients, one per `params`
    entry in its order, vs central differences of loss_fn(), which must read
    the live `params` arrays."""
    return max((relative_error(g.ravel(), central_differences(loss_fn, arr.ravel()))
                for arr, g in zip(params.values(), analytic, strict=True)), default=0.0)


def check_input_gradient(loss_of_x, x: np.ndarray, analytic: np.ndarray) -> float:
    flat = x.ravel().copy()
    return relative_error(analytic.ravel(),
                          central_differences(lambda: loss_of_x(flat.reshape(x.shape)), flat))
