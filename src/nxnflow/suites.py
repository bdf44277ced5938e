"""Named verification suites behind the `verify` CLI command.

Each suite returns a list of CheckResult rows; the command exits nonzero
iff any row fails. Random instances are driven by labeled child streams of
one seed, so reports are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import verify
from .layers import ChannelAffine, Coupling, Inv1x1, Squeeze
from .model import ModelConfig, MultiScaleModel
from .tensor import Rng, conv
from .verify import CheckResult

LAYER_KINDS = ("actnorm", "shift", "inv1x1_plu", "coupling")


def random_layer(kind: str, channels: int, rng: Rng, hidden: int = 8, kernel: int = 3):
    if kind in ("actnorm", "shift"):
        layer = ChannelAffine(channels)
        layer.log_scale = 0.5 * rng.normal((channels,))
        layer.bias = rng.normal((channels,))
        return layer
    if kind == "inv1x1_plu":
        layer = Inv1x1(channels, rng.child("init"))
        layer.l_strict = np.tril(rng.normal((channels, channels)), -1)
        layer.u_off = np.triu(rng.normal((channels, channels)), 1)
        layer.log_u_diag = 0.5 * rng.normal((channels,))
        return layer
    if kind == "coupling":
        layer = Coupling(channels, hidden, kernel, rng.child("init"))
        for arr in layer.net.params().values():
            arr += 0.3 * rng.normal(arr.shape)
        return layer
    if kind == "squeeze":
        return Squeeze()
    raise ValueError(f"unknown layer kind {kind!r}")


def random_small_model(rng: Rng, mode: str = "image") -> MultiScaleModel:
    if mode == "image":
        cfg = ModelConfig(mode="image", channels=2, height=4, width=4,
                          depth_k=2, levels=2, hidden_width=8, bits=5)
    else:
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=3, levels=1, hidden_width=8)
    model = MultiScaleModel(cfg, rng.child("build"))
    model.theta += 0.2 * rng.normal(model.theta.shape)
    return model


def analytic_logdet(layer, x: np.ndarray) -> float:
    _, ld, _ = layer.forward(x[None])
    return float(ld[0])


def suite_layers(seed: int, trials: int = 200, model_trials: int = 20,
                 logdet_instances: int = 25) -> list[CheckResult]:
    """Round trips, log-det antisymmetry, and finite-difference log-dets."""
    rng = Rng(seed).child("layers")
    results = []
    cases = [(kind, lambda r, k=kind: random_layer(k, 4, r), (2, 4, 4, 4))
             for kind in LAYER_KINDS + ("squeeze",)]
    # a rank-2 mode coupling whose 300 pixel rows are two conditioner blocks
    cases.append(("coupling_pointwise",
                  lambda r: random_layer("coupling", 4, r, hidden=32, kernel=1), (75, 4, 2, 2)))
    for kind, make_layer, shape in cases:
        rep = verify.roundtrip_suite(
            make_layer, lambda r, s=shape: r.normal(s),
            trials, rng.child(f"roundtrip/{kind}"))
        results.append(CheckResult(f"roundtrip/{kind}", rep.max_reconstruction <= 1e-9,
                                   rep.max_reconstruction, 1e-9))
        results.append(CheckResult(f"logdet_antisymmetry/{kind}",
                                   rep.max_logdet_asymmetry <= 1e-10,
                                   rep.max_logdet_asymmetry, 1e-10))
    # full-model round trip
    mrng = rng.child("model")
    worst = 0.0
    for t in range(model_trials):
        m = random_small_model(mrng.child(f"trial{t}"))
        x = mrng.child(f"x{t}").normal((2, 2, 4, 4))
        out = m.forward(x)
        worst = max(worst, float(np.max(np.abs(x - m.inverse(out.z_parts)))))
    results.append(CheckResult("roundtrip/full_model", worst <= 1e-8, worst, 1e-8))
    # analytic vs finite-difference log-determinants (dim <= 48)
    for kind in LAYER_KINDS:
        lrng = rng.child(f"fd_logdet/{kind}")
        worst = 0.0
        for t in range(logdet_instances):
            tr = lrng.child(f"trial{t}")
            layer = random_layer(kind, 3, tr.child("layer"))
            x = tr.child("x").normal((3, 4, 4))
            analytic = analytic_logdet(layer, x)
            numeric = verify.numerical_logdet(layer, x)
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            worst = max(worst, rel)
        results.append(CheckResult(f"fd_logdet/{kind}", worst <= 1e-4, worst, 1e-4))
    # shift-layer Jacobian diagonality
    srng = rng.child("diagonality")
    layer = random_layer("shift", 3, srng.child("layer"))
    x = srng.child("x").normal((3, 3, 3))
    jac = verify.numerical_jacobian(lambda xi: layer.forward(xi[None])[0][0], x)
    off = verify.max_offdiagonal(jac)
    results.append(CheckResult("shift_jacobian_offdiagonal", off <= 1e-8, off, 1e-8))
    return results


def layer_loss_gradients(layer, x: np.ndarray, rng: Rng) -> tuple[float, float]:
    """Max relative FD error of (parameter grads, input grad) for a random
    linear-in-(y, logdet) loss probing the full backward pass."""
    y0, ld0, _ = layer.forward(x)
    w_y = rng.normal(y0.shape)
    w_ld = rng.normal(ld0.shape)

    def loss_at(xi):
        y, ld, _ = layer.forward(xi)
        return float((w_y * y).sum() + (w_ld * ld).sum())

    y, ld, cache = layer.forward(x)
    dx, grads = layer.backward(w_y, w_ld, cache)
    perr = verify.check_param_gradients(lambda: loss_at(x), layer.params(), grads)
    xerr = verify.check_input_gradient(loss_at, x, dx)
    return perr, xerr


def suite_gradients(seed: int) -> list[CheckResult]:
    """Hand-derived adjoints vs central finite differences."""
    rng = Rng(seed).child("gradients")
    results = []
    for kind in LAYER_KINDS:
        krng = rng.child(kind)
        layer = random_layer(kind, 4, krng.child("layer"), hidden=6)
        x = krng.child("x").normal((2, 4, 3, 3))
        perr, xerr = layer_loss_gradients(layer, x, krng.child("loss"))
        results.append(CheckResult(f"grad_params/{kind}", perr <= 1e-5, perr, 1e-5))
        results.append(CheckResult(f"grad_input/{kind}", xerr <= 1e-5, xerr, 1e-5))
    # a kernel-3 coupling on a 2x2 grid, smaller than its kernel: the dense conv path
    krng = rng.child("coupling_2x2")
    layer = random_layer("coupling", 4, krng.child("layer"), hidden=6)
    perr, xerr = layer_loss_gradients(layer, krng.child("x").normal((2, 4, 2, 2)), krng.child("loss"))
    results.append(CheckResult("grad_params/coupling_2x2", perr <= 1e-5, perr, 1e-5))
    results.append(CheckResult("grad_input/coupling_2x2", xerr <= 1e-5, xerr, 1e-5))
    # whole-model NLL gradient on a tiny rank-2 model, entry by entry over theta
    mrng = rng.child("model")
    model = random_small_model(mrng, mode="rank2")
    x = mrng.child("x").normal((4, 2))
    numeric = verify.central_differences(lambda: float(-model.log_prob(x).mean()), model.theta)
    err = verify.relative_error(model.loss_and_grads(x)[1], numeric)
    results.append(CheckResult("grad_params/full_model", err <= 1e-5, err, 1e-5))
    return results


def random_conv_kernel(rng: Rng, kernel: int, c: int, d: int) -> np.ndarray:
    """A D x C x k x k kernel whose taps are k*k D x C normal draws in raster order."""
    return rng.normal((kernel * kernel, d, c)).reshape(kernel, kernel, d, c).transpose(2, 3, 0, 1)


def suite_conv_equiv(seed: int, specs: int = 100) -> list[CheckResult]:
    """Direct sliding-window conv vs shifted-1x1 sum vs fused shared-shift,
    and vs ``tensor.conv``, the kernel every channel product in the model runs."""
    rng = Rng(seed).child("conv_equiv")
    worst = kernel_worst = 0.0
    for t in range(specs):
        tr = rng.child(f"spec{t}")
        kernel = 1 if int(tr.child("k").integers(0, 2)) == 0 else 3
        c = 1 + int(tr.child("c").integers(0, 4))
        d = 1 + int(tr.child("d").integers(0, 4))
        h = 2 + int(tr.child("h").integers(0, 5))
        w = 2 + int(tr.child("w").integers(0, 5))
        kern = random_conv_kernel(tr.child("taps"), kernel, c, d)
        x = tr.child("x").normal((c, h, w))
        shift = random_layer("shift", c, tr.child("shift"))

        def shared(xi, s=shift):
            y, _, _ = s.forward(xi[None])
            return y[0]

        worst = max(worst, verify.conv_reformulation_check(kern, x, shared))
        dev = np.abs(conv(x[None], kern)[0] - verify.direct_convolution(kern, x))
        kernel_worst = max(kernel_worst, float(dev.max()))
    return [CheckResult("conv_reformulation", worst <= 1e-12, worst, 1e-12),
            CheckResult("conv_equiv/kernel", kernel_worst <= 1e-12, kernel_worst, 1e-12)]


def suite_normalization(seed: int) -> list[CheckResult]:
    """Quadrature mass of rank-2 models on [-6, 6]^2."""
    rng = Rng(seed).child("normalization")
    results = []
    # empty flow: prior only, mass must be ~exactly 1
    cfg = ModelConfig(mode="rank2", dim=2, depth_k=0, levels=1, hidden_width=4)
    empty = MultiScaleModel(cfg, rng.child("empty"))
    mass = verify.quadrature_normalization(empty)
    results.append(CheckResult("quadrature/empty_flow", 0.999 <= mass <= 1.001,
                               mass, 1.001))
    # identity-initialized flow with data-dependent actnorm init
    cfg = ModelConfig(mode="rank2", dim=2, depth_k=4, levels=1, hidden_width=8)
    model = MultiScaleModel(cfg, rng.child("init_model"))
    model.init_actnorms(rng.child("init_batch").normal((256, 2)))
    mass = verify.quadrature_normalization(model)
    results.append(CheckResult("quadrature/init_model", 0.98 <= mass <= 1.02,
                               mass, 1.02))
    return results


SUITES = {
    "layers": suite_layers,
    "gradients": suite_gradients,
    "conv_equiv": suite_conv_equiv,
    "normalization": suite_normalization,
}


def run_suites(names, seed: int) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
