import math

import numpy as np
import pytest

from nxnflow.errors import ShapeError
from nxnflow.layers import ChannelAffine
from nxnflow.model import ModelConfig, MultiScaleModel, flat_views
from nxnflow.suites import random_conv_kernel, random_layer, random_small_model
from nxnflow.tensor import Rng
from nxnflow.verify import (CheckResult, central_differences, check_param_gradients,
                            conv_reformulation_check, direct_convolution, numerical_jacobian,
                            numerical_logdet, quadrature_normalization, roundtrip_suite,
                            shifted_sum_convolution)


class TestCentralDifferences:
    def test_smooth_gradient_and_restore(self):
        flat = Rng(3).normal((6,))
        before = flat.copy()
        grad = central_differences(lambda: float(flat @ flat + (flat ** 3).sum()), flat)
        np.testing.assert_allclose(grad, 2 * before + 3 * before ** 2, rtol=0, atol=1e-8)
        assert flat.tobytes() == before.tobytes()

    def test_array_valued_rows(self):
        flat = Rng(4).normal((3,))
        jac = central_differences(lambda: np.array([flat.sum(), 2.0 * flat[1]]), flat)
        np.testing.assert_allclose(jac, [[1, 0], [1, 2], [1, 0]], rtol=0, atol=1e-8)

    def test_param_check_restores_theta(self):
        model = random_small_model(Rng(5), mode="rank2")
        x = Rng(6).normal((4, 2))
        before = model.theta.copy()
        params = model.param_tree()
        analytic = list(flat_views(model.loss_and_grads(x)[1], params).values())
        assert check_param_gradients(lambda: float(-model.log_prob(x).mean()),
                                     params, analytic) < 1e-5
        assert model.theta.tobytes() == before.tobytes()

    def test_jacobian_capped_at_64_dims(self):
        assert numerical_jacobian(lambda v: 2.0 * v, np.zeros(64)).shape == (64, 64)
        with pytest.raises(ShapeError, match="capped at 64 dims, got 65"):
            numerical_jacobian(lambda v: 2.0 * v, np.zeros(65))


class TestNumericalLogdet:
    def test_shift_cancellation(self):
        layer = ChannelAffine(2)
        layer.log_scale = np.log(np.array([2.0, 0.5]))
        x = Rng(0).normal((2, 2, 2))
        assert numerical_logdet(layer, x) == pytest.approx(0.0, abs=1e-6)

    def test_identity_layer(self):
        layer = ChannelAffine(2)
        x = Rng(1).normal((2, 2, 2))
        assert numerical_logdet(layer, x) == pytest.approx(0.0, abs=1e-8)

    def test_scaled_1x1(self):
        from nxnflow.layers import Inv1x1
        layer = Inv1x1(2, Rng(0))  # PLU factors of W = 2 I: P = L = I, U = 2 I
        layer.p, layer.u_sign = np.eye(2), np.ones(2)
        layer.l_strict, layer.u_off = np.zeros((2, 2)), np.zeros((2, 2))
        layer.log_u_diag = np.full(2, math.log(2.0))
        x = Rng(2).normal((2, 2, 2))
        expected = 4.0 * math.log(4.0)
        assert numerical_logdet(layer, x) == pytest.approx(expected, rel=1e-4)

    def test_singular_jacobian_raises(self):
        class DropChannel:
            def forward(self, x):  # zeroes channel 0, so one Jacobian row is exactly 0
                y = x.copy()
                y[:, 0] = 0.0
                return y, np.zeros(len(x)), None

        with pytest.raises(ShapeError, match="singular"):
            numerical_logdet(DropChannel(), Rng(3).normal((2, 2, 2)))


class TestConvReformulation:
    def test_1d_slice_hand_example(self):
        # x=[1,2,3], kernel [1,1,1], zero pad -> [3,6,5]
        kernel = np.ones((1, 1, 1, 3))
        x = np.array([[[1.0, 2.0, 3.0]]])
        direct = direct_convolution(kernel, x)
        np.testing.assert_allclose(direct[0, 0], [3.0, 6.0, 5.0])
        shifted = shifted_sum_convolution(kernel, x)
        assert np.max(np.abs(direct - shifted)) <= 1e-12

    def test_tap_offsets(self):
        # a 3x1 kernel whose only nonzero tap (2, 0) reads one row down
        kernel = np.zeros((1, 1, 3, 1))
        kernel[0, 0, 2, 0] = 1.0
        x = np.arange(6.0).reshape(1, 3, 2)
        np.testing.assert_array_equal(direct_convolution(kernel, x)[0], [[2, 3], [4, 5], [0, 0]])

    @pytest.mark.parametrize("shape", [(1, 1, 2, 3), (1, 1, 3, 2), (1, 2, 3, 3)])
    def test_even_extent_or_channel_mismatch_rejected(self, shape):
        with pytest.raises(ShapeError):
            direct_convolution(np.zeros(shape), np.zeros((1, 3, 3)))

    def test_single_tap_reduces_to_1x1(self):
        rng = Rng(3)
        kernel = rng.normal((3, 2, 1, 1))
        x = rng.normal((2, 4, 4))
        dev = conv_reformulation_check(kernel, x)
        assert dev <= 1e-14

    def test_random_3x3_kernel(self):
        rng = Rng(4)
        kernel = random_conv_kernel(rng.child("spec"), 3, 2, 3)
        x = rng.child("x").normal((2, 4, 4))
        direct = direct_convolution(kernel, x)
        shifted = shifted_sum_convolution(kernel, x)
        assert np.max(np.abs(direct - shifted)) <= 1e-12

    def test_fused_shared_shift_form(self):
        rng = Rng(5)
        kernel = random_conv_kernel(rng.child("spec"), 3, 3, 3)
        x = rng.child("x").normal((3, 5, 5))
        shift = random_layer("shift", 3, rng.child("shift"))
        dev = conv_reformulation_check(kernel, x,
                                       lambda xi: shift.forward(xi[None])[0][0])
        assert dev <= 1e-12


class TestRoundtripSuite:
    def test_identity_model(self):
        rep = roundtrip_suite(
            lambda r: ChannelAffine(3),
            lambda r: r.normal((2, 3, 4, 4)),
            10, Rng(0))
        assert rep.max_reconstruction <= 1e-12

    def test_thousand_random_shift_layers(self):
        rep = roundtrip_suite(
            lambda r: random_layer("shift", 3, r),
            lambda r: r.normal((2, 3, 4, 4)),
            1000, Rng(1))
        assert rep.max_reconstruction <= 1e-9

    def test_report_deterministic(self):
        def run():
            return roundtrip_suite(
                lambda r: random_layer("actnorm", 2, r),
                lambda r: r.normal((2, 2, 2, 2)),
                20, Rng(2))
        a, b = run(), run()
        assert a == b


class TestQuadrature:
    def test_prior_only_mass(self):
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=0, levels=1)
        model = MultiScaleModel(cfg, Rng(0))
        mass = quadrature_normalization(model, bound=6.0, step=0.05)
        assert 0.999 <= mass <= 1.001

    def test_mass_monotone_in_domain(self):
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=0, levels=1)
        model = MultiScaleModel(cfg, Rng(0))
        small = quadrature_normalization(model, bound=1.0, step=0.05)
        full = quadrature_normalization(model, bound=6.0, step=0.05)
        assert small < full

    @pytest.mark.parametrize("cfg", [
        ModelConfig(mode="rank2", dim=3, depth_k=0, levels=1),
        ModelConfig(mode="image", channels=2, height=2, width=2, depth_k=0, levels=1),
    ], ids=["dim3", "image"])
    def test_needs_rank2_dim2_model(self, cfg):
        with pytest.raises(ShapeError, match="rank-2 model with dim 2"):
            quadrature_normalization(MultiScaleModel(cfg, Rng(0)))


class TestFaultInjection:
    def test_wrong_logdet_sign_detected(self):
        class BrokenShift(ChannelAffine):
            def forward(self, x):
                y, logdet, cache = super().forward(x)
                return y, -logdet, cache

        layer = BrokenShift(3)
        layer.log_scale = 0.5 * Rng(6).normal((3,))
        x = Rng(7).normal((3, 2, 2))
        analytic = float(layer.forward(x[None])[1][0])
        numeric = numerical_logdet(layer, x)
        rel = abs(analytic - numeric) / max(1.0, abs(analytic))
        assert rel > 1e-4  # the oracle flags the faulty layer

    def test_check_result_line_format(self):
        r = CheckResult("roundtrip/shift", False, 1.5e-3, 1e-9)
        assert r.line() == "roundtrip/shift,FAIL,1.500000e-03,1.000000e-09"
