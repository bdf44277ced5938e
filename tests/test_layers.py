import math

import numpy as np
import pytest

from nxnflow import tensor
from nxnflow.errors import DegenerateChannelError, ShapeError, StateError
from hypothesis import given, settings
from hypothesis import strategies as st

from nxnflow.layers import (ACTIVATION_BLOCK, ChannelAffine, ConditionerNet, Conv2d, Coupling, Inv1x1,
                            Squeeze, split_channels, squeeze2x2, unsplit_channels, unsqueeze2x2)
from nxnflow.model import standard_normal_logp
from nxnflow.suites import LAYER_KINDS, random_layer
from nxnflow.tensor import Rng
from nxnflow.verify import (check_input_gradient, check_param_gradients,
                            direct_convolution, numerical_jacobian)


def plu_inv1x1(perm, log_scale=0.0):
    """An Inv1x1 with W = P exp(log_scale): row c of W picks input channel
    perm[c], L is the identity and U is diagonal."""
    c = len(perm)
    layer = Inv1x1(c, Rng(0))
    layer.p = np.eye(c)[list(perm)]
    layer.u_sign = np.ones(c)
    layer.l_strict = np.zeros((c, c))
    layer.u_off = np.zeros((c, c))
    layer.log_u_diag = np.full(c, log_scale)
    return layer


def affine_then_mix_forward(shift, mix, x):
    """A per-channel affine shift followed by the 1x1 mix, as in a flow
    step's actnorm -> mix. Not the paper's n x n layer, whose shift is
    spatial; these tests pin the arithmetic of the composition."""
    h, ld1, _ = shift.forward(x)
    y, ld2, _ = mix.forward(h)
    return y, ld1 + ld2


def affine_then_mix_inverse(shift, mix, y):
    return shift.inverse(mix.inverse(y))


def affine(scale, bias):
    """A ChannelAffine layer with the given per-channel scale and bias."""
    layer = ChannelAffine(len(scale))
    layer.log_scale = np.log(np.asarray(scale, dtype=np.float64))
    layer.bias = np.asarray(bias, dtype=np.float64)
    return layer


class TestChannelAffine:
    # the per-channel affine map y = scale * x + bias, forward and inverse
    def test_identity(self):
        x = Rng(0).normal((2, 3, 4, 4))
        out, _, _ = ChannelAffine(3).forward(x)
        np.testing.assert_array_equal(out, x)

    def test_hand_value(self):
        x = np.full((1, 2, 2, 2), 2.0)
        out, _, _ = affine([4.0, 1.0], [1.0, 0.0]).forward(x)
        assert np.all(out[:, 0] == 9.0)
        assert np.all(out[:, 1] == 2.0)

    def test_rank2(self):
        # rank-2 points run as N x D x 1 x 1
        x = np.array([[1.0, 2.0]])[:, :, None, None]
        out, _, _ = affine([2.0, 3.0], [0.5, -1.0]).forward(x)
        np.testing.assert_allclose(out[:, :, 0, 0], [[2.5, 5.0]])

    def test_rank2_array_rejected(self):
        layer = affine([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            layer.inverse(np.zeros((1, 2)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inverse_property(self, seed):
        rng = Rng(seed)
        x = rng.normal((2, 3, 2, 2))
        layer = affine(np.exp(rng.normal((3,))), rng.normal((3,)))
        y, _, _ = layer.forward(x)
        back = layer.inverse(y)
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


class TestActNorm:
    def test_identity_at_unit_params(self):
        layer = ChannelAffine(3)
        x = Rng(0).normal((2, 3, 4, 4))
        y, logdet, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(logdet, 0.0)

    def test_logdet_hand_value(self):
        # C=1, gamma=e, H=W=2 -> logdet = 4
        layer = ChannelAffine(1)
        layer.log_scale = np.array([1.0])
        _, logdet, _ = layer.forward(np.zeros((1, 1, 2, 2)))
        assert logdet[0] == pytest.approx(4.0)

    def test_init_from_one_sample_raises(self):
        # one sample of a 1x1 grid has std 0 in every channel; the count is named
        with pytest.raises(StateError, match="at least 2 samples"):
            ChannelAffine(2).init_from_batch(Rng(0).normal((1, 2, 1, 1)))

    def test_init_hand_statistics(self):
        layer = ChannelAffine(1)
        batch = np.array([[1.0], [3.0]])[:, :, None, None]  # mu=2, sigma=1
        layer.init_from_batch(batch)
        assert np.exp(layer.log_scale[0]) == pytest.approx(1.0)
        assert layer.bias[0] == pytest.approx(-2.0)
        y, _, _ = layer.forward(batch)
        np.testing.assert_allclose(y[:, :, 0, 0], [[-1.0], [1.0]])

    def test_init_fixed_point(self):
        rng = Rng(5)
        batch = rng.normal((4096, 3, 2, 2))
        layer = ChannelAffine(3)
        layer.init_from_batch(batch)
        np.testing.assert_allclose(np.exp(layer.log_scale), 1.0, atol=0.05)
        np.testing.assert_allclose(layer.bias, 0.0, atol=0.05)

    def test_constant_channel_degenerate(self):
        layer = ChannelAffine(2)
        batch = Rng(0).normal((8, 2, 2, 2))
        batch[:, 1] = 3.0
        with pytest.raises(DegenerateChannelError):
            layer.init_from_batch(batch)

    def test_roundtrip(self):
        layer = random_layer("actnorm", 3, Rng(1))
        x = Rng(2).normal((4, 3, 4, 4))
        y, _, _ = layer.forward(x)
        assert np.max(np.abs(layer.inverse(y) - x)) <= 1e-9


class TestShift:
    def test_identity_at_init(self):
        layer = ChannelAffine(3)
        x = Rng(0).normal((2, 3, 4, 4))
        y, logdet, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(logdet, 0.0)

    def test_log_reciprocal_cancellation(self):
        layer = ChannelAffine(2)
        layer.log_scale = np.log(np.array([2.0, 0.5]))
        _, logdet, _ = layer.forward(np.zeros((1, 2, 3, 3)))
        assert logdet[0] == pytest.approx(9.0 * (math.log(2) + math.log(0.5)), abs=1e-12)

    def test_hand_forward_and_inverse(self):
        layer = ChannelAffine(1)
        layer.log_scale = np.array([math.log(3.0)])
        layer.bias = np.array([1.0])
        y, _, _ = layer.forward(np.full((1, 1, 2, 2), 2.0))
        assert np.all(y == pytest.approx(7.0))
        np.testing.assert_allclose(layer.inverse(y), 2.0)

    def test_jacobian_is_diagonal(self):
        layer = random_layer("shift", 3, Rng(9))
        x = Rng(10).normal((3, 3, 3))
        jac = numerical_jacobian(lambda xi: layer.forward(xi[None])[0][0], x)
        off = jac.copy()
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) <= 1e-8


class TestInv1x1:
    def test_identity(self):
        layer = plu_inv1x1([0, 1, 2])
        x = Rng(1).normal((2, 3, 2, 2))
        y, logdet, _ = layer.forward(x)
        np.testing.assert_allclose(y, x)
        np.testing.assert_array_equal(logdet, 0.0)

    def test_channel_swap_permutation(self):
        layer = plu_inv1x1([1, 0])
        x = Rng(1).normal((1, 2, 3, 4))
        y, logdet, _ = layer.forward(x)
        np.testing.assert_array_equal(y[:, 0], x[:, 1])
        assert logdet[0] == pytest.approx(0.0, abs=1e-12)

    def test_scaled_identity_logdet(self):
        layer = plu_inv1x1([0, 1], math.log(2.0))  # W = 2 I
        _, logdet, _ = layer.forward(np.zeros((1, 2, 2, 2)))
        assert logdet[0] == pytest.approx(4.0 * math.log(4.0))

    def test_plu_matches_direct_application(self):
        layer = random_layer("inv1x1_plu", 4, Rng(3))
        x = Rng(4).normal((2, 4, 3, 3))
        y, logdet, _ = layer.forward(x)
        w = layer.matrix
        ref = np.einsum("dc,nchw->ndhw", w, x)
        np.testing.assert_allclose(y, ref, atol=1e-12)
        sign = np.linalg.slogdet(w)
        assert logdet[0] == pytest.approx(9.0 * sign[1], rel=1e-10)

    def test_roundtrip_both_modes(self):
        layer = random_layer("inv1x1_plu", 4, Rng(7))
        x = Rng(8).normal((3, 4, 4, 4))
        y, _, _ = layer.forward(x)
        assert np.max(np.abs(layer.inverse(y) - x)) <= 1e-9

    def test_init_is_rotation(self):
        layer = Inv1x1(5, Rng(11))
        _, logdet, _ = layer.forward(np.zeros((1, 5, 2, 2)))
        assert logdet[0] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(layer.matrix @ layer.matrix.T, np.eye(5), rtol=0, atol=1e-12)


class TestCoupling:
    def test_zero_init_is_identity(self):
        layer = Coupling(4, 8, 3, Rng(0))
        x = Rng(1).normal((2, 4, 4, 4))
        y, logdet, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(logdet, 0.0)

    def test_stub_conditioner_hand_values(self):
        layer = Coupling(4, 8, 3, Rng(0))
        c_a = layer.c_a

        def stub(raw):
            shape = (raw.shape[0], c_a) + raw.shape[2:]
            th = np.full(shape, math.log(2.0))
            return np.exp(th), np.ones(shape), th

        layer._scale_shift = stub
        x = Rng(1).normal((2, 4, 3, 3))
        y, logdet, _ = layer.forward(x)
        np.testing.assert_allclose(y[:, :c_a], 2.0 * x[:, :c_a] + 1.0)
        np.testing.assert_array_equal(y[:, c_a:], x[:, c_a:])
        entries = c_a * 9
        assert logdet[0] == pytest.approx(entries * math.log(2.0))
        np.testing.assert_allclose(layer.inverse(y), x, atol=1e-12)

    def test_roundtrip(self):
        layer = random_layer("coupling", 5, Rng(2))
        x = Rng(3).normal((3, 5, 4, 4))
        y, _, _ = layer.forward(x)
        assert np.max(np.abs(layer.inverse(y) - x)) <= 1e-9

    def test_rank2(self):
        # rank-2 points run as N x D x 1 x 1
        layer = random_layer("coupling", 2, Rng(4), kernel=1)
        x = Rng(5).normal((6, 2, 1, 1))
        y, logdet, _ = layer.forward(x)
        assert y.shape == x.shape
        np.testing.assert_array_equal(y[:, 1], x[:, 1])
        assert np.max(np.abs(layer.inverse(y) - x)) <= 1e-9

    def test_too_few_channels(self):
        with pytest.raises(ShapeError):
            Coupling(1, 8, 3, Rng(0))

    def test_scale_bounded(self):
        layer = random_layer("coupling", 4, Rng(6))
        x = 100.0 * Rng(7).normal((2, 4, 4, 4))
        _, _, cache = layer.forward(x)
        assert np.all(cache["s"] >= math.exp(-1.0))
        assert np.all(cache["s"] <= math.exp(1.0))


class TestRank2ArraysRejected:
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_forward_and_inverse(self, kind):
        layer = random_layer(kind, 2, Rng(0), kernel=1)
        x = Rng(1).normal((3, 2))
        with pytest.raises(ShapeError):
            layer.forward(x)
        with pytest.raises(ShapeError):
            layer.inverse(x)

    def test_data_init(self):
        with pytest.raises(ShapeError):
            ChannelAffine(2).init_from_batch(Rng(2).normal((8, 2)))


class TestConv2d:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3]))
    @settings(max_examples=20, deadline=None)
    def test_forward_matches_direct_convolution(self, seed, kernel):
        rng = Rng(seed)
        n = int(rng.integers(0, 5))
        c, d, h, w = (int(v) for v in rng.integers(1, 5, (4,)))
        conv = Conv2d(c, d, kernel, rng.child("w"))
        conv.b = rng.normal((d,))
        x = rng.normal((n, c, h, w))
        y, _ = conv.forward(x)
        for i in range(n):
            ref = direct_convolution(conv.w, x[i]) + conv.b[:, None, None]
            np.testing.assert_allclose(y[i], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_backward_is_the_adjoint(self, kernel):
        # y - b is linear in x and in w: <y - b, dy> = <x, dx> = <w, gw>
        rng = Rng(kernel)
        conv = Conv2d(3, 4, kernel, rng.child("w"))
        conv.b = rng.normal((4,))
        x = rng.normal((2, 3, 5, 4))
        dy = rng.normal((2, 4, 5, 4))
        y, cache = conv.forward(x)
        dx, gw, gb = conv.backward(dy, cache)
        inner = float(((y - conv.b[None, :, None, None]) * dy).sum())
        assert float((x * dx).sum()) == pytest.approx(inner, rel=1e-12)
        assert float((conv.w * gw).sum()) == pytest.approx(inner, rel=1e-12)
        np.testing.assert_allclose(gb, dy.sum(axis=(0, 2, 3)))

    # (c, d, n, h, w, ONE_THREAD_MNK) whose n*h*w pixel rows split into at
    # least two one-thread blocks plus a remainder: 28-row blocks and 19 rows
    # left at the default limit, 16-row blocks and 8 left at a patched one
    BLOCKED = [(32, 32, 3, 5, 5, tensor.ONE_THREAD_MNK), (2, 3, 2, 5, 4, 16 * 54)]

    @pytest.mark.parametrize("c, d, n, h, w, mnk", BLOCKED)
    def test_blocked_products(self, c, d, n, h, w, mnk, monkeypatch):
        block = mnk // (9 * c * d)
        assert n * h * w // block >= 2 and n * h * w % block
        monkeypatch.setattr(tensor, "ONE_THREAD_MNK", mnk)
        rng = Rng(c)
        conv = Conv2d(c, d, 3, rng.child("w"))
        conv.b = rng.normal((d,))
        x = rng.normal((n, c, h, w))
        dy = rng.normal((n, d, h, w))
        y, cache = conv.forward(x)
        for i in range(n):
            ref = direct_convolution(conv.w, x[i]) + conv.b[:, None, None]
            np.testing.assert_allclose(y[i], ref, rtol=0, atol=1e-12)
        dx, gw, _ = conv.backward(dy, cache)
        inner = float(((y - conv.b[None, :, None, None]) * dy).sum())
        assert float((x * dx).sum()) == pytest.approx(inner, rel=1e-12)
        assert float((conv.w * gw).sum()) == pytest.approx(inner, rel=1e-12)

    def test_backward_matches_finite_differences(self):
        # every entry of gw and dx, on a non-square grid with c != d, so a
        # tap or channel mix-up in the patch columns cannot cancel out
        rng = Rng(7)
        conv = Conv2d(2, 3, 3, rng.child("w"))
        conv.b = rng.normal((3,))
        x = rng.normal((2, 2, 5, 4))
        dy = rng.normal((2, 3, 5, 4))

        def loss_at(xv):
            return float((conv.forward(xv)[0] * dy).sum())

        _, cache = conv.forward(x)
        dx, gw, gb = conv.backward(dy, cache)
        analytic = [gw, gb]
        params = {"w": conv.w, "b": conv.b}
        assert check_param_gradients(lambda: loss_at(x), params, analytic) < 1e-5
        assert check_input_gradient(loss_at, x, dx) < 1e-5

    # below 9 pixels the dense per-sample product (2x2, 2x4, 1x8), and the
    # first im2col grid (3x3); c != d, so a tap or channel mix-up cannot cancel
    @pytest.mark.parametrize("h, w", [(2, 2), (2, 4), (1, 8), (3, 3)])
    def test_small_grid_backward(self, h, w):
        rng = Rng(10 * h + w)
        conv = Conv2d(2, 3, 3, rng.child("w"))
        conv.b = rng.normal((3,))
        x = rng.normal((2, 2, h, w))
        dy = rng.normal((2, 3, h, w))

        def loss_at(xv):
            return float((conv.forward(xv)[0] * dy).sum())

        y, cache = conv.forward(x)
        for i in range(2):
            ref = direct_convolution(conv.w, x[i]) + conv.b[:, None, None]
            np.testing.assert_allclose(y[i], ref, rtol=0, atol=1e-12)
        dx, gw, gb = conv.backward(dy, cache)
        inner = float(((y - conv.b[None, :, None, None]) * dy).sum())
        assert float((x * dx).sum()) == pytest.approx(inner, rel=1e-12)
        assert float((conv.w * gw).sum()) == pytest.approx(inner, rel=1e-12)
        analytic = [gw, gb]
        assert check_param_gradients(lambda: loss_at(x), {"w": conv.w, "b": conv.b}, analytic) < 1e-5
        assert check_input_gradient(loss_at, x, dx) < 1e-5

    def test_blocked_backward_matches_finite_differences(self, monkeypatch):
        # the same 40 pixel rows as two 16-row blocks and a remainder of 8
        monkeypatch.setattr(tensor, "ONE_THREAD_MNK", 16 * 54)
        self.test_backward_matches_finite_differences()


def masked_conditioner(net, x, dout):
    """(output, dx, grads) of net with a ReLU that keeps its mask from the
    forward pass for backward: the reference for the mask-free one."""
    h, caches, masks = x, [], []
    for layer in net.layers:
        if caches:
            masks.append(h > 0)
            h = h * masks[-1]
        h, cache = layer.forward(h)
        caches.append(cache)
    g, grads = dout, []
    for i in reversed(range(len(net.layers))):
        if i < len(masks):
            g = g * masks[i]
        g, gw, gb = net.layers[i].backward(g, caches[i])
        grads[:0] = [gw, gb]
    return h, g, grads


class TestConditionerNet:
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_matches_kept_masks(self, kernel):
        rng = Rng(kernel)
        net = ConditionerNet(2, 4, 8, kernel, rng.child("net"))
        net.layers[2].w = rng.normal(net.layers[2].w.shape)
        net.layers[0].b = np.array([0.0, 0.0, 0.5, -0.5, 0.0, 1.0, -1.0, 0.0])
        x = rng.normal((3, 2, 4, 4))
        x[1] = 0.0  # sample 1's pre-activations are exactly the biases
        pre = net.layers[0].forward(x)[0]
        assert (pre < 0).any() and (pre == 0).any() and (pre > 0).any()
        dout = rng.normal((3, 4, 4, 4))
        y, caches = net.forward(x)
        dx, grads = net.backward(dout, caches)
        ref_y, ref_dx, ref_grads = masked_conditioner(net, x, dout)
        assert np.array_equal(y, ref_y) and np.array_equal(dx, ref_dx)
        assert len(grads) == len(ref_grads)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads, strict=True))

    # hidden 32 makes blocks of 512 pixel rows (128 samples on a 2x2 grid);
    # 1000 rows end in a ragged block of 488
    POINTWISE = [(0, 1), (1, 1), (256, 1), (512, 1), (64, 2), (1000, 1), (250, 2)]

    @staticmethod
    def check_forward_only_pointwise(c_in, n, grid):
        rng = Rng(7)
        net = ConditionerNet(c_in, 4, 32, 1, rng.child("net"))
        net.layers[2].w = rng.normal(net.layers[2].w.shape)
        net.layers[2].b = rng.normal(net.layers[2].b.shape)
        x = rng.normal((n, c_in, grid, grid))
        x_before = x.copy()
        out = net.forward_only(x)
        ref = net.forward(x)[0]
        assert out.shape == ref.shape == (n, 4, grid, grid)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("n, grid", POINTWISE)
    def test_forward_only_pointwise(self, n, grid):
        self.check_forward_only_pointwise(3, n, grid)

    @pytest.mark.parametrize("n, grid", POINTWISE)
    def test_forward_only_one_input_channel(self, n, grid):
        # rank-2 dim 2 gives c_b = 1: the first product is a broadcast, not a K = 1 dgemm
        self.check_forward_only_pointwise(1, n, grid)

    @pytest.mark.parametrize("hidden, n, blocks", [
        (32, 1000, [512, 488]), (64, 600, [256, 256, 88]), (8, 3000, [2048, 952])])
    def test_forward_only_runs_the_layers_in_blocks(self, hidden, n, blocks):
        # each block of samples goes through every Conv2d.forward, and each of
        # its activations is at most ACTIVATION_BLOCK doubles
        net = ConditionerNet(2, 4, hidden, 1, Rng(3).child("net"))
        seen = []
        for i, layer in enumerate(net.layers):
            def forward(x, i=i, run=layer.forward):
                seen.append((i, x.shape[0]))
                return run(x)
            layer.forward = forward
        net.forward_only(Rng(4).normal((n, 2, 1, 1)))
        assert seen == [(i, b) for b in blocks for i in range(3)]
        assert all(b * hidden <= ACTIVATION_BLOCK for b in blocks)

    def test_forward_only_kernel3_is_forward(self):
        rng = Rng(8)
        net = ConditionerNet(2, 4, 8, 3, rng.child("net"))
        net.layers[2].w = rng.normal(net.layers[2].w.shape)
        x = rng.normal((3, 2, 4, 4))
        np.testing.assert_array_equal(net.forward_only(x), net.forward(x)[0])


class TestSqueezeSplit:
    def test_block_ordering(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # 1x1x2x2: [[a,b],[c,d]]
        y = squeeze2x2(x)
        assert y.shape == (1, 4, 1, 1)
        np.testing.assert_array_equal(y[0, :, 0, 0], [1.0, 2.0, 3.0, 4.0])

    def test_roundtrip_exact(self):
        x = Rng(0).normal((2, 3, 4, 4))
        np.testing.assert_array_equal(unsqueeze2x2(squeeze2x2(x)), x)

    def test_shape_arithmetic(self):
        assert squeeze2x2(np.zeros((1, 3, 4, 4))).shape == (1, 12, 2, 2)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            squeeze2x2(np.zeros((1, 1, 3, 4)))

    def test_unsqueeze_channels_not_divisible_by_4_rejected(self):
        with pytest.raises(ShapeError, match="divisible by 4, got 6"):
            unsqueeze2x2(np.zeros((1, 6, 2, 2)))

    def test_squeeze_layer_logdet_zero(self):
        layer = Squeeze()
        _, logdet, _ = layer.forward(np.zeros((2, 1, 2, 2)))
        np.testing.assert_array_equal(logdet, 0.0)

    def test_split_partition_roundtrip(self):
        x = Rng(1).normal((2, 4, 2, 2))
        kept, factored = split_channels(x)
        assert kept.shape == (2, 2, 2, 2) and factored.shape == (2, 2, 2, 2)
        np.testing.assert_array_equal(unsplit_channels(kept, factored), x)

    def test_standard_normal_mode_value(self):
        z = np.zeros((1, 2, 2, 2))  # d = 8
        assert standard_normal_logp(z)[0] == pytest.approx(-4.0 * math.log(2 * math.pi))

    def test_odd_channels_rejected(self):
        with pytest.raises(ShapeError):
            split_channels(np.zeros((1, 3, 2, 2)))


class TestAffineThenMix:
    # a per-channel affine then the 1x1 mix, not the paper's n x n layer
    def test_identity_composition(self):
        shift = ChannelAffine(3)
        mix = plu_inv1x1([0, 1, 2])
        x = Rng(1).normal((2, 3, 4, 4))
        y, logdet = affine_then_mix_forward(shift, mix, x)
        np.testing.assert_allclose(y, x)
        np.testing.assert_array_equal(logdet, 0.0)

    def test_logdet_additivity(self):
        shift = random_layer("shift", 3, Rng(2))
        mix = random_layer("inv1x1_plu", 3, Rng(3))
        x = Rng(4).normal((2, 3, 4, 4))
        _, ld_total = affine_then_mix_forward(shift, mix, x)
        _, ld_s, _ = shift.forward(x)
        h, _, _ = shift.forward(x)
        _, ld_m, _ = mix.forward(h)
        np.testing.assert_allclose(ld_total, ld_s + ld_m, atol=1e-12)

    def test_matches_fused_affine_map(self):
        # x -> W (diag(scale) x + bias) computed directly per pixel
        shift = random_layer("shift", 3, Rng(5))
        mix = random_layer("inv1x1_plu", 3, Rng(6))
        x = Rng(7).normal((2, 3, 4, 4))
        y, _ = affine_then_mix_forward(shift, mix, x)
        w = mix.matrix
        scale = np.exp(shift.log_scale)
        fused = np.einsum("dc,nchw->ndhw",
                          w, scale[None, :, None, None] * x
                          + shift.bias[None, :, None, None])
        assert np.max(np.abs(y - fused)) <= 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_inverse(self):
        shift = random_layer("shift", 3, Rng(8))
        mix = random_layer("inv1x1_plu", 3, Rng(9))
        x = Rng(10).normal((2, 3, 4, 4))
        y, _ = affine_then_mix_forward(shift, mix, x)
        assert np.max(np.abs(affine_then_mix_inverse(shift, mix, y) - x)) <= 1e-9


class TestAllLayersRoundtrip:
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_logdet_antisymmetry(self, kind):
        layer = random_layer(kind, 4, Rng(20))
        x = Rng(21).normal((2, 4, 4, 4))
        y, ld_fwd, _ = layer.forward(x)
        x_rec = layer.inverse(y)
        _, ld_rec, _ = layer.forward(x_rec)
        # logdet of the inverse map is the negated forward logdet at x_rec
        np.testing.assert_allclose(ld_fwd, ld_rec, atol=1e-10)


class TestGradientLists:
    # backward returns one gradient per params() entry, in params() order:
    # the model lays them into theta by position alone
    @pytest.mark.parametrize("kind, kernel", [(kind, 3) for kind in LAYER_KINDS + ("squeeze",)]
                             + [("coupling", 1)])
    def test_one_gradient_per_parameter_in_order(self, kind, kernel):
        layer = random_layer(kind, 4, Rng(30), hidden=4, kernel=kernel)
        x = Rng(31).normal((2, 4, 4, 4))
        y, ld, cache = layer.forward(x)
        w_y, w_ld = Rng(32).normal(y.shape), Rng(33).normal(ld.shape)
        _, grads = layer.backward(w_y, w_ld, cache)
        assert isinstance(grads, list)
        assert [g.shape for g in grads] == [p.shape for p in layer.params().values()]

        def loss():
            y, ld, _ = layer.forward(x)
            return float((w_y * y).sum() + (w_ld * ld).sum())

        assert check_param_gradients(loss, layer.params(), grads) < 1e-5

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown layer kind 'nope'"):
            random_layer("nope", 4, Rng(0))
