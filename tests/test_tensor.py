import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nxnflow import tensor
from nxnflow.errors import ShapeError
from nxnflow.tensor import (ONE_THREAD_MNK, Rng, _patches, _row_product, _taps, conv, conv_backward,
                            lu_factor)
from nxnflow.verify import direct_convolution


def mix(w):
    """A C_out x C_in channel matrix as the 1x1 kernel conv takes."""
    return np.asarray(w, dtype=np.float64)[:, :, None, None]


class TestPointwiseConv:
    # conv at k = 1: the channel matrix applied at every pixel
    def test_identity(self):
        x = Rng(0).normal((2, 3, 4, 4))
        np.testing.assert_array_equal(conv(x, mix(np.eye(3))), x)

    def test_swap(self):
        x = Rng(0).normal((2, 2, 3, 3))
        out = conv(x, mix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out[:, 0], x[:, 1])
        np.testing.assert_array_equal(out[:, 1], x[:, 0])

    def test_scaling(self):
        x = np.ones((1, 2, 2, 2))
        out = conv(x, mix(2.0 * np.eye(2)))
        assert np.all(out == 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            conv(np.zeros((1, 3, 2, 2)), mix(np.eye(2)))

    def test_rank2_array_rejected(self):
        with pytest.raises(ShapeError):
            conv(np.zeros((1, 2)), mix(np.eye(2)))

    def test_matches_einsum(self):
        rng = Rng(3)
        w = rng.normal((4, 3))
        x = rng.normal((2, 3, 2, 5))
        ref = np.einsum("dc,nchw->ndhw", w, x)
        np.testing.assert_allclose(conv(x, mix(w)), ref, rtol=0, atol=1e-12)

    def test_channels_last_input(self):
        rng = Rng(6)
        w = rng.normal((4, 3))
        x = rng.normal((2, 2, 5, 3)).transpose(0, 3, 1, 2)  # NCHW view of NHWC memory
        assert not x.flags.c_contiguous
        ref = np.einsum("dc,nchw->ndhw", w, x)
        np.testing.assert_allclose(conv(x, mix(w)), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, h, w", [(1, 1, 1), (300, 1, 1), (2, 4, 5)])
    def test_one_input_channel_is_the_k1_product(self, n, h, w, monkeypatch):
        # one input channel runs as the broadcast rows * cols[0], with no dgemm
        rng = Rng(11)
        kernel = rng.normal((5, 1, 1, 1))
        x = rng.normal((n, 1, h, w))
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append(a) or matmul(*a, **kw))
        out = conv(x, kernel)
        monkeypatch.undo()
        assert not calls
        rows = x.transpose(0, 2, 3, 1).reshape(-1, 1)
        ref = np.matmul(rows, kernel[:, :, 0, 0].T).reshape(n, h, w, 5).transpose(0, 3, 1, 2)
        assert np.array_equal(out, ref)
        for sample, y in zip(x, out):
            np.testing.assert_allclose(y, direct_convolution(kernel, sample), rtol=0, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_composition(self, seed):
        rng = Rng(seed)
        a = rng.normal((3, 3))
        b = rng.normal((3, 3))
        x = rng.normal((2, 3, 2, 2))
        lhs = conv(conv(x, mix(b)), mix(a))
        rhs = conv(x, mix(a @ b))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestRowProduct:
    # a 3x3 conv's 288 x 32 kernel columns: blocks of 28 pixel rows
    K, D, BLOCK = 288, 32, ONE_THREAD_MNK // (288 * 32)

    @pytest.mark.parametrize("m", [0, BLOCK - 9, BLOCK, 3 * BLOCK, 3 * BLOCK + 11])
    def test_one_thread_blocks(self, m, monkeypatch):
        sizes = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rng = Rng(m)
        rows, cols = rng.normal((m, self.K)), rng.normal((self.K, self.D))
        out = _row_product(rows, cols)
        ref = rows @ cols
        assert out.shape == (m, self.D)
        assert np.max(np.abs(out - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=1.0)
        assert len(sizes) == (m >= self.BLOCK) + (m % self.BLOCK > 0)
        assert all(size <= ONE_THREAD_MNK for size in sizes)
        if 0 < m <= self.BLOCK:  # within one block: the plain product, one call
            assert np.array_equal(out, ref)


class TestPointwiseConvBackward:
    # the kernel gradient of conv at k = 1: dy and x summed over batch and pixels
    def test_matches_einsum(self):
        rng = Rng(4)
        dy = rng.normal((3, 4, 2, 5))
        x = rng.normal((3, 2, 2, 5))
        ref = np.einsum("ndhw,nchw->dc", dy, x)
        _, gw = conv_backward(dy, x, mix(np.zeros((4, 2))))
        np.testing.assert_allclose(gw[:, :, 0, 0], ref, rtol=0, atol=1e-12)

    def test_is_the_weight_gradient_of_conv(self):
        # <conv(x, w), dy> is linear in w with gradient conv_backward's dkernel
        rng = Rng(5)
        w = rng.normal((4, 2))
        x = rng.normal((2, 2, 3, 3))
        dy = rng.normal((2, 4, 3, 3))
        lhs = float((conv(x, mix(w)) * dy).sum())
        _, gw = conv_backward(dy, x, mix(w))
        assert lhs == pytest.approx(float((mix(w) * gw).sum()), rel=1e-12)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            conv_backward(np.zeros((2, 3, 2, 2)), np.zeros((2, 3, 2, 3)), mix(np.eye(3)))
        with pytest.raises(ShapeError):
            conv_backward(np.zeros((2, 3)), np.zeros((2, 3)), mix(np.eye(3)))

    @pytest.mark.parametrize("channels_last", [False, True])
    def test_input_gradient_is_the_flipped_conv(self, channels_last):
        # at k = 1 dx is dy's pixel rows times W, the same arithmetic as dy
        # convolved with the flipped, channel-transposed kernel
        rng = Rng(9)
        x = rng.normal((2, 3, 4, 5))
        kernel = mix(rng.normal((4, 3)))
        dy = rng.normal((2, 4, 4, 5))
        if channels_last:
            dy = conv(dy, mix(rng.normal((4, 4))))
        dx, _ = conv_backward(dy, x, kernel)
        assert np.array_equal(dx, conv(dy, kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))

    def test_channels_last_dy_rows_are_a_view(self):
        # a conv output (channels-last memory) as dy: its pixel rows are not copied
        rng = Rng(8)
        x = rng.normal((2, 3, 4, 5))
        dy = conv(rng.normal((2, 3, 4, 5)), mix(rng.normal((3, 3))))
        assert not dy.flags.c_contiguous
        assert np.shares_memory(_patches(dy, 1), dy)
        _, gw = conv_backward(dy, x, mix(np.eye(3)))
        ref = np.einsum("ndhw,nchw->dc", dy, x)
        np.testing.assert_allclose(gw[:, :, 0, 0], ref, rtol=0, atol=1e-12)


class TestSmallGrid:
    # a k = 3 conv on a grid of fewer than 9 pixels runs as one dense
    # per-sample product; from 9 pixels on it builds patch rows
    @pytest.mark.parametrize("h, w, patched", [(2, 2, False), (2, 4, False), (1, 8, False),
                                               (3, 3, True)])
    def test_patch_rows_only_from_k_squared_pixels(self, h, w, patched, monkeypatch):
        calls = []
        patches = tensor._patches
        monkeypatch.setattr(tensor, "_patches", lambda x, k: calls.append(k) or patches(x, k))
        rng = Rng(h * w)
        x, dy, kernel = rng.normal((2, 3, h, w)), rng.normal((2, 4, h, w)), rng.normal((4, 3, 3, 3))
        conv(x, kernel)
        conv_backward(dy, x, kernel)
        assert bool(calls) == patched

    def test_empty_batch(self):
        rng = Rng(1)
        kernel = rng.normal((4, 3, 3, 3))
        assert conv(np.zeros((0, 3, 2, 2)), kernel).shape == (0, 4, 2, 2)
        dx, dkernel = conv_backward(np.zeros((0, 4, 2, 2)), np.zeros((0, 3, 2, 2)), kernel)
        assert dx.shape == (0, 3, 2, 2)
        assert np.array_equal(dkernel, np.zeros((4, 3, 3, 3)))

    def test_patch_view_is_read_only(self):
        # on a 1x1 grid the k = 3 patch rows are a view of the padded copy
        x = Rng(12).normal((4, 2, 1, 1))
        rows = _patches(x, 3)
        expected = np.zeros((4, 9, 2))
        expected[:, 4] = x[:, :, 0, 0]
        np.testing.assert_array_equal(rows, expected.reshape(4, 18))
        assert not rows.flags.writeable and not rows.flags.owndata
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_tap_matrix_is_cached_and_read_only(self):
        taps = _taps(2, 2, 3)
        assert _taps(2, 2, 3) is taps
        # 4 taps of each 2x2 pixel stay on the grid
        assert taps.shape == (9, 16) and taps.sum() == 16
        with pytest.raises(ValueError):
            taps[0, 0] = 1.0


class TestSampleBlocks:
    # a k = 3 conv on a grid of at least 9 pixels builds and multiplies the
    # patch rows of at most PATCH_BLOCK doubles (one sample at least) at a time
    @pytest.mark.parametrize("block, sizes", [(2 * 20 * 27, [2, 2, 2, 1]), (1, [1] * 7)])
    def test_blocks_match_one_product(self, block, sizes, monkeypatch):
        calls = []
        patches = tensor._patches
        monkeypatch.setattr(tensor, "_patches", lambda a, k: calls.append(len(a)) or patches(a, k))
        monkeypatch.setattr(tensor, "PATCH_BLOCK", block)
        rng = Rng(11)
        x, kernel = rng.normal((7, 3, 4, 5)), rng.normal((4, 3, 3, 3))
        y = conv(x, kernel)
        assert calls == sizes
        for xs, ys in zip(x, y):
            np.testing.assert_allclose(ys, direct_convolution(kernel, xs), rtol=0, atol=1e-12)
        cols = kernel.transpose(2, 3, 1, 0).reshape(-1, 4)
        whole = _row_product(patches(x, 3), cols).reshape(7, 4, 5, 4).transpose(0, 3, 1, 2)
        assert np.array_equal(y, whole)

    def test_empty_batch(self):
        kernel = Rng(2).normal((4, 3, 3, 3))
        assert conv(np.zeros((0, 3, 4, 5)), kernel).shape == (0, 4, 4, 5)
        dx, dkernel = conv_backward(np.zeros((0, 4, 4, 5)), np.zeros((0, 3, 4, 5)), kernel)
        assert dx.shape == (0, 3, 4, 5)
        assert np.array_equal(dkernel, np.zeros((4, 3, 3, 3)))

    def test_backward_builds_one_patch_matrix_of_dy(self, monkeypatch):
        # dx and dkernel both come from dy's patch rows; x's pixel rows are a k = 1 call
        calls = []
        patches = tensor._patches
        monkeypatch.setattr(tensor, "_patches",
                            lambda a, k: calls.append((k, a is dy)) or patches(a, k))
        rng = Rng(12)
        x, dy, kernel = rng.normal((2, 3, 3, 4)), rng.normal((2, 4, 3, 4)), rng.normal((4, 3, 3, 3))
        conv_backward(dy, x, kernel)
        assert [call for call in calls if call[0] == 3] == [(3, True)]


class TestLuFactor:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_factors_reproduce_permuted_matrix(self, seed, n):
        a = Rng(seed).normal((n, n))
        perm, lower, upper = lu_factor(a)
        np.testing.assert_allclose(lower @ upper, a[perm], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(lower), 1.0)
        np.testing.assert_array_equal(np.triu(lower, 1), 0.0)
        assert np.all(np.abs(lower) <= 1.0)  # partial pivoting
        np.testing.assert_array_equal(np.tril(upper, -1), 0.0)


class TestRng:
    def test_determinism(self):
        a = Rng(42).normal((10,))
        b = Rng(42).normal((10,))
        np.testing.assert_array_equal(a, b)

    def test_children_independent(self):
        root = Rng(7)
        a = root.child("a").normal((5,))
        b = root.child("b").normal((5,))
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, Rng(7).child("a").normal((5,)))

    def test_state_roundtrip(self):
        rng = Rng(3)
        rng.normal((7,))
        state = rng.state_json()
        expected = rng.normal((9,))
        restored = Rng.from_state_json(state)
        np.testing.assert_array_equal(restored.normal((9,)), expected)

    @pytest.mark.parametrize("value", [2, 7])
    def test_state_rejects_has_uint32_other_than_0_or_1(self, value):
        # numpy stores and reads back any has_uint32, then treats it as 1
        state = json.loads(Rng(3).state_json())
        state["has_uint32"] = value
        with pytest.raises(ValueError, match="has_uint32"):
            Rng.from_state_json(json.dumps(state))

    def test_state_json_format(self):
        # the bytes every NXNF checkpoint holds; a change here breaks resuming old runs
        rng = Rng(3)
        rng.normal((7,))
        rng.integers(0, 5, (3,))
        assert rng.state_json() == (
            '{"buffer": [6129622372205925670, 12232489550271054975, 7445634849453901685, '
            '6014204332765944656], "buffer_pos": 1, "has_uint32": 1, "seed": 3, '
            '"state": {"counter": [3, 0, 0, 0], "key": [3, 0]}, "uinteger": 1427163922}')

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda s: s["state"]["counter"].__setitem__(0, 1.5), id="counter"),
        pytest.param(lambda s: s["state"]["key"].__setitem__(0, 1.5), id="key"),
        pytest.param(lambda s: s["buffer"].__setitem__(0, 1.5), id="buffer"),
        pytest.param(lambda s: s.update(has_uint32=1.7), id="has_uint32"),
        pytest.param(lambda s: s.update(uinteger=1.5), id="uinteger"),
        pytest.param(lambda s: s.update(buffer_pos=2.5), id="buffer_pos"),
        pytest.param(lambda s: s.update(buffer_pos=True), id="buffer_pos_bool"),
        pytest.param(lambda s: s.update(seed=3.7), id="seed")])
    def test_state_rejects_non_integer(self, edit):
        # numpy would truncate each of these and resume a different stream
        state = json.loads(Rng(3).state_json())
        edit(state)
        with pytest.raises(ValueError, match="does not read back as written"):
            Rng.from_state_json(json.dumps(state))
