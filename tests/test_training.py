import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nxnflow
from nxnflow.data import gen_2d
from nxnflow.errors import ConfigError, DataError, FormatError, NumericError
from nxnflow.layers import Coupling
from nxnflow.model import ModelConfig, MultiScaleModel, flat_views
from nxnflow.suites import random_layer, random_small_model
from nxnflow.tensor import Rng
from nxnflow.training import (Adam, TrainConfig, clip_global_norm, dequantize, evaluate_nll,
                               train)


class TestDequantize:
    def test_range_and_formula(self):
        rng = Rng(0)
        x_int = rng.integers(0, 256, (4, 3, 2, 2))
        out = dequantize(x_int, 8, Rng(1))
        u = out * 256.0 - x_int
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert np.all(out >= 0.0) and np.all(out < 1.0)

    def test_max_value_strictly_below_one(self):
        x_int = np.full((1000,), 31)
        out = dequantize(x_int, 5, Rng(2))
        assert np.all(out < 1.0)

    def test_hand_value_at_known_noise(self):
        # x_int=5, bits=8, u=0.5 -> 5.5/256
        assert (5 + 0.5) / 256 == pytest.approx(0.0214844, abs=1e-7)
        out = dequantize(np.array([5]), 8, Rng(3))
        assert 5 / 256 <= out[0] < 6 / 256

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            dequantize(np.array([32]), 5, Rng(0))
        with pytest.raises(DataError):
            dequantize(np.array([-1]), 5, Rng(0))

    def test_determinism(self):
        x = np.arange(16).reshape(4, 4)
        np.testing.assert_array_equal(dequantize(x, 5, Rng(7)), dequantize(x, 5, Rng(7)))


def per_array_adam(params, grad_steps, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written per array, the reference for the flat-vector update."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for k, p in params.items():
            g = grads[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            p -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
    return m, v


class TestAdam:
    def test_zero_gradient_no_change(self):
        theta = Rng(0).normal((5,))
        ref = theta.copy()
        opt = Adam({"p": theta})
        opt.step(theta, np.zeros(5))
        np.testing.assert_array_equal(theta, ref)

    def test_first_step_magnitude(self):
        theta = np.zeros(3)
        opt = Adam({"p": theta}, lr=1e-3)
        opt.step(theta, np.ones(3))
        # bias-corrected first step: -lr * g / (|g| + eps) ~= -1e-3
        np.testing.assert_allclose(theta, -1e-3, rtol=1e-6)

    def test_nonfinite_gradient_aborts(self):
        # train checks the gradient vector before Adam sees it, names the
        # parameter that holds the first non-finite entry and updates nothing
        model, pts, tc = TestTrainLoop().make_2d(steps=2)
        loss_and_grads, theta_at_step = model.loss_and_grads, []

        def nan_in_one_parameter(x):
            theta_at_step.append(model.theta.copy())
            loss, g = loss_and_grads(x)
            flat_views(g, model.param_tree())["level0/step1/mix/u_off"][0, 1] = np.nan
            return loss, g

        model.loss_and_grads = nan_in_one_parameter
        with pytest.raises(NumericError,
                           match="^step 1: non-finite gradient of level0/step1/mix/u_off;"):
            train(model, pts, tc)
        np.testing.assert_array_equal(model.theta, theta_at_step[0])

    def test_clip_global_norm(self):
        g = np.concatenate([np.full(4, 100.0), np.full(9, 100.0)])
        norm = clip_global_norm(g, 50.0)
        assert norm == pytest.approx(100.0 * math.sqrt(13))
        assert math.sqrt(float((g * g).sum())) == pytest.approx(50.0)

    def test_flat_update_matches_per_array_formula(self):
        shapes = {"conv/w": (3, 2, 3, 3), "conv/b": (3,), "mix": (2, 2), "one": (1,)}
        rng = Rng(0)
        ref = {k: rng.normal(s) for k, s in shapes.items()}
        theta = np.concatenate([p.ravel() for p in ref.values()])
        params = flat_views(theta, ref)
        # conv-like weight gradients arrive as non-contiguous views
        grad_steps = [{k: (rng.normal(s[::-1]).T if len(s) > 2 else rng.normal(s))
                       for k, s in shapes.items()} for _ in range(6)]
        opt = Adam(params, lr=1e-2)
        for grads in grad_steps:
            g = np.empty_like(theta)  # laid out as loss_and_grads lays it out
            for k, view in flat_views(g, params).items():
                view[...] = grads[k]
            opt.step(theta, g)
        ref_m, ref_v = per_array_adam(ref, grad_steps, lr=1e-2)
        assert opt.t == 6
        for k in shapes:
            np.testing.assert_array_equal(params[k], ref[k], err_msg=k)
            np.testing.assert_array_equal(opt.m[k], ref_m[k], err_msg=k)
            np.testing.assert_array_equal(opt.v[k], ref_v[k], err_msg=k)
            assert np.shares_memory(opt.m[k], opt._m) and np.shares_memory(opt.v[k], opt._v)

    def test_image_step_runs_in_blocks_with_one_small_scratch(self):
        # the canonical image theta spans 17 full blocks and a partial one;
        # one whole-vector scratch was 2.3 MB per step
        cfg = ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                          hidden_width=32)
        theta = MultiScaleModel(cfg, Rng(0)).theta.copy()
        ref = {"theta": theta.copy()}
        rng = Rng(1)
        grad_steps = [{"theta": rng.normal(theta.shape)} for _ in range(50)]
        opt = Adam({"theta": theta})
        peaks = []
        for grads in grad_steps:
            g = grads["theta"].copy()
            tracemalloc.start()
            try:
                opt.step(theta, g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ref_m, ref_v = per_array_adam(ref, grad_steps)
        assert max(peaks) < 0.5e6
        np.testing.assert_array_equal(theta, ref["theta"])
        np.testing.assert_array_equal(opt.m["theta"], ref_m["theta"])
        np.testing.assert_array_equal(opt.v["theta"], ref_v["theta"])

    def test_load_state_writes_into_the_views(self):
        params = {"a": np.zeros((2, 2)), "b": np.zeros(3)}
        opt = Adam(params)
        m = {"a": np.full((2, 2), 0.5), "b": np.arange(3.0)}
        v = {"a": np.ones((2, 2)), "b": np.full(3, 2.0)}
        opt.load_state(7, m, v)
        assert opt.t == 7
        np.testing.assert_array_equal(opt._m, [0.5, 0.5, 0.5, 0.5, 0.0, 1.0, 2.0])
        np.testing.assert_array_equal(opt._v, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("m", [{"a": np.zeros((2, 2))},
                                   {"a": np.zeros((2, 2)), "b": np.zeros(3), "c": np.zeros(1)},
                                   {"a": np.zeros(4), "b": np.zeros(3)}])
    def test_load_state_rejects_mismatched_tree(self, m):
        opt = Adam({"a": np.zeros((2, 2)), "b": np.zeros(3)})
        with pytest.raises(FormatError, match="optimizer state adam/m/"):
            opt.load_state(1, m, m)


class TestLayerBackwardContracts:
    def test_shift_logdet_gradient_exact(self):
        # loss = logdet only -> grad wrt log_scale is H*W exactly, bias grad 0
        layer = random_layer("shift", 3, Rng(0))
        x = Rng(1).normal((2, 3, 4, 5))
        _, _, cache = layer.forward(x)
        _, (g_log_scale, g_bias) = layer.backward(np.zeros_like(x), np.ones(2), cache)
        np.testing.assert_allclose(g_log_scale, 2 * 20.0)
        np.testing.assert_array_equal(g_bias, 0.0)

    def test_identity_coupling_passthrough_gradient(self):
        layer = Coupling(4, 8, 3, Rng(2))  # zero-initialized conditioner
        x = Rng(3).normal((2, 4, 3, 3))
        _, _, cache = layer.forward(x)
        dy = Rng(4).normal(x.shape)
        dx, _ = layer.backward(dy, np.zeros(2), cache)
        np.testing.assert_allclose(dx, dy, atol=1e-14)


class TestTrainLoop:
    def make_2d(self, steps=1, seed=0, **kw):
        pts = gen_2d("eight_gaussians", 512, Rng(5).child("data")).points
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1, hidden_width=8)
        model = MultiScaleModel(cfg, Rng(seed).child("model_init"))
        tc = TrainConfig(batch_size=32, steps=steps, seed=seed, **kw)
        return model, pts, tc

    def test_single_step_bookkeeping(self):
        model, pts, tc = self.make_2d(steps=1)
        seen, metrics = [], []
        train(model, pts, tc, on_checkpoint=lambda s, o, r: seen.append(s), log=metrics.append)
        assert len(metrics) == 1
        assert metrics[0].step == 1
        assert seen == [1]

    def test_determinism_bit_exact(self):
        model1, pts, tc = self.make_2d(steps=25, seed=3)
        model2, _, _ = self.make_2d(steps=25, seed=3)
        train(model1, pts, tc)
        train(model2, pts, tc)
        for (k, a), b in zip(model1.param_tree().items(), model2.param_tree().values()):
            np.testing.assert_array_equal(a, b, err_msg=k)

    def test_actnorm_init_happens(self):
        model, pts, tc = self.make_2d(steps=1)
        train(model, pts, tc)
        assert model.initialized
        assert all(np.any(a != 0.0) for k, a in model.param_tree().items() if "/actnorm/" in k)

    def test_loss_trend_decreasing(self):
        model, pts, tc = self.make_2d(steps=400, seed=1)
        metrics = []
        train(model, pts, tc, log=metrics.append)
        nll = np.array([m.nll_nats for m in metrics])
        assert nll[200:].mean() < nll[:200].mean()

    def test_log_alpha_stays_finite(self):
        model, pts, tc = self.make_2d(steps=50, seed=2)
        train(model, pts, tc)
        for k, a in model.param_tree().items():
            if k.endswith("/actnorm/log_scale"):
                assert np.all(np.isfinite(a)), k

    def test_metrics_csv_shape(self):
        model, pts, tc = self.make_2d(steps=2)
        metrics = []
        train(model, pts, tc, log=metrics.append)
        row = metrics[0].csv().split(",")
        assert len(row) == 5
        assert int(row[0]) == 1

    @staticmethod
    def set_log_scale_after_init(model, value):
        """Set the first actnorm's log_scale right after train's actnorm init,
        which would overwrite a value set before it."""
        init = model.init_actnorms

        def init_then_set(batch):
            init(batch)
            model.param_tree()["level0/step0/actnorm/log_scale"][:] = value

        model.init_actnorms = init_then_set

    def test_failure_names_step_and_layer(self):
        model, pts, tc = self.make_2d(steps=2)
        self.set_log_scale_after_init(model, 1e3)  # exp overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as e:
                train(model, pts, tc)
        msg = str(e.value)
        assert msg.startswith("step 1: ") and "level0/step0/actnorm" in msg and "\n" not in msg

    def test_nonfinite_loss_aborts(self):
        # the latents stay finite, but the prior's z * z overflows
        model, pts, tc = self.make_2d(steps=2)
        self.set_log_scale_after_init(model, 354.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError) as e:
                train(model, pts, tc)
        assert str(e.value) == "step 1: non-finite loss; aborting"

    def test_empty_dataset_rejected(self):
        model, _, tc = self.make_2d()
        with pytest.raises(DataError):
            train(model, np.zeros((0, 2)), tc)

    def test_bits_must_match_the_model(self):
        # image data would be dequantized at TrainConfig.bits but scored at model.bits
        cfg = ModelConfig(mode="image", channels=2, height=4, width=4, depth_k=1, levels=1,
                          hidden_width=4, bits=3)
        model = MultiScaleModel(cfg, Rng(0).child("model_init"))
        data = Rng(1).integers(0, 8, (8, 2, 4, 4))
        with pytest.raises(ConfigError, match="bits 5 != model bits 3"):
            train(model, data, TrainConfig(batch_size=4, steps=1))


class TestEvaluate:
    def test_nonfinite_nll_names_the_batch(self):
        # z * z overflows for a point at 1e200, so log_prob is -inf there;
        # it is row 300, in the second batch of EVAL_BATCH = 256 rows
        model = random_small_model(Rng(0), mode="rank2")
        data = Rng(1).normal((400, 2))
        data[300, 0] = 1e200
        assert math.isfinite(evaluate_nll(model, data[:256], 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"^eval batch 1 \(first row 256\): non-finite NLL$"):
                evaluate_nll(model, data, 0, 0)

    def test_bits_must_match_the_model(self):
        # 5-bit image data dequantized at 8 bits would be scored as 5-bit data
        model = random_small_model(Rng(0))
        data = Rng(1).integers(0, 32, (8, 2, 4, 4))
        assert math.isfinite(evaluate_nll(model, data, 5, 0))
        with pytest.raises(ConfigError, match="eval bits 8 != model bits 5"):
            evaluate_nll(model, data, 8, 0)


# Five steps of the canonical image config; writes the parameter bytes to stdout.
IMAGE_TRAINING = """
import sys
from nxnflow.data import gen_textures
from nxnflow.model import ModelConfig, build_model
from nxnflow.tensor import Rng
from nxnflow.training import TrainConfig, train
cfg = ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                  hidden_width=32, bits=5)
model = build_model(cfg, 0)
train(model, gen_textures(256, 3, 8, 5, Rng(0).child("data")).images,
      TrainConfig(batch_size=64, steps=5, seed=0, bits=5))
sys.stdout.buffer.write(model.theta.tobytes())
"""


def test_image_training_is_independent_of_blas_threads():
    # at batch 64 the level-0 kernel-gradient product (32 x 1024 x 288
    # multiply-adds) is above the size at which OpenBLAS uses its threads
    src = str(Path(nxnflow.__file__).resolve().parents[1])
    theta = [subprocess.run([sys.executable, "-c", IMAGE_TRAINING], capture_output=True, check=True,
                            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)).stdout
             for threads in ("1", "2")]
    assert theta[0] and theta[0] == theta[1]


class TestActNormInitQuality:
    def test_post_init_statistics(self):
        cfg = ModelConfig(mode="image", channels=3, height=8, width=8,
                          depth_k=2, levels=2, hidden_width=8, bits=5)
        model = MultiScaleModel(cfg, Rng(0).child("model_init"))
        batch = Rng(1).normal((64, 3, 8, 8)) * 2.0 + 0.5
        model.init_actnorms(batch)
        # the first actnorm of the first level sees squeeze(batch)
        from nxnflow.layers import squeeze2x2
        h = squeeze2x2(batch)
        y, _, _ = dict(model.flow)["level0/step0/actnorm"].forward(h)
        mu = y.mean(axis=(0, 2, 3))
        sigma = y.std(axis=(0, 2, 3))
        assert np.max(np.abs(mu)) <= 1e-9
        assert np.max(np.abs(sigma - 1.0)) <= 1e-6
