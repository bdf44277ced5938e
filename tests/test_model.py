import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from nxnflow.errors import (ConfigError, DegenerateChannelError, FormatError, NumericError,
                            ShapeError, StateError)
from nxnflow.layers import split_channels, squeeze2x2
from nxnflow.model import ModelConfig, bits_per_dim, build_model, flat_views, standard_normal_logp
from nxnflow.suites import random_small_model
from nxnflow.tensor import Rng
from nxnflow.training import TrainConfig, train


class TestConfig:
    def test_indivisible_extents_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(mode="image", channels=1, height=6, width=6, levels=2)

    def test_latent_dims_match_input(self):
        for cfg in [
            ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=1, levels=2),
            ModelConfig(mode="image", channels=1, height=16, width=8, depth_k=1, levels=3),
            ModelConfig(mode="rank2", dim=4, depth_k=1, levels=2),
        ]:
            total = sum(int(np.prod(s)) for s in cfg.z_shapes())
            assert total == cfg.input_dims()

    def test_config_text_roundtrip(self):
        from nxnflow.config import model_config_from_text
        cfg = ModelConfig(mode="image", channels=2, height=4, width=4,
                          depth_k=3, levels=1, hidden_width=7, bits=6)
        assert model_config_from_text(cfg.to_text()) == cfg


class TestForwardInverse:
    def test_empty_flow_is_squeeze(self):
        cfg = ModelConfig(mode="image", channels=1, height=4, width=4,
                          depth_k=0, levels=1, bits=5)
        model = build_model(cfg, 0)
        x = Rng(0).normal((2, 1, 4, 4))
        out = model.forward(x)
        np.testing.assert_array_equal(out.logdet, 0.0)
        np.testing.assert_array_equal(out.z_parts[0], squeeze2x2(x))

    def test_identity_init_logdet_from_mix_only(self):
        cfg = ModelConfig(mode="image", channels=2, height=4, width=4,
                          depth_k=2, levels=1, bits=5)
        model = build_model(cfg, 0)
        x = Rng(1).normal((2, 2, 4, 4))
        out = model.forward(x)
        expected = sum(a.sum() * 4 for k, a in model.param_tree().items()
                       if k.endswith("/mix/log_u_diag"))
        np.testing.assert_allclose(out.logdet, expected, atol=1e-10)

    def test_roundtrip(self):
        model = random_small_model(Rng(3))
        x = Rng(4).normal((3, 2, 4, 4))
        out = model.forward(x)
        assert np.max(np.abs(model.inverse(out.z_parts) - x)) <= 1e-8

    def test_zero_latent_decodes_to_zero_at_identity_init(self):
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=3, levels=1, hidden_width=4)
        model = build_model(cfg, 0)
        z = [np.zeros((2, 2))]
        x = model.inverse(z)
        np.testing.assert_allclose(x, 0.0, atol=1e-12)

    def test_injectivity_spot_check(self):
        model = random_small_model(Rng(5))
        shapes = model.config.z_shapes()
        z1 = [Rng(6).normal((1,) + s) for s in shapes]
        z2 = [Rng(7).normal((1,) + s) for s in shapes]
        x1, x2 = model.inverse(z1), model.inverse(z2)
        assert np.max(np.abs(x1 - x2)) > 1e-6

    def test_shape_validation(self):
        model = random_small_model(Rng(8))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 4, 4)))
        with pytest.raises(ShapeError):
            model.inverse([np.zeros((1, 5, 1, 1))])

    def test_latent_parts_as_lists_and_one_batch_size(self):
        model = random_small_model(Rng(8))
        z = model.forward(Rng(9).normal((3, 2, 4, 4))).z_parts
        np.testing.assert_array_equal(model.inverse([p.tolist() for p in z]), model.inverse(z))
        with pytest.raises(ShapeError, match=r"shape \(2, 16, 1, 1\) != expected \(3, 16, 1, 1\)"):
            model.inverse([z[0], z[1][:2]])


class TestStateTree:
    def test_set_state_copies_and_initializes(self):
        src, dst = random_small_model(Rng(20)), random_small_model(Rng(21))
        assert not dst.initialized
        dst.set_state({k: v.copy() for k, v in src.state_tree().items()})
        assert dst.state_tree().keys() == src.state_tree().keys()
        for k, v in src.state_tree().items():
            np.testing.assert_array_equal(dst.state_tree()[k], v, err_msg=k)
        assert dst.initialized

    def test_set_state_refuses_before_copying(self):
        src, dst = random_small_model(Rng(20)), random_small_model(Rng(21))
        tree = {k: v.copy() for k, v in src.state_tree().items()}
        last = max(k for k in tree if k.endswith("/u_sign"))
        tree[last][0] = 0.0
        before = {k: v.copy() for k, v in dst.state_tree().items()}
        # arrays that sort before the bad one would change if copied
        assert any(not np.array_equal(tree[k], before[k]) for k in tree if k < last)
        with pytest.raises(FormatError, match=last):
            dst.set_state(tree)
        for k, v in before.items():
            np.testing.assert_array_equal(dst.state_tree()[k], v, err_msg=k)

    @pytest.mark.parametrize("first", ["init_actnorms", "set_state"])
    def test_actnorm_init_runs_once(self, first):
        # a second init (or one after a load) would overwrite trained or loaded values
        model = build_model(ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1,
                                        hidden_width=4), 0)
        if first == "init_actnorms":
            model.init_actnorms(Rng(1).normal((64, 2)))
        else:
            model.set_state({k: v.copy() for k, v in model.state_tree().items()})
        before = model.theta.copy()
        with pytest.raises(StateError, match="already initialized"):
            model.init_actnorms(Rng(2).normal((64, 2)))
        np.testing.assert_array_equal(model.theta, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_actnorm_init_refuses_a_nonfinite_batch(self, bad):
        # a NaN std passed the old `sigma < 1e-6` check and set a NaN log_scale
        model = build_model(ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1,
                                        hidden_width=4), 0)
        batch = Rng(1).normal((8, 2))
        batch[3, 1] = bad
        before = model.theta.copy()
        with np.errstate(invalid="ignore"), pytest.raises(
                DegenerateChannelError,
                match="^level0/step0/actnorm: channel 1 has std nan: the batch is not finite$"):
            model.init_actnorms(batch)
        np.testing.assert_array_equal(model.theta, before)
        assert not model.initialized
        model.init_actnorms(Rng(1).normal((8, 2)))
        assert model.initialized and np.isfinite(model.theta).all()

    def test_actnorm_init_refuses_a_batch_whose_variance_overflows(self):
        # every entry is finite, but 1e200 squared is inf: an inf std passed
        # `sigma >= 1e-6`, set a -inf log_scale and marked the model initialized
        model = build_model(ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1,
                                        hidden_width=4), 0)
        batch = Rng(1).normal((8, 2))
        batch[3, 0] = 1e200
        before = model.theta.copy()
        with np.errstate(over="ignore"), pytest.raises(
                DegenerateChannelError,
                match="^level0/step0/actnorm: channel 0 has std inf: the batch variance overflows$"):
            model.init_actnorms(batch)
        np.testing.assert_array_equal(model.theta, before)
        assert not model.initialized
        model.init_actnorms(Rng(1).normal((8, 2)))
        assert model.initialized and np.isfinite(model.theta).all()

    def test_param_tree_stays_live_across_actnorm_init(self):
        model = build_model(ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1,
                                        hidden_width=4), 0)
        tree = model.param_tree()
        model.init_actnorms(Rng(1).normal((64, 2)))
        for k in range(2):
            name = f"level0/step{k}/actnorm"
            for pname, arr in dict(model.flow)[name].params().items():
                assert np.any(arr != 0.0)
                np.testing.assert_array_equal(tree[f"{name}/{pname}"], arr)

    def test_every_parameter_is_a_view_of_theta(self):
        # actnorm init, set_state and training write into the parameters in
        # place, so each stays the view of model.theta at its param_tree() slot
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1, hidden_width=4)
        pts = Rng(1).normal((64, 2))

        def assert_views_of_theta(model):
            tree = model.param_tree()
            model.state_tree()  # adds the PLU buffers to its own copy only
            assert not any(k.endswith(("/p", "/u_sign")) for k in tree)
            assert model.theta.size == sum(a.size for a in tree.values())
            for k, view in flat_views(model.theta, tree).items():
                arr = tree[k]
                assert (arr.ctypes.data, arr.shape, arr.strides) == (
                    view.ctypes.data, view.shape, view.strides), k

        model = build_model(cfg, 0)
        assert_views_of_theta(model)
        model.init_actnorms(pts)
        assert_views_of_theta(model)
        trained = build_model(cfg, 1)
        train(trained, pts, TrainConfig(batch_size=16, steps=2))
        assert_views_of_theta(trained)
        model.set_state({k: v.copy() for k, v in trained.state_tree().items()})
        assert_views_of_theta(model)
        np.testing.assert_array_equal(model.theta, trained.theta)


class TestStructure:
    """A flow step is actnorm -> 1x1 mix -> coupling, with no second
    per-channel affine after actnorm."""

    @pytest.mark.parametrize("cfg, arrays", [
        (ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                     hidden_width=32, bits=5), 176),
        (ModelConfig(mode="rank2", dim=2, depth_k=8, levels=1, hidden_width=32), 88),
    ], ids=["image", "rank2"])
    def test_steps_and_param_count(self, cfg, arrays):
        model = build_model(cfg, 0)
        for steps in model.steps:
            for step in steps:
                assert tuple(name for name, _ in step.sublayers()) == (
                    "actnorm", "mix", "coupling")
        assert len(model.param_tree()) == arrays

    def test_loss_and_grads_names_no_parameter(self):
        # the gradient is laid out from backward's lists, without params()
        model = random_small_model(Rng(40))
        x = Rng(41).normal((2, 2, 4, 4))
        want_loss, want = model.loss_and_grads(x)

        def refuse():
            raise AssertionError("params() called")

        for _, layer in model.flow:
            for obj in (layer, getattr(layer, "net", None)):
                if obj is not None:
                    obj.params = refuse
        loss, grad = model.loss_and_grads(x)
        assert loss == want_loss and grad.shape == model.theta.shape
        np.testing.assert_array_equal(grad, want)

    @pytest.mark.parametrize("mode", ["image", "rank2"])
    def test_loss_and_grads_on_an_empty_batch_is_a_shape_error(self, mode):
        # the mean of no losses warned and -1/n divided by zero
        model = random_small_model(Rng(42), mode)
        x = np.zeros((0,) + model.config.input_shape())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="at least one sample"):
                model.loss_and_grads(x)

    def test_image_loss_and_grads_frees_each_cache_after_its_backward(self):
        # each cache leaves the tape before its layer's backward, so the
        # activations of the layers already done are freed as the backward
        # goes; with the whole tape kept to the end the peak was 17 MB
        cfg = ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                          hidden_width=32)
        model = build_model(cfg, 0)
        x = Rng(1).uniform((64, 3, 8, 8))
        model.init_actnorms(x)
        forward_with_tape, tapes = model.forward_with_tape, []

        def keep_tape(x):
            out, tape = forward_with_tape(x)
            tapes.append(tape)
            return out, tape

        model.forward_with_tape = keep_tape
        tracemalloc.start()
        try:
            model.loss_and_grads(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tapes == [[]]
        assert peak < 13.5e6

    def test_set_state_refuses_shift_array(self):
        model = random_small_model(Rng(22))
        tree = {k: v.copy() for k, v in model.state_tree().items()}
        tree["level0/step0/shift/log_scale"] = np.zeros(8)
        with pytest.raises(FormatError, match="level0/step0/shift/log_scale"):
            model.set_state(tree)


class TestRank2PublicShapes:
    """Rank-2 points run through the flow as N x D x 1 x 1; every public
    entry point still takes and returns N x D arrays."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_shapes(self, n):
        cfg = ModelConfig(mode="rank2", dim=4, depth_k=2, levels=2, hidden_width=4)
        model = build_model(cfg, 0)
        x = Rng(1).normal((n, 4))
        out = model.forward(x)
        assert [z.shape for z in out.z_parts] == [(n, 2), (n, 2)]
        assert out.logdet.shape == (n,)
        assert model.inverse(out.z_parts).shape == (n, 4)
        assert model.log_prob(x).shape == (n,)
        assert model.sample(n, 1.0, Rng(2)).shape == (n, 4)

    def test_roundtrip(self):
        model = random_small_model(Rng(17), mode="rank2")
        x = Rng(18).normal((6, 2))
        out = model.forward(x)
        assert np.max(np.abs(model.inverse(out.z_parts) - x)) <= 1e-9

    def test_flow_latent_shape_rejected(self):
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=1, levels=1, hidden_width=4)
        model = build_model(cfg, 0)
        with pytest.raises(ShapeError):
            model.inverse([np.zeros((1, 2, 1, 1))])
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 2, 1, 1)))


class TestLogProb:
    def test_prior_only_value(self):
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=0, levels=1)
        model = build_model(cfg, 0)
        lp = model.log_prob(np.zeros((1, 2)))
        assert lp[0] == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_compositionality(self):
        model = random_small_model(Rng(9))
        x = Rng(10).normal((2, 2, 4, 4))
        lp = model.log_prob(x)
        # recompute layer by layer
        h = x
        logdet = np.zeros(2)
        parts = []
        for _, layer in model.flow:
            if layer is None:
                h, factored = split_channels(h)
                parts.append(factored)
                continue
            h, ld, _ = layer.forward(h)
            logdet += ld
        parts.append(h)
        manual = logdet + sum(standard_normal_logp(z) for z in parts)
        np.testing.assert_allclose(lp, manual, atol=1e-10)

    def test_nonfinite_names_layer(self):
        model = random_small_model(Rng(11))
        model.param_tree()["level0/step0/actnorm/log_scale"][:] = 1e6  # exp overflows downstream
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="level0/step0"):
                model.log_prob(Rng(12).normal((1, 2, 4, 4)))


class TestSampling:
    def test_nonfinite_inverse_names_layer(self):
        model = random_small_model(Rng(16))
        model.param_tree()["level0/step0/actnorm/log_scale"][:] = -1e6  # 1/exp underflows to a division by 0
        z = [Rng(17).normal((1,) + s) for s in model.config.z_shapes()]
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite activation at level0/step0/actnorm"):
                model.inverse(z)

    def test_determinism(self):
        model = random_small_model(Rng(13))
        a = model.sample(4, 1.0, Rng(99).child("sample"))
        b = model.sample(4, 1.0, Rng(99).child("sample"))
        np.testing.assert_array_equal(a, b)

    def test_zero_temperature_collapse(self):
        model = random_small_model(Rng(14))
        x = model.sample(8, 1e-12, Rng(1).child("s"))
        z0 = [np.zeros((1,) + s) for s in model.config.z_shapes()]
        ref = model.inverse(z0)
        assert np.max(np.abs(x - ref)) < 1e-6

    def test_empty_flow_sample_mean(self):
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=0, levels=1)
        model = build_model(cfg, 0)
        n = 10_000
        x = model.sample(n, 1.0, Rng(2).child("s"))
        assert np.max(np.abs(x.mean(axis=0))) <= 4.0 / math.sqrt(n)

    def test_invalid_temperature(self):
        model = random_small_model(Rng(15))
        with pytest.raises(ConfigError):
            model.sample(1, 0.0, Rng(0))

    def test_rank2_sample_keeps_no_full_batch_hidden_array(self):
        # each conditioner runs one block of 512 rows at a time, so the peak
        # stays below one N x hidden array of doubles
        cfg = ModelConfig(mode="rank2", dim=2, depth_k=8, levels=1, hidden_width=32)
        model = build_model(cfg, 0)
        model.init_actnorms(Rng(1).normal((256, 2)))
        n = 20_000
        tracemalloc.start()
        try:
            model.sample(n, 1.0, Rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * cfg.hidden_width * 8

    def test_image_log_prob_keeps_no_whole_batch_patch_matrix(self):
        # the kernel-3 convs build patch rows one block of samples at a time,
        # so the peak stays below one level-0 N*H*W x 9*hidden patch matrix
        cfg = ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                          hidden_width=32)
        model = build_model(cfg, 0)
        x = Rng(1).uniform((256, 3, 8, 8))
        model.init_actnorms(x[:64])
        tracemalloc.start()
        try:
            model.log_prob(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 4 * 4 * 9 * cfg.hidden_width * 8


def nonfinite_model(seed: int, log_scale: float):
    """random_small_model whose level0/step1 actnorm overflows (+1e6) or
    underflows to a zero scale (-1e6)."""
    model = random_small_model(Rng(seed))
    model.param_tree()["level0/step1/actnorm/log_scale"][:] = log_scale
    return model


def error_and_warnings(call) -> tuple[str, list]:
    """The NumericError message of call() and the RuntimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as err:
            call()
    return str(err.value), [str(w.message) for w in caught if w.category is RuntimeWarning]


class TestNonFiniteContract:
    # A pass checks only its result and re-runs checked when that is not
    # finite: the message and the numpy warnings must be those of a check
    # after every layer.
    AT_ACTNORM = "non-finite activation at level0/step1/actnorm"

    @pytest.mark.parametrize("call", ["log_prob", "loss_and_grads"])
    def test_forward(self, call):
        model = nonfinite_model(11, 1e6)
        x = Rng(12).normal((4, 2, 4, 4))
        message, warned = error_and_warnings(lambda: getattr(model, call)(x))
        assert message == self.AT_ACTNORM
        assert warned == ["overflow encountered in exp"]

    def test_train(self):
        model = nonfinite_model(11, 1e6)
        model.init_actnorms = lambda batch: None  # random_small_model's are set
        data = Rng(12).integers(0, 32, (8, 2, 4, 4))
        message, warned = error_and_warnings(
            lambda: train(model, data, TrainConfig(batch_size=4, steps=1)))
        assert message == f"step 1: {self.AT_ACTNORM}"
        assert warned == ["overflow encountered in exp"]

    def test_inverse(self):
        model = nonfinite_model(16, -1e6)
        z = [Rng(17).normal((2,) + s) for s in model.config.z_shapes()]
        message, warned = error_and_warnings(lambda: model.inverse(z))
        assert message == self.AT_ACTNORM
        assert warned == ["divide by zero encountered in divide"] * 2 + [
            "invalid value encountered in add"]


def other_threads_cpu_ticks() -> int:
    """utime + stime, in clock ticks, of every thread of this process but
    the calling one: OpenBLAS's workers, when it has woken them."""
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == threading.get_native_id():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread has exited
            continue
        total += int(fields[11]) + int(fields[12])  # stat fields 14 and 15
    return total


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_serve_path_stays_on_one_thread():
    # log_prob and sample of the two benchmark configs wake no BLAS worker:
    # every channel product is issued in one-thread blocks
    rank2 = build_model(ModelConfig(mode="rank2", dim=2, depth_k=8, levels=1, hidden_width=32), 0)
    image = build_model(ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8,
                                    levels=2, hidden_width=32, bits=5), 0)
    x2 = Rng(1).normal((1024, 2))
    xi = Rng(2).uniform((256, 3, 8, 8))
    rank2.init_actnorms(x2)
    image.init_actnorms(xi[:64])

    def serve():
        rank2.log_prob(x2)
        rank2.sample(1024, 1.0, Rng(3))
        image.log_prob(xi)
        image.sample(256, 0.7, Rng(4))

    serve()
    time.sleep(0.3)  # let workers woken before this test go idle
    before = other_threads_cpu_ticks()
    serve()
    assert other_threads_cpu_ticks() - before <= 1


class TestBitsPerDim:
    def test_uniform_baseline(self):
        assert bits_per_dim(0.0, 100, 8) == pytest.approx(8.0)

    def test_formula_arithmetic(self):
        d = 17
        assert bits_per_dim(d * math.log(2.0), d, 5) == pytest.approx(6.0)
