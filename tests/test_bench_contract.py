"""The library calls the benchmark traces (perfbench/tracing.py) exist and
still run in training.

The tracer wraps `training.Adam.step`, `training.clip_global_norm` and the
layers it finds through `model.steps`, and the benchmark's checkpoint
callback reads `opt.t`, `opt.m` and `opt.v`. A change that renames or
bypasses one of them leaves the benchmark without the span or the state; this
test fails first. perfbench/ is only imported here, never modified.
"""

import importlib.util
import pathlib

import numpy as np

from nxnflow import checkpoint, data, training
from nxnflow.model import ModelConfig, build_model
from nxnflow.tensor import Rng

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_traced_steps_have_every_span_the_benchmark_reads():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cfg = ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1, hidden_width=8)
    model = build_model(cfg, 0)
    pts = data.gen_2d("eight_gaussians", 256, Rng(0).child("data")).points
    saved = []

    def on_checkpoint(step, opt, rng_states):  # the benchmark's checkpoint callback
        saved.append(checkpoint.Checkpoint(
            config_text=cfg.to_text(), step=step, params=checkpoint.snapshot_params(model),
            adam_t=opt.t, adam_m={k: v.copy() for k, v in opt.m.items()},
            adam_v={k: v.copy() for k, v in opt.v.items()}, rng_state="{}"))

    tracer.instrument_library({"training": training, "checkpoint": checkpoint, "data": data})
    try:
        tracer.instrument_model(model)
        training.train(model, pts, training.TrainConfig(batch_size=32, steps=2, bits=cfg.bits,
                                                        checkpoint_every=2),
                       on_checkpoint=on_checkpoint)
    finally:
        tracer.close()
    calls = {}
    for span in tracer.spans:
        calls[span[tracing.NAME]] = calls.get(span[tracing.NAME], 0) + 1
    assert calls["training.train"] == 1
    assert calls["model.loss_and_grads"] == calls["training.adam"] == calls["training.clip"] == 2
    for kind in ("actnorm", "mix", "coupling", "conv"):
        for direction in ("forward", "backward"):
            assert calls.get(f"layers.{kind}.{direction}", 0) > 0, (kind, direction)
    # per training step: 2 flow steps x 3 layers, and 3 convs per coupling
    assert calls["layers.conv.backward"] == 2 * 2 * 3
    [ck] = saved
    assert ck.adam_t == 2 and ck.adam_m.keys() == ck.adam_v.keys() == model.param_tree().keys()
    for k, m in ck.adam_m.items():
        assert m.shape == model.param_tree()[k].shape and np.any(m != 0), k
