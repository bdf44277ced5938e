"""Spans around nxnflow's public callables, recorded from outside src/.

A span is one call: its name, flow level (for layer calls), the benchmark
phase and the outermost model method it ran under ("ctx"), start, duration,
parent span and root span (spans of one train step or one sample batch share
a root). Self time is duration minus the durations of child spans, so the
self times of a subtree add up to its root's duration.

Operation counts (FLOPs, bytes) are computed from the shapes at each call
boundary, not measured: dense products count 2*M*N*K flops, bytes count
every float64 array read or written at the boundary once.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_perf = time.perf_counter

# record fields
NAME, LEVEL, PHASE, CTX, T0, DUR, CHILD, PARENT, ROOT, FLOPS, BYTES = range(11)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "other"
        self.active = True
        self._patches = contextlib.ExitStack()

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name, level=None, cost=None):
        """Return fn wrapped in a span; cost(args) -> (flops, bytes)."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if stack:
                parent = spans[stack[-1]]
                pidx, root = stack[-1], parent[ROOT]
                ctx = parent[CTX] or (name if name.startswith("model.") else None)
            else:
                pidx, root = -1, len(spans)
                ctx = name if name.startswith("model.") else None
            flops, nbytes = cost(args) if cost is not None else (0, 0)
            idx = len(spans)
            rec = [name, level, self.phase, ctx, 0.0, 0.0, 0.0, pidx, root, flops, nbytes]
            spans.append(rec)
            stack.append(idx)
            rec[T0] = t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[DUR] = dur = _perf() - t0
                stack.pop()
                if pidx >= 0:
                    spans[pidx][CHILD] += dur

        return traced

    def patch(self, owner, attr, name, **kw):
        """Replace owner.attr by a traced wrapper until close()."""
        original = getattr(owner, attr)
        self._patches.callback(setattr, owner, attr, original)
        setattr(owner, attr, self.wrap(original, name, **kw))

    def close(self):
        self._patches.close()

    # -- instrumentation ------------------------------------------------------

    def instrument_library(self, nxnflow_modules) -> None:
        """Module-level callables; undone by close()."""
        training, checkpoint, data = (nxnflow_modules[k] for k in ("training", "checkpoint", "data"))
        self.patch(training, "train", "training.train")
        self.patch(training, "evaluate_nll", "training.evaluate_nll")
        self.patch(training, "dequantize", "training.dequantize")
        self.patch(training, "clip_global_norm", "training.clip")
        self.patch(training.Adam, "step", "training.adam")
        self.patch(checkpoint, "save", "checkpoint.save")
        self.patch(checkpoint, "load", "checkpoint.load")
        self.patch(checkpoint, "restore_model", "checkpoint.restore_model")
        self.patch(data, "gen_2d", "data.generate")
        self.patch(data, "gen_textures", "data.generate")

    def instrument_model(self, model) -> None:
        """Per-instance wrappers on the model, every layer and every conv,
        so each span knows its flow level."""
        for meth in ("loss_and_grads", "forward_with_tape", "forward", "log_prob",
                     "inverse", "sample", "init_actnorms"):
            setattr(model, meth, self.wrap(getattr(model, meth), f"model.{meth}"))
        for lev, steps in enumerate(model.steps):
            for step in steps:
                for kind, layer in step.sublayers():
                    for d in ("forward", "backward", "inverse"):
                        cost = _mix_cost(layer, d) if kind == "mix" else None
                        setattr(layer, d, self.wrap(getattr(layer, d), f"layers.{kind}.{d}",
                                                    level=lev, cost=cost))
                for conv in step.coupling.net.layers:
                    for d in ("forward", "backward"):
                        setattr(conv, d, self.wrap(getattr(conv, d), f"layers.conv.{d}",
                                                   level=lev, cost=_conv_cost(conv, d)))

    # -- aggregation ----------------------------------------------------------

    def table(self) -> dict:
        """(phase, ctx, name, level) -> calls, total and self seconds, flops, bytes."""
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        for s in self.spans:
            a = agg[(s[PHASE], s[CTX], s[NAME], s[LEVEL])]
            a[0] += 1
            a[1] += s[DUR]
            a[2] += s[DUR] - s[CHILD]
            a[3] += s[FLOPS]
            a[4] += s[BYTES]
        return agg


def _conv_cost(conv, direction):
    c_out, c_in, k, _ = conv.w.shape

    def cost(args):
        # forward(x): x is N x Cin x H x W; backward(dy, cache): dy is N x Cout x H x W
        n, _, h, w = args[0].shape
        mac = n * h * w * c_out * c_in * k * k
        act_in, act_out, weights = n * c_in * h * w, n * c_out * h * w, c_out * c_in * k * k
        if direction == "forward":
            return 2 * mac, 8 * (act_in + act_out + weights + c_out)
        # input gradient and weight gradient: two products of the forward's size
        return 4 * mac, 8 * (act_out + 2 * act_in + 2 * weights + c_out)

    return cost


def _mix_cost(layer, direction):
    c = layer.channels

    def cost(args):
        x = args[0]
        pixels = x.shape[0] * (x.shape[2] * x.shape[3] if x.ndim == 4 else 1)
        act, weights = pixels * c, c * c
        if direction == "forward":
            return 2 * pixels * c * c, 8 * (2 * act + weights)
        if direction == "inverse":
            # permutation product plus two triangular solves (C^2 per fibre each)
            return 4 * pixels * c * c, 8 * (2 * act + 3 * weights)
        return 4 * pixels * c * c, 8 * (3 * act + 2 * weights)

    return cost


LAYER_KINDS = ("actnorm", "shift", "mix", "coupling")
TRAIN_CTX = "model.loss_and_grads"
SAMPLE_CTX = "model.sample"


def per_layer_metrics(agg, datagen_events: int) -> dict:
    """Per-layer metrics from an aggregated table.

    Forward/backward figures are per train step (spans under
    loss_and_grads), inverse figures per sample batch (spans under sample),
    log_prob per eval batch of the serve phase. "l0" is the first flow
    level; the figure without a level sums all levels.
    """

    def pick(name, ctx=None, phase=None, level=None, field=2):
        total = 0.0
        for (ph, cx, nm, lv), a in agg.items():
            if nm != name or (ctx is not None and cx != ctx) or (phase is not None and ph != phase):
                continue
            if level is not None and lv != level:
                continue
            total += a[field]
        return total

    def calls(name, **kw):
        return pick(name, field=0, **kw)

    steps = calls("model.loss_and_grads")
    batches = calls("model.sample")
    m = {}
    for scope, level in (("l0.", 0), ("", None)):
        for kind in LAYER_KINDS:
            m[f"layers.{kind}.{scope}forward_ms"] = 1e3 * pick(
                f"layers.{kind}.forward", ctx=TRAIN_CTX, level=level) / steps
            m[f"layers.{kind}.{scope}backward_ms"] = 1e3 * pick(
                f"layers.{kind}.backward", ctx=TRAIN_CTX, level=level) / steps
            m[f"layers.{kind}.{scope}inverse_ms"] = 1e3 * pick(
                f"layers.{kind}.inverse", ctx=SAMPLE_CTX, level=level) / batches
        conv_time = conv_flops = 0.0
        for d in ("forward", "backward"):
            t = pick(f"layers.conv.{d}", ctx=TRAIN_CTX, level=level)
            conv_time += t
            conv_flops += pick(f"layers.conv.{d}", ctx=TRAIN_CTX, level=level, field=3)
            m[f"layers.conv.{scope}{d}_ms"] = 1e3 * t / steps
        m[f"layers.conv.{scope}inverse_ms"] = 1e3 * pick(
            "layers.conv.forward", ctx=SAMPLE_CTX, level=level) / batches
        m[f"layers.conv.{scope}gflops_per_s"] = conv_flops / conv_time / 1e9

    fwd = pick("model.forward_with_tape", ctx=TRAIN_CTX, field=1)
    step_total = pick("model.loss_and_grads", field=1)
    glue = sum(pick(n, ctx=TRAIN_CTX) for n in ("model.loss_and_grads", "model.forward_with_tape"))
    m["model.forward_ms"] = 1e3 * fwd / steps
    m["model.backward_ms"] = 1e3 * (step_total - fwd) / steps
    m["model.glue_ms"] = 1e3 * glue / steps
    m["model.inverse_ms"] = 1e3 * pick("model.inverse", ctx=SAMPLE_CTX, field=1) / batches
    m["model.inverse_glue_ms"] = 1e3 * sum(
        pick(n, ctx=SAMPLE_CTX) for n in ("model.sample", "model.inverse")) / batches
    m["model.log_prob_ms"] = 1e3 * pick("model.log_prob", phase="serve", field=1) / calls(
        "model.log_prob", phase="serve")

    m["training.adam_ms"] = 1e3 * pick("training.adam", phase="train", field=1) / steps
    m["training.clip_ms"] = 1e3 * pick("training.clip", phase="train", field=1) / steps
    m["training.dequantize_ms"] = 1e3 * pick("training.dequantize", phase="train", field=1) / steps
    m["training.loop_self_ms"] = 1e3 * pick("training.train", phase="train") / steps

    m["checkpoint.save_ms"] = 1e3 * pick("checkpoint.save", field=1) / calls("checkpoint.save")
    m["checkpoint.load_ms"] = 1e3 * pick("checkpoint.load", field=1) / calls("checkpoint.load")
    m["data.generate_s"] = pick("data.generate", field=1) / datagen_events

    layer_names = [f"layers.{k}.{d}" for k in LAYER_KINDS for d in ("forward", "backward")]
    layer_names += ["layers.conv.forward", "layers.conv.backward"]
    m["count.layer_calls_per_step"] = sum(calls(n, ctx=TRAIN_CTX) for n in layer_names) / steps
    m["count.layer_calls_per_sample_batch"] = sum(
        calls(n, ctx=SAMPLE_CTX) for n in
        [f"layers.{k}.inverse" for k in LAYER_KINDS] + ["layers.conv.forward"]) / batches
    for kind in ("conv", "mix"):
        for field, what in ((3, "flops"), (4, "bytes")):
            m[f"count.{kind}.{what}_per_step"] = sum(
                pick(f"layers.{kind}.{d}", ctx=TRAIN_CTX, field=field)
                for d in ("forward", "backward")) / steps
    m["count.mix.flops_per_sample_batch"] = pick(
        "layers.mix.inverse", ctx=SAMPLE_CTX, field=3) / batches
    m["count.conv.flops_per_sample_batch"] = pick(
        "layers.conv.forward", ctx=SAMPLE_CTX, field=3) / batches

    # The reported parts must add up to what they decompose: layer and conv
    # self times plus model glue against loss_and_grads, and likewise for
    # inverse. Anything a layer walk does outside a span would show here.
    train_parts = sum(m[f"layers.{k}.{d}_ms"] for k in LAYER_KINDS for d in ("forward", "backward"))
    train_parts += m["layers.conv.forward_ms"] + m["layers.conv.backward_ms"] + m["model.glue_ms"]
    m["trace.train_coverage_frac"] = train_parts / (m["model.forward_ms"] + m["model.backward_ms"])
    sample_parts = sum(m[f"layers.{k}.inverse_ms"] for k in LAYER_KINDS)
    sample_parts += m["layers.conv.inverse_ms"] + m["model.inverse_glue_ms"]
    m["trace.sample_coverage_frac"] = sample_parts / (
        1e3 * pick("model.sample", ctx=SAMPLE_CTX, field=1) / batches)
    return m


def table_rows(agg) -> list:
    """The aggregated table as JSON-ready rows, largest self time first."""
    rows = [{"phase": ph, "ctx": cx, "name": nm, "level": lv, "calls": a[0],
             "total_ms": 1e3 * a[1], "self_ms": 1e3 * a[2], "flops": a[3], "bytes": a[4]}
            for (ph, cx, nm, lv), a in agg.items()]
    rows.sort(key=lambda r: -r["self_ms"])
    return rows
