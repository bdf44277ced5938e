"""Exact maximum-likelihood training: Adam, dequantization, train loop. A step
checks and clips one gradient vector and updates ``model.theta`` with it."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError
from .layers import ACTIVATION_BLOCK
from .model import MultiScaleModel, bits_per_dim, flat_views, load_tree
from .tensor import Rng

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard
CLIP_NORM = 50.0                      # global gradient-norm limit
EVAL_BATCH = 256                      # evaluate_nll's batch size


def dequantize(x_int: np.ndarray, bits: int, rng: Rng) -> np.ndarray:
    """(x + u)/2^bits with u ~ U(0,1) i.i.d.; maps b-bit integers into [0, 1)."""
    x_int = np.asarray(x_int)
    levels = 1 << bits
    if x_int.size and (x_int.min() < 0 or x_int.max() >= levels):
        raise DataError(f"integer values out of range [0, {levels})")
    u = rng.uniform(x_int.shape)
    return (x_int.astype(np.float64) + u) / levels


@dataclass
class TrainConfig:
    batch_size: int = 64
    steps: int = 1000
    lr: float = 1e-3
    seed: int = 0
    bits: int = 5
    checkpoint_every: int = 500

    def __post_init__(self):
        if self.batch_size < 2 or self.steps < 1 or self.checkpoint_every < 1:
            raise ConfigError("batch_size >= 2, steps >= 1, checkpoint_every >= 1 required")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")


class Adam:
    """Standard bias-corrected Adam on one flat parameter vector, packed in
    the order of ``params`` (``model.param_tree()`` for ``model.theta``). Each
    moment is one vector laid out the same way; ``m`` and ``v`` map each name
    to a view of its slice, so writing to them writes the state."""

    def __init__(self, params: dict, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        size = sum(p.size for p in params.values())
        self._m, self._v = np.zeros(size), np.zeros(size)
        self.m, self.v = flat_views(self._m, params), flat_views(self._v, params)

    def load_state(self, t: int, m: dict, v: dict) -> None:
        """Continue from saved moments. ``load_tree`` checks them against the
        parameters' names and shapes and for finite entries, naming each as
        ``adam/m/<param>`` or ``adam/v/<param>``; v must also be >= 0 (else
        the first update is non-finite)."""
        for k, a in v.items():
            if (a < 0).any():
                raise FormatError(f"optimizer state adam/v/{k} has a negative entry")
        own = {f"adam/{w}/{k}": a for w, tree in (("m", self.m), ("v", self.v)) for k, a in tree.items()}
        saved = {f"adam/{w}/{k}": a for w, tree in (("m", m), ("v", v)) for k, a in tree.items()}
        load_tree(own, saved, "optimizer state")
        self.t = t

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        """One in-place update of the flat parameter vector ``theta`` from
        the gradient ``g`` laid out like it. ``g`` is consumed: it is
        overwritten with the update. Blocks of ACTIVATION_BLOCK doubles share
        one 128 KB scratch vector; every operation is elementwise, so the bits
        are those of whole-vector operations."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        scratch = np.empty(min(g.size, ACTIVATION_BLOCK))
        for s in range(0, g.size, ACTIVATION_BLOCK):
            m, v, gb = (a[s:s + ACTIVATION_BLOCK] for a in (self._m, self._v, g))
            tmp = scratch[:gb.size]
            # b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and lr*(m/bc1)/(sqrt(v/bc2)+eps)
            # in the per-array formula's order, written into g and the scratch
            m *= BETA1
            m += np.multiply(1 - BETA1, gb, out=tmp)
            v *= BETA2
            v += np.multiply(np.multiply(1 - BETA2, gb, out=tmp), gb, out=tmp)
            np.divide(m, bc1, out=gb)
            gb *= self.lr
            gb /= np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), EPS, out=tmp)
            theta[s:s + ACTIVATION_BLOCK] -= gb


def clip_global_norm(g: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient vector g in place so its L2 norm is at most
    max_norm; returns the norm before scaling."""
    total = math.sqrt(float((g * g).sum()))
    if total > max_norm:
        g *= max_norm / total
    return total


@dataclass
class MetricsRow:
    step: int
    nll_nats: float
    bpd: float
    grad_norm: float
    seconds: float

    def csv(self) -> str:
        return f"{self.step},{self.nll_nats:.6f},{self.bpd:.6f},{self.grad_norm:.6f},{self.seconds:.3f}"


METRICS_HEADER = "step,nll_nats,bpd,grad_norm,seconds"


def train(model: MultiScaleModel, data: np.ndarray, cfg: TrainConfig,
          on_checkpoint=None, log=None, resume=None):
    """Minimize mean NLL on `data`, updating the model in place; each step's
    MetricsRow goes to `log(row)`.

    `data` is integer-valued NCHW for image mode (dequantized per batch) or
    float N x D for rank-2 mode. `on_checkpoint(step, opt, rng_states)` is
    called on the configured cadence and after the final step. `resume` is
    an optional loaded checkpoint whose state tree the model already holds:
    its step, Adam state and "dequantize"/"batches" RNG streams continue the
    run, and actnorm init is skipped. A NumericError names the step.
    """
    if not model.param_tree():
        raise ConfigError("model has no learnable parameters (model.depth_k = 0)")
    image_mode = model.config.mode == "image"
    if image_mode and cfg.bits != model.config.bits:
        raise ConfigError(f"TrainConfig.bits {cfg.bits} != model bits {model.config.bits}")
    n = data.shape[0]
    if n == 0:
        raise DataError("empty dataset")
    dims = model.config.input_dims()

    if resume is None:
        rng = Rng(cfg.seed)
        deq_rng = rng.child("dequantize")
        batch_rng = rng.child("batches")
        start_step = 0
    else:
        for what, count in (("step", resume.step), ("Adam t", resume.adam_t)):
            if count + cfg.steps >= 1 << 64:  # the checkpoint stores both as u64
                raise FormatError(f"checkpoint {what} {count} + {cfg.steps} steps exceeds 2^64 - 1")
        try:
            states = json.loads(resume.rng_state)
            deq_rng, batch_rng = (Rng.from_state_json(states[k]) for k in ("dequantize", "batches"))
        except (ValueError, KeyError, TypeError, AttributeError, IndexError, OverflowError) as e:
            raise FormatError(f"checkpoint rng state is not a training stream state: {e!r}") from None
        start_step = resume.step

    def get_batch():
        idx = batch_rng.integers(0, n, (cfg.batch_size,))
        batch = data[idx]
        if image_mode:
            batch = dequantize(batch, cfg.bits, deq_rng)
        return np.asarray(batch, dtype=np.float64)

    if resume is None:
        model.init_actnorms(get_batch())
    params = model.param_tree()  # name -> view of model.theta
    opt = Adam(params, cfg.lr)
    if resume is not None:
        opt.load_state(resume.adam_t, resume.adam_m, resume.adam_v)

    t0 = time.monotonic()
    for step in range(start_step + 1, start_step + cfg.steps + 1):
        batch = get_batch()
        try:
            loss, g = model.loss_and_grads(batch)
            if not math.isfinite(loss):
                raise NumericError("non-finite loss; aborting")
            if not np.isfinite(g).all():
                bad = next(k for k, a in flat_views(g, params).items() if not np.isfinite(a).all())
                raise NumericError(f"non-finite gradient of {bad}; step aborted")
        except NumericError as e:
            raise NumericError(f"step {step}: {e}") from None
        gnorm = clip_global_norm(g, CLIP_NORM)
        opt.step(model.theta, g)
        del g  # no gradient stays alive through the next forward pass
        row = MetricsRow(step, loss, bits_per_dim(loss, dims, cfg.bits if image_mode else 0),
                         gnorm, time.monotonic() - t0)
        if log is not None:
            log(row)
        if on_checkpoint is not None and (step % cfg.checkpoint_every == 0
                                          or step == start_step + cfg.steps):
            rng_states = {"dequantize": deq_rng.state_json(),
                          "batches": batch_rng.state_json()}
            on_checkpoint(step, opt, rng_states)


def evaluate_nll(model: MultiScaleModel, data: np.ndarray, bits: int, seed: int) -> float:
    """Mean NLL in nats over a dataset in batches of EVAL_BATCH rows, with
    seeded dequantization at ``bits``, which in image mode must be the
    model's own, and numpy's warnings off. A non-finite NLL is a
    NumericError naming the batch."""
    rng = Rng(seed).child("eval_dequantize")
    image_mode = model.config.mode == "image"
    if image_mode and bits != model.config.bits:
        raise ConfigError(f"eval bits {bits} != model bits {model.config.bits}")
    if data.shape[0] == 0:
        raise DataError("empty dataset")
    total = 0.0
    for b, start in enumerate(range(0, data.shape[0], EVAL_BATCH)):
        batch = data[start:start + EVAL_BATCH]
        if image_mode:
            batch = dequantize(batch, bits, rng)
        try:
            with np.errstate(all="ignore"):
                total += float(-model.log_prob(np.asarray(batch, dtype=np.float64)).sum())
            if not math.isfinite(total):
                raise NumericError("non-finite NLL")
        except NumericError as e:
            raise NumericError(f"eval batch {b} (first row {start}): {e}") from None
    return total / data.shape[0]
