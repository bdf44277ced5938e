"""Exact maximum-likelihood training: Adam, dequantization, train loop."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError
from .model import MultiScaleModel, bits_per_dim
from .tensor import Rng

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard
CLIP_NORM = 50.0                      # global gradient-norm limit


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
    """Standard bias-corrected Adam over a named parameter tree.

    Each moment is one flat float64 vector; parameter k owns the slice
    ``slices[k]`` of it, in the parameter order given at construction.
    ``m`` and ``v`` map each name to a view of its slice in the
    parameter's shape, so writing to them writes the state.
    """

    def __init__(self, params: dict, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.slices, end = {}, 0
        for k, p in params.items():
            self.slices[k] = slice(end, end + p.size)
            end += p.size
        self._m, self._v = np.zeros(end), np.zeros(end)
        self.m = {k: self._m[s].reshape(params[k].shape) for k, s in self.slices.items()}
        self.v = {k: self._v[s].reshape(params[k].shape) for k, s in self.slices.items()}

    def gather(self, grads: dict) -> np.ndarray:
        """The gradient tree as one new flat vector in parameter order."""
        g = np.concatenate([grads[k] for k in self.slices], axis=None)
        if not np.isfinite(g).all():
            bad = next(k for k, s in self.slices.items() if not np.isfinite(g[s]).all())
            raise NumericError(f"non-finite gradient of {bad}; step aborted")
        return g

    def load_state(self, t: int, m: dict, v: dict) -> None:
        """Continue from saved moments, whose names and shapes must be the
        parameters' own."""
        for what, saved in (("m", m), ("v", v)):
            bad = sorted(saved.keys() ^ self.m.keys()) or [
                k for k in self.m if saved[k].shape != self.m[k].shape]
            if bad:
                raise FormatError(f"optimizer state {what} does not match the model's "
                                  f"parameters at {bad[0]!r}")
        self.t = t
        for k in self.m:
            self.m[k][...] = m[k]
            self.v[k][...] = v[k]

    def step(self, params: dict, g: np.ndarray) -> None:
        """One update from the flat gradient vector ``g`` (see ``gather``),
        which is consumed: it is overwritten with the update. Each parameter
        array in ``params`` is updated in place."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        m, v = self._m, self._v
        tmp = np.empty_like(g)
        # b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and lr*(m/bc1)/(sqrt(v/bc2)+eps)
        # in the per-array formula's order, written into g and one scratch vector
        m *= BETA1
        m += np.multiply(1 - BETA1, g, out=tmp)
        v *= BETA2
        v += np.multiply(np.multiply(1 - BETA2, g, out=tmp), g, out=tmp)
        np.divide(m, bc1, out=g)
        g *= self.lr
        g /= np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), EPS, out=tmp)
        for k, s in self.slices.items():
            p = params[k]
            p -= g[s].reshape(p.shape)


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
    """Minimize mean NLL on `data`; returns (model, list of MetricsRow).

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
        if resume.adam_t is None:
            raise ConfigError("checkpoint has no optimizer state; cannot resume")
        try:
            states = json.loads(resume.rng_state)
            deq_rng, batch_rng = (Rng.from_state_json(states[k]) for k in ("dequantize", "batches"))
        except (ValueError, KeyError, TypeError, AttributeError) as e:
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
    params = model.param_tree()  # live arrays, updated in place by every step
    opt = Adam(params, cfg.lr)
    if resume is not None:
        opt.load_state(resume.adam_t, resume.adam_m, resume.adam_v)

    metrics = []
    t0 = time.monotonic()
    for step in range(start_step + 1, start_step + cfg.steps + 1):
        batch = get_batch()
        try:
            loss, grads, _ = model.loss_and_grads(batch)
            if not math.isfinite(loss):
                raise NumericError("non-finite loss; aborting")
            g = opt.gather(grads)
        except NumericError as e:
            raise NumericError(f"step {step}: {e}") from None
        del grads  # the flat copy is all the update needs
        gnorm = clip_global_norm(g, CLIP_NORM)
        opt.step(params, g)
        del g  # no gradient stays alive through the next forward pass
        row = MetricsRow(step, loss, bits_per_dim(loss, dims, cfg.bits if image_mode else 0),
                         gnorm, time.monotonic() - t0)
        metrics.append(row)
        if log is not None:
            log(row)
        if on_checkpoint is not None and (step % cfg.checkpoint_every == 0
                                          or step == start_step + cfg.steps):
            rng_states = {"dequantize": deq_rng.state_json(),
                          "batches": batch_rng.state_json()}
            on_checkpoint(step, opt, rng_states)
    return model, metrics


def evaluate_nll(model: MultiScaleModel, data: np.ndarray, bits: int, seed: int,
                 batch_size: int = 256) -> float:
    """Mean NLL in nats over a dataset, with seeded dequantization."""
    rng = Rng(seed).child("eval_dequantize")
    image_mode = model.config.mode == "image"
    total, count = 0.0, 0
    for start in range(0, data.shape[0], batch_size):
        batch = data[start:start + batch_size]
        if image_mode:
            batch = dequantize(batch, bits, rng)
        lp = model.log_prob(np.asarray(batch, dtype=np.float64))
        total += float(-lp.sum())
        count += batch.shape[0]
    if count == 0:
        raise DataError("empty dataset")
    return total / count
