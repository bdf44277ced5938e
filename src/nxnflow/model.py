"""Multi-scale flow model: squeeze -> K flow steps -> split, per level.

One flow step applies actnorm (a ChannelAffine), then the invertible 1x1
PLU channel mix, then an affine coupling. The paper's n x n layer (a spatial
shift composed with that mix) is not a model layer yet. The whole flow is
one ordered list of named layers with split markers between levels, and
every pass over the model is one loop over that list. Every parameter is a
view of one vector, ``theta``, in ``param_tree()`` order, and
``loss_and_grads`` returns the gradient as one vector laid out like it. Exact
log-likelihood is the standard-normal prior term on all latent parts plus
the accumulated log-determinant.
Layers see only NCHW tensors; this module alone knows the rank-2 layout:
N x D points run through the flow as N x D x 1 x 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateChannelError, FormatError, NumericError, ShapeError, StateError
from .layers import ChannelAffine, Coupling, Inv1x1, Squeeze, split_channels, unsplit_channels
from .tensor import Rng

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ModelConfig:
    mode: str = "rank2"                # "rank2" (N x D) or "image" (NCHW)
    channels: int = 3
    height: int = 8
    width: int = 8
    dim: int = 2                       # rank2 only
    depth_k: int = 8
    levels: int = 1
    hidden_width: int = 32
    bits: int = 5                      # image bit depth for dequantization / bpd

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.mode not in ("image", "rank2"):
            raise ConfigError(f"unknown model mode {self.mode!r}")
        if self.depth_k < 0 or min(self.levels, self.hidden_width, self.channels,
                                   self.height, self.width) < 1:
            raise ConfigError("depth_k >= 0 and levels, hidden_width, channels, height, "
                              "width >= 1 required")
        if self.mode == "image":
            if not (1 <= self.bits <= 8):
                raise ConfigError("bits must be in [1, 8]")
            div = 2 ** self.levels
            if self.height % div or self.width % div:
                raise ConfigError(
                    f"spatial extents {self.height}x{self.width} must be divisible by 2^levels={div}")
        else:
            if self.dim < 2:
                raise ConfigError("rank2 mode needs dim >= 2")
        for c, _, _ in self.level_shapes():
            if self.depth_k > 0 and c < 2:
                raise ConfigError("coupling needs >= 2 channels at every level")

    def input_shape(self):
        if self.mode == "image":
            return (self.channels, self.height, self.width)
        return (self.dim,)

    def input_dims(self) -> int:
        return int(np.prod(self.input_shape()))

    def level_shapes(self):
        """(channels, h, w) seen by the flow steps of each level (post-squeeze)."""
        out = []
        image = self.mode == "image"
        c, h, w = (self.channels, self.height, self.width) if image else (self.dim, 1, 1)
        for lev in range(self.levels):
            if image:
                c, h, w = 4 * c, h // 2, w // 2
            out.append((c, h, w))
            if lev < self.levels - 1:
                if c % 2:
                    raise ConfigError("split needs an even channel count")
                c //= 2
        return out

    def z_shapes(self):
        """Shapes of the latent parts emitted by splits plus the final part."""
        shapes = []
        levels = self.level_shapes()
        for lev, (c, h, w) in enumerate(levels):
            if lev < self.levels - 1:
                part = (c // 2, h, w)
            else:
                part = (c, h, w)
            shapes.append(part if self.mode == "image" else (part[0],))
        return shapes

    def to_text(self) -> str:
        return "".join(f"model.{f.name} = {getattr(self, f.name)}\n" for f in fields(self))


@dataclass
class FlowOutput:
    z_parts: list
    logdet: np.ndarray  # (N,)


class FlowStep:
    """actnorm -> 1x1 mix -> coupling, in that order."""

    def __init__(self, channels: int, hidden: int, kernel: int, rng: Rng):
        self.actnorm = ChannelAffine(channels)
        self.mix = Inv1x1(channels, rng.child("mix"))
        self.coupling = Coupling(channels, hidden, kernel, rng.child("coupling"))

    def sublayers(self):
        return [("actnorm", self.actnorm), ("mix", self.mix), ("coupling", self.coupling)]


def standard_normal_logp(z: np.ndarray) -> np.ndarray:
    """log N(z; 0, I) summed over non-batch axes, per sample."""
    axes = tuple(range(1, z.ndim))
    d = int(np.prod(z.shape[1:]))
    return -0.5 * (z * z).sum(axis=axes) - 0.5 * d * LOG_2PI


def bits_per_dim(nll_nats: float, dims: int, bits: int) -> float:
    """NLL in nats -> bits/dim for data scaled to [0,1] at the given depth."""
    return nll_nats / (dims * math.log(2.0)) + bits


# The flow entry that moves half the channels to the latent between levels.
SPLIT = ("split", None)


def flat_views(flat: np.ndarray, tree: dict) -> dict:
    """Name -> view of ``flat`` in the shape of ``tree[name]``; the views
    follow each other in the tree's order."""
    ends = np.cumsum([a.size for a in tree.values()], dtype=np.intp)
    return {k: flat[e - a.size:e].reshape(a.shape) for (k, a), e in zip(tree.items(), ends)}


def load_tree(own: dict, saved: dict, what: str) -> None:
    """Copy each array of ``saved`` into the array of ``own`` of that name,
    once every name is in both, every shape matches and every entry is
    finite; otherwise a FormatError names the first bad array in name order
    as ``what`` and nothing is copied."""
    for name in sorted(own.keys() | saved.keys()):
        if name not in own or name not in saved:
            where = "checkpoint" if name in saved else "model"
            raise FormatError(f"{what} {name} exists only in the {where}")
        arr = saved[name]
        if arr.shape != own[name].shape:
            raise FormatError(f"{what} {name} has shape {arr.shape}, the model's is {own[name].shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{what} {name} is not finite")
    for name, arr in own.items():
        arr[...] = saved[name]


class MultiScaleModel:
    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        self.initialized = False  # set once, by init_actnorms or set_state
        kernel = 3 if config.mode == "image" else 1
        self.steps = []  # per level: list of FlowStep
        self.flow = []   # (name, layer) in forward order; SPLIT between levels
        for lev, (c, _, _) in enumerate(config.level_shapes()):
            if lev > 0:
                self.flow.append(SPLIT)
            if config.mode == "image":
                self.flow.append((f"level{lev}/squeeze", Squeeze()))
            lev_rng = rng.child(f"level{lev}")
            steps = [FlowStep(c, config.hidden_width, kernel, lev_rng.child(f"step{k}"))
                     for k in range(config.depth_k)]
            self.steps.append(steps)
            for k, step in enumerate(steps):
                self.flow += [(f"level{lev}/step{k}/{kind}", layer)
                              for kind, layer in step.sublayers()]
        tree = self.param_tree()
        self.theta = np.concatenate([np.zeros(0), *(a.ravel() for a in tree.values())])
        views = flat_views(self.theta, tree)
        for name, layer in self.flow:
            for pname in layer.params() if layer is not None else ():
                *path, attr = pname.split("/")
                setattr(functools.reduce(getattr, path, layer), attr, views[f"{name}/{pname}"])

    # -- parameters -------------------------------------------------------

    def param_tree(self) -> dict:
        """Flat name -> every learnable parameter, a view of ``theta``."""
        return {f"{name}/{pname}": arr for name, layer in self.flow if layer is not None
                for pname, arr in layer.params().items()}

    def state_tree(self) -> dict:
        """param_tree() plus each 1x1 convolution's fixed PLU factors ``p``
        and ``u_sign``: everything a checkpoint carries about the model."""
        return self.param_tree() | {f"{name}/{b}": getattr(layer, b) for name, layer in self.flow
                                    if isinstance(layer, Inv1x1) for b in ("p", "u_sign")}

    def set_state(self, tree: dict) -> None:
        """Copy a saved state tree into the model (``load_tree``) and mark the
        model initialized. Each ``p`` must also be a 0/1 permutation matrix
        and each ``u_sign`` entry +-1, or a FormatError names the first bad
        array before anything is copied."""
        for name, arr in tree.items():
            if name.endswith("/p") and not (arr.ndim == 2 and ((arr == 0) | (arr == 1)).all()
                                            and (arr.sum(0) == 1).all() and (arr.sum(1) == 1).all()):
                raise FormatError(f"state array {name} is not a permutation matrix")
            if name.endswith("/u_sign") and not (np.abs(arr) == 1).all():
                raise FormatError(f"state array {name} has an entry other than +1 or -1")
        load_tree(self.state_tree(), tree, "state array")
        self.initialized = True

    def init_actnorms(self, batch: np.ndarray) -> None:
        """Data-dependent actnorm init, layer by layer along the flow: the
        model's one-time step. Before it every actnorm is the identity; on an
        initialized (or loaded) model it is a StateError that changes nothing."""
        if self.initialized:
            raise StateError("model already initialized; actnorm init runs once")
        h = self._check_input(batch)
        for name, layer in self.flow:
            if layer is None:
                h, _ = split_channels(h)
                continue
            if name.endswith("/actnorm"):
                try:
                    layer.init_from_batch(h)
                except DegenerateChannelError as e:
                    raise DegenerateChannelError(f"{name}: {e}") from None
            h, _, _ = layer.forward(h)
        self.initialized = True

    # -- forward / inverse --------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expect = self.config.input_shape()
        if x.shape[1:] != expect:
            raise ShapeError(f"input shape {x.shape[1:]} does not match config {expect}")
        return self._to_flow(x)

    def _to_flow(self, x: np.ndarray) -> np.ndarray:
        """A public-layout array as the NCHW tensor the flow runs on."""
        return x[:, :, None, None] if self.config.mode == "rank2" else x

    def _from_flow(self, h: np.ndarray) -> np.ndarray:
        """An NCHW flow tensor in the public layout (N x D in rank-2 mode)."""
        return h[:, :, 0, 0] if self.config.mode == "rank2" else h

    def _walk(self, x: np.ndarray, tape: list | None, checked: bool = False) -> FlowOutput:
        """The forward pass with NCHW latent parts. Each flow entry's cache
        is appended to ``tape`` when one is given and dropped otherwise, so a
        pass that no backward follows keeps no activations alive. Warnings
        are off and only the result is checked: every layer maps a non-finite
        input to a non-finite output. If the result is not finite, the pass
        runs again ``checked`` under the caller's error state, which raises
        a NumericError naming the first layer with a non-finite output; if no
        layer has one (the log-det overflowed in its sum), the result stands."""
        h = self._check_input(x)
        logdet = np.zeros(h.shape[0])
        z_parts = []
        with np.errstate(all=None if checked else "ignore"):
            for name, layer in self.flow:
                if layer is None:
                    h, factored = split_channels(h)
                    z_parts.append(factored)
                    cache = None
                else:
                    h, ld, cache = layer.forward(h)
                    if checked and not (np.isfinite(h).all() and np.isfinite(ld).all()):
                        raise NumericError(f"non-finite activation at {name}")
                    logdet += ld
                if tape is not None:
                    tape.append(cache)
        z_parts.append(h)
        if not (checked or all(np.isfinite(a).all() for a in [logdet, *z_parts])):
            self._walk(x, None, checked=True)
        return FlowOutput(z_parts=z_parts, logdet=logdet)

    def forward_with_tape(self, x: np.ndarray):
        """Returns (FlowOutput, tape) with NCHW latent parts; the tape holds
        one cache per flow entry and drives the exact backward pass."""
        tape = []
        return self._walk(x, tape), tape

    def forward(self, x: np.ndarray) -> FlowOutput:
        """Latent parts in the shapes of ``config.z_shapes()``."""
        out = self._walk(x, None)
        out.z_parts = [self._from_flow(z) for z in out.z_parts]
        return out

    def inverse(self, z_parts: list) -> np.ndarray:
        """Latent parts of shapes (N,) + ``config.z_shapes()``, N from the first
        part (a ShapeError otherwise) -> (N,) + input shape. A non-finite output
        is a NumericError naming its layer (``_walk``)."""
        shapes = self.config.z_shapes()
        if len(z_parts) != len(shapes):
            raise ShapeError(f"expected {len(shapes)} latent parts, got {len(z_parts)}")
        parts = [np.asarray(z, dtype=np.float64) for z in z_parts]
        for z, s in zip(parts, shapes):
            if z.shape != parts[0].shape[:1] + s:
                raise ShapeError(f"latent part shape {z.shape} != expected {parts[0].shape[:1] + s}")
        return self._from_flow(self._unwalk([self._to_flow(z) for z in parts]))

    def _unwalk(self, z_parts: list, checked: bool = False) -> np.ndarray:
        """The inverse pass over NCHW latent parts, checked as ``_walk`` is."""
        *parts, h = z_parts
        with np.errstate(all=None if checked else "ignore"):
            for name, layer in reversed(self.flow):
                if layer is None:
                    h = unsplit_channels(h, parts.pop())
                    continue
                h = layer.inverse(h)
                if checked and not np.isfinite(h).all():
                    raise NumericError(f"non-finite activation at {name}")
        if not (checked or np.isfinite(h).all()):
            self._unwalk(z_parts, checked=True)
        return h

    # -- likelihood ---------------------------------------------------------

    def log_prob(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        logp = out.logdet.copy()
        for z in out.z_parts:
            logp += standard_normal_logp(z)
        return logp

    def loss_and_grads(self, x: np.ndarray):
        """(mean NLL in nats over the batch, the gradient of every parameter
        as one new vector laid out like ``theta``). The tape is consumed: each
        cache is popped before its layer's backward runs, so no activation
        outlives its backward. An empty batch is a ShapeError."""
        out, tape = self.forward_with_tape(x)
        n = x.shape[0]
        if n == 0:
            raise ShapeError("loss_and_grads needs at least one sample")
        loss = float(-(out.logdet + sum(standard_normal_logp(z) for z in out.z_parts)).mean())
        # dL/dlogdet_n = -1/n; dL/dz = z/n for every latent part
        dlogdet = np.full(n, -1.0 / n)
        dz_parts = [z / n for z in out.z_parts]
        layer_grads = []  # each layer's gradient list, the last layer's first
        g = dz_parts.pop()
        for _, layer in reversed(self.flow):
            cache = tape.pop()
            if layer is None:
                g = unsplit_channels(g, dz_parts.pop())
                continue
            g, grads = layer.backward(g, dlogdet, cache)
            layer_grads.append(grads)
        flat = [a.ravel() for grads in reversed(layer_grads) for a in grads]
        return loss, np.concatenate([np.zeros(0), *flat])

    def sample(self, n: int, temperature: float, rng: Rng) -> np.ndarray:
        if n < 0:
            raise ConfigError(f"sample count must be >= 0, got {n}")
        if not (math.isfinite(temperature) and temperature > 0):
            raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
        z_parts = [temperature * rng.normal((n,) + tuple(s)) for s in self.config.z_shapes()]
        return self.inverse(z_parts)


def build_model(config: ModelConfig, seed: int) -> MultiScaleModel:
    return MultiScaleModel(config, Rng(seed).child("model_init"))
