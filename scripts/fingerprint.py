#!/usr/bin/env python3
"""Print a bit-exactness fingerprint of each canonical config.

Usage: python3 scripts/fingerprint.py [--seed 0] [--steps N]

One line per config (rank2 eight_gaussians and image textures, as in the
benchmark): the sha256 of theta after training a fresh model from the seed,
of log_prob over 256 held-out rows, of one sample batch and of the NXNF file
that checkpoint.save writes after the last step (state tree, Adam state and
stream states, as `nxnflow train` writes it). Two checkouts compute
bit-identical models and files exactly when their lines are equal. Steps
default to 300 (rank2) and 30 (image); --steps sets both.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from nxnflow import checkpoint
from nxnflow.data import gen_2d, gen_textures
from nxnflow.model import ModelConfig, build_model
from nxnflow.tensor import Rng
from nxnflow.training import TrainConfig, dequantize, train

# name -> (model config, default steps, samples, temperature)
CONFIGS = {
    "rank2": (dict(mode="rank2", dim=2, depth_k=8, levels=1, hidden_width=32),
              300, 1024, 1.0),
    "image": (dict(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                   hidden_width=32, bits=5), 30, 64, 0.7),
}


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def fingerprint(name: str, seed: int, steps: int | None) -> str:
    model_kw, default_steps, n_sample, temperature = CONFIGS[name]
    steps = default_steps if steps is None else steps
    cfg = ModelConfig(**model_kw)
    rng = Rng(seed)
    if cfg.mode == "image":
        train_x, held_x = (gen_textures(n, cfg.channels, cfg.height, cfg.bits, rng.child(label)).images
                           for n, label in ((512, "data"), (256, "heldout")))
        held_x = dequantize(held_x, cfg.bits, rng.child("eval_dequantize"))
    else:
        train_x, held_x = (gen_2d("eight_gaussians", n, rng.child(label)).points
                           for n, label in ((8192, "data"), (256, "heldout")))
    model = build_model(cfg, seed)
    nxnf = []

    def on_checkpoint(step, opt, rng_states):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "checkpoint.nxnf")
            checkpoint.save(checkpoint.Checkpoint(
                cfg.to_text(), step, model.state_tree(), opt.t, opt.m, opt.v,
                json.dumps(rng_states, sort_keys=True)), path)
            with open(path, "rb") as f:
                nxnf.append(hashlib.sha256(f.read()).hexdigest())

    train(model, train_x, TrainConfig(steps=steps, seed=seed, bits=cfg.bits,
                                      checkpoint_every=steps), on_checkpoint=on_checkpoint)
    log_prob = model.log_prob(np.asarray(held_x, dtype=np.float64))
    samples = model.sample(n_sample, temperature, rng.child("sample"))
    return (f"{name} seed={seed} steps={steps} theta={sha(model.theta)} "
            f"log_prob={sha(log_prob)} sample={sha(samples)} nxnf={nxnf[-1]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=None)
    args = ap.parse_args()
    for name in CONFIGS:
        print(fingerprint(name, args.seed, args.steps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
