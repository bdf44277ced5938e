#!/usr/bin/env python3
"""nxnflow benchmark: training, evaluation and sampling throughput.

Run from the repository root:

    python3 perfbench/run.py --workload image_sample --seed 1 --seconds 30 --trace 0

One caller makes back-to-back calls into nxnflow's public Python API (a
closed loop with one client); BLAS keeps the library's default thread count.
Every run trains from scratch for a fixed step budget (so held-out bits/dim
is comparable), saves and reloads a checkpoint, then alternates held-out
log_prob passes with sample batches. Outputs are checked as they are made;
every check and every failed call counts as one attempted operation.

stdout: an environment/count record, with --trace 1 also the aggregated span
table, and as the last line the result
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics from a traced run with --trace 1. Scratch files
live in a temporary directory under the working directory and are removed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
from envinfo import environment, import_nxnflow

perf = time.perf_counter

BATCH = 64          # train batch size of both canonical configs
EVAL_BATCH = 256    # evaluate_nll's batch size
SETUP_REPS = 3      # setup_s is the median of this many set-ups
ROUNDTRIP_TOL = 1e-8
SINGLE_THREAD_SECONDS = 3.0
MIN_ROUNDS = 2      # 2 * (steps - 1) >= 100 step times, so the p90 has 10 beyond it


@dataclasses.dataclass(frozen=True)
class Workload:
    model: dict
    data_kind: str
    n_train: int
    n_heldout: int
    steps: int            # step budget of one training round; heldout_bpd is read there
    warmup_steps: int
    sample_n: int
    temperature: float
    from_checkpoint: bool  # setup is imports + checkpoint load + restore, not data and init


WORKLOADS = {
    # 2x2 matrices and convs on a 1x1 grid: the step is Python dispatch, einsum
    # path planning and per-array Adam, so overhead cuts show and FLOP cuts do not.
    "rank2_train": Workload(
        model=dict(mode="rank2", dim=2, depth_k=8, levels=1, hidden_width=32),
        data_kind="eight_gaussians", n_train=8192, n_heldout=2048, steps=300,
        warmup_steps=20, sample_n=1024, temperature=1.0,
        from_checkpoint=False),
    # Training makes the checkpoint: 3x3 conditioner convs forward and backward
    # are most of that step. The serve phase runs the same layers in the other
    # direction: triangular solves and forward-only conditioners, no backward.
    "image_sample": Workload(
        model=dict(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                   hidden_width=32, bits=5),
        data_kind="textures", n_train=512, n_heldout=256, steps=55,
        warmup_steps=2, sample_n=64, temperature=0.7,
        from_checkpoint=True),
}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import nxnflow, nxnflow.training, nxnflow.data, nxnflow.checkpoint; "
                "print(time.perf_counter() - t)")


class Ops:
    """Attempted and failed operations; nothing that fails is dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def error(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)


class Bench:
    def __init__(self, root: Path, name: str, seed: int, seconds: float, trace: bool, tmp: Path):
        from nxnflow import checkpoint, data, model, training
        from nxnflow.tensor import Rng
        self.mod = {"checkpoint": checkpoint, "data": data, "model": model, "training": training}
        self.Rng = Rng
        self.root, self.seed, self.seconds = root, seed, seconds
        self.wl = WORKLOADS[name]
        self.cfg = model.ModelConfig(**self.wl.model)
        self.image = self.cfg.mode == "image"
        self.bits = self.cfg.bits if self.image else 0
        self.trace = trace
        self.tracer = tracing.Tracer()
        self.ckpt_path = tmp / "checkpoint.nxnf"
        self.ops = Ops()
        self.datagen_events = 0

    # -- pieces ---------------------------------------------------------------

    def build(self):
        m = self.mod["model"].build_model(self.cfg, self.seed)
        if self.trace:
            self.tracer.instrument_model(m)
        return m

    def make_data(self):
        data, cfg, rng = self.mod["data"], self.cfg, self.Rng(self.seed)
        self.datagen_events += 1
        if not self.image:
            return (data.gen_2d(self.wl.data_kind, self.wl.n_train, rng.child("data")).points,
                    data.gen_2d(self.wl.data_kind, self.wl.n_heldout, rng.child("heldout")).points)
        return tuple(data.gen_textures(n, cfg.channels, cfg.height, cfg.bits, rng.child(label)).images
                     for n, label in ((self.wl.n_train, "data"), (self.wl.n_heldout, "heldout")))

    def import_seconds(self) -> float:
        """Import time of a fresh interpreter (numpy, scipy and nxnflow)."""
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(self.root / "src")],
                             capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def setup_from_data(self):
        """Imports, data generation, model build and actnorm data init."""
        t_import = self.import_seconds()
        t0 = perf()
        train_x, held_x = self.make_data()
        m = self.build()
        first = train_x[:BATCH]
        if self.image:
            first = self.mod["training"].dequantize(first, self.cfg.bits, self.Rng(self.seed).child("setup"))
        m.init_actnorms(first)
        return t_import + perf() - t0, (train_x, held_x)

    def setup_from_checkpoint(self):
        """Imports, checkpoint load and restore into a fresh model."""
        t_import = self.import_seconds()
        t0 = perf()
        loaded = self.mod["checkpoint"].load(self.ckpt_path)
        m = self.build()
        self.mod["checkpoint"].restore_model(loaded, m)
        return t_import + perf() - t0, m

    def train_round(self, train_x, held_x, steps):
        """Train a fresh model for `steps`; returns (step times, wall, held-out NLL)."""
        training, ckpt = self.mod["training"], self.mod["checkpoint"]
        m = self.build()
        tcfg = training.TrainConfig(batch_size=BATCH, steps=steps, seed=self.seed,
                                    bits=self.cfg.bits, checkpoint_every=steps)
        deltas, last = [], [None]

        def log(row):
            now = perf()
            if last[0] is not None:
                deltas.append(now - last[0])
            last[0] = now
            self.ops.check(math.isfinite(row.nll_nats), f"finite loss at step {row.step}")

        def on_checkpoint(step, opt, rng_states):
            ckpt.save(ckpt.Checkpoint(
                config_text=self.cfg.to_text(), step=step, params=ckpt.snapshot_params(m),
                adam_t=opt.t, adam_m={k: v.copy() for k, v in opt.m.items()},
                adam_v={k: v.copy() for k, v in opt.v.items()},
                rng_state=json.dumps(rng_states, sort_keys=True)), self.ckpt_path)

        if self.trace:  # so the callbacks' own time stays out of training.loop_self_ms
            log = self.tracer.wrap(log, "bench.log")
            on_checkpoint = self.tracer.wrap(on_checkpoint, "bench.on_checkpoint")
        t0 = perf()
        training.train(m, train_x, tcfg, on_checkpoint=on_checkpoint, log=log)
        wall = perf() - t0
        phase, self.tracer.phase = self.tracer.phase, "heldout"
        nll = training.evaluate_nll(m, held_x, self.cfg.bits, self.seed)
        self.tracer.phase = phase
        self.ops.check(math.isfinite(nll), "finite held-out NLL")
        return deltas, wall, nll

    def heldout_batches(self, held_x):
        """The held-out set batched and dequantized exactly as evaluate_nll does."""
        rng = self.Rng(self.seed).child("eval_dequantize")
        out = []
        for start in range(0, held_x.shape[0], EVAL_BATCH):
            b = held_x[start:start + EVAL_BATCH]
            if self.image:
                b = self.mod["training"].dequantize(b, self.cfg.bits, rng)
            out.append(b.astype("float64"))
        return out

    def eval_pass(self, m, batches):
        """log_prob over the held-out set; returns (seconds, count, mean NLL)."""
        spent, total, count = 0.0, 0.0, 0
        for b in batches:
            t0 = perf()
            lp = m.log_prob(b)
            spent += perf() - t0
            self.ops.check(bool(np.all(np.isfinite(lp))), "finite log_prob")
            total += float(-lp.sum())
            count += b.shape[0]
        return spent, count, total / count

    def sample_batch(self, m, rng):
        """One timed model.sample call, then forward(inverse(z)) == z, untimed."""
        n, temp = self.wl.sample_n, self.wl.temperature
        state = rng.state_json()
        t0 = perf()
        x = m.sample(n, temp, rng)
        spent = perf() - t0
        self.ops.check(bool(np.all(np.isfinite(x))), "finite samples")
        z_rng = self.Rng.from_state_json(state)
        z = [temp * z_rng.normal((n,) + tuple(s)) for s in self.cfg.z_shapes()]
        out = m.forward(x)
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(out.z_parts, z))
        self.ops.check(err <= ROUNDTRIP_TOL, f"forward(inverse(z)) == z, max error {err:.3e}")
        return spent

    def serving_model(self, setups):
        """The saved checkpoint in a fresh model; for image_sample this is the
        set-up, timed SETUP_REPS times into `setups`."""
        if self.wl.from_checkpoint:
            self.tracer.phase = "setup"
            for _ in range(SETUP_REPS):
                t, m = self.setup_from_checkpoint()
                setups.append(t)
            return m
        self.tracer.phase = "serve"
        m = self.build()
        self.mod["checkpoint"].restore_model(self.mod["checkpoint"].load(self.ckpt_path), m)
        return m

    # -- the run --------------------------------------------------------------

    def run(self) -> dict:
        if self.trace:
            self.tracer.instrument_library(self.mod)
        try:
            return self._run()
        finally:
            self.tracer.close()

    def _run(self):
        wl, tr, ops = self.wl, self.tracer, self.ops
        setups = []
        if not wl.from_checkpoint:
            tr.phase = "setup"
            for _ in range(SETUP_REPS):
                t, (train_x, held_x) = self.setup_from_data()
                setups.append(t)
        else:
            tr.phase = "prepare"
            train_x, held_x = self.make_data()

        tr.active = False
        self.train_round(train_x, held_x, wl.warmup_steps)
        untraced = []
        if self.trace:
            untraced = self.train_round(train_x, held_x, wl.steps)[0]
        tr.active = True

        # Training rounds alternate with serve windows as long as the round
        # took, so every metric samples the whole run, not one part of it.
        deltas, walls, nlls = [], [], []
        eval_time = eval_n = sample_time = sampled = 0
        m = None
        start = perf()
        while len(nlls) < MIN_ROUNDS or perf() - start < self.seconds:
            tr.phase = "train"
            d, wall, nll = self.train_round(train_x, held_x, wl.steps)
            deltas += d
            walls.append(wall)
            nlls.append(nll)
            if m is None:
                m = self.serving_model(setups)
                batches = self.heldout_batches(held_x)
                rng = self.Rng(self.seed).child("sample")
                tr.active = False
                self.eval_pass(m, batches)
                self.sample_batch(m, rng)
                tr.active = True
            tr.phase = "serve"
            window_end = perf() + wall
            while True:
                try:
                    spent, count, nll = self.eval_pass(m, batches)
                    eval_time += spent
                    eval_n += count
                    ops.check(nll == nlls[0], "serve-phase NLL equals the training-time held-out "
                                              f"NLL ({nll!r} vs {nlls[0]!r})")
                except Exception as e:  # counted, and the loop goes on
                    ops.error("eval pass", e)
                try:
                    sample_time += self.sample_batch(m, rng)
                    sampled += wl.sample_n
                except Exception as e:
                    ops.error("sample batch", e)
                if perf() >= window_end:
                    break
        ops.check(len(set(nlls)) == 1, f"held-out NLL identical in every round of one seed: {nlls}")

        e2e = {
            "setup_s": statistics.median(setups),
            "train_samples_per_s": BATCH * wl.steps * len(walls) / sum(walls),
            "train_step_ms_p50": 1e3 * statistics.median(deltas),
            "train_step_ms_p90": 1e3 * statistics.quantiles(deltas, n=10)[8],
            "eval_samples_per_s": eval_n / eval_time,
            "sample_per_s": sampled / sample_time,
            "heldout_bpd": self.mod["model"].bits_per_dim(nlls[0], self.cfg.input_dims(), self.bits),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = {"train_rounds": len(nlls), "train_step_times": len(deltas),
                  "eval_samples": eval_n, "sample_batches": sampled // wl.sample_n,
                  "setup_reps": len(setups), "checkpoint_bytes": os.path.getsize(self.ckpt_path)}
        out = {"e2e": e2e, "counts": counts}
        if self.trace:
            out["untraced_step_ms_p50"] = 1e3 * statistics.median(untraced)
            out["agg"] = tr.table()
        return out


def single_thread_sample_rate(root: Path, bench: Bench) -> float:
    """Sampling throughput of the saved checkpoint in a child with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).with_name("single_thread.py")),
           "--checkpoint", str(bench.ckpt_path), "--n", str(bench.wl.sample_n),
           "--temperature", str(bench.wl.temperature), "--seed", str(bench.seed),
           "--seconds", str(SINGLE_THREAD_SECONDS)]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["blas_threads"] != 1:
        raise RuntimeError(f"single-thread child ran with {result['blas_threads']} BLAS threads")
    return result["sample_per_s"]


def per_layer(root: Path, bench: Bench, res: dict, env: dict) -> dict:
    m = tracing.per_layer_metrics(res["agg"], bench.datagen_events)
    for key in ("trace.train_coverage_frac", "trace.sample_coverage_frac"):
        bench.ops.check(abs(m[key] - 1.0) < 1e-6, f"{key} = {m[key]!r} (spans must cover the step)")
    m["checkpoint.bytes"] = res["counts"]["checkpoint_bytes"]
    m["env.blas_threads"] = env["blas_threads"]
    m["env.nproc"] = env["nproc"]
    m["env.tracing_overhead_frac"] = res["e2e"]["train_step_ms_p50"] / res["untraced_step_ms_p50"] - 1.0
    m["env.single_thread.sample_per_s"] = single_thread_sample_rate(root, bench)
    m["ops.attempted"] = bench.ops.attempted
    m["failed_ops_frac"] = bench.ops.failed / bench.ops.attempted
    return m


def metric_units(root: Path, trace: bool) -> dict:
    """Name -> unit of the metrics this run must report, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    import_nxnflow(root)  # fail before doing anything in a tree without the program
    units = metric_units(root, bool(args.trace))

    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-tmp-") as tmp:
        bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
        res = bench.run()
        env = environment()
        if args.trace:
            values = per_layer(root, bench, res, env)
            table = tracing.table_rows(res["agg"])
        else:
            values = res["e2e"]
    ops = bench.ops
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "counts": res["counts"], "attempted": ops.attempted,
                      "failed_ops_frac": ops.failed / ops.attempted}))
    if args.trace:
        print(json.dumps({"trace_table": table}))
    if set(values) != set(units):
        print(f"perfbench: produced metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
