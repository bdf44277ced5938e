"""Command-line entry point: train, eval, sample, verify.

All randomness flows from a single seed; subsystems get labeled child
streams. Output files are written atomically (temp + rename). Every error
ends in one line on stderr and an exit code: 2 config, 3 data, format or
file access, 4 numeric, 5 other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt_io
from . import data as data_io
from .config import RunConfig, model_config_from_text
from .errors import ConfigError, DataError, FormatError, NumericError, NxnFlowError
from .model import ModelConfig, bits_per_dim, build_model
from .suites import SUITES, run_suites
from .tensor import Rng
from .training import METRICS_HEADER, evaluate_nll, train


def _load_data(kind: str, path: str, n: int, model_cfg: ModelConfig, rng: Rng) -> np.ndarray:
    """The dataset of `kind`: a generator valid for the mode (n samples drawn
    from rng), or a file at `path`, csv in rank2 mode and nxni in image mode."""
    rank2 = model_cfg.mode == "rank2"
    if rank2 and kind in data_io.GENERATORS_2D:
        return _checked_points(data_io.gen_2d(kind, n, rng).points, kind, model_cfg)
    if not rank2 and kind == "textures":
        if model_cfg.height != model_cfg.width:
            raise ConfigError("textures generator needs square images")
        return _checked_images(data_io.gen_textures(n, model_cfg.channels, model_cfg.height,
                                                    model_cfg.bits, rng), model_cfg)
    if kind != ("csv" if rank2 else "nxni"):
        raise ConfigError(f"data.kind {kind!r} is not valid for {model_cfg.mode} mode")
    if not path:
        raise ConfigError(f"data.kind = {kind} requires data.path")
    if rank2:
        return _checked_points(data_io.load_points_csv(path), kind, model_cfg)
    return _checked_images(data_io.load_images(path), model_cfg)


def _checked_points(pts: np.ndarray, kind: str, model_cfg: ModelConfig) -> np.ndarray:
    if len(pts) and pts.shape[1] != model_cfg.dim:  # no rows: train/eval say "empty dataset"
        raise ConfigError(f"{kind} dimension {pts.shape[1]} != model dim {model_cfg.dim}")
    return pts


def _checked_images(ds, model_cfg: ModelConfig) -> np.ndarray:
    if ds.images.shape[1:] != (model_cfg.channels, model_cfg.height, model_cfg.width):
        raise ConfigError(f"dataset shape {ds.images.shape[1:]} does not match model config")
    if ds.bits != model_cfg.bits:
        raise ConfigError(f"dataset bit depth {ds.bits} != model.bits {model_cfg.bits}")
    return ds.images


def _run_config_from_args(args) -> RunConfig:
    run = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["train.seed"] = args.seed
    run.update(overrides)
    return run


def _metrics_rows(path: str, resume_step: int | None) -> list:
    """The metrics.csv lines to keep: the header, plus on resume the logged
    rows up to the checkpoint step (rows after it are about to be redone)."""
    kept = [METRICS_HEADER]
    if resume_step is not None and os.path.exists(path):
        with open(path, encoding="utf-8", errors="replace") as f:
            for row in f.read().splitlines()[1:]:
                step = row.split(",", 1)[0]
                if not step.isdigit() or int(step) > resume_step:
                    break
                kept.append(row)
    return kept


def cmd_train(args) -> int:
    run = _run_config_from_args(args)
    model_cfg = run.model_config()
    train_cfg = run.train_config()
    data = _load_data(run["data.kind"], run["data.path"], run["data.n"], model_cfg,
                      Rng(train_cfg.seed).child("data"))
    ckpt_path = os.path.join(args.out, "checkpoint.nxnf")
    metrics_path = os.path.join(args.out, "metrics.csv")

    model = build_model(model_cfg, train_cfg.seed)
    resume = ckpt_io.load(args.resume) if args.resume else None
    if resume is not None:
        ckpt_io.restore_model(resume, model)

    def on_checkpoint(step, opt, rng_states):
        # the live arrays, not copies: the save is synchronous, and nothing
        # changes them while it runs
        ckpt_io.save(ckpt_io.Checkpoint(model_cfg.to_text(), step, model.state_tree(), opt.t,
                                        opt.m, opt.v, json.dumps(rng_states, sort_keys=True)),
                     ckpt_path)

    kept = _metrics_rows(metrics_path, None if resume is None else resume.step)
    f = None

    def log(row):
        # train() checks the model and the resume state before its first
        # step, so the output directory is made and the log cut back only
        # once a step has run, and a refused run leaves both as they were
        nonlocal f
        if f is None:
            os.makedirs(args.out, exist_ok=True)
            ckpt_io.write_atomic(metrics_path, ["".join(r + "\n" for r in kept).encode()])
            f = open(metrics_path, "a", encoding="utf-8")
        f.write(row.csv() + "\n")
        f.flush()

    try:
        train(model, data, train_cfg, on_checkpoint=on_checkpoint, log=log, resume=resume)
    finally:
        if f is not None:
            f.close()
    print(f"trained {train_cfg.steps} steps; checkpoint: {ckpt_path}")
    return 0


def _model_from_checkpoint(path):
    loaded = ckpt_io.load(path)
    model = build_model(model_config_from_text(loaded.config_text), 0)
    ckpt_io.restore_model(loaded, model)
    return model


def cmd_eval(args) -> int:
    model = _model_from_checkpoint(args.checkpoint)
    model_cfg = model.config
    rank2 = model_cfg.mode == "rank2"
    generators = data_io.GENERATORS_2D if rank2 else ("textures",)
    kind = args.data if args.data in generators else ("csv" if rank2 else "nxni")
    data = _load_data(kind, args.data, args.n, model_cfg, Rng(args.seed).child("data"))
    nll = evaluate_nll(model, data, model_cfg.bits, args.seed)
    bits = 0 if rank2 else model_cfg.bits
    bpd = bits_per_dim(nll, model_cfg.input_dims(), bits)
    print(f"nll_nats={nll:.6f} bpd={bpd:.6f}")
    if args.out:
        ckpt_io.write_atomic(args.out, [f"nll_nats,bpd\n{nll:.6f},{bpd:.6f}\n".encode()])
    return 0


def cmd_sample(args) -> int:
    model = _model_from_checkpoint(args.checkpoint)
    model_cfg = model.config
    rng = Rng(args.seed).child("sample")
    x = model.sample(args.n, args.temperature, rng)
    if model_cfg.mode == "rank2":
        data_io.save_points_csv(x, args.out)
    else:
        levels = 1 << model_cfg.bits
        ints = np.clip(np.floor(x * levels), 0, levels - 1).astype(np.uint8)
        ds = data_io.ImageDataset(images=ints, bits=model_cfg.bits)
        data_io.save_images(ds, args.out)
        data_io.save_ppm_montage(ints, model_cfg.bits, str(args.out) + ".ppm")
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, args.seed)
    lines = [r.line() for r in results]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        ckpt_io.write_atomic(args.out, [report.encode()])
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nxnflow",
                                     description="invertible n x n convolution flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="mean NLL and bits/dim over a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="NXNI/CSV path, a 2D generator name (rank2) or textures (image)")
    p.add_argument("--n", type=int, default=4096, help="generator sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sample", help="draw samples from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="NXNI path (image mode, + .ppm montage) or CSV (rank2)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="run the numerical oracle suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional report output path")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # numpy warnings would add stderr lines
            return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, FormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except NxnFlowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
