#!/usr/bin/env python3
"""Sampling throughput of a checkpoint, for the single-thread BLAS baseline.

run.py starts this with OPENBLAS_NUM_THREADS=1 in the environment, which
OpenBLAS reads when numpy loads it, so it must be a fresh process:

    python3 perfbench/single_thread.py --checkpoint C --n 64 --temperature 0.7 \
        --seed 1 --seconds 3

Prints one JSON line: {"sample_per_s", "batches", "blas_threads"}.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from envinfo import blas_threads, import_nxnflow, openblas_libraries

MIN_BATCHES = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--temperature", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    import_nxnflow(Path.cwd())
    from nxnflow import checkpoint
    from nxnflow.config import model_config_from_text
    from nxnflow.model import build_model
    from nxnflow.tensor import Rng

    loaded = checkpoint.load(args.checkpoint)
    model = build_model(model_config_from_text(loaded.config_text), args.seed)
    checkpoint.restore_model(loaded, model)
    rng = Rng(args.seed).child("sample")
    model.sample(args.n, args.temperature, rng)  # warm-up
    spent, batches = 0.0, 0
    while batches < MIN_BATCHES or spent < args.seconds:
        t0 = time.perf_counter()
        model.sample(args.n, args.temperature, rng)
        spent += time.perf_counter() - t0
        batches += 1
    print(json.dumps({"sample_per_s": args.n * batches / spent, "batches": batches,
                      "blas_threads": blas_threads(openblas_libraries())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
