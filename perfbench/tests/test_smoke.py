"""Smoke test of the benchmark at minimal length.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to one round of a few steps."""
    small = {name: dataclasses.replace(wl, steps=4, warmup_steps=1)
             for name, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "SINGLE_THREAD_SECONDS", 0.1)
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(tiny, capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if trace:
        assert result["metrics"]["failed_ops_frac"]["value"] == 0


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank2_train",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
