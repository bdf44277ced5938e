"""Smoke tests of the ready-made experiments in scripts/: each main() runs
to exit 0 and writes what its usage line promises."""

import importlib.util
import pathlib
import sys

from nxnflow.data import load_images, load_points_csv

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + args)
    return module.main()


def test_train_2d(tmp_path, monkeypatch):
    out = tmp_path / "2d"
    assert run_script("train_2d", ["--steps", "2", "--out", str(out)], monkeypatch) == 0
    assert (out / "checkpoint.nxnf").exists()
    assert len((out / "metrics.csv").read_text().splitlines()) == 3
    assert load_points_csv(out / "samples.csv").shape == (1024, 2)


def test_train_textures(tmp_path, monkeypatch):
    out = tmp_path / "textures"
    assert run_script("train_textures", ["--steps", "2", "--out", str(out)], monkeypatch) == 0
    assert (out / "checkpoint.nxnf").exists()
    assert len((out / "metrics.csv").read_text().splitlines()) == 3
    assert load_images(out / "samples.nxni").images.shape == (16, 3, 8, 8)
    assert (out / "samples.nxni.ppm").read_bytes().startswith(b"P6")


def test_run_checks(capsys, monkeypatch):
    assert run_script("run_checks", ["--seed", "0"], monkeypatch) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows and all(row.split(",")[1] == "pass" for row in rows)
