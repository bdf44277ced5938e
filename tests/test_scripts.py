"""Smoke tests of the ready-made experiments in scripts/: each main() runs
to exit 0 and writes what its usage line promises."""

import importlib.util
import pathlib
import subprocess
import sys

from nxnflow.data import load_images, load_points_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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
    # every oracle row, in report order: a lost or renamed row fails here
    assert [row.split(",")[0] for row in rows] == [
        "roundtrip/actnorm", "logdet_antisymmetry/actnorm",
        "roundtrip/shift", "logdet_antisymmetry/shift",
        "roundtrip/inv1x1_plu", "logdet_antisymmetry/inv1x1_plu",
        "roundtrip/coupling", "logdet_antisymmetry/coupling",
        "roundtrip/squeeze", "logdet_antisymmetry/squeeze",
        "roundtrip/coupling_pointwise", "logdet_antisymmetry/coupling_pointwise",
        "roundtrip/full_model",
        "fd_logdet/actnorm", "fd_logdet/shift", "fd_logdet/inv1x1_plu", "fd_logdet/coupling",
        "shift_jacobian_offdiagonal",
        "grad_params/actnorm", "grad_input/actnorm", "grad_params/shift", "grad_input/shift",
        "grad_params/inv1x1_plu", "grad_input/inv1x1_plu",
        "grad_params/coupling", "grad_input/coupling",
        "grad_params/coupling_2x2", "grad_input/coupling_2x2",
        "grad_params/full_model",
        "conv_reformulation", "conv_equiv/kernel",
        "quadrature/empty_flow", "quadrature/init_model",
    ]


def test_fingerprint(capsys, monkeypatch):
    runs = []
    for _ in range(2):
        assert run_script("fingerprint", ["--seed", "0", "--steps", "2"], monkeypatch) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]  # bit-exact run to run
    assert [line.split()[0] for line in runs[0]] == ["rank2", "image"]
    for line in runs[0]:
        fields = dict(f.split("=") for f in line.split()[1:])
        assert fields.keys() == {"seed", "steps", "theta", "log_prob", "sample", "nxnf"}
        assert (fields["seed"], fields["steps"]) == ("0", "2")
        assert all(len(fields[k]) == 64 for k in ("theta", "log_prob", "sample", "nxnf"))


def test_coverage():
    # one test module under the settrace line coverage: a line per package
    # module, the modules it never imports wholly unrun, tensor.py mostly run
    run = subprocess.run([sys.executable, str(SCRIPTS / "coverage.py"), "tests/test_tensor.py",
                          "-q"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    report = {}
    for line in run.stdout.splitlines():
        name, _, rest = line.partition(": ")
        if name.endswith(".py") or name == "total":
            missed, _, total = rest.split(" statement")[0].partition(" of ")
            report[name] = int(missed), int(total)
    modules = {f.name for f in (ROOT / "src" / "nxnflow").glob("*.py")}
    assert report.keys() == modules | {"total"}
    assert report["cli.py"][0] == report["cli.py"][1] > 0
    assert report["tensor.py"][0] < report["tensor.py"][1] // 10
    assert report["total"] == tuple(sum(v[i] for k, v in report.items() if k != "total")
                                    for i in (0, 1))
