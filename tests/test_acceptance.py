"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
under plain `pytest` they appear in the captured output of failing tests.
Everything here is seeded, so the printed metrics are reproducible.
"""

import math

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

from nxnflow import verify
from nxnflow.cli import main
from nxnflow.data import gen_2d, gen_textures
from nxnflow.layers import ChannelAffine
from nxnflow.model import ModelConfig, MultiScaleModel, bits_per_dim, build_model
from nxnflow.suites import (
    suite_conv_equiv,
    suite_gradients,
    suite_layers,
    suite_normalization,
)
from nxnflow.tensor import Rng
from nxnflow.training import TrainConfig, evaluate_nll, train


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def layer_checks():
    # one heavyweight pass shared by criteria 1-3
    return {r.name: r for r in suite_layers(seed=0, trials=1000,
                                            model_trials=100,
                                            logdet_instances=100)}


@pytest.fixture(scope="module")
def trained_2d():
    """eight_gaussians run shared by criteria 6 and 7."""
    train_pts = gen_2d("eight_gaussians", 8192, Rng(100)).points
    held_out = gen_2d("eight_gaussians", 2048, Rng(101)).points
    cfg = ModelConfig(mode="rank2", dim=2, depth_k=8, levels=1, hidden_width=32)
    model = build_model(cfg, seed=0)
    tc = TrainConfig(batch_size=64, steps=5000, lr=1e-3, seed=0,
                     checkpoint_every=10 ** 9)
    train(model, train_pts, tc)
    return model, train_pts, held_out


class TestAcceptance:
    def test_01_invertibility(self, layer_checks):
        names = [k for k in layer_checks if k.startswith("roundtrip/")]
        worst = max(layer_checks[k].metric for k in names)
        ok = all(layer_checks[k].passed for k in names)
        report("01 invertibility", ok,
               f"max reconstruction error {worst:.3e} over 1000 trials/layer "
               "(tol 1e-9) and 100 full-model trials (tol 1e-8)")

    def test_02_logdet_exactness(self, layer_checks):
        names = [k for k in layer_checks if k.startswith("fd_logdet/")]
        worst = max(layer_checks[k].metric for k in names)
        ok = all(layer_checks[k].passed for k in names)
        report("02 logdet_vs_finite_difference", ok,
               f"max relative error {worst:.3e} over 100 instances/layer (tol 1e-4)")

    def test_03_shift_jacobian_diagonal(self, layer_checks):
        r = layer_checks["shift_jacobian_offdiagonal"]
        report("03 shift_jacobian_diagonality", r.passed,
               f"max off-diagonal {r.metric:.3e} (tol 1e-8)")

    def test_04_conv_reformulation(self):
        r = suite_conv_equiv(seed=0, specs=100)[0]
        report("04 conv_reformulation_equivalence", r.passed,
               f"max deviation {r.metric:.3e} over 100 specs (tol 1e-12)")

    def test_05_gradients(self):
        results = suite_gradients(seed=0)
        worst = max(r.metric for r in results)
        report("05 gradient_correctness", all(r.passed for r in results),
               f"max relative error {worst:.3e} vs central differences (tol 1e-5)")

    def test_06_normalization(self, trained_2d):
        init_ok = all(r.passed for r in suite_normalization(seed=0))
        model, _, _ = trained_2d
        mass = verify.quadrature_normalization(model)
        ok = init_ok and 0.98 <= mass <= 1.02
        report("06 density_normalization", ok,
               f"trained-model quadrature mass {mass:.4f} "
               f"(init checks {'pass' if init_ok else 'fail'}; bounds [0.98, 1.02])")

    def test_07_toy_density_training(self, trained_2d):
        model, train_pts, held_out = trained_2d
        model_nll = evaluate_nll(model, held_out, bits=0, seed=0)
        base_nll = float(np.mean(
            0.5 * (held_out ** 2).sum(axis=1) + math.log(2.0 * math.pi)))
        gain = (base_nll - model_nll) / held_out.shape[1]
        # mode coverage: data-estimated centers vs 1024 model samples
        centers, _ = kmeans2(train_pts, 8, seed=0, minit="++")
        samples = model.sample(1024, temperature=1.0, rng=Rng(7))
        dists = np.linalg.norm(centers[:, None, :] - samples[None, :, :], axis=2)
        covered = int((dists.min(axis=1) <= 0.4).sum())
        ok = gain >= 0.5 and covered >= 6
        report("07 toy_density_training", ok,
               f"held-out gain {gain:.3f} nats/dim (need >= 0.5); "
               f"{covered}/8 modes covered (need >= 6)")

    def test_08_toy_image_training(self):
        ds = gen_textures(512, 3, 8, 5, Rng(200))
        cfg = ModelConfig(mode="image", channels=3, height=8, width=8,
                          depth_k=8, levels=2, hidden_width=32, bits=5)
        model = build_model(cfg, seed=0)
        tc = TrainConfig(batch_size=64, steps=300, lr=1e-3, seed=0, bits=5,
                         checkpoint_every=10 ** 9)
        train(model, ds.images, tc)
        held_out = gen_textures(256, 3, 8, 5, Rng(201))
        nll = evaluate_nll(model, held_out.images, bits=5, seed=1)
        bpd = bits_per_dim(nll, cfg.input_dims(), bits=5)
        report("08 toy_image_training", bpd < 5.0,
               f"held-out {bpd:.3f} bits/dim (need < 5.0, target <= 4.5)")

    def test_09_actnorm_init(self):
        worst_mu, worst_sigma = 0.0, 0.0
        for trial in range(50):
            rng = Rng(300 + trial)
            layer = ChannelAffine(4)
            x = 3.0 * rng.normal((16, 4, 5, 5)) - 2.0
            layer.init_from_batch(x)
            y, _, _ = layer.forward(x)
            worst_mu = max(worst_mu, float(np.abs(y.mean(axis=(0, 2, 3))).max()))
            worst_sigma = max(worst_sigma,
                              float(np.abs(y.std(axis=(0, 2, 3)) - 1.0).max()))
        ok = worst_mu <= 1e-9 and worst_sigma <= 1e-6
        report("09 actnorm_data_dependent_init", ok,
               f"max |mean| {worst_mu:.3e} (tol 1e-9), "
               f"max |std-1| {worst_sigma:.3e} (tol 1e-6)")

    def test_10_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "model.mode = rank2\nmodel.dim = 2\nmodel.depth_k = 2\n"
            "model.levels = 1\nmodel.hidden_width = 8\n"
            "train.batch_size = 32\ntrain.steps = 20\ntrain.seed = 9\n"
            "data.kind = eight_gaussians\ndata.n = 512\n")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "checkpoint.nxnf").read_bytes())
        capsys.readouterr()
        ckpt = str(tmp_path / "a" / "checkpoint.nxnf")
        texts = []
        for _ in range(2):
            assert main(["eval", "--checkpoint", ckpt, "--data",
                         "eight_gaussians", "--n", "512", "--seed", "3"]) == 0
            assert main(["sample", "--checkpoint", ckpt, "--n", "16",
                         "--seed", "3", "--out",
                         str(tmp_path / "s.csv")]) == 0
            texts.append(capsys.readouterr().out
                         + (tmp_path / "s.csv").read_text())
        ok = outs[0] == outs[1] and texts[0] == texts[1]
        report("10 determinism", ok,
               "byte-identical checkpoints across runs; identical eval/sample "
               "outputs under a fixed seed")
