import dataclasses
import functools
import io
import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nxnflow import checkpoint as ckpt_io
from nxnflow.cli import _model_from_checkpoint, main
from nxnflow.config import KNOWN_KEYS, RunConfig, parse_kv_lines
from nxnflow.data import gen_textures, load_images, load_points_csv, save_images
from nxnflow.errors import ConfigError, FormatError
from nxnflow.model import ModelConfig, MultiScaleModel, build_model
from nxnflow.suites import random_small_model
from nxnflow.tensor import Rng
from nxnflow.training import TrainConfig, evaluate_nll

RANK2_CFG = """
# tiny toy run
model.mode = rank2
model.dim = 2
model.depth_k = 2
model.levels = 1
model.hidden_width = 8
train.batch_size = 32
train.steps = 5
train.seed = 11
data.kind = eight_gaussians
data.n = 256
"""

IMAGE_CFG = """
model.mode = image
model.channels = 3
model.height = 8
model.width = 8
model.depth_k = 1
model.levels = 2
model.hidden_width = 8
model.bits = 5
train.batch_size = 16
train.steps = 3
train.seed = 5
data.kind = textures
data.n = 64
"""


def write_cfg(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def untrained_checkpoint(model):
    """A checkpoint of a model that has not trained: Adam t = 0, zero moments."""
    m, v = ({k: np.zeros_like(a) for k, a in model.param_tree().items()} for _ in "mv")
    return ckpt_io.Checkpoint(model.config.to_text(), 0, ckpt_io.snapshot_params(model),
                              0, m, v, Rng(0).state_json())


def edited_stream_states(edit) -> str:
    """A checkpoint rng state whose two training streams are Rng(0)'s state,
    as a dict, after edit(state)."""
    state = json.loads(Rng(0).state_json())
    edit(state)
    return json.dumps(dict.fromkeys(("dequantize", "batches"), json.dumps(state)))


def rank2_checkpoint(tmp_path, log_scale=0.0, log_u_diag=None, dim=2):
    """An untrained rank2 checkpoint whose first actnorm has the given log_scale
    and, when log_u_diag is given, whose first mix has that log_u_diag."""
    model = build_model(ModelConfig(mode="rank2", dim=dim, depth_k=2, levels=1,
                                    hidden_width=8), 0)
    params = model.param_tree()
    params["level0/step0/actnorm/log_scale"][:] = log_scale
    if log_u_diag is not None:
        params["level0/step0/mix/log_u_diag"][:] = log_u_diag
    p = tmp_path / "m.nxnf"
    ckpt_io.save(untrained_checkpoint(model), p)
    return str(p)


@functools.cache
def trained_checkpoint_bytes() -> bytes:
    """The NXNF file of a one-step rank2 training run, optimizer state included."""
    with tempfile.TemporaryDirectory() as d:
        cfg = pathlib.Path(d, "cfg.txt")
        cfg.write_text(RANK2_CFG)
        assert main(["train", "--config", str(cfg), "--set", "train.steps=1", "--out", d]) == 0
        return pathlib.Path(d, "checkpoint.nxnf").read_bytes()


def first_rank_offset(ck) -> int:
    """Byte offset of the first array's rank in the serialized checkpoint."""
    first = min([*ck.params, *(f"adam/m/{k}" for k in ck.adam_m)])
    return 12 + len(ck.config_text.encode()) + 8 + 4 + 2 + len(first.encode())


def packed_nxnf(ck) -> bytes:
    """The NXNF v5 layout of ``checkpoint``'s docstring, packed field by field."""
    arrays = dict(ck.params)
    for what, moments in (("m", ck.adam_m), ("v", ck.adam_v)):
        arrays.update({f"adam/{what}/{k}": a for k, a in moments.items()})
    cfg, rng = ck.config_text.encode(), ck.rng_state.encode()
    out = [b"NXNF", struct.pack("<I", 5), struct.pack("<I", len(cfg)), cfg,
           struct.pack("<Q", ck.step), struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        a, nb = arrays[name], name.encode()
        out += [struct.pack("<H", len(nb)), nb, struct.pack("<B", a.ndim),
                struct.pack(f"<{a.ndim}I", *a.shape), a.astype("<f8").tobytes()]
    out += [struct.pack("<BQ", 1, ck.adam_t), struct.pack("<I", len(rng)), rng]
    return b"".join(out)


class TestConfigParsing:
    def test_comments_and_values(self):
        entries = parse_kv_lines("# hi\nmodel.dim = 3  # trailing\n\ntrain.lr = 0.5\n")
        assert entries == {"model.dim": "3", "train.lr": "0.5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            RunConfig({"model.nope": "1"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="train.lr"):
            RunConfig({"train.lr": "fast"})

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_kv_lines("just a line without equals")

    def test_model_keys_are_model_config_fields(self):
        keys = {k.split(".", 1)[1] for k in KNOWN_KEYS if k.startswith("model.")}
        assert keys == {f.name for f in dataclasses.fields(ModelConfig)}

    def test_defaults_are_the_dataclass_defaults(self):
        assert RunConfig().model_config() == ModelConfig()
        assert RunConfig().train_config() == TrainConfig()


class TestCheckpointFormat:
    def test_bit_exact_roundtrip(self, tmp_path):
        model = random_small_model(Rng(0))
        ck = ckpt_io.Checkpoint(
            config_text=model.config.to_text(), step=7,
            params=ckpt_io.snapshot_params(model),
            adam_t=3,
            adam_m={k: Rng(2).normal(v.shape) for k, v in model.param_tree().items()},
            adam_v={k: Rng(3).uniform(v.shape) for k, v in model.param_tree().items()},
            rng_state=Rng(1).state_json())
        p = tmp_path / "m.nxnf"
        ckpt_io.save(ck, p)
        raw1 = p.read_bytes()
        loaded = ckpt_io.load(p)
        ckpt_io.save(loaded, p)
        assert p.read_bytes() == raw1
        assert loaded.step == 7 and loaded.adam_t == 3
        for saved, back in ((ck.params, loaded.params), (ck.adam_m, loaded.adam_m),
                            (ck.adam_v, loaded.adam_v)):
            assert back.keys() == saved.keys()
            for k, v in saved.items():
                np.testing.assert_array_equal(back[k], v)

    def test_mismatched_config_refused(self, tmp_path):
        model = random_small_model(Rng(0))
        ck = untrained_checkpoint(model)
        other = MultiScaleModel(ModelConfig(mode="rank2", dim=2, depth_k=1,
                                            levels=1, hidden_width=8), Rng(0))
        with pytest.raises(ConfigError):
            ckpt_io.restore_model(ck, other)

    def test_echo_missing_key_restores(self, tmp_path):
        # an echo written before a field existed loads: the field takes its default
        model = random_small_model(Rng(0))
        echo = model.config.to_text().replace("model.bits = 5\n", "")
        p = tmp_path / "m.nxnf"
        ckpt_io.save(dataclasses.replace(untrained_checkpoint(model), config_text=echo), p)
        fresh = MultiScaleModel(model.config, Rng(99))
        ckpt_io.restore_model(ckpt_io.load(p), fresh)
        np.testing.assert_array_equal(fresh.theta, model.theta)

    @pytest.mark.parametrize("edit", [("model.hidden_width = 8", "model.hidden_width = 9"),
                                      ("model.bits = 5", "model.shift = none"),
                                      ("model.bits = 5", "model.bits = 5\ntrain.steps = 7")],
                             ids=["other_value", "unknown_key", "train_key"])
    def test_echo_other_value_or_unknown_key_refused(self, edit):
        model = random_small_model(Rng(0))
        echo = model.config.to_text().replace(*edit)
        ck = dataclasses.replace(untrained_checkpoint(model), config_text=echo)
        with pytest.raises(ConfigError):
            ckpt_io.restore_model(ck, MultiScaleModel(model.config, Rng(99)))

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_version_refused(self, tmp_path, capsys, version):
        raw = bytearray(ckpt_io.serialize(untrained_checkpoint(random_small_model(Rng(0)))))
        raw[4:8] = version.to_bytes(4, "little")
        with pytest.raises(FormatError, match=f"version {version}") as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == 4
        p = tmp_path / "old.nxnf"
        p.write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(p), "--data", "eight_gaussians"]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_moments_without_optimizer_flag_names_offset(self, tmp_path, capsys):
        raw = bytearray(trained_checkpoint_bytes())
        ck = ckpt_io.deserialize(bytes(raw))
        assert ck.adam_m and ck.adam_v
        at = len(raw) - len(ck.rng_state.encode()) - 4 - 8 - 1  # flag, t, rng length
        assert raw[at] == 1
        raw[at] = 0
        with pytest.raises(FormatError, match="optimizer flag") as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == at
        p = tmp_path / "bad.nxnf"
        p.write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(p), "--data", "eight_gaussians"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"offset {at}" in err[0]

    @pytest.mark.parametrize("flag", [0, 2])
    def test_optimizer_flag_other_than_one_names_offset(self, tmp_path, capsys, flag):
        # flag 0 with no moments and no Adam t was the optimizer-less form;
        # every file carries its optimizer state, so only 1 is read
        ck = untrained_checkpoint(random_small_model(Rng(0)))
        if flag == 0:
            ck = dataclasses.replace(ck, adam_m={}, adam_v={})
        raw = bytearray(ckpt_io.serialize(ck))
        at = len(raw) - len(ck.rng_state.encode()) - 4 - 8 - 1  # flag, t, rng length
        assert raw[at] == 1
        raw[at:at + (9 if flag == 0 else 1)] = bytes([flag])
        with pytest.raises(FormatError, match=f"optimizer flag {flag} is not 1") as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == at
        p = tmp_path / "bad.nxnf"
        p.write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(p), "--data", "eight_gaussians"]) == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            f"data error: optimizer flag {flag} is not 1 (at byte offset {at})"]

    @pytest.mark.parametrize("name, value", [
        ("level0/step0/mix/p", np.ones(1)),
        ("level0/step0/mix/p", np.eye(2)[None]),
        ("level0/step0/mix/p", 3 * np.eye(2)),
        ("level0/step1/mix/p", np.array([[1.0, 0.0], [1.0, 0.0]])),
        ("level0/step0/mix/u_sign", np.zeros(2)),
        ("level0/step1/mix/u_sign", np.array([1.0, np.nan])),
        ("level0/step0/coupling/net/conv0/w", np.zeros(3)),
        ("level0/step0/actnorm/bias", None),
        ("level0/step7/shift/bias", np.zeros(2)),
    ], ids=["p_shape_1", "p_rank_3", "p_3I", "p_repeated_row", "u_sign_0", "u_sign_nan",
            "param_shape", "missing", "unknown"])
    def test_corrupt_state_tree_exit_code(self, tmp_path, capsys, name, value):
        model = build_model(ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1,
                                        hidden_width=8), 0)
        ck = untrained_checkpoint(model)
        if value is None:
            del ck.params[name]
        else:
            ck.params[name] = value
        p = tmp_path / "bad.nxnf"
        ckpt_io.save(ck, p)
        assert main(["eval", "--checkpoint", str(p), "--data", "eight_gaussians",
                     "--n", "64"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_nonfinite_parameter_exit_code(self, tmp_path, capsys, command, value):
        # refused on load and named, not met later as a layer's non-finite output
        name = "level0/step0/actnorm/log_scale"
        model = build_model(ModelConfig(mode="rank2", dim=2, depth_k=2, levels=1,
                                        hidden_width=8), 0)
        ck = untrained_checkpoint(model)
        ck.params[name][0] = value
        p = tmp_path / "bad.nxnf"
        ckpt_io.save(ck, p)
        dst = tmp_path / "s.csv"
        args = (["--data", "eight_gaussians", "--n", "64"] if command == "eval"
                else ["--n", "4", "--out", str(dst)])
        assert main([command, "--checkpoint", str(p), *args]) == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            f"data error: state array {name} is not finite"]
        assert not dst.exists()

    @pytest.mark.parametrize("field", ["config echo", "array name", "rng state"])
    def test_non_utf8_text_names_offset(self, tmp_path, capsys, field):
        ck = untrained_checkpoint(random_small_model(Rng(0)))
        raw = bytearray(ckpt_io.serialize(ck))
        cfg_len = len(ck.config_text.encode())
        # magic, version and echo length precede the echo; step, count and
        # the name length precede the first array name; the rng state ends the file
        offset = {"config echo": 12, "array name": 12 + cfg_len + 8 + 4 + 2,
                  "rng state": len(raw) - len(ck.rng_state.encode())}[field]
        raw[offset:offset + 2] = b"\xff\xfe"
        with pytest.raises(FormatError, match=field) as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == offset
        p = tmp_path / "bad.nxnf"
        p.write_bytes(bytes(raw))
        assert main(["sample", "--checkpoint", str(p), "--out", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"offset {offset}" in err[0]

    def test_repeated_array_name_names_offset(self, tmp_path, capsys):
        # a second copy of an array would otherwise replace the first on load
        ck = untrained_checkpoint(build_model(ModelConfig(mode="rank2", dim=2, depth_k=2,
                                                          levels=1, hidden_width=8), 0))
        raw = ckpt_io.serialize(ck)
        name = b"level0/step0/actnorm/bias"
        record = struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 2)
        record += np.full(2, 100.0).astype("<f8").tobytes()
        at = len(raw) - 1 - 8 - 4 - len(ck.rng_state.encode())  # flag, t, rng length and state
        count_at = 12 + len(ck.config_text.encode()) + 8
        (count,) = struct.unpack_from("<I", raw, count_at)
        raw = bytearray(raw[:at] + record + raw[at:])
        raw[count_at:count_at + 4] = struct.pack("<I", count + 1)
        with pytest.raises(FormatError, match="level0/step0/actnorm/bias appears twice") as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == at
        p = tmp_path / "twice.nxnf"
        p.write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(p), "--data", "eight_gaussians",
                     "--n", "64"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"offset {at}" in err[0]

    def test_rank_above_limit_names_offset(self):
        # 65 zero extents: an empty payload, then a 65-dimensional reshape
        ck = untrained_checkpoint(random_small_model(Rng(0)))
        raw = bytearray(ckpt_io.serialize(ck))
        at = first_rank_offset(ck)
        raw[at] = 65
        raw[at + 1:at + 1 + 65 * 4] = bytes(65 * 4)
        with pytest.raises(FormatError, match="rank 65") as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == at

    @pytest.mark.parametrize("extents", [(2 ** 31, 2 ** 31, 4), (2 ** 31, 2 ** 31, 0)])
    def test_oversized_shape_names_offset(self, tmp_path, capsys, extents):
        # 2^64 elements wrap to 0 in int64; with a 0 extent numpy still
        # refuses the other two
        ck = untrained_checkpoint(random_small_model(Rng(0)))
        raw = bytearray(ckpt_io.serialize(ck))
        at = first_rank_offset(ck)
        raw[at:at + 13] = struct.pack("<B3I", 3, *extents)
        with pytest.raises(FormatError, match="too large") as e:
            ckpt_io.deserialize(bytes(raw))
        assert e.value.offset == at
        p = tmp_path / "bad.nxnf"
        p.write_bytes(bytes(raw))
        assert main(["sample", "--checkpoint", str(p), "--out", str(tmp_path / "s")]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_truncation_raises_format_error(self, data):
        raw = trained_checkpoint_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(FormatError):
            ckpt_io.deserialize(raw[:cut])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_byte_mutations_raise_only_format_error(self, data):
        raw = bytearray(trained_checkpoint_bytes())
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                                   min_size=1, max_size=3))
        for pos, value in edits:
            raw[pos] = value
        try:
            ckpt_io.deserialize(bytes(raw))
        except FormatError:
            pass  # failing closed is the contract; any other exception fails the test

    def test_trailing_bytes_names_offset(self, tmp_path, capsys):
        raw = trained_checkpoint_bytes()
        p = tmp_path / "long.nxnf"
        p.write_bytes(raw + b"\0")
        assert main(["eval", "--checkpoint", str(p), "--data", "eight_gaussians"]) == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            f"data error: trailing bytes after checkpoint (at byte offset {len(raw)})"]

    def test_save_writes_the_serialized_layout(self, tmp_path):
        # the streamed save, serialize and a field-by-field packing of the
        # layout (as the whole-file encoder wrote it) agree byte for byte,
        # and a file of that packing loads
        model = random_small_model(Rng(0))
        params = model.param_tree()
        ck = dataclasses.replace(untrained_checkpoint(model), step=5, adam_t=4,
                                 adam_m={k: Rng(2).normal(v.shape) for k, v in params.items()},
                                 adam_v={k: Rng(3).uniform(v.shape) for k, v in params.items()})
        p = tmp_path / "m.nxnf"
        ckpt_io.save(ck, p)
        assert p.read_bytes() == ckpt_io.serialize(ck) == packed_nxnf(ck)
        p.write_bytes(packed_nxnf(ck))
        loaded = ckpt_io.load(p)
        assert (loaded.config_text, loaded.step, loaded.adam_t, loaded.rng_state) == (
            ck.config_text, 5, 4, ck.rng_state)
        for saved, back in ((ck.params, loaded.params), (ck.adam_m, loaded.adam_m),
                            (ck.adam_v, loaded.adam_v)):
            assert back.keys() == saved.keys()
            for k, v in saved.items():
                np.testing.assert_array_equal(back[k], v)

    def test_save_failing_mid_stream_keeps_the_old_file(self, tmp_path):
        # the last array's extent 2^32 does not fit its u32 field: the save
        # fails after the earlier arrays have been written to the temp file
        model = random_small_model(Rng(0))
        p = tmp_path / "m.nxnf"
        ckpt_io.save(untrained_checkpoint(model), p)
        old = p.read_bytes()
        bad = untrained_checkpoint(model)
        bad.params["zz/unpackable"] = np.zeros((0, 2 ** 32))
        with pytest.raises(struct.error):
            ckpt_io.save(bad, p)
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.nxnf"]

    def test_payload_past_the_end_is_refused_before_allocation(self, tmp_path):
        # the first array claims 2^23 doubles (64 MB) in a file far smaller:
        # a FormatError at the payload's offset, and no 64 MB array is made
        ck = untrained_checkpoint(random_small_model(Rng(0)))
        raw = bytearray(ckpt_io.serialize(ck))
        at = first_rank_offset(ck)
        raw[at:at + 9] = struct.pack("<B2I", 2, 2 ** 13, 2 ** 10)
        p = tmp_path / "bad.nxnf"
        p.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated") as e:
                ckpt_io.load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.offset == at + 9
        assert peak < 1e6

    @pytest.mark.parametrize("field", ["config echo", "payload"])
    def test_file_shrinking_while_loaded_names_offset(self, monkeypatch, field):
        # the size is read when the file is opened; a read that then comes up
        # short must not leave np.empty's bytes in an array
        raw = trained_checkpoint_bytes()
        rank_at = first_rank_offset(ckpt_io.deserialize(raw))
        at = {"config echo": 12, "payload": rank_at + 1 + 4 * raw[rank_at]}[field]

        class Shrunk(io.BytesIO):
            """The first at + 2 bytes of the file, which reports its whole size."""
            def seek(self, pos, whence=os.SEEK_SET):
                return len(raw) if whence == os.SEEK_END else super().seek(pos, whence)

        monkeypatch.setattr(ckpt_io, "open", lambda path, mode: Shrunk(raw[:at + 2]),
                            raising=False)
        with pytest.raises(FormatError, match="shrank while it was read") as e:
            ckpt_io.load("checkpoint.nxnf")
        assert e.value.offset == at

    def test_image_save_and_load_keep_no_copy_of_the_file(self, tmp_path):
        # save writes each array's own buffer, and load reads each payload
        # into its array: the file's bytes are never held whole
        cfg = ModelConfig(mode="image", channels=3, height=8, width=8, depth_k=8, levels=2,
                          hidden_width=32)
        model = build_model(cfg, 0)
        params = model.param_tree()
        ck = dataclasses.replace(untrained_checkpoint(model), adam_t=1,
                                 adam_m={k: Rng(2).normal(v.shape) for k, v in params.items()},
                                 adam_v={k: Rng(3).uniform(v.shape) for k, v in params.items()})
        p = tmp_path / "m.nxnf"
        peaks = []
        for run in (lambda: ckpt_io.save(ck, p), lambda: ckpt_io.load(p)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        size = p.stat().st_size
        assert size > 6e6
        assert peaks[0] < 1e6
        assert peaks[1] < size + 1e6

    def test_restored_forward_identical(self, tmp_path):
        model = random_small_model(Rng(3))
        p = tmp_path / "m.nxnf"
        ckpt_io.save(untrained_checkpoint(model), p)
        fresh = MultiScaleModel(model.config, Rng(99))
        ckpt_io.restore_model(ckpt_io.load(p), fresh)
        x = Rng(4).normal((2, 2, 4, 4))
        np.testing.assert_array_equal(model.forward(x).logdet, fresh.forward(x).logdet)


class TestTrainCommand:
    def test_smoke_and_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", "train.steps=1",
                     "--out", str(out)]) == 0
        ck = ckpt_io.load(out / "checkpoint.nxnf")
        assert ck.step == 1
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,nll_nats,bpd,grad_norm,seconds"
        assert len(lines) == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "checkpoint.nxnf").read_bytes() == (b / "checkpoint.nxnf").read_bytes()

    def test_resume_continues_step_numbering(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--resume", str(out / "checkpoint.nxnf")]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        steps = [int(r.split(",")[0]) for r in rows]
        assert steps == list(range(1, 11))

    def test_resume_truncates_metrics_to_checkpoint_step(self, tmp_path):
        # steps 1-3 are logged, then the run resumes from its step-2 checkpoint
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        ck2 = tmp_path / "step2.nxnf"
        assert main(["train", "--config", cfg, "--set", "train.steps=2", "--out", str(out)]) == 0
        ck2.write_bytes((out / "checkpoint.nxnf").read_bytes())
        for ck, steps in ((out / "checkpoint.nxnf", 1), (ck2, 2)):
            assert main(["train", "--config", cfg, "--set", f"train.steps={steps}",
                         "--out", str(out), "--resume", str(ck)]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert rows[0] == "step,nll_nats,bpd,grad_norm,seconds"
        assert [int(r.split(",")[0]) for r in rows[1:]] == [1, 2, 3, 4]

    @pytest.mark.parametrize("rng_state", [
        "not json", '{"dequantize": "{}", "batches": "{}"}',
        pytest.param(edited_stream_states(lambda s: s["state"].update(counter=[0])),
                     id="short_counter"),
        pytest.param(edited_stream_states(lambda s: s.update(buffer_pos=1 << 40)),
                     id="huge_buffer_pos"),
        pytest.param(edited_stream_states(lambda s: s.update(buffer_pos=-1)),
                     id="negative_buffer_pos"),
        pytest.param(edited_stream_states(lambda s: s["state"].update(counter=[1.5, 0, 0, 0])),
                     id="non_integer_counter"),
        pytest.param(edited_stream_states(lambda s: s.update(has_uint32=7)),
                     id="has_uint32_7")])
    def test_resume_malformed_rng_state_exit_code(self, tmp_path, capsys, rng_state):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", "train.steps=1", "--out", str(out)]) == 0
        ck = ckpt_io.load(out / "checkpoint.nxnf")
        ck.rng_state = rng_state
        bad = tmp_path / "bad.nxnf"
        ckpt_io.save(ck, bad)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", str(bad)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "rng state" in err[0]

    @pytest.mark.parametrize("edit, code", [("rng_state", 3), ("drop_moment", 3)])
    def test_refused_resume_keeps_metrics(self, tmp_path, edit, code):
        # steps 1-3 are logged, then a resume from a broken step-2 checkpoint is refused
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", "train.steps=2", "--out", str(out)]) == 0
        ck = ckpt_io.load(out / "checkpoint.nxnf")
        assert main(["train", "--config", cfg, "--set", "train.steps=1", "--out", str(out),
                     "--resume", str(out / "checkpoint.nxnf")]) == 0
        logged = (out / "metrics.csv").read_text()
        if edit == "rng_state":
            ck.rng_state = "not json"
        else:
            del ck.adam_m["level0/step0/actnorm/bias"]
        bad = tmp_path / "bad.nxnf"
        ckpt_io.save(ck, bad)
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", str(bad)]) == code
        assert (out / "metrics.csv").read_text() == logged

    def test_resume_is_bit_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        assert main(["train", "--config", cfg, "--set", "train.steps=4",
                     "--out", str(straight)]) == 0
        assert main(["train", "--config", cfg, "--set", "train.steps=2",
                     "--out", str(resumed)]) == 0
        assert main(["train", "--config", cfg, "--set", "train.steps=2", "--out", str(resumed),
                     "--resume", str(resumed / "checkpoint.nxnf")]) == 0
        assert ((resumed / "checkpoint.nxnf").read_bytes()
                == (straight / "checkpoint.nxnf").read_bytes())

    @pytest.mark.parametrize("edit", ["drop", "add_buffer"])
    def test_resume_optimizer_state_mismatch_exit_code(self, tmp_path, capsys, edit):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", "train.steps=1", "--out", str(out)]) == 0
        ck = ckpt_io.load(out / "checkpoint.nxnf")
        if edit == "drop":
            name = "level0/step0/actnorm/bias"
            del ck.adam_m[name], ck.adam_v[name]
        else:  # a PLU permutation buffer is not a learnable parameter
            name = "level0/step0/mix/p"
            ck.adam_m[name] = ck.adam_v[name] = np.zeros_like(ck.params[name])
        bad = tmp_path / "bad.nxnf"
        ckpt_io.save(ck, bad)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", str(bad)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "optimizer state" in err[0] and name in err[0]

    @staticmethod
    def refused_resume(tmp_path, capsys, edit) -> list:
        """Train 1 step, resume for 1 from that checkpoint after edit(ck); the
        refusal must leave the run's files as they were. Returns stderr's lines."""
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", "train.steps=1", "--out", str(out)]) == 0
        ck = ckpt_io.load(out / "checkpoint.nxnf")
        edit(ck)
        bad = tmp_path / "bad.nxnf"
        ckpt_io.save(ck, bad)
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--set", "train.steps=1", "--out", str(out),
                     "--resume", str(bad)]) == 3
        assert {f.name: f.read_bytes() for f in out.iterdir()} == files
        return capsys.readouterr().err.strip().splitlines()

    @pytest.mark.parametrize("moment, value", [
        pytest.param("v", -1e-3, id="negative_v"), pytest.param("m", np.nan, id="nan_m"),
        pytest.param("v", np.inf, id="inf_v")])
    def test_resume_poisoned_moment_exit_code(self, tmp_path, capsys, moment, value):
        # such a moment makes the first update, and so theta, non-finite
        name = "level0/step0/actnorm/bias"

        def edit(ck):
            getattr(ck, f"adam_{moment}")[name][0] = value

        err = self.refused_resume(tmp_path, capsys, edit)
        assert len(err) == 1 and f"adam/{moment}/{name}" in err[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_resume_nonfinite_parameter_exit_code(self, tmp_path, capsys, value):
        # named on load, not blamed on a training step that never ran
        name = "level0/step0/actnorm/log_scale"

        def edit(ck):
            ck.params[name][0] = value

        err = self.refused_resume(tmp_path, capsys, edit)
        assert err == [f"data error: state array {name} is not finite"]

    @pytest.mark.parametrize("counter", ["step", "adam_t"])
    def test_resume_counter_at_u64_limit_exit_code(self, tmp_path, capsys, counter):
        err = self.refused_resume(tmp_path, capsys,
                                  lambda ck: setattr(ck, counter, (1 << 64) - 1))
        assert len(err) == 1 and "exceeds 2^64 - 1" in err[0]

    @pytest.mark.parametrize("settings, message", [
        (["model.mode=cube"], "unknown model mode 'cube'"),
        (["model.bits=0"], "bits must be in [1, 8]"),
        (["model.bits=9"], "bits must be in [1, 8]"),
        (["model.dim=1"], "rank2 mode needs dim >= 2"),
        (["model.dim=3", "model.levels=2"], "split needs an even channel count"),
        (["model.dim=2", "model.levels=2"], "coupling needs >= 2 channels at every level")],
        ids=["mode", "bits_0", "bits_9", "dim_1", "odd_split", "one_channel_level"])
    def test_bad_model_config_exit_code(self, tmp_path, capsys, settings, message):
        image = settings[0].startswith("model.bits")
        cfg = write_cfg(tmp_path, IMAGE_CFG if image else RANK2_CFG)
        out = tmp_path / "run"
        args = [a for s in settings for a in ("--set", s)]
        assert main(["train", "--config", cfg, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not out.exists()

    def test_set_without_equals_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--set", "model.dim", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: --set expects key=value, got 'model.dim'"]
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RANK2_CFG + "model.bogus = 1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "model.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["train.checkpoint_every=0", "train.checkpoint_every=-1",
                                         "train.lr=nan", "train.lr=inf", "model.height=0",
                                         "model.width=-4", "model.dim=3", "model.depth_k=0"])
    def test_bad_train_value_exit_code(self, tmp_path, capsys, setting):
        # image extents on the image config; dim = 3 against the 2D generator
        image = setting.startswith(("model.height", "model.width"))
        cfg = write_cfg(tmp_path, IMAGE_CFG if image else RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", setting, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and setting.split("=")[0].split(".")[1] in err[0]
        assert not out.exists()

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"model.mode = rank2\n\xff\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not UTF-8 at byte offset 19" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["csv", "nxni"])
    def test_file_kind_without_path_exit_code(self, tmp_path, capsys, kind):
        base = RANK2_CFG if kind == "csv" else IMAGE_CFG
        cfg = write_cfg(tmp_path, base + f"data.kind = {kind}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: data.kind = {kind} requires data.path"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["rank2", "image"])
    def test_zero_data_n_exit_code(self, tmp_path, capsys, mode):
        cfg = write_cfg(tmp_path, RANK2_CFG if mode == "rank2" else IMAGE_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", "data.n=0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["config error: n must be >= 1"]
        assert not out.exists()

    def test_no_partial_output_on_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG + "data.kind = nxni\n")
        out = tmp_path / "never"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


class TestFileErrors:
    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "absent.nxnf"),
                     "--data", "eight_gaussians"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "absent.nxnf" in err[0]

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        ck = rank2_checkpoint(tmp_path)
        dst = tmp_path / "no_such_dir" / "s.csv"
        assert main(["sample", "--checkpoint", ck, "--n", "4", "--out", str(dst)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not dst.parent.exists()

    def test_out_is_a_directory_exit_code(self, tmp_path, capsys):
        # the rename onto a directory fails, and the temp file beside it goes
        ck = rank2_checkpoint(tmp_path)
        dst = tmp_path / "out"
        dst.mkdir()
        assert main(["sample", "--checkpoint", ck, "--n", "4", "--out", str(dst)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.nxnf", "out"]
        assert not any(dst.iterdir())

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nonfinite_csv_exit_code(self, tmp_path, capsys, command):
        # a bad input value is a data error naming its line, not a layer's numeric error
        data = tmp_path / "pts.csv"
        data.write_text("1.0,2.0\n3.0,nan\n" + "0.5,-1.0\n" * 40)
        if command == "train":
            cfg = write_cfg(tmp_path, RANK2_CFG + f"data.kind = csv\ndata.path = {data}\n")
            args = ["train", "--config", cfg, "--out", str(tmp_path / "run")]
        else:
            args = ["eval", "--checkpoint", rank2_checkpoint(tmp_path), "--data", str(data)]
        assert main(args) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "line 2: not a finite number" in err[0]

    def test_constant_csv_column_names_layer(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text("0.5,1.0\n0.5,2.0\n")
        cfg = write_cfg(tmp_path, RANK2_CFG + f"data.kind = csv\ndata.path = {data}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 5
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: level0/step0/actnorm: channel 0 has std 0.000e+00 < 1e-6"]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_csv_exit_code(self, tmp_path, capsys, command, dim):
        # a file with no rows has no dimension to mismatch, at any model.dim
        data = tmp_path / "empty.csv"
        data.write_text("\n")
        if command == "train":
            cfg = write_cfg(tmp_path, RANK2_CFG.replace("model.dim = 2", f"model.dim = {dim}")
                            + f"data.kind = csv\ndata.path = {data}\n")
            args = ["train", "--config", cfg, "--out", str(tmp_path / "run")]
        else:
            args = ["eval", "--checkpoint", rank2_checkpoint(tmp_path, dim=dim), "--data", str(data)]
        assert main(args) == 3
        assert capsys.readouterr().err.strip().splitlines() == ["data error: empty dataset"]


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        return str(out / "checkpoint.nxnf")

    def test_eval_deterministic(self, trained, tmp_path, capsys):
        args = ["eval", "--checkpoint", trained, "--data", "eight_gaussians",
                "--n", "128", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("nll_nats=")

    def test_eval_csv_output(self, trained, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", trained, "--data", "eight_gaussians",
                     "--n", "64", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("nll_nats,bpd\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_square_textures_exit_code(self, tmp_path, capsys, command):
        # train and eval build generated textures through the same checks
        wide = IMAGE_CFG.replace("model.width = 8", "model.width = 16")
        if command == "train":
            args = ["train", "--config", write_cfg(tmp_path, wide), "--out", str(tmp_path / "run")]
        else:
            model = build_model(RunConfig.from_file(write_cfg(tmp_path, wide)).model_config(), 0)
            ck = tmp_path / "wide.nxnf"
            ckpt_io.save(untrained_checkpoint(model), ck)
            args = ["eval", "--checkpoint", str(ck), "--data", "textures", "--n", "8"]
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: textures generator needs square images"]

    @pytest.mark.parametrize("log_scale, named", [
        (354.0, "non-finite NLL"),                      # the prior's z * z overflows
        (1e6, "non-finite activation at level0/step0/actnorm"),  # exp overflows
    ], ids=["prior", "layer"])
    def test_nonfinite_nll_exit_code(self, tmp_path, capsys, log_scale, named):
        ck = rank2_checkpoint(tmp_path, log_scale=log_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning besides the message
            assert main(["eval", "--checkpoint", ck, "--data", "eight_gaussians",
                         "--n", "512"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"numeric error: eval batch 0 (first row 0): {named}"]

    def test_zero_n_exit_code(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", rank2_checkpoint(tmp_path),
                     "--data", "eight_gaussians", "--n", "0"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["config error: n must be >= 1"]

    def test_csv_dimension_mismatch_exit_code(self, trained, tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        assert main(["eval", "--checkpoint", trained, "--data", str(data)]) == 2
        assert "csv dimension 3 != model dim 2" in capsys.readouterr().err


class TestImageFileData:
    """data.kind = nxni in train and an NXNI path in eval: the file must hold
    the model's image shape at its bit depth."""

    @staticmethod
    def nxni(tmp_path, size=8, bits=5) -> str:
        path = tmp_path / f"data_{size}_{bits}.nxni"
        save_images(gen_textures(64, 3, size, bits, Rng(9)), path)
        return str(path)

    def test_train_and_eval_on_nxni(self, tmp_path, capsys):
        data = self.nxni(tmp_path)
        cfg = write_cfg(tmp_path, IMAGE_CFG + f"data.kind = nxni\ndata.path = {data}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        ck = str(out / "checkpoint.nxnf")
        assert main(["eval", "--checkpoint", ck, "--data", data, "--seed", "2"]) == 0
        model = _model_from_checkpoint(ck)
        nll = evaluate_nll(model, load_images(data).images, 5, 2)
        assert capsys.readouterr().out.startswith(f"nll_nats={nll:.6f} ")

    @pytest.mark.parametrize("size, bits, message", [
        (4, 5, "dataset shape (3, 4, 4) does not match model config"),
        (8, 4, "dataset bit depth 4 != model.bits 5")], ids=["shape", "bits"])
    def test_mismatched_nxni_exit_code(self, tmp_path, capsys, size, bits, message):
        data = self.nxni(tmp_path, size, bits)
        cfg = write_cfg(tmp_path, IMAGE_CFG + f"data.kind = nxni\ndata.path = {data}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not out.exists()


class TestSampleCommand:
    @pytest.fixture()
    def trained_image(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        out = tmp_path / "img_run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        return str(out / "checkpoint.nxnf")

    def test_rank2_csv_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        dst = tmp_path / "s.csv"
        ck = str(out / "checkpoint.nxnf")
        assert main(["sample", "--checkpoint", ck, "--n", "10",
                     "--seed", "2", "--out", str(dst)]) == 0
        assert load_points_csv(dst).shape == (10, 2)
        # determinism
        dst2 = tmp_path / "s2.csv"
        assert main(["sample", "--checkpoint", ck, "--n", "10",
                     "--seed", "2", "--out", str(dst2)]) == 0
        assert dst.read_bytes() == dst2.read_bytes()

    def test_empty_sample_artifact(self, tmp_path):
        cfg = write_cfg(tmp_path, RANK2_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        dst = tmp_path / "none.csv"
        assert main(["sample", "--checkpoint", str(out / "checkpoint.nxnf"),
                     "--n", "0", "--seed", "1", "--out", str(dst)]) == 0
        assert load_points_csv(dst).shape[0] == 0

    @pytest.mark.parametrize("flag, value, named", [("--n", "-1", "sample count"),
                                                    ("--temperature", "nan", "temperature"),
                                                    ("--temperature", "inf", "temperature")],
                             ids=["n=-1", "temperature=nan", "temperature=inf"])
    def test_bad_sample_value_exit_code(self, tmp_path, capsys, flag, value, named):
        ck = rank2_checkpoint(tmp_path)
        dst = tmp_path / "s.csv"
        assert main(["sample", "--checkpoint", ck, flag, value, "--out", str(dst)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0]
        assert not dst.exists()

    def test_nonfinite_sample_exit_code(self, tmp_path, capsys):
        # exp(-1e6) underflows to 0, so the actnorm's inverse divides by zero
        ck = rank2_checkpoint(tmp_path, log_scale=-1e6)
        dst = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning besides the message
            assert main(["sample", "--checkpoint", ck, "--n", "4", "--out", str(dst)]) == 4
        assert capsys.readouterr().err.strip().splitlines() == [
            "numeric error: non-finite activation at level0/step0/actnorm"]
        assert not dst.exists()

    def test_singular_mix_exit_code(self, tmp_path, capsys):
        # exp(-1e4) underflows to 0, so the first mix matrix is exactly singular
        ck = rank2_checkpoint(tmp_path, log_u_diag=-1e4)
        dst = tmp_path / "s.csv"
        assert main(["sample", "--checkpoint", ck, "--n", "4", "--out", str(dst)]) == 4
        assert capsys.readouterr().err.strip().splitlines() == [
            "numeric error: non-finite activation at level0/step0/mix"]
        assert not dst.exists()

    def test_image_samples_with_montage(self, trained_image, tmp_path):
        dst = tmp_path / "samples.nxni"
        assert main(["sample", "--checkpoint", trained_image, "--n", "4",
                     "--temperature", "0.7", "--seed", "8", "--out", str(dst)]) == 0
        ds = load_images(dst)
        assert ds.images.shape == (4, 3, 8, 8)
        assert ds.bits == 5
        assert os.path.exists(str(dst) + ".ppm")

    def test_two_channel_image_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG.replace("channels = 3", "channels = 2")
                        .replace("height = 8", "height = 4").replace("width = 8", "width = 4")
                        .replace("levels = 2", "levels = 1"))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        dst = tmp_path / "samples.nxni"
        assert main(["sample", "--checkpoint", str(out / "checkpoint.nxnf"), "--n", "3",
                     "--out", str(dst)]) == 0
        assert load_images(dst).images.shape == (3, 2, 4, 4)
        assert (tmp_path / "samples.nxni.ppm").read_bytes().startswith(b"P6\n12 4\n255\n")


class TestOutputFileModes:
    def test_outputs_get_the_mode_the_umask_gives(self, tmp_path, capsys):
        # as open() makes a file: 0666 less the umask, not a temp file's 0600
        outputs = ["rank2/checkpoint.nxnf", "rank2/metrics.csv", "rank2_samples.csv",
                   "image/checkpoint.nxnf", "image/metrics.csv", "image_samples.nxni",
                   "image_samples.nxni.ppm", "eval.csv", "report.csv"]
        old = os.umask(0o022)
        try:
            for mode, text, ext in (("rank2", RANK2_CFG, "csv"), ("image", IMAGE_CFG, "nxni")):
                cfg = write_cfg(tmp_path, text, f"{mode}.cfg")
                assert main(["train", "--config", cfg, "--set", "train.steps=1",
                             "--out", str(tmp_path / mode)]) == 0
                assert main(["sample", "--checkpoint", str(tmp_path / mode / "checkpoint.nxnf"),
                             "--n", "2", "--out", str(tmp_path / f"{mode}_samples.{ext}")]) == 0
            assert main(["eval", "--checkpoint", str(tmp_path / "rank2" / "checkpoint.nxnf"),
                         "--data", "eight_gaussians", "--n", "64",
                         "--out", str(tmp_path / "eval.csv")]) == 0
            assert main(["verify", "--suite", "conv_equiv", "--out", str(tmp_path / "report.csv")]) == 0
        finally:
            os.umask(old)
        made = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file() and p.suffix != ".cfg")
        assert made == sorted(outputs)
        assert {f: oct((tmp_path / f).stat().st_mode & 0o777) for f in made} == dict.fromkeys(
            made, "0o644")


class TestModuleEntryPoint:
    @pytest.mark.parametrize("command, message", [
        ("sample", "numeric error: non-finite activation at level0/step0/actnorm"),
        ("train", "numeric error: step 2: non-finite activation at level0/step0/actnorm"),
    ], ids=["sample", "train"])
    def test_numeric_failure_is_one_stderr_line(self, tmp_path, command, message):
        # numpy's RuntimeWarnings reach a real stderr, so run the module as a user does
        if command == "sample":  # exp(-1e6) underflows to 0: the inverse divides by zero
            args = ["--checkpoint", rank2_checkpoint(tmp_path, log_scale=-1e6), "--n", "4"]
        else:  # the first Adam step overflows the actnorm's exp
            args = ["--config", write_cfg(tmp_path, RANK2_CFG), "--set", "train.lr=1e300"]
        src = str(pathlib.Path(ckpt_io.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-m", "nxnflow.cli", command, *args,
                              "--out", str(tmp_path / "out")], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert run.returncode == 4
        assert run.stderr.splitlines() == [message]


class TestVerifyCommand:
    def test_conv_equiv_passes(self, capsys):
        assert main(["verify", "--suite", "conv_equiv", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "conv_reformulation,pass" in out

    def test_report_stable_across_runs(self, capsys):
        main(["verify", "--suite", "normalization", "--seed", "4"])
        a = capsys.readouterr().out
        main(["verify", "--suite", "normalization", "--seed", "4"])
        assert capsys.readouterr().out == a

    def test_report_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["verify", "--suite", "conv_equiv", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert [f.name for f in tmp_path.iterdir()] == ["report.csv"]  # no temp file left
