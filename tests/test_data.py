import functools
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nxnflow.config import KNOWN_KEYS, RunConfig
from nxnflow.data import (ImageDataset, gen_2d, gen_textures, load_images, load_points_csv,
                          save_images, save_points_csv, save_ppm_montage)
from nxnflow.errors import ConfigError, DataError, FormatError
from nxnflow.tensor import Rng


class TestGen2D:
    def test_eight_gaussians_modes(self):
        ds = gen_2d("eight_gaussians", 8000, Rng(0))
        # normalized output still has 8 well-separated clusters
        from scipy.cluster.vq import kmeans2
        centers, labels = kmeans2(ds.points, 8, seed=3, minit="++")
        counts = np.bincount(labels, minlength=8)
        assert np.all(counts > 400)
        # cluster centers roughly on a circle (normalized radius ~ sqrt(2))
        radii = np.linalg.norm(centers, axis=1)
        assert radii.std() < 0.15

    def test_normalized(self):
        for kind in ("eight_gaussians", "two_moons", "checkerboard"):
            ds = gen_2d(kind, 5000, Rng(1))
            np.testing.assert_allclose(ds.points.mean(axis=0), 0.0, atol=1e-9)
            np.testing.assert_allclose(ds.points.std(axis=0), 1.0, atol=1e-9)

    def test_single_point(self):
        ds = gen_2d("two_moons", 1, Rng(2))
        assert ds.points.shape == (1, 2)
        assert np.all(np.isfinite(ds.points))

    def test_determinism(self):
        a = gen_2d("checkerboard", 100, Rng(3)).points
        b = gen_2d("checkerboard", 100, Rng(3)).points
        np.testing.assert_array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gen_2d("spiral", 10, Rng(0))


class TestNxniFormat:
    def test_roundtrip(self, tmp_path):
        imgs = Rng(0).integers(0, 32, (5, 3, 8, 8)).astype(np.uint8)
        ds = ImageDataset(images=imgs, bits=5)
        p = tmp_path / "set.nxni"
        save_images(ds, p)
        loaded = load_images(p)
        np.testing.assert_array_equal(loaded.images, imgs)
        assert loaded.bits == 5

    def test_empty_dataset_valid(self, tmp_path):
        ds = ImageDataset(images=np.zeros((0, 1, 2, 2), dtype=np.uint8), bits=8)
        p = tmp_path / "empty.nxni"
        save_images(ds, p)
        assert load_images(p).images.shape == (0, 1, 2, 2)

    def test_truncated_payload(self, tmp_path):
        imgs = np.zeros((2, 1, 4, 4), dtype=np.uint8)
        p = tmp_path / "t.nxni"
        save_images(ImageDataset(images=imgs, bits=5), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            load_images(p)

    def test_bad_magic_names_offset(self, tmp_path):
        p = tmp_path / "bad.nxni"
        p.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError) as e:
            load_images(p)
        assert e.value.offset == 0

    def test_value_above_bit_depth(self, tmp_path):
        imgs = np.full((1, 1, 2, 2), 40, dtype=np.uint8)
        p = tmp_path / "v.nxni"
        save_images(ImageDataset(images=imgs, bits=8), p)
        raw = bytearray(p.read_bytes())
        raw[24:28] = (5).to_bytes(4, "little")  # claim 5-bit depth
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as e:
            load_images(p)
        assert e.value.offset is not None

    @pytest.mark.parametrize("seed", range(20))
    def test_corruption_fuzz(self, seed, tmp_path):
        tmp = tmp_path
        rng = Rng(seed)
        imgs = rng.integers(0, 16, (2, 1, 4, 4)).astype(np.uint8)
        p = tmp / "f.nxni"
        save_images(ImageDataset(images=imgs, bits=4), p)
        raw = bytearray(p.read_bytes())
        pos = int(rng.integers(0, len(raw)))
        raw[pos] ^= 0xFF
        p.write_bytes(bytes(raw))
        try:
            loaded = load_images(p)
        except FormatError:
            return  # fail-closed is acceptable
        # if it loads, the header invariants must hold
        assert loaded.images.max(initial=0) < (1 << loaded.bits)
        assert loaded.images.ndim == 4


class TestTextures:
    def test_shapes_and_range(self):
        ds = gen_textures(6, 3, 8, 5, Rng(0))
        assert ds.images.shape == (6, 3, 8, 8)
        assert ds.images.max() < 32

    def test_determinism(self):
        a = gen_textures(3, 3, 8, 5, Rng(4)).images
        b = gen_textures(3, 3, 8, 5, Rng(4)).images
        np.testing.assert_array_equal(a, b)


class TestPpm:
    def test_montage_roundtrip_header(self, tmp_path):
        # 8 images to a row; fewer make one row of that many
        p = tmp_path / "grid.ppm"
        for count, header in ((3, b"P6\n24 8\n255\n"), (8, b"P6\n64 8\n255\n"),
                              (9, b"P6\n64 16\n255\n")):
            save_ppm_montage(Rng(1).integers(0, 32, (count, 3, 8, 8)).astype(np.uint8), 5, p)
            assert p.read_bytes().startswith(header)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_montage_channels(self, tmp_path, c):
        # 1 channel is grey, 2 are red and green, from 3 on the first 3 are RGB;
        # 10 images fill the first row of 8 and 2 cells of the second
        imgs = Rng(c).integers(0, 32, (10, c, 4, 5)).astype(np.uint8)
        p = tmp_path / "grid.ppm"
        save_ppm_montage(imgs, 5, p)
        header = b"P6\n40 8\n255\n"
        raw = p.read_bytes()
        assert raw.startswith(header)
        canvas = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(8, 40, 3)
        scaled = imgs.astype(np.uint8) * 8  # 255 // 31
        rgb = {1: scaled[:, [0, 0, 0]],
               2: np.concatenate([scaled, np.zeros_like(scaled[:, :1])], axis=1),
               3: scaled, 4: scaled[:, :3]}[c].transpose(0, 2, 3, 1)
        for i in range(10):
            r, col = divmod(i, 8)
            np.testing.assert_array_equal(canvas[4 * r:4 * r + 4, 5 * col:5 * col + 5], rgb[i])
        assert not canvas[4:, 10:].any()


class TestCsv:
    def test_roundtrip(self, tmp_path):
        pts = Rng(0).normal((10, 2))
        p = tmp_path / "pts.csv"
        save_points_csv(pts, p)
        np.testing.assert_array_equal(load_points_csv(p), pts)

    @pytest.mark.parametrize("raw,what", [(b"1.0,2.0\n\n3.0,abc\n", "line 3: not a number"),
                                          (b"1.0,2.0\n3.0\n", "line 2: 1 columns, expected 2"),
                                          (b"1.0,2.0\n\xff\xfe,1\n", "not UTF-8 at byte offset 8"),
                                          (b"1.0,2.0\nnan,1\n", "line 2: not a finite number"),
                                          (b"-inf,2.0\n", "line 1: not a finite number"),
                                          (b"1.0,1e999\n", "line 1: not a finite number")])
    def test_malformed_input_is_data_error(self, tmp_path, raw, what):
        p = tmp_path / "bad.csv"
        p.write_bytes(raw)
        with pytest.raises(DataError, match=what):
            load_points_csv(p)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        p = tmp_path / "pts.csv"
        save_points_csv(np.ones((2, 2)), p)
        before = p.read_bytes()
        with pytest.raises(ValueError):
            save_points_csv(np.array([[1.0, 2.0], ["x", 3.0]], dtype=object), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["pts.csv"]


class TestImageDatasetInvariants:
    def test_value_range_enforced(self):
        with pytest.raises(DataError):
            ImageDataset(images=np.full((1, 1, 2, 2), 40, dtype=np.uint8), bits=5)

    def test_rank_enforced(self):
        with pytest.raises(DataError, match="rank 4, got rank 3"):
            ImageDataset(images=np.zeros((1, 2, 2), dtype=np.uint8), bits=5)


@functools.cache
def valid_inputs() -> dict:
    """kind -> (parser, the bytes of a valid file) for every input format but NXNF."""
    with tempfile.TemporaryDirectory() as d:
        d = pathlib.Path(d)
        save_images(ImageDataset(images=Rng(0).integers(0, 16, (3, 2, 2, 2)).astype(np.uint8),
                                 bits=4), d / "set.nxni")
        save_points_csv(Rng(1).normal((6, 2)), d / "pts.csv")
        config = "# every key\n" + "".join(f"{k} = {v}\n" for k, (_, v) in KNOWN_KEYS.items())
        return {"nxni": (load_images, (d / "set.nxni").read_bytes()),
                "csv": (load_points_csv, (d / "pts.csv").read_bytes()),
                "config": (RunConfig.from_file, config.encode())}


class TestParserFuzz:
    # A truncated or mutated file fails closed: the parser returns, or raises
    # FormatError, DataError or ConfigError; any other exception fails the test.
    def parse(self, kind: str, edit) -> None:
        parse, raw = valid_inputs()[kind]
        with tempfile.TemporaryDirectory() as d:
            p = pathlib.Path(d, "fuzzed")
            p.write_bytes(edit(bytearray(raw)))
            try:
                parse(p)
            except (FormatError, DataError, ConfigError):
                pass

    @pytest.mark.parametrize("kind", ["nxni", "csv", "config"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_truncation(self, kind, data):
        self.parse(kind, lambda raw: raw[:data.draw(st.integers(0, len(raw) - 1))])

    @pytest.mark.parametrize("kind", ["nxni", "csv", "config"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_byte_mutations(self, kind, data):
        def mutate(raw):
            edits = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                 st.integers(0, 255)), min_size=1, max_size=3))
            for pos, value in edits:
                raw[pos] = value
            return raw

        self.parse(kind, mutate)
