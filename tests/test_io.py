"""Tests for the on-disk formats: depth, masks, poses, features, models."""

import json
import re
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from crosspose import io
from crosspose import (
    MetricReport, Pose, cyclic_symmetries, make_model, make_pair, render_scene,
)
from crosspose.io import (
    pose_to_dict,
    quantize_depth,
    read_depth,
    read_features,
    read_intrinsics,
    read_json,
    read_mask,
    read_matches,
    read_model,
    read_pose,
    write_depth,
    write_features,
    write_intrinsics,
    write_json,
    write_mask,
    write_matches,
    write_model,
    write_pose,
)

# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class _FailingHandle:
    """A file handle that writes half of its first chunk, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(bytes(data)[: len(data) // 2])
        raise OSError(28, "No space left on device")


_WRITERS = {
    "json": lambda path: write_json(path, {"new": [1, 2]}),
    "depth": lambda path: write_depth(path, np.full((4, 5), 0.5)),
    "mask": lambda path: write_mask(path, np.ones((4, 5), dtype=bool)),
    "features": lambda path: write_features(path, np.ones((2, 3, 4))),
    "model": lambda path: write_model(path, make_model("cylinder", n_points=50, size=0.05)),
}


class TestAtomicWrites:
    def test_failing_block_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier")
        with pytest.raises(RuntimeError, match="mid-write"):
            with io._replacing(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("mid-write")
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_completed_block_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier")
        with io._replacing(path) as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_writer_failing_mid_write_leaves_earlier_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "target"
        path.write_bytes(b"earlier")
        real_open = open
        monkeypatch.setattr(
            io, "open", lambda *a, **k: _FailingHandle(real_open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space left on device") as info:
            _WRITERS[kind](path)
        assert info.value.filename == str(path)
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_writer_leaves_no_temp_file(self, tmp_path, kind):
        _WRITERS[kind](tmp_path / "target")
        assert all(not p.name.startswith(".") for p in tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Depth maps
# ---------------------------------------------------------------------------


class TestDepth:
    def test_quantized_render_roundtrips_losslessly(self, cam96, tmp_path):
        model = make_model("blob", n_points=2000, size=0.02, seed=1)
        scene = render_scene(
            model, Pose(np.eye(3), [0.0, 0.0, 0.6]), cam96, background_depth=0.8
        )
        path = tmp_path / "depth.pgm"
        write_depth(path, scene.depth)
        assert np.array_equal(read_depth(path), scene.depth)

    def test_values_round_to_nearest_millimeter(self, tmp_path):
        path = tmp_path / "depth.pgm"
        write_depth(path, np.array([[0.0014, 0.0016, 0.0]]))
        assert np.array_equal(read_depth(path), [[0.001, 0.002, 0.0]])

    def test_out_of_range_values_clip(self, tmp_path):
        path = tmp_path / "depth.pgm"
        write_depth(path, np.array([[-0.5, 70.0]]))
        assert np.array_equal(read_depth(path), [[0.0, 65.535]])

    def test_quantize_depth_equals_file_round_trip(self, rng, tmp_path):
        depth = rng.uniform(-1.0, 70.0, size=(16, 16))
        depth[0, :3] = [0.0, 0.0005, 65.5355]
        path = tmp_path / "depth.pgm"
        write_depth(path, depth)
        assert np.array_equal(quantize_depth(depth), read_depth(path))

    def test_header_and_big_endian_payload(self, tmp_path):
        path = tmp_path / "depth.pgm"
        write_depth(path, np.array([[0.001, 0.258], [0.0, 0.002]]))
        data = path.read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert data.startswith(header)
        # 258 mm = 0x0102 exercises byte order.
        assert data[len(header):] == b"\x00\x01\x01\x02\x00\x00\x00\x02"

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "depth.pgm"
        path.write_bytes(b"P5\n# note\n2 1\n65535\n\x00\x03\x00\x04")
        assert np.array_equal(read_depth(path), [[0.003, 0.004]])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "depth.pgm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            read_depth(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "depth.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_depth(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "depth.pgm"
        path.write_bytes(b"P5\n2 2")
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_depth(path)

    def test_truncated_payload_rejected(self, tmp_path):
        # A 12-byte header and three of the four 2-byte samples.
        path = tmp_path / "depth.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 6)
        with pytest.raises(ValueError, match="depth PGM of 2x2 needs 21 bytes, got 19"):
            read_depth(path)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_depth(tmp_path / "d.pgm", np.zeros(4))


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------


class TestMask:
    def test_roundtrip(self, rng, tmp_path):
        mask = rng.random((17, 23)) < 0.4
        path = tmp_path / "mask.pgm"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_payload_uses_zero_and_full_scale(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_mask(path, np.array([[True, False]]))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 1\n255\n")
        assert data[len(b"P5\n2 1\n255\n"):] == b"\xff\x00"

    def test_any_nonzero_reads_as_inside(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P5\n3 1\n255\n\x00\x07\xff")
        assert np.array_equal(read_mask(path), [[False, True, True]])

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            read_mask(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P5\n3 1\n255\n\xff\xff")
        with pytest.raises(ValueError, match="mask PGM of 3x1 needs 14 bytes, got 13"):
            read_mask(path)

    @pytest.mark.parametrize(
        "header, shown",
        [
            # A negative count reads the whole payload through np.frombuffer.
            (b"P5\n-1 5\n255\n", "-1 5 255"),
            (b"P5\n0 5\n255\n", "0 5 255"),
            (b"P5\n5 0\n255\n", "5 0 255"),
            (b"P5\n+2 5\n255\n", "+2 5 255"),
            (b"P5\n2 5\n0xff\n", "2 5 0xff"),
        ],
    )
    def test_header_needs_positive_decimal_dimensions(self, tmp_path, header, shown):
        path = tmp_path / "mask.pgm"
        path.write_bytes(header + b"\xff" * 10)
        with pytest.raises(ValueError, match=f"^mask PGM header .* got '{re.escape(shown)}'$"):
            read_mask(path)


@pytest.mark.parametrize("reader", [read_mask, read_depth])
def test_header_ending_inside_a_comment_is_truncated(reader, tmp_path):
    path = tmp_path / "image.pgm"
    path.write_bytes(b"P5\n4 4\n# no newline")
    with pytest.raises(ValueError, match="^truncated PGM header$"):
        reader(path)


# ---------------------------------------------------------------------------
# Poses and intrinsics
# ---------------------------------------------------------------------------


class TestPoseFile:
    def test_roundtrip_is_bitwise(self, rng, tmp_path):
        from crosspose import random_pose

        pose = random_pose(rng)
        path = tmp_path / "pose.json"
        write_pose(path, pose)
        back = read_pose(path)
        assert np.array_equal(back.rotation, pose.rotation)
        assert np.array_equal(back.translation, pose.translation)

    def test_layout_is_row_major(self, rng, tmp_path):
        from crosspose import random_pose

        pose = random_pose(rng)
        path = tmp_path / "pose.json"
        write_pose(path, pose)
        payload = json.loads(path.read_text())
        assert set(payload) == {"R", "t"}
        assert payload["R"][1] == pose.rotation[0, 1]
        assert payload["R"][3] == pose.rotation[1, 0]
        assert len(payload["t"]) == 3

    @pytest.mark.parametrize(
        "payload, message",
        [({"R": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, "pose has no 't'"),
         ({"t": [0, 0, 0]}, "pose has no 'R'"),
         ([[1, 0, 0], [0, 0, 0]], "pose must hold a JSON object, got list")],
    )
    def test_pose_without_a_key_names_it(self, tmp_path, payload, message):
        path = tmp_path / "pose.json"
        write_json(path, payload)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_pose(path)

    @pytest.mark.parametrize(
        "payload, message",
        [({"R": [1, 0, 0, 1], "t": [0, 0, 0]}, "pose 'R' must hold 9 finite numbers"),
         ({"R": ["abc"] * 9, "t": [0, 0, 0]}, "pose 'R' must hold 9 finite numbers"),
         ({"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]},
          "pose 'R' must hold 9 finite numbers"),
         ({"R": [1, 0, 0, 0, 1, 0, 0, 0, float("nan")], "t": [0, 0, 0]},
          "pose 'R' must hold 9 finite numbers"),
         ({"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0]}, "pose 't' must hold 3 finite numbers"),
         ({"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, [0], 0]},
          "pose 't' must hold 3 finite numbers"),
         ({"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [True, 0, 0]},
          "pose 't' must hold 3 finite numbers")],
    )
    def test_malformed_entry_names_the_key(self, tmp_path, payload, message):
        path = tmp_path / "pose.json"
        write_json(path, payload)
        with pytest.raises(ValueError, match=f"^{message}, got "):
            read_pose(path)

    def test_integer_entries_read_as_floats(self, tmp_path):
        path = tmp_path / "pose.json"
        write_json(path, {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 2]})
        pose = read_pose(path)
        assert np.array_equal(pose.rotation, np.eye(3))
        assert pose.translation.tolist() == [0.0, 0.0, 2.0]

    def test_bytes_deterministic_sorted_with_newline(self, cam96, tmp_path):
        payload = {"b": 2, "a": [1.5, 2.5], "c": {"z": 1, "y": 0}}
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        write_json(first, payload)
        write_json(second, payload)
        text = first.read_text()
        assert first.read_bytes() == second.read_bytes()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert read_json(first) == payload

        # Every payload's bytes equal the stdlib layout of its arrays as lists.
        def as_lists(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, dict):
                return {k: as_lists(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [as_lists(v) for v in value]
            return value

        def reference(value):
            text = json.dumps(as_lists(value), sort_keys=True, separators=(",", ": "), indent=1)
            return (text + "\n").encode()

        grid = np.arange(15).reshape(5, 3) * 37 - 200
        arrays = [
            grid[:rows, :cols].astype(dtype)
            for dtype in (np.int64, np.int32, np.uint8)
            for rows, cols in ((0, 2), (1, 2), (5, 3))
        ]
        stub = "\0ndarray 1\0"  # how an integer array is held while encoding
        corpus = [
            {"arrays": arrays, "first": arrays[0], "last": arrays[-1]},
            {"outer": {"inner": {"pixels": arrays[5]}, "after": arrays[4]}},
            {"grid": grid, "column": grid[:, :1], "strided": grid[::2, ::-2], "wide": grid.T},
            {"flags": np.array([[True, False], [False, True]]), "mask": np.zeros(3, bool)},
            {"floats": np.array([[0.1, -2.5], [1e-300, 3.0]]), "flat": np.arange(4.0)},
            {"empty_dict": {}, "empty_list": [], "tuple": (1, (2.5, "x")), "nested": [[]]},
            {"text": "caf\u00e9 \u2603 \U0001f600", "escapes": 'q"\\/\b\f\n\r\t\x00\x1f'},
            {"nan": float("nan"), "inf": float("inf"), "-inf": -np.inf, "zero": -0.0},
            {"edge": np.array([[np.nan, np.inf, -np.inf]])},
            {stub: 1, "pixels": grid, "same": stub},
            {"pixels": grid, "text": f"a{stub}b"},
        ]
        model = make_model("blob", n_points=2000, size=0.02, seed=4)
        _, _, oracle = make_pair(
            model, Pose(np.eye(3), [0.0, 0.0, 0.6]), Pose(np.eye(3), [0.002, 0.0, 0.6]), cam96
        )
        path = tmp_path / "layout.json"
        for value in corpus:
            write_json(path, value)
            assert path.read_bytes() == reference(value)
        write_matches(path, oracle)
        assert len(oracle) > 100
        assert path.read_bytes() == reference({
            "anchor": [[int(u), int(v)] for u, v in oracle.anchor],
            "query": [[int(u), int(v)] for u, v in oracle.query],
            "relative_pose": pose_to_dict(oracle.relative),
            "count": len(oracle),
        })
        report = MetricReport(
            vsd=0.5, mssd=1.0, mspd=0.1, add=1.0, miou=0.75, mssd_error_m=1e-4,
            mspd_error_px=float("inf"), add_error_m=2.5e-5, vsd_errors=(0.0, 0.3),
        )
        eval_payload = {"pairs": {"pair_0000": report.to_dict()}, "errors": {"p": "é"}}
        write_json(path, eval_payload)
        assert path.read_bytes() == reference(eval_payload)

    def test_write_replaces_target_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "pose.json"
        write_json(path, {"old": 1})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.replace", fail)
        with pytest.raises(OSError, match="No space left on device") as info:
            write_json(path, {"new": [1, 2]})
        assert info.value.filename == str(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pose.json"]

    def test_intrinsics_without_a_key_names_it(self, cam96, tmp_path):
        path = tmp_path / "cam.json"
        write_intrinsics(path, cam96)
        write_json(path, {k: v for k, v in read_json(path).items() if k != "cy"})
        with pytest.raises(ValueError, match="^camera file has no 'cy'$"):
            read_intrinsics(path)
        write_json(path, "fx")
        with pytest.raises(ValueError, match="^camera file must hold a JSON object, got str$"):
            read_intrinsics(path)

    def test_intrinsics_roundtrip(self, cam96, tmp_path):
        path = tmp_path / "cam.json"
        write_intrinsics(path, cam96)
        back = read_intrinsics(path)
        assert back == cam96

    @pytest.mark.parametrize(
        "name, value, noun",
        [("width", 96.7, "an integer"), ("height", True, "an integer"),
         ("fx", "500", "a number"), ("cx", True, "a number")],
    )
    def test_intrinsics_of_wrong_type_rejected(self, cam96, tmp_path, name, value, noun):
        path = tmp_path / "cam.json"
        write_intrinsics(path, cam96)
        write_json(path, {**read_json(path), name: value})
        with pytest.raises(ValueError, match=f"camera '{name}' must be {noun}"):
            read_intrinsics(path)


# ---------------------------------------------------------------------------
# Feature grids
# ---------------------------------------------------------------------------


class TestFeatureFile:
    def test_roundtrip_preserves_float32_payload(self, rng, tmp_path):
        grid = rng.normal(size=(7, 5, 12)).astype(np.float32)
        path = tmp_path / "features.oryt"
        write_features(path, grid)
        back = read_features(path)
        assert back.dtype == np.dtype("<f4")
        assert back.tobytes() == grid.astype("<f4").tobytes()
        back[0, 0, 0] = 0.0  # the caller owns the array

    @pytest.mark.parametrize("height", [1, 15, 16, 17, 96])
    @pytest.mark.parametrize("layout", ["float64", "float32", "non-contiguous"])
    def test_blocked_payload_equals_one_conversion(self, rng, tmp_path, height, layout):
        # Rows go out in blocks; the bytes are those of one float32 copy.
        grid = rng.normal(size=(height, 7, 5))
        if layout == "float32":
            grid = grid.astype(np.float32)
        elif layout == "non-contiguous":
            grid = rng.normal(size=(5, height, 7)).transpose(1, 2, 0)[:, ::-1]
            assert not grid.flags.c_contiguous
        path = tmp_path / "features.oryt"
        write_features(path, grid)
        want = np.ascontiguousarray(grid, dtype="<f4").tobytes()
        assert path.read_bytes() == b"ORYT" + struct.pack("<III", *grid.shape) + want

    def test_header_layout(self, rng, tmp_path):
        grid = rng.normal(size=(3, 4, 2)).astype(np.float32)
        path = tmp_path / "features.oryt"
        write_features(path, grid)
        data = path.read_bytes()
        assert data[:4] == b"ORYT"
        assert struct.unpack("<III", data[4:16]) == (3, 4, 2)
        assert len(data) == 16 + 3 * 4 * 2 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "features.oryt"
        path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(ValueError):
            read_features(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "features.oryt"
        path.write_bytes(b"ORYT" + struct.pack("<III", 2, 2, 2) + b"\x00" * 8)
        with pytest.raises(ValueError, match="2x2x2 needs 48 bytes, got 24"):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "features.oryt"
        path.write_bytes(b"ORYT" + struct.pack("<III", 1, 1, 2) + b"\x00" * 12)
        with pytest.raises(ValueError, match="1x1x2 needs 24 bytes, got 28"):
            read_features(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "features.oryt"
        path.write_bytes(b"ORYT" + bytes(6))
        with pytest.raises(ValueError, match="header needs 16 bytes, got 10"):
            read_features(path)

    def test_non_3d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(tmp_path / "f.oryt", np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


class TestModelFile:
    def test_roundtrip_with_symmetries(self, tmp_path):
        model = make_model("cylinder", n_points=120, size=0.04, cyclic_order=4)
        path = tmp_path / "model.xyz"
        write_model(path, model)
        assert (tmp_path / "model.json").exists()
        back = read_model(path)
        assert np.array_equal(back.points, model.points)
        assert back.diameter_m == model.diameter_m
        assert len(back.symmetries) == 4
        for ours, theirs in zip(model.symmetries, back.symmetries):
            assert np.array_equal(ours.rotation, theirs.rotation)
            assert np.array_equal(ours.translation, theirs.translation)

    def test_tampered_diameter_rejected_on_read(self, tmp_path):
        model = make_model("blob", n_points=64, size=0.02)
        path = tmp_path / "model.xyz"
        write_model(path, model)
        sidecar = tmp_path / "model.json"
        meta = json.loads(sidecar.read_text())
        meta["diameter"] = meta["diameter"] * 2.0
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            read_model(path)

    @pytest.mark.parametrize("key", ["diameter", "symmetries"])
    def test_sidecar_without_a_key_names_it(self, tmp_path, key):
        path = tmp_path / "model.xyz"
        write_model(path, make_model("blob", n_points=64, size=0.02))
        sidecar = tmp_path / "model.json"
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^model sidecar has no '{key}'$"):
            read_model(path)


@pytest.fixture
def parses(monkeypatch):
    """How often ``np.loadtxt`` runs, starting from an empty XYZ memo."""
    io._parse_xyz.cache_clear()
    count = [0]
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        count[0] += 1
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    yield count
    io._parse_xyz.cache_clear()


class TestModelMemo:
    """``read_model`` parses each distinct XYZ text once per process."""

    def test_same_bytes_at_two_paths_parse_once(self, tmp_path, parses):
        model = make_model("cylinder", n_points=200, size=0.04, cyclic_order=4, seed=2)
        write_model(tmp_path / "a.xyz", model)
        (tmp_path / "b").mkdir()
        for name in ("a.xyz", "a.json"):
            (tmp_path / "b" / name).write_bytes((tmp_path / name).read_bytes())
        models = [read_model(tmp_path / "a.xyz"), read_model(tmp_path / "b" / "a.xyz")]
        assert parses[0] == 1
        for back in models:
            assert np.array_equal(back.points, model.points)
            assert back.diameter_m == model.diameter_m
            assert len(back.symmetries) == 4

    def test_one_ulp_change_misses(self, tmp_path, parses):
        model = make_model("blob", n_points=100, size=0.02, seed=3)
        points = model.points.copy()
        points[5, 2] = np.nextafter(points[5, 2], -np.inf)
        moved = type(model).from_points(points)
        write_model(tmp_path / "a.xyz", model)
        write_model(tmp_path / "b.xyz", moved)
        assert np.array_equal(read_model(tmp_path / "a.xyz").points, model.points)
        assert np.array_equal(read_model(tmp_path / "b.xyz").points, points)
        assert parses[0] == 2

    def test_tampered_sidecar_rejected_after_a_hit(self, tmp_path, parses):
        model = make_model("blob", n_points=64, size=0.02)
        write_model(tmp_path / "model.xyz", model)
        read_model(tmp_path / "model.xyz")
        sidecar = tmp_path / "model.json"
        meta = json.loads(sidecar.read_text())
        meta["diameter"] = meta["diameter"] + 1e-6
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="declared diameter"):
            read_model(tmp_path / "model.xyz")
        assert parses[0] == 1

    def test_memo_is_read_only_and_out_of_callers_reach(self, tmp_path, parses):
        model = make_model("blob", n_points=64, size=0.02)
        path = tmp_path / "model.xyz"
        write_model(path, model)
        memo = io._parse_xyz(path.read_bytes())
        assert memo.flags.writeable is False
        with pytest.raises(ValueError):
            memo[0, 0] = 1.0
        points = read_model(path).points.copy()
        points[0, 0] = 1.0
        assert not np.shares_memory(read_model(path).points, memo)
        assert np.array_equal(read_model(path).points, model.points)
        assert parses[0] == 1

    def test_entries_never_exceed_the_bound(self, tmp_path, parses):
        bound = io._XYZ_MEMO_ENTRIES
        for i in range(bound + 2):
            io._parse_xyz(f"{i} 0 0\n".encode())
            assert io._parse_xyz.cache_info().currsize <= bound
        assert io._parse_xyz.cache_info().currsize == bound
        io._parse_xyz(f"{bound + 1} 0 0\n".encode())  # the newest entry stays
        io._parse_xyz(b"0 0 0\n")  # the oldest went
        assert parses[0] == bound + 3

    def test_two_threads_parse_a_shared_text_once(self, tmp_path, parses, monkeypatch):
        # The first reader holds the memo while it parses, so the second
        # waits for the entry instead of parsing the same bytes again.
        loadtxt = np.loadtxt

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", slow)
        model = make_model("blob", n_points=64, size=0.02)
        write_model(tmp_path / "model.xyz", model)
        barrier = threading.Barrier(2)
        points = []

        def work():
            barrier.wait()
            points.append(read_model(tmp_path / "model.xyz").points)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert parses[0] == 1
        assert len(points) == 2
        assert all(np.array_equal(p, model.points) for p in points)

    def test_unreadable_model_messages(self, tmp_path, parses):
        model = make_model("blob", n_points=64, size=0.02)
        path = tmp_path / "model.xyz"
        write_model(path, model)
        cases = [
            (None, f"FileNotFoundError: {tmp_path / 'missing.xyz'} not found."),
            (b"", "ValueError: model points must have shape (N, 3), got (0, 1)"),
            (b"1 2 3\n4 x 6\n", "ValueError: could not convert string 'x' to float64 at row 1, column 2."),
            (b"1 2 3\n4 5\n", "ValueError: the number of columns changed from 3 to 2 at row 2; "
                              "use `usecols` to select a subset and avoid this error"),
        ]
        for data, message in cases:
            target = tmp_path / "missing.xyz"
            if data is not None:
                target.write_bytes(data)
                target.with_suffix(".json").write_bytes(path.with_suffix(".json").read_bytes())
            for _ in range(2):  # the same message from a fresh and a repeated read
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # loadtxt on no data
                    with pytest.raises(Exception) as info:
                        read_model(target)
                assert f"{type(info.value).__name__}: {info.value}" == message


# ---------------------------------------------------------------------------
# Match files
# ---------------------------------------------------------------------------


class TestMatchFile:
    def test_rows_of_three_numbers_rejected(self, tmp_path):
        path = tmp_path / "matches.json"
        write_json(path, {
            "anchor": [[1, 2, 3], [4, 5, 6]], "query": [[1, 2], [3, 4], [5, 6]],
            "relative_pose": pose_to_dict(Pose.identity()), "count": 2,
        })
        with pytest.raises(ValueError, match=r"anchor pixels must have shape \(M, 2\)"):
            read_matches(path)

    def test_list_payload_rejected(self, tmp_path):
        path = tmp_path / "matches.json"
        write_json(path, [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="^match file must hold a JSON object, got list$"):
            read_matches(path)

    @pytest.mark.parametrize("key", ["anchor", "query", "relative_pose"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "matches.json"
        payload = {"anchor": [[1, 2]], "query": [[3, 4]],
                   "relative_pose": pose_to_dict(Pose.identity()), "count": 1}
        del payload[key]
        write_json(path, payload)
        with pytest.raises(ValueError, match=f"^match file has no '{key}'$"):
            read_matches(path)

    def test_relative_pose_without_t_names_it(self, tmp_path):
        path = tmp_path / "matches.json"
        write_json(path, {"anchor": [[1, 2]], "query": [[3, 4]],
                          "relative_pose": {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, "count": 1})
        with pytest.raises(ValueError, match="^pose has no 't'$"):
            read_matches(path)

    def test_roundtrip(self, cam96, tmp_path):
        model = make_model("blob", n_points=3000, size=0.025, seed=4)
        pose_a = Pose(np.eye(3), [0.0, 0.0, 0.6])
        pose_q = Pose(np.eye(3), [0.002, 0.0, 0.6])
        _, _, oracle = make_pair(model, pose_a, pose_q, cam96)
        path = tmp_path / "matches.json"
        write_matches(path, oracle)
        back = read_matches(path)
        assert np.array_equal(back.anchor, oracle.anchor)
        assert np.array_equal(back.query, oracle.query)
        assert back.anchor.dtype == np.int64
        assert np.array_equal(back.relative.rotation, oracle.relative.rotation)
        assert np.array_equal(
            back.relative.translation, oracle.relative.translation
        )

    def test_count_field_matches_length(self, cam96, tmp_path):
        model = make_model("blob", n_points=2000, size=0.02, seed=4)
        pose = Pose(np.eye(3), [0.0, 0.0, 0.6])
        _, _, oracle = make_pair(model, pose, pose, cam96)
        path = tmp_path / "matches.json"
        write_matches(path, oracle)
        payload = json.loads(path.read_text())
        assert payload["count"] == len(oracle.anchor)
        assert list(payload) == sorted(payload)

    def test_empty_pair_roundtrips(self, tmp_path):
        from crosspose import GtPair

        empty = GtPair(
            anchor=np.zeros((0, 2), dtype=np.int64),
            query=np.zeros((0, 2), dtype=np.int64),
            relative=Pose.identity(),
        )
        path = tmp_path / "matches.json"
        write_matches(path, empty)
        back = read_matches(path)
        assert back.anchor.shape == (0, 2)
        assert back.query.shape == (0, 2)
