"""End-to-end tests for the command-line pipeline and its settings."""

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import crosspose
from crosspose import (
    ConfigError,
    ObjectModel,
    Pose,
    compose,
    generate_gt_matches,
    lift_matches,
    make_model,
    match_features,
    register_spatial_consistency,
    render_scene,
    rotation_about_axis,
)
from crosspose.cli import _workers, build_parser, main
from crosspose.config import derive_seed, load_pairs, pair_seed
from crosspose import geometry, io

# ---------------------------------------------------------------------------
# Helpers and fixtures
# ---------------------------------------------------------------------------


def _tree_digest(root):
    """Order-independent digest of every file under a directory."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rotation_angle(r):
    frob = np.linalg.norm(r - np.eye(3))
    return 2.0 * math.asin(min(1.0, frob / (2.0 * math.sqrt(2.0))))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Three clean synthetic pairs at the default resolution."""
    root = tmp_path_factory.mktemp("dataset")
    assert main(["synth", "--out", str(root), "--pairs", "3", "--seed", "7"]) == 0
    return root


@pytest.fixture(scope="module")
def dataset_small(tmp_path_factory):
    """Two quick low-resolution pairs for determinism checks."""
    root = tmp_path_factory.mktemp("dataset_small")
    argv = [
        "synth", "--out", str(root), "--pairs", "2", "--seed", "3",
        "--image-size", "64", "--model-points", "2500",
    ]
    assert main(argv) == 0
    return root


@pytest.fixture(scope="module")
def matches_out(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("matches")
    rc = main([
        "gen-matches", "--pairs", str(dataset / "pairs.json"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_matches(dataset_small, tmp_path_factory):
    out = tmp_path_factory.mktemp("small_matches")
    assert main([
        "gen-matches", "--pairs", str(dataset_small / "pairs.json"),
        "--out-dir", str(out),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def oracle_matches(dataset, tmp_path_factory):
    """Per-pair match files copied from the point-identity oracles."""
    out = tmp_path_factory.mktemp("oracle_matches")
    for entry in load_pairs(dataset / "pairs.json"):
        src = entry.anchor.pose.parent / "gt_matches.json"
        (out / f"{entry.pair_id}.json").write_bytes(src.read_bytes())
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


class TestSynth:
    def test_creates_complete_dataset(self, dataset):
        assert (dataset / "pairs.json").exists()
        assert (dataset / "camera.json").exists()
        assert (dataset / "models" / "model.xyz").exists()
        assert (dataset / "models" / "model.json").exists()
        entries = load_pairs(dataset / "pairs.json")
        assert len(entries) == 3
        for entry in entries:
            assert entry.anchor.features is not None
            assert entry.query.features is not None
        files = {p.name for p in (dataset / "pairs" / "pair_0000").iterdir()}
        assert files == {
            "depth_anchor.pgm", "depth_query.pgm",
            "mask_anchor.pgm", "mask_query.pgm",
            "pose_anchor.json", "pose_query.json", "rel_pose.json",
            "features_anchor.feat", "features_query.feat",
            "gt_matches.json",
        }

    def test_same_seed_gives_identical_directories(self, tmp_path):
        argv = ["synth", "--pairs", "2", "--seed", "3",
                "--image-size", "64", "--model-points", "1500"]
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert _tree_digest(first) == _tree_digest(second)

    def test_toolkit_error_that_escapes_a_stage_exits_1(self, tmp_path, monkeypatch, capsys):
        def no_render(*args, **kwargs):
            raise crosspose.EmptyRender("no model point projects into the image")

        monkeypatch.setattr("crosspose.cli.make_pair", no_render)
        argv = ["synth", "--out", str(tmp_path / "data"), "--pairs", "1",
                "--image-size", "64", "--model-points", "1500"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: EmptyRender: no model point projects into the image\n"
        )

    def test_different_seeds_give_different_poses(self, tmp_path):
        argv = ["synth", "--pairs", "1",
                "--image-size", "64", "--model-points", "1500"]
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(argv + ["--out", str(first), "--seed", "1"]) == 0
        assert main(argv + ["--out", str(second), "--seed", "2"]) == 0
        pose_a = (first / "pairs" / "pair_0000" / "pose_anchor.json").read_bytes()
        pose_b = (second / "pairs" / "pair_0000" / "pose_anchor.json").read_bytes()
        assert pose_a != pose_b

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--image-size", "0"),
            ("--cyclic-order", "0"),
            ("--model-points", "1"),
            ("--noise", "-1"),
            ("--noise", "nan"),
            ("--noise", "1e160"),
            ("--outlier-fraction", "2"),
            ("--pairs", "0"),
            ("--model-size", "0"),
            # Its squared distances would overflow the diameter search.
            ("--model-size", "1e200"),
        ],
    )
    def test_invalid_value_exits_2_and_writes_nothing(self, flag, value, tmp_path, capsys):
        out = tmp_path / "data"
        argv = ["synth", "--out", str(out), "--image-size", "32", "--model-points", "200"]
        assert main(argv + [flag, value]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--focal", "500"),
            ("--feature-dim", "32"),
            ("--background-depth", "0.8"),
            ("--max-view-angle", "35"),
        ],
    )
    def test_removed_flag_is_a_usage_error(self, flag, value, tmp_path, capsys):
        # The camera, descriptor size, background and view angles are fixed.
        out = tmp_path / "data"
        argv = ["synth", "--out", str(out), "--image-size", "32", "--model-points", "200"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_removes_temp_files_a_killed_writer_left(self, tmp_path):
        argv = ["synth", "--pairs", "2", "--image-size", "32", "--model-points", "200"]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert main(argv + ["--out", str(rerun)]) == 0
        # The names io._replacing gives the temp files of the manifest and of
        # a depth map; a SIGKILL during the write leaves them behind.
        for name in (".pairs.json.1-1.tmp", "pairs/pair_0001/.depth_query.pgm.1-1.tmp"):
            (rerun / name).write_text("partial")
        assert main(argv + ["--out", str(rerun)]) == 0
        assert main(argv + ["--out", str(fresh)]) == 0
        assert _tree_digest(rerun) == _tree_digest(fresh)

    def test_out_that_is_a_file_exits_2(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("keep")
        argv = ["synth", "--out", str(out), "--image-size", "32", "--model-points", "200"]
        assert main(argv) == 2
        assert out.read_text() == "keep"

    def test_pair_directory_that_is_a_file_exits_2(self, tmp_path, capsys):
        # A later pair directory is blocked; nothing is written before it.
        data = tmp_path / "data"
        blocker = data / "pairs" / "pair_0001"
        blocker.parent.mkdir(parents=True)
        blocker.write_text("keep")
        argv = ["synth", "--out", str(data), "--pairs", "2",
                "--image-size", "32", "--model-points", "200"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot create directory ")
        assert blocker.read_text() == "keep"
        for name in ("models/model.xyz", "camera.json", "pairs.json"):
            assert not (data / name).exists()
        assert not any((data / "pairs" / "pair_0000").iterdir())

    def test_rerun_with_fewer_pairs_leaves_the_tree_of_a_fresh_run(self, tmp_path):
        argv = ["synth", "--seed", "3", "--image-size", "48", "--model-points", "1500"]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert main(argv + ["--out", str(rerun), "--pairs", "3"]) == 0
        # A setting error deletes nothing.
        assert main(argv + ["--out", str(rerun), "--pairs", "2", "--noise", "-1"]) == 2
        assert (rerun / "pairs" / "pair_0002" / "gt_matches.json").exists()
        # Only the pair directories synth names are its own.
        foreign = ["pair_7", "pair_00002", "notes"]
        for name in foreign:
            (rerun / "pairs" / name).mkdir()
        (rerun / "pairs" / "pair_0003").write_text("keep")
        assert main(argv + ["--out", str(rerun), "--pairs", "2"]) == 0
        assert main(argv + ["--out", str(fresh), "--pairs", "2"]) == 0
        assert not (rerun / "pairs" / "pair_0002").exists()
        assert (rerun / "pairs" / "pair_0003").read_text() == "keep"
        for name in foreign:
            (rerun / "pairs" / name).rmdir()
        (rerun / "pairs" / "pair_0003").unlink()
        assert _tree_digest(rerun) == _tree_digest(fresh)


# ---------------------------------------------------------------------------
# gen-matches
# ---------------------------------------------------------------------------


class TestGenMatches:
    def test_accepts_all_clean_pairs(self, dataset, matches_out):
        summary = io.read_json(matches_out / "summary.json")
        assert summary["accepted"] == ["pair_0000", "pair_0001", "pair_0002"]
        assert summary["rejected"] == {}
        assert summary["errors"] == {}
        for pid in summary["accepted"]:
            assert (matches_out / f"{pid}.json").exists()

    def test_files_match_in_memory_results_exactly(self, dataset, matches_out):
        entry = load_pairs(dataset / "pairs.json")[0]
        depth_a = io.read_depth(entry.anchor.depth)
        depth_q = io.read_depth(entry.query.depth)
        mask_a = io.read_mask(entry.anchor.mask)
        mask_q = io.read_mask(entry.query.mask)
        cam = io.read_intrinsics(entry.anchor.camera)
        pose_a = io.read_pose(entry.anchor.pose)
        pose_q = io.read_pose(entry.query.pose)
        pair = generate_gt_matches(
            depth_a, depth_q, mask_a, mask_q, cam, cam, pose_a, pose_q
        )
        stored = io.read_matches(matches_out / f"{entry.pair_id}.json")
        assert np.array_equal(stored.anchor, pair.anchor)
        assert np.array_equal(stored.query, pair.query)

    def test_sparse_pair_lands_in_rejection_log(self, cam96, tmp_path):
        # A 4 mm sphere covers only a handful of pixels, so the pair
        # cannot reach the minimum match count and is rejected.
        model = make_model("sphere", n_points=3000, size=0.002, seed=2)
        pose_a = Pose(np.eye(3), [0.0, 0.0, 0.55])
        pose_q = Pose(np.eye(3), [0.0, 0.0, 0.55])
        scene_a = render_scene(model, pose_a, cam96)
        scene_q = render_scene(model, pose_q, cam96)
        io.write_depth(tmp_path / "da.pgm", scene_a.depth)
        io.write_depth(tmp_path / "dq.pgm", scene_q.depth)
        io.write_mask(tmp_path / "ma.pgm", scene_a.mask)
        io.write_mask(tmp_path / "mq.pgm", scene_q.mask)
        io.write_intrinsics(tmp_path / "cam.json", cam96)
        io.write_pose(tmp_path / "pa.json", pose_a)
        io.write_pose(tmp_path / "pq.json", pose_q)
        io.write_model(tmp_path / "model.xyz", model)
        io.write_json(
            tmp_path / "pairs.json",
            {
                "pairs": [
                    {
                        "id": "sparse",
                        "model": "model.xyz",
                        "anchor": {"depth": "da.pgm", "mask": "ma.pgm",
                                   "camera": "cam.json", "pose": "pa.json"},
                        "query": {"depth": "dq.pgm", "mask": "mq.pgm",
                                  "camera": "cam.json", "pose": "pq.json"},
                    }
                ]
            },
        )
        out = tmp_path / "out"
        rc = main([
            "gen-matches", "--pairs", str(tmp_path / "pairs.json"),
            "--out-dir", str(out),
        ])
        assert rc == 0
        summary = io.read_json(out / "summary.json")
        assert summary["accepted"] == []
        assert "sparse" in summary["rejected"]
        assert summary["rejected"]["sparse"] < 100
        assert not (out / "sparse.json").exists()

    def test_mistyped_camera_file_fails_only_its_pair(self, dataset_small, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        camera = io.read_json(data / "camera.json")
        manifest = io.read_json(data / "pairs.json")
        manifest["pairs"][1]["query"]["camera"] = "camera_bad.json"
        io.write_json(data / "pairs.json", manifest)
        no_height = {k: v for k, v in camera.items() if k != "height"}
        for bad, message in (
            ({**camera, "width": 64.5}, "camera 'width' must be an integer, got 64.5"),
            (no_height, "camera file has no 'height'"),
            ([64, 64], "camera file must hold a JSON object, got list"),
            ({**camera, "fx": float("inf")}, "focal lengths must be finite and positive"),
            # Subnormal focal lengths overflow x to infinity.
            ({**camera, "fx": 1e-310}, "points contains non-finite values"),
            ({**camera, "fx": 5e-324}, "points contains non-finite values"),
        ):
            io.write_json(data / "camera_bad.json", bad)
            out = tmp_path / "out"
            assert main(["gen-matches", "--pairs", str(data / "pairs.json"),
                         "--out-dir", str(out)]) == 1
            summary = io.read_json(out / "summary.json")
            assert summary["accepted"] == ["pair_0000"]
            assert summary["errors"] == {"pair_0001": f"ValueError: {message}"}
            assert (out / "pair_0000.json").exists() and not (out / "pair_0001.json").exists()

    def test_pose_without_t_fails_its_pair_naming_the_key(self, dataset_small, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        pose = data / "pairs" / "pair_0001" / "pose_query.json"
        io.write_json(pose, {"R": io.read_json(pose)["R"]})
        out = tmp_path / "out"
        assert main(["gen-matches", "--pairs", str(data / "pairs.json"),
                     "--out-dir", str(out)]) == 1
        summary = io.read_json(out / "summary.json")
        assert summary["accepted"] == ["pair_0000"]
        assert summary["errors"] == {"pair_0001": "ValueError: pose has no 't'"}

    def test_missing_manifest_is_config_error(self, tmp_path):
        rc = main([
            "gen-matches", "--pairs", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_manifest_that_is_a_directory_exits_2(self, dataset_small, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-matches", "--pairs", str(dataset_small), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read pairs manifest {dataset_small}: Is a directory\n"
        )
        assert not out.exists()

    def test_empty_pairs_list_is_config_error(self, tmp_path):
        manifest = tmp_path / "pairs.json"
        io.write_json(manifest, {"pairs": []})
        rc = main([
            "gen-matches", "--pairs", str(manifest),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_dir_that_is_a_file_exits_2(self, sub, dataset_small, tmp_path):
        blocker = tmp_path / "out"
        blocker.write_text("keep")
        assert main([
            "gen-matches", "--pairs", str(dataset_small / "pairs.json"),
            "--out-dir", str(blocker / sub),
        ]) == 2
        assert blocker.read_text() == "keep"

    def test_summary_bytes_stable_across_runs(self, dataset, tmp_path):
        argv = ["gen-matches", "--pairs", str(dataset / "pairs.json")]
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(argv + ["--out-dir", str(first)]) == 0
        assert main(argv + ["--out-dir", str(second)]) == 0
        assert _tree_digest(first) == _tree_digest(second)

    def test_rerun_deletes_match_files_of_rejected_and_failed_pairs(
        self, dataset_small, tmp_path
    ):
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        manifest = str(data / "pairs.json")
        out, fresh = tmp_path / "matches", tmp_path / "fresh"
        assert main(["gen-matches", "--pairs", manifest, "--out-dir", str(out)]) == 0
        # pair_0000 is now rejected: its query mask keeps 20 pixels, too few
        # for 100 matches. pair_0001 fails.
        mask_path = data / "pairs" / "pair_0000" / "mask_query.pgm"
        mask = io.read_mask(mask_path)
        cut = np.zeros_like(mask)
        rows, cols = np.nonzero(mask)
        cut[rows[:20], cols[:20]] = True
        io.write_mask(mask_path, cut)
        (data / "pairs" / "pair_0001" / "mask_query.pgm").write_bytes(b"P5\n")
        argv = ["gen-matches", "--pairs", manifest]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert main([*argv, "--out-dir", str(fresh)]) == 1
        assert list(io.read_json(out / "summary.json")["rejected"]) == ["pair_0000"]
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
        assert _tree_digest(out) == _tree_digest(fresh)
        # losses finds no match file to read, names it, and deletes nothing itself.
        report = out / "losses.json"
        assert main(["losses", "--pairs", manifest, "--matches", str(out),
                     "--out", str(report)]) == 1
        assert io.read_json(report)["errors"] == {
            pid: f"ConfigError: no matches for pair: {pid}.json"
            for pid in ("pair_0000", "pair_0001")
        }
        assert sorted(p.name for p in out.iterdir()) == ["losses.json", "summary.json"]


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------


class TestRegister:
    def test_recovers_relative_poses(self, dataset, tmp_path):
        out = tmp_path / "poses"
        rc = main([
            "register", "--pairs", str(dataset / "pairs.json"),
            "--out-dir", str(out), "--seed", "0",
        ])
        assert rc == 0
        for entry in load_pairs(dataset / "pairs.json"):
            payload = io.read_json(out / f"{entry.pair_id}.json")
            est = io.pose_from_dict(payload["pose"])
            true_rel = io.read_pose(
                entry.anchor.pose.parent / "rel_pose.json"
            )
            rot_err = _rotation_angle(est.rotation @ true_rel.rotation.T)
            trans_err = np.linalg.norm(est.translation - true_rel.translation)
            # Millimeter depth quantization keeps errors above the exact
            # noiseless floor; the attainable bound is a couple of 1e-4.
            assert rot_err < 2e-3
            assert trans_err < 2e-3
            assert payload["num_inliers"] >= 3

    def test_outputs_byte_identical_across_runs(self, dataset_small, tmp_path):
        argv = [
            "register", "--pairs", str(dataset_small / "pairs.json"),
            "--seed", "5",
        ]
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(argv + ["--out-dir", str(first)]) == 0
        assert main(argv + ["--out-dir", str(second)]) == 0
        assert _tree_digest(first) == _tree_digest(second)

    def test_pose_files_are_not_read(self, dataset_small, tmp_path):
        argv = ["register", "--seed", "5"]
        assert main([*argv, "--pairs", str(dataset_small / "pairs.json"),
                     "--out-dir", str(tmp_path / "full")]) == 0
        pruned = tmp_path / "pruned"
        shutil.copytree(dataset_small, pruned)
        for path in (pruned / "pairs").glob("pair_*/pose_*.json"):
            path.write_bytes(b"")
        assert main([*argv, "--pairs", str(pruned / "pairs.json"),
                     "--out-dir", str(tmp_path / "poses")]) == 0
        assert _tree_digest(tmp_path / "poses") == _tree_digest(tmp_path / "full")

    def test_pair_order_does_not_change_pose_files(self, dataset, tmp_path):
        manifest = io.read_json(dataset / "pairs.json")
        manifest["pairs"].reverse()
        reversed_pairs = dataset / "pairs_reversed.json"
        io.write_json(reversed_pairs, manifest)
        forward, backward = tmp_path / "forward", tmp_path / "backward"
        assert main(["register", "--pairs", str(dataset / "pairs.json"),
                     "--out-dir", str(forward)]) == 0
        assert main(["register", "--pairs", str(reversed_pairs),
                     "--out-dir", str(backward)]) == 0
        names = sorted(p.name for p in forward.glob("pair_*.json"))
        assert names == ["pair_0000.json", "pair_0001.json", "pair_0002.json"]
        for name in names:
            assert (forward / name).read_bytes() == (backward / name).read_bytes()

    def test_missing_features_fail_pair_but_continue(self, dataset_small, tmp_path):
        manifest = io.read_json(dataset_small / "pairs.json")
        del manifest["pairs"][0]["anchor"]["features"]
        broken = dataset_small / "pairs_broken.json"
        io.write_json(broken, manifest)
        out = tmp_path / "poses"
        rc = main(["register", "--pairs", str(broken), "--out-dir", str(out)])
        assert rc == 1
        summary = io.read_json(out / "summary.json")
        assert summary["registered"] == ["pair_0001"]
        assert "pair_0000" in summary["errors"]
        assert (out / "pair_0001.json").exists()
        assert not (out / "pair_0000.json").exists()

    def test_truncated_feature_file_fails_pair_but_continues(
        self, dataset_small, tmp_path
    ):
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        # Magic plus 6 bytes: too short for the H W D header.
        (data / "pairs" / "pair_0000" / "features_query.feat").write_bytes(
            b"ORYT" + bytes(6)
        )
        out = tmp_path / "poses"
        rc = main(["register", "--pairs", str(data / "pairs.json"), "--out-dir", str(out)])
        assert rc == 1
        summary = io.read_json(out / "summary.json")
        assert summary["registered"] == ["pair_0001"]
        assert list(summary["errors"]) == ["pair_0000"]
        assert summary["errors"]["pair_0000"].startswith("ValueError: ")
        assert (out / "pair_0001.json").exists()

    def test_mask_of_another_size_than_its_camera_fails_its_pair(
        self, dataset_small, tmp_path
    ):
        # Matching resamples the mask to the feature grid, so only the
        # camera can tell that it is too small; gen-matches fails alike.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        mask = data / "pairs" / "pair_0000" / "mask_anchor.pgm"
        io.write_mask(mask, io.read_mask(mask)[:32, :32])
        for stage in ("gen-matches", "register"):
            out = tmp_path / stage
            assert main([stage, "--pairs", str(data / "pairs.json"), "--out-dir", str(out)]) == 1
            errors = io.read_json(out / "summary.json")["errors"]
            assert errors == {
                "pair_0000": "ValueError: mask shape (32, 32) does not match expected (64, 64)"
            }
            assert not (out / "pair_0000.json").exists()

    def test_coarse_feature_grids_register_as_the_library_does(self, dataset_small, tmp_path):
        # Every other cell of each stored grid: 32 x 32 grids over 64 x 64
        # images, with the masks at image resolution.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        for path in (data / "pairs").glob("pair_*/features_*.feat"):
            io.write_features(path, io.read_features(path)[::2, ::2])
        out = tmp_path / "poses"
        assert main(["register", "--pairs", str(data / "pairs.json"),
                     "--out-dir", str(out), "--seed", "5"]) == 0
        reg_seed = derive_seed(5, "registration")
        for entry in load_pairs(data / "pairs.json"):
            a, q = entry.anchor, entry.query
            cam_a, cam_q = io.read_intrinsics(a.camera), io.read_intrinsics(q.camera)
            matches = match_features(io.read_features(a.features), io.read_features(q.features),
                                     io.read_mask(a.mask), io.read_mask(q.mask))
            assert matches.anchor_grid == matches.query_grid == (32, 32)
            lifted = lift_matches(matches, io.read_depth(a.depth), io.read_depth(q.depth),
                                  cam_a, cam_q)
            result = register_spatial_consistency(
                lifted, seed=pair_seed(reg_seed, entry.pair_id))
            payload = io.read_json(out / f"{entry.pair_id}.json")
            assert payload["pose"] == io.pose_to_dict(result.pose)
            assert (payload["num_matches"], payload["num_lifted"]) == (len(matches), len(lifted))
            assert payload["num_inliers"] == len(result.inliers) >= 3

    @pytest.mark.parametrize("fx", [1e-310, 5e-324])
    def test_subnormal_focal_length_fails_only_its_pair(self, fx, dataset_small, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        camera = io.read_json(data / "camera.json")
        io.write_json(data / "camera_bad.json", {**camera, "fx": fx})
        manifest = io.read_json(data / "pairs.json")
        manifest["pairs"][1]["query"]["camera"] = "camera_bad.json"
        io.write_json(data / "pairs.json", manifest)
        out = tmp_path / "poses"
        rc = main(["register", "--pairs", str(data / "pairs.json"), "--out-dir", str(out)])
        assert rc == 1
        summary = io.read_json(out / "summary.json")
        assert summary["registered"] == ["pair_0000"]
        assert summary["errors"] == {
            "pair_0001": "ValueError: query points must be finite and within 1e+09 m"
        }
        assert (out / "pair_0000.json").exists() and not (out / "pair_0001.json").exists()

    def test_rerun_deletes_pose_of_pair_that_now_fails(self, dataset_small, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        manifest = str(data / "pairs.json")
        out, fresh = tmp_path / "poses", tmp_path / "fresh"
        assert main(["register", "--pairs", manifest, "--out-dir", str(out)]) == 0
        (data / "pairs" / "pair_0001" / "features_query.feat").write_bytes(b"ORYT")
        assert main(["register", "--pairs", manifest, "--out-dir", str(out)]) == 1
        assert main(["register", "--pairs", manifest, "--out-dir", str(fresh)]) == 1
        assert not (out / "pair_0001.json").exists()
        assert _tree_digest(out) == _tree_digest(fresh)
        # eval cannot score the stale pose, and deletes nothing itself.
        report = out / "report.json"
        assert main(["eval", "--pairs", manifest, "--predictions", str(out),
                     "--out", str(report)]) == 1
        assert io.read_json(report)["errors"] == {
            "pair_0001": "ConfigError: no prediction for pair: pair_0001.json"
        }
        assert sorted(p.name for p in out.iterdir()) == [
            "pair_0000.json", "report.json", "summary.json"
        ]

    def test_rerun_removes_temp_files_a_killed_writer_left(self, dataset_small, tmp_path):
        manifest = str(dataset_small / "pairs.json")
        out, fresh = tmp_path / "poses", tmp_path / "fresh"
        assert main(["register", "--pairs", manifest, "--out-dir", str(out)]) == 0
        # The names io._replacing gives the temp files of a pose file and of
        # the summary; a SIGKILL during the write leaves them behind.
        for name in (".pair_0001.json.1-1.tmp", ".summary.json.1-1.tmp"):
            (out / name).write_text('{"pose": ')
        assert main(["register", "--pairs", manifest, "--out-dir", str(out)]) == 0
        assert main(["register", "--pairs", manifest, "--out-dir", str(fresh)]) == 0
        assert _tree_digest(out) == _tree_digest(fresh)
        # A temp file of a pair the manifest does not name is not the stage's.
        (out / ".pair_0009.json.1-1.tmp").write_text("{")
        assert main(["register", "--pairs", manifest, "--out-dir", str(out)]) == 0
        assert (out / ".pair_0009.json.1-1.tmp").read_text() == "{"

    def test_killed_run_leaves_parseable_files_and_a_rerun_restores_the_tree(
        self, tmp_path
    ):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--pairs", "12", "--seed", "5",
                     "--image-size", "64", "--model-points", "2500"]) == 0
        argv = ["register", "--pairs", str(data / "pairs.json"), "--workers", "1"]
        out, fresh = tmp_path / "poses", tmp_path / "fresh"
        src = str(Path(crosspose.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "crosspose.cli", *argv, "--out-dir", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while len(list(out.glob("pair_*.json"))) < 2:
                assert child.poll() is None, "register exited before writing two poses"
                assert time.monotonic() < deadline, "register wrote no two poses in 120 s"
                time.sleep(0.001)
        finally:
            child.kill()
            child.wait(timeout=60)
        # Each pair takes tens of milliseconds, so ten pairs were still to go.
        assert child.returncode == -signal.SIGKILL
        left = sorted(p.name for p in out.glob("*.json"))
        assert 2 <= len(left) < 12 and "summary.json" not in left
        for name in left:
            assert "pose" in io.read_json(out / name)
        assert main([*argv, "--out-dir", str(out)]) == 0
        assert main([*argv, "--out-dir", str(fresh)]) == 0
        assert _tree_digest(out) == _tree_digest(fresh)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _write_gt_predictions(dataset, out):
    out.mkdir(parents=True, exist_ok=True)
    for entry in load_pairs(dataset / "pairs.json"):
        rel = io.read_pose(entry.anchor.pose.parent / "rel_pose.json")
        io.write_json(out / f"{entry.pair_id}.json", {"pose": io.pose_to_dict(rel)})


class TestEval:
    def test_ground_truth_predictions_score_one(self, dataset, tmp_path, capsys):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset, preds)
        report_path = tmp_path / "report.json"
        rc = main([
            "eval", "--pairs", str(dataset / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ])
        assert rc == 0
        report = io.read_json(report_path)
        agg = report["aggregate"]
        assert agg["count"] == 3
        for key in ("ar", "vsd", "mssd", "mspd", "add", "miou"):
            assert agg[key] == 1.0
        table = capsys.readouterr().out
        assert "pair_0000" in table
        assert "mean" in table

    def test_ar_is_mean_of_components_for_every_pair(self, dataset, tmp_path):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset, preds)
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pairs", str(dataset / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ]) == 0
        report = io.read_json(report_path)
        for scores in report["pairs"].values():
            assert scores["ar"] == (
                scores["vsd"] + scores["mssd"] + scores["mspd"]
            ) / 3.0

    def test_gross_pose_errors_score_near_zero(self, dataset, tmp_path):
        # Flip the object half a turn and shift it sideways, keeping it
        # visible so every metric evaluates rather than erroring out.
        preds = tmp_path / "preds"
        preds.mkdir()
        for entry in load_pairs(dataset / "pairs.json"):
            pair_dir = entry.anchor.pose.parent
            rel = io.read_pose(pair_dir / "rel_pose.json")
            pose_q = io.read_pose(entry.query.pose)
            center = np.asarray(pose_q.translation)
            flip = rotation_about_axis((0.0, 0.0, 1.0), math.pi)
            delta = Pose(flip, center - flip @ center + [0.03, 0.0, 0.0])
            wrong = compose(delta, rel)
            io.write_json(
                preds / f"{entry.pair_id}.json",
                {"pose": io.pose_to_dict(wrong)},
            )
        report_path = tmp_path / "report.json"
        rc = main([
            "eval", "--pairs", str(dataset / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ])
        assert rc == 0
        assert io.read_json(report_path)["aggregate"]["ar"] < 0.05

    def test_missing_predictions_dir_is_config_error(self, dataset, tmp_path):
        rc = main([
            "eval", "--pairs", str(dataset / "pairs.json"),
            "--predictions", str(tmp_path / "nope"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 2

    def test_predictions_that_is_a_file_exits_2(self, dataset_small, tmp_path):
        preds = tmp_path / "preds.json"
        preds.write_text("{}")
        assert main([
            "eval", "--pairs", str(dataset_small / "pairs.json"),
            "--predictions", str(preds), "--out", str(tmp_path / "new" / "report.json"),
        ]) == 2
        assert not (tmp_path / "new").exists()

    def test_query_mask_of_another_size_than_its_camera_fails_its_pair(
        self, dataset_small, tmp_path
    ):
        # eval scores against the ground-truth mask as it is read, so only
        # the camera can tell that it is mis-sized.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        mask = data / "pairs" / "pair_0001" / "mask_query.pgm"
        io.write_mask(mask, io.read_mask(mask)[:32, :32])
        preds = tmp_path / "preds"
        _write_gt_predictions(data, preds)
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pairs", str(data / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ]) == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000"}
        assert report["errors"] == {
            "pair_0001": "ValueError: mask shape (32, 32) does not match expected (64, 64)"
        }

    def test_nan_declared_diameter_fails_every_pair(self, dataset_small, tmp_path):
        # NaN fails every comparison; the sidecar check must still reject it.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        sidecar = data / "models" / "model.json"
        io.write_json(sidecar, {**io.read_json(sidecar), "diameter": math.nan})
        preds = tmp_path / "preds"
        _write_gt_predictions(data, preds)
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pairs", str(data / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ]) == 1
        errors = io.read_json(report_path)["errors"]
        assert set(errors) == {"pair_0000", "pair_0001"}
        for message in errors.values():
            assert message.startswith("ValueError: declared diameter nan differs")

    @pytest.mark.parametrize("as_json", [repr, lambda value: True], ids=["string", "bool"])
    def test_diameter_that_is_not_a_number_fails_every_pair(
        self, dataset_small, tmp_path, as_json
    ):
        # float() would read the string, and True as 1.0.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        sidecar = data / "models" / "model.json"
        meta = io.read_json(sidecar)
        value = as_json(meta["diameter"])
        io.write_json(sidecar, {**meta, "diameter": value})
        preds = tmp_path / "preds"
        _write_gt_predictions(data, preds)
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pairs", str(data / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ]) == 1
        errors = io.read_json(report_path)["errors"]
        assert errors == dict.fromkeys(
            ["pair_0000", "pair_0001"],
            f"ValueError: model sidecar 'diameter' must be a number, got {value!r}",
        )

    def test_model_file_cut_inside_a_row_fails_every_pair(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--model-kind", "box", "--model-size", "0.05",
                     "--model-points", "1500", "--pairs", "2", "--seed", "7"]) == 0
        preds = tmp_path / "preds"
        assert main(["register", "--pairs", str(data / "pairs.json"),
                     "--out-dir", str(preds)]) == 0
        # Cut 4 bytes into the third number of the middle row. The row still
        # holds three numbers, and the box corners are written first, so the
        # text parses and the diameter check passes: only the missing final
        # newline tells the model is cut.
        xyz = data / "models" / "model.xyz"
        rows = xyz.read_bytes().splitlines(keepends=True)
        middle = len(rows) // 2
        cut = b"".join(rows[:middle]) + rows[middle][: rows[middle].rindex(b" ") + 5]
        xyz.write_bytes(cut)
        assert np.loadtxt(cut.decode().splitlines(), ndmin=2).shape == (middle + 1, 3)
        report_path = tmp_path / "report.json"
        assert main(["eval", "--pairs", str(data / "pairs.json"),
                     "--predictions", str(preds), "--out", str(report_path)]) == 1
        report = io.read_json(report_path)
        assert report["pairs"] == {}
        assert set(report["errors"]) == {"pair_0000", "pair_0001"}
        for message in report["errors"].values():
            assert message == (
                f"ValueError: {xyz.resolve()} is cut inside a row: it does not end in a newline"
            )

    def test_out_that_is_a_directory_exits_2(self, dataset_small, tmp_path):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)
        report = tmp_path / "report"
        report.mkdir()
        assert main([
            "eval", "--pairs", str(dataset_small / "pairs.json"),
            "--predictions", str(preds), "--out", str(report),
        ]) == 2
        assert list(report.iterdir()) == []

    def test_partial_predictions_fail_some_pairs(self, dataset, tmp_path):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset, preds)
        (preds / "pair_0001.json").unlink()
        report_path = tmp_path / "report.json"
        rc = main([
            "eval", "--pairs", str(dataset / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ])
        assert rc == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000", "pair_0002"}
        assert "pair_0001" in report["errors"]
        assert report["aggregate"]["count"] == 2

    def test_malformed_prediction_fails_pair_but_continues(
        self, dataset_small, tmp_path, capsys
    ):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)
        message = "ConfigError: prediction pair_0001.json must be an object with a 'pose' key"
        for text in ("{}", "[1, 2]"):  # no pose key; not an object
            (preds / "pair_0001.json").write_text(text + "\n")
            report_path = tmp_path / "report.json"
            rc = main([
                "eval", "--pairs", str(dataset_small / "pairs.json"),
                "--predictions", str(preds), "--out", str(report_path),
            ])
            assert rc == 1
            report = io.read_json(report_path)
            assert set(report["pairs"]) == {"pair_0000"}
            assert report["errors"] == {"pair_0001": message}
            assert report["aggregate"]["count"] == 1
            assert capsys.readouterr().err == f"error: pair_0001: {message}\n"

    def test_report_directory_is_created(self, dataset_small, tmp_path):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)
        report_path = tmp_path / "new" / "report.json"
        assert main([
            "eval", "--pairs", str(dataset_small / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ]) == 0
        assert io.read_json(report_path)["aggregate"]["count"] == 2

    def test_run_with_no_prediction_replaces_the_earlier_report(
        self, dataset_small, tmp_path, capsys
    ):
        preds, empty = tmp_path / "preds", tmp_path / "empty"
        _write_gt_predictions(dataset_small, preds)
        empty.mkdir()
        report_path = tmp_path / "report.json"
        argv = ["eval", "--pairs", str(dataset_small / "pairs.json"), "--out", str(report_path)]
        assert main([*argv, "--predictions", str(preds)]) == 0
        assert io.read_json(report_path)["aggregate"]["count"] == 2
        capsys.readouterr()
        assert main([*argv, "--predictions", str(empty)]) == 1
        assert io.read_json(report_path) == {
            "pairs": {},
            "errors": {
                pid: f"ConfigError: no prediction for pair: {pid}.json"
                for pid in ("pair_0000", "pair_0001")
            },
        }
        assert capsys.readouterr().err.endswith("error: no pair could be evaluated\n")


def _count_model_work(monkeypatch) -> dict:
    """Count XYZ parses and diameter searches, starting from empty memos."""
    io._parse_xyz.cache_clear()
    geometry._memo_max_pairwise_sq.cache_clear()
    counts = {"parses": 0, "searches": 0}

    def counting(key, func):
        def counted(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return counted

    monkeypatch.setattr(np, "loadtxt", counting("parses", np.loadtxt))
    monkeypatch.setattr(
        geometry, "_max_pairwise_sq", counting("searches", geometry._max_pairwise_sq)
    )
    return counts


class TestEvalModelMemo:
    """``eval`` parses and searches each distinct model once per process."""

    def _eval(self, manifest, preds, report_path):
        return main([
            "eval", "--pairs", str(manifest), "--predictions", str(preds),
            "--out", str(report_path),
        ])

    def test_shared_model_is_parsed_and_searched_once(self, dataset, tmp_path, monkeypatch):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset, preds)
        counts = _count_model_work(monkeypatch)
        assert self._eval(dataset / "pairs.json", preds, tmp_path / "report.json") == 0
        assert counts == {"parses": 1, "searches": 1}

    def test_two_workers_parse_and_search_a_shared_model_once(
        self, dataset, tmp_path, monkeypatch
    ):
        # Slow work makes the first two pairs miss both memos together.
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset, preds)
        counts = _count_model_work(monkeypatch)
        for module, name in ((np, "loadtxt"), (geometry, "_max_pairwise_sq")):
            def slow(*args, _func=getattr(module, name), **kwargs):
                time.sleep(0.2)
                return _func(*args, **kwargs)

            monkeypatch.setattr(module, name, slow)
        assert main([
            "eval", "--pairs", str(dataset / "pairs.json"), "--predictions", str(preds),
            "--out", str(tmp_path / "report.json"), "--workers", "2",
        ]) == 0
        assert counts == {"parses": 1, "searches": 1}

    def test_two_model_files_cost_one_parse_and_search_each(
        self, dataset, tmp_path, monkeypatch
    ):
        # The second file holds the same cloud in reverse order: other bytes,
        # the same diameter.
        model = io.read_model(dataset / "models" / "model.xyz")
        other = tmp_path / "other" / "model.xyz"
        other.parent.mkdir()
        io.write_model(other, ObjectModel(
            points=model.points[::-1], diameter_m=model.diameter_m,
            symmetries=model.symmetries,
        ))
        manifest = io.read_json(dataset / "pairs.json")
        for entry in manifest["pairs"]:
            for side in ("anchor", "query"):
                entry[side] = {k: str(dataset / v) for k, v in entry[side].items()}
            entry["model"] = str(dataset / entry["model"])
        manifest["pairs"][1]["model"] = str(other)
        io.write_json(tmp_path / "pairs.json", manifest)
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset, preds)

        counts = _count_model_work(monkeypatch)
        assert self._eval(tmp_path / "pairs.json", preds, tmp_path / "memo.json") == 0
        assert counts == {"parses": 2, "searches": 2}
        # Without the memos every pair parses and searches its model.
        monkeypatch.setattr(io, "_parse_xyz", io._parse_xyz.__wrapped__)
        monkeypatch.setattr(
            geometry, "_memo_max_pairwise_sq", geometry._memo_max_pairwise_sq.__wrapped__
        )
        assert self._eval(tmp_path / "pairs.json", preds, tmp_path / "fresh.json") == 0
        assert counts == {"parses": 5, "searches": 5}
        memo, fresh = (tmp_path / "memo.json").read_bytes(), (tmp_path / "fresh.json").read_bytes()
        assert memo == fresh


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestLosses:
    def test_clean_features_have_zero_positive_loss(
        self, dataset, oracle_matches, tmp_path
    ):
        # Identity-oracle matches pair pixels showing the same model
        # point, whose noiseless descriptors agree exactly; nearest-
        # neighbor matches may pair different points and score above 0.
        report_path = tmp_path / "losses.json"
        rc = main([
            "losses", "--pairs", str(dataset / "pairs.json"),
            "--matches", str(oracle_matches), "--out", str(report_path),
        ])
        assert rc == 0
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000", "pair_0001", "pair_0002"}
        for r in report["pairs"].values():
            assert r["positive"] == 0.0
            assert r["hardest_negative"] > 0.0
            assert r["num_samples"] <= 500
            assert r["feature"] == 0.5 * r["hardest_negative"] + 0.5 * r["positive"]
            assert r["mask"] < 1e-6
            assert r["total"] == 1.0 * r["mask"] + r["feature"]

    def test_aggregate_is_mean_of_pairs(self, dataset, matches_out, tmp_path):
        report_path = tmp_path / "losses.json"
        assert main([
            "losses", "--pairs", str(dataset / "pairs.json"),
            "--matches", str(matches_out), "--out", str(report_path),
        ]) == 0
        report = io.read_json(report_path)
        rows = list(report["pairs"].values())
        for key in ("positive", "hardest_negative", "feature", "mask", "total"):
            expected = math.fsum(r[key] for r in rows) / len(rows)
            assert report["aggregate"][key] == expected

    def test_matches_flag_is_required(self, dataset_small, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([
                "losses", "--pairs", str(dataset_small / "pairs.json"),
                "--out", str(out / "losses.json"),
            ])
        assert exit_info.value.code == 2
        assert "required: --matches" in capsys.readouterr().err
        assert not out.exists()

    def test_match_file_of_wrong_shape_fails_its_pair(
        self, dataset_small, small_matches, tmp_path, capsys
    ):
        matches = tmp_path / "matches"
        shutil.copytree(small_matches, matches)
        payload = io.read_json(matches / "pair_0001.json")
        # An even row count, so that reshaping would pass the rows as pixels.
        rows = len(payload["anchor"]) // 2 * 2
        for side in ("anchor", "query"):
            payload[side] = [[u, v, 0] for u, v in payload[side][:rows]]
        io.write_json(matches / "pair_0001.json", payload)
        report_path = tmp_path / "losses.json"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--matches", str(matches), "--out", str(report_path),
        ]) == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000"}
        assert report["errors"]["pair_0001"].startswith(
            "ValueError: anchor pixels must have shape (M, 2)"
        )

    @pytest.mark.parametrize(
        "side, value", [("anchor", 1.7), ("query", True), ("anchor", "3")],
        ids=["fraction", "bool", "string"],
    )
    def test_match_pixel_that_is_not_an_integer_fails_its_pair(
        self, dataset_small, small_matches, tmp_path, side, value
    ):
        # Each reads as a pixel inside the image once converted to int64.
        matches = tmp_path / "matches"
        shutil.copytree(small_matches, matches)
        payload = io.read_json(matches / "pair_0001.json")
        payload[side][0][0] = value
        io.write_json(matches / "pair_0001.json", payload)
        report_path = tmp_path / "losses.json"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--matches", str(matches), "--out", str(report_path),
        ]) == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000"}
        assert report["errors"]["pair_0001"].startswith(
            f"ValueError: match file {side!r} must hold rows of integers, got [["
        )

    @pytest.mark.parametrize(
        "side, row, pixel, max_samples",
        [
            ("anchor", 0, [500, -7], 500),
            ("query", 1, [-3, 9999], 500),
            ("query", 1, [64, 0], 500),
            # A pixel that thinning would skip fails the pair too.
            ("anchor", 1, [0, 64], 1),
        ],
    )
    def test_match_pixel_outside_the_image_fails_its_pair(
        self, dataset_small, small_matches, tmp_path, side, row, pixel, max_samples
    ):
        matches = tmp_path / "matches"
        shutil.copytree(small_matches, matches)
        payload = io.read_json(matches / "pair_0001.json")
        payload[side][row] = pixel
        io.write_json(matches / "pair_0001.json", payload)
        report_path = tmp_path / "losses.json"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--matches", str(matches), "--out", str(report_path),
            "--max-samples", str(max_samples),
        ]) == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000"}
        assert report["errors"]["pair_0001"] == (
            f"ValueError: pixel ({pixel[0]}, {pixel[1]}) lies outside the image "
            "[0, 64) x [0, 64)"
        )

    def test_query_mask_of_another_size_than_its_camera_fails_its_pair(
        self, dataset_small, small_matches, tmp_path
    ):
        # The mask term compares the mask with itself when the pair names
        # no predicted mask, so only the camera can tell that it is wrong.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        mask = data / "pairs" / "pair_0001" / "mask_query.pgm"
        io.write_mask(mask, io.read_mask(mask)[:32, :32])
        report_path = tmp_path / "losses.json"
        assert main([
            "losses", "--pairs", str(data / "pairs.json"),
            "--matches", str(small_matches), "--out", str(report_path),
        ]) == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000"}
        assert report["errors"] == {
            "pair_0001": "ValueError: mask shape (32, 32) does not match expected (64, 64)"
        }

    def test_unused_view_files_are_not_read(self, dataset_small, small_matches, tmp_path):
        # The losses use features, cameras and the query mask; a pair
        # whose depth maps and pose files are empty scores the same.
        argv = ["losses", "--matches", str(small_matches), "--max-samples", "50"]
        assert main([*argv, "--pairs", str(dataset_small / "pairs.json"),
                     "--out", str(tmp_path / "full.json")]) == 0
        pruned = tmp_path / "pruned"
        shutil.copytree(dataset_small, pruned)
        for pattern in ("depth_*.pgm", "pose_*.json"):
            for path in (pruned / "pairs" / "pair_0001").glob(pattern):
                path.write_bytes(b"")
        assert main([*argv, "--pairs", str(pruned / "pairs.json"),
                     "--out", str(tmp_path / "pruned.json")]) == 0
        full = (tmp_path / "full.json").read_bytes()
        assert full == (tmp_path / "pruned.json").read_bytes()

    def test_missing_view_file_fails_only_the_stages_that_read_it(
        self, dataset_small, small_matches, tmp_path
    ):
        # The manifest loader does not check that listed files exist, so
        # a missing depth map fails a pair only where a stage reads it.
        argv = ["--matches", str(small_matches), "--max-samples", "50"]
        assert main(["losses", *argv, "--pairs", str(dataset_small / "pairs.json"),
                     "--out", str(tmp_path / "full.json")]) == 0
        pruned = tmp_path / "pruned"
        shutil.copytree(dataset_small, pruned)
        (pruned / "pairs" / "pair_0001" / "depth_anchor.pgm").unlink()
        manifest = str(pruned / "pairs.json")
        assert main(["losses", *argv, "--pairs", manifest,
                     "--out", str(tmp_path / "pruned.json")]) == 0
        full = (tmp_path / "full.json").read_bytes()
        assert full == (tmp_path / "pruned.json").read_bytes()
        out = tmp_path / "poses"
        assert main(["register", "--pairs", manifest, "--out-dir", str(out)]) == 1
        summary = io.read_json(out / "summary.json")
        assert summary["registered"] == ["pair_0000"]
        assert list(summary["errors"]) == ["pair_0001"]
        assert summary["errors"]["pair_0001"].startswith("FileNotFoundError: ")

    def test_missing_matches_dir_exits_2(self, dataset_small, tmp_path):
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--matches", str(tmp_path / "nodir"),
            "--out", str(tmp_path / "new" / "losses.json"),
        ]) == 2
        assert not (tmp_path / "new").exists()

    def test_report_directory_is_created(self, dataset_small, small_matches, tmp_path):
        report_path = tmp_path / "new" / "losses.json"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--matches", str(small_matches),
            "--max-samples", "50", "--out", str(report_path),
        ]) == 0
        assert set(io.read_json(report_path)["pairs"]) == {"pair_0000", "pair_0001"}


class TestPredictedMask:
    """``eval`` and ``losses`` score a pair's ``pred_mask_query``, read and
    checked against the query camera as a view mask is."""

    def _stages(self, dataset_small, small_matches, tmp_path, pred):
        """Run eval and losses on a copy of the data whose first pair names
        ``pred`` as its predicted mask; return both exit codes and reports."""
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        io.write_mask(data / "pred_mask.pgm", pred)
        manifest = io.read_json(data / "pairs.json")
        manifest["pairs"][0]["pred_mask_query"] = "pred_mask.pgm"
        io.write_json(data / "pairs.json", manifest)
        preds = tmp_path / "preds"
        _write_gt_predictions(data, preds)
        pairs = ["--pairs", str(data / "pairs.json")]
        codes = (
            main(["eval", *pairs, "--predictions", str(preds), "--out", str(tmp_path / "r.json")]),
            main(["losses", *pairs, "--matches", str(small_matches),
                  "--out", str(tmp_path / "l.json")]),
        )
        return codes, io.read_json(tmp_path / "r.json"), io.read_json(tmp_path / "l.json")

    def test_half_mask_is_scored_in_eval_and_losses(self, dataset_small, small_matches, tmp_path):
        gt = io.read_mask(dataset_small / "pairs" / "pair_0000" / "mask_query.pgm")
        pred = gt.copy()
        pred[:, 32:] = False
        codes, report, losses = self._stages(dataset_small, small_matches, tmp_path, pred)
        assert codes == (0, 0)
        assert report["pairs"]["pair_0000"]["miou"] == crosspose.miou(pred, gt) < 1.0
        assert report["pairs"]["pair_0001"]["miou"] == 1.0
        mask_term = losses["pairs"]["pair_0000"]["mask"]
        assert mask_term == crosspose.dice_loss(pred.astype(np.float64), gt)
        assert mask_term > losses["pairs"]["pair_0001"]["mask"]

    def test_mask_of_another_size_than_the_query_camera_fails_its_pair(
        self, dataset_small, small_matches, tmp_path
    ):
        pred = np.ones((10, 10), dtype=bool)
        codes, report, losses = self._stages(dataset_small, small_matches, tmp_path, pred)
        assert codes == (1, 1)
        for payload in (report, losses):
            assert set(payload["pairs"]) == {"pair_0001"}
            assert payload["errors"] == {
                "pair_0000": "ValueError: mask shape (10, 10) does not match expected (64, 64)"
            }


# ---------------------------------------------------------------------------
# Configuration layer
# ---------------------------------------------------------------------------


class TestConfigLayer:
    def test_workers_default_to_one(self):
        args = build_parser().parse_args(["gen-matches", "--pairs", "p", "--out-dir", "o"])
        assert args.workers == 1
        assert _workers(args) == 1

    @pytest.mark.parametrize("stage", ["gen-matches", "register"])
    def test_pair_id_naming_the_report_exits_2(self, stage, dataset_small, tmp_path, capsys):
        # Pair "summary" would write summary.json, the file the report takes.
        manifest = io.read_json(dataset_small / "pairs.json")
        manifest["pairs"][1]["id"] = "summary"
        pairs = dataset_small / "pairs_summary.json"
        io.write_json(pairs, manifest)
        out = tmp_path / "out"
        assert main([stage, "--pairs", str(pairs), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: pair id 'summary' names the stage report summary.json\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("stage, flag", [("eval", "--predictions"), ("losses", "--matches")])
    @pytest.mark.parametrize("target", ["input", "input_via_link", "manifest"])
    def test_report_replacing_a_file_it_reads_exits_2(
        self, stage, flag, target, dataset_small, small_matches, tmp_path, capsys
    ):
        # A rerun would read the report in place of the prediction, the
        # match file or the manifest it replaced.
        inputs = tmp_path / "inputs"
        if stage == "eval":
            _write_gt_predictions(dataset_small, inputs)
        else:
            shutil.copytree(small_matches, inputs)
        (tmp_path / "link").symlink_to(inputs)
        manifest = dataset_small / f"pairs_{stage}_{target}.json"
        shutil.copy(dataset_small / "pairs.json", manifest)
        out = {
            "input": inputs / "pair_0000.json",
            "input_via_link": tmp_path / "link" / "pair_0000.json",
            "manifest": manifest,
        }[target]
        before = out.read_bytes()
        argv = [stage, "--pairs", str(manifest), flag, str(inputs), "--out", str(out)]
        assert main(argv) == 2
        assert out.read_bytes() == before
        assert capsys.readouterr().err.endswith(", which the stage reads\n")

    @pytest.mark.parametrize("stage, flag", [("eval", "--predictions"), ("losses", "--matches")])
    @pytest.mark.parametrize("named", [
        "camera.json",
        "models/model.xyz",
        "models/model.json",
        "pairs/pair_0000/depth_query.pgm",
        "pairs/pair_0001/mask_anchor.pgm",
        "pairs/pair_0000/pose_anchor.json",
        "pairs/pair_0001/features_query.feat",
        "pred_mask.pgm",
    ])
    def test_report_replacing_a_file_the_manifest_names_exits_2(
        self, stage, flag, named, dataset_small, small_matches, tmp_path, capsys
    ):
        # A rerun would read the report in place of the camera, model,
        # view or predicted mask file it replaced.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        shutil.copy(data / "pairs" / "pair_0000" / "mask_query.pgm", data / "pred_mask.pgm")
        manifest = io.read_json(data / "pairs.json")
        manifest["pairs"][0]["pred_mask_query"] = "pred_mask.pgm"
        io.write_json(data / "pairs.json", manifest)
        inputs = tmp_path / "inputs"
        if stage == "eval":
            _write_gt_predictions(data, inputs)
        else:
            shutil.copytree(small_matches, inputs)
        out = data / named
        before = out.read_bytes()
        argv = [stage, "--pairs", str(data / "pairs.json"), flag, str(inputs), "--out", str(out)]
        assert main(argv) == 2
        assert out.read_bytes() == before
        assert capsys.readouterr().err.endswith(", which the stage reads\n")

    @pytest.mark.parametrize("stage", ["gen-matches", "register"])
    @pytest.mark.parametrize("pair_id", ["camera", "pairs"])
    def test_pair_file_replacing_a_file_it_reads_exits_2(
        self, stage, pair_id, dataset_small, tmp_path, capsys
    ):
        # The stage deletes and rewrites <out-dir>/<pair_id>.json, here the
        # camera file or the manifest.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        manifest = io.read_json(data / "pairs.json")
        manifest["pairs"][0]["id"] = pair_id
        io.write_json(data / "pairs.json", manifest)
        named = data / f"{pair_id}.json"
        before = named.read_bytes()
        assert main([stage, "--pairs", str(data / "pairs.json"), "--out-dir", str(data)]) == 2
        assert named.read_bytes() == before
        assert not (data / "summary.json").exists()
        assert capsys.readouterr().err.endswith(", which the stage reads\n")

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("gen-matches", ["--out-dir", "out"]),
            ("register", ["--pairs", "pairs.json"]),
            ("eval", ["--predictions", ".", "--out", "out/r.json"]),
            ("losses", ["--matches", ".", "--out", "out/r.json"]),
            ("register", ["--pairs", "pairs.json", "--out-dir", "out", "--workers", "2.5"]),
            ("register", ["--pairs", "pairs.json", "--out-dir", "out", "--seed", "1.5"]),
        ],
    )
    def test_missing_or_mistyped_flag_exits_2(
        self, command, argv, dataset_small, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        shutil.copy(dataset_small / "pairs.json", "pairs.json")
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_2(self, dataset_small, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (
            ["register", "--pairs", str(dataset_small / "pairs.json"), "--out-dir", str(out)],
            ["synth", "--out", str(out), "--image-size", "32", "--model-points", "200"],
        ):
            assert main([*argv, "--seed", "-5"]) == 2
            assert capsys.readouterr().err == "error: seed must be non-negative\n"
            assert not out.exists()

    def test_invalid_values_rejected(self, dataset_small, tmp_path, capsys):
        out = tmp_path / "out"
        common = [
            "gen-matches", "--pairs", str(dataset_small / "pairs.json"), "--out-dir", str(out),
        ]
        assert main([*common, "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("gen-matches", "--nn-radius", "0.002"),
            ("gen-matches", "--min-matches", "100"),
            ("register", "--max-distance", "0.25"),
            ("register", "--max-matches", "500"),
            ("register", "--inlier-threshold", "0.01"),
            ("register", "--compatibility-tolerance", "0.01"),
            ("register", "--iterations", "5"),
            ("register", "--config", "c.json"),
            ("eval", "--occlusion-tolerance", "0.015"),
        ],
    )
    def test_removed_flag_is_a_usage_error(
        self, command, flag, value, dataset_small, tmp_path, capsys
    ):
        # Every run follows one protocol: the library defaults take no flag.
        out = tmp_path / "out"
        argv = [command, "--pairs", str(dataset_small / "pairs.json"), flag, value]
        if command == "eval":
            argv += ["--predictions", str(tmp_path), "--out", str(out / "report.json")]
        else:
            argv += ["--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_samples_below_one_exits_2(
        self, value, dataset_small, small_matches, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--matches", str(small_matches),
            "--out", str(out / "losses.json"), "--max-samples", value,
        ]) == 2
        assert capsys.readouterr().err == "error: --max-samples must be at least 1\n"
        assert not out.exists()

    def test_derive_seed_streams_stable_and_distinct(self):
        streams = ("registration", "synth")
        values = [derive_seed(0, s) for s in streams]
        assert len(set(values)) == 2
        assert values == [derive_seed(0, s) for s in streams]
        assert derive_seed(1, "synth") != derive_seed(0, "synth")
        # Stream numbers are fixed, so derived seeds never change.
        for stream, number in (("registration", 2), ("synth", 3)):
            state = np.random.SeedSequence([7, number]).generate_state(1, np.uint64)
            assert derive_seed(7, stream) == int(state[0])
        for stream in ("nope", "matchgen"):
            with pytest.raises(ValueError):
                derive_seed(0, stream)

    @pytest.mark.parametrize("stage", ["gen-matches", "register", "eval", "losses"])
    def test_worker_count_does_not_change_results(
        self, stage, dataset_small, small_matches, tmp_path
    ):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)

        def run(name, *flags):
            out = tmp_path / name
            argv = [stage, "--pairs", str(dataset_small / "pairs.json"), *flags]
            if stage in ("gen-matches", "register"):
                argv += ["--out-dir", str(out)]
            else:
                out.mkdir()
                argv += ["--out", str(out / "report.json")]
            if stage == "eval":
                argv += ["--predictions", str(preds)]
            if stage == "losses":
                argv += ["--matches", str(small_matches)]
            assert main(argv) == 0
            return _tree_digest(out)

        assert run("parallel", "--workers", "4") == run("serial")

    def test_load_pairs_validations(self, tmp_path):
        manifest = tmp_path / "pairs.json"
        with pytest.raises(ConfigError):
            load_pairs(manifest)
        payloads = (
            {"pairs": [{"id": "x"}]},
            [1],
            {"pairs": [1]},
            {"pairs": [{"id": "x", "model": "pairs.json", "anchor": {"depth": ["d"]}}]},
            {"pairs": [{"id": "x", "model": 5}]},
        )
        for payload in payloads:
            manifest.write_text(json.dumps(payload))
            with pytest.raises(ConfigError):
                load_pairs(manifest)
        out = tmp_path / "out"
        assert main(["gen-matches", "--pairs", str(manifest), "--out-dir", str(out)]) == 2
        assert not out.exists()
        # A pair id names output files, so it must be a plain file name.
        view = dict.fromkeys(("depth", "mask", "camera", "pose"), "pairs.json")
        for pair_id in ("../escaped", "a/b", None, 5, "", ".."):
            entry = {"id": pair_id, "model": "pairs.json", "anchor": view, "query": view}
            manifest.write_text(json.dumps({"pairs": [entry]}))
            with pytest.raises(ConfigError, match="plain file name"):
                load_pairs(manifest)
        manifest.write_text(json.dumps({"pairs": [dict(entry, id="../escaped")]}))
        assert main(["gen-matches", "--pairs", str(manifest), "--out-dir", str(out)]) == 2
        assert not out.exists()
        # A NUL byte cannot name a file: the batch stops before any pair runs.
        entry = {"id": "x", "model": "pairs.json", "anchor": view, "query": view}
        for bad, what in (
            ({"model": "models/mo\u0000del.xyz"}, "x model"),
            ({"anchor": dict(view, depth="d\u0000.pgm")}, "x/anchor depth"),
        ):
            manifest.write_text(json.dumps({"pairs": [dict(entry, **bad)]}))
            with pytest.raises(ConfigError, match=f"^{what} must not hold a NUL byte"):
                load_pairs(manifest)
            argv = ["eval", "--pairs", str(manifest), "--predictions", str(tmp_path),
                    "--out", str(out / "report.json")]
            assert main(argv) == 2
            assert not out.exists()
        # Text that is not JSON, a view that is not an object, a repeated id.
        for text, message in (
            ("{not json", "pairs manifest is not valid JSON"),
            (json.dumps({"pairs": [dict(entry, anchor=5)]}), "pair x: anchor view must be an object"),
            (json.dumps({"pairs": [entry, entry]}), "pair ids must be unique"),
        ):
            manifest.write_text(text)
            with pytest.raises(ConfigError, match=message):
                load_pairs(manifest)
            assert main(["gen-matches", "--pairs", str(manifest), "--out-dir", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("where", ["entry", "view"])
    def test_load_pairs_rejects_unknown_keys(self, where, dataset_small, tmp_path):
        # A misspelt optional key must not silently fall back to its default.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        manifest = data / "pairs.json"
        payload = io.read_json(manifest)
        target = payload["pairs"][1]
        if where == "view":
            target = target["query"]
        target["pred_mask_qurey"] = payload["pairs"][1]["query"]["mask"]
        io.write_json(manifest, payload)
        with pytest.raises(ConfigError, match=r"pair_0001.*unknown keys: \['pred_mask_qurey'\]"):
            load_pairs(manifest)
        out = tmp_path / "out"
        assert main(["gen-matches", "--pairs", str(manifest), "--out-dir", str(out)]) == 2
        assert not out.exists()


class TestManifestPaths:
    """Manifest paths are joined to the manifest's directory as written,
    so no stage replaces a symlink the manifest names."""

    VALUES = (
        "real/file.pgm", "real/./file.pgm", "./real//file.pgm", "real/sub/../file.pgm",
        "link/file.pgm", "link/../real/file.pgm", "link/sub/../../real/file.pgm",
        "real/link.pgm", "link/link.pgm", "real/sub", "link", "missing/dir/x.pgm",
        "../escaped.pgm", "real/..", "link/..", "real/.", ".", "..", "", "real/",
    )

    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "root"
        (root / "real" / "sub").mkdir(parents=True)
        (root / "real" / "file.pgm").write_text("x")
        (root / "real" / "sub" / "target.pgm").write_text("x")
        (root / "real" / "link.pgm").symlink_to(root / "real" / "sub" / "target.pgm")
        (root / "link").symlink_to(root / "real", target_is_directory=True)
        return root

    def test_load_pairs_keeps_every_path(self, root, monkeypatch):
        monkeypatch.chdir(root.parent)
        absolute = root / "link" / "file.pgm"
        view = {"depth": "real/file.pgm", "mask": "link/link.pgm", "camera": "link/../c.json",
                "pose": str(absolute)}
        entries = [
            {"id": f"p{i}", "model": value, "anchor": view, "query": dict(view, depth=value),
             "pred_mask_query": "real/sub/../file.pgm"}
            for i, value in enumerate(self.VALUES)
        ]
        manifest = root / "link" / "pairs.json"
        manifest.write_text(json.dumps({"pairs": entries}))
        for path in (manifest, Path("root/link/pairs.json")):
            base = path.parent
            for entry, got in zip(entries, load_pairs(path)):
                assert got.model == base / entry["model"]
                assert got.pred_mask_query == base / entry["pred_mask_query"]
                assert got.anchor.pose == absolute  # an absolute path stays as written
                for side in ("anchor", "query"):
                    for key, value in entry[side].items():
                        assert getattr(getattr(got, side), key) == base / value

    @pytest.mark.parametrize("stage", ["eval", "losses", "gen-matches", "register"])
    @pytest.mark.parametrize("named", ["link.json", "alias/camera.json"])
    def test_symlink_the_manifest_names_is_never_replaced(
        self, stage, named, dataset_small, small_matches, tmp_path, capsys
    ):
        # The report or pair file takes the name of the camera file every
        # view reads. Writing link.json would replace the symlink, not
        # camera.json; through the directory alias -> . the path is the
        # written file's own.
        data = tmp_path / "data"
        shutil.copytree(dataset_small, data)
        (data / "link.json").symlink_to("camera.json")
        (data / "alias").symlink_to(".", target_is_directory=True)
        written = data / Path(named).name
        manifest = io.read_json(data / "pairs.json")
        for entry in manifest["pairs"]:
            entry["anchor"]["camera"] = entry["query"]["camera"] = named
        if stage in ("gen-matches", "register"):
            manifest["pairs"][0]["id"] = written.stem
            argv = ["--out-dir", str(data)]
        elif stage == "eval":
            _write_gt_predictions(data, tmp_path / "inputs")
            argv = ["--predictions", str(tmp_path / "inputs"), "--out", str(written)]
        else:
            argv = ["--matches", str(small_matches), "--out", str(written)]
        io.write_json(data / "pairs.json", manifest)
        before = written.read_bytes()
        assert main([stage, "--pairs", str(data / "pairs.json"), *argv]) == 2
        assert written.is_symlink() == (named == "link.json")
        assert written.read_bytes() == before
        assert not (data / "summary.json").exists()
        assert capsys.readouterr().err.endswith(", which the stage reads\n")


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


class TestFullPipeline:
    def test_synth_matches_register_eval_chain(self, tmp_path):
        root = tmp_path / "data"
        assert main([
            "synth", "--out", str(root), "--pairs", "2", "--seed", "21",
        ]) == 0
        manifest = str(root / "pairs.json")

        matches = tmp_path / "matches"
        assert main(["gen-matches", "--pairs", manifest,
                     "--out-dir", str(matches)]) == 0
        assert len(io.read_json(matches / "summary.json")["accepted"]) == 2

        poses = tmp_path / "poses"
        assert main(["register", "--pairs", manifest,
                     "--out-dir", str(poses)]) == 0

        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pairs", manifest,
            "--predictions", str(poses), "--out", str(report_path),
        ]) == 0
        assert io.read_json(report_path)["aggregate"]["ar"] > 0.95

        losses_path = tmp_path / "losses.json"
        assert main([
            "losses", "--pairs", manifest,
            "--matches", str(matches), "--out", str(losses_path),
        ]) == 0
