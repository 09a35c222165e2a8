"""End-to-end tests for the command-line pipeline and its config layer."""

import argparse
import hashlib
import json
import math
import shutil
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from crosspose import (
    ConfigError,
    Pose,
    compose,
    generate_gt_matches,
    make_model,
    render_scene,
    rotation_about_axis,
)
from crosspose.cli import build_parser, main
from crosspose.config import EvalConfig, derive_seed, load_config, load_pairs
from crosspose import io

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
            ("--focal", "0"),
            ("--cyclic-order", "0"),
            ("--model-points", "1"),
            ("--feature-dim", "1"),
            ("--noise", "-1"),
            ("--noise", "nan"),
            ("--outlier-fraction", "2"),
            ("--pairs", "0"),
        ],
    )
    def test_invalid_value_exits_2_and_writes_nothing(self, flag, value, tmp_path, capsys):
        out = tmp_path / "data"
        argv = ["synth", "--out", str(out), "--image-size", "32", "--model-points", "200"]
        assert main(argv + [flag, value]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_missing_manifest_is_config_error(self, tmp_path):
        rc = main([
            "gen-matches", "--pairs", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_empty_pairs_list_is_config_error(self, tmp_path):
        manifest = tmp_path / "pairs.json"
        io.write_json(manifest, {"pairs": []})
        rc = main([
            "gen-matches", "--pairs", str(manifest),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_summary_bytes_stable_across_runs(self, dataset, tmp_path):
        argv = ["gen-matches", "--pairs", str(dataset / "pairs.json")]
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(argv + ["--out-dir", str(first)]) == 0
        assert main(argv + ["--out-dir", str(second)]) == 0
        assert _tree_digest(first) == _tree_digest(second)


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
        # Magic plus 6 bytes: too short for the H W D header (struct.error).
        (data / "pairs" / "pair_0000" / "features_query.feat").write_bytes(
            b"ORYT" + bytes(6)
        )
        out = tmp_path / "poses"
        rc = main(["register", "--pairs", str(data / "pairs.json"), "--out-dir", str(out)])
        assert rc == 1
        summary = io.read_json(out / "summary.json")
        assert summary["registered"] == ["pair_0001"]
        assert list(summary["errors"]) == ["pair_0000"]
        assert summary["errors"]["pair_0000"].startswith("error: ")
        assert (out / "pair_0001.json").exists()


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
        self, dataset_small, tmp_path
    ):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)
        io.write_json(preds / "pair_0001.json", {})
        report_path = tmp_path / "report.json"
        rc = main([
            "eval", "--pairs", str(dataset_small / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ])
        assert rc == 1
        report = io.read_json(report_path)
        assert set(report["pairs"]) == {"pair_0000"}
        assert report["errors"] == {"pair_0001": "KeyError: 'R'"}
        assert report["aggregate"]["count"] == 1

    def test_report_directory_is_created(self, dataset_small, tmp_path):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)
        report_path = tmp_path / "new" / "report.json"
        assert main([
            "eval", "--pairs", str(dataset_small / "pairs.json"),
            "--predictions", str(preds), "--out", str(report_path),
        ]) == 0
        assert io.read_json(report_path)["aggregate"]["count"] == 2


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

    def test_recomputed_matches_agree_with_match_files(
        self, dataset, matches_out, tmp_path
    ):
        from_files = tmp_path / "from_files.json"
        recomputed = tmp_path / "recomputed.json"
        base = ["losses", "--pairs", str(dataset / "pairs.json")]
        assert main(base + ["--matches", str(matches_out),
                            "--out", str(from_files)]) == 0
        assert main(base + ["--out", str(recomputed)]) == 0
        a = io.read_json(from_files)
        b = io.read_json(recomputed)
        assert a["pairs"] == b["pairs"]

    def test_report_directory_is_created(self, dataset_small, tmp_path):
        report_path = tmp_path / "new" / "losses.json"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--max-samples", "50", "--out", str(report_path),
        ]) == 0
        assert set(io.read_json(report_path)["pairs"]) == {"pair_0000", "pair_0001"}


# ---------------------------------------------------------------------------
# Configuration layer
# ---------------------------------------------------------------------------


class TestConfigLayer:
    def test_precedence_flags_file_defaults_builtin(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        io.write_json(cfg_path, {"workers": 4, "seed": 5})
        assert load_config(None).workers == 1
        assert load_config(None, defaults={"workers": 2}).workers == 2
        assert load_config(cfg_path, defaults={"workers": 2}).workers == 4
        assert load_config(cfg_path, defaults={"workers": 2}, workers=8).workers == 8
        assert load_config(cfg_path).seed == 5

    def test_none_overrides_fall_through(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        io.write_json(cfg_path, {"seed": 5})
        assert load_config(cfg_path, seed=None).seed == 5

    def test_param_sections_parsed_and_overridable(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        io.write_json(cfg_path, {"match": {"max_distance": 0.1}})
        cfg = load_config(cfg_path)
        assert cfg.match.max_distance == 0.1
        cfg = load_config(cfg_path, match={"max_distance": 0.2})
        assert cfg.match.max_distance == 0.2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        payloads = (
            {"bogus": 1},
            {"match": {"bogus": 1}},
            # No flag sets these, so neither may a config file.
            {"loss": {"positive_margin": 0.2}},
            {"metrics": {"occlusion_tolerance": 0.01}},
            {"registration": {"seed": 1}},
        )
        for payload in payloads:
            io.write_json(cfg_path, payload)
            with pytest.raises(ConfigError):
                load_config(cfg_path)

    def test_config_keys_mirror_flags(self, dataset_small, tmp_path):
        parser = build_parser()
        (commands,) = [
            a.choices for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        flags = {
            action.dest
            for name, sub in commands.items() if name != "synth"
            for action in sub._actions
        }
        renamed = {"pairs_file": "pairs", "output_dir": "out_dir"}
        keys = []
        for f in fields(EvalConfig):
            value = getattr(EvalConfig(), f.name)
            if is_dataclass(value):
                keys += [g.name for g in fields(value)]
            else:
                keys.append(renamed.get(f.name, f.name))
        assert len(keys) == 11
        assert set(keys) <= flags
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--pairs", str(dataset_small / "pairs.json"),
                "--predictions", str(preds), "--out", str(tmp_path / "r.json"),
                "--occlusion-tolerance", "0.01",
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "section", [[1], "ab", [[1, 2]]], ids=["list", "string", "pair-list"]
    )
    def test_non_object_section_rejected(self, section, dataset_small, tmp_path):
        cfg_path = tmp_path / "config.json"
        io.write_json(cfg_path, {"registration": section})
        with pytest.raises(ConfigError, match="'registration' must be an object"):
            load_config(cfg_path)
        out = tmp_path / "out"
        assert main([
            "register", "--pairs", str(dataset_small / "pairs.json"),
            "--config", str(cfg_path), "--out-dir", str(out),
        ]) == 2
        assert not out.exists()

    def test_registration_seed_rejected(self, dataset_small, tmp_path):
        # register derives every pair's seed from the master seed.
        cfg_path = tmp_path / "config.json"
        io.write_json(cfg_path, {"registration": {"seed": 123}})
        with pytest.raises(ConfigError, match=r"'registration' has unknown keys: \['seed'\]"):
            load_config(cfg_path)
        out = tmp_path / "out"
        assert main([
            "register", "--pairs", str(dataset_small / "pairs.json"),
            "--config", str(cfg_path), "--out-dir", str(out),
        ]) == 2
        assert not out.exists()

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, nn_radius=0.0)
        with pytest.raises(ConfigError):
            load_config(None, workers=0)

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, flag, key, value",
        [
            ("gen-matches", "--nn-radius", "nn_radius", "nan"),
            ("gen-matches", "--nn-radius", "nn_radius", "inf"),
            ("losses", "--nn-radius", "nn_radius", "nan"),
            ("register", "--inlier-threshold", "registration.inlier_threshold", "nan"),
            (
                "register",
                "--compatibility-tolerance",
                "registration.compatibility_tolerance",
                "nan",
            ),
        ],
    )
    def test_non_finite_threshold_exits_2(
        self, via, command, flag, key, value, dataset_small, tmp_path
    ):
        out = tmp_path / "out"
        argv = [command, "--pairs", str(dataset_small / "pairs.json")]
        if command == "losses":
            argv += ["--out", str(out / "losses.json")]
        else:
            argv += ["--out-dir", str(out)]
        if via == "flag":
            argv += [flag, value]
        else:
            *section, name = key.split(".")
            payload = {name: float(value)}
            if section:
                payload = {section[0]: payload}
            cfg_path = tmp_path / "config.json"
            io.write_json(cfg_path, payload)
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_samples_below_one_exits_2(self, value, dataset_small, tmp_path):
        out = tmp_path / "out"
        assert main([
            "losses", "--pairs", str(dataset_small / "pairs.json"),
            "--out", str(out / "losses.json"), "--max-samples", value,
        ]) == 2
        assert not out.exists()

    def test_relative_paths_resolve_against_config_file(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        cfg_path = sub / "config.json"
        io.write_json(cfg_path, {"pairs_file": "pairs.json", "output_dir": str(tmp_path)})
        cfg = load_config(cfg_path)
        assert cfg.pairs_file == sub / "pairs.json"
        assert cfg.output_dir == tmp_path  # an absolute path stays as it is

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

    def test_invalid_worker_env_is_config_error(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSPOSE_WORKERS", "abc")
        rc = main([
            "gen-matches", "--pairs", str(dataset / "pairs.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("stage", ["gen-matches", "register", "eval", "losses"])
    def test_worker_count_does_not_change_results(
        self, stage, dataset_small, tmp_path, monkeypatch
    ):
        preds = tmp_path / "preds"
        _write_gt_predictions(dataset_small, preds)

        def run(name):
            out = tmp_path / name
            argv = [stage, "--pairs", str(dataset_small / "pairs.json")]
            if stage in ("gen-matches", "register"):
                argv += ["--out-dir", str(out)]
            else:
                out.mkdir()
                argv += ["--out", str(out / "report.json")]
            if stage == "eval":
                argv += ["--predictions", str(preds)]
            assert main(argv) == 0
            return _tree_digest(out)

        serial = run("serial")
        monkeypatch.setenv("CROSSPOSE_WORKERS", "4")
        assert run("parallel") == serial

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
