"""Command-line pipeline around the library.

Subcommands:

* ``synth``: generate a synthetic dataset (scenes, features, oracles).
* ``gen-matches``: ground-truth correspondences for every pair, with a
  rejection log for pairs below the minimum match count.
* ``register``: match features, lift to 3D, and estimate each pair's
  relative pose.
* ``eval``: score predicted poses against ground truth and print a
  table.
* ``losses``: forward loss diagnostics over ground-truth matches.

Exit codes: 0 on success, 1 when any pair failed but the batch ran,
2 on configuration or usage errors. Every command is deterministic
under a fixed ``--seed`` and safe to re-run into the same directory.
Randomness flows from the master seed through named sub-streams, and
per-pair work derives its own seed from the pair id, so results do not
depend on batch order or on the worker count (``--workers``, default
from ``CROSSPOSE_WORKERS``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io
from .config import EvalConfig, PairEntry, derive_seed, load_config, load_pairs
from .errors import ConfigError, CrossposeError
from .geometry import CameraIntrinsics, Pose, compose
from .losses import (
    FeatureSet,
    dice_loss,
    feature_loss,
    hardest_negative_loss,
    positive_loss,
    total_loss,
)
from .matcher import downsample_mask, lift_matches, match_features, pixels_to_cells
from .matchgen import accept_pair, generate_gt_matches
from .metrics import SCORES, aggregate_reports, pair_report
from .registration import register_spatial_consistency
from .synth import (
    check_descriptor_params,
    make_descriptor_field,
    make_model,
    make_pair,
    random_rotation,
    rotation_about_axis,
)


def _pair_seed(base_seed: int, pair_id: str) -> int:
    """Stable per-pair seed: independent of batch order and worker count."""
    mixed = np.random.SeedSequence([base_seed, zlib.crc32(pair_id.encode())])
    return int(mixed.generate_state(1, np.uint64)[0])


def _run_stage(cfg: EvalConfig, work, summarize, out_dir: Path | None = None) -> int:
    """Run ``work`` on every pair of the manifest and report the batch.

    The manifest loads before ``out_dir`` is created, so a configuration
    error leaves no directory behind. Any exception raised by ``work``
    fails only its pair, as ``ClassName: message`` printed to stderr.
    ``summarize(results, errors)`` receives the ``(pair_id, value)`` rows
    and the ``pair_id -> message`` map, both sorted by pair id, and
    returns ``(report path or None, payload, stdout lines)``. The exit
    code is 1 when any pair failed, else 0.
    """
    pairs = load_pairs(cfg.pairs_file)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def guarded(entry: PairEntry):
        try:
            return entry.pair_id, work(entry), None
        except Exception as exc:
            return entry.pair_id, None, f"{type(exc).__name__}: {exc}"

    if cfg.workers <= 1:
        rows = [guarded(p) for p in pairs]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(guarded, pairs))
    rows.sort(key=lambda row: row[0])
    results = [(pid, value) for pid, value, err in rows if err is None]
    errors = {pid: err for pid, _, err in rows if err is not None}
    for pair_id, message in errors.items():
        print(f"error: {pair_id}: {message}", file=sys.stderr)
    path, payload, lines = summarize(results, errors)
    if path is not None:
        io.write_json(path, payload)
    for line in lines:
        print(line)
    return 1 if errors else 0


class _View(NamedTuple):
    """One view's arrays, as read from the files a manifest entry names."""

    depth: np.ndarray
    mask: np.ndarray
    camera: CameraIntrinsics
    pose: Pose
    features: np.ndarray | None


def _load_view(view, features: bool = False) -> _View:
    """Read one view's files, and its feature grid when ``features``."""
    if features and view.features is None:
        raise ConfigError("pair has no feature files")
    return _View(
        io.read_depth(view.depth),
        io.read_mask(view.mask),
        io.read_intrinsics(view.camera),
        io.read_pose(view.pose),
        io.read_features(view.features) if features else None,
    )


def _pred_mask(entry: PairEntry, default):
    """The pair's predicted query mask, or ``default`` when it names none."""
    path = entry.pred_mask_query
    return default if path is None else io.read_mask(path)


# ---------------------------------------------------------------- synth --

# Bounds of a view's translation: a small lateral offset, 0.5-0.6 m away.
_VIEW_BOUNDS = ((-0.01, -0.01, 0.5), (0.01, 0.01, 0.6))


def cmd_synth(args) -> int:
    # Every setting is checked before the first directory is made.
    if args.pairs < 1:
        raise ConfigError("--pairs must be at least 1")
    size = args.image_size
    try:
        camera = CameraIntrinsics(
            fx=args.focal,
            fy=args.focal,
            cx=(size - 1) / 2.0,
            cy=(size - 1) / 2.0,
            width=size,
            height=size,
        )
        model = make_model(
            args.model_kind,
            n_points=args.model_points,
            size=args.model_size,
            cyclic_order=args.cyclic_order,
            seed=derive_seed(args.seed, "synth"),
        )
        check_descriptor_params(args.feature_dim, args.noise, args.outlier_fraction)
    except ValueError as exc:
        raise ConfigError(f"invalid synth setting: {exc}") from exc

    out = Path(args.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "pairs").mkdir(parents=True, exist_ok=True)
    io.write_model(out / "models" / "model.xyz", model)
    io.write_intrinsics(out / "camera.json", camera)

    rng = np.random.default_rng(derive_seed(args.seed, "synth"))
    entries = []
    for i in range(args.pairs):
        pair_id = f"pair_{i:04d}"
        pair_dir = out / "pairs" / pair_id
        pair_dir.mkdir(parents=True, exist_ok=True)

        # The query view re-orients the object by a bounded angle so the
        # two views share a substantial visible surface.
        rot_a = random_rotation(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(np.radians(10.0), np.radians(args.max_view_angle))
        pose_a = Pose(rot_a, rng.uniform(*_VIEW_BOUNDS))
        pose_q = Pose(rotation_about_axis(axis, angle) @ rot_a, rng.uniform(*_VIEW_BOUNDS))
        scene_a, scene_q, oracle = make_pair(
            model, pose_a, pose_q, camera,
            background_a=args.background_depth,
            background_q=args.background_depth,
        )
        feat_seed = int(rng.integers(2**63))
        feat_a, feat_q = make_descriptor_field(
            scene_a,
            scene_q,
            dim=args.feature_dim,
            noise=args.noise,
            outlier_fraction=args.outlier_fraction,
            seed=feat_seed,
        )

        rel = f"pairs/{pair_id}"
        entry = {"id": pair_id, "model": "models/model.xyz"}
        views = (("anchor", scene_a, pose_a, feat_a), ("query", scene_q, pose_q, feat_q))
        for side, scene, pose, feat in views:
            io.write_depth(pair_dir / f"depth_{side}.pgm", scene.depth)
            io.write_mask(pair_dir / f"mask_{side}.pgm", scene.mask)
            io.write_pose(pair_dir / f"pose_{side}.json", pose)
            io.write_features(pair_dir / f"features_{side}.feat", feat)
            entry[side] = {
                "depth": f"{rel}/depth_{side}.pgm",
                "mask": f"{rel}/mask_{side}.pgm",
                "camera": "camera.json",
                "pose": f"{rel}/pose_{side}.json",
                "features": f"{rel}/features_{side}.feat",
            }
        io.write_pose(pair_dir / "rel_pose.json", oracle.relative)
        io.write_matches(pair_dir / "gt_matches.json", oracle)
        entries.append(entry)

    io.write_json(out / "pairs.json", {"pairs": entries})
    settings = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "func", "out")
    }
    io.write_json(out / "synth_config.json", settings)
    print(f"wrote {args.pairs} pairs to {out}")
    return 0


# ---------------------------------------------------------- gen-matches --


def cmd_gen_matches(args) -> int:
    cfg = _config_from_args(args)
    out = Path(cfg.output_dir)

    def work(entry: PairEntry):
        a, q = _load_view(entry.anchor), _load_view(entry.query)
        pair = generate_gt_matches(
            a.depth, q.depth, a.mask, q.mask, a.camera, q.camera, a.pose, q.pose,
            nn_radius=cfg.nn_radius,
        )
        accepted = accept_pair(pair, cfg.min_matches)
        if accepted:
            io.write_matches(out / f"{entry.pair_id}.json", pair)
        return {"count": len(pair), "accepted": accepted}

    def summarize(results, errors):
        summary = {
            "accepted": [pid for pid, r in results if r["accepted"]],
            "rejected": {pid: r["count"] for pid, r in results if not r["accepted"]},
            "errors": errors,
            "min_matches": cfg.min_matches,
            "nn_radius": cfg.nn_radius,
        }
        line = (
            f"matched {len(summary['accepted'])} pair(s), "
            f"rejected {len(summary['rejected'])}, failed {len(errors)}"
        )
        return out / "summary.json", summary, [line]

    return _run_stage(cfg, work, summarize, out)


# -------------------------------------------------------------- register --


def cmd_register(args) -> int:
    cfg = _config_from_args(args)
    out = Path(cfg.output_dir)
    reg_seed = derive_seed(cfg.seed, "registration")

    def work(entry: PairEntry):
        a = _load_view(entry.anchor, features=True)
        q = _load_view(entry.query, features=True)
        grid_a = a.features.shape[:2]
        grid_q = q.features.shape[:2]
        matches = match_features(
            a.features,
            q.features,
            downsample_mask(a.mask, grid_a),
            downsample_mask(q.mask, grid_q),
            cfg.match,
        )
        lifted = lift_matches(
            matches, a.depth, q.depth, a.camera, q.camera, grid_a, grid_q
        )
        result = register_spatial_consistency(
            lifted, cfg.registration, seed=_pair_seed(reg_seed, entry.pair_id)
        )
        io.write_json(
            out / f"{entry.pair_id}.json",
            {
                "pose": io.pose_to_dict(result.pose),
                "num_matches": len(matches),
                "num_lifted": len(lifted),
                "num_inliers": int(len(result.inliers)),
                "mean_residual": result.mean_residual,
            },
        )

    def summarize(results, errors):
        summary = {"registered": [pid for pid, _ in results], "errors": errors}
        line = f"registered {len(results)} pair(s), failed {len(errors)}"
        return out / "summary.json", summary, [line]

    return _run_stage(cfg, work, summarize, out)


# ---------------------------------------------------------------- eval --


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    pred_dir = Path(args.predictions)
    if not pred_dir.exists():
        raise ConfigError(f"predictions directory does not exist: {pred_dir}")

    def work(entry: PairEntry):
        pred_path = pred_dir / f"{entry.pair_id}.json"
        if not pred_path.exists():
            raise ConfigError(f"no prediction for pair: {pred_path.name}")
        payload = io.read_json(pred_path)
        pred_rel = io.pose_from_dict(payload.get("pose", payload))
        q = _load_view(entry.query)
        model = io.read_model(entry.model)
        return pair_report(
            model,
            pose_true=q.pose,
            pose_est=compose(pred_rel, io.read_pose(entry.anchor.pose)),
            scene_depth=q.depth,
            intrinsics=q.camera,
            pred_mask=_pred_mask(entry, None),
            gt_mask=q.mask,
        )

    def summarize(results, errors):
        if not results:
            print("error: no pair could be evaluated", file=sys.stderr)
            return None, None, []
        pairs = {pid: r.to_dict() for pid, r in results}
        aggregate = aggregate_reports([r for _, r in results])
        payload = {"pairs": pairs, "aggregate": aggregate, "errors": errors}
        lines = [f"{'pair':<14}" + "".join(f"{name:>8}" for name in SCORES)]
        for label, scores in [*pairs.items(), ("mean", aggregate)]:
            lines.append(
                f"{label:<14}" + "".join(f"{scores[name]:>8.3f}" for name in SCORES)
            )
        return Path(args.out), payload, lines

    return _run_stage(cfg, work, summarize, Path(args.out).parent)


# --------------------------------------------------------------- losses --


def cmd_losses(args) -> int:
    cfg = _config_from_args(args)
    if args.max_samples < 1:
        raise ConfigError("--max-samples must be at least 1")
    matches_dir = Path(args.matches) if args.matches else None

    def work(entry: PairEntry):
        a = _load_view(entry.anchor, features=True)
        q = _load_view(entry.query, features=True)
        if matches_dir is not None:
            gt = io.read_matches(matches_dir / f"{entry.pair_id}.json")
        else:
            gt = generate_gt_matches(
                a.depth, q.depth, a.mask, q.mask, a.camera, q.camera, a.pose, q.pose,
                nn_radius=cfg.nn_radius,
            )
        if len(gt) > args.max_samples:
            # Deterministic thinning: evenly spaced over the scan order.
            idx = np.linspace(0, len(gt) - 1, args.max_samples).astype(np.int64)
            anchor_px, query_px = gt.anchor[idx], gt.query[idx]
        else:
            anchor_px, query_px = gt.anchor, gt.query
        ua, va = pixels_to_cells(anchor_px, a.features.shape[:2], a.camera)
        uq, vq = pixels_to_cells(query_px, q.features.shape[:2], q.camera)
        set_a = FeatureSet(a.features[va, ua], anchor_px.astype(np.float64))
        set_q = FeatureSet(q.features[vq, uq], query_px.astype(np.float64))

        pos = positive_loss(set_a, set_q)
        neg = hardest_negative_loss(set_a, set_q)
        feat = feature_loss(pos, neg)
        pred_mask = _pred_mask(entry, q.mask)
        mask_term = dice_loss(pred_mask.astype(np.float64), q.mask)
        return {
            "num_samples": int(len(set_a)),
            "positive": pos,
            "hardest_negative": neg,
            "feature": feat,
            "mask": mask_term,
            "total": total_loss(mask_term, feat),
        }

    def summarize(results, errors):
        payload = {"pairs": dict(results), "errors": errors}
        if results:
            payload["aggregate"] = {
                key: math.fsum(r[key] for _, r in results) / len(results)
                for key in ("positive", "hardest_negative", "feature", "mask", "total")
            }
        lines = [
            f"{pid}: positive {r['positive']:.6f}  "
            f"hardest-negative {r['hardest_negative']:.6f}  "
            f"feature {r['feature']:.6f}  mask {r['mask']:.6f}  "
            f"total {r['total']:.6f}"
            for pid, r in results
        ]
        return Path(args.out), payload, lines

    return _run_stage(cfg, work, summarize, Path(args.out).parent)


# ---------------------------------------------------------------- main --


def _config_from_args(args) -> EvalConfig:
    workers_env = os.environ.get("CROSSPOSE_WORKERS")
    defaults = {}
    if workers_env is not None:
        try:
            defaults["workers"] = int(workers_env)
        except ValueError as exc:
            raise ConfigError(f"CROSSPOSE_WORKERS must be an integer: {exc}") from exc

    # A flag's destination is its config key; flags a command lacks are None.
    flags = vars(args)

    def pick(*names):
        return {name: flags.get(name) for name in names}

    cfg = load_config(
        flags.get("config"),
        defaults=defaults or None,
        pairs_file=flags.get("pairs"),
        output_dir=flags.get("out_dir"),
        **pick("workers", "seed", "nn_radius", "min_matches"),
        match=pick("max_distance", "max_matches"),
        registration=pick("inlier_threshold", "compatibility_tolerance", "iterations"),
    )
    if cfg.pairs_file is None:
        raise ConfigError("a pairs manifest is required (--pairs or config file)")
    # eval/losses write one report file (args.out); the others need a directory.
    if not hasattr(args, "out") and cfg.output_dir is None:
        raise ConfigError("an output directory is required (--out-dir or config file)")
    return cfg


def _add_common(parser, *, with_out_dir: bool):
    parser.add_argument("--pairs", help="pairs manifest JSON")
    parser.add_argument("--config", help="config file JSON")
    if with_out_dir:
        parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--workers", type=int, help="parallel workers")
    parser.add_argument("--seed", type=int, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosspose",
        description="Cross-scene object pose pipeline on depth and features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--pairs", type=int, default=4, help="number of scene pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=96)
    p.add_argument("--focal", type=float, default=500.0,
                   help="focal length in pixels (narrow FOV keeps pixel rays tight)")
    p.add_argument("--model-kind", default="blob",
                   choices=["blob", "sphere", "box", "cylinder"])
    p.add_argument("--model-points", type=int, default=6000)
    p.add_argument("--model-size", type=float, default=0.01,
                   help="shape scale (radius / Gaussian scale)")
    p.add_argument("--cyclic-order", type=int, default=1,
                   help="declared rotational symmetry order")
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.add_argument("--background-depth", type=float, default=0.8)
    p.add_argument("--max-view-angle", type=float, default=35.0,
                   help="largest relative rotation between views (degrees)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gen-matches", help="generate ground-truth matches")
    _add_common(p, with_out_dir=True)
    p.add_argument("--nn-radius", type=float, help="NN acceptance radius (m)")
    p.add_argument("--min-matches", type=int, help="pair rejection threshold")
    p.set_defaults(func=cmd_gen_matches)

    p = sub.add_parser("register", help="match features and estimate poses")
    _add_common(p, with_out_dir=True)
    p.add_argument("--max-distance", type=float, help="match distance threshold")
    p.add_argument("--max-matches", type=int, help="match count cap")
    p.add_argument("--inlier-threshold", type=float)
    p.add_argument("--compatibility-tolerance", type=float)
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="score predicted poses")
    _add_common(p, with_out_dir=False)
    p.add_argument("--predictions", required=True, help="register output directory")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("losses", help="forward loss diagnostics")
    _add_common(p, with_out_dir=False)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--matches", help="directory of match files (default: recompute)")
    p.add_argument("--max-samples", type=int, default=500)
    p.add_argument("--nn-radius", type=float)
    p.set_defaults(func=cmd_losses)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossposeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
