"""Command-line pipeline around the library.

Subcommands:

* ``synth``: generate a synthetic dataset (scenes, features, oracles).
* ``gen-matches``: ground-truth correspondences for every pair, with a
  rejection log for pairs below the minimum match count.
* ``register``: match features, lift to 3D, and estimate each pair's
  relative pose.
* ``eval``: score predicted poses against ground truth and print a
  table.
* ``losses``: forward loss diagnostics over the ground-truth matches
  ``gen-matches`` wrote.

Exit codes: 0 on success, 1 when any pair failed but the batch ran,
2 on configuration or usage errors. Every command is deterministic
under a fixed ``--seed``. A rerun into the same directory leaves what a
fresh run leaves: every stage rewrites its report, and ``gen-matches``
and ``register`` delete a pair's file before its work runs.
Randomness flows from the master seed through named sub-streams, and
per-pair work derives its own seed from the pair id, so results do not
depend on batch order or on the worker count (``--workers``, default 1).
Each setting has one way in, its flag; ``synth``'s camera focal length,
descriptor dimension, background depth and view-angle range are the
module constants ``_FOCAL``, ``_FEATURE_DIM``, ``_BACKGROUND_DEPTH`` and
``_VIEW_ANGLES``.

Every run of ``gen-matches`` and ``register`` follows one fixed protocol,
the module constants ``matchgen.NN_RADIUS``, ``matchgen.MIN_MATCHES``,
``matcher.MAX_DISTANCE``, ``matcher.MAX_MATCHES`` and
``registration.INLIER_THRESHOLD`` (one 1 cm threshold on an inlier's
residual and on a compatible pair's change in length, which the
estimators pass to the engine), at 1000 hypotheses
(``RegistrationParams()``, whose ``iterations`` is the one value a
library caller sets); neither takes a setting beyond its paths,
``--workers`` and ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io
from .config import PairEntry, derive_seed, load_pairs, pair_seed
from .errors import ConfigError, CrossposeError
from .geometry import CameraIntrinsics, Pose, as_mask, compose
from .losses import (
    FeatureSet,
    dice_loss,
    feature_loss,
    hardest_negative_loss,
    positive_loss,
    total_loss,
)
from .matcher import lift_matches, match_features, pixels_to_cells
from .matchgen import MIN_MATCHES, NN_RADIUS, accept_pair, generate_gt_matches
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


def _make_dir(path: Path) -> None:
    """Create a directory and its parents; a file in the way is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror}") from exc


def _run_stage(pairs_file, workers: int, work, summarize, report: Path, *,
               pair_files: bool = False, inputs: Path | None = None) -> int:
    """Run ``work`` on every pair of the manifest, write ``report`` and
    return the exit code: 1 when any pair failed, else 0.

    The manifest loads before the report's directory is made, so a
    configuration error leaves no directory behind. With ``pair_files``
    the stage writes ``<pair_id>.json`` beside the report (a pair whose
    file would be the report is a ConfigError). A report or pair file
    that would replace a file the stage reads is a ConfigError: the
    manifest, a file it names (the model and its sidecar included), or
    the ``<pair_id>.json`` of a pair in the directory ``inputs``. This
    check is the one place that resolves a path: the manifest's paths
    arrive as written, so it sees every symlink the manifest names. A
    pair's own file is deleted before its work runs, so a failed or
    rejected pair leaves none; temp files a killed writer left for those
    files or the report are deleted first. An exception raised by ``work`` fails
    only its pair, printed to stderr as ``ClassName: message``.
    ``summarize(results, errors)`` gets the ``(pair_id, value)`` rows and
    the ``pair_id -> message`` map, both sorted by pair id, and returns
    the report's payload and the stdout lines.
    """
    pairs = load_pairs(pairs_file)
    ids = {p.pair_id for p in pairs}
    if pair_files and report.stem in ids:
        raise ConfigError(f"pair id {report.stem!r} names the stage report {report.name}")
    out_dir = report.parent
    written = {report.name, *(f"{pid}.json" for pid in ids if pair_files)}
    read = [Path(pairs_file)]
    for p in pairs:
        read += [p.model, io.model_sidecar(p.model), p.pred_mask_query,
                 *vars(p.anchor).values(), *vars(p.query).values()]
    if inputs is not None:
        read += [inputs / f"{pid}.json" for pid in sorted(ids)]
    # Writing a file replaces the directory entry it names (a symlink
    # there, not its target); a read follows every symlink. Only a path of
    # a written file's name or a symlink can lead to such an entry.
    real_out = out_dir.resolve()
    for path in dict.fromkeys(read):
        if path is None or (path.name not in written and not path.is_symlink()):
            continue
        for hit in (path.parent.resolve() / path.name, path.resolve()):
            if hit.parent == real_out and hit.name in written:
                raise ConfigError(
                    f"writing {out_dir / hit.name} would replace {path}, which the stage reads"
                )
    _make_dir(out_dir)
    io.remove_temp_files(out_dir, written)

    def guarded(entry: PairEntry):
        try:
            if pair_files:
                (out_dir / f"{entry.pair_id}.json").unlink(missing_ok=True)
            return entry.pair_id, work(entry), None
        except Exception as exc:
            return entry.pair_id, None, f"{type(exc).__name__}: {exc}"

    if workers <= 1:
        rows = [guarded(p) for p in pairs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(guarded, pairs))
    rows.sort(key=lambda row: row[0])
    results = [(pid, value) for pid, value, err in rows if err is None]
    errors = {pid: err for pid, _, err in rows if err is not None}
    for pair_id, message in errors.items():
        print(f"error: {pair_id}: {message}", file=sys.stderr)
    payload, lines = summarize(results, errors)
    io.write_json(report, payload)
    for line in lines:
        print(line)
    return 1 if errors else 0


class _View(NamedTuple):
    """One view's geometry, as read from the files a manifest entry names."""

    depth: np.ndarray
    mask: np.ndarray
    camera: CameraIntrinsics
    pose: Pose


def _read_mask(path, camera: CameraIntrinsics) -> np.ndarray:
    """Read a mask; a ValueError unless it is its camera's size."""
    return as_mask(io.read_mask(path), (camera.height, camera.width))


def _load_view(view) -> _View:
    """Read one view's depth map, mask, camera and pose."""
    camera = io.read_intrinsics(view.camera)
    return _View(io.read_depth(view.depth), _read_mask(view.mask, camera), camera,
                 io.read_pose(view.pose))


def _read_features(view) -> np.ndarray:
    """Read one view's feature grid; a view that names none is a ConfigError."""
    if view.features is None:
        raise ConfigError("pair has no feature files")
    return io.read_features(view.features)


def _flag_path(value, flag: str, is_dir: bool) -> Path:
    """The path a flag names: an existing directory, or anything but one."""
    path = Path(value)
    if path.is_dir() != is_dir:
        wanted = "an existing directory" if is_dir else "a file, not a directory"
        raise ConfigError(f"{flag} must name {wanted}: {path}")
    return path


def _pred_mask(entry: PairEntry, camera: CameraIntrinsics, default):
    """The pair's predicted query mask, read by :func:`_read_mask` against
    the query ``camera``, or ``default`` when it names none."""
    path = entry.pred_mask_query
    return default if path is None else _read_mask(path, camera)


# ---------------------------------------------------------------- synth --

# Bounds of a view's translation: a small lateral offset, 0.5-0.6 m away.
_VIEW_BOUNDS = ((-0.01, -0.01, 0.5), (0.01, 0.01, 0.6))
# The range of the query view's rotation against the anchor's, in degrees.
_VIEW_ANGLES = (10.0, 35.0)
_FOCAL = 500.0  # pixels: a narrow field of view keeps pixel rays tight
_FEATURE_DIM = 32
_BACKGROUND_DEPTH = 0.8  # meters
# The files of one pair directory: (kind, extension, writer) per view.
_VIEW_FILES = (
    ("depth", "pgm", io.write_depth),
    ("mask", "pgm", io.write_mask),
    ("pose", "json", io.write_pose),
    ("features", "feat", io.write_features),
)
_PAIR_FILES = {"rel_pose.json", "gt_matches.json"} | {
    f"{kind}_{side}.{ext}" for kind, ext, _ in _VIEW_FILES for side in ("anchor", "query")
}


def cmd_synth(args) -> int:
    # Every setting is checked before the first directory is made.
    _check_seed(args)
    if args.pairs < 1:
        raise ConfigError("--pairs must be at least 1")
    size = args.image_size
    try:
        camera = CameraIntrinsics(
            fx=_FOCAL,
            fy=_FOCAL,
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
        check_descriptor_params(_FEATURE_DIM, args.noise, args.outlier_fraction)
    except ValueError as exc:
        raise ConfigError(f"invalid synth setting: {exc}") from exc

    out = Path(args.out)
    pair_ids = [f"pair_{i:04d}" for i in range(args.pairs)]
    # Every directory is made before the first file is written.
    for directory in ("models", "pairs", *(f"pairs/{pair_id}" for pair_id in pair_ids)):
        _make_dir(out / directory)
    # A pair directory an earlier run wrote that this manifest does not name
    # goes, so a rerun leaves the tree a fresh run leaves.
    for stale in (out / "pairs").iterdir():
        digits = stale.name.removeprefix("pair_")
        is_pair = digits.isdecimal() and stale.name == f"pair_{int(digits):04d}"
        if is_pair and stale.name not in pair_ids and stale.is_dir() and not stale.is_symlink():
            shutil.rmtree(stale)
    # So do the temp files a killed writer left for the files written below.
    io.remove_temp_files(out, {"pairs.json", "synth_config.json", "camera.json"})
    io.remove_temp_files(out / "models", {"model.xyz", "model.json"})
    for pair_id in pair_ids:
        io.remove_temp_files(out / "pairs" / pair_id, _PAIR_FILES)
    io.write_model(out / "models" / "model.xyz", model)
    io.write_intrinsics(out / "camera.json", camera)

    rng = np.random.default_rng(derive_seed(args.seed, "synth"))
    entries = []
    for pair_id in pair_ids:
        pair_dir = out / "pairs" / pair_id

        # The query view re-orients the object by a bounded angle so the
        # two views share a substantial visible surface.
        rot_a = random_rotation(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(*np.radians(_VIEW_ANGLES))
        pose_a = Pose(rot_a, rng.uniform(*_VIEW_BOUNDS))
        pose_q = Pose(rotation_about_axis(axis, angle) @ rot_a, rng.uniform(*_VIEW_BOUNDS))
        scene_a, scene_q, oracle = make_pair(
            model, pose_a, pose_q, camera, background=_BACKGROUND_DEPTH
        )
        feat_seed = int(rng.integers(2**63))
        features = make_descriptor_field(
            scene_a,
            scene_q,
            dim=_FEATURE_DIM,
            noise=args.noise,
            outlier_fraction=args.outlier_fraction,
            seed=feat_seed,
        )

        rel = f"pairs/{pair_id}"
        entry = {"id": pair_id, "model": "models/model.xyz"}
        for side, scene, pose in (("anchor", scene_a, pose_a), ("query", scene_q, pose_q)):
            # The anchor's grid is written and dropped before the query's is
            # built (a zip would keep it in its reused result tuple).
            values = {"depth": scene.depth, "mask": scene.mask, "pose": pose,
                      "features": next(features)}
            entry[side] = {"camera": "camera.json"}
            for kind, ext, write in _VIEW_FILES:
                write(pair_dir / f"{kind}_{side}.{ext}", values[kind])
                entry[side][kind] = f"{rel}/{kind}_{side}.{ext}"
            del values
        io.write_pose(pair_dir / "rel_pose.json", oracle.relative)
        io.write_matches(pair_dir / "gt_matches.json", oracle)
        entries.append(entry)

    io.write_json(out / "pairs.json", {"pairs": entries})
    settings = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "func", "out")
    }
    # The constants keep the keys of the flags they replaced.
    settings.update(focal=_FOCAL, feature_dim=_FEATURE_DIM,
                    background_depth=_BACKGROUND_DEPTH, max_view_angle=_VIEW_ANGLES[1])
    io.write_json(out / "synth_config.json", settings)
    print(f"wrote {args.pairs} pairs to {out}")
    return 0


# ---------------------------------------------------------- gen-matches --


def cmd_gen_matches(args) -> int:
    workers = _workers(args)
    out = Path(args.out_dir)

    def work(entry: PairEntry):
        a, q = _load_view(entry.anchor), _load_view(entry.query)
        pair = generate_gt_matches(
            a.depth, q.depth, a.mask, q.mask, a.camera, q.camera, a.pose, q.pose,
        )
        accepted = accept_pair(pair)
        if accepted:
            io.write_matches(out / f"{entry.pair_id}.json", pair)
        return {"count": len(pair), "accepted": accepted}

    def summarize(results, errors):
        summary = {
            "accepted": [pid for pid, r in results if r["accepted"]],
            "rejected": {pid: r["count"] for pid, r in results if not r["accepted"]},
            "errors": errors,
            "min_matches": MIN_MATCHES,
            "nn_radius": NN_RADIUS,
        }
        line = (
            f"matched {len(summary['accepted'])} pair(s), "
            f"rejected {len(summary['rejected'])}, failed {len(errors)}"
        )
        return summary, [line]

    return _run_stage(args.pairs, workers, work, summarize, out / "summary.json", pair_files=True)


# -------------------------------------------------------------- register --


def cmd_register(args) -> int:
    workers = _workers(args)
    out = Path(args.out_dir)
    reg_seed = derive_seed(args.seed, "registration")

    def work(entry: PairEntry):
        a, q = entry.anchor, entry.query
        cam_a, cam_q = io.read_intrinsics(a.camera), io.read_intrinsics(q.camera)
        # Each mask must be its camera's size; matching resamples it to its
        # grid. No name holds a grid, so both go once their matches are found.
        matches = match_features(
            _read_features(a), _read_features(q),
            _read_mask(a.mask, cam_a), _read_mask(q.mask, cam_q),
        )
        lifted = lift_matches(matches, io.read_depth(a.depth), io.read_depth(q.depth), cam_a, cam_q)
        result = register_spatial_consistency(lifted, seed=pair_seed(reg_seed, entry.pair_id))
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
        return summary, [line]

    return _run_stage(args.pairs, workers, work, summarize, out / "summary.json", pair_files=True)


# ---------------------------------------------------------------- eval --


def cmd_eval(args) -> int:
    workers = _workers(args)
    pred_dir = _flag_path(args.predictions, "--predictions", is_dir=True)
    report = _flag_path(args.out, "--out", is_dir=False)

    def work(entry: PairEntry):
        pred_path = pred_dir / f"{entry.pair_id}.json"
        if not pred_path.exists():
            raise ConfigError(f"no prediction for pair: {pred_path.name}")
        payload = io.read_json(pred_path)
        if not isinstance(payload, dict) or "pose" not in payload:
            raise ConfigError(f"prediction {pred_path.name} must be an object with a 'pose' key")
        pred_rel = io.pose_from_dict(payload["pose"])
        q = _load_view(entry.query)
        model = io.read_model(entry.model)
        return pair_report(
            model,
            pose_true=q.pose,
            pose_est=compose(pred_rel, io.read_pose(entry.anchor.pose)),
            scene_depth=q.depth,
            intrinsics=q.camera,
            pred_mask=_pred_mask(entry, q.camera, None),
            gt_mask=q.mask,
        )

    def summarize(results, errors):
        pairs = {pid: r.to_dict() for pid, r in results}
        if not results:
            print("error: no pair could be evaluated", file=sys.stderr)
            return {"pairs": pairs, "errors": errors}, []
        aggregate = aggregate_reports([r for _, r in results])
        payload = {"pairs": pairs, "aggregate": aggregate, "errors": errors}
        lines = [f"{'pair':<14}" + "".join(f"{name:>8}" for name in SCORES)]
        for label, scores in [*pairs.items(), ("mean", aggregate)]:
            lines.append(
                f"{label:<14}" + "".join(f"{scores[name]:>8.3f}" for name in SCORES)
            )
        return payload, lines

    return _run_stage(args.pairs, workers, work, summarize, report, inputs=pred_dir)


# --------------------------------------------------------------- losses --


def cmd_losses(args) -> int:
    workers = _workers(args)
    if args.max_samples < 1:
        raise ConfigError("--max-samples must be at least 1")
    matches_dir = _flag_path(args.matches, "--matches", is_dir=True)
    report = _flag_path(args.out, "--out", is_dir=False)

    def work(entry: PairEntry):
        a, q = entry.anchor, entry.query
        match_path = matches_dir / f"{entry.pair_id}.json"
        if not match_path.exists():
            # gen-matches writes no file for a pair it rejected or failed.
            raise ConfigError(f"no matches for pair: {match_path.name}")
        feat_a, feat_q = _read_features(a), _read_features(q)
        cam_a, cam_q = io.read_intrinsics(a.camera), io.read_intrinsics(q.camera)
        gt = io.read_matches(match_path)
        # Every match pixel must lie in its image, the thinned-out ones too.
        ua, va = pixels_to_cells(gt.anchor, feat_a.shape[:2], cam_a)
        uq, vq = pixels_to_cells(gt.query, feat_q.shape[:2], cam_q)
        idx = slice(None)
        if len(gt) > args.max_samples:
            # Deterministic thinning: evenly spaced over the scan order.
            idx = np.linspace(0, len(gt) - 1, args.max_samples).astype(np.int64)
        # The grids stay float32; FeatureSet widens the sampled cells only.
        set_a = FeatureSet(feat_a[va[idx], ua[idx]], gt.anchor[idx].astype(np.float64))
        set_q = FeatureSet(feat_q[vq[idx], uq[idx]], gt.query[idx].astype(np.float64))
        del feat_a, feat_q  # the sets hold copies of the sampled cells

        pos = positive_loss(set_a, set_q)
        neg = hardest_negative_loss(set_a, set_q)
        feat = feature_loss(pos, neg)
        mask_q = _read_mask(q.mask, cam_q)
        pred_mask = _pred_mask(entry, cam_q, mask_q)
        mask_term = dice_loss(pred_mask.astype(np.float64), mask_q)
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
        return payload, lines

    return _run_stage(args.pairs, workers, work, summarize, report, inputs=matches_dir)


# ---------------------------------------------------------------- main --


def _check_seed(args) -> None:
    """A negative ``--seed`` is a ConfigError."""
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")


def _workers(args) -> int:
    """The run's ``--workers``, checked with ``--seed`` before any file is
    read or directory made."""
    if args.workers < 1:
        raise ConfigError("workers must be at least 1")
    _check_seed(args)
    return args.workers


def _add_common(parser, *, with_out_dir: bool):
    parser.add_argument("--pairs", required=True, help="pairs manifest JSON")
    if with_out_dir:
        parser.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


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
    p.add_argument("--model-kind", default="blob",
                   choices=["blob", "sphere", "box", "cylinder"])
    p.add_argument("--model-points", type=int, default=6000)
    p.add_argument("--model-size", type=float, default=0.01,
                   help="shape scale (radius / Gaussian scale)")
    p.add_argument("--cyclic-order", type=int, default=1,
                   help="declared rotational symmetry order")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gen-matches", help="generate ground-truth matches")
    _add_common(p, with_out_dir=True)
    p.set_defaults(func=cmd_gen_matches)

    p = sub.add_parser("register", help="match features and estimate poses")
    _add_common(p, with_out_dir=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="score predicted poses")
    _add_common(p, with_out_dir=False)
    p.add_argument("--predictions", required=True, help="register output directory")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("losses", help="forward loss diagnostics")
    _add_common(p, with_out_dir=False)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--matches", required=True, help="gen-matches output directory")
    p.add_argument("--max-samples", type=int, default=500)
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
