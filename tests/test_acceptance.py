"""Acceptance gate: one test per top-level guarantee of the package.

Each test checks one externally visible guarantee end to end, with its
tolerance pinned in the assertion. The oracles here are deliberately
plain (scalar loops, longhand pinhole and rigid-transform formulas) and
independent of the vectorized implementations they judge, so a pass
means the optimized code and the textbook definition agree.
"""

import math
import time

import numpy as np
import pytest

from crosspose import (
    CameraIntrinsics,
    FeatureSet,
    GtPair,
    MetricReport,
    NoConsensus,
    Pose,
    RegistrationParams,
    accept_pair,
    add_error,
    add_result,
    compose,
    generate_gt_matches,
    hardest_negative_indices,
    hardest_negative_loss,
    io,
    make_correspondences,
    make_model,
    miou,
    mspd_error,
    mssd_error,
    pair_report,
    positive_loss,
    random_rotation,
    recall_average,
    register_ransac,
    register_spatial_consistency,
    render_scene,
    rotation_about_axis,
)
from crosspose.cli import main
from crosspose.config import load_pairs
from crosspose.metrics import VSD_THRESHOLDS

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _rotation_angle(r):
    frob = float(np.linalg.norm(r - np.eye(3)))
    return 2.0 * math.asin(min(1.0, frob / (2.0 * math.sqrt(2.0))))


def _posed(points, pose):
    """Apply a rigid transform one point at a time."""
    return [pose.rotation @ p + pose.translation for p in points]


def _sym_posed(points, pose, sym):
    out = []
    for p in points:
        q = sym.rotation @ p + sym.translation
        out.append(pose.rotation @ q + pose.translation)
    return out


def _mssd_oracle(model, pose_true, pose_est):
    est = _posed(model.points, pose_est)
    best = math.inf
    for sym in model.symmetries:
        ref = _sym_posed(model.points, pose_true, sym)
        worst = 0.0
        for e, r in zip(est, ref):
            worst = max(worst, math.dist(e, r))
        best = min(best, worst)
    return best


def _pinhole(point, cam):
    return (
        cam.fx * point[0] / point[2] + cam.cx,
        cam.fy * point[1] / point[2] + cam.cy,
    )


def _mspd_oracle(model, pose_true, pose_est, cam):
    est = [_pinhole(p, cam) for p in _posed(model.points, pose_est)]
    best = math.inf
    for sym in model.symmetries:
        ref = [_pinhole(p, cam) for p in _sym_posed(model.points, pose_true, sym)]
        worst = 0.0
        for (ue, ve), (ur, vr) in zip(est, ref):
            worst = max(worst, math.hypot(ue - ur, ve - vr))
        best = min(best, worst)
    return best


def _add_oracle(model, pose_true, pose_est):
    est = _posed(model.points, pose_est)
    ref = _posed(model.points, pose_true)
    return math.fsum(math.dist(e, r) for e, r in zip(est, ref)) / len(est)


def _adds_oracle(model, pose_true, pose_est):
    ref = np.array(_posed(model.points, pose_true))
    gaps = []
    for e in _posed(model.points, pose_est):
        gaps.append(float(np.sqrt(((ref - e) ** 2).sum(axis=1)).min()))
    return math.fsum(gaps) / len(gaps)


def _miou_oracle(pred, gt):
    inter = union = 0
    for r in range(pred.shape[0]):
        for c in range(pred.shape[1]):
            p, g = bool(pred[r, c]), bool(gt[r, c])
            inter += p and g
            union += p or g
    return 1.0 if union == 0 else inter / union


def _recall_oracle(errors, thresholds):
    fractions = []
    for t in thresholds:
        fractions.append(sum(1 for e in errors if e < t) / len(errors))
    return math.fsum(fractions) / len(fractions)


def _hardest_negative_oracle(feats, coords, radius):
    n = len(feats)
    idx = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.nan)
    for i in range(n):
        best, best_j = math.inf, -1
        for j in range(n):
            if j == i:
                continue
            sep = math.hypot(
                coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1]
            )
            if sep < radius:
                continue
            cos = float(feats[i] @ feats[j]) / (
                float(np.linalg.norm(feats[i])) * float(np.linalg.norm(feats[j]))
            )
            d = min(max((1.0 - cos) / 2.0, 0.0), 1.0)
            if d < best:
                best, best_j = d, j
        if best_j >= 0:
            idx[i], dist[i] = best_j, best
    return idx, dist


def _rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _nudged(pose, rng, max_angle, max_shift):
    delta = rotation_about_axis(rng.normal(size=3), rng.uniform(0.0, max_angle))
    shift = rng.uniform(-max_shift, max_shift, size=3)
    return Pose(delta @ pose.rotation, pose.translation + shift)


def _pose_recovered(found, truth):
    rot = _rotation_angle(found.rotation @ truth.rotation.T)
    shift = float(np.linalg.norm(found.translation - truth.translation))
    return rot < math.radians(1.0) and shift < 0.005


def _unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# 1. Metric scores agree with brute-force definitions
# ---------------------------------------------------------------------------


def test_metric_scores_match_bruteforce_oracles():
    # 50 randomized instances, models up to 500 points, 64x64 cameras,
    # every score within 1e-12 relative of its longhand oracle, < 30 s.
    rng = np.random.default_rng(2026)
    thresholds = VSD_THRESHOLDS
    kinds = ("blob", "sphere", "box", "cylinder")
    start = time.perf_counter()
    for trial in range(50):
        order = int(rng.integers(1, 5))
        model = make_model(
            kinds[trial % 4],
            n_points=order * int(rng.integers(25, 90)),
            size=float(rng.uniform(0.02, 0.04)),
            cyclic_order=order,
            seed=trial,
        )
        assert len(model.points) <= 500

        f = float(rng.uniform(70.0, 110.0))
        cam = CameraIntrinsics(fx=f, fy=1.05 * f, cx=31.5, cy=31.5,
                               width=64, height=64)
        pose_true = Pose(
            random_rotation(rng),
            np.array([rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                      rng.uniform(0.45, 0.6)]),
        )
        pose_est = _nudged(pose_true, rng, max_angle=0.3, max_shift=0.02)

        assert _rel_close(
            mssd_error(model, pose_true, pose_est),
            _mssd_oracle(model, pose_true, pose_est),
        )
        assert _rel_close(
            mspd_error(model, pose_true, pose_est, cam),
            _mspd_oracle(model, pose_true, pose_est, cam),
        )

        res = add_result(model, pose_true, pose_est)
        oracle = _adds_oracle if model.is_symmetric else _add_oracle
        assert _rel_close(res.error, oracle(model, pose_true, pose_est))
        assert res.threshold == 0.1 * model.diameter_m
        assert res.success == (res.error < res.threshold)

        pred = rng.random((64, 64)) < 0.3
        gt = pred.copy() if trial % 10 == 0 else rng.random((64, 64)) < 0.3
        assert _rel_close(miou(pred, gt), _miou_oracle(pred, gt))

        errors = rng.uniform(0.0, 0.3, size=int(rng.integers(3, 25)))
        assert _rel_close(
            recall_average(errors, thresholds),
            _recall_oracle(list(errors), list(thresholds)),
        )
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 2. The headline score is exactly the mean of its three components
# ---------------------------------------------------------------------------


def test_ar_equals_component_mean_for_every_pair():
    rng = np.random.default_rng(7)
    # Construction from raw scores forces the identity bitwise.
    for _ in range(200):
        vsd, mssd, mspd, add_s, seg = (float(v) for v in rng.random(5))
        rep = MetricReport(
            vsd=vsd, mssd=mssd, mspd=mspd, add=add_s, miou=seg,
            mssd_error_m=0.01, mspd_error_px=2.0, add_error_m=0.005,
            vsd_errors=[0.1, 0.2],
        )
        assert rep.ar == (rep.vsd + rep.mssd + rep.mspd) / 3.0
    with pytest.raises(TypeError):
        MetricReport(vsd=0.3, mssd=0.3, mspd=0.3, ar=0.5, add=1.0, miou=1.0,
                     mssd_error_m=0.0, mspd_error_px=0.0, add_error_m=0.0,
                     vsd_errors=())

    # The identity survives full evaluations: exact, nudged, and grossly
    # wrong (but still visible) estimates.
    model = make_model("blob", n_points=1500, size=0.03, seed=5)
    cam = CameraIntrinsics(fx=90.0, fy=90.0, cx=31.5, cy=31.5,
                           width=64, height=64)
    for trial in range(9):
        pose_true = Pose(
            random_rotation(rng),
            np.array([rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01), 0.5]),
        )
        scene = render_scene(model, pose_true, cam, background_depth=0.8)
        if trial % 3 == 0:
            pose_est = Pose(pose_true.rotation.copy(), pose_true.translation.copy())
        elif trial % 3 == 1:
            pose_est = _nudged(pose_true, rng, max_angle=0.1, max_shift=0.005)
        else:
            flip = rotation_about_axis((0.0, 0.0, 1.0), math.pi)
            center = pose_true.translation
            delta = Pose(flip, center - flip @ center + [0.02, 0.0, 0.0])
            pose_est = compose(delta, pose_true)
        rep = pair_report(model, pose_true, pose_est, scene.depth, cam)
        assert rep.ar == (rep.vsd + rep.mssd + rep.mspd) / 3.0


# ---------------------------------------------------------------------------
# 3. Declared symmetries never change the pose-error metrics
# ---------------------------------------------------------------------------


def test_symmetry_invariance_of_pose_errors():
    # Composing the reference pose with any declared symmetry moves each
    # metric by less than 1e-9 across 100 randomized symmetric models.
    rng = np.random.default_rng(11)
    cam = CameraIntrinsics(fx=90.0, fy=88.0, cx=31.5, cy=31.5,
                           width=64, height=64)
    for trial in range(100):
        order = int(rng.integers(2, 9))
        model = make_model(
            "cylinder" if trial % 2 else "blob",
            n_points=24 * order,
            size=0.025,
            cyclic_order=order,
            seed=trial,
        )
        assert model.is_symmetric
        pose_true = Pose(
            random_rotation(rng),
            np.array([rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02), 0.5]),
        )
        pose_est = _nudged(pose_true, rng, max_angle=0.2, max_shift=0.01)
        base = (
            mssd_error(model, pose_true, pose_est),
            mspd_error(model, pose_true, pose_est, cam),
            add_error(model, pose_true, pose_est),
        )
        for sym in model.symmetries:
            twisted = compose(pose_true, sym)
            assert abs(mssd_error(model, twisted, pose_est) - base[0]) < 1e-9
            assert abs(mspd_error(model, twisted, pose_est, cam) - base[1]) < 1e-9
            assert abs(add_error(model, twisted, pose_est) - base[2]) < 1e-9


# ---------------------------------------------------------------------------
# 4. Registration recovers poses from noisy, outlier-ridden matches
# ---------------------------------------------------------------------------


def test_registration_recovery_under_noise_and_outliers():
    # 100 seeded trials at 30% outliers and 2 mm noise: at least 95 must
    # land within 1 degree and 5 mm; the whole sweep stays under 60 s.
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        matches, truth = make_correspondences(
            n_matches=200, outlier_fraction=0.3, noise=0.002,
            seed=seed, extent=0.15,
        )
        result = register_spatial_consistency(
            matches, RegistrationParams(iterations=1000), seed=seed
        )
        hits += _pose_recovered(result.pose, truth)
    assert hits >= 95

    # Noiseless, outlier-free matches are recovered essentially exactly.
    matches, truth = make_correspondences(
        n_matches=60, outlier_fraction=0.0, noise=0.0, seed=424, extent=0.15,
    )
    exact = register_spatial_consistency(matches, seed=424)
    assert _rotation_angle(exact.pose.rotation @ truth.rotation.T) < 1e-9
    assert float(np.linalg.norm(exact.pose.translation - truth.translation)) < 1e-9
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 5. Consistency scoring beats plain RANSAC at a tight budget
# ---------------------------------------------------------------------------


def test_plain_ransac_trails_spatial_consistency():
    # Same seeds, same 4-iteration budget: unscored sampling must solve
    # strictly fewer of the 100 trials.
    sc_hits = ransac_hits = 0
    for seed in range(100):
        matches, truth = make_correspondences(
            n_matches=200, outlier_fraction=0.3, noise=0.002,
            seed=seed, extent=0.15,
        )
        params = RegistrationParams(iterations=4)
        try:
            sc_hits += _pose_recovered(
                register_spatial_consistency(matches, params, seed=seed).pose, truth
            )
        except NoConsensus:
            pass
        try:
            ransac_hits += _pose_recovered(
                register_ransac(matches, params, seed=seed).pose, truth
            )
        except NoConsensus:
            pass
    assert ransac_hits < sc_hits


# ---------------------------------------------------------------------------
# 6. Generated ground-truth matches close under re-unprojection
# ---------------------------------------------------------------------------


def test_match_generation_closure_and_rejection():
    # Every emitted correspondence, re-unprojected by longhand pinhole
    # algebra and chained through the two camera poses, lands within the
    # 2 mm radius; pairs that cannot produce 100 matches are rejected.
    rng = np.random.default_rng(99)
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=47.5, cy=47.5,
                           width=96, height=96)
    model = make_model("blob", n_points=4000, size=0.03, seed=1)
    checked = 0
    for _ in range(4):
        pose_a = Pose(random_rotation(rng), np.array([0.0, 0.0, 0.55]))
        center = pose_a.translation
        spin = rotation_about_axis(
            rng.normal(size=3), math.radians(rng.uniform(8.0, 25.0))
        )
        delta = Pose(spin, center - spin @ center + rng.uniform(-0.01, 0.01, 3))
        pose_q = compose(delta, pose_a)
        scene_a = render_scene(model, pose_a, cam, background_depth=0.8)
        scene_q = render_scene(model, pose_q, cam, background_depth=0.8)
        pair = generate_gt_matches(
            scene_a.depth, scene_q.depth, scene_a.mask, scene_q.mask,
            cam, cam, pose_a, pose_q,
        )
        assert accept_pair(pair)
        ra, ta = pose_a.rotation, pose_a.translation
        rq, tq = pose_q.rotation, pose_q.translation
        for (ua, va), (uq, vq) in zip(pair.anchor, pair.query):
            za = float(scene_a.depth[va, ua])
            zq = float(scene_q.depth[vq, uq])
            assert za > 0.0 and zq > 0.0
            pa = (za * (ua - cam.cx) / cam.fx, za * (va - cam.cy) / cam.fy, za)
            pq = (zq * (uq - cam.cx) / cam.fx, zq * (vq - cam.cy) / cam.fy, zq)
            mapped = rq @ (ra.T @ (np.array(pa) - ta)) + tq
            assert math.dist(mapped, pq) <= 0.002 + 1e-12
            checked += 1
    assert checked >= 400

    # A speck of an object yields too few pixels and is turned away.
    speck = make_model("sphere", n_points=3000, size=0.002, seed=2)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 0.55]))
    view = render_scene(speck, pose, cam, background_depth=0.8)
    sparse = generate_gt_matches(
        view.depth, view.depth, view.mask, view.mask, cam, cam, pose, pose,
    )
    assert len(sparse.anchor) < 100
    assert not accept_pair(sparse)

    # The cut sits exactly at the declared minimum.
    rel = Pose(np.eye(3), np.zeros(3))
    px = np.zeros((99, 2), dtype=np.int64)
    assert not accept_pair(GtPair(anchor=px, query=px, relative=rel))
    px = np.zeros((100, 2), dtype=np.int64)
    assert accept_pair(GtPair(anchor=px, query=px, relative=rel))


# ---------------------------------------------------------------------------
# 7. Loss formulas: brute-force agreement, closed forms, scale freedom
# ---------------------------------------------------------------------------


def test_loss_identities_match_closed_forms():
    # Hardest-negative selection agrees exactly with an O(C^2) scan on
    # 200-feature instances.
    radius = 5.0
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        feats = _unit_rows(rng, 200, 16)
        coords = rng.uniform(0.0, 320.0, size=(200, 2))
        got_idx, got_dist = hardest_negative_indices(
            FeatureSet(features=feats, coords=coords)
        )
        exp_idx, exp_dist = _hardest_negative_oracle(feats, coords, radius)
        assert np.array_equal(got_idx, exp_idx)
        assert np.allclose(got_dist, exp_dist, rtol=1e-12, atol=0.0,
                           equal_nan=True)

    # Orthogonal pairs hit the closed-form hinge values.
    coords = np.array([[0.0, 0.0], [100.0, 0.0]])
    anchor = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]), coords)
    query = FeatureSet(np.array([[0.0, 1.0], [1.0, 0.0]]), coords)
    assert abs(positive_loss(anchor, query) - 0.3) <= 1e-12

    eye8 = np.eye(8)
    spread = np.column_stack([np.arange(8.0) * 10.0, np.zeros(8)])
    side = FeatureSet(eye8, spread)
    assert abs(hardest_negative_loss(side, side) - 0.4) <= 1e-12

    # Rescaling any feature by a power of two changes nothing, bit for bit.
    rng = np.random.default_rng(5)
    feats_a = _unit_rows(rng, 60, 8)
    feats_q = _unit_rows(rng, 60, 8)
    grid = np.column_stack([np.arange(60.0) * 8.0, np.zeros(60)])
    scale_a = 2.0 ** rng.integers(-3, 4, size=(60, 1))
    scale_q = 2.0 ** rng.integers(-3, 4, size=(60, 1))
    base_pos = positive_loss(FeatureSet(feats_a, grid), FeatureSet(feats_q, grid))
    scaled_pos = positive_loss(
        FeatureSet(feats_a * scale_a, grid), FeatureSet(feats_q * scale_q, grid)
    )
    assert scaled_pos == base_pos
    base_neg = hardest_negative_loss(
        FeatureSet(feats_a, grid), FeatureSet(feats_q, grid)
    )
    scaled_neg = hardest_negative_loss(
        FeatureSet(feats_a * scale_a, grid), FeatureSet(feats_q * scale_q, grid)
    )
    assert scaled_neg == base_neg


# ---------------------------------------------------------------------------
# 8. The full pipeline scores high, rejects garbage, and reproduces
# ---------------------------------------------------------------------------


def test_end_to_end_pipeline_scores_and_determinism(tmp_path):
    def run_chain(root):
        data = root / "data"
        poses = root / "poses"
        report = root / "report.json"
        assert main(["synth", "--out", str(data), "--pairs", "2",
                     "--seed", "33"]) == 0
        assert main(["register", "--pairs", str(data / "pairs.json"),
                     "--out-dir", str(poses)]) == 0
        assert main(["eval", "--pairs", str(data / "pairs.json"),
                     "--predictions", str(poses), "--out", str(report)]) == 0
        return data, report

    data, report_path = run_chain(tmp_path / "one")
    report = io.read_json(report_path)
    assert report["aggregate"]["ar"] > 0.95
    for scores in report["pairs"].values():
        assert scores["ar"] == (
            scores["vsd"] + scores["mssd"] + scores["mspd"]
        ) / 3.0

    # Randomized visible-but-wrong poses score near zero.
    rng = np.random.default_rng(77)
    preds = tmp_path / "wrong"
    preds.mkdir()
    for entry in load_pairs(data / "pairs.json"):
        rel = io.read_pose(entry.anchor.pose.parent / "rel_pose.json")
        center = np.asarray(io.read_pose(entry.query.pose).translation)
        spin = rotation_about_axis(
            rng.normal(size=3), rng.uniform(2.0, math.pi)
        )
        delta = Pose(spin, center - spin @ center + [0.03, 0.0, 0.0])
        io.write_json(
            preds / f"{entry.pair_id}.json",
            {"pose": io.pose_to_dict(compose(delta, rel))},
        )
    wrong_path = tmp_path / "wrong.json"
    assert main(["eval", "--pairs", str(data / "pairs.json"),
                 "--predictions", str(preds), "--out", str(wrong_path)]) == 0
    assert io.read_json(wrong_path)["aggregate"]["ar"] < 0.05

    # A fixed seed reproduces the evaluation byte for byte.
    _, report_path_two = run_chain(tmp_path / "two")
    assert report_path.read_bytes() == report_path_two.read_bytes()
