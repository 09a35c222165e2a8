"""Tests for the symmetry-aware pose metric suite.

Every derived value is checked against a from-scratch oracle written in
plain loops before the production path existed; crafted plate scenes
give closed-form expectations for the visible-surface error.
"""

import math

import numpy as np
import pytest

from crosspose import (
    BehindCamera,
    CameraIntrinsics,
    DimensionMismatch,
    EmptyRender,
    MetricReport,
    ObjectModel,
    Pose,
    add_error,
    add_result,
    aggregate_reports,
    cyclic_symmetries,
    make_model,
    miou,
    mspd_error,
    mssd_error,
    pair_report,
    project,
    recall_average,
    rotation_about_axis,
    vsd_error_set,
)
from crosspose import metrics
from crosspose.metrics import VSD_TOLERANCE_FRACTIONS
from conftest import random_se3

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _mssd_oracle(model, pose_true, pose_est):
    best = math.inf
    for sym in model.symmetries:
        worst = 0.0
        for p in model.points:
            est = pose_est.rotation @ p + pose_est.translation
            ref = pose_true.rotation @ (sym.rotation @ p + sym.translation)
            ref = ref + pose_true.translation
            worst = max(worst, math.dist(est, ref))
        best = min(best, worst)
    return best


def _project_scalar(p, k):
    x, y, z = (float(c) for c in p)
    if z <= 0:
        return None
    return (k.fx * x / z + k.cx, k.fy * y / z + k.cy)


def _mspd_oracle(model, pose_true, pose_est, k):
    best = math.inf
    for sym in model.symmetries:
        worst = 0.0
        any_valid = False
        for p in model.points:
            est = pose_est.rotation @ p + pose_est.translation
            ref = pose_true.rotation @ (sym.rotation @ p + sym.translation)
            ref = ref + pose_true.translation
            ue, re_ = _project_scalar(est, k), _project_scalar(ref, k)
            if ue is None or re_ is None:
                continue
            any_valid = True
            worst = max(worst, math.hypot(ue[0] - re_[0], ue[1] - re_[1]))
        if any_valid:
            best = min(best, worst)
    return best


def _add_oracle(model, pose_true, pose_est):
    total = 0.0
    for p in model.points:
        est = pose_est.rotation @ p + pose_est.translation
        ref = pose_true.rotation @ p + pose_true.translation
        total += math.dist(est, ref)
    return total / len(model.points)


def _adds_oracle(model, pose_true, pose_est):
    est = [pose_est.rotation @ p + pose_est.translation for p in model.points]
    ref = [pose_true.rotation @ p + pose_true.translation for p in model.points]
    total = 0.0
    for e in est:
        total += min(math.dist(e, r) for r in ref)
    return total / len(est)


def _recall_oracle(errors, thresholds):
    fractions = []
    for t in thresholds:
        hits = sum(1 for e in errors if e < t)
        fractions.append(hits / len(errors))
    return math.fsum(fractions) / len(thresholds)


def _miou_oracle(pred, gt):
    inter = union = 0
    h, w = pred.shape
    for r in range(h):
        for c in range(w):
            p, g = bool(pred[r, c]), bool(gt[r, c])
            inter += p and g
            union += p or g
    return 1.0 if union == 0 else inter / union


def _splat_oracle(points_cam, k):
    """Dict-based z-buffer splat: same conventions, different machinery."""
    buf = {}
    for i, p in enumerate(points_cam):
        uv = _project_scalar(p, k)
        if uv is None:
            continue
        u, v = uv
        if not (-0.5 <= u < k.width - 0.5 and -0.5 <= v < k.height - 0.5):
            continue
        col, row = int(np.rint(u)), int(np.rint(v))
        z = float(p[2])
        old = buf.get((row, col))
        if old is None or z < old[0]:
            buf[(row, col)] = (z, i)
    depth = np.zeros((k.height, k.width))
    for (row, col), (z, _) in buf.items():
        depth[row, col] = z
    return depth


def _vsd_oracle(model, pose_true, pose_est, scene, k, tol, occl_tol):
    d_true = _splat_oracle(pose_true.apply(model.points), k)
    d_est = _splat_oracle(pose_est.apply(model.points), k)
    union = one_sided = mismatch = 0
    for r in range(k.height):
        for c in range(k.width):
            zt, ze, zs = d_true[r, c], d_est[r, c], scene[r, c]
            vt = zt > 0 and (zs == 0 or zt < zs + occl_tol)
            ve = ze > 0 and (zs == 0 or ze < zs + occl_tol)
            ve = ve or (vt and ze > 0)
            if not (vt or ve):
                continue
            union += 1
            if not (vt and ve):
                one_sided += 1
                mismatch += 1
            elif abs(zt - ze) > tol:
                mismatch += 1
    if union == 0:
        return None
    return mismatch / union


def _plate_model(cols, rows, k, z=1.0):
    """Points exactly on pixel centers of a block, at constant depth."""
    us, vs = np.meshgrid(np.arange(cols), np.arange(rows))
    u = us.ravel() + (k.width - cols) // 2
    v = vs.ravel() + (k.height - rows) // 2
    pts = np.column_stack(
        [z * (u - k.cx) / k.fx, z * (v - k.cy) / k.fy, np.full(u.shape, z)]
    )
    return ObjectModel.from_points(pts)


_PLATE_CAM = CameraIntrinsics(fx=80.0, fy=80.0, cx=31.5, cy=31.5, width=64, height=64)


def _shift_pixels(n_px, z=1.0, k=_PLATE_CAM):
    """Pose translating laterally by exactly n_px pixels at depth z."""
    return Pose(np.eye(3), np.array([n_px * z / k.fx, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Surface error (3D)
# ---------------------------------------------------------------------------


class TestMssdError:
    def test_identical_poses_give_zero(self, rng):
        model = make_model("blob", n_points=100, seed=1)
        pose = random_se3(rng)
        assert mssd_error(model, pose, pose) == 0.0

    def test_pure_translation_gives_its_norm(self, rng):
        model = make_model("blob", n_points=100, seed=1)
        pose = random_se3(rng)
        delta = np.array([0.003, -0.004, 0.012])
        shifted = Pose(pose.rotation, pose.translation + delta)
        assert mssd_error(model, pose, shifted) == pytest.approx(
            np.linalg.norm(delta), abs=1e-12
        )

    def test_half_turn_symmetry_zeroes_the_error(self, rng):
        model = make_model("cylinder", n_points=400, cyclic_order=2, seed=3)
        pose = random_se3(rng)
        half_turn = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi)
        flipped = Pose(pose.rotation @ half_turn, pose.translation)
        assert mssd_error(model, pose, flipped) < 1e-9

    def test_matches_brute_force_oracle(self, rng):
        model = make_model("box", n_points=60, cyclic_order=4, seed=5)
        for _ in range(5):
            pose_true = random_se3(rng)
            pose_est = random_se3(rng)
            got = mssd_error(model, pose_true, pose_est)
            exp = _mssd_oracle(model, pose_true, pose_est)
            assert got == pytest.approx(exp, rel=1e-12)

    def test_invariant_under_declared_symmetries(self, rng):
        model = make_model("cylinder", n_points=300, cyclic_order=6, seed=7)
        pose_true, pose_est = random_se3(rng), random_se3(rng)
        base = mssd_error(model, pose_true, pose_est)
        for sym in model.symmetries:
            twisted = Pose(
                pose_true.rotation @ sym.rotation,
                pose_true.rotation @ sym.translation + pose_true.translation,
            )
            assert mssd_error(model, twisted, pose_est) == pytest.approx(
                base, abs=1e-9
            )


# ---------------------------------------------------------------------------
# Projection error (2D)
# ---------------------------------------------------------------------------


class TestMspdError:
    def test_identical_poses_give_zero(self, cam64, rng):
        model = make_model("blob", n_points=100, seed=1)
        pose = Pose(random_se3(rng).rotation, np.array([0.0, 0.0, 0.5]))
        assert mspd_error(model, pose, pose, cam64) == 0.0

    def test_in_plane_translation_closed_form(self):
        model = _plate_model(16, 16, _PLATE_CAM)
        base = Pose.identity()
        delta = 0.0025
        moved = Pose(np.eye(3), np.array([delta, 0.0, 0.0]))
        expected = _PLATE_CAM.fx * delta / 1.0
        assert mspd_error(model, base, moved, _PLATE_CAM) == pytest.approx(
            expected, abs=1e-6
        )

    def test_z_translation_matches_projection_oracle(self, cam64):
        model = make_model("blob", n_points=80, seed=2)
        base = Pose(np.eye(3), np.array([0.0, 0.0, 0.6]))
        moved = Pose(np.eye(3), np.array([0.0, 0.0, 0.7]))
        got = mspd_error(model, base, moved, cam64)
        exp = _mspd_oracle(model, base, moved, cam64)
        assert got == pytest.approx(exp, rel=1e-12)
        assert got > 0.0

    def test_matches_oracle_with_symmetries(self, cam64, rng):
        model = make_model("cylinder", n_points=90, cyclic_order=3, seed=4)
        for _ in range(5):
            pose_true = Pose(random_se3(rng).rotation, np.array([0.01, -0.01, 0.55]))
            pose_est = Pose(random_se3(rng).rotation, np.array([-0.01, 0.02, 0.6]))
            got = mspd_error(model, pose_true, pose_est, cam64)
            exp = _mspd_oracle(model, pose_true, pose_est, cam64)
            assert got == pytest.approx(exp, rel=1e-12)

    def test_all_points_behind_camera_raises(self, cam64):
        model = make_model("blob", n_points=50, seed=6)
        behind = Pose(np.eye(3), np.array([0.0, 0.0, -1.0]))
        with pytest.raises(BehindCamera):
            mspd_error(model, behind, behind, cam64)

    def test_partially_behind_warns_and_excludes(self, cam64):
        # Straddle the camera plane: some points in front, some behind.
        model = make_model("sphere", n_points=200, size=0.5, seed=8)
        straddle = Pose(np.eye(3), np.array([0.0, 0.0, 0.1]))
        with pytest.warns(UserWarning, match="behind-camera"):
            err = mspd_error(model, straddle, straddle, cam64)
        assert err == 0.0

    def test_warning_counts_the_exclusions_of_the_returned_symmetry(self, cam96):
        # 152 points lie behind the camera under the estimate, and so are
        # left out under each of the four symmetries, not 4 * 152 times.
        model = make_model("cylinder", n_points=400, size=0.03, cyclic_order=4, seed=1)
        pose_true = Pose(np.eye(3), np.array([0.0, 0.0, 0.5]))
        pose_est = Pose(np.eye(3), np.array([0.0, 0.0, 0.005]))
        assert np.count_nonzero(pose_est.apply(model.points)[:, 2] <= 0) == 152
        with pytest.warns(UserWarning, match=r"excluded 152 behind-camera") as caught:
            mspd_error(model, pose_true, pose_est, cam96)
        assert len(caught) == 1

    def test_straddling_model_equals_the_gathered_maximum(self, cam64, rng):
        model = make_model("cylinder", n_points=300, size=0.5, cyclic_order=4, seed=9)
        pose_true = Pose(random_se3(rng).rotation, np.array([0.0, 0.0, 0.1]))
        pose_est = Pose(random_se3(rng).rotation, np.array([0.02, 0.0, 0.12]))
        proj_est = project(pose_est.apply(model.points), cam64)
        want, excluded = math.inf, False
        for sym in model.symmetries:
            proj_ref = project(pose_true.apply(sym.apply(model.points)), cam64)
            valid = proj_est.in_front & proj_ref.in_front
            excluded |= not valid.all()
            gap = np.linalg.norm(proj_est.uv[valid] - proj_ref.uv[valid], axis=1).max()
            want = min(want, float(gap))
        assert excluded
        with pytest.warns(UserWarning, match="behind-camera"):
            assert mspd_error(model, pose_true, pose_est, cam64) == want


# ---------------------------------------------------------------------------
# Average distance (ADD / ADD-S)
# ---------------------------------------------------------------------------


class TestAddError:
    def test_identity_is_zero_and_successful(self, rng):
        model = make_model("blob", n_points=100, seed=1)
        pose = random_se3(rng)
        res = add_result(model, pose, pose)
        assert res.error == 0.0
        assert res.success
        assert res.threshold == pytest.approx(0.1 * model.diameter_m)

    def test_translation_at_tenth_diameter_sits_on_the_boundary(self, rng):
        model = make_model("blob", n_points=100, seed=1)
        pose = random_se3(rng)
        delta = 0.1 * model.diameter_m
        moved = Pose(pose.rotation, pose.translation + np.array([delta, 0.0, 0.0]))
        res = add_result(model, pose, moved)
        assert res.error == pytest.approx(res.threshold, rel=1e-12)

    def test_error_equal_to_threshold_fails_strictly(self):
        # A model 10 m across moved by 1 m: 0.1 * 10.0 rounds to exactly
        # 1.0, so the error lands bitwise on the threshold and the strict
        # < must reject it.
        model = ObjectModel.from_points([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        moved = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        res = add_result(model, Pose.identity(), moved)
        assert res.error == res.threshold
        assert not res.success

    def test_add_matches_oracle(self, rng):
        model = make_model("blob", n_points=120, seed=2)
        pose_true, pose_est = random_se3(rng), random_se3(rng)
        got = add_error(model, pose_true, pose_est)
        assert got == pytest.approx(_add_oracle(model, pose_true, pose_est), rel=1e-12)

    def test_adds_matches_brute_force_min_distance_oracle(self, rng):
        model = make_model("sphere", n_points=150, cyclic_order=2, seed=3)
        pose_true = random_se3(rng)
        pose_est = Pose(
            pose_true.rotation, pose_true.translation + rng.normal(scale=0.01, size=3)
        )
        got = add_error(model, pose_true, pose_est)
        exp = _adds_oracle(model, pose_true, pose_est)
        assert got == pytest.approx(exp, rel=1e-12)

    @staticmethod
    def _adds_brute_force(model, pose_true, pose_est):
        """The mean nearest distance, from every pair of the points
        ``add_error`` places, each distance ``sqrt((dx*dx + dy*dy) + dz*dz)``."""
        est, ref = pose_est.apply(model.points), pose_true.apply(model.points)
        d = est[:, None, :] - ref[None, :, :]
        return float(np.mean(np.sqrt(np.sum(d * d, axis=-1)).min(axis=1)))

    def test_adds_on_exact_ties_equals_brute_force_exactly(self, rng):
        # Every point of a grid shifted by half a step sits at the same
        # distance from the corners of its cell. In a cloud holding each
        # point twice, every point ties with its own copy.
        axis = np.arange(6.0) - 2.5
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        cube = ObjectModel.from_points(grid, cyclic_symmetries(4))
        cylinder = make_model("cylinder", n_points=600, size=0.03, cyclic_order=4)
        doubled = ObjectModel.from_points(
            np.concatenate([cylinder.points, cylinder.points]), cylinder.symmetries
        )
        half_step = Pose(np.eye(3), np.full(3, 0.5))
        pose = random_se3(rng, translation_scale=0.01)
        for model, pose_true, pose_est in (
            (cube, Pose.identity(), half_step),
            (doubled, pose, pose),
            (doubled, pose, random_se3(rng, translation_scale=0.01)),
        ):
            got = add_error(model, pose_true, pose_est)
            assert got == self._adds_brute_force(model, pose_true, pose_est)
        assert add_error(doubled, pose, pose) == 0.0
        # Every shifted grid point is half a cell diagonal from its nearest.
        shifted = add_error(cube, Pose.identity(), half_step)
        assert shifted == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_adds_of_a_one_point_model(self, rng):
        # Five copies of one point on the symmetry axis: a single reference point.
        model = ObjectModel.from_points(np.tile([0.0, 0.0, 0.02], (5, 1)), cyclic_symmetries(2))
        pose_true, pose_est = random_se3(rng), random_se3(rng)
        got = add_error(model, pose_true, pose_est)
        assert got == self._adds_brute_force(model, pose_true, pose_est)
        assert got == pytest.approx(
            np.linalg.norm(pose_est.apply(model.points[:1]) - pose_true.apply(model.points[:1]))
        )

    def test_adds_on_rotated_sphere_is_near_zero(self, rng):
        model = make_model("sphere", n_points=2000, size=0.05, cyclic_order=2, seed=4)
        pose = Pose(np.eye(3), np.zeros(3))
        spun = Pose(random_se3(rng).rotation, np.zeros(3))
        err = add_error(model, pose, spun)
        # Bounded by the sampling gap of 2000 points on the sphere.
        assert err < 0.005

    def test_symmetric_model_uses_adds_automatically(self, rng):
        model = make_model("cylinder", n_points=200, cyclic_order=8, seed=5)
        assert model.is_symmetric
        pose = random_se3(rng)
        sym = model.symmetries[3]
        twisted = Pose(pose.rotation @ sym.rotation, pose.translation)
        assert add_error(model, pose, twisted) < 1e-6

    def test_add_bounded_by_mssd_for_asymmetric_models(self, rng):
        model = make_model("blob", n_points=150, seed=6)
        for _ in range(10):
            pose_true, pose_est = random_se3(rng), random_se3(rng)
            add = add_error(model, pose_true, pose_est)
            mssd = mssd_error(model, pose_true, pose_est)
            assert add <= mssd + 1e-12


# ---------------------------------------------------------------------------
# Visible-surface error
# ---------------------------------------------------------------------------


class TestVsdError:
    def test_identical_poses_give_zero(self):
        model = _plate_model(16, 16, _PLATE_CAM)
        scene = np.zeros((64, 64))
        pose = Pose.identity()
        assert vsd_error_set(model, pose, pose, scene, _PLATE_CAM, [0.01])[0] == 0.0

    def test_disjoint_renders_give_one(self):
        model = _plate_model(16, 16, _PLATE_CAM)
        scene = np.zeros((64, 64))
        moved = _shift_pixels(32)
        err = vsd_error_set(model, Pose.identity(), moved, scene, _PLATE_CAM, [0.01])[0]
        assert err == 1.0

    def test_half_overlap_counts_one_sided_pixels(self):
        # Shift by 8 of 16 columns: 8 columns agree at equal depth, 8+8
        # are one-sided, so the error is exactly 16/24.
        model = _plate_model(16, 16, _PLATE_CAM)
        scene = np.zeros((64, 64))
        moved = _shift_pixels(8)
        err = vsd_error_set(model, Pose.identity(), moved, scene, _PLATE_CAM, [0.01])[0]
        assert err == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_depth_difference_beyond_tolerance_counts(self):
        model = _plate_model(16, 16, _PLATE_CAM)
        scene = np.zeros((64, 64))
        # Pull the estimate 2 cm toward the camera: same pixels (projective
        # scaling preserved by moving along rays is violated here, so use a
        # tolerance sweep instead: at 3 cm tolerance the move is invisible).
        moved = Pose(np.eye(3), np.array([0.0, 0.0, -0.02]))
        tight = vsd_error_set(model, Pose.identity(), moved, scene, _PLATE_CAM, [0.01])[0]
        loose = vsd_error_set(model, Pose.identity(), moved, scene, _PLATE_CAM, [0.03])[0]
        assert tight > 0.9
        assert loose < tight

    def test_occluded_pixels_not_penalized(self):
        model = _plate_model(16, 16, _PLATE_CAM)
        # Scene surface 10 cm in front of the object: nothing is visible
        # under either pose, so there is no union to score.
        scene = np.full((64, 64), 0.9)
        with pytest.raises(EmptyRender):
            vsd_error_set(model, Pose.identity(), _shift_pixels(2), scene, _PLATE_CAM, [0.01])

    def test_empty_render_raises(self):
        model = _plate_model(8, 8, _PLATE_CAM)
        scene = np.zeros((64, 64))
        away = Pose(np.eye(3), np.array([10.0, 0.0, 0.0]))
        with pytest.raises(EmptyRender):
            vsd_error_set(model, away, away, scene, _PLATE_CAM, [0.01])

    def test_matches_pixel_count_oracle(self, rng):
        model = make_model("blob", n_points=1500, size=0.05, seed=9)
        k = _PLATE_CAM
        for trial in range(3):
            rot = random_se3(rng).rotation
            pose_true = Pose(rot, np.array([0.0, 0.0, 0.6]))
            axis = rng.normal(size=3)
            nudge = rotation_about_axis(axis / np.linalg.norm(axis), np.radians(4.0))
            pose_est = Pose(
                nudge @ rot, pose_true.translation + rng.normal(scale=0.003, size=3)
            )
            scene = np.full((64, 64), 0.8)
            got = vsd_error_set(model, pose_true, pose_est, scene, k, [0.005])[0]
            exp = _vsd_oracle(model, pose_true, pose_est, scene, k, 0.005, 0.015)
            assert got == exp

    def test_error_set_sweeps_tolerances_monotonically(self, rng):
        model = make_model("blob", n_points=1500, size=0.05, seed=10)
        pose_true = Pose(np.eye(3), np.array([0.0, 0.0, 0.6]))
        pose_est = Pose(np.eye(3), np.array([0.002, 0.001, 0.605]))
        scene = np.zeros((64, 64))
        tols = [0.001, 0.002, 0.005, 0.01, 0.02]
        errs = vsd_error_set(model, pose_true, pose_est, scene, _PLATE_CAM, tols)
        assert len(errs) == len(tols)
        assert (np.diff(errs) <= 0).all()  # looser tolerance, fewer mismatches

    def test_rejects_empty_tolerances(self):
        model = _plate_model(8, 8, _PLATE_CAM)
        with pytest.raises(ValueError):
            vsd_error_set(
                model, Pose.identity(), Pose.identity(),
                np.zeros((64, 64)), _PLATE_CAM, [],
            )

    @pytest.mark.parametrize("tols", [[math.nan], [0.01, math.nan]])
    def test_rejects_nan_tolerances(self, tols):
        model = _plate_model(8, 8, _PLATE_CAM)
        with pytest.raises(ValueError, match="non-empty and positive"):
            vsd_error_set(
                model, Pose.identity(), Pose.identity(),
                np.zeros((64, 64)), _PLATE_CAM, tols,
            )


# ---------------------------------------------------------------------------
# Recall averaging
# ---------------------------------------------------------------------------


class TestRecallAverage:
    def test_all_zero_errors_give_one(self):
        assert recall_average([0.0, 0.0, 0.0], [0.1, 0.2]) == 1.0

    def test_error_at_threshold_is_a_failure(self):
        assert recall_average([0.05], [0.05]) == 0.0
        assert recall_average([0.05], [0.05000001]) == 1.0

    def test_matches_brute_force_oracle(self, rng):
        errors = rng.uniform(0.0, 1.0, size=100)
        thresholds = rng.uniform(0.1, 0.9, size=10)
        got = recall_average(errors, thresholds)
        assert got == pytest.approx(_recall_oracle(errors, thresholds), abs=1e-15)

    def test_monotone_in_threshold(self, rng):
        errors = rng.uniform(0.0, 1.0, size=50)
        fractions = [recall_average(errors, [t]) for t in np.linspace(0.0, 1.1, 23)]
        assert (np.diff(fractions) >= 0).all()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            recall_average([], [0.1])
        with pytest.raises(ValueError):
            recall_average([0.1], [])


# ---------------------------------------------------------------------------
# Mask quality
# ---------------------------------------------------------------------------


class TestMiou:
    def test_equal_masks_give_one(self, rng):
        mask = rng.random(size=(32, 32)) < 0.4
        mask[0, 0] = True
        assert miou(mask, mask) == 1.0

    def test_disjoint_masks_give_zero(self):
        a = np.zeros((16, 16), dtype=bool)
        b = np.zeros((16, 16), dtype=bool)
        a[:4], b[8:] = True, True
        assert miou(a, b) == 0.0

    def test_both_empty_defined_as_one(self):
        empty = np.zeros((8, 8), dtype=bool)
        assert miou(empty, empty) == 1.0

    def test_matches_pixel_count_oracle(self, rng):
        for _ in range(10):
            pred = rng.random(size=(24, 24)) < 0.5
            gt = rng.random(size=(24, 24)) < 0.5
            assert miou(pred, gt) == pytest.approx(_miou_oracle(pred, gt), abs=1e-15)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            miou(np.zeros((8, 8), dtype=bool), np.zeros((8, 9), dtype=bool))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class TestMetricReport:
    def test_ar_identity_enforced_at_construction(self):
        # ar is computed, never passed.
        with pytest.raises(TypeError):
            MetricReport(
                vsd=0.5, mssd=0.5, mspd=0.5, ar=0.6, add=1.0, miou=1.0,
                mssd_error_m=0.0, mspd_error_px=0.0, add_error_m=0.0,
                vsd_errors=(0.0,),
            )

    def test_constructor_satisfies_identity_bitwise(self, rng):
        for _ in range(50):
            v, s, p = rng.random(3)
            rep = MetricReport(
                vsd=v, mssd=s, mspd=p, add=1.0, miou=1.0,
                mssd_error_m=0.0, mspd_error_px=0.0, add_error_m=0.0,
                vsd_errors=(),
            )
            assert rep.ar == (rep.vsd + rep.mssd + rep.mspd) / 3.0

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError):
            MetricReport(
                vsd=1.5, mssd=1.5, mspd=1.5, add=1.0, miou=1.0,
                mssd_error_m=0.0, mspd_error_px=0.0, add_error_m=0.0,
                vsd_errors=(),
            )

    def test_to_dict_field_names(self):
        rep = MetricReport(
            vsd=1.0, mssd=1.0, mspd=1.0, add=1.0, miou=1.0,
            mssd_error_m=0.0, mspd_error_px=0.0, add_error_m=0.0,
            vsd_errors=(0.0,),
        )
        d = rep.to_dict()
        assert set(d) == {
            "ar", "vsd", "mssd", "mspd", "add", "miou",
            "mssd_error_m", "mspd_error_px", "add_error_m", "vsd_errors",
        }


@pytest.fixture(scope="module")
def scene_setup(cam96):
    from crosspose import render_scene

    model = make_model("blob", n_points=6000, size=0.01, seed=11)
    pose = Pose(
        rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.4),
        np.array([0.001, -0.002, 0.55]),
    )
    scene = render_scene(model, pose, cam96, background_depth=0.8)
    return model, pose, scene


class TestPairReport:

    def test_perfect_prediction_scores_ones(self, scene_setup, cam96):
        model, pose, scene = scene_setup
        rep = pair_report(model, pose, pose, scene.depth, cam96, gt_mask=scene.mask)
        assert rep.ar == 1.0
        assert rep.vsd == rep.mssd == rep.mspd == 1.0
        assert rep.add == 1.0
        assert rep.miou == 1.0
        assert rep.mssd_error_m == 0.0

    def test_far_off_prediction_scores_near_zero(self, scene_setup, cam96):
        model, pose, scene = scene_setup
        wrong = Pose(
            rotation_about_axis(np.array([1.0, 0.0, 0.0]), 2.0),
            pose.translation + np.array([0.05, 0.05, 0.1]),
        )
        rep = pair_report(model, pose, wrong, scene.depth, cam96)
        assert rep.ar < 0.05

    def test_pred_mask_feeds_miou(self, scene_setup, cam96):
        model, pose, scene = scene_setup
        half = scene.mask.copy()
        on = np.nonzero(half.ravel())[0]
        half.ravel()[on[len(on) // 2 :]] = False
        rep = pair_report(
            model, pose, pose, scene.depth, cam96,
            pred_mask=half, gt_mask=scene.mask,
        )
        assert rep.miou == pytest.approx(miou(half, scene.mask))
        assert rep.miou < 1.0

    def test_vsd_errors_exposed_per_tolerance(self, scene_setup, cam96):
        model, pose, scene = scene_setup
        rep = pair_report(model, pose, pose, scene.depth, cam96)
        assert len(rep.vsd_errors) == len(VSD_TOLERANCE_FRACTIONS)
        assert all(e == 0.0 for e in rep.vsd_errors)


def _symmetric_scene(cam):
    from crosspose import render_scene

    model = make_model("cylinder", n_points=3000, size=0.03, cyclic_order=4, seed=3)
    pose = Pose(
        rotation_about_axis(np.array([1.0, 0.2, 0.0]), 0.7),
        np.array([0.002, 0.001, 0.5]),
    )
    return model, pose, render_scene(model, pose, cam, background_depth=0.8)


class TestPairReportPosesOnce:
    """pair_report poses the model once per pose and once per symmetry
    other than the identity, and its errors are those of the four public
    functions called one by one."""

    @pytest.fixture(params=["blob", "cylinder"])
    def scene(self, request, scene_setup, cam96):
        if request.param == "blob":
            return scene_setup
        return _symmetric_scene(cam96)

    @staticmethod
    def _estimate(pose):
        return Pose(
            rotation_about_axis(np.array([0.2, 1.0, 0.3]), 0.05) @ pose.rotation,
            pose.translation + np.array([0.001, -0.002, 0.003]),
        )

    def test_calls_apply_twice_per_symmetry(self, scene, cam96, monkeypatch):
        # The estimate and the reference once each, and each symmetry other
        # than the identity twice: the identity's cloud is the reference.
        model, pose, depth_scene = scene
        calls = []
        apply = Pose.apply

        def counted(self, points):
            calls.append(self)
            return apply(self, points)

        monkeypatch.setattr(Pose, "apply", counted)
        pair_report(model, pose, self._estimate(pose), depth_scene.depth, cam96)
        assert len(calls) == 2 * len(model.symmetries)

    def test_projects_each_cloud_once(self, scene, cam96, monkeypatch):
        # The estimate once and each symmetry's cloud once, the identity's
        # being the reference: MSPD and both VSD splats share them.
        from crosspose import geometry, render

        model, pose, depth_scene = scene
        calls = []

        def counted(points, intrinsics):
            calls.append(len(points))
            return geometry.project(points, intrinsics)

        monkeypatch.setattr(metrics, "project", counted)
        monkeypatch.setattr(render, "project", counted)
        pair_report(model, pose, self._estimate(pose), depth_scene.depth, cam96)
        assert len(calls) == len(model.symmetries) + 1

    def test_splat_of_a_mismatched_projection_is_rejected(self, scene, cam96):
        from crosspose import render

        model, pose, _ = scene
        points = pose.apply(model.points)
        with pytest.raises(ValueError, match="projection of"):
            render.splat_depth(points, cam96, projection=project(points[1:], cam96))

    def test_errors_equal_the_public_functions_bitwise(self, scene, cam96):
        model, pose, depth_scene = scene
        est = self._estimate(pose)
        rep = pair_report(model, pose, est, depth_scene.depth, cam96)
        tols = [f * model.diameter_m for f in VSD_TOLERANCE_FRACTIONS]
        assert rep.mssd_error_m == mssd_error(model, pose, est)
        assert rep.mspd_error_px == mspd_error(model, pose, est, cam96)
        assert rep.add_error_m == add_error(model, pose, est)
        assert rep.add_error_m == add_result(model, pose, est).error
        vsd = vsd_error_set(model, pose, est, depth_scene.depth, cam96, tols)
        assert rep.vsd_errors == tuple(float(e) for e in vsd)
        assert rep.mssd_error_m > 0.0 and rep.add_error_m > 0.0


def _pose_every_symmetry(model, pose_true, pose_est):
    """The posing that applies every symmetry, the identity included."""

    def frozen(points):
        points.flags.writeable = False
        return points

    return metrics._Posed(
        est=frozen(pose_est.apply(model.points)),
        refs=tuple(
            frozen(pose_true.apply(sym.apply(model.points))) for sym in model.symmetries
        ),
        true=frozen(pose_true.apply(model.points)),
    )


def _signed_zero_model():
    points = make_model("blob", n_points=800, size=0.01, seed=5).points.copy()
    points[0] = -0.0
    points[1:40, 0] = -0.0
    points[40:80, 2] = -0.0
    return ObjectModel.from_points(points)


class TestIdentitySymmetryReusesTheReference:
    """A symmetry that is exactly the identity takes the reference cloud;
    every other symmetry is posed, and the report does not change."""

    _POSE = Pose(
        rotation_about_axis(np.array([1.0, 0.2, 0.0]), 0.7),
        np.array([0.0, 0.001, 0.5]),
    )

    @pytest.mark.parametrize(
        "model",
        [
            make_model("sphere", n_points=1500, size=0.02, seed=1),
            make_model("box", n_points=1500, size=0.03, cyclic_order=4, seed=2),
            make_model("cylinder", n_points=1500, size=0.03, cyclic_order=6, seed=3),
            make_model("blob", n_points=1500, size=0.01, cyclic_order=2, seed=4),
            _signed_zero_model(),
        ],
        ids=["sphere", "box", "cylinder", "blob", "signed-zero"],
    )
    def test_report_is_bit_equal_to_posing_every_symmetry(self, model, cam96, monkeypatch):
        from crosspose import render_scene

        pose = self._POSE
        est = TestPairReportPosesOnce._estimate(pose)
        depth = render_scene(model, pose, cam96, background_depth=0.8).depth
        posed = metrics._pose_model(model, pose, est)
        every = _pose_every_symmetry(model, pose, est)
        for got, want in zip((posed.est, *posed.refs, posed.true),
                             (every.est, *every.refs, every.true)):
            np.testing.assert_array_equal(got, want)
        assert posed.refs[0] is posed.true
        assert all(ref is not posed.true for ref in posed.refs[1:])
        rep = pair_report(model, pose, est, depth, cam96)
        monkeypatch.setattr(metrics, "_pose_model", _pose_every_symmetry)
        assert repr(rep) == repr(pair_report(model, pose, est, depth, cam96))

    @pytest.mark.parametrize(
        "near",
        [
            Pose(np.eye(3), np.array([0.0, 0.0, 1e-12])),
            Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 1e-12), np.zeros(3)),
        ],
        ids=["translated", "turned"],
    )
    def test_symmetry_near_the_identity_keeps_its_own_cloud(self, near):
        model = ObjectModel.from_points(
            make_model("blob", n_points=500, size=0.01, seed=6).points, (near,)
        )
        pose = self._POSE
        posed = metrics._pose_model(model, pose, pose)
        assert posed.refs[0] is not posed.true
        np.testing.assert_array_equal(
            posed.refs[0], pose.apply(near.apply(model.points))
        )


class TestAggregateReports:
    def _reports(self, rng, n=7):
        reps = []
        for _ in range(n):
            v, s, p = rng.random(3)
            reps.append(
                MetricReport(
                    vsd=v, mssd=s, mspd=p, add=float(rng.random() < 0.5),
                    miou=rng.random(),
                    mssd_error_m=0.0, mspd_error_px=0.0, add_error_m=0.0,
                    vsd_errors=(),
                )
            )
        return reps

    def test_aggregate_ar_is_mean_of_pair_ars(self, rng):
        reps = self._reports(rng)
        agg = aggregate_reports(reps)
        assert agg["count"] == len(reps)
        assert agg["ar"] == pytest.approx(
            math.fsum(r.ar for r in reps) / len(reps), abs=1e-15
        )

    def test_order_independent_bitwise(self, rng):
        reps = self._reports(rng, n=11)
        fwd = aggregate_reports(reps)
        rev = aggregate_reports(reps[::-1])
        assert fwd == rev

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_reports([])
