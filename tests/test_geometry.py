"""Tests for poses, pinhole projection, and object models."""

import math
import tracemalloc

import numpy as np
import pytest

from crosspose import (
    CameraIntrinsics,
    ObjectModel,
    Pose,
    compose,
    diameter,
    inverse,
    make_model,
    project,
    relative_pose,
    unproject,
)
from crosspose.geometry import _max_pairwise_sq
from crosspose.render import splat_depth
from conftest import random_rotation_matrix, random_se3

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _diameter_oracle(points):
    """O(N^2) pairwise maximum, plain loops, no shortcuts."""
    best = 0.0
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(points[i], points[j])
            if d > best:
                best = d
    return best


def _max_pairwise_sq_oracle(points):
    """All-pairs squared maximum, chunked, with the per-pair formula of diameter()."""
    best = 0.0
    n = len(points)
    chunk = max(1, min(n, 2_000_000 // max(n, 1) + 1))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        diff = block[:, None, :] - points[None, :, :]
        sq = np.sum(diff * diff, axis=-1)
        best = max(best, float(sq.max()))
    return best


def _pinhole_oracle(point, k):
    """Scalar pinhole projection computed with plain floats."""
    x, y, z = (float(c) for c in point)
    return (k.fx * x / z + k.cx, k.fy * y / z + k.cy)


# Unit cube centered at (0, 0, 2), fx = fy = 100, cx = cy = 32.
# Front face (z = 1.5): 32 -/+ 100*0.5/1.5 = 32 -/+ 100/3 -> -4/3 and 196/3.
# Back face  (z = 2.5): 32 -/+ 100*0.5/2.5 = 32 -/+ 20   -> 12 and 52.
_CUBE_CAM = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
_CUBE_CORNERS = np.array(
    [
        [-0.5, -0.5, 1.5],
        [0.5, -0.5, 1.5],
        [-0.5, 0.5, 1.5],
        [0.5, 0.5, 1.5],
        [-0.5, -0.5, 2.5],
        [0.5, -0.5, 2.5],
        [-0.5, 0.5, 2.5],
        [0.5, 0.5, 2.5],
    ]
)
_CUBE_EXPECTED = np.array(
    [
        [-4.0 / 3.0, -4.0 / 3.0],
        [196.0 / 3.0, -4.0 / 3.0],
        [-4.0 / 3.0, 196.0 / 3.0],
        [196.0 / 3.0, 196.0 / 3.0],
        [12.0, 12.0],
        [52.0, 12.0],
        [12.0, 52.0],
        [52.0, 52.0],
    ]
)


# ---------------------------------------------------------------------------
# Pose algebra
# ---------------------------------------------------------------------------


class TestPose:
    def test_identity_compose(self):
        ident = Pose.identity()
        out = compose(ident, ident)
        np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(out.translation, 0.0, atol=1e-15)

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(20):
            p = random_se3(rng)
            out = compose(p, inverse(p))
            np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(out.translation, 0.0, atol=1e-12)

    def test_double_inverse_is_identity_map(self, rng):
        p = random_se3(rng)
        q = inverse(inverse(p))
        np.testing.assert_allclose(q.rotation, p.rotation, atol=1e-12)
        np.testing.assert_allclose(q.translation, p.translation, atol=1e-12)

    def test_compose_associative(self, rng):
        a, b, c = (random_se3(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-12)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-12)

    def test_compose_applies_right_argument_first(self, rng):
        a, b = random_se3(rng), random_se3(rng)
        pts = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            compose(a, b).apply(pts), a.apply(b.apply(pts)), atol=1e-12
        )

    def test_relative_pose_maps_anchor_cloud_onto_query_cloud(self, rng):
        for _ in range(10):
            pose_a, pose_q = random_se3(rng), random_se3(rng)
            obj = rng.normal(size=(50, 3))
            rel = relative_pose(pose_a, pose_q)
            np.testing.assert_allclose(
                rel.apply(pose_a.apply(obj)), pose_q.apply(obj), atol=1e-9
            )

    def test_apply_then_inverse_returns_original(self, rng):
        p = random_se3(rng)
        pts = rng.normal(size=(100, 3))
        np.testing.assert_allclose(inverse(p).apply(p.apply(pts)), pts, atol=1e-9)

    def test_matrix_is_homogeneous_form(self, rng):
        p = random_se3(rng)
        m = p.matrix()
        assert m.shape == (4, 4)
        np.testing.assert_array_equal(m[:3, :3], p.rotation)
        np.testing.assert_array_equal(m[:3, 3], p.translation)
        np.testing.assert_array_equal(m[3], [0, 0, 0, 1])

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            Pose(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(refl, np.zeros(3))

    def test_rejects_nonfinite_translation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.array([0.0, np.nan, 0.0]))


# ---------------------------------------------------------------------------
# Camera model
# ---------------------------------------------------------------------------


class TestCameraIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=8, height=8)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=8.0, cy=0.0, width=8, height=8)


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        out = project([[0.0, 0.0, 1.0]], k)
        np.testing.assert_allclose(out.uv[0], [320.0, 240.0])
        assert out.in_front[0] and out.in_image[0]

    def test_point_behind_camera_is_flagged(self):
        k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        out = project([[0.0, 0.0, -1.0]], k)
        assert not out.in_front[0]
        assert not out.in_image[0]
        assert np.isnan(out.uv[0]).all()
        assert out.num_behind == 1

    def test_unit_cube_matches_hand_computed_pixels(self):
        out = project(_CUBE_CORNERS, _CUBE_CAM)
        np.testing.assert_allclose(out.uv, _CUBE_EXPECTED, atol=1e-12)
        for pt, exp in zip(_CUBE_CORNERS, _CUBE_EXPECTED):
            np.testing.assert_allclose(_pinhole_oracle(pt, _CUBE_CAM), exp, atol=1e-12)

    def test_out_of_image_point_flagged_but_not_clamped(self):
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
        out = project([[10.0, 0.0, 1.0]], k)
        assert out.in_front[0]
        assert not out.in_image[0]
        np.testing.assert_allclose(out.uv[0], [1032.0, 32.0])


# Inputs with nothing to draw on ``cam64``: no points, all at or behind the
# camera, all in front but beside the image.
_NOTHING_VISIBLE = {
    "empty": np.zeros((0, 3)),
    "behind": np.array([[0.0, 0.0, -1.0], [0.1, 0.0, 0.0]]),
    "outside": np.array([[10.0, 0.0, 1.0], [0.0, -1.0, 2.0]]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_NOTHING_VISIBLE))
class TestNothingVisible:
    def test_project_flags_every_point(self, case, cam64):
        pts = _NOTHING_VISIBLE[case]
        out = project(pts, cam64)
        assert out.uv.shape == (len(pts), 2)
        assert out.in_image.shape == (len(pts),)
        assert not out.in_image.any()
        np.testing.assert_array_equal(out.in_front, pts[:, 2] > 0)
        assert np.isnan(out.uv[~out.in_front]).all()
        assert np.isfinite(out.uv[out.in_front]).all()

    def test_splat_depth_returns_empty_maps(self, case, cam64):
        depth, index = splat_depth(_NOTHING_VISIBLE[case], cam64)
        assert depth.dtype == np.float64 and index.dtype == np.int64
        np.testing.assert_array_equal(depth, np.zeros((64, 64)))
        np.testing.assert_array_equal(index, np.full((64, 64), -1))


class TestUnproject:
    def test_principal_point_pixel(self):
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=3.0, cy=2.0, width=8, height=8)
        depth = np.zeros((8, 8))
        depth[2, 3] = 1.0  # row = cy, col = cx
        cloud = unproject(depth, k)
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(cloud.pixels[0], [3, 2])

    def test_all_zero_depth_gives_empty_cloud(self, cam64):
        cloud = unproject(np.zeros((64, 64)), cam64)
        assert len(cloud) == 0

    def test_mask_filters_pixels(self, cam64):
        depth = np.full((64, 64), 2.0)
        mask = np.zeros((64, 64), dtype=bool)
        mask[10:12, 20:22] = True
        cloud = unproject(depth, cam64, mask)
        assert len(cloud) == 4

    def test_project_unproject_round_trip_hits_source_pixels(self, cam64, rng):
        depth = rng.uniform(0.5, 3.0, size=(64, 64))
        depth[rng.random(size=(64, 64)) < 0.3] = 0.0
        cloud = unproject(depth, cam64)
        out = project(cloud.points, cam64)
        assert out.in_front.all()
        err = np.abs(out.uv - cloud.pixels)
        assert err.max() < 0.5

    def test_round_trip_depth_values_exact(self, cam64, rng):
        depth = rng.uniform(0.5, 3.0, size=(64, 64))
        cloud = unproject(depth, cam64)
        np.testing.assert_allclose(
            cloud.points[:, 2], depth[cloud.pixels[:, 1], cloud.pixels[:, 0]]
        )

    def test_rejects_negative_depth(self, cam64):
        depth = np.zeros((64, 64))
        depth[0, 0] = -1.0
        with pytest.raises(ValueError):
            unproject(depth, cam64)

    def test_rejects_shape_mismatch(self, cam64):
        with pytest.raises(ValueError):
            unproject(np.zeros((32, 32)), cam64)


# ---------------------------------------------------------------------------
# Diameter and object models
# ---------------------------------------------------------------------------


class TestDiameter:
    def test_two_points(self):
        assert diameter([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]) == pytest.approx(0.1)

    def test_unit_cube_is_sqrt3(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        assert diameter(corners) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_matches_brute_force_on_random_cloud(self, rng):
        pts = rng.normal(size=(500, 3))
        assert diameter(pts) == pytest.approx(_diameter_oracle(pts), abs=1e-12)

    def test_hull_path_matches_brute_force(self, rng):
        pts = rng.normal(size=(10_001, 3))
        sub = pts[rng.choice(len(pts), size=400, replace=False)]
        full = diameter(pts)
        assert full >= _diameter_oracle(sub) - 1e-12
        brute = float(
            np.sqrt(max(np.sum((pts[i] - pts) ** 2, axis=1).max() for i in range(len(pts))))
        )
        assert full == brute

    def test_invariant_under_rigid_transform(self, rng):
        pts = rng.normal(size=(200, 3))
        moved = random_se3(rng).apply(pts)
        assert diameter(moved) == pytest.approx(diameter(pts), abs=1e-9)

    def test_collinear_cloud_still_exact(self):
        t = np.linspace(0.0, 1.0, 50)
        pts = np.column_stack([t, 2 * t, -t])
        assert diameter(pts) == pytest.approx(math.sqrt(6.0), abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            diameter([[0.0, 0.0, 0.0]])


def _sphere_shell(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _two_clusters(rng, n):
    """Two dense far-apart clusters of coarse-grid points: many ties and copies."""
    pts = rng.integers(0, 10, size=(n, 3)) * 1e-3
    pts[n // 2 :] += [1.0, 0.5, 0.25]
    return pts


_KERNEL_CLOUDS = {
    "two points": lambda rng: np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]]),
    "duplicates": lambda rng: np.repeat(rng.normal(size=(7, 3)), 40, axis=0),
    "all one point": lambda rng: np.tile([0.25, -1.0, 3.0], (50, 1)),
    "rounded with ties": lambda rng: np.round(rng.normal(size=(800, 3)), 1),
    "collinear": lambda rng: np.outer(rng.uniform(-1.0, 1.0, 300), [1.0, 2.0, -1.0]),
    "flat": lambda rng: np.column_stack([rng.normal(size=(600, 2)), np.zeros(600)]),
    "sphere shell": lambda rng: _sphere_shell(rng, 1500),
    "cluster plus outlier": lambda rng: np.vstack(
        [rng.normal(size=(900, 3)) * 1e-3, [[5.0, -3.0, 2.0]]]
    ),
    "far from origin": lambda rng: rng.normal(size=(700, 3)) * 1e-3 + 1e3,
    "two dense clusters": lambda rng: _two_clusters(rng, 2000),
}


class TestMaxPairwiseSq:
    """The pruned search returns exactly the float of the all-pairs search."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_CLOUDS))
    def test_equals_all_pairs_on_special_clouds(self, name, rng):
        pts = np.asarray(_KERNEL_CLOUDS[name](rng), dtype=np.float64)
        expected = _max_pairwise_sq_oracle(pts)
        assert _max_pairwise_sq(pts) == expected
        assert diameter(pts) == math.sqrt(expected)

    @pytest.mark.parametrize(
        "kind, cyclic_order",
        [("sphere", 1), ("box", 1), ("cylinder", 1), ("cylinder", 4), ("blob", 1)],
    )
    def test_equals_all_pairs_on_synthetic_models(self, kind, cyclic_order):
        model = make_model(kind, n_points=1500, cyclic_order=cyclic_order, seed=3)
        expected = _max_pairwise_sq_oracle(model.points)
        assert _max_pairwise_sq(model.points) == expected
        assert model.diameter_m == math.sqrt(expected)

    def test_equals_all_pairs_on_random_clouds(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 400))
            pts = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e3)
            assert _max_pairwise_sq(pts) == _max_pairwise_sq_oracle(pts)

    def test_memory_stays_bounded_on_two_dense_clusters(self, rng):
        # All-pairs scoring in 2M-entry chunks peaks near 128 MB here; the
        # pruned search scores at most one kd-tree leaf against the
        # candidates at a time.
        pts = _two_clusters(rng, 8000)
        tracemalloc.start()
        try:
            value = _max_pairwise_sq(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        # Copies of a point do not change the maximum; the oracle skips them.
        assert value == _max_pairwise_sq_oracle(np.unique(pts, axis=0))


class TestObjectModel:
    def test_from_points_computes_diameter(self, rng):
        pts = rng.normal(size=(100, 3))
        model = ObjectModel.from_points(pts)
        assert model.diameter_m == pytest.approx(_diameter_oracle(pts), abs=1e-12)
        assert len(model.symmetries) == 1
        assert not model.is_symmetric

    def test_points_are_a_read_only_copy(self, rng):
        pts = rng.normal(size=(20, 3))
        model = ObjectModel(points=pts, diameter_m=diameter(pts))
        with pytest.raises(ValueError):
            model.points[0, 0] = 100.0
        pts[0, 0] = 100.0  # the caller's array stays writeable and separate
        assert model.points[0, 0] != 100.0
        assert ObjectModel.from_points(pts).points.flags.writeable is False

    def test_wrong_diameter_rejected(self, rng):
        pts = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            ObjectModel(points=pts, diameter_m=diameter(pts) + 1.0)

    def test_symmetry_list_must_include_identity(self, rng):
        pts = rng.normal(size=(10, 3))
        quarter = Pose(
            np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3)
        )
        with pytest.raises(ValueError):
            ObjectModel(points=pts, diameter_m=diameter(pts), symmetries=(quarter,))

    def test_empty_symmetries_rejected(self, rng):
        pts = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            ObjectModel(points=pts, diameter_m=diameter(pts), symmetries=())
