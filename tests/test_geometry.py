"""Tests for poses, pinhole projection, and object models."""

import ast
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from crosspose import (
    CameraIntrinsics,
    ObjectModel,
    Pose,
    compose,
    diameter,
    make_model,
    project,
    relative_pose,
    unproject,
)
from crosspose import geometry
from crosspose.config import derive_seed
from crosspose.geometry import _max_pairwise_sq, nearest_within
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


# A 32-pixel camera for contested renders and rows around the camera plane.
_CAM32 = CameraIntrinsics(fx=40.0, fy=40.0, cx=15.5, cy=15.5, width=32, height=32)


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
            out = compose(p, p.inverse())
            np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(out.translation, 0.0, atol=1e-12)

    def test_double_inverse_is_identity_map(self, rng):
        p = random_se3(rng)
        q = p.inverse().inverse()
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
        np.testing.assert_allclose(p.inverse().apply(p.apply(pts)), pts, atol=1e-9)

    @pytest.mark.parametrize("kind", ["sphere", "box", "cylinder", "blob"])
    def test_apply_equals_the_product_through_the_transpose_bitwise(self, kind, rng):
        pts = make_model(kind, n_points=3000, seed=5).points
        for _ in range(50):
            p = random_se3(rng)
            want = pts @ p.rotation.T + p.translation
            assert p.apply(pts).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("name", ["fx", "fy"])
    def test_rejects_infinite_focal(self, name):
        # An infinite focal length would back-project every pixel onto an
        # axis plane. A tiny finite one stays legal.
        focal = {"fx": 1.0, "fy": 1.0, name: np.inf}
        with pytest.raises(ValueError, match="^focal lengths must be finite and positive$"):
            CameraIntrinsics(**focal, cx=0.0, cy=0.0, width=8, height=8)
        CameraIntrinsics(**{**focal, name: 1e-300}, cx=0.0, cy=0.0, width=8, height=8)

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

    @pytest.mark.filterwarnings("error")
    def test_rows_around_the_camera_plane(self, rng):
        # z > 0, z == 0 (with x == 0 too, for 0/0), z == -0.0 and z < 0.
        pts = rng.uniform(-1.0, 1.0, size=(400, 3))
        pts[::5, 2] = 0.0
        pts[::15, :2] = 0.0
        pts[1::9, 2] = -0.0
        out = project(pts, _CAM32)
        front = pts[:, 2] > 0
        assert front.any() and (~front).any()
        np.testing.assert_array_equal(out.in_front, front)
        assert np.isnan(out.uv[~front]).all()
        for row, point in zip(out.uv[front], pts[front]):
            assert tuple(row) == _pinhole_oracle(point, _CAM32)
        u, v = out.uv[front].T
        in_image = np.zeros(len(pts), dtype=bool)
        in_image[front] = (u >= -0.5) & (u < 31.5) & (v >= -0.5) & (v < 31.5)
        assert in_image.any()
        np.testing.assert_array_equal(out.in_image, in_image)


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


def _splat_depth_lexsort(points, k):
    """The z-buffer as one stable three-key sort: within a pixel the smallest
    depth comes first, then the lowest index."""
    proj = project(points, k)
    visible = np.nonzero(proj.in_image)[0]
    uv = np.rint(proj.uv[visible]).astype(np.int64)
    z = points[visible, 2]
    lin = uv[:, 1] * k.width + uv[:, 0]
    order = np.lexsort((visible, z, lin))
    lin_sorted = lin[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = lin_sorted[1:] != lin_sorted[:-1]
    winners = order[first]
    depth = np.zeros((k.height, k.width))
    index = np.full((k.height, k.width), -1, dtype=np.int64)
    depth.ravel()[lin[winners]] = z[winners]
    index.ravel()[lin[winners]] = visible[winners]
    return depth, index


def _contested_cloud(seed):
    """2000-6000 points on ``_CAM32``: a crowded 6x6 patch, exact depth ties,
    copies of points at other indices, points at or behind the camera and
    points beside the image."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2000, 6001))
    pix = rng.integers(-4, 36, size=(n, 2)) + rng.uniform(-0.3, 0.3, size=(n, 2))
    pix[: n // 3] = rng.integers(12, 18, size=(n // 3, 2))  # many points per pixel
    z = rng.integers(1, 5, size=n) * 0.25  # few depths: many exact ties
    pts = np.column_stack(((pix - 15.5) * z[:, None] / 40.0, z))
    copies = rng.integers(0, n, size=n // 10)
    pts = np.vstack([pts, pts[copies]])[rng.permutation(n + len(copies))]
    pts[rng.random(len(pts)) < 0.05, 2] *= -1.0
    pts[rng.random(len(pts)) < 0.02, 2] = 0.0
    return pts


class TestSplatDepthTies:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_lexsort_z_buffer(self, seed):
        pts = _contested_cloud(seed)
        proj = project(pts, _CAM32)
        assert (pts[:, 2] <= 0).any() and (proj.in_front & ~proj.in_image).any()
        assert len(np.unique(pts, axis=0)) < len(pts)
        visible = np.flatnonzero(proj.in_image)
        lin = (np.rint(proj.uv[visible]) @ [1, _CAM32.width]).astype(np.int64)
        assert np.bincount(lin).max() >= 20

        depth, index = splat_depth(pts, _CAM32)
        want_depth, want_index = _splat_depth_lexsort(pts, _CAM32)
        assert depth.dtype == np.float64 and index.dtype == np.int64
        assert depth.tobytes() == want_depth.tobytes()
        assert index.tobytes() == want_index.tobytes()
        # Some pixel's winner shares its depth with another point there.
        tied = (pts[visible, 2] == depth.ravel()[lin]) & (visible != index.ravel()[lin])
        assert tied.any()


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
# Distances, diameter and object models
# ---------------------------------------------------------------------------


class TestSumSq:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_root_equals_linalg_norm_bit_for_bit(self, rng, dim):
        # Rows of one magnitude and rows whose components differ in
        # magnitude, from 1e-150 to 1e150: the squares stay finite, and
        # summing them in any other order moves some roots by an ulp.
        n = 20_000
        v = np.concatenate([
            rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1)),
            rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-150, 150, size=(n, dim)),
        ])
        expected = np.linalg.norm(v, axis=-1)
        np.testing.assert_array_equal(np.sqrt(geometry.sum_sq(v.T.copy())), expected)

        def one_buffer():
            # Every component after the first is yielded in one reused buffer.
            yield v[:, 0].copy()
            buffer = np.empty(len(v))
            for component in v.T[1:]:
                buffer[:] = component
                yield buffer

        np.testing.assert_array_equal(np.sqrt(geometry.sum_sq(one_buffer())), expected)


class TestDiameter:
    def test_two_points(self):
        assert diameter([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]) == pytest.approx(0.1)

    def test_unit_cube_is_sqrt3(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        assert diameter(corners) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_overflowing_cloud_rejected(self):
        # Squared distances of a 1e200 m cloud overflow to inf.
        with pytest.raises(ValueError, match="points must be finite and within"):
            diameter([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])

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


def _swept_past(rng):
    """Farthest-point sweeps from the first point bounce between (-1, 0, 0)
    and (1, 0, 0), 2 apart, and miss the pair 2.02 apart on the y axis; the
    small cluster around the mean falls to the centroid bound."""
    tips = [[-0.9, 0, 0], [-1.0, 0, 0], [1.0, 0, 0], [0, -1.01, 0], [0, 1.01, 0]]
    return np.vstack([tips, rng.normal(size=(500, 3)) * 0.1])


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
    "1 mm at 1e8 m": lambda rng: rng.normal(size=(700, 3)) * 1e-3 + 1e8,
    "sweeps miss the farthest pair": _swept_past,
    # Squared distances near the smallest subnormal: the search skips the
    # centroid bound, whose rounding the margin no longer covers there.
    "subnormal squares": lambda rng: _swept_past(rng) * 1e-162,
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

    def test_centroid_bound_leaves_few_points_to_the_cells(self, monkeypatch):
        # The cell search pays a Python loop per occupied cell; on a blob
        # the centroid bound leaves it a few dozen of 6000 points.
        model = make_model("blob", n_points=6000, seed=0)
        sizes = []
        cells = geometry._diameter_cells
        monkeypatch.setattr(
            geometry, "_diameter_cells", lambda p: (sizes.append(len(p)), cells(p))[1]
        )
        assert _max_pairwise_sq(model.points) == _max_pairwise_sq_oracle(model.points)
        assert len(sizes) == 1 and sizes[0] <= 200

    @pytest.mark.parametrize(
        "flags",
        [
            dict(kind="blob", n_points=6000, size=0.01),
            dict(kind="blob", n_points=3000, size=0.01),
            dict(kind="cylinder", n_points=3000, size=0.03, cyclic_order=4),
        ],
        ids=["tour", "contaminated", "symmetric-eval"],
    )
    def test_equals_all_pairs_on_the_bench_models(self, flags):
        model = make_model(**flags, seed=derive_seed(7, "synth"))
        assert _max_pairwise_sq(model.points) == _max_pairwise_sq_oracle(model.points)

    def test_memory_stays_bounded_on_two_dense_clusters(self, rng):
        # All-pairs scoring in 2M-entry chunks peaks near 128 MB here; the
        # pruned search scores at most one grid cell against the
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


@pytest.fixture
def searches(monkeypatch):
    """The clouds ``_max_pairwise_sq`` searches, starting from an empty memo."""
    geometry._memo_max_pairwise_sq.cache_clear()
    seen = []

    def counting(points):
        seen.append(points)
        return _max_pairwise_sq(points)

    monkeypatch.setattr(geometry, "_max_pairwise_sq", counting)
    yield seen
    geometry._memo_max_pairwise_sq.cache_clear()


class TestDiameterMemo:
    """``diameter`` searches each distinct float64 cloud once per process."""

    def test_copy_view_and_float32_share_one_search(self, rng, searches):
        pts = rng.normal(size=(400, 3)).astype(np.float32).astype(np.float64)
        wide = np.zeros((400, 6))
        wide[:, ::2] = pts
        values = {
            diameter(pts),
            diameter(pts.copy()),
            diameter(wide[:, ::2]),  # a strided view
            diameter(pts.astype(np.float32)),
            diameter(pts.tolist()),
        }
        assert len(searches) == 1
        assert values == {math.sqrt(_max_pairwise_sq(pts))}

    def test_one_ulp_change_misses(self, rng, searches):
        pts = rng.normal(size=(400, 3))
        moved = pts.copy()
        moved[17, 1] = np.nextafter(moved[17, 1], np.inf)
        diameter(pts)
        assert diameter(moved) == math.sqrt(_max_pairwise_sq(moved))
        assert len(searches) == 2
        assert np.array_equal(searches[1], moved)

    def test_same_value_as_a_fresh_search_on_every_kernel_cloud(self, rng, searches):
        for name in sorted(_KERNEL_CLOUDS):
            pts = np.asarray(_KERNEL_CLOUDS[name](rng), dtype=np.float64)
            first, again = diameter(pts), diameter(pts[::-1][::-1])
            assert first == again == math.sqrt(_max_pairwise_sq_oracle(pts))

    def test_declared_diameter_still_checked_after_a_hit(self, rng, searches):
        pts = rng.normal(size=(300, 3))
        exact = ObjectModel.from_points(pts).diameter_m
        with pytest.raises(ValueError, match="declared diameter"):
            ObjectModel(points=pts.copy(), diameter_m=exact + 2e-9)
        assert len(searches) == 1

    def test_entries_never_exceed_the_bound(self, rng, searches):
        bound = geometry._DIAMETER_MEMO_ENTRIES
        pts = rng.normal(size=(50, 3))
        for i in range(bound + 3):
            diameter(pts + i)
            assert geometry._memo_max_pairwise_sq.cache_info().currsize <= bound
        assert geometry._memo_max_pairwise_sq.cache_info().currsize == bound
        diameter(pts + (bound + 2))  # the newest entry stays
        diameter(pts)  # the oldest went
        assert len(searches) == bound + 4


    def test_threads_sharing_the_memo_get_exact_values(self, rng):
        # eval's worker threads share the memo: more threads than cores,
        # a short switch interval, more clouds than entries.
        clouds = [rng.normal(size=(200, 3)) for _ in range(geometry._DIAMETER_MEMO_ENTRIES + 2)]
        expected = [math.sqrt(_max_pairwise_sq(c)) for c in clouds]
        geometry._memo_max_pairwise_sq.cache_clear()
        wrong = []

        def work(seed):
            order = np.random.default_rng(seed).integers(0, len(clouds), size=60)
            wrong.extend(int(i) for i in order if diameter(clouds[i]) != expected[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert geometry._memo_max_pairwise_sq.cache_info().currsize <= len(clouds) - 2
        geometry._memo_max_pairwise_sq.cache_clear()


class TestDiameterCells:
    """The cell partition of the pruned search on degenerate clouds."""

    @pytest.mark.parametrize(
        "name, cloud",
        [
            ("coincident", lambda rng: np.tile([0.3, -0.2, 1.0], (200, 1))),
            ("collinear", lambda rng: np.outer(rng.uniform(-2.0, 3.0, 400), [0.5, -1.0, 2.0])),
            ("planar", lambda rng: rng.normal(size=(400, 2)) @ [[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]),
            # Far more copies than a cell's share of points.
            ("duplicates", lambda rng: np.repeat(rng.normal(size=(3, 3)), 300, axis=0)),
            ("duplicates and spread", lambda rng: np.vstack(
                [np.tile([1.0, 1.0, 1.0], (500, 1)), rng.normal(size=(100, 3))]
            )),
        ],
    )
    def test_equals_pairwise_loops(self, name, cloud, rng):
        pts = np.asarray(cloud(rng), dtype=np.float64)
        assert diameter(pts) == pytest.approx(_diameter_oracle(np.unique(pts, axis=0)), abs=1e-12)
        assert _max_pairwise_sq(pts) == _max_pairwise_sq_oracle(pts)

    def test_occupied_cells_hold_about_the_target_each(self, rng):
        for pts in (
            rng.normal(size=(6000, 3)),
            np.outer(np.linspace(-1.0, 1.0, 6000), [1.0, 2.0, -1.0]),
            make_model("cylinder", n_points=3000, size=0.03, cyclic_order=4, seed=3).points,
        ):
            starts = geometry._diameter_cells(pts)[2]
            assert len(pts) / len(starts) <= geometry._DIAMETER_CELL_POINTS
            assert len(pts) / len(starts) > geometry._DIAMETER_CELL_POINTS / 8

    @pytest.mark.parametrize(
        "cloud",
        [
            lambda rng: make_model("blob", n_points=6000, size=0.05, seed=7).points,
            lambda rng: make_model(
                "cylinder", n_points=3000, size=0.03, cyclic_order=4, seed=3
            ).points,
            lambda rng: np.repeat(rng.normal(size=(5, 3)), 400, axis=0),
        ],
        ids=["blob", "cylinder", "repeated"],
    )
    def test_level_equals_a_bisection_over_cell_grids(self, cloud, rng):
        pts = cloud(rng)
        extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        need = len(pts) / geometry._DIAMETER_CELL_POINTS
        coarse, fine = 0, geometry._GRID_CELLS.bit_length() - 1
        while coarse < fine:
            level = (coarse + fine) // 2
            if len(geometry._cell_grid(pts, extent / 2**level)[2]) >= need:
                fine = level
            else:
                coarse = level + 1
        order, keys, starts, (origin, edge, shape) = geometry._diameter_cells(pts)
        assert edge == extent / 2**coarse
        want = geometry._cell_grid(pts, extent / 2**coarse)
        got = (order, keys, starts, origin, shape)
        for part, exp in zip(got, (*want[:3], want[3][0], want[3][2])):
            np.testing.assert_array_equal(part, exp)

    @pytest.mark.parametrize(
        "name", ["sphere", "box", "cylinder", "blob", *sorted(_KERNEL_CLOUDS)]
    )
    def test_grid_equals_the_cell_grid_at_its_edge(self, name, rng):
        if name in _KERNEL_CLOUDS:
            pts = np.asarray(_KERNEL_CLOUDS[name](rng), dtype=np.float64)
        else:
            pts = make_model(name, n_points=1500, seed=3).points
        order, keys, starts, (origin, edge, shape) = geometry._diameter_cells(pts)
        want = geometry._cell_grid(pts, edge)
        got = (order, keys, starts, origin, edge, shape)
        for part, exp in zip(got, (*want[:3], *want[3])):
            np.testing.assert_array_equal(part, exp)

    def test_large_collinear_cloud_stays_fast(self):
        # 1e5 points on a line: the cells cut it into about 1600 blocks, and
        # only the blocks at its two ends reach the maximum.
        pts = np.outer(np.linspace(-1.0, 1.0, 100_000), [1.0, 2.0, -1.0])
        start = time.perf_counter()
        value = _max_pairwise_sq(pts)
        assert time.perf_counter() - start < 10.0
        assert value == float(np.sum((pts[-1] - pts[0]) ** 2))


def test_two_threads_search_a_shared_cloud_once(rng, searches, monkeypatch):
    # The first caller holds the memo while it searches, so the second
    # waits for the entry instead of searching the same cloud again.
    def slow(points):
        time.sleep(0.2)
        return searches_of(points)

    searches_of = geometry._max_pairwise_sq
    monkeypatch.setattr(geometry, "_max_pairwise_sq", slow)
    pts = rng.normal(size=(300, 3))
    barrier = threading.Barrier(2)
    values = []

    def work():
        barrier.wait()
        values.append(diameter(pts))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(searches) == 1
    assert values == [math.sqrt(_max_pairwise_sq_oracle(pts))] * 2


def _nearest_within_oracle(reference, queries, radius):
    """Every pair scored with the search's formula; ties take the lowest index."""
    d = queries[:, None, :] - reference[None, :, :]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    with np.errstate(over="ignore"):  # queries near 1e300 score inf
        dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
    dist[dist > radius] = np.inf
    best = dist.min(axis=1, initial=np.inf)
    idx = np.where(np.isinf(best), -1, dist.argmin(axis=1) if dist.size else -1)
    return best, idx


class TestNearestWithin:
    """The cell-grid radius search equals an all-pairs search."""

    def _check(self, reference, queries, radius):
        dist, idx = nearest_within(reference, queries, radius)
        exp_dist, exp_idx = _nearest_within_oracle(
            np.asarray(reference, dtype=np.float64).reshape(-1, 3),
            np.asarray(queries, dtype=np.float64).reshape(-1, 3), radius,
        )
        np.testing.assert_array_equal(dist, exp_dist)
        np.testing.assert_array_equal(idx, exp_idx)
        assert idx.dtype == np.int64
        return dist, idx

    def test_equals_all_pairs_on_random_clouds(self, rng):
        for _ in range(30):
            ref = rng.normal(size=(int(rng.integers(1, 400)), 3)) * rng.uniform(1e-3, 1e2)
            queries = ref[rng.integers(0, len(ref), 300)] + rng.normal(size=(300, 3)) * 0.05
            radius = float(rng.uniform(0.01, 0.3)) * np.ptp(ref) + 1e-9
            self._check(ref, queries, radius)

    def test_exact_ties_take_lowest_index(self):
        # A query at a cell centre ties with the 8 corners; a doubled cloud
        # ties every query with its own copy at distance zero.
        grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        _, idx = self._check(grid[::-1], grid[:125] + 0.5, 1.0)
        assert np.all(idx >= 0)
        cylinder = make_model("cylinder", n_points=600, size=0.03, cyclic_order=4).points
        doubled = np.concatenate([cylinder, cylinder])
        dist, idx = self._check(doubled, doubled, 0.002)
        assert np.array_equal(idx, np.tile(np.arange(len(cylinder)), 2))
        assert np.all(dist == 0.0)

    def test_point_exactly_at_the_radius_is_kept(self):
        ref = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        queries = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, -0.5], [3.0, 4.0, 5.0], [3.0, 4.5, 0.0]])
        dist, idx = self._check(ref, queries, 0.5)
        assert dist.tolist() == [0.5, 0.5, np.inf, 0.5]
        assert idx.tolist() == [0, 0, -1, 1]
        dist, idx = self._check(ref, queries, np.nextafter(0.5, 0.0))
        assert idx.tolist() == [-1, -1, -1, -1]

    def test_nothing_within_the_radius(self, rng):
        ref = rng.normal(size=(50, 3))
        dist, idx = self._check(ref, ref + 10.0, 1.0)
        assert np.all(np.isinf(dist)) and np.all(idx == -1)
        dist, idx = nearest_within(np.zeros((0, 3)), ref, 1.0)
        assert np.all(np.isinf(dist)) and np.all(idx == -1)
        dist, idx = nearest_within(ref, np.zeros((0, 3)), 1.0)
        assert dist.shape == idx.shape == (0,)

    def test_queries_far_outside_the_cloud(self, rng):
        ref = rng.normal(size=(200, 3))
        far = np.array([[1e6, 0.0, 0.0], [-1e300, 1e300, 0.0], [0.0, 0.0, -1e-300], [5.0, 5.0, 5.0]])
        queries = np.vstack([far, ref[:10] + 1e-3])
        with np.errstate(over="raise"):  # far queries meet no candidate
            nearest_within(ref, queries, 0.1)
        self._check(ref, queries, 0.1)

    def test_duplicate_points(self, rng):
        ref = np.repeat(rng.normal(size=(20, 3)), 50, axis=0)
        queries = ref[::7] + rng.normal(size=ref[::7].shape) * 0.1
        self._check(ref, queries, 0.3)
        self._check(ref[::-1], queries, 5.0)  # every query reaches a thousand candidates

    def test_tiny_radius_over_a_kilometre_cloud(self, rng):
        # The cell edge stays above the extent over 2**20, so cell keys
        # cannot overflow int64, and the search stays exact.
        ref = rng.uniform(-500.0, 500.0, size=(3000, 3))
        queries = np.vstack([ref[:500] + 1e-10, ref[500:1000] + 2e-9, [[1e3, 1e3, 1e3]]])
        with np.errstate(all="raise"):
            dist, idx = self._check(ref, queries, 1e-9)
        assert np.array_equal(idx[:500], np.arange(500))
        assert np.all(idx[500:] == -1)

    def test_agrees_with_a_kd_tree_within_the_radius(self, rng):
        ref = make_model("blob", n_points=2000, size=0.08, seed=4).points
        queries = ref + rng.normal(size=ref.shape) * 1e-3
        dist, idx = nearest_within(ref, queries, 0.002)
        kd_dist, kd_idx = cKDTree(ref).query(queries)
        keep = kd_dist <= 0.002
        assert np.array_equal(dist <= 0.002, keep)
        assert np.array_equal(dist[keep], kd_dist[keep])
        assert np.array_equal(idx[keep], kd_idx[keep])

    def test_rejects_bad_radius_and_shapes(self):
        for radius in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                nearest_within(np.zeros((2, 3)), np.zeros((2, 3)), radius)
        with pytest.raises(ValueError):
            nearest_within(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)

    def test_memory_stays_bounded_on_many_queries(self, rng):
        # 2e5 queries among 40 points packed into a few cells: about 8e6
        # candidate pairs, scored in blocks of bounded size.
        ref = rng.uniform(0.0, 1.5, size=(40, 3))
        queries = rng.uniform(0.0, 1.5, size=(200_000, 3))
        tracemalloc.start()
        try:
            dist, idx = nearest_within(ref, queries, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        sample = rng.integers(0, len(queries), 500)
        exp_dist, exp_idx = _nearest_within_oracle(ref, queries[sample], 1.0)
        assert np.array_equal(dist[sample], exp_dist)
        assert np.array_equal(idx[sample], exp_idx)


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

    @pytest.mark.parametrize("declared", ["wrong", "nan", "inf"])
    def test_wrong_diameter_rejected(self, declared, rng):
        # NaN fails every comparison, so a NaN diameter must fail the check too.
        pts = rng.normal(size=(10, 3))
        value = {"wrong": diameter(pts) + 1.0, "nan": math.nan, "inf": math.inf}[declared]
        with pytest.raises(ValueError, match=f"declared diameter {value!r} differs"):
            ObjectModel(points=pts, diameter_m=value)

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


def _scipy_imports():
    """``(module file, enclosing function or None)`` of every scipy import."""
    package = Path(__file__).resolve().parents[1] / "src" / "crosspose"
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            found.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    return found


def test_scipy_is_imported_only_inside_add_error():
    # Only ADD-S of symmetric models needs a nearest point at any distance;
    # every other stage runs without loading scipy.
    assert _scipy_imports() == {("metrics.py", "add_error")}


def test_cli_and_five_stages_leave_scipy_unloaded(tmp_path):
    script = """
import sys
from crosspose.cli import main
assert "scipy" not in sys.modules, "import crosspose.cli"
for argv in (
    ["synth", "--out", "data", "--pairs", "4", "--seed", "7"],
    ["gen-matches", "--pairs", "data/pairs.json", "--out-dir", "matches"],
    ["register", "--pairs", "data/pairs.json", "--out-dir", "poses"],
    ["eval", "--pairs", "data/pairs.json", "--predictions", "poses", "--out", "report.json"],
    ["losses", "--pairs", "data/pairs.json", "--matches", "matches", "--out", "losses.json"],
):
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
"""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
