"""Tests for ground-truth match generation between two annotated views."""

import numpy as np
import pytest

from crosspose import (
    CameraIntrinsics,
    EmptyMask,
    GtPair,
    Pose,
    accept_pair,
    generate_gt_matches,
    make_model,
    random_pose,
    render_scene,
    unproject,
)
from crosspose.matchgen import MIN_MATCHES

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _alignment_errors(pair, depth_a, depth_q, cam_a, cam_q):
    """Re-unproject every emitted pixel pair and measure alignment error.

    This is the generation rule restated from scratch: back-project each
    reported pixel, carry the anchor point with the relative pose, and
    return the Euclidean gap to its partner.
    """
    errs = []
    for (ua, va), (uq, vq) in zip(pair.anchor, pair.query):
        za = float(depth_a[va, ua])
        zq = float(depth_q[vq, uq])
        pa = np.array(
            [za * (ua - cam_a.cx) / cam_a.fx, za * (va - cam_a.cy) / cam_a.fy, za]
        )
        pq = np.array(
            [zq * (uq - cam_q.cx) / cam_q.fx, zq * (vq - cam_q.cy) / cam_q.fy, zq]
        )
        moved = pair.relative.rotation @ pa + pair.relative.translation
        errs.append(float(np.linalg.norm(moved - pq)))
    return np.array(errs)


def _flat_scene(shape=(16, 16), z=1.0):
    depth = np.full(shape, z)
    mask = np.zeros(shape, dtype=bool)
    mask[4:12, 4:12] = True
    return depth, mask


_TINY_CAM = CameraIntrinsics(fx=10.0, fy=10.0, cx=8.0, cy=8.0, width=16, height=16)


# ---------------------------------------------------------------------------
# generate_gt_matches
# ---------------------------------------------------------------------------


class TestGenerateGtMatches:
    def test_identity_pair_matches_every_masked_pixel_to_itself(self):
        depth, mask = _flat_scene()
        pair = generate_gt_matches(
            depth, depth, mask, mask, _TINY_CAM, _TINY_CAM,
            Pose.identity(), Pose.identity(),
        )
        expected = unproject(depth, _TINY_CAM, mask).pixels
        assert len(pair) == mask.sum()
        np.testing.assert_array_equal(pair.anchor, expected)
        np.testing.assert_array_equal(pair.query, expected)

    def test_translation_beyond_radius_yields_zero_matches(self):
        depth, mask = _flat_scene()
        # Identical depth in both views, but the annotations claim the
        # object moved 5 mm: every aligned point lands 5 mm off.
        pose_q = Pose(np.eye(3), np.array([0.005, 0.0, 0.0]))
        pair = generate_gt_matches(
            depth, depth, mask, mask, _TINY_CAM, _TINY_CAM,
            Pose.identity(), pose_q,
        )
        assert len(pair) == 0

    def test_translation_within_radius_keeps_matches(self):
        depth, mask = _flat_scene()
        pose_q = Pose(np.eye(3), np.array([0.0015, 0.0, 0.0]))
        pair = generate_gt_matches(
            depth, depth, mask, mask, _TINY_CAM, _TINY_CAM,
            Pose.identity(), pose_q,
        )
        assert len(pair) == mask.sum()

    def test_empty_anchor_mask_raises(self):
        depth, mask = _flat_scene()
        with pytest.raises(EmptyMask):
            generate_gt_matches(
                depth, depth, np.zeros_like(mask), mask, _TINY_CAM, _TINY_CAM,
                Pose.identity(), Pose.identity(),
            )

    def test_empty_query_mask_raises(self):
        depth, mask = _flat_scene()
        with pytest.raises(EmptyMask):
            generate_gt_matches(
                depth, depth, mask, np.zeros_like(mask), _TINY_CAM, _TINY_CAM,
                Pose.identity(), Pose.identity(),
            )

    def test_depth_holes_are_skipped(self):
        depth, mask = _flat_scene()
        holey = depth.copy()
        holey[5, 5] = 0.0
        pair = generate_gt_matches(
            holey, depth, mask, mask, _TINY_CAM, _TINY_CAM,
            Pose.identity(), Pose.identity(),
        )
        assert len(pair) == mask.sum() - 1
        assert not ((pair.anchor == [5, 5]).all(axis=1)).any()

    def test_equidistant_neighbors_resolve_to_lowest_index(self):
        # One pixel spans 1 mm at 1 m depth, so both query points lie
        # within NN_RADIUS of the anchor point.
        k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=3.0, cy=3.0, width=8, height=8)
        anchor_depth = np.zeros((8, 8))
        anchor_depth[3, 3] = 1.0  # unprojects to (0, 0, 1)
        query_depth = np.zeros((8, 8))
        query_depth[3, 2] = 1.0  # (-0.001, 0, 1), scan-order index 0
        query_depth[3, 4] = 1.0  # (+0.001, 0, 1), scan-order index 1
        full = np.ones((8, 8), dtype=bool)
        pair = generate_gt_matches(
            anchor_depth, query_depth, full, full, k, k,
            Pose.identity(), Pose.identity(),
        )
        assert len(pair) == 1
        np.testing.assert_array_equal(pair.query[0], [2, 3])

    def test_deterministic_across_calls(self, cam96):
        model = make_model("blob", n_points=4000, size=0.01, seed=5)
        rng = np.random.default_rng(7)
        pose_a = Pose(random_pose(rng).rotation, [0.0, 0.0, 0.55])
        pose_q = Pose(pose_a.rotation, pose_a.translation + [0.002, -0.001, 0.01])
        sa = render_scene(model, pose_a, cam96)
        sq = render_scene(model, pose_q, cam96)
        args = (sa.depth, sq.depth, sa.mask, sq.mask, cam96, cam96, pose_a, pose_q)
        first = generate_gt_matches(*args)
        second = generate_gt_matches(*args)
        np.testing.assert_array_equal(first.anchor, second.anchor)
        np.testing.assert_array_equal(first.query, second.query)


@pytest.fixture(scope="module")
def sphere_pair(cam96):
    model = make_model("sphere", n_points=6000, size=0.01, seed=2)
    rng = np.random.default_rng(11)
    rot = random_pose(rng).rotation
    pose_a = Pose(rot, np.array([0.0, 0.0, 0.55]))
    # Small extra rotation plus a few mm of translation between views.
    tilt = random_pose(rng).rotation
    pose_q = Pose(tilt @ rot, np.array([0.003, -0.002, 0.56]))
    sa = render_scene(model, pose_a, cam96)
    sq = render_scene(model, pose_q, cam96)
    return sa, sq, pose_a, pose_q


class TestTwoViewRendering:
    """Matches generated from rendered depth obey the distance rule."""

    def test_every_emitted_pair_within_radius(self, sphere_pair, cam96):
        sa, sq, pose_a, pose_q = sphere_pair
        pair = generate_gt_matches(
            sa.depth, sq.depth, sa.mask, sq.mask, cam96, cam96, pose_a, pose_q
        )
        assert len(pair) > 100
        errs = _alignment_errors(pair, sa.depth, sq.depth, cam96, cam96)
        assert (errs <= 0.002 + 1e-12).all()

    def test_swap_symmetry_of_match_counts(self, sphere_pair, cam96):
        sa, sq, pose_a, pose_q = sphere_pair
        fwd = generate_gt_matches(
            sa.depth, sq.depth, sa.mask, sq.mask, cam96, cam96, pose_a, pose_q
        )
        rev = generate_gt_matches(
            sq.depth, sa.depth, sq.mask, sa.mask, cam96, cam96, pose_q, pose_a
        )
        assert abs(len(fwd) - len(rev)) <= 0.05 * max(len(fwd), len(rev))


# ---------------------------------------------------------------------------
# accept_pair and GtPair invariants
# ---------------------------------------------------------------------------


class TestAcceptPair:
    def _pair_with(self, n):
        coords = np.zeros((n, 2), dtype=np.int64)
        return GtPair(anchor=coords, query=coords, relative=Pose.identity())

    def test_99_of_100_rejected(self):
        assert not accept_pair(self._pair_with(MIN_MATCHES - 1))

    def test_boundary_is_inclusive(self):
        assert accept_pair(self._pair_with(MIN_MATCHES))

    def test_default_threshold_is_100(self):
        assert MIN_MATCHES == 100
        assert accept_pair(self._pair_with(100))
        assert not accept_pair(self._pair_with(99))


class TestGtPair:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GtPair(
                anchor=np.zeros((3, 2)), query=np.zeros((2, 2)),
                relative=Pose.identity(),
            )

    def test_coordinates_stored_as_integers(self):
        pair = GtPair(
            anchor=np.array([[1.0, 2.0]]), query=np.array([[3.0, 4.0]]),
            relative=Pose.identity(),
        )
        assert pair.anchor.dtype == np.int64
        assert pair.query.dtype == np.int64
