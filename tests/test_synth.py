"""Tests for synthetic models, renders, pairs, and descriptor fields."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from crosspose import (
    CameraIntrinsics,
    MatchParams,
    NoConsensus,
    Pose,
    TooFewMatches,
    clutter_depth,
    cyclic_symmetries,
    generate_gt_matches,
    lift_matches,
    make_correspondences,
    make_descriptor_field,
    make_model,
    make_pair,
    match_features,
    random_pose,
    random_rotation,
    register_spatial_consistency,
    relative_pose,
    render_scene,
    rotation_about_axis,
    unproject,
)

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _pairwise_diameter(points):
    """Largest pairwise distance via plain loops."""
    best = 0.0
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(points[i] - points[j]))
            best = max(best, d)
    return best


def _project_point(camera, p):
    """Scalar pinhole projection of one camera-frame point."""
    return (
        camera.fx * p[0] / p[2] + camera.cx,
        camera.fy * p[1] / p[2] + camera.cy,
    )


def _rotation_angle(r):
    """Rotation angle from the Frobenius norm of R - I (accurate near 0)."""
    frob = np.linalg.norm(r - np.eye(3))
    return 2.0 * math.asin(min(1.0, frob / (2.0 * math.sqrt(2.0))))


def _tilted_pose(angle, translation):
    return Pose(rotation_about_axis((0.0, 1.0, 0.0), angle), translation)


# ---------------------------------------------------------------------------
# Rotation helpers
# ---------------------------------------------------------------------------


class TestRotationHelpers:
    def test_quarter_turn_about_z_maps_x_to_y(self):
        r = rotation_about_axis((0.0, 0.0, 1.0), math.pi / 2.0)
        assert r @ [1.0, 0.0, 0.0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_zero_angle_is_identity(self):
        r = rotation_about_axis((1.0, 2.0, 3.0), 0.0)
        assert r == pytest.approx(np.eye(3), abs=1e-15)

    def test_axis_is_invariant(self, rng):
        axis = rng.normal(size=3)
        r = rotation_about_axis(axis, 0.7)
        assert r @ axis == pytest.approx(axis, abs=1e-12)

    def test_rotation_is_special_orthogonal(self, rng):
        for _ in range(10):
            r = rotation_about_axis(rng.normal(size=3), rng.uniform(-4, 4))
            assert r.T @ r == pytest.approx(np.eye(3), abs=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_about_axis((0.0, 0.0, 0.0), 1.0)

    def test_random_rotation_is_special_orthogonal(self, rng):
        for _ in range(20):
            r = random_rotation(rng)
            assert r.T @ r == pytest.approx(np.eye(3), abs=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_random_pose_translation_bounded(self, rng):
        for _ in range(10):
            pose = random_pose(rng, max_translation=0.2)
            assert np.all(np.abs(pose.translation) <= 0.2)

    def test_random_rotation_deterministic_per_state(self):
        a = random_rotation(np.random.default_rng(7))
        b = random_rotation(np.random.default_rng(7))
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# cyclic_symmetries
# ---------------------------------------------------------------------------


class TestCyclicSymmetries:
    def test_order_one_is_identity_only(self):
        syms = cyclic_symmetries(1)
        assert len(syms) == 1
        assert syms[0].rotation == pytest.approx(np.eye(3), abs=1e-15)

    def test_generator_angle(self):
        syms = cyclic_symmetries(4)
        assert _rotation_angle(syms[1].rotation) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    def test_group_closed_under_composition(self):
        syms = cyclic_symmetries(4)
        for a in syms:
            for b in syms:
                prod = a.compose(b).rotation
                assert any(
                    np.max(np.abs(prod - s.rotation)) < 1e-9 for s in syms
                )

    def test_custom_axis(self):
        syms = cyclic_symmetries(2, axis=(1.0, 0.0, 0.0))
        mapped = syms[1].apply(np.array([[0.0, 1.0, 0.0]]))[0]
        assert mapped == pytest.approx([0.0, -1.0, 0.0], abs=1e-12)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            cyclic_symmetries(0)


# ---------------------------------------------------------------------------
# make_model
# ---------------------------------------------------------------------------


class TestMakeModel:
    def test_sphere_points_on_shell_and_diameter_near_two_radii(self):
        model = make_model("sphere", n_points=512, size=0.05)
        norms = np.linalg.norm(model.points, axis=1)
        assert norms == pytest.approx(np.full(512, 0.05), abs=1e-15)
        assert model.diameter_m <= 2 * 0.05 + 1e-12
        assert model.diameter_m >= 1.9 * 0.05

    def test_cube_diagonal_is_exact(self):
        model = make_model("box", n_points=256, size=0.04)
        assert model.diameter_m == pytest.approx(
            math.sqrt(3.0) * 0.04, rel=1e-12
        )
        assert np.max(np.abs(model.points)) == pytest.approx(0.02, abs=1e-15)

    def test_box_diagonal_matches_edge_lengths(self):
        model = make_model("box", n_points=256, size=(0.03, 0.04, 0.12))
        assert model.diameter_m == pytest.approx(0.13, rel=1e-12)

    def test_cylinder_scalar_size_sets_radius_and_height(self):
        model = make_model("cylinder", n_points=300, size=0.06)
        radial = np.hypot(model.points[:, 0], model.points[:, 1])
        assert np.max(radial) == pytest.approx(0.03, abs=1e-15)
        assert np.max(np.abs(model.points[:, 2])) == pytest.approx(
            0.03, abs=1e-15
        )

    def test_blob_diameter_equals_brute_force(self):
        model = make_model("blob", n_points=250, size=0.03, seed=5)
        assert model.diameter_m == pytest.approx(
            _pairwise_diameter(model.points), rel=1e-12
        )

    def test_orbit_closure_under_declared_group(self):
        model = make_model("blob", n_points=200, size=0.02, cyclic_order=5)
        assert len(model.symmetries) == 5
        tree = cKDTree(model.points)
        for sym in model.symmetries:
            dists, _ = tree.query(sym.apply(model.points))
            assert np.max(dists) < 1e-9

    def test_symmetry_declaration(self):
        plain = make_model("blob", n_points=64, size=0.02)
        assert not plain.is_symmetric
        sym = make_model("cylinder", n_points=120, size=(0.02, 0.05), cyclic_order=6)
        assert sym.is_symmetric
        assert len(sym.symmetries) == 6

    def test_point_count_at_least_requested(self):
        for order in (1, 3, 7):
            model = make_model("blob", n_points=100, size=0.02, cyclic_order=order)
            assert len(model.points) >= 100

    def test_deterministic_under_seed(self):
        a = make_model("blob", n_points=128, size=0.02, seed=3)
        b = make_model("blob", n_points=128, size=0.02, seed=3)
        c = make_model("blob", n_points=128, size=0.02, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_model("torus")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_model("sphere", n_points=1)


# ---------------------------------------------------------------------------
# render_scene
# ---------------------------------------------------------------------------


class TestRenderScene:
    def test_object_behind_background_gives_empty_mask(self, cam96):
        model = make_model("sphere", n_points=2000, size=0.05)
        scene = render_scene(
            model, Pose(np.eye(3), [0.0, 0.0, 1.2]), cam96, background_depth=0.5
        )
        assert not scene.mask.any()
        assert scene.depth == pytest.approx(np.full((96, 96), 0.5), abs=1e-12)
        assert np.all(scene.point_index == -1)

    def test_free_space_background_keeps_zeros(self, cam96):
        model = make_model("blob", n_points=2000, size=0.02)
        scene = render_scene(model, Pose(np.eye(3), [0.0, 0.0, 0.6]), cam96)
        assert scene.mask.any()
        assert np.all(scene.depth[scene.mask] > 0)
        assert np.all(scene.depth[~scene.mask] == 0.0)

    def test_partial_occlusion_shrinks_mask(self, cam96):
        model = make_model("sphere", n_points=6000, size=0.05)
        pose = Pose(np.eye(3), [0.0, 0.0, 0.6])
        free = render_scene(model, pose, cam96)
        occluded = render_scene(model, pose, cam96, background_depth=0.57)
        assert occluded.mask.sum() < free.mask.sum()
        assert np.all(free.mask[occluded.mask])
        assert np.all(occluded.depth[occluded.mask] < 0.57)
        assert occluded.depth[~occluded.mask] == pytest.approx(0.57, abs=1e-12)

    def test_mask_centroid_matches_projected_centroid(self, cam96):
        model = make_model("sphere", n_points=6000, size=0.05)
        pose = Pose(np.eye(3), [0.01, -0.01, 0.6])
        scene = render_scene(model, pose, cam96)
        u_exp, v_exp = _project_point(cam96, pose.translation)
        rows, cols = np.nonzero(scene.mask)
        assert np.mean(cols) == pytest.approx(u_exp, abs=2.0)
        assert np.mean(rows) == pytest.approx(v_exp, abs=2.0)

    def test_depth_is_millimeter_quantized(self, cam96):
        model = make_model("blob", n_points=2000, size=0.02)
        scene = render_scene(
            model, Pose(np.eye(3), [0.0, 0.0, 0.6]), cam96, background_depth=0.7774999
        )
        mm = scene.depth * 1000.0
        assert np.max(np.abs(mm - np.rint(mm))) < 1e-9
        assert scene.depth[~scene.mask] == pytest.approx(0.777, abs=1e-12)

    def test_reunprojection_recovers_visible_surface(self, cam96):
        model = make_model("blob", n_points=3000, size=0.025, seed=2)
        pose = _tilted_pose(0.3, [0.005, -0.003, 0.6])
        scene = render_scene(model, pose, cam96)
        cloud = scene.visible_cloud()
        # Scalar re-unprojection in the same row-major masked order.
        expected = []
        for r, c in zip(*np.nonzero(scene.mask)):
            z = scene.depth[r, c]
            expected.append(
                [(c - cam96.cx) / cam96.fx * z, (r - cam96.cy) / cam96.fy * z, z]
            )
        assert np.max(np.abs(cloud.points - np.array(expected))) < 1e-6

    def test_visible_surface_stays_near_true_points(self, cam96):
        # Pixel snapping moves a point at most half a pixel laterally and
        # depth quantization at most half a millimeter, bounding the gap
        # between the recovered surface and the posed model points.
        model = make_model("blob", n_points=3000, size=0.025, seed=2)
        pose = _tilted_pose(0.3, [0.005, -0.003, 0.6])
        scene = render_scene(model, pose, cam96)
        posed = pose.apply(model.points)
        rows, cols = np.nonzero(scene.mask)
        truth = posed[scene.point_index[rows, cols]]
        recovered = scene.visible_cloud().points
        err = np.abs(recovered - truth)
        assert np.max(err[:, 2]) <= 5.001e-4
        assert np.max(err[:, :2]) <= 1e-3

    def test_point_index_consistent_with_depth(self, cam96):
        model = make_model("blob", n_points=3000, size=0.025, seed=2)
        pose = _tilted_pose(0.3, [0.005, -0.003, 0.6])
        scene = render_scene(model, pose, cam96)
        posed = pose.apply(model.points)
        rows, cols = np.nonzero(scene.mask)
        winners = posed[scene.point_index[rows, cols]]
        assert np.max(np.abs(winners[:, 2] - scene.depth[rows, cols])) <= 5.001e-4
        u = cam96.fx * winners[:, 0] / winners[:, 2] + cam96.cx
        v = cam96.fy * winners[:, 1] / winners[:, 2] + cam96.cy
        assert np.array_equal(np.rint(u).astype(int), cols)
        assert np.array_equal(np.rint(v).astype(int), rows)

    def test_full_background_map_accepted(self, cam96):
        clutter = clutter_depth(cam96, plane_depth=0.8, n_spheres=2, seed=1)
        model = make_model("blob", n_points=2000, size=0.02)
        scene = render_scene(
            model, Pose(np.eye(3), [0.0, 0.0, 0.5]), cam96, background_depth=clutter
        )
        assert scene.mask.any()
        assert np.all(scene.depth > 0)


class TestClutterDepth:
    def test_occluders_cut_into_plane(self, cam96):
        depth = clutter_depth(cam96, plane_depth=0.8, n_spheres=3, seed=2)
        assert np.all(depth > 0)
        assert np.all(depth <= 0.8)
        assert np.any(depth < 0.8)

    def test_deterministic(self, cam96):
        a = clutter_depth(cam96, plane_depth=0.8, n_spheres=3, seed=2)
        b = clutter_depth(cam96, plane_depth=0.8, n_spheres=3, seed=2)
        assert np.array_equal(a, b)

    def test_invalid_plane_rejected(self, cam96):
        with pytest.raises(ValueError):
            clutter_depth(cam96, plane_depth=0.0, n_spheres=1)


# ---------------------------------------------------------------------------
# make_pair
# ---------------------------------------------------------------------------


class TestMakePair:
    def test_identical_poses_match_every_covisible_pixel(self, cam96):
        model = make_model("blob", n_points=3000, size=0.025, seed=4)
        pose = _tilted_pose(0.2, [0.0, 0.0, 0.6])
        scene_a, scene_q, oracle = make_pair(model, pose, pose, cam96)
        assert np.array_equal(scene_a.mask, scene_q.mask)
        assert np.array_equal(oracle.anchor, oracle.query)
        assert len(oracle.anchor) == int(scene_a.mask.sum())
        assert _rotation_angle(oracle.relative.rotation) < 1e-12
        assert np.linalg.norm(oracle.relative.translation) < 1e-12

    def test_disjoint_visibility_gives_empty_oracle(self, cam96):
        model = make_model("blob", n_points=2000, size=0.02, seed=4)
        pose = Pose(np.eye(3), [0.0, 0.0, 0.6])
        scene_a, scene_q, oracle = make_pair(
            model, pose, pose, cam96, background_q=0.3
        )
        assert scene_a.mask.any()
        assert not scene_q.mask.any()
        assert len(oracle.anchor) == 0
        assert len(oracle.query) == 0

    def test_oracle_pixels_lie_inside_masks(self, cam96):
        model = make_model("blob", n_points=3000, size=0.025, seed=4)
        pose_a = _tilted_pose(0.2, [0.0, 0.0, 0.6])
        pose_q = _tilted_pose(0.5, [0.01, 0.0, 0.62])
        scene_a, scene_q, oracle = make_pair(model, pose_a, pose_q, cam96)
        assert scene_a.mask[oracle.anchor[:, 1], oracle.anchor[:, 0]].all()
        assert scene_q.mask[oracle.query[:, 1], oracle.query[:, 0]].all()

    def test_generated_matches_stay_within_dilated_oracle(self, cam96):
        # A 1 mm pose delta keeps nearest-neighbor matches on (or next
        # to) the pixel the identity oracle names for the same point.
        model = make_model("blob", n_points=3000, size=0.025, seed=4)
        pose_a = _tilted_pose(0.2, [0.0, 0.0, 0.6])
        pose_q = Pose(pose_a.rotation, pose_a.translation + [0.0, 0.0, 0.001])
        scene_a, scene_q, oracle = make_pair(model, pose_a, pose_q, cam96)
        pair = generate_gt_matches(
            scene_a.depth,
            scene_q.depth,
            scene_a.mask,
            scene_q.mask,
            cam96,
            cam96,
            pose_a,
            pose_q,
        )
        by_anchor = {
            (int(u), int(v)): (int(uq), int(vq))
            for (u, v), (uq, vq) in zip(oracle.anchor, oracle.query)
        }
        cloud_q = unproject(scene_q.depth, cam96, scene_q.mask)
        pos_q = {
            (int(u), int(v)): p for (u, v), p in zip(cloud_q.pixels, cloud_q.points)
        }
        good = 0
        for (ua, va), (uq, vq) in zip(pair.anchor, pair.query):
            named = by_anchor.get((int(ua), int(va)))
            if named is None:
                continue
            gap = np.linalg.norm(pos_q[named] - pos_q[(int(uq), int(vq))])
            if gap <= 0.002 + 1e-9:
                good += 1
        assert good >= 0.95 * len(pair.anchor)


# ---------------------------------------------------------------------------
# make_descriptor_field
# ---------------------------------------------------------------------------


def _pair_scene(cam, seed=4, delta_angle=0.25):
    model = make_model("blob", n_points=3000, size=0.025, seed=seed)
    pose_a = _tilted_pose(0.2, [0.0, 0.0, 0.6])
    pose_q = _tilted_pose(0.2 + delta_angle, [0.005, -0.003, 0.61])
    return make_pair(model, pose_a, pose_q, cam)


class TestMakeDescriptorField:
    def test_covisible_points_share_descriptors_exactly(self, cam96):
        scene_a, scene_q, oracle = _pair_scene(cam96)
        field_a, field_q = make_descriptor_field(scene_a, scene_q, dim=16)
        at_a = field_a[oracle.anchor[:, 1], oracle.anchor[:, 0]]
        at_q = field_q[oracle.query[:, 1], oracle.query[:, 0]]
        assert np.array_equal(at_a, at_q)

    def test_descriptors_are_unit_norm(self, cam96):
        scene_a, scene_q, _ = _pair_scene(cam96)
        field_a, field_q = make_descriptor_field(scene_a, scene_q, dim=16, noise=0.1)
        for field in (field_a, field_q):
            norms = np.linalg.norm(field, axis=-1)
            assert norms == pytest.approx(np.ones_like(norms), abs=1e-12)

    def test_clean_field_recovers_oracle_correspondences(self, cam96):
        scene_a, scene_q, oracle = _pair_scene(cam96)
        field_a, field_q = make_descriptor_field(scene_a, scene_q, dim=16)
        matches = match_features(
            field_a,
            field_q,
            scene_a.mask,
            scene_q.mask,
            MatchParams(max_matches=len(oracle.anchor) + 100),
        )
        found = set(
            zip(map(tuple, matches.anchor_cells), map(tuple, matches.query_cells))
        )
        wanted = set(zip(map(tuple, oracle.anchor), map(tuple, oracle.query)))
        recovered = len(wanted & found) / len(wanted)
        assert recovered >= 0.99

    def test_all_outliers_break_registration(self, cam96):
        scene_a, scene_q, _ = _pair_scene(cam96)
        field_a, field_q = make_descriptor_field(
            scene_a, scene_q, dim=16, outlier_fraction=1.0
        )
        matches = match_features(field_a, field_q, scene_a.mask, scene_q.mask)
        if len(matches.anchor_cells) < 3:
            return
        lifted = lift_matches(
            matches, scene_a.depth, scene_q.depth, cam96, cam96
        )
        try:
            result = register_spatial_consistency(lifted)
        except (NoConsensus, TooFewMatches):
            return
        assert result.mean_residual > 0.002 or len(result.inliers) < 10

    def test_heavy_noise_empties_matches(self):
        # High dimension makes random cosines concentrate near zero, so
        # every distance sits far above the acceptance threshold.
        cam = CameraIntrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        model = make_model("blob", n_points=1000, size=0.02, seed=4)
        pose = Pose(np.eye(3), [0.0, 0.0, 0.55])
        scene_a, scene_q, _ = make_pair(model, pose, pose, cam)
        field_a, field_q = make_descriptor_field(
            scene_a, scene_q, dim=256, noise=50.0
        )
        matches = match_features(field_a, field_q, scene_a.mask, scene_q.mask)
        assert len(matches.anchor_cells) == 0

    def test_deterministic_under_seed(self, cam96):
        scene_a, scene_q, _ = _pair_scene(cam96)
        first = make_descriptor_field(scene_a, scene_q, dim=8, noise=0.05, seed=9)
        second = make_descriptor_field(scene_a, scene_q, dim=8, noise=0.05, seed=9)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_invalid_parameters_rejected(self, cam96):
        scene_a, scene_q, _ = _pair_scene(cam96)
        with pytest.raises(ValueError):
            make_descriptor_field(scene_a, scene_q, dim=1)
        for noise in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                make_descriptor_field(scene_a, scene_q, noise=noise)
        with pytest.raises(ValueError):
            make_descriptor_field(scene_a, scene_q, outlier_fraction=1.5)


# ---------------------------------------------------------------------------
# make_correspondences
# ---------------------------------------------------------------------------


class TestMakeCorrespondences:
    def test_noiseless_targets_are_posed_sources(self):
        matches, pose = make_correspondences(
            n_matches=50, outlier_fraction=0.0, noise=0.0, seed=3
        )
        assert np.array_equal(matches.query_points, pose.apply(matches.anchor_points))

    def test_outlier_count_is_rounded_fraction(self):
        matches, pose = make_correspondences(
            n_matches=60, outlier_fraction=0.3, noise=0.0, seed=3
        )
        moved = np.linalg.norm(
            matches.query_points - pose.apply(matches.anchor_points), axis=1
        )
        assert int(np.count_nonzero(moved > 0)) == 18

    def test_sources_bounded_by_extent(self):
        matches, _ = make_correspondences(n_matches=80, extent=0.2, seed=1)
        assert np.all(np.abs(matches.anchor_points) <= 0.1)

    def test_given_pose_is_used(self, rng):
        pose = random_pose(rng)
        _, returned = make_correspondences(n_matches=30, pose=pose, seed=2)
        assert np.array_equal(returned.rotation, pose.rotation)
        assert np.array_equal(returned.translation, pose.translation)

    def test_deterministic_under_seed(self):
        a, pose_a = make_correspondences(seed=11)
        b, pose_b = make_correspondences(seed=11)
        assert np.array_equal(a.anchor_points, b.anchor_points)
        assert np.array_equal(a.query_points, b.query_points)
        assert np.array_equal(pose_a.rotation, pose_b.rotation)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_correspondences(n_matches=2)
        with pytest.raises(ValueError):
            make_correspondences(outlier_fraction=1.5)


# ---------------------------------------------------------------------------
# Full pipeline closure
# ---------------------------------------------------------------------------


class TestPipelineClosure:
    def test_pose_recovery_rate_with_outlier_descriptors(self, cam64):
        """Render, match, lift, register: 100 seeded trials at 30% outliers."""
        model = make_model("blob", n_points=2000, size=0.03, seed=6)
        successes = 0
        trials = 100
        for trial in range(trials):
            rng = np.random.default_rng(trial)
            pose_a = Pose(random_rotation(rng), [0.0, 0.0, 0.5])
            angle = rng.uniform(math.radians(5), math.radians(25))
            delta_r = rotation_about_axis(rng.normal(size=3), angle)
            center = np.asarray(pose_a.translation)
            jitter = rng.uniform(-0.01, 0.01, size=3)
            delta = Pose(delta_r, center - delta_r @ center + jitter)
            pose_q = delta.compose(pose_a)

            scene_a, scene_q, _ = make_pair(model, pose_a, pose_q, cam64)
            field_a, field_q = make_descriptor_field(
                scene_a, scene_q, dim=16, outlier_fraction=0.3, seed=trial
            )
            matches = match_features(
                field_a, field_q, scene_a.mask, scene_q.mask
            )
            if len(matches.anchor_cells) < 3:
                continue
            lifted = lift_matches(
                matches, scene_a.depth, scene_q.depth, cam64, cam64
            )
            try:
                result = register_spatial_consistency(lifted, seed=trial)
            except (NoConsensus, TooFewMatches):
                continue
            true_rel = relative_pose(pose_a, pose_q)
            rot_err = _rotation_angle(
                result.pose.rotation @ true_rel.rotation.T
            )
            trans_err = np.linalg.norm(
                result.pose.translation - true_rel.translation
            )
            if rot_err < math.radians(1.0) and trans_err < 0.005:
                successes += 1
        assert successes >= 95
