"""Tests for masked feature matching and 2D-to-3D match lifting."""

import tracemalloc

import numpy as np
import pytest

from crosspose import (
    CameraIntrinsics,
    Correspondences,
    EmptyMask,
    MatchSet,
    ZeroVector,
    downsample_mask,
    lift_matches,
    match_features,
    make_descriptor_field,
    make_model,
    make_pair,
    Pose,
)
from crosspose.geometry import COORDINATE_BOUND
from crosspose.matcher import (
    _CHUNK,
    MAX_DISTANCE,
    MAX_MATCHES,
    cosine_distance,
    row_norms,
    unit_rows,
)

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _distance_oracle(f1, f2):
    """Cosine distance written out longhand."""
    a = np.asarray(f1, dtype=np.float64)
    b = np.asarray(f2, dtype=np.float64)
    cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return min(1.0, max(0.0, (1.0 - cos) / 2.0))


def _match_oracle(feat_a, feat_q, mask_a, mask_q):
    """Per-anchor-cell exhaustive nearest neighbor with a global full sort.

    Slower but structurally different from the production path: distances
    come from the scalar helper, the cap uses an explicit stable sort on
    (distance, anchor linear index), and output is re-ordered by anchor
    cell like the library promises.
    """
    ha, wa, _ = feat_a.shape
    hq, wq, _ = feat_q.shape
    lin_a = [r * wa + c for r in range(ha) for c in range(wa) if mask_a[r, c]]
    lin_q = [r * wq + c for r in range(hq) for c in range(wq) if mask_q[r, c]]
    rows = []
    for la in lin_a:
        fa = feat_a[la // wa, la % wa]
        best_d, best_lq = None, None
        for lq in lin_q:
            d = _distance_oracle(fa, feat_q[lq // wq, lq % wq])
            if best_d is None or d < best_d:
                best_d, best_lq = d, lq
        if best_d <= MAX_DISTANCE:
            rows.append((best_d, la, best_lq))
    rows.sort(key=lambda r: (r[0], r[1]))
    rows = rows[:MAX_MATCHES]
    rows.sort(key=lambda r: r[1])
    anchor = np.array([(la % wa, la // wa) for _, la, _ in rows], dtype=np.int64)
    query = np.array([(lq % wq, lq // wq) for _, _, lq in rows], dtype=np.int64)
    dist = np.array([d for d, _, _ in rows])
    return anchor.reshape(-1, 2), query.reshape(-1, 2), dist


def _distance(f1, f2):
    """Cosine distance of two vectors through the primitives match_features uses."""
    ua, ub = unit_rows(np.stack([f1, f2]).astype(np.float64), "vectors")
    return float(cosine_distance(np.array([ua @ ub]))[0])


def _unit_field(rng, shape):
    field = rng.normal(size=shape)
    return field / np.linalg.norm(field, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Feature distance: unit_rows + cosine_distance
# ---------------------------------------------------------------------------


class TestFeatureDistance:
    def test_identical_vectors_give_zero(self, rng):
        f = rng.normal(size=32)
        assert _distance(f, f) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_vectors_give_half(self):
        assert _distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_antipodal_vectors_give_one(self, rng):
        f = rng.normal(size=8)
        assert _distance(f, -f) == pytest.approx(1.0)

    def test_symmetric(self, rng):
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert _distance(a, b) == _distance(b, a)

    def test_invariant_to_positive_scaling(self, rng):
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert _distance(3.0 * a, b) == _distance(a, b)
        assert _distance(a, 0.125 * b) == _distance(a, b)

    def test_zero_iff_positively_parallel(self, rng):
        a = rng.normal(size=16)
        assert _distance(a, 2.5 * a) == pytest.approx(0.0, abs=1e-15)
        b = rng.normal(size=16)
        if _distance_oracle(a, b) > 1e-12:
            assert _distance(a, b) > 0.0

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            _distance([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVector):
            _distance([1.0, 0.0], [1e-13, 0.0])

    def test_unit_rows_normalizes_a_grid_like_its_rows(self, rng):
        grid = rng.normal(size=(4, 5, 7))
        unit = unit_rows(grid, "cells")
        assert np.array_equal(unit, unit_rows(grid.reshape(-1, 7), "cells").reshape(grid.shape))
        assert np.linalg.norm(unit, axis=-1) == pytest.approx(np.ones((4, 5)), abs=1e-15)

    def test_matches_longhand_oracle(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=8), rng.normal(size=8)
            assert _distance(a, b) == pytest.approx(
                _distance_oracle(a, b), abs=1e-15
            )

    def test_range_clipped_to_unit_interval(self, rng):
        for _ in range(100):
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert 0.0 <= _distance(a, b) <= 1.0

    # Row counts that are no multiple of the block leave a short last block.
    @pytest.mark.parametrize("shape", [(3 * _CHUNK + 5, 7), (_CHUNK + 1, 33), (9, 31, 5)])
    def test_row_norms_equal_linalg_norm_bit_for_bit(self, rng, shape):
        vectors = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=(*shape[:-1], 1))
        assert np.array_equal(row_norms(vectors, "rows"), np.linalg.norm(vectors, axis=-1))
        assert np.array_equal(
            unit_rows(vectors, "rows"), vectors / np.linalg.norm(vectors, axis=-1)[..., None]
        )

    def test_row_norms_reject_a_zero_row(self, rng):
        vectors = rng.normal(size=(2 * _CHUNK + 3, 4))
        vectors[_CHUNK + 1] = 0.0
        with pytest.raises(ZeroVector, match="probe rows"):
            row_norms(vectors, "probe rows")

    def test_row_norms_reject_a_non_finite_norm(self, rng):
        # Squares above about 1e308 overflow to inf; the rows themselves are finite.
        vectors = rng.normal(size=(2 * _CHUNK + 3, 4))
        vectors[_CHUNK + 1] *= 1e160
        with pytest.raises(ValueError, match="probe rows contain .* non-finite norm"):
            row_norms(vectors, "probe rows")
        with pytest.raises(ValueError, match="probe rows"):
            unit_rows(vectors, "probe rows")

    def test_array_input_costs_one_array(self, rng):
        # Similarities beyond [-1, 1] exercise the clip on both sides.
        cos = rng.uniform(-1.2, 1.2, size=(500, 500))
        tracemalloc.start()
        try:
            dist = cosine_distance(cos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cos.nbytes
        assert np.array_equal(dist, np.clip((1.0 - cos) / 2.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# downsample_mask
# ---------------------------------------------------------------------------


class TestDownsampleMask:
    def test_identity_when_shapes_match(self, rng):
        mask = rng.random(size=(12, 12)) < 0.5
        out = downsample_mask(mask, (12, 12))
        np.testing.assert_array_equal(out, mask)

    def test_center_sampling_rule(self):
        # 4-cell grid over 16 pixels: centers at pixels 2, 6, 10, 14.
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 6] = True
        out = downsample_mask(mask, (4, 4))
        expected = np.zeros((4, 4), dtype=bool)
        expected[:, 1] = True
        np.testing.assert_array_equal(out, expected)

    def test_upsampling_repeats_pixels(self):
        mask = np.array([[True, False], [False, True]])
        out = downsample_mask(mask, (4, 4))
        np.testing.assert_array_equal(out[:2, :2], True)
        np.testing.assert_array_equal(out[:2, 2:], False)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            downsample_mask(np.ones((4, 4), dtype=bool), (0, 4))


# ---------------------------------------------------------------------------
# match_features
# ---------------------------------------------------------------------------


class TestMatchFeatures:
    def test_identical_fields_match_cells_to_themselves(self, rng):
        field = _unit_field(rng, (6, 6, 8))
        full = np.ones((6, 6), dtype=bool)
        out = match_features(field, field, full, full)
        assert len(out) == 36
        np.testing.assert_array_equal(out.anchor_cells, out.query_cells)
        np.testing.assert_allclose(out.distances, 0.0, atol=1e-12)

    def test_identical_fields_truncate_to_cap(self, rng):
        # 576 cells all match at distance 0, more than the budget.
        field = _unit_field(rng, (24, 24, 8))
        full = np.ones((24, 24), dtype=bool)
        out = match_features(field, field, full, full)
        assert len(out) == MAX_MATCHES

    def test_orthogonal_fields_give_empty_set(self):
        fa = np.zeros((4, 4, 2))
        fa[..., 0] = 1.0
        fq = np.zeros((4, 4, 2))
        fq[..., 1] = 1.0  # cosine 0 -> distance 0.5 > MAX_DISTANCE
        full = np.ones((4, 4), dtype=bool)
        out = match_features(fa, fq, full, full)
        assert len(out) == 0

    def test_empty_anchor_mask_raises(self, rng):
        field = _unit_field(rng, (4, 4, 4))
        full = np.ones((4, 4), dtype=bool)
        with pytest.raises(EmptyMask):
            match_features(field, field, np.zeros((4, 4), dtype=bool), full)

    def test_empty_query_mask_raises(self, rng):
        field = _unit_field(rng, (4, 4, 4))
        full = np.ones((4, 4), dtype=bool)
        with pytest.raises(EmptyMask):
            match_features(field, field, full, np.zeros((4, 4), dtype=bool))

    def test_masked_zero_vector_raises(self, rng):
        field = _unit_field(rng, (4, 4, 4))
        bad = field.copy()
        bad[2, 2] = 0.0
        full = np.ones((4, 4), dtype=bool)
        with pytest.raises(ZeroVector):
            match_features(bad, field, full, full)

    def test_matches_brute_force_oracle(self, rng):
        dropped = 0
        for trial in range(5):
            # 16 dimensions: unrelated cells rarely come within MAX_DISTANCE.
            feat_a = _unit_field(rng, (8, 8, 16))
            base = _unit_field(rng, (8, 8, 16))
            # Mix of close and far query features so the threshold bites.
            feat_q = np.where(rng.random(size=(8, 8, 1)) < 0.5, feat_a, base)
            feat_q = feat_q + rng.normal(scale=0.05, size=feat_q.shape)
            mask_a = rng.random(size=(8, 8)) < 0.8
            mask_q = rng.random(size=(8, 8)) < 0.8
            mask_a[0, 0] = mask_q[0, 0] = True  # never empty
            got = match_features(feat_a, feat_q, mask_a, mask_q)
            exp_a, exp_q, exp_d = _match_oracle(feat_a, feat_q, mask_a, mask_q)
            np.testing.assert_array_equal(got.anchor_cells, exp_a)
            np.testing.assert_array_equal(got.query_cells, exp_q)
            np.testing.assert_allclose(got.distances, exp_d, atol=1e-12)
            dropped += int(mask_a.sum()) - len(got)
        assert dropped > 0

    def test_several_anchor_blocks_match_the_oracle(self, rng):
        # 19 x 19 anchor cells fill two blocks and part of a third.
        feat_a = _unit_field(rng, (19, 19, 8))
        feat_q = feat_a[::3, ::3] + rng.normal(scale=0.05, size=(7, 7, 8))
        full_a = np.ones((19, 19), dtype=bool)
        mask_q = rng.random(size=(7, 7)) < 0.7
        mask_q[0, 0] = True
        assert full_a.sum() > 2 * _CHUNK
        got = match_features(feat_a, feat_q, full_a, mask_q)
        exp_a, exp_q, exp_d = _match_oracle(feat_a, feat_q, full_a, mask_q)
        assert len(exp_a) > 0
        np.testing.assert_array_equal(got.anchor_cells, exp_a)
        np.testing.assert_array_equal(got.query_cells, exp_q)
        np.testing.assert_allclose(got.distances, exp_d, atol=1e-12)

    def test_memory_is_the_widened_rows_plus_one_block(self, rng):
        # A full 128 x 128 anchor grid against 2048 query cells. Blocks of
        # 1024 anchor rows would hold 16 MB each; one 128-row block holds 2 MB.
        dim = 16
        feat_a = rng.normal(size=(128, 128, dim)).astype(np.float32)
        feat_q = rng.normal(size=(64, 64, dim)).astype(np.float32)
        mask_a = np.ones((128, 128), dtype=bool)
        mask_q = np.zeros((64, 64), dtype=bool)
        mask_q[:32] = True
        n_a, n_q = int(mask_a.sum()), int(mask_q.sum())
        widened = (n_a + n_q) * dim * 8
        block = _CHUNK * n_q * 8
        tracemalloc.start()
        try:
            out = match_features(feat_a, feat_q, mask_a, mask_q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == MAX_MATCHES
        assert peak < 1.5 * (widened + block)

    def test_cap_keeps_exactly_lowest_distances(self, rng):
        # More than 2x the cap survive; the kept distances must be the
        # smallest ones of the full surviving population.
        feat_a = _unit_field(rng, (36, 36, 8))
        feat_q = feat_a + rng.normal(scale=0.02, size=feat_a.shape)
        full = np.ones((36, 36), dtype=bool)
        # Uncapped reference: every anchor cell's nearest query distance.
        va = feat_a.reshape(-1, 8) / np.linalg.norm(feat_a.reshape(-1, 8), axis=1)[:, None]
        vq = feat_q.reshape(-1, 8) / np.linalg.norm(feat_q.reshape(-1, 8), axis=1)[:, None]
        nearest = np.clip((1.0 - (va @ vq.T).max(axis=1)) / 2.0, 0.0, 1.0)
        uncapped = np.sort(nearest[nearest <= MAX_DISTANCE])
        assert len(uncapped) > 2 * MAX_MATCHES
        capped = match_features(feat_a, feat_q, full, full)
        assert len(capped) == MAX_MATCHES
        cutoff = uncapped[MAX_MATCHES - 1]
        assert capped.distances.max() <= cutoff + 1e-15

    def test_every_distance_within_threshold(self, rng):
        feat_a = _unit_field(rng, (10, 10, 4))
        feat_q = _unit_field(rng, (10, 10, 4))
        full = np.ones((10, 10), dtype=bool)
        out = match_features(feat_a, feat_q, full, full)
        assert (out.distances <= MAX_DISTANCE).all()

    def test_deterministic(self, rng):
        feat_a = _unit_field(rng, (12, 12, 8))
        feat_q = _unit_field(rng, (12, 12, 8))
        full = np.ones((12, 12), dtype=bool)
        a = match_features(feat_a, feat_q, full, full)
        b = match_features(feat_a, feat_q, full, full)
        np.testing.assert_array_equal(a.anchor_cells, b.anchor_cells)
        np.testing.assert_array_equal(a.query_cells, b.query_cells)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_query_ties_resolve_to_lowest_cell_index(self):
        # Two identical query cells: argmax picks the first (lowest linear index).
        feat_a = np.full((1, 1, 2), [1.0, 0.0])
        feat_q = np.zeros((1, 3, 2))
        feat_q[0, 0] = [0.0, 1.0]  # distance 0.5
        feat_q[0, 1] = [1.0, 0.0]  # distance 0, tie with cell 2
        feat_q[0, 2] = [1.0, 0.0]
        full_a = np.ones((1, 1), dtype=bool)
        full_q = np.ones((1, 3), dtype=bool)
        out = match_features(feat_a, feat_q, full_a, full_q)
        np.testing.assert_array_equal(out.query_cells[0], [1, 0])


# ---------------------------------------------------------------------------
# lift_matches
# ---------------------------------------------------------------------------


def _pinhole(pixels, z, cam):
    """Longhand back-projection of ``(u, v)`` pixels at one depth ``z``."""
    px = np.asarray(pixels, dtype=np.float64)
    x = z * (px[:, 0] - cam.cx) / cam.fx
    y = z * (px[:, 1] - cam.cy) / cam.fy
    return np.column_stack([x, y, np.full(len(px), z)])


def test_records_reject_wrong_shapes_instead_of_reshaping():
    with pytest.raises(ValueError, match=r"anchor points must have shape \(M, 3\)"):
        Correspondences(np.zeros((6, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"query cells must have shape \(M, 2\)"):
        MatchSet(anchor_cells=np.zeros((2, 2)), query_cells=np.zeros((2, 3)),
                 distances=np.zeros(2))
    with pytest.raises(ValueError, match="must align"):
        MatchSet(anchor_cells=np.zeros((2, 2)), query_cells=np.zeros((2, 2)),
                 distances=np.zeros((2, 1)))


@pytest.mark.parametrize("views", ["anchor", "query", "both"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160])
def test_correspondences_reject_non_finite_or_overflowing_points(bad, views):
    # The error names the first view that holds the value.
    anchor, query = np.zeros((5, 3)), np.ones((5, 3))
    if views != "query":
        anchor[2, 1] = bad
    if views != "anchor":
        query[4, 0] = bad
    name = "query" if views == "query" else "anchor"
    with pytest.raises(ValueError, match=rf"^{name} points must be finite and within 1e\+09 m"):
        Correspondences(anchor, query)


def test_correspondences_accept_points_at_the_bound():
    edge = np.array([[COORDINATE_BOUND, 0.0, -COORDINATE_BOUND], [1.0, 2.0, 3.0]])
    matches = Correspondences(edge, edge[::-1])
    np.testing.assert_array_equal(matches.anchor_points, edge)
    assert len(Correspondences([], [])) == 0
    above = edge.copy()
    above[0, 2] = np.nextafter(-COORDINATE_BOUND, -np.inf)
    with pytest.raises(ValueError, match="^anchor points must be finite"):
        Correspondences(above, edge)
    with pytest.raises(ValueError, match="^query points must be finite"):
        Correspondences(edge, above)


class TestLiftMatches:
    @pytest.fixture
    def simple_match(self):
        cells = np.array([[1, 1], [2, 3]], dtype=np.int64)
        return MatchSet(
            anchor_cells=cells, query_cells=cells, distances=np.zeros(2)
        )

    @pytest.fixture
    def cam8(self):
        return CameraIntrinsics(fx=10.0, fy=10.0, cx=4.0, cy=4.0, width=8, height=8)

    def test_all_valid_depth_preserves_count(self, simple_match, cam8):
        depth = np.full((8, 8), 2.0)
        out = lift_matches(simple_match, depth, depth, cam8, cam8)
        assert len(out) == 2
        assert out.anchor_points.shape == (2, 3)
        assert out.query_points.shape == (2, 3)

    def test_all_zero_depth_gives_empty_set(self, simple_match, cam8):
        depth = np.zeros((8, 8))
        out = lift_matches(simple_match, depth, depth, cam8, cam8)
        assert len(out) == 0
        assert out.anchor_points.shape == (0, 3)
        assert out.query_points.shape == (0, 3)

    def test_partial_holes_drop_only_affected_pairs(self, simple_match, cam8):
        depth_a = np.full((8, 8), 2.0)
        depth_q = np.full((8, 8), 2.0)
        depth_q[3, 2] = 0.0  # hole under the second match's query pixel
        out = lift_matches(simple_match, depth_a, depth_q, cam8, cam8)
        assert len(out) == 1
        np.testing.assert_allclose(out.anchor_points, _pinhole([[1, 1]], 2.0, cam8))

    def test_image_resolution_cells_map_to_same_pixel(self, simple_match, cam8):
        depth = np.full((8, 8), 2.0)
        out = lift_matches(simple_match, depth, depth, cam8, cam8)
        np.testing.assert_allclose(
            out.anchor_points, _pinhole(simple_match.anchor_cells, 2.0, cam8)
        )

    def test_coarse_grid_uses_cell_centers(self, cam8):
        # One cell on a 2x2 grid over 8x8 pixels: cell (0,0) center is
        # pixel (2,2), cell (1,1) center is pixel (6,6).
        cells = np.array([[0, 0], [1, 1]], dtype=np.int64)
        m = MatchSet(anchor_cells=cells, query_cells=cells, distances=np.zeros(2))
        depth = np.full((8, 8), 1.0)
        out = lift_matches(m, depth, depth, cam8, cam8, (2, 2), (2, 2))
        np.testing.assert_allclose(
            out.anchor_points, _pinhole([[2, 2], [6, 6]], 1.0, cam8)
        )

    def test_back_projection_formula(self, cam8):
        cells = np.array([[6, 2]], dtype=np.int64)
        m = MatchSet(anchor_cells=cells, query_cells=cells, distances=np.zeros(1))
        depth = np.full((8, 8), 2.0)
        out = lift_matches(m, depth, depth, cam8, cam8)
        # x = z (u - cx) / fx = 2 * (6-4)/10 = 0.4; y = 2 * (2-4)/10 = -0.4
        np.testing.assert_allclose(out.anchor_points[0], [0.4, -0.4, 2.0])


# ---------------------------------------------------------------------------
# End-to-end over synthetic descriptor fields
# ---------------------------------------------------------------------------


class TestSyntheticDescriptors:
    def test_lifted_matches_align_under_true_relative_pose(self, cam96):
        model = make_model("blob", n_points=6000, size=0.01, seed=3)
        rng = np.random.default_rng(21)
        from crosspose import random_rotation, rotation_about_axis

        rot = random_rotation(rng)
        pose_a = Pose(rot, np.array([0.002, -0.001, 0.55]))
        delta = rotation_about_axis(np.array([0.3, 0.9, 0.1]), np.radians(20))
        pose_q = Pose(delta @ rot, np.array([-0.003, 0.002, 0.57]))
        scene_a, scene_q, _ = make_pair(
            model, pose_a, pose_q, cam96, background=0.8
        )
        feat_a, feat_q = make_descriptor_field(scene_a, scene_q, seed=4)
        matches = match_features(feat_a, feat_q, scene_a.mask, scene_q.mask)
        lifted = lift_matches(matches, scene_a.depth, scene_q.depth, cam96, cam96)
        assert len(lifted) >= 0.9 * len(matches)
        rel = pose_q.compose(pose_a.inverse())
        moved = rel.apply(lifted.anchor_points)
        err = np.linalg.norm(moved - lifted.query_points, axis=1)
        assert (err <= 0.002).mean() >= 0.9
