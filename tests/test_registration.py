"""Tests for rigid fitting and robust two-stage registration."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from crosspose import (
    Correspondences,
    DegenerateConfiguration,
    NoConsensus,
    Pose,
    RegistrationParams,
    TooFewMatches,
    compatibility_scores,
    kabsch,
    make_correspondences,
    register_ransac,
    register_spatial_consistency,
)
from crosspose import registration
from crosspose.geometry import COORDINATE_BOUND
from crosspose.registration import (
    _BLOCK, INLIER_THRESHOLD, _bands, _gram_distances, _gram_factors,
    _length_band, _register, _top3, _triplet_poses,
)
from conftest import random_se3

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _residual(pose, src, dst):
    moved = pose.apply(src)
    return float(np.sum((moved - dst) ** 2))


def _kabsch_oracle(src, dst):
    """Rotation via an independent solver (quaternion-based alignment)."""
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    rot, _ = Rotation.align_vectors(dst - cd, src - cs)
    r = rot.as_matrix()
    return Pose(r, cd - r @ cs)


def _rotation_angle(r):
    # |R - I|_F = 2 sqrt(2) |sin(theta/2)|; the arcsin form stays accurate
    # near zero where arccos-of-trace bottoms out at ~1e-8.
    fro = np.linalg.norm(r - np.eye(3))
    return float(2.0 * np.arcsin(min(1.0, fro / (2.0 * np.sqrt(2.0)))))


def _pose_errors(estimated, true):
    rot_err = _rotation_angle(estimated.rotation @ true.rotation.T)
    trans_err = float(np.linalg.norm(estimated.translation - true.translation))
    return rot_err, trans_err


def _distances_dense(p):
    # The engine's per-entry expression over the whole (N, N) matrix.
    dx, dy, dz = (p[:, None, k] - p[None, :, k] for k in range(3))
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def _compatibility_dense(src, dst, tolerance):
    compatible = np.abs(_distances_dense(src) - _distances_dense(dst)) <= tolerance
    np.fill_diagonal(compatible, False)
    return compatible.sum(axis=1).astype(np.float64)


def _seed_dense(src, dst, iterations, weights, seed, threshold):
    """The engine's winning hypothesis at ``threshold``, unchunked: one key
    draw, one stable sort, all residuals. Returns its pose, its inliers
    and its residuals.

    The residual uses the engine's expression rather than an einsum, so
    the comparison does not rest on how a CPU's einsum orders its sums.
    """
    n = len(src)
    keys = -np.log(-np.log(np.random.default_rng(seed).random((iterations, n))))
    positive = weights > 0
    if np.count_nonzero(positive) >= 3:
        logw = np.full(n, -np.inf)
        logw[positive] = np.log(weights[positive])
        keys = keys + logw
    triplets = np.argsort(-keys, axis=1, kind="stable")[:, :3]
    rot, t, valid = _triplet_poses(src[triplets], dst[triplets])
    sq = []
    for i in range(3):
        e = (rot[:, i, 0, None] * src[:, 0] + rot[:, i, 2, None] * src[:, 2]) \
            + rot[:, i, 1, None] * src[:, 1]
        e = (e + t[:, i, None]) - dst[:, i]
        sq.append(e * e)
    res = np.sqrt((sq[0] + sq[1]) + sq[2])
    inlier = res <= threshold
    counts = inlier.sum(axis=1)
    counts[~valid] = -1
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_res = np.where(
            counts > 0, (res * inlier).sum(axis=1) / np.maximum(counts, 1), np.inf
        )
    best = int(np.lexsort((mean_res, -counts))[0])
    if counts[best] < 3:
        raise NoConsensus(f"best hypothesis explains only {max(counts[best], 0)} matches")
    return Pose(rot[best], t[best]), np.nonzero(inlier[best])[0], res[best]


def _register_dense(src, dst, iterations, weights, seed, threshold):
    """The engine unchunked: :func:`_seed_dense`, then the refit."""
    seed_pose, seed_inliers, seed_res = _seed_dense(src, dst, iterations, weights, seed, threshold)
    try:
        pose = kabsch(src[seed_inliers], dst[seed_inliers])
    except DegenerateConfiguration:
        pose = seed_pose
    final_res = np.linalg.norm(pose.apply(src) - dst, axis=1)
    final_inliers = np.nonzero(final_res <= threshold)[0]
    if len(final_inliers) < 3:
        pose, final_res, final_inliers = seed_pose, seed_res, seed_inliers
    return pose, final_inliers, float(final_res[final_inliers].mean())


# ---------------------------------------------------------------------------
# Kabsch
# ---------------------------------------------------------------------------


class TestKabsch:
    def test_identical_sets_give_identity(self, rng):
        pts = rng.normal(size=(20, 3))
        pose = kabsch(pts, pts)
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pose.translation, 0.0, atol=1e-12)

    def test_recovers_random_rigid_transform(self, rng):
        for _ in range(20):
            true = random_se3(rng)
            src = rng.normal(size=(30, 3))
            pose = kabsch(src, true.apply(src))
            np.testing.assert_allclose(pose.rotation, true.rotation, atol=1e-9)
            np.testing.assert_allclose(pose.translation, true.translation, atol=1e-9)

    def test_collinear_points_raise(self):
        t = np.linspace(0.0, 1.0, 10)
        line = np.column_stack([t, t, t])
        with pytest.raises(DegenerateConfiguration):
            kabsch(line, line)

    def test_coincident_points_raise(self):
        pts = np.zeros((5, 3))
        with pytest.raises(DegenerateConfiguration):
            kabsch(pts, pts)

    def test_fewer_than_three_pairs_raise(self, rng):
        pts = rng.normal(size=(2, 3))
        with pytest.raises(TooFewMatches):
            kabsch(pts, pts)

    def test_rows_of_other_width_are_rejected(self, rng):
        # Two rows of six would read as four points if reshaped.
        pts = rng.normal(size=(2, 6))
        with pytest.raises(ValueError, match=r"src must have shape \(M, 3\), got \(2, 6\)"):
            kabsch(pts, pts)

    @pytest.mark.parametrize("views", ["src", "dst"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_coordinates_are_rejected(self, rng, bad, views):
        # Such a coordinate would fail the SVD, warn, or give a far-off
        # pose; it is refused naming its view, as Correspondences does.
        src = rng.normal(size=(20, 3))
        dst = random_se3(rng).apply(src)
        {"src": src, "dst": dst}[views][5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{views} must be finite and within 1e\+09 m"):
                kabsch(src, dst)

    def test_reflection_never_returned(self, rng):
        # Near-planar clouds push the smallest singular value to zero,
        # where the naive SVD solution can flip to a reflection.
        for _ in range(20):
            src = rng.normal(size=(10, 3))
            src[:, 2] *= 1e-6
            true = random_se3(rng)
            pose = kabsch(src, true.apply(src))
            assert np.linalg.det(pose.rotation) > 0.99

    def test_fit_matches_independent_solver(self, rng):
        for _ in range(10):
            src = rng.normal(size=(25, 3))
            dst = random_se3(rng).apply(src) + rng.normal(scale=0.05, size=(25, 3))
            got = kabsch(src, dst)
            exp = _kabsch_oracle(src, dst)
            np.testing.assert_allclose(got.rotation, exp.rotation, atol=1e-8)
            np.testing.assert_allclose(got.translation, exp.translation, atol=1e-8)

    def test_residual_is_locally_optimal(self, rng):
        src = rng.normal(size=(20, 3))
        dst = random_se3(rng).apply(src) + rng.normal(scale=0.02, size=(20, 3))
        best = _residual(kabsch(src, dst), src, dst)
        for _ in range(50):
            probe = random_se3(rng, translation_scale=0.5)
            assert best <= _residual(probe, src, dst) + 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (kabsch, r"source/destination shapes differ: \(4, 3\) vs \(5, 3\)"),
        (lambda src, dst: compatibility_scores(src, dst, 0.01), "source/destination counts differ"),
    ],
    ids=["kabsch", "compatibility_scores"],
)
def test_point_sets_of_different_counts_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(np.zeros((4, 3)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# Compatibility scoring
# ---------------------------------------------------------------------------


class TestCompatibilityScores:
    def test_crafted_outlier_scores_zero(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
        dst = src.copy()
        dst[3] += 5.0  # breaks every pair it participates in
        scores = compatibility_scores(src, dst, tolerance=0.01)
        np.testing.assert_array_equal(scores, [2.0, 2.0, 2.0, 0.0])

    def test_rigidly_moved_set_is_fully_compatible(self, rng):
        src = rng.normal(size=(30, 3))
        dst = random_se3(rng).apply(src)
        scores = compatibility_scores(src, dst, tolerance=1e-6)
        np.testing.assert_array_equal(scores, 29.0)

    def test_inliers_outscore_outliers(self, rng):
        matches, _ = make_correspondences(
            n_matches=80, outlier_fraction=0.3, noise=0.0, seed=9
        )
        scores = compatibility_scores(
            matches.anchor_points, matches.query_points, tolerance=0.01
        )
        # The 56 genuine matches form a mutual-compatibility clique, so
        # each scores at least 55; gross outliers land far below.
        assert (scores >= 55).sum() >= 56
        assert (scores[scores < 55] < 30).all()

    def test_rows_of_other_width_are_rejected(self, rng):
        pts = rng.normal(size=(2, 6))
        with pytest.raises(ValueError, match=r"src must have shape \(M, 3\), got \(2, 6\)"):
            compatibility_scores(pts, pts, tolerance=0.01)

    @pytest.mark.parametrize("n", [3, 129, 300])
    def test_blocks_equal_dense_matrix(self, rng, n):
        src = rng.normal(scale=0.1, size=(n, 3))
        dst = random_se3(rng).apply(src) + rng.normal(scale=0.005, size=(n, 3))
        dst[::4] = rng.normal(scale=0.1, size=dst[::4].shape)
        src[1::9] = src[0]  # repeated points: zero distances off the diagonal
        for tolerance in (0.005, 0.01, 1.0):
            got = compatibility_scores(src, dst, tolerance)
            np.testing.assert_array_equal(got, _compatibility_dense(src, dst, tolerance))


class TestGramThenRecount:
    """Compatibility from one Gram product per view, with the entries
    inside the rounding band recounted, against the exact dense matrix."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Lengths recounted exactly (two per entry, one per view), and the
        calls of the Gram block route."""
        seen = {"recounted": 0, "gram": 0}
        lengths, gram = registration._lengths, registration._gram_distances

        def recount(p, i, j):
            seen["recounted"] += len(i)
            return lengths(p, i, j)

        def blocks(*args):
            seen["gram"] += 1
            return gram(*args)

        monkeypatch.setattr(registration, "_lengths", recount)
        monkeypatch.setattr(registration, "_gram_distances", blocks)
        return seen

    @pytest.mark.parametrize("offset", [0.0, 60.0, 1000.0])
    def test_changes_within_ulps_of_tolerance(self, rng, spy, offset):
        # Every other point of the destination is moved along its ray from
        # point 0 so that its distance to point 0 grows by the tolerance
        # plus -40 to 40 ulps of the coordinates: half of row 0 sits inside
        # the band, on both sides of the tolerance. At 60 and 1000 m the
        # ulps widen with the coordinates; the band does not, since it
        # depends on the centred coordinates only.
        n, tol = 300, INLIER_THRESHOLD
        src = rng.normal(scale=0.05, size=(n, 3)) + offset
        dst = src.copy()
        ray = src[2::2] - src[0]
        length = np.linalg.norm(ray, axis=1, keepdims=True)
        ulps = rng.integers(-40, 41, size=(len(ray), 1)) * np.spacing(offset + 0.25)
        dst[2::2] = src[0] + ray / length * (length + tol + ulps)
        want = _compatibility_dense(src, dst, tol)
        np.testing.assert_array_equal(compatibility_scores(src, dst, tol), want)
        change = np.abs(_distances_dense(src)[0] - _distances_dense(dst)[0])[2::2]
        assert (change <= tol).any() and (change > tol).any()
        assert spy["recounted"] >= 2 * len(ray)
        assert spy["gram"] > 0

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 60.0])
    def test_gram_roots_stay_inside_the_band(self, rng, scale, offset):
        # Random clouds with near-coincident pairs, where a root magnifies
        # the rounding of its square most. Per view the routes differ by
        # at most R, and a length change by at most 2R + 8uM = band / 4.
        n = 200
        views = []
        for _ in range(2):
            p = rng.normal(scale=scale, size=(n, 3))
            p[1::10] = p[::10] + rng.normal(scale=1e-9 * scale, size=(n // 10, 3))
            views.append(p + offset * scale)
        centred = [p - p.mean(axis=0) for p in views]
        band = _length_band(*centred)
        fast, exact = [], []
        for p, c in zip(views, centred):
            fast.append(_gram_distances(*_gram_factors(c), 0, n, np.empty((n, n))))
            exact.append(_distances_dense(p))
            assert np.abs(fast[-1] - exact[-1]).max() <= band / 8
        err = np.abs(np.abs(fast[0] - fast[1]) - np.abs(exact[0] - exact[1]))
        assert 0 < err.max() <= band / 4

    @pytest.mark.parametrize("tolerance", [0.0, 1e-12, INLIER_THRESHOLD])
    def test_coincident_points_score_as_dense(self, rng, tolerance):
        # Repeated points: exact lengths of zero whose fast squares round
        # below zero, taken by magnitude before the root with no
        # RuntimeWarning. At a tolerance of 0 every repeated pair lies
        # inside the band.
        src = rng.normal(scale=0.05, size=(260, 3))
        src[1::3] = src[::3][: len(src[1::3])]
        dst = random_se3(rng).apply(src)
        dst[1::3] = dst[::3][: len(dst[1::3])]
        a, b = _gram_factors(src - src.mean(axis=0))
        assert ((a @ b)[np.arange(1, 260, 3), np.arange(0, 259, 3)] < 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compatibility_scores(src, dst, tolerance)
        np.testing.assert_array_equal(got, _compatibility_dense(src, dst, tolerance))

    @pytest.mark.parametrize("views", ["src", "dst", "both"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
    def test_non_finite_or_overflowing_coordinates_are_rejected(self, rng, spy, bad, views):
        # A NaN or infinite coordinate, or one whose squares overflow, in
        # either view is refused before any length is measured, naming the
        # first view that holds it.
        src = rng.normal(scale=0.05, size=(150, 3))
        dst = random_se3(rng).apply(src)
        if views != "dst":
            src[7, 1] = bad
        if views != "src":
            dst[40, 2] = bad
        name = "dst" if views == "dst" else "src"
        with pytest.raises(ValueError, match=rf"^{name} must be finite and within 1e\+09 m"):
            compatibility_scores(src, dst, INLIER_THRESHOLD)
        assert spy["gram"] == 0 and spy["recounted"] == 0

    @pytest.mark.parametrize("views", ["src", "dst"])
    def test_coordinates_at_the_bound_are_accepted(self, rng, views):
        # At the bound every length change lies inside the band, so every
        # entry is recounted exactly; one ulp above it is refused.
        src = rng.normal(scale=0.05, size=(40, 3))
        dst = random_se3(rng).apply(src)
        bad = {"src": src, "dst": dst}[views]
        bad[3, 0] = -COORDINATE_BOUND
        want = _compatibility_dense(src, dst, INLIER_THRESHOLD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compatibility_scores(src, dst, INLIER_THRESHOLD)
        np.testing.assert_array_equal(got, want)
        bad[3, 0] = np.nextafter(-COORDINATE_BOUND, -np.inf)
        with pytest.raises(ValueError, match=rf"^{views} must be finite"):
            compatibility_scores(src, dst, INLIER_THRESHOLD)

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_memory_stays_within_blocks(self, n):
        # An (n, n) float64 matrix takes 32 and 128 MB here; the scores
        # hold two (_BLOCK, n) distance blocks and their masks.
        matches, _ = make_correspondences(
            n_matches=n, outlier_fraction=0.5, noise=0.002, seed=4, extent=0.15
        )
        src, dst = matches.anchor_points, matches.query_points
        tracemalloc.start()
        try:
            compatibility_scores(src, dst, INLIER_THRESHOLD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _BLOCK * n * 8


class TestTopThree:
    def _stable(self, keys):
        return np.argsort(-keys, axis=1, kind="stable")[:, :3]

    def test_equals_stable_sort_on_random_keys(self, rng):
        keys = rng.gumbel(size=(200, 50))
        np.testing.assert_array_equal(_top3(keys), self._stable(keys))

    def test_ties_and_infinite_keys(self, rng):
        # Few distinct values force ties at and around the third key.
        for n in (3, 4, 5, 9):
            keys = rng.integers(-2, 3, size=(400, n)).astype(np.float64)
            keys[rng.random(keys.shape) < 0.25] = -np.inf
            keys[rng.random(keys.shape) < 0.1] = -0.0
            np.testing.assert_array_equal(_top3(keys), self._stable(keys))

    def test_input_left_unchanged(self, rng):
        keys = rng.gumbel(size=(50, 8))
        keys[::3, 2] = -np.inf
        before = keys.copy()
        _top3(keys)
        np.testing.assert_array_equal(keys, before)

    @pytest.mark.parametrize("finite", [0, 1, 2])
    def test_rows_with_fewer_than_three_finite_keys(self, rng, finite):
        keys = np.full((40, 7), -np.inf)
        for row in keys:
            row[rng.choice(7, size=finite, replace=False)] = rng.normal(size=finite)
        keys[-1] = -np.inf  # a row with no finite key at all
        np.testing.assert_array_equal(_top3(keys), self._stable(keys))

    def test_crafted_tie_at_third_and_fourth_key(self):
        keys = np.array([
            [0.0, 5.0, 1.0, 1.0, 4.0, 1.0],  # third and fourth keys tie
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # every key ties
            [-np.inf, 2.0, -np.inf, 3.0, -np.inf, 1.0],
            [-np.inf, -np.inf, 2.0, -np.inf, -np.inf, -np.inf],  # infinite third key
        ])
        np.testing.assert_array_equal(
            _top3(keys), [[1, 4, 2], [0, 1, 2], [3, 1, 5], [2, 0, 1]]
        )
        np.testing.assert_array_equal(_top3(keys), self._stable(keys))


def _noisy_triangles(rng, h, offset):
    """``h`` well-shaped source triangles about 5 cm across near ``offset``,
    and their images under random poses with 1 mm of noise."""
    corners = 0.05 * np.array([[1.0, 0.0, 0.0], [-0.5, 0.8, 0.0], [-0.5, -0.9, 0.1]])
    s3 = np.empty((h, 3, 3))
    d3 = np.empty((h, 3, 3))
    for k in range(h):
        s3[k] = random_se3(rng, 0.1).apply(corners) + rng.normal(scale=0.005, size=(3, 3))
        d3[k] = random_se3(rng, 0.1).apply(s3[k]) + rng.normal(scale=0.001, size=(3, 3))
    return s3 + offset, d3 + offset


def _unit_normals(p3):
    normal = np.cross(p3[:, 1] - p3[:, 0], p3[:, 2] - p3[:, 0])
    return normal / np.linalg.norm(normal, axis=1, keepdims=True)


def _assert_proper(rot):
    np.testing.assert_allclose(np.linalg.det(rot), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rot.transpose(0, 2, 1) @ rot, np.broadcast_to(np.eye(3), rot.shape),
                               rtol=0, atol=1e-12)


class TestTripletPoses:
    """The closed-form triplet fit against the SVD of :func:`kabsch`."""

    @pytest.mark.parametrize("offset", [0.0, 60.0])
    def test_agrees_with_kabsch(self, rng, offset):
        s3, d3 = _noisy_triangles(rng, 200, offset)
        rot, t, valid = _triplet_poses(s3, d3)
        assert valid.all()
        for k in range(len(s3)):
            pose = kabsch(s3[k], d3[k])
            np.testing.assert_allclose(rot[k], pose.rotation, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t[k], pose.translation, rtol=0, atol=1e-12)

    def test_mirrored_destination_is_turned_over(self, rng):
        # A proper rotation that turns a triangle over reaches its mirror
        # image. The destination's normal turns with the mirror, so in the
        # two frames the fit is an in-plane rotation and n goes to +n_d.
        s3, d3 = _noisy_triangles(rng, 200, 0.0)
        d3 *= [1.0, 1.0, -1.0]
        rot, t, valid = _triplet_poses(s3, d3)
        assert valid.all()
        _assert_proper(rot)
        for k in range(len(s3)):
            pose = kabsch(s3[k], d3[k])
            np.testing.assert_allclose(rot[k], pose.rotation, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t[k], pose.translation, rtol=0, atol=1e-12)
        mapped = np.einsum("hij,hj->hi", rot, _unit_normals(s3))
        np.testing.assert_allclose(mapped, _unit_normals(d3), rtol=0, atol=1e-12)

    def test_reflection_branch_returns_a_proper_rotation(self, rng):
        # Slivers 1 m long and 1e-11 to 1e-9 m high are valid, but rounding
        # can flip the sign of det M; those rows take the in-plane
        # reflection and send n to -n_d.
        h = 4000
        along = rng.normal(size=(h, 1, 3))
        along /= np.linalg.norm(along, axis=2, keepdims=True)
        across = rng.normal(size=(h, 1, 3))
        across -= (across * along).sum(axis=2, keepdims=True) * along
        across /= np.linalg.norm(across, axis=2, keepdims=True)
        height = 10.0 ** rng.uniform(-11, -9, size=(h, 3, 1)) * rng.normal(size=(h, 3, 1))
        s3 = rng.uniform(-0.5, 0.5, size=(h, 3, 1)) * along + height * across
        d3 = s3 + rng.normal(size=(h, 1, 3)) + rng.normal(scale=1e-11, size=(h, 3, 3))
        rot, t, valid = _triplet_poses(s3, d3)
        turned = np.einsum("hij,hj,hi->h", rot, _unit_normals(s3), _unit_normals(d3))
        flipped = valid & (turned < 0)
        assert valid.sum() > h // 2 and flipped.sum() > 10
        _assert_proper(rot)

    def test_validity_is_the_area_test(self, rng):
        # Collinear, coincident and near-collinear triplets, beside general
        # ones. The areas are the centred mean, np.cross and np.linalg.norm
        # expression that the SVD fit used.
        def areas(p3):
            p0 = p3 - p3.mean(axis=1, keepdims=True)
            return np.linalg.norm(np.cross(p0[:, 1] - p0[:, 0], p0[:, 2] - p0[:, 0]), axis=1)

        base = rng.normal(size=(400, 3, 3))
        along = rng.normal(size=(400, 3, 1)) * rng.normal(size=(400, 1, 3))
        line = rng.normal(size=(400, 1, 3)) + along
        height = 10.0 ** rng.uniform(-14, -10, size=(400, 1, 1))
        near = line + rng.normal(size=(400, 3, 3)) * height
        same = np.repeat(rng.normal(size=(400, 1, 3)), 3, axis=1)
        assert (areas(near) > 1e-12).any() and (areas(near) <= 1e-12).any()
        for s3, d3 in ((base, line), (line, base), (near, base), (base, near),
                       (same, base), (base, same), (near, near), (base, base)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rot, t, valid = _triplet_poses(s3, d3)
            np.testing.assert_array_equal(valid, (areas(s3) > 1e-12) & (areas(d3) > 1e-12))
            identity = np.broadcast_to(np.eye(3), rot[~valid].shape)
            np.testing.assert_array_equal(rot[~valid], identity)
            np.testing.assert_array_equal(t[~valid], 0.0)
            assert np.isfinite(rot).all() and np.isfinite(t).all()

    def test_rows_do_not_depend_on_the_batch(self, rng):
        s3, d3 = _noisy_triangles(rng, 1000, 60.0)
        s3[::7] = s3[::7, :1]  # coincident: invalid rows in every chunk
        d3[3::11] *= [1.0, 1.0, -1.0]
        whole = _triplet_poses(s3, d3)
        for start in range(0, 1000, 128):
            chunk = _triplet_poses(s3[start:start + 128], d3[start:start + 128])
            for got, want in zip(chunk, whole):
                np.testing.assert_array_equal(got, want[start:start + 128])
        for k in (0, 7, 127, 128, 500, 999):
            alone = _triplet_poses(s3[k:k + 1], d3[k:k + 1])
            for got, want in zip(alone, whole):
                np.testing.assert_array_equal(got, want[k:k + 1])


# ---------------------------------------------------------------------------
# Robust registration
# ---------------------------------------------------------------------------


class TestRegisterSpatialConsistency:
    def test_perfect_correspondences_recover_pose_exactly(self, rng):
        true = random_se3(rng)
        src = rng.normal(size=(50, 3))
        matches = Correspondences(src, true.apply(src))
        result = register_spatial_consistency(matches)
        rot_err, trans_err = _pose_errors(result.pose, true)
        assert rot_err < 1e-9
        assert trans_err < 1e-9
        assert len(result.inliers) == 50
        assert result.mean_residual < 1e-9

    def test_contaminated_matches_still_recover_pose(self):
        # 200 matches over a 15 cm extent keep the 2 mm noise floor of the
        # refit well under the 1 degree budget.
        successes = 0
        for seed in range(20):
            matches, true = make_correspondences(
                n_matches=200, outlier_fraction=0.3, noise=0.002,
                seed=seed, extent=0.15,
            )
            result = register_spatial_consistency(matches, seed=seed)
            rot_err, trans_err = _pose_errors(result.pose, true)
            if rot_err < np.radians(1.0) and trans_err < 0.005:
                successes += 1
        assert successes >= 19

    def test_random_matches_fail_loudly_or_with_tiny_consensus(self, rng):
        src = rng.uniform(-0.1, 0.1, size=(60, 3))
        dst = rng.uniform(-0.1, 0.1, size=(60, 3))
        matches = Correspondences(src, dst)
        try:
            result = register_spatial_consistency(matches)
        except NoConsensus:
            return
        assert len(result.inliers) < 0.2 * 60

    def test_fewer_than_three_matches_raise(self, rng):
        for n in (0, 2):
            src = rng.normal(size=(n, 3))
            matches = Correspondences(src, src)
            with pytest.raises(TooFewMatches, match=f"at least 3 matches, got {n}"):
                register_spatial_consistency(matches)

    def test_every_inlier_residual_within_threshold(self):
        matches, _ = make_correspondences(seed=3)
        result = register_spatial_consistency(matches, seed=3)
        res = np.linalg.norm(
            result.pose.apply(matches.anchor_points[result.inliers])
            - matches.query_points[result.inliers],
            axis=1,
        )
        assert (res <= INLIER_THRESHOLD).all()
        assert result.mean_residual <= INLIER_THRESHOLD

    def test_deterministic_inlier_sets_per_seed(self):
        matches, _ = make_correspondences(seed=5)
        a = register_spatial_consistency(matches, seed=42)
        b = register_spatial_consistency(matches, seed=42)
        np.testing.assert_array_equal(a.inliers, b.inliers)
        np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
        np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
        assert a.mean_residual == b.mean_residual

    def test_equivariance_under_rigid_premotion(self, rng):
        matches, _ = make_correspondences(seed=8)
        g = random_se3(rng)
        moved = Correspondences(
            g.apply(matches.anchor_points), matches.query_points
        )
        base = register_spatial_consistency(matches, seed=17)
        shifted = register_spatial_consistency(moved, seed=17)
        np.testing.assert_array_equal(base.inliers, shifted.inliers)
        expected = base.pose.compose(g.inverse())
        np.testing.assert_allclose(shifted.pose.rotation, expected.rotation, atol=1e-9)
        np.testing.assert_allclose(
            shifted.pose.translation, expected.translation, atol=1e-9
        )


class TestChunkedEngine:
    @pytest.mark.parametrize("threshold", [0.005, INLIER_THRESHOLD])
    @pytest.mark.parametrize("iterations", [1, 127, 128, 129, 1000])
    def test_equals_dense_reference(self, iterations, threshold):
        matches, _ = make_correspondences(
            n_matches=150, outlier_fraction=0.6, noise=0.002, seed=iterations, extent=0.15
        )
        src, dst = matches.anchor_points, matches.query_points
        n = len(src)
        scores = compatibility_scores(src, dst, threshold)
        few = np.zeros(n)
        few[[4, 40]] = 1.0  # fewer than three positive weights: uniform
        mixed = scores.copy()
        mixed[::3] = 0.0  # zero weights among positive ones: keys of -inf
        three = np.zeros(n)
        three[[4, 40, 99]] = [2.0, 0.5, 7.0]  # only three finite keys per row
        for weights in (scores, np.ones(n), few, mixed, three):
            for seed in (0, 11):
                try:
                    expected = _register_dense(src, dst, iterations, weights, seed, threshold)
                except NoConsensus:
                    with pytest.raises(NoConsensus):
                        _register(src, dst, iterations, weights, seed, threshold)
                    continue
                got = _register(src, dst, iterations, weights, seed, threshold)
                np.testing.assert_array_equal(got.pose.rotation, expected[0].rotation)
                np.testing.assert_array_equal(got.pose.translation, expected[0].translation)
                np.testing.assert_array_equal(got.inliers, expected[1])
                assert got.mean_residual == expected[2]

    @pytest.mark.parametrize("iterations", [1, 129, 1000])
    def test_fits_every_triplet_in_one_call(self, monkeypatch, iterations):
        matches, _ = make_correspondences(
            n_matches=150, outlier_fraction=0.5, noise=0.002, seed=3, extent=0.15
        )
        rows = []
        fit = registration._triplet_poses

        def spy(s3, d3):
            rows.append(len(s3))
            return fit(s3, d3)

        monkeypatch.setattr(registration, "_triplet_poses", spy)
        src, dst = matches.anchor_points, matches.query_points
        try:
            _register(src, dst, iterations, np.ones(len(src)), 5, INLIER_THRESHOLD)
        except NoConsensus:
            pass
        assert rows == [iterations]

    @pytest.mark.parametrize("iterations", [1000, 8000])
    def test_memory_does_not_grow_with_n_squared(self, iterations):
        # Dense (N, N, 3) and (iterations, N, 3) arrays peaked near 288 MB
        # here, and an (iterations, N) array takes 128 MB at 8000
        # hypotheses; the engine holds a few (128, N) blocks at a time, and
        # the triplets and their poses grow with the budget alone.
        matches, _ = make_correspondences(
            n_matches=2000, outlier_fraction=0.5, noise=0.002, seed=4, extent=0.15
        )
        tracemalloc.start()
        try:
            result = register_spatial_consistency(
                matches, RegistrationParams(iterations), seed=4
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6
        assert len(result.inliers) >= 900


class TestClassifyThenVerify:
    """The fast-classified engine against the exact dense reference, on
    inputs built to reach its verify band and its mean margin."""

    def _check(self, src, dst, iterations, weights, seed, threshold):
        expected = _register_dense(src, dst, iterations, weights, seed, threshold)
        got = _register(src, dst, iterations, weights, seed, threshold)
        np.testing.assert_array_equal(got.pose.rotation, expected[0].rotation)
        np.testing.assert_array_equal(got.pose.translation, expected[0].translation)
        np.testing.assert_array_equal(got.inliers, expected[1])
        assert got.mean_residual == expected[2]

    @pytest.fixture
    def threshold(self):
        """The engine's threshold; a test that parametrizes ``threshold``
        overrides it, for itself and for :meth:`spy`."""
        return INLIER_THRESHOLD

    @pytest.fixture
    def spy(self, monkeypatch, threshold):
        """Entries that fell inside the verify band at ``threshold``, and
        the row count of every exact-residual call."""
        seen = {"band": 0, "rows": []}
        fast, exact = registration._squared_residuals, registration._residuals

        def squared(rot, t, points):
            sq = fast(rot, t, points)
            lo, hi, _ = _bands(points[:3].T, points[4:].T, threshold)
            seen["band"] += int(((sq > lo) & (sq <= hi)).sum())
            return sq

        def residuals(rot, t, src, dst):
            seen["rows"].append(len(rot))
            return exact(rot, t, src, dst)

        monkeypatch.setattr(registration, "_squared_residuals", squared)
        monkeypatch.setattr(registration, "_residuals", residuals)
        return seen

    @pytest.mark.parametrize("threshold", [0.005, INLIER_THRESHOLD])
    @pytest.mark.parametrize("offset", [0.0, 60.0])
    def test_residuals_within_ulps_of_threshold(self, rng, spy, offset, threshold):
        # Two consensus sets. The first has 25 exact matches and 30 that
        # sit the threshold away in random directions, short of it by
        # 8 to 63 ulps of the coordinates; the second has 45 exact matches
        # under another pose. Hypotheses fit to exact matches of the first
        # set put the 30 residuals inside the band, and only if the exact
        # residuals count them does the first set win. At 60 m the band
        # and the ulps widen with the coordinates.
        src = rng.normal(scale=0.05, size=(100, 3)) + offset
        dst = src.copy()
        away = rng.normal(size=(30, 3))
        away /= np.linalg.norm(away, axis=1, keepdims=True)
        short = rng.integers(8, 64, size=(30, 1)) * np.spacing(offset + 0.25)
        dst[25:55] += (threshold - short) * away
        dst[55:] = random_se3(rng, translation_scale=0.5).apply(src[55:]) + [1.0, 0, 0]
        for weights in (compatibility_scores(src, dst, threshold), np.ones(100)):
            for seed in (0, 5):
                self._check(src, dst, 1000, weights, seed, threshold)
                assert (_register_dense(src, dst, 1000, weights, seed, threshold)[1] < 55).all()
        assert spy["band"] > 0

    @pytest.mark.parametrize("threshold", [0.005, INLIER_THRESHOLD])
    def test_recount_rejects_residuals_beyond_the_threshold(self, rng, spy, threshold):
        # The first pose explains 25 exact matches and 30 that sit a few
        # ulps short of the threshold, so its rows are recounted from exact
        # residuals; 10 more sit 1.5 thresholds from it. The second pose
        # explains 60 exact matches and wins, unless a recount against a
        # larger threshold takes in the 10 and gives the first pose 65.
        src = rng.normal(scale=0.05, size=(125, 3))
        dst = src.copy()
        away = rng.normal(size=(40, 3))
        away /= np.linalg.norm(away, axis=1, keepdims=True)
        away[:30] *= threshold - rng.integers(8, 64, size=(30, 1)) * np.spacing(0.25)
        away[30:] *= 1.5 * threshold
        dst[25:65] += away
        dst[65:] = random_se3(rng, translation_scale=0.5).apply(src[65:]) + [1.0, 0, 0]
        for weights in (compatibility_scores(src, dst, threshold), np.ones(125)):
            for seed in (0, 5):
                self._check(src, dst, 1000, weights, seed, threshold)
                assert (_register_dense(src, dst, 1000, weights, seed, threshold)[1] >= 65).all()
        assert spy["band"] > 0

    def test_band_grows_with_coordinate_magnitude(self, rng):
        src = rng.normal(scale=0.05, size=(20, 3))
        near = _bands(src, src, INLIER_THRESHOLD)
        far = _bands(src + 60.0, src + 60.0, INLIER_THRESHOLD)
        assert far[0] < near[0] < INLIER_THRESHOLD**2 < near[1] < far[1]
        assert far[2] > near[2]
        # Both bands stay far inside the threshold.
        assert far[1] - far[0] < 1e-6 * INLIER_THRESHOLD**2

    def test_offset_clouds_equal_dense_reference(self):
        matches, _ = make_correspondences(
            n_matches=150, outlier_fraction=0.5, noise=0.002, seed=3, extent=0.15
        )
        src = matches.anchor_points + 60.0
        dst = matches.query_points + 60.0
        weights = compatibility_scores(src, dst, INLIER_THRESHOLD)
        for seed in (0, 11):
            self._check(src, dst, 300, weights, seed, INLIER_THRESHOLD)

    def test_hypotheses_tied_on_count_resolve_by_exact_mean(self, rng, spy):
        # Noise-free matches: every valid hypothesis explains all of them,
        # and their mean residuals differ by rounding only, so many rows
        # stay within the mean margin and get exact means.
        true = random_se3(rng)
        src = rng.normal(scale=0.05, size=(60, 3))
        dst = true.apply(src)
        for weights in (compatibility_scores(src, dst, INLIER_THRESHOLD), np.ones(60)):
            for seed in (0, 7):
                self._check(src, dst, 300, weights, seed, INLIER_THRESHOLD)
        assert max(spy["rows"]) > 1

    def test_exact_tie_across_chunks_keeps_the_earlier_hypothesis(self, monkeypatch):
        # Two groups of five matches, one moved by t = 0 and one by t = (1,
        # 0, 0), off by the same dyadic residuals: both hypotheses count
        # five inliers with the same exact mean, and they sit in different
        # chunks. The running best, hypothesis 0, keeps its tie.
        base = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]) / 16
        off = np.array([0, 1, 2, 3, 4]) / 512
        src = np.vstack((base, base + 0.5))
        dst = src + np.column_stack((np.repeat([0.0, 1.0], 5), np.tile(off, 2), np.zeros(10)))
        iterations = registration._CHUNK + 1

        def two_poses(s3, d3):
            rot = np.tile(np.eye(3), (iterations, 1, 1))
            t = np.zeros((iterations, 3))
            t[-1, 0] = 1.0
            valid = np.zeros(iterations, dtype=bool)
            valid[[0, -1]] = True
            return rot, t, valid

        monkeypatch.setattr(registration, "_triplet_poses", two_poses)
        got = _register(src, dst, iterations, np.ones(10), 0, INLIER_THRESHOLD)
        np.testing.assert_array_equal(got.inliers, np.arange(5))
        assert abs(got.pose.translation[0]) < 0.01

    @pytest.mark.parametrize("offset", [0.0, 60.0, 1000.0])
    def test_fused_product_stays_inside_the_bound(self, rng, offset):
        # Hypotheses within 1e-9 rad and 1 um of the true pose, and
        # matches up to the threshold away from it: every entry lies where
        # the bound B = delta / 100 of _bands holds.
        true = random_se3(rng, translation_scale=0.5)
        src = rng.normal(scale=0.05, size=(400, 3)) + offset
        away = rng.normal(size=(400, 3))
        away /= np.linalg.norm(away, axis=1, keepdims=True)
        away *= rng.uniform(0.0, INLIER_THRESHOLD, size=(400, 1))
        dst = true.apply(src) + away
        turn = Rotation.from_rotvec(rng.normal(scale=1e-9, size=(128, 3))).as_matrix()
        rot = turn @ true.rotation
        t = true.translation + rng.normal(scale=1e-6, size=(128, 3))
        fused = registration._squared_residuals(rot, t, np.vstack((src.T, np.ones(400), dst.T)))
        exact = registration._residuals(rot, t, src, dst) ** 2
        assert exact.max() <= INLIER_THRESHOLD**2
        lo, hi, _ = _bands(src, dst, INLIER_THRESHOLD)
        assert np.abs(fused - exact).max() <= (hi - lo) / 200

    def test_nan_match_reaches_neither_estimator(self, rng, monkeypatch):
        # Correspondences refuses a NaN coordinate at construction, so the
        # engine never classifies a row against it.
        calls = []
        monkeypatch.setattr(registration, "_register", lambda *args: calls.append(args))
        src = rng.normal(scale=0.05, size=(20, 3))
        src[0, 0] = np.nan
        for estimator in (register_spatial_consistency, register_ransac):
            with pytest.raises(ValueError, match="^anchor points must be finite"):
                estimator(Correspondences(src, src))
        assert calls == []


class TestRegistrationParams:
    @pytest.mark.parametrize("iterations", [1, 1000, np.int64(129), np.int32(5)])
    def test_integers_are_accepted(self, iterations):
        assert RegistrationParams(iterations).iterations == iterations

    @pytest.mark.parametrize("iterations", [2.5, 1000.0, np.float64(4.0), True, False, "10", None])
    def test_non_integral_or_bool_budget_is_rejected(self, iterations):
        with pytest.raises(ValueError, match="iterations"):
            RegistrationParams(iterations)

    @pytest.mark.parametrize("iterations", [0, -3, np.int64(0)])
    def test_budget_below_one_is_rejected(self, iterations):
        with pytest.raises(ValueError, match="iterations must be at least 1"):
            RegistrationParams(iterations)


class TestRegisterRansac:
    def test_outlier_free_agrees_with_spatial_consistency(self, rng):
        true = random_se3(rng)
        src = rng.normal(size=(40, 3))
        matches = Correspondences(src, true.apply(src))
        a = register_spatial_consistency(matches)
        b = register_ransac(matches)
        np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-9)
        np.testing.assert_allclose(a.pose.translation, b.pose.translation, atol=1e-9)

    def test_two_matches_raise(self, rng):
        src = rng.normal(size=(2, 3))
        matches = Correspondences(src, src)
        with pytest.raises(TooFewMatches):
            register_ransac(matches)

    def test_success_rate_trails_scored_variant_at_tight_budget(self):
        # At a deliberately tiny iteration budget the consistency scores
        # matter; both variants get the same budget and seeds.
        sc_wins, rs_wins = 0, 0
        for seed in range(40):
            matches, true = make_correspondences(
                n_matches=200, outlier_fraction=0.3, noise=0.002,
                seed=seed, extent=0.15,
            )
            params = RegistrationParams(iterations=4)

            def ok(result):
                rot_err, trans_err = _pose_errors(result.pose, true)
                return rot_err < np.radians(1.0) and trans_err < 0.005

            try:
                sc_wins += ok(register_spatial_consistency(matches, params, seed=seed))
            except NoConsensus:
                pass
            try:
                rs_wins += ok(register_ransac(matches, params, seed=seed))
            except NoConsensus:
                pass
        assert sc_wins > rs_wins


class TestDegenerateMatches:
    @pytest.mark.parametrize("estimator", [register_spatial_consistency, register_ransac])
    @pytest.mark.parametrize("kind", ["collinear", "coincident"])
    def test_raise_no_consensus_without_warnings(self, rng, estimator, kind):
        # Every seed triplet is degenerate, so no hypothesis is valid; the
        # text is what register writes into summary.json for such a pair.
        if kind == "collinear":
            src = np.outer(np.arange(40) / 8, [1.0, 2.0, -0.5]) + [0.25, 0.0, 1.0]
        else:
            src = np.repeat([[0.25, 0.0, 1.0]], 40, axis=0)
        matches = Correspondences(src, random_se3(rng).apply(src))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConsensus) as caught:
                estimator(matches, seed=3)
        assert str(caught.value) == "best hypothesis explains only 0 matches (need at least 3)"


class TestRefitFallbacks:
    """Where the refit on the seed inliers cannot stand, the result is the
    seed hypothesis: its pose and its inliers."""

    @pytest.fixture
    def case(self):
        """Matches, their weights, and the seed hypothesis of 200 draws at seed 5."""
        matches, _ = make_correspondences(
            n_matches=150, outlier_fraction=0.6, noise=0.002, seed=5, extent=0.15
        )
        src, dst = matches.anchor_points, matches.query_points
        weights = compatibility_scores(src, dst, INLIER_THRESHOLD)
        return src, dst, weights, _seed_dense(src, dst, 200, weights, 5, INLIER_THRESHOLD)

    def _register_with_refit(self, case, monkeypatch, refit):
        """``_register`` with ``refit`` in place of the Kabsch refit, which
        must be called once, on the seed inliers."""
        src, dst, weights, (pose, inliers, _) = case
        fits = []

        def spy(s, d):
            fits.append((s, d))
            return refit(s, d)

        monkeypatch.setattr(registration, "kabsch", spy)
        got = _register(src, dst, 200, weights, 5, INLIER_THRESHOLD)
        assert len(fits) == 1
        np.testing.assert_array_equal(fits[0][0], src[inliers])
        np.testing.assert_array_equal(fits[0][1], dst[inliers])
        np.testing.assert_array_equal(got.pose.rotation, pose.rotation)
        np.testing.assert_array_equal(got.pose.translation, pose.translation)
        np.testing.assert_array_equal(got.inliers, inliers)
        return got

    def test_degenerate_refit_keeps_the_seed_pose(self, case, monkeypatch):
        def degenerate(s, d):
            raise DegenerateConfiguration("forced")

        got = self._register_with_refit(case, monkeypatch, degenerate)
        # The seed pose passes the final check, whose residuals give the mean.
        src, dst, _, (pose, inliers, _) = case
        res = np.linalg.norm(pose.apply(src) - dst, axis=1)
        assert got.mean_residual == float(res[inliers].mean())

    def test_refit_keeping_under_three_inliers_keeps_the_seed(self, case, monkeypatch):
        far = Pose(np.eye(3), [10.0, 0.0, 0.0])
        got = self._register_with_refit(case, monkeypatch, lambda s, d: far)
        # The seed's own exact residuals give the mean.
        _, _, _, (_, inliers, res) = case
        assert got.mean_residual == float(res[inliers].mean())


# ---------------------------------------------------------------------------
# Hypothesis optimality
# ---------------------------------------------------------------------------


class TestRefitOptimality:
    def test_refit_residual_not_worse_than_seed_hypotheses(self):
        # The final pose is a least-squares fit on its inlier set, so its
        # summed residual there cannot exceed that of any rigid probe.
        matches, _ = make_correspondences(seed=12)
        result = register_spatial_consistency(matches, seed=12)
        src = matches.anchor_points[result.inliers]
        dst = matches.query_points[result.inliers]
        best = _residual(result.pose, src, dst)
        probe_rng = np.random.default_rng(99)
        for _ in range(25):
            probe = random_se3(probe_rng, translation_scale=0.2)
            assert best <= _residual(probe, src, dst) + 1e-12
