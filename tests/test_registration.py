"""Tests for rigid fitting and robust two-stage registration."""

import tracemalloc

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
from crosspose.registration import (
    COMPATIBILITY_TOLERANCE, INLIER_THRESHOLD, _bands, _register, _top3, _triplet_poses,
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


def _seed_dense(src, dst, iterations, weights, seed):
    """The engine's winning hypothesis, unchunked: one key draw, one stable
    sort, all residuals. Returns its pose, its inliers and its residuals.

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
    inlier = res <= INLIER_THRESHOLD
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


def _register_dense(src, dst, iterations, weights, seed):
    """The engine unchunked: :func:`_seed_dense`, then the refit."""
    seed_pose, seed_inliers, seed_res = _seed_dense(src, dst, iterations, weights, seed)
    try:
        pose = kabsch(src[seed_inliers], dst[seed_inliers])
    except DegenerateConfiguration:
        pose = seed_pose
    final_res = np.linalg.norm(pose.apply(src) - dst, axis=1)
    final_inliers = np.nonzero(final_res <= INLIER_THRESHOLD)[0]
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
    @pytest.mark.parametrize("iterations", [1, 127, 128, 129, 1000])
    def test_equals_dense_reference(self, iterations):
        matches, _ = make_correspondences(
            n_matches=150, outlier_fraction=0.6, noise=0.002, seed=iterations, extent=0.15
        )
        src, dst = matches.anchor_points, matches.query_points
        n = len(src)
        few = np.zeros(n)
        few[[4, 40]] = 1.0  # fewer than three positive weights: uniform
        for weights in (compatibility_scores(src, dst, COMPATIBILITY_TOLERANCE), np.ones(n), few):
            for seed in (0, 11):
                try:
                    expected = _register_dense(src, dst, iterations, weights, seed)
                except NoConsensus:
                    with pytest.raises(NoConsensus):
                        _register(src, dst, iterations, weights, seed)
                    continue
                got = _register(src, dst, iterations, weights, seed)
                np.testing.assert_array_equal(got.pose.rotation, expected[0].rotation)
                np.testing.assert_array_equal(got.pose.translation, expected[0].translation)
                np.testing.assert_array_equal(got.inliers, expected[1])
                assert got.mean_residual == expected[2]

    def test_memory_does_not_grow_with_n_squared(self):
        # Dense (N, N, 3) and (iterations, N, 3) arrays peaked near 288 MB
        # here; the chunked engine holds a few (128, N) blocks at a time.
        matches, _ = make_correspondences(
            n_matches=2000, outlier_fraction=0.5, noise=0.002, seed=4, extent=0.15
        )
        tracemalloc.start()
        try:
            result = register_spatial_consistency(matches, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6
        assert len(result.inliers) >= 900


class TestClassifyThenVerify:
    """The fast-classified engine against the exact dense reference, on
    inputs built to reach its verify band and its mean margin."""

    def _check(self, src, dst, iterations, weights, seed):
        expected = _register_dense(src, dst, iterations, weights, seed)
        got = _register(src, dst, iterations, weights, seed)
        np.testing.assert_array_equal(got.pose.rotation, expected[0].rotation)
        np.testing.assert_array_equal(got.pose.translation, expected[0].translation)
        np.testing.assert_array_equal(got.inliers, expected[1])
        assert got.mean_residual == expected[2]

    @pytest.fixture
    def spy(self, monkeypatch):
        """Entries that fell inside the verify band, and the row count of
        every exact-residual call."""
        seen = {"band": 0, "rows": []}
        fast, exact = registration._squared_residuals, registration._residuals

        def squared(rot, t, src_h, dst_t):
            sq = fast(rot, t, src_h, dst_t)
            lo, hi, _ = _bands(src_h[:3].T, dst_t.T)
            seen["band"] += int(((sq > lo) & (sq <= hi)).sum())
            return sq

        def residuals(rot, t, src, dst):
            seen["rows"].append(len(rot))
            return exact(rot, t, src, dst)

        monkeypatch.setattr(registration, "_squared_residuals", squared)
        monkeypatch.setattr(registration, "_residuals", residuals)
        return seen

    @pytest.mark.parametrize("offset", [0.0, 60.0])
    def test_residuals_within_ulps_of_threshold(self, rng, spy, offset):
        # Two consensus sets. The first has 25 exact matches and 30 that
        # sit INLIER_THRESHOLD away in random directions, short of it by
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
        dst[25:55] += (INLIER_THRESHOLD - short) * away
        dst[55:] = random_se3(rng, translation_scale=0.5).apply(src[55:]) + [1.0, 0, 0]
        for weights in (compatibility_scores(src, dst, COMPATIBILITY_TOLERANCE), np.ones(100)):
            for seed in (0, 5):
                self._check(src, dst, 1000, weights, seed)
                assert (_register_dense(src, dst, 1000, weights, seed)[1] < 55).all()
        assert spy["band"] > 0

    def test_band_grows_with_coordinate_magnitude(self, rng):
        src = rng.normal(scale=0.05, size=(20, 3))
        near = _bands(src, src)
        far = _bands(src + 60.0, src + 60.0)
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
        weights = compatibility_scores(src, dst, COMPATIBILITY_TOLERANCE)
        for seed in (0, 11):
            self._check(src, dst, 300, weights, seed)

    def test_hypotheses_tied_on_count_resolve_by_exact_mean(self, rng, spy):
        # Noise-free matches: every valid hypothesis explains all of them,
        # and their mean residuals differ by rounding only, so many rows
        # stay within the mean margin and get exact means.
        true = random_se3(rng)
        src = rng.normal(scale=0.05, size=(60, 3))
        dst = true.apply(src)
        for weights in (compatibility_scores(src, dst, COMPATIBILITY_TOLERANCE), np.ones(60)):
            for seed in (0, 7):
                self._check(src, dst, 300, weights, seed)
        assert max(spy["rows"]) > 1

    def test_non_finite_coordinates_verify_every_row(self):
        src = np.zeros((4, 3))
        src[0, 0] = np.nan
        assert _bands(src, src) == (-np.inf, np.inf, np.inf)


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
        weights = compatibility_scores(src, dst, COMPATIBILITY_TOLERANCE)
        return src, dst, weights, _seed_dense(src, dst, 200, weights, 5)

    def _register_with_refit(self, case, monkeypatch, refit):
        """``_register`` with ``refit`` in place of the Kabsch refit, which
        must be called once, on the seed inliers."""
        src, dst, weights, (pose, inliers, _) = case
        fits = []

        def spy(s, d):
            fits.append((s, d))
            return refit(s, d)

        monkeypatch.setattr(registration, "kabsch", spy)
        got = _register(src, dst, 200, weights, 5)
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
