"""Tests for the forward-only contrastive and segmentation losses."""

import logging
import tracemalloc

import numpy as np
import pytest

from crosspose import (
    DimensionMismatch,
    EmptyMatchSet,
    FeatureSet,
    ZeroVector,
    dice_loss,
    feature_loss,
    hardest_negative_indices,
    hardest_negative_loss,
    positive_loss,
    total_loss,
)
from crosspose import losses

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _cosine_distance(a, b):
    """Scalar cosine distance written out longhand."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return min(1.0, max(0.0, (1.0 - cos) / 2.0))


def _positive_oracle(anchor, query, margin):
    """Per-pair hinge summed in a plain loop."""
    total = 0.0
    for fa, fq in zip(anchor.features, query.features):
        total += max(_cosine_distance(fa, fq) - margin, 0.0)
    return total / len(anchor)


def _hardest_negative_oracle(fset, exclusion_radius):
    """O(C^2) hardest-negative search; ties go to the lowest index.

    Structurally different from the production path: no distance matrix,
    just nested loops with a strict-less-than running minimum, which
    resolves ties to the first (lowest) candidate index scanned.
    """
    c = len(fset)
    indices = np.full(c, -1, dtype=np.int64)
    dists = np.full(c, np.nan)
    for i in range(c):
        best = None
        for k in range(c):
            if k == i:
                continue
            sep = float(np.hypot(*(fset.coords[i] - fset.coords[k])))
            if sep < exclusion_radius:
                continue
            d = _cosine_distance(fset.features[i], fset.features[k])
            if best is None or d < best:
                best = d
                indices[i] = k
        if best is not None:
            dists[i] = best
    return indices, dists


def _dense_hardest_negative(fset):
    """The search over full (C, C) matrices, as the blocked kernel replaced.

    Same arithmetic, so the kernel must match it bit for bit.
    """
    unit = fset.features / np.linalg.norm(fset.features, axis=-1)[:, None]
    dist = np.clip((1.0 - unit @ unit.T) / 2.0, 0.0, 1.0)
    sep = np.linalg.norm(fset.coords[:, None, :] - fset.coords[None, :, :], axis=-1)
    blocked = sep < losses.EXCLUSION_RADIUS
    np.fill_diagonal(blocked, True)
    dist = np.where(blocked, np.inf, dist)
    indices = np.argmin(dist, axis=1)
    best = dist[np.arange(len(fset)), indices]
    none = ~np.isfinite(best)
    indices[none] = -1
    best[none] = np.nan
    return indices, best


def _plain_argmax(fset):
    """Per row, the candidate with the largest Gram entry, first on ties.

    What the search would return if it trusted the top candidate without
    the runner-up check; distances that tie after rounding make it
    differ from the search.
    """
    unit = fset.features / np.linalg.norm(fset.features, axis=-1)[:, None]
    gram = unit @ unit.T
    sep = np.linalg.norm(fset.coords[:, None, :] - fset.coords[None, :, :], axis=-1)
    blocked = sep < losses.EXCLUSION_RADIUS
    np.fill_diagonal(blocked, True)
    return np.argmax(np.where(blocked, -np.inf, gram), axis=1)


def _negative_loss_oracle(anchor, query, margin, exclusion_radius):
    """Two-sided hinge sum over the brute-force minima, weighted 1/(2C)."""
    total = 0.0
    for fset in (anchor, query):
        _, dists = _hardest_negative_oracle(fset, exclusion_radius)
        for d in dists:
            if not np.isnan(d):
                total += max(margin - d, 0.0)
    return total / (2.0 * len(anchor))


def _dice_oracle(pred, gt):
    """Per-pixel Dice computed with plain Python loops."""
    overlap = 0.0
    mass = 0.0
    for r in range(pred.shape[0]):
        for c in range(pred.shape[1]):
            overlap += float(pred[r, c]) * float(gt[r, c])
            mass += float(pred[r, c]) + float(gt[r, c])
    return 1.0 - 2.0 * overlap / (mass + 1e-6)


def _unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _spread_coords(count, spacing=10.0):
    """Coordinates on a line with spacing above the default radius."""
    return np.stack([np.arange(count) * spacing, np.zeros(count)], axis=1)


def _random_featureset(rng, count, dim, coord_range=64.0):
    return FeatureSet(
        features=_unit_rows(rng, count, dim),
        coords=rng.uniform(0.0, coord_range, size=(count, 2)),
    )


# ---------------------------------------------------------------------------
# Loss settings and FeatureSet
# ---------------------------------------------------------------------------


class TestLossParams:
    def test_defaults(self):
        # The module constants every loss and the CLI report use.
        assert losses.POSITIVE_MARGIN == 0.2
        assert losses.NEGATIVE_MARGIN == 0.9
        assert losses.EXCLUSION_RADIUS == 5.0
        assert losses.WEIGHT_POSITIVE == 0.5
        assert losses.WEIGHT_NEGATIVE == 0.5
        assert losses.WEIGHT_MASK == 1.0


class TestFeatureSet:
    def test_coerces_to_float64_and_reports_length(self):
        fset = FeatureSet(
            features=[[1, 0], [0, 1], [1, 1]], coords=[[0, 0], [10, 0], [20, 0]]
        )
        assert len(fset) == 3
        assert fset.features.dtype == np.float64
        assert fset.coords.dtype == np.float64

    def test_coord_count_must_match(self):
        with pytest.raises(ValueError):
            FeatureSet(features=np.eye(3), coords=np.zeros((2, 2)))

    def test_features_must_be_2d(self):
        with pytest.raises(ValueError):
            FeatureSet(features=np.ones(4), coords=np.zeros((4, 2)))

    def test_non_finite_rejected(self):
        bad = np.eye(3)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            FeatureSet(features=bad, coords=np.zeros((3, 2)))

    def test_both_terms_normalise_each_set_once(self, rng, monkeypatch):
        calls = []
        unit_rows = losses.unit_rows

        def counting_unit_rows(vectors, what):
            calls.append(what)
            return unit_rows(vectors, what)

        monkeypatch.setattr(losses, "unit_rows", counting_unit_rows)
        anchor = _random_featureset(rng, 20, 4)
        query = _random_featureset(rng, 20, 4)
        positive_loss(anchor, query)
        hardest_negative_loss(anchor, query)
        assert len(calls) == 2
        norms = np.linalg.norm(anchor.features, axis=1)
        assert np.array_equal(anchor.unit, anchor.features / norms[:, None])


# ---------------------------------------------------------------------------
# positive_loss
# ---------------------------------------------------------------------------


class TestPositiveLoss:
    def test_identical_pairs_give_zero(self, rng):
        feats = _unit_rows(rng, 12, 8)
        coords = _spread_coords(12)
        fset = FeatureSet(features=feats, coords=coords)
        assert positive_loss(fset, fset) == 0.0

    def test_orthogonal_pairs_give_margin_complement(self):
        # Every pair at distance 0.5; hinge (0.5 - 0.2) = 0.3 per pair.
        count = 7
        anchor = FeatureSet(
            features=np.tile([1.0, 0.0], (count, 1)), coords=_spread_coords(count)
        )
        query = FeatureSet(
            features=np.tile([0.0, 1.0], (count, 1)), coords=_spread_coords(count)
        )
        assert positive_loss(anchor, query) == pytest.approx(0.3, abs=1e-12)

    def test_antipodal_pairs_give_clipped_hinge(self):
        anchor = FeatureSet(features=[[1.0, 0.0]], coords=[[0.0, 0.0]])
        query = FeatureSet(features=[[-1.0, 0.0]], coords=[[0.0, 0.0]])
        assert positive_loss(anchor, query) == pytest.approx(0.8, abs=1e-15)

    def test_zero_whenever_distances_at_or_below_margin(self):
        # cos 0.6 gives distance exactly 0.2: the hinge sits at its corner.
        anchor = FeatureSet(
            features=[[1.0, 0.0], [1.0, 0.0]], coords=_spread_coords(2)
        )
        query = FeatureSet(
            features=[[0.6, 0.8], [1.0, 0.0]], coords=_spread_coords(2)
        )
        assert positive_loss(anchor, query) == 0.0

    def test_matches_summation_oracle(self, rng):
        for _ in range(5):
            count = int(rng.integers(2, 40))
            dim = int(rng.integers(2, 16))
            anchor = _random_featureset(rng, count, dim)
            query = _random_featureset(rng, count, dim)
            expected = _positive_oracle(anchor, query, 0.2)
            assert positive_loss(anchor, query) == pytest.approx(
                expected, abs=1e-12
            )

    def test_invariant_under_per_feature_scaling(self, rng):
        anchor = _random_featureset(rng, 15, 6)
        query = _random_featureset(rng, 15, 6)
        # Power-of-two scales keep normalization bitwise identical.
        scales = 2.0 ** rng.integers(-3, 4, size=15).astype(np.float64)
        scaled = FeatureSet(
            features=anchor.features * scales[:, None], coords=anchor.coords
        )
        assert positive_loss(scaled, query) == positive_loss(anchor, query)

    def test_empty_sets_rejected(self):
        empty = FeatureSet(features=np.zeros((0, 4)), coords=np.zeros((0, 2)))
        with pytest.raises(EmptyMatchSet):
            positive_loss(empty, empty)

    def test_mismatched_counts_rejected(self, rng):
        a = _random_featureset(rng, 5, 4)
        b = _random_featureset(rng, 6, 4)
        with pytest.raises(ValueError):
            positive_loss(a, b)

    def test_mismatched_dims_rejected(self, rng):
        a = _random_featureset(rng, 5, 4)
        b = _random_featureset(rng, 5, 8)
        with pytest.raises(ValueError):
            positive_loss(a, b)

    def test_zero_vector_rejected(self):
        anchor = FeatureSet(features=[[0.0, 0.0]], coords=[[0.0, 0.0]])
        query = FeatureSet(features=[[1.0, 0.0]], coords=[[0.0, 0.0]])
        with pytest.raises(ZeroVector):
            positive_loss(anchor, query)

    def test_feature_of_overflowing_norm_rejected(self):
        # 1e200 squares to inf: dividing by that norm would score a zero vector.
        anchor = FeatureSet(features=[[1e200, 1.0]], coords=[[0.0, 0.0]])
        query = FeatureSet(features=[[1.0, 0.0]], coords=[[0.0, 0.0]])
        for loss in (positive_loss, hardest_negative_loss):
            with pytest.raises(ValueError, match="non-finite norm"):
                loss(anchor, query)


# ---------------------------------------------------------------------------
# hardest_negative_indices
# ---------------------------------------------------------------------------


class TestHardestNegativeIndices:
    def test_picks_closest_candidate(self):
        # Feature 1 is nearly parallel to 0; feature 2 is orthogonal.
        fset = FeatureSet(
            features=[[1.0, 0.0], [0.99, 0.1], [0.0, 1.0]],
            coords=_spread_coords(3),
        )
        indices, dists = hardest_negative_indices(fset)
        assert indices[0] == 1
        assert dists[0] == pytest.approx(
            _cosine_distance([1.0, 0.0], [0.99, 0.1]), abs=1e-15
        )

    def test_ties_resolve_to_lowest_index(self):
        # Candidates 1 and 2 sit at distance 0.5 from feature 0 exactly.
        fset = FeatureSet(
            features=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            coords=_spread_coords(3),
        )
        indices, _ = hardest_negative_indices(fset)
        assert indices[0] == 1

    def test_exclusion_radius_blocks_near_pixels(self):
        # The nearest feature in feature space sits 2 px away: excluded.
        fset = FeatureSet(
            features=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            coords=[[0.0, 0.0], [2.0, 0.0], [30.0, 0.0]],
        )
        indices, dists = hardest_negative_indices(fset)
        assert indices[0] == 2
        assert dists[0] == pytest.approx(0.5, abs=1e-15)

    def test_separation_exactly_at_radius_is_allowed(self):
        # 3-4-5 triangle: pixel separation is exactly 5.0.
        fset = FeatureSet(
            features=[[1.0, 0.0], [0.0, 1.0]],
            coords=[[0.0, 0.0], [3.0, 4.0]],
        )
        indices, dists = hardest_negative_indices(fset)
        assert indices[0] == 1
        assert indices[1] == 0
        assert dists == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_no_candidates_marked_with_sentinel(self):
        fset = FeatureSet(
            features=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            coords=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
        )
        indices, dists = hardest_negative_indices(fset)
        assert np.all(indices == -1)
        assert np.all(np.isnan(dists))

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(5):
            count = int(rng.integers(20, 80))
            fset = _random_featureset(rng, count, 8)
            indices, dists = hardest_negative_indices(fset)
            exp_idx, exp_dist = _hardest_negative_oracle(fset, 5.0)
            assert np.array_equal(indices, exp_idx)
            both = ~np.isnan(exp_dist)
            assert dists[both] == pytest.approx(exp_dist[both], abs=1e-12)
            assert np.array_equal(np.isnan(dists), ~both)

    def test_two_hundred_features_match_brute_force(self, rng):
        fset = _random_featureset(rng, 200, 16, coord_range=128.0)
        indices, _ = hardest_negative_indices(fset)
        exp_idx, _ = _hardest_negative_oracle(fset, 5.0)
        assert np.array_equal(indices, exp_idx)

    @pytest.mark.parametrize("crowded", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 127, 128, 129, 257, 600])
    def test_equals_dense_search_exactly(self, rng, count, crowded):
        # Counts either side of the block size. Spread out, every third
        # point sits on a quarter pixel and has a twin exactly 5 px away
        # (offset (3, 4)); crowded into a 3.5 px square, every candidate
        # of every row is blocked.
        if crowded:
            coords = rng.uniform(0.0, 3.5, size=(count, 2))
        else:
            coords = rng.uniform(0.0, 120.0, size=(count, 2))
            twins = coords[1::3]
            bases = coords[0:-1:3][: len(twins)]
            bases[:] = np.round(bases * 4.0) / 4.0
            twins[:] = bases + (3.0, 4.0)
            assert np.all(np.hypot(*(twins - bases).T) == 5.0)
        fset = FeatureSet(features=rng.normal(size=(count, 8)), coords=coords)
        indices, dists = hardest_negative_indices(fset)
        exp_idx, exp_dist = _dense_hardest_negative(fset)
        assert indices.dtype == exp_idx.dtype
        assert np.array_equal(indices, exp_idx)
        assert np.array_equal(dists, exp_dist, equal_nan=True)
        assert np.all(indices == -1) == (crowded or count == 1)

    def test_memory_does_not_grow_with_c_by_c_by_2(self, rng):
        # Dense (C, C, 2) differences and (C, C) masks peaked at 224.5 MB
        # here; the kernel holds the (C, C) Gram product (32 MB) and a few
        # (128, C) blocks.
        fset = _random_featureset(rng, 2000, 16, coord_range=200.0)
        tracemalloc.start()
        try:
            hardest_negative_indices(fset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80e6

    def test_deterministic(self, rng):
        fset = _random_featureset(rng, 30, 8)
        first = hardest_negative_indices(fset)
        second = hardest_negative_indices(fset)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1], equal_nan=True)

    def test_empty_set_rejected(self):
        empty = FeatureSet(features=np.zeros((0, 4)), coords=np.zeros((0, 2)))
        with pytest.raises(EmptyMatchSet):
            hardest_negative_indices(empty)


@pytest.fixture
def fallback_rows(monkeypatch):
    """The rows handed to the blocked search, one array per call."""
    seen = []
    search = losses._blocked_search

    def spy(gram, u, v, rows, indices, best):
        seen.append(np.array(rows))
        return search(gram, u, v, rows, indices, best)

    monkeypatch.setattr(losses, "_blocked_search", spy)
    return seen


@pytest.fixture(scope="module")
def contaminated_pair(tmp_path_factory):
    """One synthetic pair at the contaminated bench flags, with its matches."""
    from crosspose.cli import main

    root = tmp_path_factory.mktemp("contaminated")
    assert main(["synth", "--out", str(root / "data"), "--pairs", "1", "--seed", "7",
                 "--noise", "0.2", "--outlier-fraction", "0.5",
                 "--model-points", "3000"]) == 0
    assert main(["gen-matches", "--pairs", str(root / "data" / "pairs.json"),
                 "--out-dir", str(root / "matches")]) == 0
    return root


class TestClassifyThenVerify:
    """The settled rows and the blocked search together equal the dense
    search bit for bit, where distances tie after rounding too."""

    @staticmethod
    def _check(fset):
        indices, dists = hardest_negative_indices(fset)
        exp_idx, exp_dist = _dense_hardest_negative(fset)
        assert indices.dtype == exp_idx.dtype
        assert np.array_equal(indices, exp_idx)
        assert np.array_equal(dists, exp_dist, equal_nan=True)

    @pytest.mark.parametrize("dim", [8, 64, 512, 2048])
    def test_near_duplicates_at_far_pixels(self, rng, dim):
        # Copies of one random direction plus noise 1e-17 to 1e-13 of
        # their size, rescaled, at pixels far apart. Their Gram entries
        # differ in the last bits around 1, so distances tie at the clip
        # to 0 on entries that are not equal, and a plain argmax of the
        # Gram row names another index than the search.
        base = rng.normal(size=dim)
        wrong = 0
        for _ in range(20):
            noise = rng.normal(size=(30, dim)) * 10.0 ** rng.uniform(-17, -13, size=(30, 1))
            feats = (base + noise) * rng.uniform(0.5, 4.0, size=(30, 1))
            fset = FeatureSet(features=feats, coords=rng.uniform(0.0, 400.0, size=(30, 2)))
            self._check(fset)
            wrong += np.count_nonzero(_plain_argmax(fset) != _dense_hardest_negative(fset)[0])
        assert wrong > 0

    def test_rounding_tie_below_one_half(self):
        # Row 0's Gram entries with rows 1 and 2 are 0.3 and the next
        # double up; 1 - g rounds both to one distance, so row 0 must
        # return row 1, not its top, row 2.
        a = 0.3
        b = a + 2.0**-54
        fset = FeatureSet(
            features=[[1.0, 0.0], [a, np.sqrt(1 - a * a)], [b, np.sqrt(1 - b * b)]],
            coords=_spread_coords(3, spacing=100.0),
        )
        unit = fset.features / np.linalg.norm(fset.features, axis=-1)[:, None]
        gram = unit @ unit.T
        assert gram[0, 1] < gram[0, 2]
        assert (1.0 - gram[0, 1]) / 2.0 == (1.0 - gram[0, 2]) / 2.0
        assert _plain_argmax(fset)[0] == 2
        self._check(fset)
        assert hardest_negative_indices(fset)[0][0] == 1

    def test_maximum_clipped_to_zero_resolves_to_lowest_index(self, rng):
        # Rescaled copies of one vector: their unit rows differ in the last
        # bits, so Gram entries of 1 and above all clip to distance 0. A
        # row whose largest entry, above 1, follows another entry of at
        # least 1 must return the earlier one.
        clipped = 0
        for _ in range(20):
            feats = rng.normal(size=8) * rng.uniform(0.5, 4.0, size=(6, 1))
            fset = FeatureSet(features=feats, coords=_spread_coords(6))
            self._check(fset)
            indices, dists = hardest_negative_indices(fset)
            top = _plain_argmax(fset)
            clipped += np.count_nonzero((dists == 0.0) & (indices < top))
        assert clipped > 0

    def test_low_entropy_features_on_integer_pixels(self, rng):
        # Features in {-1, 0, 1}: many Gram entries of a row are equal.
        for _ in range(20):
            count = int(rng.integers(2, 200))
            feats = rng.integers(-1, 2, size=(count, 4)).astype(np.float64)
            feats[np.all(feats == 0, axis=1), 0] = 1.0
            coords = rng.integers(0, 30, size=(count, 2)).astype(np.float64)
            self._check(FeatureSet(features=feats, coords=coords))

    def test_duplicated_pixels_try_their_runner_up(self, rng, fallback_rows):
        # gen-matches maps several anchor pixels to one query pixel, so a
        # sampled set repeats a pixel with its feature. Each copy's top is
        # a twin inside the exclusion radius: a pixel held two or three
        # times settles on a later top, and one held _ROUNDS + 2 times
        # runs out of tops and takes the blocked search.
        pixels = rng.permutation(np.arange(0, 960, 10.0))[:60]
        feats = rng.normal(size=(60, 16))
        counts = rng.integers(1, 4, size=60)
        counts[0] = losses._ROUNDS + 2
        pick = np.repeat(np.arange(60), counts)
        coords = np.column_stack([pixels[pick], np.zeros(len(pick))])
        self._check(FeatureSet(features=feats[pick], coords=coords))
        (rows,) = fallback_rows[-1:]
        assert set(np.flatnonzero(pick == 0)) <= set(rows)
        assert 0 < len(rows) < len(pick)

    def test_settled_and_fallback_rows_on_a_contaminated_pair(
        self, contaminated_pair, fallback_rows, monkeypatch
    ):
        # The loss stage as run: every kernel result equals the dense
        # search, most rows settle and some fall back.
        from crosspose.cli import main

        sizes = []
        kernel = losses.hardest_negative_indices

        def checked(fset):
            sizes.append(len(fset))
            self._check(fset)
            return kernel(fset)

        monkeypatch.setattr(losses, "hardest_negative_indices", checked)
        root = contaminated_pair
        assert main(["losses", "--pairs", str(root / "data" / "pairs.json"),
                     "--matches", str(root / "matches"),
                     "--out", str(root / "losses.json")]) == 0
        fallen = sum(len(rows) for rows in fallback_rows)
        assert sizes == [500, 500]
        assert 0 < fallen < sum(sizes) / 2


# ---------------------------------------------------------------------------
# hardest_negative_loss
# ---------------------------------------------------------------------------


class TestHardestNegativeLoss:
    def test_mutually_orthogonal_features_give_margin_minus_half(self):
        # Every candidate sits at distance 0.5; hinge (0.9 - 0.5) = 0.4 per
        # term on both sides, so the 1/(2C)-weighted sum is 0.4.
        count = 8
        anchor = FeatureSet(features=np.eye(count), coords=_spread_coords(count))
        query = FeatureSet(features=np.eye(count), coords=_spread_coords(count))
        assert hardest_negative_loss(anchor, query) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_antipodal_candidates_give_zero(self):
        anchor = FeatureSet(
            features=[[1.0, 0.0], [-1.0, 0.0]], coords=_spread_coords(2)
        )
        query = FeatureSet(
            features=[[0.0, 1.0], [0.0, -1.0]], coords=_spread_coords(2)
        )
        assert hardest_negative_loss(anchor, query) == 0.0

    def test_zero_when_minima_sit_exactly_at_margin(self):
        # cos -0.8 gives distance exactly 0.9: hinge corner again.
        anchor = FeatureSet(
            features=[[1.0, 0.0], [-0.8, 0.6]], coords=_spread_coords(2)
        )
        assert hardest_negative_loss(anchor, anchor) == 0.0

    def test_all_terms_skipped_gives_zero_and_logs(self, caplog):
        clustered = FeatureSet(
            features=[[1.0, 0.0], [0.0, 1.0]],
            coords=[[0.0, 0.0], [1.0, 0.0]],
        )
        with caplog.at_level(logging.DEBUG, logger="crosspose.losses"):
            value = hardest_negative_loss(clustered, clustered)
        assert value == 0.0
        assert any("no candidate" in rec.message for rec in caplog.records)

    def test_skipped_terms_contribute_nothing(self):
        # Rows 0 and 1 sit inside each other's radius with no third point
        # beyond it on the anchor side, so only the query side scores.
        anchor = FeatureSet(
            features=[[1.0, 0.0], [0.0, 1.0]],
            coords=[[0.0, 0.0], [1.0, 0.0]],
        )
        query = FeatureSet(
            features=[[1.0, 0.0], [0.0, 1.0]], coords=_spread_coords(2)
        )
        # Query side: two terms of (0.9 - 0.5); anchor side: zero terms.
        expected = (0.4 + 0.4) / (2.0 * 2)
        assert hardest_negative_loss(anchor, query) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(5):
            count = int(rng.integers(10, 50))
            anchor = _random_featureset(rng, count, 8)
            query = _random_featureset(rng, count, 8)
            expected = _negative_loss_oracle(anchor, query, 0.9, 5.0)
            assert hardest_negative_loss(anchor, query) == pytest.approx(
                expected, abs=1e-12
            )

    def test_invariant_under_per_feature_scaling(self, rng):
        anchor = _random_featureset(rng, 15, 6)
        query = _random_featureset(rng, 15, 6)
        scales = 2.0 ** rng.integers(-3, 4, size=15).astype(np.float64)
        scaled = FeatureSet(
            features=anchor.features * scales[:, None], coords=anchor.coords
        )
        assert hardest_negative_loss(scaled, query) == hardest_negative_loss(
            anchor, query
        )

    def test_empty_sets_rejected(self):
        empty = FeatureSet(features=np.zeros((0, 4)), coords=np.zeros((0, 2)))
        with pytest.raises(EmptyMatchSet):
            hardest_negative_loss(empty, empty)


# ---------------------------------------------------------------------------
# feature_loss / total_loss
# ---------------------------------------------------------------------------


class TestFeatureLoss:
    def test_zero_inputs_give_zero(self):
        assert feature_loss(0.0, 0.0) == 0.0

    def test_default_weights_average_the_terms(self):
        assert feature_loss(0.3, 0.4) == pytest.approx(0.35, abs=1e-12)


class TestTotalLoss:
    def test_zero_inputs_give_zero(self):
        assert total_loss(0.0, 0.0) == 0.0

    def test_unit_mask_weight_adds_terms(self):
        assert total_loss(1.0, 0.35) == pytest.approx(1.35, abs=1e-12)


# ---------------------------------------------------------------------------
# dice_loss
# ---------------------------------------------------------------------------


class TestDiceLoss:
    def test_perfect_prediction_is_near_zero(self, rng):
        gt = rng.random((32, 32)) < 0.3
        assert dice_loss(gt.astype(np.float64), gt) == pytest.approx(
            0.0, abs=1e-5
        )

    def test_zero_prediction_on_nonempty_mask_is_one(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:5, 2:5] = True
        assert dice_loss(np.zeros((8, 8)), gt) == 1.0

    def test_both_empty_is_one(self):
        assert dice_loss(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool)) == 1.0

    def test_half_overlap_hand_value(self):
        pred = np.array([[1.0, 0.0], [0.0, 0.0]])
        gt = np.array([[True, True], [False, False]])
        # overlap 1, mass 3: 1 - 2/(3 + smooth) is a third, near enough.
        assert dice_loss(pred, gt) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_matches_summation_oracle(self, rng):
        for _ in range(5):
            pred = rng.random((16, 16))
            gt = rng.random((16, 16)) < 0.4
            assert dice_loss(pred, gt) == pytest.approx(
                _dice_oracle(pred, gt), abs=1e-12
            )

    def test_soft_activations_score_between_extremes(self, rng):
        gt = np.zeros((16, 16), dtype=bool)
        gt[4:12, 4:12] = True
        soft = gt.astype(np.float64) * 0.5
        value = dice_loss(soft, gt)
        assert 0.0 < value < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            dice_loss(np.zeros((4, 4)), np.zeros((4, 5), dtype=bool))

    def test_activations_outside_unit_interval_rejected(self):
        gt = np.zeros((4, 4), dtype=bool)
        with pytest.raises(ValueError):
            dice_loss(np.full((4, 4), 1.5), gt)
        with pytest.raises(ValueError):
            dice_loss(np.full((4, 4), -0.1), gt)

    def test_non_finite_activations_rejected(self):
        gt = np.zeros((4, 4), dtype=bool)
        pred = np.zeros((4, 4))
        pred[0, 0] = np.nan
        with pytest.raises(ValueError):
            dice_loss(pred, gt)


# ---------------------------------------------------------------------------
# Monotonicity along the interpolation path
# ---------------------------------------------------------------------------


class TestPositiveLossMonotonicity:
    def test_moving_toward_partner_never_increases_loss(self, rng):
        count, dim, target = 20, 8, 3
        anchor = _random_featureset(rng, count, dim)
        base_query = _unit_rows(rng, count, dim)
        coords = _spread_coords(count)
        previous = None
        for step in np.linspace(0.0, 1.0, 11):
            feats = base_query.copy()
            feats[target] = (1.0 - step) * feats[target] + step * anchor.features[
                target
            ]
            value = positive_loss(
                anchor, FeatureSet(features=feats, coords=coords)
            )
            if previous is not None:
                assert value <= previous + 1e-15
            previous = value
