"""Forward-only contrastive and segmentation loss diagnostics.

These are evaluation-time reimplementations of the training objectives,
for checking feature quality and mask quality on frozen data; nothing
here is differentiable or tied to a tensor framework.

Matched features from the two views form index-aligned sets. The
positive term penalizes matched pairs whose cosine distance exceeds a
margin. The hardest-negative term works per side: for each sampled
feature, candidate negatives are features of the same view at least
``EXCLUSION_RADIUS`` pixels away, and the term penalizes the closest
such candidate for sitting inside the ``NEGATIVE_MARGIN``. Both sides
are averaged with weight 1/(2C) over the C matches. The search holds
one C x C float64 array, the Gram product of the features (2 MB at
C = 500, 32 MB at 2000). Most rows are settled from the Gram row alone,
by its largest entry and the runner-up (see
:func:`hardest_negative_indices`); the distances, the pixel separations
and the minima of the other rows are computed on blocks of ``_BLOCK``
rows, and so is every gather of Gram rows.

Cosine distance is ``(1 - cos) / 2`` throughout, so all margins live in
[0, 1]. The margins, the radius and the term weights are module
constants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyMatchSet
from .matcher import cosine_distance, unit_rows

logger = logging.getLogger(__name__)

DICE_SMOOTH = 1e-6
# Margins are cosine distances; the weights combine the terms.
POSITIVE_MARGIN = 0.2
NEGATIVE_MARGIN = 0.9
EXCLUSION_RADIUS = 5.0  # pixels
WEIGHT_POSITIVE = 0.5
WEIGHT_NEGATIVE = 0.5
WEIGHT_MASK = 1.0
# Rows of the hardest-negative search per block; it caps the working
# set and changes no result.
_BLOCK = 128
# Largest Gram entries a row may try before the blocked search takes
# it over; it changes no result.
_ROUNDS = 3


@dataclass(frozen=True)
class FeatureSet:
    """Sampled feature vectors with their pixel coordinates.

    ``features`` is (C, D); ``coords`` is (C, 2) in ``(u, v)`` pixels.
    Two FeatureSets from matched views align index-wise: row i of each
    is one matched pair.
    """

    features: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        c = np.asarray(self.coords, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(f"features must be (C, D), got {f.shape}")
        if c.shape != (len(f), 2):
            raise ValueError(f"coords must be ({len(f)}, 2), got {c.shape}")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(c))):
            raise ValueError("feature set contains non-finite values")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "coords", c)

    def __len__(self) -> int:
        return len(self.features)

    @cached_property
    def unit(self) -> np.ndarray:
        """The features scaled to unit length, computed on first use only;
        raises as :func:`matcher.row_norms` does."""
        return unit_rows(self.features, "sampled features")


def _require_aligned(anchor: FeatureSet, query: FeatureSet):
    if len(anchor) == 0 or len(query) == 0:
        raise EmptyMatchSet("loss requested over zero matches")
    if len(anchor) != len(query):
        raise ValueError(
            f"feature sets must align index-wise: {len(anchor)} vs {len(query)}"
        )
    if anchor.features.shape[1] != query.features.shape[1]:
        raise ValueError("feature dimensions differ between views")


def positive_loss(anchor: FeatureSet, query: FeatureSet) -> float:
    """Mean hinge on matched-pair distance above the positive margin."""
    _require_aligned(anchor, query)
    dist = cosine_distance(np.einsum("ij,ij->i", anchor.unit, query.unit))
    return float(np.mean(np.maximum(dist - POSITIVE_MARGIN, 0.0)))


def _separation(du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Pixel separation as np.linalg.norm computes it for 2-vectors:
    ``sqrt(du*du + dv*dv)``, formed in place in ``du``."""
    du *= du
    dv *= dv
    du += dv
    return np.sqrt(du, out=du)


def _row_argmax(gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``np.argmax(gram[rows], axis=1)``, gathering ``_BLOCK`` rows at a time."""
    if len(rows) == len(gram):
        return np.argmax(gram, axis=1)
    out = np.empty(len(rows), dtype=np.intp)
    for start in range(0, len(rows), _BLOCK):
        out[start : start + _BLOCK] = np.argmax(gram[rows[start : start + _BLOCK]], axis=1)
    return out


def _blocked_search(gram, u, v, rows, indices, best) -> None:
    """The exhaustive search for ``rows``, written into ``indices`` and ``best``.

    Each block of rows gets its distances, its pixel separations and
    their masked minimum; a row without a candidate gets distance inf.
    """
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        own = np.arange(len(block))
        dist = cosine_distance(gram[block])
        sep = _separation(u[block, None] - u, v[block, None] - v)
        dist[sep < EXCLUSION_RADIUS] = np.inf
        dist[own, block] = np.inf
        indices[block] = np.argmin(dist, axis=1)
        best[block] = dist[own, indices[block]]


def hardest_negative_indices(fset: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """Per feature, its closest same-view candidate negative.

    Candidates for row i are rows k != i whose pixel distance from row i
    is at least ``EXCLUSION_RADIUS``. Returns ``(indices, distances)``
    with index -1 and distance NaN where no candidate exists; distance
    ties resolve to the lowest index.

    The result is that of the exhaustive search, bit for bit, though
    most rows never form their distances. Each step of
    ``cosine_distance`` (subtract, halve, clip) rounds monotonically, so
    a distance never rises with its Gram entry. A row's largest entry,
    its top, is therefore its closest feature. The top is the answer,
    with distance ``cosine_distance(top)``, when it is a candidate by the
    separation arithmetic of the search and the row's next largest
    entry, the runner-up, has a strictly larger distance: every other
    column is then strictly farther, so no tie with a lower index can
    exist. No tolerance is involved, since the runner-up's distance is
    computed exactly. A row whose top is not a candidate drops that
    column and tries again with the runner-up as its top, up to
    ``_ROUNDS`` times. Rows left over (a tie, or ``_ROUNDS`` blocked
    tops) go through the exhaustive search.
    """
    if len(fset) == 0:
        raise EmptyMatchSet("no features to search negatives in")
    # One product for all rows: BLAS may round a product of a row block
    # differently in the last bits.
    gram = fset.unit @ fset.unit.T
    np.fill_diagonal(gram, -np.inf)
    u, v = fset.coords.T
    c = len(fset)
    indices = np.empty(c, dtype=np.intp)
    best = np.empty(c)
    rows = np.arange(c)
    top = np.argmax(gram, axis=1)
    dropped, tied = [], []
    for _ in range(_ROUNDS):
        peak = gram[rows, top]
        gram[rows, top] = -np.inf
        dropped.append((rows, top, peak))
        runner = _row_argmax(gram, rows)
        dist = cosine_distance(peak)
        candidate = _separation(u[rows] - u[top], v[rows] - v[top]) >= EXCLUSION_RADIUS
        settled = candidate & (cosine_distance(gram[rows, runner]) > dist)
        indices[rows[settled]] = top[settled]
        best[rows[settled]] = dist[settled]
        tied.append(rows[candidate & ~settled])
        rows, top = rows[~candidate], runner[~candidate]
    # Put the dropped entries back, newest first: a row with no entry
    # left drops a dropped column again.
    for dropped_rows, cols, values in reversed(dropped):
        gram[dropped_rows, cols] = values
    _blocked_search(gram, u, v, np.concatenate([*tied, rows]), indices, best)
    none = ~np.isfinite(best)
    indices[none] = -1
    best[none] = np.nan
    return indices, best


def hardest_negative_loss(anchor: FeatureSet, query: FeatureSet) -> float:
    """Two-sided hardest-negative hinge, averaged with weight 1/(2C).

    Features whose candidate set is empty contribute nothing; how many
    were skipped is logged at debug level.
    """
    _require_aligned(anchor, query)
    c = len(anchor)
    total = 0.0
    skipped = 0
    for fset in (anchor, query):
        _, best = hardest_negative_indices(fset)
        missing = np.isnan(best)
        skipped += int(np.count_nonzero(missing))
        hinge = np.maximum(NEGATIVE_MARGIN - best[~missing], 0.0)
        total += float(np.sum(hinge))
    if skipped:
        logger.debug(
            "hardest-negative loss: %d feature(s) had no candidate beyond "
            "the exclusion radius and contributed 0",
            skipped,
        )
    return total / (2.0 * c)


def feature_loss(positive: float, negative: float) -> float:
    """Weighted sum of the two contrastive terms."""
    return WEIGHT_NEGATIVE * negative + WEIGHT_POSITIVE * positive


def dice_loss(pred, gt_mask) -> float:
    """Soft Dice loss between mask activations and a binary mask.

    ``pred`` holds activations in [0, 1]. The denominator carries a
    small smoothing constant, so two empty masks score 1.0 (no overlap
    evidence), while a perfect non-empty prediction scores ~0.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt_mask)
    if p.shape != g.shape:
        raise DimensionMismatch(f"shapes differ: {p.shape} vs {g.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("activations must be finite and lie in [0, 1]")
    g = g.astype(np.float64)
    overlap = float(np.sum(p * g))
    mass = float(np.sum(p) + np.sum(g))
    return 1.0 - 2.0 * overlap / (mass + DICE_SMOOTH)


def total_loss(mask_loss: float, feature_loss_value: float) -> float:
    """Mask term plus feature term: the full training-time objective."""
    return WEIGHT_MASK * mask_loss + feature_loss_value
