"""Robust rigid registration of 3D correspondences.

Two estimators share one hypothesize-and-verify engine:

* :func:`register_spatial_consistency` scores every match by how many
  other matches preserve its pairwise distances (a rigid motion keeps
  all intra-set distances, so wrong matches rarely agree with the
  consensus), then samples seed triplets proportionally to that score.
* :func:`register_ransac` samples seed triplets uniformly. It exists as
  the ablation baseline; under contaminated matches its success rate
  trails the scored variant at the same iteration budget.

Each seed triplet yields a closed-form Kabsch pose; the hypothesis with
the most inliers wins (ties broken by lower mean inlier residual, then
lower hypothesis index), and the winner is refit on its inliers. The
inlier threshold and the compatibility tolerance are the module
constants ``INLIER_THRESHOLD`` and ``COMPATIBILITY_TOLERANCE``; only the
number of hypotheses, ``RegistrationParams.iterations``, is an argument.

Determinism: hypotheses are scored in fixed chunks of ``_CHUNK`` rows,
in order, from one generator seeded once. Row ``h`` of the Gumbel key
matrix is hypothesis ``h``'s private stream (Gumbel top-k, equivalent
to sequential weighted sampling without replacement), and drawing the
rows chunk by chunk gives the same numbers as one full draw, so the
result depends only on the seed, never on scheduling. Memory stays
bounded: no array grows with ``iterations * n`` or with ``n**2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, NoConsensus, TooFewMatches
from .geometry import Pose, as_rows
from .matcher import Correspondences

# Point sets whose second singular value (after centering) falls below
# this are collinear or coincident; a rigid fit is not unique.
_DEGENERACY_TOL = 1e-9

# Hypotheses scored per chunk, and rows of the compatibility matrix per
# block. Neither changes a result; they cap the working set.
_CHUNK = 128
_BLOCK = 128

# Meters. A correspondence within INLIER_THRESHOLD of a hypothesis is its
# inlier; a pairwise distance that changes by at most
# COMPATIBILITY_TOLERANCE between the views counts as consistent.
INLIER_THRESHOLD = 0.01
COMPATIBILITY_TOLERANCE = 0.01


@dataclass(frozen=True)
class RegistrationParams:
    """The hypothesis budget shared by both estimators.

    ``iterations`` seed triplets are drawn and scored; it must be at
    least 1. The thresholds are module constants.
    """

    iterations: int = 1000

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass(frozen=True)
class RegistrationResult:
    pose: Pose
    inliers: np.ndarray  # (K,) indices into the correspondences
    mean_residual: float

    def __post_init__(self):
        object.__setattr__(
            self, "inliers", np.asarray(self.inliers, dtype=np.int64).reshape(-1)
        )


def kabsch(src, dst) -> Pose:
    """Least-squares rigid transform carrying ``src`` onto ``dst``.

    Minimizes sum_i ||R s_i + t - d_i||^2 in closed form via the SVD of
    the cross-covariance, with the reflection guard on the smallest
    singular direction. Raises DegenerateConfiguration when either set
    is collinear or coincident (within 1e-9), where the rotation is not
    unique.
    """
    s = as_rows(src, 3, np.float64, "src")
    d = as_rows(dst, 3, np.float64, "dst")
    if s.shape != d.shape:
        raise ValueError(f"source/destination shapes differ: {s.shape} vs {d.shape}")
    n = len(s)
    if n < 3:
        raise TooFewMatches(f"rigid fit needs at least 3 pairs, got {n}")
    # Uniform 1/n weights enter as products, not as ``mean``; the two
    # round differently.
    w = np.ones(n) / n

    cs = (w[:, None] * s).sum(axis=0)
    cd = (w[:, None] * d).sum(axis=0)
    s0 = s - cs
    d0 = d - cd

    sw = np.sqrt(w)
    for centered in (s0 * sw[:, None], d0 * sw[:, None]):
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[1] <= _DEGENERACY_TOL:
            raise DegenerateConfiguration(
                "point set is collinear or coincident; rotation is not unique"
            )

    cov = (w[:, None] * s0).T @ d0
    u, _, vt = np.linalg.svd(cov)
    v = vt.T
    sign = np.sign(np.linalg.det(v @ u.T))
    rot = v @ np.diag([1.0, 1.0, sign]) @ u.T
    return Pose(rot, cd - rot @ cs)


def _distances(p: np.ndarray, rows: slice) -> np.ndarray:
    """Distances from points ``p[rows]`` to every point of ``p``.

    Summed as ``(dx*dx + dy*dy) + dz*dz`` before the root, the order in
    which ``np.linalg.norm(..., axis=-1)`` sums, so every entry equals
    that norm bit for bit.
    """
    block = p[rows]
    acc = None
    for k in range(3):
        diff = block[:, k, None] - p[:, k]
        diff *= diff
        acc = diff if acc is None else acc + diff
    return np.sqrt(acc, out=acc)


def compatibility_scores(src, dst, tolerance: float) -> np.ndarray:
    """Count, per match, how many other matches preserve pairwise length.

    Match pairs (i, j) are compatible when the distance between points i
    and j changes by at most ``tolerance`` between the two views. Rows
    are scored in blocks of ``_BLOCK``, so memory grows with ``n``, not
    with ``n**2``.
    """
    s = as_rows(src, 3, np.float64, "src")
    d = as_rows(dst, 3, np.float64, "dst")
    if len(s) != len(d):
        raise ValueError("source/destination counts differ")
    n = len(s)
    scores = np.empty(n)
    for start in range(0, n, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n))
        compatible = np.abs(_distances(s, rows) - _distances(d, rows)) <= tolerance
        own = np.arange(rows.stop - start)
        compatible[own, own + start] = False
        scores[rows] = compatible.sum(axis=1)
    return scores


def _top3(keys: np.ndarray) -> np.ndarray:
    """Columns of each row's three largest keys, largest first.

    Equal keys go to the lower column, so the result equals
    ``np.argsort(-keys, axis=1, kind="stable")[:, :3]``. A partition
    finds the three; rows whose third and fourth keys tie, where the
    partition may pick either column, take the stable sort.
    """
    neg = -keys
    if neg.shape[1] == 3:
        return np.argsort(neg, axis=1, kind="stable")
    part = np.argpartition(neg, (2, 3), axis=1)
    top = np.sort(part[:, :3], axis=1)
    order = np.argsort(np.take_along_axis(neg, top, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    third, fourth = np.take_along_axis(neg, part[:, 2:4], axis=1).T
    tied = third == fourth
    if tied.any():
        top[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :3]
    return top


def _triplet_poses(s3: np.ndarray, d3: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched 3-point Kabsch. Returns (R, t, valid)."""
    cs = s3.mean(axis=1, keepdims=True)
    cd = d3.mean(axis=1, keepdims=True)
    s0 = s3 - cs
    d0 = d3 - cd

    # Degenerate (collinear) triplets have a vanishing triangle area.
    area_s = np.linalg.norm(np.cross(s0[:, 1] - s0[:, 0], s0[:, 2] - s0[:, 0]), axis=1)
    area_d = np.linalg.norm(np.cross(d0[:, 1] - d0[:, 0], d0[:, 2] - d0[:, 0]), axis=1)
    valid = (area_s > 1e-12) & (area_d > 1e-12)

    cov = np.einsum("hij,hik->hjk", s0, d0)
    u, _, vt = np.linalg.svd(cov)
    v = vt.transpose(0, 2, 1)
    det = np.linalg.det(np.einsum("hij,hkj->hik", v, u))
    flip = np.ones_like(v)
    flip[:, :, 2] = det[:, None]
    rot = np.einsum("hij,hkj->hik", v * flip, u)
    t = cd[:, 0, :] - np.einsum("hij,hj->hi", rot, cs[:, 0, :])
    return rot, t, valid


def _residuals(rot: np.ndarray, t: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``|R_h s_i + t_h - d_i|`` for every hypothesis ``h`` and match ``i``.

    Row ``h`` depends only on hypothesis ``h``, whatever the batch. The
    rotation sums ``(x-term + z-term) + y-term``, then ``+ t`` and
    ``- d``; the squares sum in x, y, z order before the root. On x86-64
    with AVX-512 this is the float order of ``np.einsum("hij,nj->hni")``
    followed by ``np.linalg.norm``, the engine's earlier form, so pose
    files kept their bytes; spelling it out here fixes the order in this
    source instead of in numpy's einsum internals.
    """
    x, y, z = src.T
    acc = None
    for i in range(3):
        e = rot[:, i, 0, None] * x
        e += rot[:, i, 2, None] * z
        e += rot[:, i, 1, None] * y
        e += t[:, i, None]
        e -= dst[:, i]
        e *= e
        acc = e if acc is None else acc + e
    return np.sqrt(acc, out=acc)


def _register(
    src: np.ndarray,
    dst: np.ndarray,
    iterations: int,
    weights: np.ndarray,
    seed: int,
) -> RegistrationResult:
    """Hypothesize and verify in chunks of ``_CHUNK`` hypotheses.

    Each triplet is drawn by weighted sampling without replacement via
    Gumbel top-k: per row, keys = log(w) + Gumbel noise, and the three
    largest keys select the triplet. Uniform sampling is the
    zero-log-weight special case: all weights 1. Weights with fewer than
    three positive entries cannot fill a triplet, so they sample
    uniformly too. Only the running best hypothesis outlives its chunk.
    """
    n = len(src)
    if n < 3:
        raise TooFewMatches(f"registration needs at least 3 matches, got {n}")

    rng = np.random.default_rng(seed)
    positive = weights > 0
    logw = None
    if np.count_nonzero(positive) >= 3:
        logw = np.full(n, -np.inf)
        logw[positive] = np.log(weights[positive])

    # The running best, ranked by most inliers, then lower mean residual,
    # then lower hypothesis index. Invalid triplets count -1 inliers, so
    # the -2 of the start loses to any hypothesis.
    best_count, best_mean = -2, np.inf
    for start in range(0, iterations, _CHUNK):
        size = min(_CHUNK, iterations - start)
        keys = -np.log(-np.log(rng.random((size, n))))
        if logw is not None:
            keys = keys + logw
        triplets = _top3(keys)
        rot, t, valid = _triplet_poses(src[triplets], dst[triplets])

        res = _residuals(rot, t, src, dst)
        inlier = res <= INLIER_THRESHOLD
        counts = inlier.sum(axis=1)
        counts[~valid] = -1
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_res = np.where(
                counts > 0, (res * inlier).sum(axis=1) / np.maximum(counts, 1), np.inf
            )
        # Row 0 is the best so far; it wins its ties as the earlier index.
        k = int(np.lexsort((np.r_[best_mean, mean_res], -np.r_[best_count, counts]))[0])
        if k > 0:
            h = k - 1
            best_count, best_mean = counts[h], mean_res[h]
            seed_pose = Pose(rot[h], t[h])
            best_res, seed_inliers = res[h].copy(), np.nonzero(inlier[h])[0]

    if best_count < 3:
        raise NoConsensus(
            f"best hypothesis explains only {max(best_count, 0)} matches "
            f"(need at least 3)"
        )

    try:
        pose = kabsch(src[seed_inliers], dst[seed_inliers])
    except DegenerateConfiguration:
        pose = seed_pose

    final_res = np.linalg.norm(pose.apply(src) - dst, axis=1)
    final_inliers = np.nonzero(final_res <= INLIER_THRESHOLD)[0]
    if len(final_inliers) < 3:
        # Refit drifted off the consensus; keep the seed hypothesis.
        pose = seed_pose
        final_res = best_res
        final_inliers = seed_inliers
    return RegistrationResult(
        pose=pose,
        inliers=final_inliers,
        mean_residual=float(final_res[final_inliers].mean()),
    )


def register_spatial_consistency(
    matches: Correspondences,
    params: RegistrationParams = RegistrationParams(),
    *,
    seed: int = 0,
) -> RegistrationResult:
    """Estimate the anchor-to-query pose with consistency-weighted seeds."""
    src, dst = matches.anchor_points, matches.query_points
    scores = compatibility_scores(src, dst, COMPATIBILITY_TOLERANCE)
    return _register(src, dst, params.iterations, scores, seed)


def register_ransac(
    matches: Correspondences,
    params: RegistrationParams = RegistrationParams(),
    *,
    seed: int = 0,
) -> RegistrationResult:
    """Estimate the anchor-to-query pose with uniform seed sampling."""
    src, dst = matches.anchor_points, matches.query_points
    return _register(src, dst, params.iterations, np.ones(len(src)), seed)
