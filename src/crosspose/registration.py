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
lower hypothesis index), and the winner is refit on its inliers.

Determinism: all triplets are drawn in one batched pass where row ``h``
of the key matrix is hypothesis ``h``'s private stream (Gumbel top-k,
equivalent to sequential weighted sampling without replacement), so the
result depends only on the seed, never on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, NoConsensus, TooFewMatches
from .geometry import Pose
from .matcher import Correspondences

# Point sets whose second singular value (after centering) falls below
# this are collinear or coincident; a rigid fit is not unique.
_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class RegistrationParams:
    """Knobs shared by both estimators.

    ``inlier_threshold`` (meters) accepts a correspondence under a
    hypothesis; ``compatibility_tolerance`` (meters) bounds how much a
    pairwise distance may change between views while still counting as
    consistent. Both must be finite and positive.
    """

    inlier_threshold: float = 0.01
    compatibility_tolerance: float = 0.01
    iterations: int = 1000

    def __post_init__(self):
        if not 0 < self.inlier_threshold < np.inf:
            raise ValueError("inlier_threshold must be finite and positive")
        if not 0 < self.compatibility_tolerance < np.inf:
            raise ValueError("compatibility_tolerance must be finite and positive")
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


def kabsch(src, dst, weights=None) -> Pose:
    """Least-squares rigid transform carrying ``src`` onto ``dst``.

    Minimizes sum_i w_i ||R s_i + t - d_i||^2 in closed form via the SVD
    of the weighted cross-covariance, with the reflection guard on the
    smallest singular direction. Raises DegenerateConfiguration when
    either set is collinear or coincident (within 1e-9), where the
    rotation is not unique.
    """
    s = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    d = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if s.shape != d.shape:
        raise ValueError(f"source/destination shapes differ: {s.shape} vs {d.shape}")
    n = len(s)
    if n < 3:
        raise TooFewMatches(f"rigid fit needs at least 3 pairs, got {n}")
    w = np.ones(n) if weights is None else weights
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape != (n,):
        raise ValueError("weights must have one entry per pair")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    w = w / total

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


def compatibility_scores(src, dst, tolerance: float) -> np.ndarray:
    """Count, per match, how many other matches preserve pairwise length.

    Match pairs (i, j) are compatible when the distance between points i
    and j changes by at most ``tolerance`` between the two views.
    """
    s = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    d = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if len(s) != len(d):
        raise ValueError("source/destination counts differ")
    ls = np.linalg.norm(s[:, None, :] - s[None, :, :], axis=-1)
    ld = np.linalg.norm(d[:, None, :] - d[None, :, :], axis=-1)
    compatible = np.abs(ls - ld) <= tolerance
    np.fill_diagonal(compatible, False)
    return compatible.sum(axis=1).astype(np.float64)


def _sample_triplets(
    n: int, iterations: int, weights: np.ndarray | None, seed: int
) -> np.ndarray:
    """Draw one index triplet per hypothesis, batched.

    Weighted sampling without replacement via Gumbel top-k: per row,
    keys = log(w) + Gumbel noise, and the three largest keys select the
    triplet. Uniform sampling is the zero-log-weight special case.
    """
    rng = np.random.default_rng(seed)
    gumbel = -np.log(-np.log(rng.random((iterations, n))))
    if weights is not None:
        positive = weights > 0
        if np.count_nonzero(positive) >= 3:
            logw = np.full(n, -np.inf)
            logw[positive] = np.log(weights[positive])
            gumbel = gumbel + logw
    order = np.argsort(-gumbel, axis=1, kind="stable")
    return order[:, :3]


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


def _register(
    src: np.ndarray,
    dst: np.ndarray,
    params: RegistrationParams,
    weights: np.ndarray | None,
    seed: int,
) -> RegistrationResult:
    n = len(src)
    if n < 3:
        raise TooFewMatches(f"registration needs at least 3 matches, got {n}")

    triplets = _sample_triplets(n, params.iterations, weights, seed)
    rot, t, valid = _triplet_poses(src[triplets], dst[triplets])

    # Residuals of every match under every hypothesis: (iterations, n).
    pred = np.einsum("hij,nj->hni", rot, src) + t[:, None, :]
    res = np.linalg.norm(pred - dst[None, :, :], axis=-1)
    inlier = res <= params.inlier_threshold
    counts = inlier.sum(axis=1)
    counts[~valid] = -1

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_res = np.where(
            counts > 0, (res * inlier).sum(axis=1) / np.maximum(counts, 1), np.inf
        )
    best = int(np.lexsort((mean_res, -counts))[0])
    if counts[best] < 3:
        raise NoConsensus(
            f"best hypothesis explains only {max(counts[best], 0)} matches "
            f"(need at least 3)"
        )

    seed_pose = Pose(rot[best], t[best])
    seed_inliers = np.nonzero(inlier[best])[0]
    try:
        pose = kabsch(src[seed_inliers], dst[seed_inliers])
    except DegenerateConfiguration:
        pose = seed_pose

    final_res = np.linalg.norm(pose.apply(src) - dst, axis=1)
    final_inliers = np.nonzero(final_res <= params.inlier_threshold)[0]
    if len(final_inliers) < 3:
        # Refit drifted off the consensus; keep the seed hypothesis.
        pose = seed_pose
        final_res = res[best]
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
    scores = compatibility_scores(src, dst, params.compatibility_tolerance)
    return _register(src, dst, params, scores, seed)


def register_ransac(
    matches: Correspondences,
    params: RegistrationParams = RegistrationParams(),
    *,
    seed: int = 0,
) -> RegistrationResult:
    """Estimate the anchor-to-query pose with uniform seed sampling."""
    return _register(matches.anchor_points, matches.query_points, params, None, seed)
