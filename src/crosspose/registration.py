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

Classify, then verify: every decision is the one the exact residuals of
:func:`_residuals` give, but most entries never need them. One matrix
product gives every squared residual to within a bound that scales with
the largest coordinate of the call (see :func:`_bands`). An entry at
least a margin ``delta`` (100 times that bound, far below the squared
threshold) inside or outside the threshold is classified from the
product alone; a row with an entry inside the band is recomputed
exactly. Among the rows that tie on the most inliers, only those whose
fast mean residual lies within ``sqrt(delta)`` (plus the summation
error) of the smallest, or of the running best, get exact residuals and
the exact mean, so the winner, its mean and its residual row are those
of the exact engine.

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
from .geometry import Pose, as_rows, sum_sq
from .matcher import Correspondences

# Point sets whose second singular value (after centering) falls below
# this are collinear or coincident; a rigid fit is not unique.
_DEGENERACY_TOL = 1e-9

# Hypotheses scored per chunk, and rows of the compatibility matrix per
# block. Neither changes a result; they cap the working set.
_CHUNK = 128
_BLOCK = 128

# Unit roundoff of float64.
_U = np.finfo(np.float64).eps / 2

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


def _distances(p: np.ndarray, start: int, stop: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Distances from points ``p[start:stop]`` to the points ``p[start:]``,
    the roots of :func:`geometry.sum_sq`. Written into ``out``; ``tmp`` is a
    work buffer of the same shape that takes the y and z differences.
    """
    block, rest = p[start:stop], p[start:]
    sq = sum_sq(
        np.subtract(block[:, k, None], rest[:, k], out=buf)
        for k, buf in enumerate((out, tmp, tmp))
    )
    return np.sqrt(sq, out=sq)


def compatibility_scores(src, dst, tolerance: float) -> np.ndarray:
    """Count, per match, how many other matches preserve pairwise length.

    Match pairs (i, j) are compatible when the distance between points i
    and j changes by at most ``tolerance`` between the two views. The
    matrix is exactly symmetric (``a - b == -(b - a)`` in IEEE
    arithmetic), so each pair is scored once: a block of ``_BLOCK`` rows
    meets only the columns from its own first row on, and adds to both
    its row and its column counts. Memory grows with ``n``, not with
    ``n**2``.
    """
    s = as_rows(src, 3, np.float64, "src")
    d = as_rows(dst, 3, np.float64, "dst")
    if len(s) != len(d):
        raise ValueError("source/destination counts differ")
    n = len(s)
    scores = np.zeros(n)
    buffers = np.empty((3, min(_BLOCK, n), n))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        ds, dd, tmp = buffers[:, : stop - start, : n - start]
        _distances(s, start, stop, ds, tmp)
        _distances(d, start, stop, dd, tmp)
        ds -= dd
        compatible = np.abs(ds, out=ds) <= tolerance
        own = np.arange(stop - start)
        compatible[own, own] = False
        scores[start:stop] += compatible.sum(axis=1)
        scores[stop:] += compatible[:, stop - start :].sum(axis=0)
    return scores


def _top3(keys: np.ndarray) -> np.ndarray:
    """Columns of each row's three largest keys, largest first.

    Equal keys go to the lower column, so the result equals
    ``np.argsort(-keys, axis=1, kind="stable")[:, :3]``. Three ``argmax``
    passes over a copy find them, each masking its pick with ``-inf``;
    ``argmax`` returns the first maximum, so ties go to the lower column.
    A row whose pick lands on ``-inf`` (fewer than three finite keys),
    where the mask is indistinguishable from a key, takes the stable
    sort. ``keys`` is not modified.
    """
    work = keys.copy()
    rows = np.arange(len(work))
    top = np.empty((len(work), 3), dtype=np.intp)
    stuck = np.zeros(len(work), dtype=bool)
    for j in range(3):
        col = work.argmax(axis=1)
        top[:, j] = col
        stuck |= ~(work[rows, col] > -np.inf)
        work[rows, col] = -np.inf
    if stuck.any():
        top[stuck] = np.argsort(-keys[stuck], axis=1, kind="stable")[:, :3]
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

    The exact residuals: every inlier decision and every mean residual
    the engine reports is the one these values give. The engine computes
    them only for the rows that can decide (see :func:`_register`).

    Row ``h`` depends only on hypothesis ``h``, whatever the batch. The
    rotation sums ``(x-term + z-term) + y-term``, then ``+ t`` and
    ``- d``; the squares sum by :func:`geometry.sum_sq`. On x86-64 with
    AVX-512 this is the float order of the engine's earlier form,
    ``np.einsum("hij,nj->hni")`` and ``np.linalg.norm``, now fixed here
    instead of in numpy's einsum internals.
    """
    x, y, z = src.T
    return np.sqrt(sum_sq(
        rot[:, i, 0, None] * x + rot[:, i, 2, None] * z + rot[:, i, 1, None] * y
        + t[:, i, None] - dst[:, i]
        for i in range(3)
    ))


def _squared_residuals(rot: np.ndarray, t: np.ndarray, src_h: np.ndarray, dst_t: np.ndarray) -> np.ndarray:
    """``|R_h s_i + t_h - d_i|**2`` from one matrix product, to within :func:`_bands`.

    ``src_h`` is the ``(4, n)`` homogeneous source ``[s; 1]`` and
    ``dst_t`` the ``(3, n)`` destination, so ``[R | t] @ src_h`` stacks
    every hypothesis' three rows into one product. Its float order is
    the BLAS library's, so the values are close to, not equal to, the
    squares of :func:`_residuals`.
    """
    size = len(rot)
    rt = np.concatenate((rot, t[:, :, None]), axis=2).reshape(3 * size, 4)
    e = (rt @ src_h).reshape(size, 3, -1)
    e -= dst_t
    e *= e
    sq = e[:, 0] + e[:, 1]
    sq += e[:, 2]
    return sq


def _bands(src: np.ndarray, dst: np.ndarray) -> tuple[float, float, float]:
    """Bounds that turn :func:`_squared_residuals` into exact decisions.

    Returns ``(lo, hi, eta)``: a squared residual at most ``lo`` is an
    inlier of :func:`_residuals`, one above ``hi`` an outlier, and a
    fast mean inlier residual lies within ``eta`` of the exact one.

    The bound. Let ``M`` be the largest coordinate magnitude of the call
    and ``u = 2**-53``. Each coordinate of ``R s + t - d`` sums five
    terms of total magnitude at most ``7M`` (``|R_ij| <= 1``, ``|t_i| <=
    (1 + sqrt 3) M`` for a pose fit to three of the points). Either route
    is a five-term dot product, within ``gamma_5 * 7M`` of the true value
    whatever its order or fused multiply-adds (``gamma_5 = 5u / (1 -
    5u)``), so the routes differ by at most ``eps = 80 u M`` per
    coordinate. Where either squared sum is at most ``T**2`` (``T =
    INLIER_THRESHOLD``), every coordinate is at most about ``T`` and the
    two squared sums differ by at most ``B = 4 eps T + 3 eps**2 + 8 u
    T**2``. The band is ``delta = 100 B``: ``lo = T**2 - delta``, ``hi =
    T**2 + delta``. For an inlier the two residuals differ by at most
    ``sqrt(B) + 2uT``, below ``sqrt(delta)``, and the two ways of summing
    ``n`` of them, then dividing, add at most ``4 n u T``, so ``eta =
    sqrt(delta) + 4 n u T``. At ``M = 1000`` m, ``delta`` is about 4e-11
    against ``T**2 = 1e-4``. A non-finite coordinate makes every row
    verify exactly.
    """
    t2 = INLIER_THRESHOLD * INLIER_THRESHOLD
    eps = 80 * _U * max(np.abs(src).max(), np.abs(dst).max())
    delta = 100 * (4 * eps * INLIER_THRESHOLD + 3 * eps * eps + 8 * _U * t2)
    if not np.isfinite(delta):
        return -np.inf, np.inf, np.inf
    return t2 - delta, t2 + delta, np.sqrt(delta) + 4 * len(src) * _U * INLIER_THRESHOLD


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

    Per chunk, inliers are counted from :func:`_squared_residuals`
    against the bands of :func:`_bands`; a row with an entry between
    them is recounted from :func:`_residuals`. The rows that reach the
    most inliers and whose fast mean residual is within ``eta`` of the
    running best, or within ``2 eta`` of the smallest, are the only
    ones that can win: they alone get exact residuals and the exact
    mean, summed as ``(res * inlier).sum(axis=1)``.
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

    lo, hi, eta = _bands(src, dst)
    src_h = np.vstack((src.T, np.ones(n)))
    dst_t = np.ascontiguousarray(dst.T)

    # The running best, ranked by most inliers, then lower mean residual,
    # then lower hypothesis index. Invalid triplets count -1 inliers, so
    # the -2 of the start loses to any hypothesis.
    best_count, best_mean = -2, np.inf
    for start in range(0, iterations, _CHUNK):
        size = min(_CHUNK, iterations - start)
        # -log(-log(u)) in place; negation is exact, so the bits match.
        keys = rng.random((size, n))
        np.negative(np.log(keys, out=keys), out=keys)
        np.negative(np.log(keys, out=keys), out=keys)
        if logw is not None:
            keys += logw
        triplets = _top3(keys)
        rot, t, valid = _triplet_poses(src[triplets], dst[triplets])

        sq = _squared_residuals(rot, t, src_h, dst_t)
        inlier = sq <= lo
        counts = inlier.sum(axis=1)
        unsure = np.nonzero((sq <= hi).sum(axis=1) != counts)[0]
        if len(unsure):
            inlier[unsure] = _residuals(rot[unsure], t[unsure], src, dst) <= INLIER_THRESHOLD
            counts[unsure] = inlier[unsure].sum(axis=1)
        counts[~valid] = -1

        top = counts.max()
        if top < best_count:
            continue
        # Rows that reach the most inliers, and the bound their exact
        # means must meet to beat the running best or each other.
        rows = np.nonzero(counts == top)[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            fast = np.where(
                top > 0,
                (np.sqrt(sq[rows]) * inlier[rows]).sum(axis=1) / max(top, 1),
                np.inf,
            )
        bound = fast.min() + 2 * eta
        if top == best_count:
            bound = min(bound, best_mean + eta)
        rows = rows[~(fast > bound)]
        if not len(rows):
            continue

        res = _residuals(rot[rows], t[rows], src, dst)
        inl = res <= INLIER_THRESHOLD
        cnt = counts[rows]
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_res = np.where(
                cnt > 0, (res * inl).sum(axis=1) / np.maximum(cnt, 1), np.inf
            )
        # Row 0 is the best so far; it wins its ties as the earlier index.
        k = int(np.lexsort((np.r_[best_mean, mean_res], -np.r_[best_count, cnt]))[0])
        if k > 0:
            j, h = k - 1, rows[k - 1]
            best_count, best_mean = cnt[j], mean_res[j]
            seed_pose = Pose(rot[h], t[h])
            best_res, seed_inliers = res[j], np.nonzero(inl[j])[0]

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
