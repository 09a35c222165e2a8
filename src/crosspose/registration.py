"""Robust rigid registration of 3D correspondences.

Two estimators share one hypothesize-and-verify engine:

* :func:`register_spatial_consistency` scores every match by how many
  other matches preserve its pairwise distances (a rigid motion keeps
  all intra-set distances, so wrong matches rarely agree with the
  consensus), then samples seed triplets proportionally to that score.
* :func:`register_ransac` samples seed triplets uniformly. It exists as
  the ablation baseline; under contaminated matches its success rate
  trails the scored variant at the same iteration budget.

Each seed triplet yields a closed-form Kabsch pose without an SVD: the
two centred triangles are planar, so the fit aligns their planes and
solves a 2 x 2 Procrustes problem (see :func:`_triplet_poses`). The
hypothesis with the most inliers wins (ties broken by lower mean inlier
residual, then lower hypothesis index), and the winner is refit on its
inliers by :func:`kabsch`, which keeps its SVD. One threshold,
``INLIER_THRESHOLD``, bounds an inlier's residual and a compatible
pair's change in length; the estimators pass it to the engine, and
``RegistrationParams.iterations`` is the one value a caller sets.

Classify, then verify: every decision is the one the exact residuals of
:func:`_residuals` give, but most entries never need them. One matrix
product, ``[R | t | -I] @ [s; 1; d]``, gives every squared residual to
within a bound that scales with the largest coordinate of the call (see
:func:`_bands`). An entry at least a margin ``delta`` (100 times that
bound, far below the squared threshold) inside or outside the threshold
is classified from the product alone; a row with an entry inside the
band is recomputed exactly. Among the rows that tie on the most
inliers, only those whose fast mean residual lies within ``sqrt(delta)``
(plus the summation error) of the smallest, or of the running best, get
exact residuals and the exact mean, so the winner, its mean and its
residual row are those of the exact engine.

Compatibility is classified and verified the same way. Each view is
centred on its centroid, and one matrix product per view and block of
``_BLOCK`` rows gives the squared distances as ``|a|**2 + |b|**2 - 2
a.b``; their roots are within a bound that scales with the largest
centred coordinate (see :func:`_length_band`) of the exact lengths of
:func:`_lengths`. A length change more than that band from the tolerance
is decided from the roots; an entry inside it is recounted by
:func:`_lengths`, so every score is the exact one.

Both bands assume finite coordinates of magnitude at most
``geometry.COORDINATE_BOUND`` (1e9 m), where no square overflows.
:class:`Correspondences` and :func:`compatibility_scores` reject any
other input with a ValueError that names the view.

Determinism and memory: a call runs in three phases. It draws every
hypothesis' seed triplet in fixed chunks of ``_CHUNK`` rows, in order,
from one generator seeded once; it fits all the triplets in one
:func:`_triplet_poses` call; and it scores the poses in the same
chunks, in order. Row ``h`` of the Gumbel key matrix is hypothesis
``h``'s private stream (Gumbel top-k, equivalent to sequential weighted
sampling without replacement), drawing the rows chunk by chunk gives
the same numbers as one full draw, and the fit is elementwise, so each
pose is that of its own triplet whatever the batch. The result depends
only on the seed, never on scheduling. Memory grows with the match
count ``n`` and with the budget ``iterations``, never with their
product or with ``n**2``: the keys and residuals of one chunk are
``(_CHUNK, n)``, and the fit of all the triplets holds about 1.3 KB
per hypothesis while it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, NoConsensus, TooFewMatches
from .geometry import Pose, as_coordinates, sum_sq
from .matcher import Correspondences

# Point sets whose second singular value (after centering) falls below
# this are collinear or coincident; a rigid fit is not unique.
_DEGENERACY_TOL = 1e-9

# Hypotheses drawn and scored per chunk, and rows of the compatibility
# matrix per block. Neither changes a result; they cap the working set.
_CHUNK = 128
_BLOCK = 128

# Unit roundoff of float64, and the smallest subnormal: the most an
# underflowing operation loses.
_U = np.finfo(np.float64).eps / 2
_ETA = np.finfo(np.float64).smallest_subnormal

# Meters: an inlier's largest residual, and the largest change in length
# between the views of a consistent pair of matches.
INLIER_THRESHOLD = 0.01


@dataclass(frozen=True)
class RegistrationParams:
    """The hypothesis budget shared by both estimators.

    ``iterations`` seed triplets are drawn and scored; it must be an
    integer (not a bool) of at least 1. The threshold is a module constant.
    """

    iterations: int = 1000

    def __post_init__(self):
        # A bool is an int, and 2.5 or 1000.0 would fail deep in the engine.
        if isinstance(self.iterations, bool) or not isinstance(
            self.iterations, (int, np.integer)
        ):
            raise ValueError(f"iterations must be an integer, got {self.iterations!r}")
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
    unique. ``src`` and ``dst`` are ``(M, 3)`` arrays; a coordinate that
    is not finite or exceeds ``geometry.COORDINATE_BOUND`` raises
    ValueError.
    """
    s = as_coordinates(src, "src")
    d = as_coordinates(dst, "dst")
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


def _lengths(p: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The exact distances from points ``p[i]`` to points ``p[j]``: the
    roots of :func:`geometry.sum_sq` of the coordinate differences."""
    return np.sqrt(sum_sq(p[i, k] - p[j, k] for k in range(3)))


def _gram_factors(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(a, b)`` of the squared distances of the points ``c``.

    Row ``i`` of the ``(n, 5)`` array ``a`` is ``[c_i, |c_i|**2, 1]`` and
    column ``j`` of the ``(5, n)`` array ``b`` is ``[-2 c_j, 1,
    |c_j|**2]``, so ``(a @ b)[i, j] = |c_i|**2 + |c_j|**2 - 2 c_i . c_j``.
    The scaling by -2 is exact.
    """
    sq = (c * c).sum(axis=1)
    ones = np.ones(len(c))
    return np.column_stack((c, sq, ones)), np.vstack((-2.0 * c.T, ones, sq))


def _gram_distances(
    a: np.ndarray, b: np.ndarray, start: int, stop: int, out: np.ndarray
) -> np.ndarray:
    """Distances from points ``start:stop`` to the points ``start:``, from
    one product of the factors of :func:`_gram_factors`, to within
    :func:`_length_band` of :func:`_lengths`. A square that rounding
    takes below zero, as it may for near-coincident points, is replaced by
    its magnitude before the root (``abs`` runs faster than a clamp at 0
    and keeps the same bound). Written into ``out``.
    """
    sq = np.matmul(a[start:stop], b[:, start:], out=out)
    np.abs(sq, out=sq)
    return np.sqrt(sq, out=sq)


def _length_band(*centred: np.ndarray) -> float:
    """How far :func:`_gram_distances` may move a length change from
    :func:`_lengths`.

    Let ``M`` be the largest coordinate magnitude of the centred views,
    ``u = 2**-53`` and ``eta = 2**-1074``, the most an underflowing
    operation can lose. Centring rounds each coordinate once, so two
    centred points differ by at most ``2uM`` per coordinate from the
    difference of the input points: ``4uM`` in length. The product of
    :func:`_gram_factors` sums five terms of total magnitude at most
    ``12 M**2`` (two squared norms of at most ``3 M**2`` and ``-2 a.b``
    of at most ``6 M**2``), within ``gamma_5 * 12 M**2`` whatever its
    order or fused multiply-adds, and each squared norm it carries is
    within ``gamma_3 * 3 M**2``: the square is within ``E = 96 u M**2 +
    16 eta`` of the true one. A negative square, replaced by its
    magnitude, and the true one both lie in ``[0, E]``. A root moves by
    at most ``sqrt(E)`` when its argument moves by ``E``, and rounding
    the root adds ``4uM``: the Gram length is within ``sqrt(E) + 8uM`` of
    the true length of the input points. The expression of
    :func:`_lengths` rounds each of its six steps on non-negative
    terms, so its length lies within ``16uM + 2 sqrt(eta)`` of the same
    true length. Per view the two routes differ by at most ``R = sqrt(E)
    + 2 sqrt(eta) + 24uM``, and the change ``|ds - dd|``, whose
    subtraction rounds values of at most ``4M``, by at most ``B = 2R +
    8uM``. The band is ``4B``, a safety factor of 4. At ``M = 0.15`` m it
    is about 1.2e-7 m against a tolerance of 1e-2 m.
    """
    m = np.max([np.abs(c).max() for c in centred])
    terms = 12 * m * m
    root = np.sqrt(8 * _U * terms + 16 * _ETA) + 2 * np.sqrt(_ETA) + 24 * _U * m
    band = 4 * (2 * root + 8 * _U * m)
    return float(band)


def compatibility_scores(src, dst, tolerance: float) -> np.ndarray:
    """Count, per match, how many other matches preserve pairwise length.

    Match pairs (i, j) are compatible when the distance between points i
    and j changes by at most ``tolerance`` between the two views. The
    matrix is exactly symmetric (``a - b == -(b - a)`` in IEEE
    arithmetic), so each pair is scored once: a block of ``_BLOCK`` rows
    meets only the columns from its own first row on, and adds to both
    its row and its column counts. Memory grows with ``n``, not with
    ``n**2``.

    Every decision is that of the exact lengths of :func:`_lengths`, but
    few entries need them. Each view is centred on its centroid, and
    one matrix product per view and block gives every squared distance
    as ``|a|**2 + |b|**2 - 2 a.b`` (:func:`_gram_distances`). A length
    change more than the band of :func:`_length_band` inside or outside
    ``tolerance`` is decided from those roots; an entry within the band
    is recounted from :func:`_lengths`.

    ``src`` and ``dst`` are ``(M, 3)`` arrays; a coordinate that is not
    finite or exceeds ``geometry.COORDINATE_BOUND`` raises ValueError.
    """
    s = as_coordinates(src, "src")
    d = as_coordinates(dst, "dst")
    if len(s) != len(d):
        raise ValueError("source/destination counts differ")
    n = len(s)
    scores = np.zeros(n)
    if n == 0:
        return scores
    centred = s - s.mean(axis=0), d - d.mean(axis=0)
    band = _length_band(*centred)
    factors = [_gram_factors(c) for c in centred]
    lo, hi = tolerance - band, tolerance + band
    buffers = np.empty((2, min(_BLOCK, n), n))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        ds, dd = buffers[:, : stop - start, : n - start]
        for (a, b), out in zip(factors, (ds, dd)):
            _gram_distances(a, b, start, stop, out)
        ds -= dd
        change = np.abs(ds, out=ds)
        compatible = change <= lo
        unsure = change <= hi
        if np.count_nonzero(unsure) > np.count_nonzero(compatible):
            unsure ^= compatible
            rows, cols = np.nonzero(unsure)
            i, j = rows + start, cols + start
            compatible[rows, cols] = np.abs(_lengths(s, i, j) - _lengths(d, i, j)) <= tolerance
        own = np.arange(stop - start)
        compatible[own, own] = False
        # Row counts stay below n; int32 sums them faster than the default.
        scores[start:stop] += compatible.sum(axis=1, dtype=np.int32)
        scores[stop:] += compatible[:, stop - start :].sum(axis=0, dtype=np.int32)
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


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sums of products over the first axis, of length 3, added as
    ``(u0 v0 + u1 v1) + u2 v2``."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products of ``(3, ...)`` vectors, in the float order of ``np.cross``."""
    return u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]]


def _triplet_poses(s3: np.ndarray, d3: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Kabsch pose of every seed triplet, in closed form. Returns
    ``(R, t, valid)``.

    Two centred triangles are planar, so their cross-covariance has rank
    2 and needs no SVD (Kabsch 1976; Umeyama 1991). Each triangle gets
    an orthonormal frame: ``a1`` along its first edge, ``a2`` in its
    plane on the side of its third point, and the normal ``n = a1 x
    a2``; ``b1``, ``b2`` and ``n_d`` for the destination. With ``x`` and
    ``y`` the in-plane coordinates of the points, ``M = sum x y^T`` is
    2 x 2. The in-plane rotation reaches ``|(m00 + m11, m01 - m10)|``
    and the in-plane reflection ``|(m00 - m11, m01 + m10)|``. The larger
    wins, and ``n`` goes to ``n_d`` after a rotation and to ``-n_d``
    after a reflection, so ``R`` is always proper: the maximizer that
    the SVD with its determinant guard returns. Then ``t = c_d - R
    c_s``. Both triangles run counterclockwise in their own frames, so
    ``det M > 0`` and the rotation wins; the reflection is reached only
    where rounding flips the sign of a sliver's ``det M``.

    Every step is elementwise on component arrays, source and
    destination side by side, with no einsum and no BLAS, so each row's
    bits are fixed by its own triplet, whatever the batch. A row is
    valid where both triangle areas exceed 1e-12; the centroids, edge
    cross products and areas equal, bit for bit, ``mean(axis=1)``,
    ``np.cross`` and ``np.linalg.norm``. An invalid row (collinear or
    coincident points) gets the identity pose.
    """
    h = len(s3)
    # Coordinate, point, triangle; the sources are the first h triangles.
    p = np.concatenate((s3, d3)).transpose(2, 1, 0)
    centroid = (p[:, 0] + p[:, 1] + p[:, 2]) / 3
    p0 = p - centroid[:, None]
    e1 = p0[:, 1] - p0[:, 0]
    normal = _cross(e1, p0[:, 2] - p0[:, 0])
    area = np.sqrt(_dot(normal, normal))
    valid = (area[:h] > 1e-12) & (area[h:] > 1e-12)

    with np.errstate(invalid="ignore", divide="ignore"):
        # Axis, coordinate, triangle. a2 and n are cross products of unit
        # vectors, so the frame stays orthonormal on a sliver, whose edge
        # cross product has lost most of its direction to rounding.
        a1 = e1 / np.sqrt(_dot(e1, e1))
        a2 = _cross(normal, a1)
        a2 /= np.sqrt(_dot(a2, a2))
        frame = np.stack((a1, a2, _cross(a1, a2)))
        # Point, in-plane axis, triangle.
        x = _dot(p0[:, :, None], frame[:2].transpose(1, 0, 2)[:, None])
        (m00, m01), (m10, m11) = _dot(x[:, :, None, :h], x[:, None, :, h:])
        rc, rs = m00 + m11, m01 - m10
        fc, fs = m00 - m11, m01 + m10
        rot_sq, ref_sq = rc * rc + rs * rs, fc * fc + fs * fs
        turn = rot_sq >= ref_sq
        norm = np.sqrt(np.where(turn, rot_sq, ref_sq))
        c = np.where(turn, rc, fc) / norm
        s = np.where(turn, rs, fs) / norm
        sign = np.where(turn, 1.0, -1.0)
        # The images of a1, a2 and n; R is the sum of image (x) axis,
        # built transposed: rot_t[j, i] = R_ij.
        b1, b2, n_d = frame[:, :, h:]
        image = np.stack((c * b1 + s * b2, sign * (c * b2 - s * b1), sign * n_d))
        rot_t = _dot(frame[:, :, None, :h], image[:, None])
    t = centroid[:, h:] - _dot(rot_t, centroid[:, None, :h])
    rot = np.ascontiguousarray(rot_t.transpose(2, 1, 0))
    t = np.ascontiguousarray(t.T)
    rot[~valid] = np.eye(3)
    t[~valid] = 0.0
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


def _squared_residuals(rot: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``|R_h s_i + t_h - d_i|**2`` from one matrix product, to within :func:`_bands`.

    ``points`` is the ``(7, n)`` stack ``[s; 1; d]`` of the homogeneous
    source over the destination, so ``[R | t | -I] @ points`` gives every
    hypothesis' three residual rows, ``d`` already subtracted, in one
    product. Each coordinate is still a five-term dot product: the two
    other destination terms are multiplied by exact zeros. One einsum
    sums the squares. Both float orders are the libraries', so the values
    are close to, not equal to, the squares of :func:`_residuals`.
    """
    size = len(rot)
    rtd = np.zeros((size, 3, 7))
    rtd[:, :, :3] = rot
    rtd[:, :, 3] = t
    rtd[:, :, 4:] = -np.eye(3)
    e = (rtd.reshape(3 * size, 7) @ points).reshape(size, 3, -1)
    return np.einsum("hin,hin->hn", e, e)


def _bands(src: np.ndarray, dst: np.ndarray, threshold: float) -> tuple[float, float, float]:
    """Bounds that turn :func:`_squared_residuals` into exact decisions.

    Returns ``(lo, hi, eta)``: a squared residual at most ``lo`` is an
    inlier of :func:`_residuals`, one above ``hi`` an outlier, and a
    fast mean inlier residual lies within ``eta`` of the exact one.

    The bound. Let ``M`` be the largest coordinate magnitude of the call
    and ``u = 2**-53``. Each coordinate of ``R s + t - d`` sums five
    terms of total magnitude at most ``7M`` (``|R_ij| <= 1``, ``|t_i| <=
    (1 + sqrt 3) M`` for a pose fit to three of the points). Either route
    is a five-term dot product (the product of :func:`_squared_residuals`
    carries ``-d`` and two more destination terms times exact zeros),
    within ``gamma_5 * 7M`` of the true value whatever its order or fused
    multiply-adds (``gamma_5 = 5u / (1 - 5u)``), so the routes differ by
    at most ``eps = 80 u M`` per coordinate. Where either squared sum is
    at most ``T**2`` (``T = threshold``), every coordinate is at
    most about ``T`` and the two squared sums differ by at most ``B = 4
    eps T + 3 eps**2 + 8 u T**2``. The band is ``delta = 100 B``: ``lo =
    T**2 - delta``, ``hi = T**2 + delta``. For an inlier the two
    residuals differ by at most ``sqrt(B) + 2uT``, below ``sqrt(delta)``,
    and the two ways of summing ``n`` of them, then dividing, add at most
    ``4 n u T``, so ``eta = sqrt(delta) + 4 n u T``. At ``M = 1000`` m,
    ``delta`` is about 4e-11 against ``T**2 = 1e-4`` at ``T = 0.01`` m.
    """
    t2 = threshold * threshold
    eps = 80 * _U * max(np.abs(src).max(), np.abs(dst).max())
    delta = 100 * (4 * eps * threshold + 3 * eps * eps + 8 * _U * t2)
    return t2 - delta, t2 + delta, np.sqrt(delta) + 4 * len(src) * _U * threshold


def _register(
    src: np.ndarray,
    dst: np.ndarray,
    iterations: int,
    weights: np.ndarray,
    seed: int,
    threshold: float,
) -> RegistrationResult:
    """Hypothesize, then verify in chunks of ``_CHUNK`` hypotheses.

    Each triplet is drawn by weighted sampling without replacement via
    Gumbel top-k: per row, keys = log(w) + Gumbel noise, and the three
    largest keys select the triplet; a zero weight's key is ``-inf``.
    Sampling is uniform through zero log-weights: all weights 1 give
    them, and so do weights with fewer than three positive entries,
    which cannot fill a triplet. The keys are drawn a chunk at a time
    and only the triplets are kept; one :func:`_triplet_poses` call fits
    them all. The scoring then walks the poses chunk by chunk, and only
    the running best hypothesis outlives its chunk.

    Per chunk, inliers (matches within ``threshold``) are counted from
    :func:`_squared_residuals` against the bands of :func:`_bands`; a row
    with an entry between them is recounted from :func:`_residuals`.
    The rows that reach the most inliers and whose fast mean residual is
    within ``eta`` of the running best, or within ``2 eta`` of the
    smallest, are the only ones that can win: they alone get exact
    residuals and the exact mean, summed as ``(res * inlier).sum(axis=1)``.
    Only a larger count, or the same count with a strictly smaller exact
    mean, replaces the running best, so among equals the lowest
    hypothesis index wins. A hypothesis with no inlier never wins.
    """
    n = len(src)
    if n < 3:
        raise TooFewMatches(f"registration needs at least 3 matches, got {n}")

    rng = np.random.default_rng(seed)
    logw = 0.0
    positive = weights > 0
    if np.count_nonzero(positive) >= 3:
        logw = np.log(weights, out=np.full(n, -np.inf), where=positive)

    lo, hi, eta = _bands(src, dst, threshold)
    points = np.vstack((src.T, np.ones(n), dst.T))

    # Every hypothesis' triplet, drawn chunk by chunk: only the (_CHUNK, n)
    # keys of one chunk are alive at a time.
    triplets = np.empty((iterations, 3), dtype=np.intp)
    for start in range(0, iterations, _CHUNK):
        # -log(-log(u)) in place; negation is exact, so the bits match.
        keys = rng.random((min(_CHUNK, iterations - start), n))
        np.negative(np.log(keys, out=keys), out=keys)
        np.negative(np.log(keys, out=keys), out=keys)
        keys += logw
        triplets[start : start + _CHUNK] = _top3(keys)
    # One fit for them all: each row's bits are fixed by its own triplet.
    rots, ts, valids = _triplet_poses(src[triplets], dst[triplets])

    # The running best, ranked by most inliers, then lower mean residual,
    # then lower hypothesis index. An invalid triplet counts 0 inliers, and
    # a chunk whose best row explains none cannot win.
    best_count, best_mean = 0, np.inf
    for start in range(0, iterations, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        rot, t, valid = rots[chunk], ts[chunk], valids[chunk]
        sq = _squared_residuals(rot, t, points)
        inlier = sq <= lo
        counts = inlier.sum(axis=1)
        unsure = np.nonzero((sq <= hi).sum(axis=1) != counts)[0]
        if len(unsure):
            inlier[unsure] = _residuals(rot[unsure], t[unsure], src, dst) <= threshold
            counts[unsure] = inlier[unsure].sum(axis=1)
        counts[~valid] = 0

        top = counts.max()
        if top < max(best_count, 1):
            continue
        # Rows that reach the most inliers, and the bound their exact
        # means must meet to beat the running best or each other.
        rows = np.nonzero(counts == top)[0]
        fast = (np.sqrt(sq[rows]) * inlier[rows]).sum(axis=1) / top
        bound = fast.min() + 2 * eta
        if top == best_count:
            bound = min(bound, best_mean + eta)
        rows = rows[fast <= bound]
        if not len(rows):
            continue

        res = _residuals(rot[rows], t[rows], src, dst)
        inl = res <= threshold
        means = (res * inl).sum(axis=1) / top
        # The first of the smallest means; the running best keeps its ties
        # as the earlier index.
        j = int(np.argmin(means))
        if top > best_count or means[j] < best_mean:
            h = rows[j]
            best_count, best_mean = top, means[j]
            seed_pose = Pose(rot[h], t[h])
            best_res, seed_inliers = res[j], np.nonzero(inl[j])[0]

    if best_count < 3:
        raise NoConsensus(
            f"best hypothesis explains only {best_count} matches "
            f"(need at least 3)"
        )

    try:
        pose = kabsch(src[seed_inliers], dst[seed_inliers])
    except DegenerateConfiguration:
        pose = seed_pose

    final_res = np.linalg.norm(pose.apply(src) - dst, axis=1)
    final_inliers = np.nonzero(final_res <= threshold)[0]
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
    scores = compatibility_scores(src, dst, INLIER_THRESHOLD)
    return _register(src, dst, params.iterations, scores, seed, INLIER_THRESHOLD)


def register_ransac(
    matches: Correspondences,
    params: RegistrationParams = RegistrationParams(),
    *,
    seed: int = 0,
) -> RegistrationResult:
    """Estimate the anchor-to-query pose with uniform seed sampling."""
    src, dst = matches.anchor_points, matches.query_points
    return _register(src, dst, params.iterations, np.ones(len(src)), seed, INLIER_THRESHOLD)
