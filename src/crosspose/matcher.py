"""Masked nearest-neighbor matching of dense feature grids.

Features live on an ``(H, W, D)`` grid per view. Matching considers only
cells selected by a mask at grid resolution, pairs each anchor cell with
its nearest query cell in cosine distance, drops pairs above a distance
threshold, and keeps at most ``max_matches`` pairs globally (the lowest
distances win); the result is a :class:`MatchSet` of grid cells.
:func:`lift_matches` maps the matched cells to image pixels through the
center-of-cell convention and back-projects them to 3D with the depth
maps, dropping cells that land on depth holes; the result is the
:class:`Correspondences` that registration consumes.

The cosine distance used everywhere is ``(1 - cos) / 2``, which maps
aligned vectors to 0 and opposed vectors to 1 and is invariant to
positive rescaling of either argument. :func:`unit_rows` and
:func:`cosine_distance` implement it for this module and ``losses``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, ZeroVector
from .geometry import CameraIntrinsics, as_depth, as_mask, back_project

# Cosine distance is undefined below this norm.
ZERO_NORM_TOL = 1e-12

# Anchor cells are matched in blocks of this many rows to bound the
# similarity-matrix footprint on full 192x192 grids.
_CHUNK = 1024


@dataclass(frozen=True)
class MatchParams:
    """Thresholds for feature matching.

    ``max_distance`` rejects weak matches (cosine distance above it);
    ``max_matches`` caps how many pairs survive, keeping the lowest
    distances.
    """

    max_distance: float = 0.25
    max_matches: int = 500

    def __post_init__(self):
        if not 0.0 <= self.max_distance <= 1.0:
            raise ValueError("max_distance must lie in [0, 1]")
        if self.max_matches < 1:
            raise ValueError("max_matches must be at least 1")


@dataclass(frozen=True)
class MatchSet:
    """Index-aligned matches between the feature grids of two views.

    ``anchor_cells``/``query_cells`` are (M, 2) integer ``(u, v)``
    coordinates on the feature grid; ``distances`` holds each pair's
    cosine distance.
    """

    anchor_cells: np.ndarray
    query_cells: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.anchor_cells, dtype=np.int64).reshape(-1, 2)
        q = np.asarray(self.query_cells, dtype=np.int64).reshape(-1, 2)
        d = np.asarray(self.distances, dtype=np.float64).reshape(-1)
        if not (len(a) == len(q) == len(d)):
            raise ValueError("anchor cells, query cells, and distances must align")
        object.__setattr__(self, "anchor_cells", a)
        object.__setattr__(self, "query_cells", q)
        object.__setattr__(self, "distances", d)

    def __len__(self) -> int:
        return len(self.anchor_cells)


@dataclass(frozen=True)
class Correspondences:
    """Index-aligned 3D point pairs between an anchor and a query view.

    Row i of ``anchor_points`` (anchor camera frame) and row i of
    ``query_points`` (query camera frame) are one correspondence; both
    are (M, 3) arrays.
    """

    anchor_points: np.ndarray
    query_points: np.ndarray

    def __post_init__(self):
        pa = np.asarray(self.anchor_points, dtype=np.float64).reshape(-1, 3)
        pq = np.asarray(self.query_points, dtype=np.float64).reshape(-1, 3)
        if len(pa) != len(pq):
            raise ValueError("anchor/query point counts differ")
        object.__setattr__(self, "anchor_points", pa)
        object.__setattr__(self, "query_points", pq)

    def __len__(self) -> int:
        return len(self.anchor_points)


def unit_rows(vectors: np.ndarray, what: str) -> np.ndarray:
    """Scale each row of a (N, D) array to unit length.

    Raises ZeroVector, naming ``what``, when any row's norm is below
    ``ZERO_NORM_TOL``, where the cosine distance is undefined.
    """
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms < ZERO_NORM_TOL):
        raise ZeroVector(f"{what} contain (near-)zero feature vectors")
    return vectors / norms[:, None]


def cosine_distance(cos):
    """Cosine distance ``(1 - cos) / 2`` from cosine similarities, in [0, 1]."""
    return np.clip((1.0 - cos) / 2.0, 0.0, 1.0)


def feature_distance(f1, f2) -> float:
    """Cosine distance ``(1 - cos) / 2`` between two feature vectors."""
    a = np.asarray(f1, dtype=np.float64).reshape(-1)
    b = np.asarray(f2, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"feature dimensions differ: {a.shape} vs {b.shape}")
    ua, ub = unit_rows(np.stack([a, b]), "the arguments")
    return float(cosine_distance(np.dot(ua, ub)))


def _cell_center_pixels(index, cells: int, pixels: int) -> np.ndarray:
    """Pixel under the center of each cell, along one axis of ``cells`` cells."""
    centers = np.floor((index + 0.5) * pixels / cells).astype(np.int64)
    return np.clip(centers, 0, pixels - 1)


def downsample_mask(mask, grid_shape: tuple[int, int]) -> np.ndarray:
    """Resample a mask to the feature-grid resolution by nearest neighbor.

    Each grid cell samples the image pixel under its center, the map
    :func:`cells_to_pixels` applies when lifting matches.
    """
    m = as_mask(mask)
    gh, gw = grid_shape
    if gh < 1 or gw < 1:
        raise ValueError("grid shape must be positive")
    h, w = m.shape
    rows = _cell_center_pixels(np.arange(gh), gh, h)
    cols = _cell_center_pixels(np.arange(gw), gw, w)
    return m[np.ix_(rows, cols)]


def _validate_features(feat, name: str) -> np.ndarray:
    arr = np.asarray(feat, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (H, W, D), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def match_features(
    feat_a,
    feat_q,
    mask_a,
    mask_q,
    params: MatchParams = MatchParams(),
) -> MatchSet:
    """Match masked anchor cells to their nearest masked query cells.

    Masks must already be at feature-grid resolution (see
    :func:`downsample_mask`). Every kept pair has distance at most
    ``params.max_distance``; if more pairs qualify than
    ``params.max_matches``, exactly the lowest-distance pairs survive,
    with ties broken by lowest anchor cell index. Output is ordered by
    anchor cell in row-major scan order, so results are deterministic.
    """
    fa = _validate_features(feat_a, "anchor features")
    fq = _validate_features(feat_q, "query features")
    if fa.shape[2] != fq.shape[2]:
        raise ValueError("feature dimensions differ between views")
    ma = as_mask(mask_a, fa.shape[:2])
    mq = as_mask(mask_q, fq.shape[:2])

    lin_a = np.nonzero(ma.ravel())[0]
    lin_q = np.nonzero(mq.ravel())[0]
    if len(lin_a) == 0:
        raise EmptyMask("anchor mask selects no feature cells")
    if len(lin_q) == 0:
        raise EmptyMask("query mask selects no feature cells")

    va = unit_rows(fa.reshape(-1, fa.shape[2])[lin_a], "masked anchor cells")
    vq = unit_rows(fq.reshape(-1, fq.shape[2])[lin_q], "masked query cells")

    best_idx = np.empty(len(va), dtype=np.int64)
    best_sim = np.empty(len(va))
    for start in range(0, len(va), _CHUNK):
        sims = va[start : start + _CHUNK] @ vq.T
        # argmax returns the first maximum, i.e. the lowest query cell index.
        best = np.argmax(sims, axis=1)
        best_idx[start : start + _CHUNK] = best
        best_sim[start : start + _CHUNK] = sims[np.arange(len(best)), best]

    dist = cosine_distance(best_sim)
    keep = dist <= params.max_distance
    kept_a = lin_a[keep]
    kept_q = lin_q[best_idx[keep]]
    kept_d = dist[keep]

    # kept_a increases, so the sorted survivors are in anchor-cell order.
    order = np.sort(np.lexsort((kept_a, kept_d))[: params.max_matches])
    kept_a = kept_a[order]
    kept_q = kept_q[order]
    kept_d = kept_d[order]

    wa = fa.shape[1]
    wq = fq.shape[1]
    return MatchSet(
        anchor_cells=np.column_stack([kept_a % wa, kept_a // wa]),
        query_cells=np.column_stack([kept_q % wq, kept_q // wq]),
        distances=kept_d,
    )


def cells_to_pixels(cells: np.ndarray, grid_shape, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Map grid cells to image pixels under the center-of-cell convention."""
    gh, gw = grid_shape
    u = _cell_center_pixels(cells[:, 0], gw, intrinsics.width)
    v = _cell_center_pixels(cells[:, 1], gh, intrinsics.height)
    return np.column_stack([u, v])


def pixels_to_cells(pixels: np.ndarray, grid_shape, intrinsics: CameraIntrinsics):
    """Map image pixels to the grid cells that contain them.

    Returns the ``(u, v)`` cell columns and rows as two integer arrays,
    ready to index a ``(H, W, D)`` feature grid as ``grid[v, u]``.
    """
    gh, gw = grid_shape
    u = np.clip(pixels[:, 0] * gw // intrinsics.width, 0, gw - 1)
    v = np.clip(pixels[:, 1] * gh // intrinsics.height, 0, gh - 1)
    return u.astype(np.int64), v.astype(np.int64)


def lift_matches(
    matches: MatchSet,
    depth_a,
    depth_q,
    cam_a: CameraIntrinsics,
    cam_q: CameraIntrinsics,
    grid_shape_a: tuple[int, int] | None = None,
    grid_shape_q: tuple[int, int] | None = None,
) -> Correspondences:
    """Back-project matched cells to 3D through the two depth maps.

    Grid shapes default to the image shape, for matches that already
    live at image resolution; pass them explicitly for coarser grids.
    Pairs whose pixel has no valid depth on either side are dropped; the
    rest keep their order.
    """
    da = as_depth(depth_a, cam_a)
    dq = as_depth(depth_q, cam_q)
    ga = grid_shape_a if grid_shape_a is not None else (cam_a.height, cam_a.width)
    gq = grid_shape_q if grid_shape_q is not None else (cam_q.height, cam_q.width)

    pix_a = cells_to_pixels(matches.anchor_cells, ga, cam_a)
    pix_q = cells_to_pixels(matches.query_cells, gq, cam_q)
    za = da[pix_a[:, 1], pix_a[:, 0]]
    zq = dq[pix_q[:, 1], pix_q[:, 0]]
    keep = (za > 0) & (zq > 0)

    pix_a, pix_q = pix_a[keep], pix_q[keep]
    return Correspondences(
        anchor_points=back_project(pix_a[:, 0], pix_a[:, 1], za[keep], cam_a),
        query_points=back_project(pix_q[:, 0], pix_q[:, 1], zq[keep], cam_q),
    )
