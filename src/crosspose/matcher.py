"""Masked nearest-neighbor matching of dense feature grids.

Features live on an ``(H, W, D)`` grid per view. Matching considers only
cells selected by a mask at grid resolution, pairs each anchor cell with
its nearest query cell in cosine distance, drops pairs above
``MAX_DISTANCE``, and keeps at most ``MAX_MATCHES`` pairs globally (the
lowest distances win); the result is a :class:`MatchSet` of grid cells.
Both thresholds are module constants, so every caller matches under one
protocol. :func:`lift_matches` maps the matched cells to image pixels through the
center-of-cell convention and back-projects them to 3D with the depth
maps, dropping cells that land on depth holes; the result is the
:class:`Correspondences` that registration consumes.

The cosine distance used everywhere is ``(1 - cos) / 2``, which maps
aligned vectors to 0 and opposed vectors to 1 and is invariant to
positive rescaling of either argument. :func:`unit_rows` and
:func:`cosine_distance` implement it for this module and ``losses``;
``synth`` draws its unit descriptors through :func:`unit_rows` and
normalises its descriptor fields in place by :func:`row_norms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, ZeroVector
from .geometry import CameraIntrinsics, as_depth, as_mask, as_rows, back_project

# Cosine distance is undefined below this norm.
ZERO_NORM_TOL = 1e-12

# Pairs above this cosine distance are dropped; at most this many of the
# rest survive, the lowest distances first.
MAX_DISTANCE = 0.25
MAX_MATCHES = 500

# Rows per block. match_features holds the similarities of this many
# anchor cells at a time, _CHUNK x len(vq) floats, besides the widened
# masked rows of both views; row_norms squares this many rows at a time.
_CHUNK = 128


@dataclass(frozen=True)
class MatchSet:
    """Index-aligned matches between the feature grids of two views.

    ``anchor_cells``/``query_cells`` are (M, 2) integer ``(u, v)``
    coordinates on the feature grid; ``distances`` is the (M,) array of
    each pair's cosine distance. Other shapes are rejected, not reshaped.
    """

    anchor_cells: np.ndarray
    query_cells: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        a = as_rows(self.anchor_cells, 2, np.int64, "anchor cells")
        q = as_rows(self.query_cells, 2, np.int64, "query cells")
        d = np.asarray(self.distances, dtype=np.float64)
        if d.ndim != 1 or not (len(a) == len(q) == len(d)):
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
        pa = as_rows(self.anchor_points, 3, np.float64, "anchor points")
        pq = as_rows(self.query_points, 3, np.float64, "query points")
        if len(pa) != len(pq):
            raise ValueError("anchor/query point counts differ")
        object.__setattr__(self, "anchor_points", pa)
        object.__setattr__(self, "query_points", pq)

    def __len__(self) -> int:
        return len(self.anchor_points)


def row_norms(vectors: np.ndarray, what: str) -> np.ndarray:
    """The Euclidean norm of each float vector along the last axis.

    Takes an (N, D) stack of rows or an (H, W, D) grid of cells alike.
    The result is ``np.linalg.norm(vectors, axis=-1)`` bit for bit: the
    same ``np.add.reduce`` sums each row's squares, but only ``_CHUNK``
    rows are squared at a time, so no temporary of the input's size
    exists.

    Raises ZeroVector, naming ``what``, when any vector's norm is below
    ``ZERO_NORM_TOL``, where the cosine distance is undefined, and
    ValueError when a norm is not finite, as when values above about
    1e154 square to infinity: dividing by it would give zero vectors.
    """
    rows = vectors.reshape(-1, vectors.shape[-1])
    norms = np.empty(len(rows), dtype=rows.dtype)
    for start in range(0, len(rows), _CHUNK):
        block = rows[start : start + _CHUNK]
        with np.errstate(over="ignore"):  # an infinite norm is rejected below
            np.add.reduce(block * block, axis=-1, out=norms[start : start + _CHUNK])
    np.sqrt(norms, out=norms)
    if np.any(norms < ZERO_NORM_TOL):
        raise ZeroVector(f"{what} contain (near-)zero feature vectors")
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"{what} contain feature vectors of non-finite norm")
    return norms.reshape(vectors.shape[:-1])


def unit_rows(vectors: np.ndarray, what: str) -> np.ndarray:
    """Each float vector along the last axis scaled to unit length, as a
    new array; raises ZeroVector as :func:`row_norms` does."""
    return vectors / row_norms(vectors, what)[..., None]


def cosine_distance(cos):
    """Cosine distance ``(1 - cos) / 2`` from an array of cosine similarities, in [0, 1].

    It costs one new array of the input's shape: the division and the
    clip work in place on the difference.
    """
    dist = np.subtract(1.0, cos)
    dist /= 2.0
    return np.clip(dist, 0.0, 1.0, out=dist)


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
    """The grid as float64, or as the float32 it is stored in: checking
    a float32 grid before widening it is exact."""
    arr = np.asarray(feat)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (H, W, D), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _unit_cells(grid: np.ndarray, cells: np.ndarray, what: str) -> np.ndarray:
    """The feature vectors of the ``cells`` (row-major indices), widened
    to float64 and scaled to unit length in that new array."""
    rows = grid.reshape(-1, grid.shape[2])[cells].astype(np.float64, copy=False)
    rows /= row_norms(rows, what)[:, None]
    return rows


def match_features(feat_a, feat_q, mask_a, mask_q) -> MatchSet:
    """Match masked anchor cells to their nearest masked query cells.

    Masks must already be at feature-grid resolution (see
    :func:`downsample_mask`). Every kept pair has distance at most
    ``MAX_DISTANCE``; if more pairs qualify than ``MAX_MATCHES``, exactly
    the lowest-distance pairs survive, with ties broken by lowest anchor
    cell index. Output is ordered by anchor cell in row-major scan order,
    so results are deterministic.

    Memory is bounded by the masked rows of both views, widened to
    float64, plus one ``_CHUNK x len(vq)`` block of similarities, reused
    for every block of anchor rows. Under OpenBLAS the last bits of a
    similarity can depend on the block's row count, so another
    ``_CHUNK`` can move a distance by a few ulps: going from 1024 to 128
    rows moved one distance in 2 of the 36 match sets of the bench
    workloads (seed 7, one BLAS thread), with the same cells.
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

    va = _unit_cells(fa, lin_a, "masked anchor cells")
    vq = _unit_cells(fq, lin_q, "masked query cells")

    best_idx = np.empty(len(va), dtype=np.int64)
    best_sim = np.empty(len(va))
    buf = np.empty((min(_CHUNK, len(va)), len(vq)))
    for start in range(0, len(va), _CHUNK):
        block = va[start : start + _CHUNK]
        sims = np.matmul(block, vq.T, out=buf[: len(block)])
        # argmax returns the first maximum, i.e. the lowest query cell index.
        best = np.argmax(sims, axis=1)
        best_idx[start : start + _CHUNK] = best
        best_sim[start : start + _CHUNK] = sims[np.arange(len(best)), best]

    dist = cosine_distance(best_sim)
    keep = dist <= MAX_DISTANCE
    kept_a = lin_a[keep]
    kept_q = lin_q[best_idx[keep]]
    kept_d = dist[keep]

    # kept_a increases, so the sorted survivors are in anchor-cell order.
    order = np.sort(np.lexsort((kept_a, kept_d))[:MAX_MATCHES])
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
    ready to index a ``(H, W, D)`` feature grid as ``grid[v, u]``. Raises
    ValueError naming the first pixel outside ``[0, width) x [0, height)``.
    """
    gh, gw = grid_shape
    w, h = intrinsics.width, intrinsics.height
    u, v = pixels.T
    outside = np.flatnonzero((u < 0) | (u >= w) | (v < 0) | (v >= h))
    if len(outside):
        pu, pv = pixels[outside[0]]
        raise ValueError(f"pixel ({pu}, {pv}) lies outside the image [0, {w}) x [0, {h})")
    return (u * gw // w).astype(np.int64), (v * gh // h).astype(np.int64)


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
