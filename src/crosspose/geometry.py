"""Rigid transforms, pinhole cameras, point-cloud primitives, and nearest-point search.

Conventions used throughout the package:

* Depth maps are ``(H, W)`` float arrays in meters; the value 0 marks an
  invalid pixel (hole). Depth is never interpolated across holes.
* Masks are ``(H, W)`` boolean arrays indexed ``[row, col]``.
* 2D coordinates are ``(u, v) = (column, row)``. Integer coordinates
  address pixel centers, so pixel ``(u, v)`` back-projects along the ray
  through its center.
* Projection: ``u = fx * x / z + cx``, ``v = fy * y / z + cy`` with
  ``z > 0`` in front of the camera.
* Poses map points from a source frame into a target frame:
  ``p_target = R @ p_source + t``. Composition ``a.compose(b)`` applies
  ``b`` first, then ``a``.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

# A rotation must be orthonormal with det +1 to within this bound.
ORTHONORMALITY_TOL = 1e-9

# Meters: the largest coordinate magnitude as_coordinates accepts. It sits
# far above any scene a camera sees (a 16-bit depth map ends at 65.535 m)
# and far below overflow: the squared lengths registration forms from
# centred coordinates, at most 12 * (2e9)**2 = 4.8e19, stay finite when
# summed over any number of matches, so its rounding bounds hold.
COORDINATE_BOUND = 1e9

# _cell_grid: a cell edge is at least the bounding box's largest side over
# this many cells, so every cell coordinate and key fits in int64.
_GRID_CELLS = 2**20

# _max_pairwise_sq: farthest-point sweeps for the lower bound, mean points
# per occupied cell, relative margin on every bound, pair entries scored
# at once, and the least lower bound (m^2) at which the centroid bound
# prunes: below it, squares rounded to subnormals could undercut the margin.
_DIAMETER_SWEEPS = 4
_DIAMETER_CELL_POINTS = 64
_DIAMETER_MARGIN = 1e-12
_DIAMETER_PAIR_ENTRIES = 2_000_000
_DIAMETER_CENTROID_FLOOR = 1e-200
# Distinct clouds whose exact diameter one process keeps, each held as its
# float64 bytes (see diameter); the lock lets one caller search a cloud
# while the others wait for its entry.
_DIAMETER_MEMO_ENTRIES = 8
_DIAMETER_MEMO_LOCK = threading.Lock()

# nearest_within: relative widening of the cell edge over the radius, far
# above the rounding of a cell coordinate, and candidate entries scored at
# once.
_RADIUS_MARGIN = 1e-6
_RADIUS_ENTRIES = 1 << 12


def _as_points(points, name: str = "points") -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contains non-finite values")
    return pts


@dataclass(frozen=True)
class Pose:
    """Rigid SE(3) transform ``p -> rotation @ p + translation``.

    The rotation must be orthonormal with determinant +1 to within
    ``ORTHONORMALITY_TOL``; construction fails otherwise.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        tra = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be (3, 3), got {rot.shape}")
        if tra.shape != (3,):
            raise ValueError(f"translation must be (3,), got {tra.shape}")
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(tra))):
            raise ValueError("pose contains non-finite values")
        ortho_err = np.max(np.abs(rot.T @ rot - np.eye(3)))
        det = np.linalg.det(rot)
        if ortho_err > ORTHONORMALITY_TOL or abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(
                f"rotation is not orthonormal with det +1 "
                f"(orthogonality error {ortho_err:.3e}, det {det:.12f})"
            )
        rot = rot.copy()
        tra = tra.copy()
        rot.flags.writeable = False
        tra.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """Return ``self * other``: apply ``other`` first, then ``self``."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        rot_inv = self.rotation.T
        return Pose(rot_inv, -rot_inv @ self.translation)

    def apply(self, points) -> np.ndarray:
        """Transform a stack of points ``(N, 3)``."""
        # A C-order copy of the transpose: the product through the view
        # takes about three times as long, with the same bits.
        return _as_points(points) @ self.rotation.T.copy() + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Return ``a * b`` (apply ``b`` first)."""
    return a.compose(b)


def relative_pose(pose_a: Pose, pose_b: Pose) -> Pose:
    """Transform mapping frame-A coordinates into frame B.

    For an object observed at ``pose_a`` in camera A and ``pose_b`` in
    camera B (both object-to-camera), the returned pose carries camera-A
    points of the object onto their camera-B positions:
    ``rel = pose_b * inverse(pose_a)``.
    """
    return pose_b.compose(pose_a.inverse())


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. ``width`` and ``height`` are in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be finite and positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def as_depth(depth, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Validate a depth map of the camera's size: finite, non-negative, meters."""
    arr = np.asarray(depth, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"depth must be 2D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("depth contains non-finite values")
    if np.any(arr < 0):
        raise ValueError("depth contains negative values")
    if arr.shape != (intrinsics.height, intrinsics.width):
        raise ValueError(
            f"depth shape {arr.shape} does not match intrinsics "
            f"({intrinsics.height}, {intrinsics.width})"
        )
    return arr


def as_mask(mask, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Validate a binary mask and return it as a boolean array."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"mask shape {arr.shape} does not match expected {shape}")
    return arr.astype(bool)


def as_rows(values, width: int, dtype, name: str) -> np.ndarray:
    """Validate an ``(M, width)`` array; an empty list reads as ``(0, width)``."""
    arr = np.asarray(values, dtype=dtype)
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have shape (M, {width}), got {arr.shape}")
    return arr


def as_coordinates(values, name: str) -> np.ndarray:
    """Validate ``(M, 3)`` float coordinates in meters by :func:`as_rows`,
    each finite and of magnitude at most ``COORDINATE_BOUND``."""
    arr = as_rows(values, 3, np.float64, name)
    if not np.all(np.abs(arr) <= COORDINATE_BOUND):  # NaN fails the comparison
        raise ValueError(f"{name} must be finite and within {COORDINATE_BOUND:g} m")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Points in meters with the source pixel of each point."""

    points: np.ndarray  # (N, 3)
    pixels: np.ndarray  # (N, 2) int, (u, v)

    def __post_init__(self):
        pts = _as_points(self.points)
        pix = np.asarray(self.pixels)
        if pix.shape != (len(pts), 2):
            raise ValueError(
                f"pixels shape {pix.shape} does not match points ({len(pts)}, 2)"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "pixels", pix.astype(np.int64))

    def __len__(self) -> int:
        return len(self.points)


def back_project(u, v, z, intrinsics: CameraIntrinsics) -> np.ndarray:
    """3D points at depths ``z`` on the rays through pixels ``(u, v)``.

    Returns an ``(N, 3)`` array; the pinhole model is inverted as
    ``x = z * (u - cx) / fx`` and ``y = z * (v - cy) / fy``. A subnormal
    focal length can overflow a coordinate to infinity; the caller's
    coordinate check rejects it.
    """
    with np.errstate(over="ignore"):
        return np.column_stack(
            [
                z * (u - intrinsics.cx) / intrinsics.fx,
                z * (v - intrinsics.cy) / intrinsics.fy,
                z,
            ]
        )


def unproject(
    depth, intrinsics: CameraIntrinsics, mask=None
) -> PointCloud:
    """Back-project valid (and optionally masked) depth pixels to 3D.

    Pixels with depth 0 are holes and are skipped. Points come out in
    row-major pixel scan order, and each point records its source pixel,
    so results are reproducible and can be projected back exactly.
    """
    arr = as_depth(depth, intrinsics)
    valid = arr > 0
    if mask is not None:
        valid &= as_mask(mask, arr.shape)
    rows, cols = np.nonzero(valid)
    points = back_project(cols, rows, arr[rows, cols], intrinsics)
    return PointCloud(points=points, pixels=np.column_stack([cols, rows]))


@dataclass(frozen=True)
class Projection:
    """Result of projecting points through a pinhole camera.

    ``uv`` holds continuous pixel coordinates (NaN for points at or
    behind the camera). ``in_image`` means the point is in front of the
    camera and rounds to a pixel inside the image bounds.
    """

    uv: np.ndarray  # (N, 2) float
    in_front: np.ndarray  # (N,) bool, z > 0
    in_image: np.ndarray  # (N,) bool


def project(points, intrinsics: CameraIntrinsics) -> Projection:
    """Project camera-frame points to pixel coordinates.

    Every point is divided once; the rows at or behind the camera
    (``z <= 0``) are then marked NaN.
    """
    pts = _as_points(points)
    z = pts[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.fx * pts[:, 0] / z + intrinsics.cx
        v = intrinsics.fy * pts[:, 1] / z + intrinsics.cy
    uv = np.stack((u, v), axis=1)
    uv[~in_front] = np.nan
    # Rounds-to-inside test under the pixel-center convention.
    in_image = in_front & (
        (u >= -0.5) & (u < intrinsics.width - 0.5)
        & (v >= -0.5) & (v < intrinsics.height - 0.5)
    )
    return Projection(uv=uv, in_front=in_front, in_image=in_image)


def sum_sq(components) -> np.ndarray:
    """Squared lengths of a batch of vectors, from its component arrays.

    Each component is squared in place and added into the first, which is
    returned: ``(dx*dx + dy*dy) + dz*dz``, the order of ``np.linalg.norm``,
    so the root equals that norm bit for bit. Each component is consumed
    before the next is drawn, so a generator may yield all after the
    first into one reused buffer.
    """
    parts = iter(components)
    acc = next(parts)
    acc *= acc
    for part in parts:
        part *= part
        acc += part
    return acc


def _pair_sq(block: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Squared distances of each ``block`` point to each ``others`` point, in ``(3, n)`` rows."""
    return sum_sq(block[:, :, None] - others[:, None, :])


def _far_box_sq(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Squared distance of the farthest points of boxes ``[lo_a, hi_a]`` and
    ``[lo_b, hi_b]`` in ``(3, ...)`` rows; a point is a box with ``lo == hi``."""
    return sum_sq(np.maximum(np.abs(hi_a - lo_b), np.abs(hi_b - lo_a)))


def _cell_grid(points: np.ndarray, edge: float):
    """Sort points by the integer key of their cubic cell.

    The cell edge is ``edge`` or, if larger, the points' largest
    bounding-box side over ``_GRID_CELLS``. Cell ``(i, j, k)`` spans
    ``origin + edge * ([i, j, k] - 3)`` to one edge more, so the grid of
    ``shape = (nx, ny, nz)`` cells keeps three empty cells on every side of
    the points. No coordinate exceeds ``_GRID_CELLS + 6``, and the key
    ``(i * ny + j) * nz + k`` fits in int64; cells along ``k`` have
    consecutive keys.

    Returns the permutation that sorts the points by key, the sorted keys,
    the start of each occupied cell in that order, and
    ``(origin, edge, shape)``.
    """
    cols = points.T.copy()  # a C-order copy: reductions run fastest along rows
    origin = cols.min(axis=1)
    edge = max(edge, float(np.max(cols.max(axis=1) - origin)) / _GRID_CELLS)
    cols -= origin[:, None]
    cols /= edge
    cells = np.floor(cols, out=cols).astype(np.int64)
    return _sorted_cells(cells, origin, edge)


def _sorted_cells(cells: np.ndarray, origin: np.ndarray, edge: float):
    """The return of ``_cell_grid`` from the points' ``(3, n)`` integer cell
    coordinates, all ``>= 0``, at edge ``edge`` from ``origin``."""
    shape = cells.max(axis=1) + 7
    i, j, k = cells
    keys = i + 3
    keys *= shape[1]
    keys += j + 3
    keys *= shape[2]
    keys += k + 3
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return order, keys, starts, (origin, edge, shape)


def _diameter_cells(points: np.ndarray):
    """``_cell_grid`` of the coarsest edge ``extent / 2**level`` that puts at
    most ``_DIAMETER_CELL_POINTS`` points in an occupied cell on average, or
    of the finest edge when copies of points crowd every grid."""
    cols = points.T.copy()  # a C-order copy: reductions run fastest along rows
    origin = cols.min(axis=1)
    cols -= origin[:, None]
    extent = float(np.max(cols.max(axis=1)))
    if extent == 0.0:
        return _cell_grid(points, 1.0)
    need = len(points) / _DIAMETER_CELL_POINTS
    finest = _GRID_CELLS.bit_length() - 1
    coarse, fine = 0, finest
    # Edges differ by powers of two, which divide exactly, so a level's cell
    # coordinates are the finest ones shifted right by the levels between.
    cols /= extent / 2**finest
    cells = np.floor(cols, out=cols).astype(np.int64)
    # The cells of one level split those of the level before, so the count
    # of occupied cells only grows with the level: bisect on it.
    while coarse < fine:
        level = (coarse + fine) // 2
        i, j, k = cells >> (finest - level)
        bits = level + 1  # coordinates reach 2**level
        keys = np.sort((i << 2 * bits | j << bits) | k)
        if np.count_nonzero(np.diff(keys)) + 1 >= need:
            fine = level
        else:
            coarse = level + 1
    cells >>= finest - coarse
    return _sorted_cells(cells, origin, extent / 2**coarse)


def _max_pairwise_sq(points: np.ndarray) -> float:
    """Largest squared pairwise distance, by an exact pruned search.

    Returns the same float as scoring all pairs with ``_pair_sq``:

    1. Farthest-point sweeps from the first point score real pairs and
       give a lower bound ``best``.
    2. A point ``p`` at distance ``r_p`` from the cloud's mean ``c`` is
       kept only if ``(r_p + r_max)**2`` can reach ``best``. As
       ``|p - q| <= |p - c| + |q - c|`` for any float point ``c``, both
       points of the farthest pair are kept. Below
       ``_DIAMETER_CENTROID_FLOOR`` every point is kept.
    3. The occupied cells of a uniform grid (``_diameter_cells``, about
       ``_DIAMETER_CELL_POINTS`` points per cell) split the kept points
       into spatially coherent blocks with bounding boxes, held in cell
       order as ``(3, n)`` coordinate rows.
    4. For each cell, only the cell itself and the cells after it whose
       box can reach ``best`` (``_far_box_sq``) are searched. Their
       points are kept if their bound to the cell's box can reach
       ``best``, and the cell's points if theirs to the kept points' box
       can. Bounds and ``best`` carry a 1e-12 relative margin on either
       side, far above the rounding of any formula here, so every pair
       that can score the maximum survives.
    5. Surviving pairs are scored with ``_pair_sq``, at most 2M pair
       entries at a time, so memory stays bounded on any cloud.

    The result is the largest ``_pair_sq`` over the surviving pairs, so
    any partition of the cloud gives the same float.
    """
    rows = points.T.copy()  # (3, n) rows: sums run along rows
    best, far = 0.0, 0
    for _ in range(_DIAMETER_SWEEPS):
        sq = _pair_sq(rows[:, far : far + 1], rows)[0]
        far = int(np.argmax(sq))
        best = max(best, float(sq[far]))

    def reaches(bound):
        return bound * (1.0 + _DIAMETER_MARGIN) >= best * (1.0 - _DIAMETER_MARGIN)

    if best >= _DIAMETER_CENTROID_FLOOR:
        r = np.sqrt(sum_sq(rows - rows.mean(axis=1, keepdims=True)))
        points = points[reaches((r + r.max()) ** 2)]
    perm, _, starts, _ = _diameter_cells(points)
    order = np.take(points.T, perm, axis=1)
    ends = np.append(starts[1:], len(points))
    lo = np.minimum.reduceat(order, starts, axis=1)
    hi = np.maximum.reduceat(order, starts, axis=1)
    cell_of = np.repeat(np.arange(len(starts)), ends - starts)
    for a in range(len(starts)):
        lo_a, hi_a = lo[:, a, None], hi[:, a, None]
        cells = np.zeros(len(starts), dtype=bool)
        cells[a:] = reaches(_far_box_sq(lo_a, hi_a, lo[:, a:], hi[:, a:]))
        if not cells.any():
            continue
        cand = order[:, cells[cell_of]]
        cand = cand[:, reaches(_far_box_sq(lo_a, hi_a, cand, cand))]
        if cand.shape[1] == 0:
            continue
        block = order[:, starts[a] : ends[a]]
        if np.array_equal(lo_a, hi_a):
            block = block[:, :1]  # a cell of copies of one point
        box = cand.min(axis=1, keepdims=True), cand.max(axis=1, keepdims=True)
        block = block[:, reaches(_far_box_sq(block, block, *box))]
        if block.shape[1] == 0:
            continue
        step = max(1, _DIAMETER_PAIR_ENTRIES // block.shape[1])
        for start in range(0, cand.shape[1], step):
            best = max(best, float(_pair_sq(block, cand[:, start : start + step]).max()))
    return best


@functools.lru_cache(maxsize=_DIAMETER_MEMO_ENTRIES)
def _memo_max_pairwise_sq(shape: tuple, data: bytes) -> float:
    """``_max_pairwise_sq`` of the float64 cloud with these C-order bytes."""
    return _max_pairwise_sq(np.frombuffer(data).reshape(shape))


def diameter(points) -> float:
    """Exact largest pairwise distance of a point set.

    The pruned search of ``_max_pairwise_sq`` runs on the whole cloud, at
    any size and with bounded memory, and returns the float that scoring
    every pair by brute force gives. The result is memoised by the exact
    float64 content of the cloud, for the last ``_DIAMETER_MEMO_ENTRIES``
    clouds, so a copy, a view or a float32 cloud with the same values
    reuses one search, and a cloud that differs in any bit runs its own.
    Threads share the memo, and callers of a cloud that is being searched
    wait for its entry. The points are checked by :func:`as_coordinates`,
    so no squared distance overflows.
    """
    pts = as_coordinates(points, "points")
    if len(pts) < 2:
        raise ValueError("diameter requires at least 2 points")
    with _DIAMETER_MEMO_LOCK:
        sq = _memo_max_pairwise_sq(pts.shape, pts.tobytes())
    return float(np.sqrt(sq))


def nearest_within(reference, queries, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Distance to, and index of, each query's nearest reference point
    within ``radius``.

    A query with no reference point at distance ``<= radius`` gets ``inf``
    and index -1. Each distance is the root of :func:`sum_sq`, and among
    exact ties the lowest reference index wins.

    The reference points are sorted into cells of edge a little over
    ``radius`` (``_cell_grid``), so every point within the radius of a
    query lies in the 27 cells around the query's cell: 9 runs of 3
    consecutive keys, each a slice of the sorted points. Queries are
    sorted by cell, so the keys looked up ascend, and run in blocks with
    at most ``_RADIUS_ENTRIES`` candidates scored at once, so memory stays
    bounded on any cloud.
    """
    ref = _as_points(reference, "reference")
    qs = _as_points(queries, "queries")
    if not 0 < radius < np.inf:
        raise ValueError("radius must be finite and positive")
    dist = np.full(len(qs), np.inf)
    idx = np.full(len(qs), -1, dtype=np.int64)
    if len(ref) == 0 or len(qs) == 0:
        return dist, idx
    order, keys, starts, (origin, edge, shape) = _cell_grid(
        ref, radius * (1.0 + _RADIUS_MARGIN)
    )
    rcols = np.take(ref.T, order, axis=1)
    # Occupied cells with three sentinels past the last, and their bounds.
    cell_keys = np.concatenate([keys[starts], np.full(3, np.iinfo(np.int64).max)])
    bounds = np.concatenate([starts, [len(ref)]])
    _, ny, nz = (int(v) for v in shape)

    # Each query's cell, clipped into the grid's margin: the cells around a
    # clipped query have keys and hold no point, as no point lies within
    # the radius of a query that far out. Then the queries in key order.
    cell = qs.T - origin[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        cell /= edge
    cell += 3
    np.floor(cell, out=cell)
    ci, cj, ck = np.clip(cell, 1, shape[:, None] - 2, out=cell).astype(np.int64)
    qkey = (ci * ny + cj) * nz + ck
    qorder = np.argsort(qkey)
    qkey = qkey[qorder]
    qcols = np.take(qs.T, qorder, axis=1)
    # The lowest key of each of the 9 runs of 3 cells around a cell.
    columns = np.array([(di * ny + dj) * nz - 1 for di in (-1, 0, 1) for dj in (-1, 0, 1)])
    # Per query in key order: the nearest distance so far and its index.
    best = np.full(len(qs), np.inf)
    nearest = np.full(len(qs), len(ref))

    per_block = max(1, _RADIUS_ENTRIES // 9)
    for q0 in range(0, len(qs), per_block):
        # Row by row, the keys looked up ascend. A run's occupied cells
        # are the (at most 3) that follow the first at or after its key.
        key = qkey[q0 : q0 + per_block] + columns[:, None]  # (run, query)
        run_query = np.broadcast_to(np.arange(q0, q0 + key.shape[1]), key.shape).ravel()
        first = np.searchsorted(cell_keys, key).ravel()
        key = key.ravel()
        key += 2  # each run's highest key
        last = first + (cell_keys[first] <= key)
        last += cell_keys[1:][first] <= key
        last += cell_keys[2:][first] <= key
        run_count = bounds[last]
        shift = bounds[first]
        run_count -= shift
        end = np.cumsum(run_count)
        shift -= end
        shift += run_count  # sorted position minus entry number
        for e0 in range(0, int(end[-1]), _RADIUS_ENTRIES):
            e1 = min(e0 + _RADIUS_ENTRIES, int(end[-1]))
            ra = int(np.searchsorted(end, e0, side="right"))
            rb = int(np.searchsorted(end, e1 - 1, side="right")) + 1
            taken = run_count[ra:rb].copy()
            taken[0] -= e0 - (end[ra] - run_count[ra])  # entries before the chunk
            taken[-1] -= end[rb - 1] - e1  # and after it
            pos = np.repeat(shift[ra:rb], taken)
            pos += np.arange(e0, e1)
            owner = np.repeat(run_query[ra:rb], taken)
            diff = np.take(rcols, pos, axis=1)
            diff -= np.take(qcols, owner, axis=1)
            dd = np.sqrt(sum_sq(diff))
            near = np.flatnonzero(dd <= radius)
            owner, dd, cand = owner[near], dd[near], order[pos[near]]
            before = best[owner]
            np.minimum.at(best, owner, dd)
            # A query whose distance dropped forgets its earlier index; the
            # lowest index at the nearest distance wins.
            nearest[owner[best[owner] < before]] = len(ref)
            at_best = dd == best[owner]
            np.minimum.at(nearest, owner[at_best], cand[at_best])
    dist[qorder] = best
    idx[qorder] = np.where(best <= radius, nearest, -1)
    return dist, idx


@dataclass(frozen=True)
class ObjectModel:
    """Surface point samples of one object, in its own frame.

    ``symmetries`` lists rigid transforms mapping the object onto itself;
    the identity is always a member. ``diameter_m`` must equal the exact
    largest pairwise point distance (checked at construction). ``points``
    is a read-only copy, so the checked diameter stays true.
    """

    points: np.ndarray  # (N, 3)
    diameter_m: float
    symmetries: tuple[Pose, ...] = field(default_factory=lambda: (Pose.identity(),))

    def __post_init__(self):
        pts = _as_points(self.points, "model points").copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "symmetries", tuple(self.symmetries))
        if len(self.symmetries) == 0:
            raise ValueError("symmetry list must not be empty")
        has_identity = any(
            np.max(np.abs(s.rotation - np.eye(3))) <= ORTHONORMALITY_TOL
            and np.max(np.abs(s.translation)) <= ORTHONORMALITY_TOL
            for s in self.symmetries
        )
        if not has_identity:
            raise ValueError("symmetry list must include the identity")
        actual = diameter(pts)
        if not abs(actual - self.diameter_m) <= 1e-9:  # NaN fails the comparison
            raise ValueError(
                f"declared diameter {self.diameter_m!r} differs from the "
                f"exact pairwise maximum {actual!r}"
            )

    @classmethod
    def from_points(cls, points, symmetries=None) -> "ObjectModel":
        """Build a model, computing the diameter from the points."""
        pts = _as_points(points, "model points")
        syms = (Pose.identity(),) if symmetries is None else tuple(symmetries)
        return cls(points=pts, diameter_m=diameter(pts), symmetries=syms)

    @property
    def is_symmetric(self) -> bool:
        """True when any non-identity symmetry is declared."""
        return len(self.symmetries) > 1
