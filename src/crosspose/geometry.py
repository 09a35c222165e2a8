"""Rigid transforms, pinhole cameras, and point-cloud primitives.

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

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateConfiguration

# A rotation must be orthonormal with det +1 to within this bound.
ORTHONORMALITY_TOL = 1e-9

# _max_pairwise_sq: farthest-point sweeps for the lower bound, kd-tree leaf
# size, relative margin on every bound, and pair entries scored at once.
_DIAMETER_SWEEPS = 4
_DIAMETER_LEAF_SIZE = 32
_DIAMETER_MARGIN = 1e-12
_DIAMETER_PAIR_ENTRIES = 2_000_000


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
        """Transform one point ``(3,)`` or a stack ``(N, 3)``."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape == (3,):
            return self.rotation @ pts + self.translation
        pts = _as_points(pts)
        return pts @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        """Return the 4x4 homogeneous matrix."""
        mat = np.eye(4)
        mat[:3, :3] = self.rotation
        mat[:3, 3] = self.translation
        return mat


def compose(a: Pose, b: Pose) -> Pose:
    """Return ``a * b`` (apply ``b`` first)."""
    return a.compose(b)


def inverse(pose: Pose) -> Pose:
    return pose.inverse()


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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def as_depth(depth, intrinsics: CameraIntrinsics | None = None) -> np.ndarray:
    """Validate a depth map: 2D, finite, non-negative, meters."""
    arr = np.asarray(depth, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"depth must be 2D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("depth contains non-finite values")
    if np.any(arr < 0):
        raise ValueError("depth contains negative values")
    if intrinsics is not None and arr.shape != (intrinsics.height, intrinsics.width):
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


@dataclass(frozen=True)
class PointCloud:
    """Points in meters, optionally with the source pixel of each point."""

    points: np.ndarray  # (N, 3)
    pixels: np.ndarray | None = None  # (N, 2) int, (u, v)

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        if self.pixels is not None:
            pix = np.asarray(self.pixels)
            if pix.shape != (len(pts), 2):
                raise ValueError(
                    f"pixels shape {pix.shape} does not match points ({len(pts)}, 2)"
                )
            object.__setattr__(self, "pixels", pix.astype(np.int64))

    def __len__(self) -> int:
        return len(self.points)


def back_project(u, v, z, intrinsics: CameraIntrinsics) -> np.ndarray:
    """3D points at depths ``z`` on the rays through pixels ``(u, v)``.

    Returns an ``(N, 3)`` array; the pinhole model is inverted as
    ``x = z * (u - cx) / fx`` and ``y = z * (v - cy) / fy``.
    """
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

    @property
    def num_behind(self) -> int:
        return int(np.count_nonzero(~self.in_front))


def project(points, intrinsics: CameraIntrinsics) -> Projection:
    """Project camera-frame points to pixel coordinates."""
    pts = _as_points(points)
    z = pts[:, 2]
    in_front = z > 0
    uv = np.full((len(pts), 2), np.nan)
    zf = z[in_front]
    u = intrinsics.fx * pts[in_front, 0] / zf + intrinsics.cx
    v = intrinsics.fy * pts[in_front, 1] / zf + intrinsics.cy
    uv[in_front, 0] = u
    uv[in_front, 1] = v
    # Rounds-to-inside test under the pixel-center convention.
    in_image = in_front.copy()
    in_image[in_front] = (
        (u >= -0.5) & (u < intrinsics.width - 0.5)
        & (v >= -0.5) & (v < intrinsics.height - 0.5)
    )
    return Projection(uv=uv, in_front=in_front, in_image=in_image)


def _pair_sq(block: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Squared distances of every ``block`` point to every ``others`` point."""
    diff = block[:, None, :] - others[None, :, :]
    return np.sum(diff * diff, axis=-1)


def _far_corner_sq(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance of each point to the farthest corner of a box.

    No point of the box ``[lo, hi]`` is farther from ``points[i]``.
    """
    return np.sum(np.maximum((points - lo) ** 2, (points - hi) ** 2), axis=-1)


def _max_pairwise_sq(points: np.ndarray) -> float:
    """Largest squared pairwise distance, by an exact pruned search.

    Returns the same float as scoring all pairs with ``_pair_sq``:

    1. Farthest-point sweeps from the first point score real pairs and
       give a lower bound ``best``.
    2. kd-tree leaves (at most ``_DIAMETER_LEAF_SIZE`` points, or copies
       of one point) split the cloud into spatially coherent blocks with
       bounding boxes.
    3. For each leaf, only the leaf itself and the leaves after it whose
       box can reach ``best`` (farthest box-to-box corners) are searched.
       Their points are kept if their farthest-corner distance to the
       leaf's box can reach ``best``, and the leaf's points if theirs to
       the kept points' box can. Bounds and ``best`` carry a 1e-12
       relative margin on either side, far above the rounding of either
       formula, so every pair that can score the maximum survives.
    4. Surviving pairs are scored with ``_pair_sq``, at most 2M pair
       entries at a time, so memory stays bounded on any cloud.
    """
    n = len(points)
    best, far = 0.0, 0
    for _ in range(_DIAMETER_SWEEPS):
        sq = _pair_sq(points[far : far + 1], points)[0]
        far = int(np.argmax(sq))
        best = max(best, float(sq[far]))

    tree = cKDTree(points, leafsize=_DIAMETER_LEAF_SIZE)
    order = points[tree.indices]
    starts, stack = [], [tree.tree]
    while stack:
        node = stack.pop()
        if node.split_dim == -1:  # a leaf
            starts.append(node.start_idx)
        else:
            stack += [node.lesser, node.greater]
    starts = np.unique(starts)
    ends = np.append(starts[1:], n)
    lo = np.minimum.reduceat(order, starts, axis=0)
    hi = np.maximum.reduceat(order, starts, axis=0)
    leaf_of = np.repeat(np.arange(len(starts)), ends - starts)

    def reaches(bound):
        return bound * (1.0 + _DIAMETER_MARGIN) >= best * (1.0 - _DIAMETER_MARGIN)

    for a in range(len(starts)):
        span = np.maximum(np.abs(hi[a] - lo[a:]), np.abs(hi[a:] - lo[a]))
        leaves = np.zeros(len(starts), dtype=bool)
        leaves[a:] = reaches(np.sum(span * span, axis=-1))
        if not leaves.any():
            continue
        cand = order[leaves[leaf_of]]
        cand = cand[reaches(_far_corner_sq(cand, lo[a], hi[a]))]
        if len(cand) == 0:
            continue
        block = order[starts[a] : ends[a]]
        if np.array_equal(lo[a], hi[a]):
            block = block[:1]  # only copies of one point outgrow a leaf
        block = block[reaches(_far_corner_sq(block, cand.min(axis=0), cand.max(axis=0)))]
        if len(block) == 0:
            continue
        step = max(1, _DIAMETER_PAIR_ENTRIES // len(block))
        for start in range(0, len(cand), step):
            best = max(best, float(_pair_sq(block, cand[start : start + step]).max()))
    return best


def diameter(points) -> float:
    """Exact largest pairwise distance of a point set.

    The pruned search of ``_max_pairwise_sq`` runs on the whole cloud, at
    any size and with bounded memory, and returns the float that scoring
    every pair by brute force gives.
    """
    pts = _as_points(points)
    if len(pts) < 2:
        raise ValueError("diameter requires at least 2 points")
    return float(np.sqrt(_max_pairwise_sq(pts)))


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
        if abs(actual - self.diameter_m) > 1e-9:
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
