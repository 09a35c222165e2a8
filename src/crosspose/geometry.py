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
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateConfiguration

# A rotation must be orthonormal with det +1 to within this bound.
ORTHONORMALITY_TOL = 1e-9

# diameter() switches from all-pairs brute force to hull vertices above this.
_DIAMETER_BRUTE_FORCE_LIMIT = 10_000


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
    if np.any(in_front):
        zf = z[in_front]
        uv[in_front, 0] = intrinsics.fx * pts[in_front, 0] / zf + intrinsics.cx
        uv[in_front, 1] = intrinsics.fy * pts[in_front, 1] / zf + intrinsics.cy
    in_image = in_front.copy()
    if np.any(in_front):
        u = uv[in_front, 0]
        v = uv[in_front, 1]
        # Rounds-to-inside test under the pixel-center convention.
        inside = (u >= -0.5) & (u < intrinsics.width - 0.5)
        inside &= (v >= -0.5) & (v < intrinsics.height - 0.5)
        in_image[in_front] = inside
    return Projection(uv=uv, in_front=in_front, in_image=in_image)


def _max_pairwise_sq(points: np.ndarray) -> float:
    """Largest squared pairwise distance, chunked to bound memory."""
    best = 0.0
    n = len(points)
    chunk = max(1, min(n, 2_000_000 // max(n, 1) + 1))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        diff = block[:, None, :] - points[None, :, :]
        sq = np.sum(diff * diff, axis=-1)
        best = max(best, float(sq.max()))
    return best


def diameter(points) -> float:
    """Exact largest pairwise distance of a point set.

    Brute force up to 10^4 points; beyond that only convex-hull vertices
    are compared, which is still exact (the farthest pair lies on the
    hull). Degenerate clouds fall back to brute force.
    """
    pts = _as_points(points)
    if len(pts) < 2:
        raise ValueError("diameter requires at least 2 points")
    if len(pts) > _DIAMETER_BRUTE_FORCE_LIMIT:
        try:
            hull = ConvexHull(pts)
            pts = pts[hull.vertices]
        except QhullError:
            pass  # flat or collinear cloud: compare all pairs
    return float(np.sqrt(_max_pairwise_sq(pts)))


@dataclass(frozen=True)
class ObjectModel:
    """Surface point samples of one object, in its own frame.

    ``symmetries`` lists rigid transforms mapping the object onto itself;
    the identity is always a member. ``diameter_m`` must equal the exact
    largest pairwise point distance (checked at construction).
    """

    points: np.ndarray  # (N, 3)
    diameter_m: float
    symmetries: tuple[Pose, ...] = field(default_factory=lambda: (Pose.identity(),))

    def __post_init__(self):
        pts = _as_points(self.points, "model points")
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
