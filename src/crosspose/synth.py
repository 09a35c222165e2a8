"""Synthetic scenes with ground truth known by construction.

Everything downstream (match generation, matching, registration,
metrics) is validated against fixtures built here: analytic shapes with
declared symmetry groups, z-buffered depth renders with per-pixel model
point indices, co-visibility match oracles, and descriptor fields whose
correct correspondence is the model point identity.

Two renderer properties keep oracles exact:

* the winning point of each pixel is stored through its depth, so
  re-unprojecting the depth map reproduces the visible surface on the
  pixel-center rays exactly;
* depth values are quantized to integer millimeters at render time,
  matching the on-disk depth format, so the in-memory scene and its
  file round-trip are bit-identical.

Symmetric models are built by orbit completion: base points are
replicated under the declared finite rotation group, so every declared
symmetry maps the cloud onto itself to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    ObjectModel,
    PointCloud,
    Pose,
    as_depth,
    relative_pose,
    unproject,
)
from .matcher import Correspondences
from .matchgen import GtPair
from .render import splat_depth

_STREAM_POINT_DESC = 0
_STREAM_BACKGROUND_A = 1
_STREAM_BACKGROUND_Q = 2
_STREAM_NOISE = 3
_STREAM_OUTLIERS = 4


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed turn about ``axis``."""
    ax = np.asarray(axis, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(ax)
    if norm == 0:
        raise ValueError("axis must be non-zero")
    x, y, z = ax / norm
    c, s = math.cos(angle), math.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix (via a random unit quaternion)."""
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    w, x, y, z = quat
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_pose(rng: np.random.Generator, max_translation: float = 0.5) -> Pose:
    """Uniformly random rotation with a uniform box translation."""
    t = rng.uniform(-max_translation, max_translation, size=3)
    return Pose(random_rotation(rng), t)


def cyclic_symmetries(order: int, axis=(0.0, 0.0, 1.0)) -> tuple[Pose, ...]:
    """The cyclic rotation group of the given order about an axis.

    Order 1 is just the identity. The group is closed under
    composition, which downstream symmetry-invariance guarantees rely
    on.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    poses = [Pose.identity()]
    for k in range(1, order):
        poses.append(Pose(rotation_about_axis(axis, 2.0 * math.pi * k / order), np.zeros(3)))
    return tuple(poses)


def _orbit_complete(base: np.ndarray, symmetries: tuple[Pose, ...]) -> np.ndarray:
    return np.concatenate([s.apply(base) for s in symmetries], axis=0)


def _sphere_points(rng, n: int, radius: float) -> np.ndarray:
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return radius * d


def _box_points(rng, n: int, size) -> np.ndarray:
    a, b, c = (float(v) for v in size)
    half = np.array([a, b, c]) / 2.0
    # The 8 corners pin the exact diagonal diameter sqrt(a^2+b^2+c^2).
    corners = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    ) * half
    n_fill = max(n - len(corners), 0)
    pts = rng.uniform(-1.0, 1.0, size=(n_fill, 3)) * half
    # Push each fill point onto a random face to sample the surface.
    face_axis = rng.integers(0, 3, size=n_fill)
    face_sign = rng.choice([-1.0, 1.0], size=n_fill)
    pts[np.arange(n_fill), face_axis] = face_sign * half[face_axis]
    return np.concatenate([corners, pts], axis=0)


def _cylinder_points(rng, n: int, size) -> np.ndarray:
    radius, height = (float(v) for v in size)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    z = rng.uniform(-height / 2.0, height / 2.0, size=n)
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    # Put a third of the points on the caps.
    n_cap = n // 3
    r_cap = radius * np.sqrt(rng.random(n_cap))
    th_cap = rng.uniform(0.0, 2.0 * math.pi, size=n_cap)
    cap_z = rng.choice([-height / 2.0, height / 2.0], size=n_cap)
    pts[:n_cap] = np.column_stack(
        [r_cap * np.cos(th_cap), r_cap * np.sin(th_cap), cap_z]
    )
    return pts


def _blob_points(rng, n: int, scale: float) -> np.ndarray:
    return rng.normal(scale=scale, size=(n, 3))


def make_model(
    kind: str,
    n_points: int = 512,
    size=0.05,
    cyclic_order: int = 1,
    symmetry_axis=(0.0, 0.0, 1.0),
    seed: int = 0,
) -> ObjectModel:
    """Sample a synthetic object surface with a declared symmetry group.

    Kinds: ``sphere`` (size = radius), ``box`` (size = (a, b, c) or a
    scalar for a cube; corners always present so the diagonal diameter
    is exact), ``cylinder`` (size = (radius, height) or a scalar for
    radius = size/2, height = size), ``blob`` (size = Gaussian scale).
    With ``cyclic_order > 1`` the cloud is orbit-completed under the
    cyclic group about ``symmetry_axis`` and that group is declared as
    the model's symmetries.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    rng = np.random.default_rng(seed)
    symmetries = cyclic_symmetries(cyclic_order, symmetry_axis)
    n_base = max(2, -(-n_points // len(symmetries)))  # ceil division

    if kind == "sphere":
        base = _sphere_points(rng, n_base, float(size))
    elif kind == "box":
        dims = (size, size, size) if np.isscalar(size) else size
        base = _box_points(rng, n_base, dims)
    elif kind == "cylinder":
        dims = (float(size) / 2.0, float(size)) if np.isscalar(size) else size
        base = _cylinder_points(rng, n_base, dims)
    elif kind == "blob":
        base = _blob_points(rng, n_base, float(size))
    else:
        raise ValueError(f"unknown model kind: {kind!r}")

    points = _orbit_complete(base, symmetries) if len(symmetries) > 1 else base
    return ObjectModel.from_points(points, symmetries)


@dataclass(frozen=True)
class SynthScene:
    """One rendered view with its generation ground truth.

    ``depth`` includes the background; ``mask`` marks pixels where the
    model itself is visible; ``point_index`` holds the model point that
    won each masked pixel (-1 elsewhere).
    """

    model: ObjectModel
    pose: Pose
    camera: CameraIntrinsics
    depth: np.ndarray
    mask: np.ndarray
    point_index: np.ndarray

    def visible_cloud(self) -> PointCloud:
        """Camera-frame surface points, one per masked pixel."""
        return unproject(self.depth, self.camera, self.mask)


def _quantize_mm(depth: np.ndarray) -> np.ndarray:
    return np.round(depth * 1000.0) * 0.001


def render_scene(
    model: ObjectModel,
    pose: Pose,
    camera: CameraIntrinsics,
    background_depth=0.0,
) -> SynthScene:
    """Render the model over a background with per-pixel ground truth.

    ``background_depth`` is a scalar plane depth or a full (H, W) map;
    0 means free space. Model pixels survive only where the model is
    strictly nearer than the background. All depth values are quantized
    to integer millimeters (the on-disk unit), so writing and re-reading
    the scene is lossless.
    """
    if np.isscalar(background_depth):
        background = np.full((camera.height, camera.width), float(background_depth))
    else:
        background = as_depth(background_depth, camera).copy()
    background = _quantize_mm(background)

    raw_depth, index = splat_depth(pose.apply(model.points), camera)
    model_depth = _quantize_mm(raw_depth)

    free = background == 0
    visible = (model_depth > 0) & (free | (model_depth < background))
    depth = np.where(visible, model_depth, background)
    return SynthScene(
        model=model,
        pose=pose,
        camera=camera,
        depth=depth,
        mask=visible,
        point_index=np.where(visible, index, -1),
    )


def clutter_depth(
    camera: CameraIntrinsics,
    plane_depth: float,
    n_spheres: int,
    seed: int = 0,
    radius_range=(0.02, 0.05),
    points_per_sphere: int = 2000,
) -> np.ndarray:
    """A background plane with random occluder spheres splatted in."""
    if plane_depth <= 0:
        raise ValueError("plane_depth must be positive")
    background = np.full((camera.height, camera.width), float(plane_depth))
    rng = np.random.default_rng(seed)
    for _ in range(n_spheres):
        radius = rng.uniform(*radius_range)
        z = rng.uniform(0.3 * plane_depth, 0.9 * plane_depth)
        # Keep the center inside the frustum at its depth.
        u = rng.uniform(0.2, 0.8) * camera.width
        v = rng.uniform(0.2, 0.8) * camera.height
        center = np.array(
            [(u - camera.cx) * z / camera.fx, (v - camera.cy) * z / camera.fy, z]
        )
        pts = _sphere_points(rng, points_per_sphere, radius) + center
        depth, _ = splat_depth(pts, camera)
        hit = (depth > 0) & (depth < background)
        background[hit] = depth[hit]
    return background


def make_pair(
    model: ObjectModel,
    pose_a: Pose,
    pose_q: Pose,
    camera_a: CameraIntrinsics,
    camera_q: CameraIntrinsics | None = None,
    background_a=0.0,
    background_q=0.0,
) -> tuple[SynthScene, SynthScene, GtPair]:
    """Render two views and derive the co-visibility match oracle.

    The oracle pairs the pixels of every model point visible in both
    views (by point identity, not proximity), ordered by model point
    index. It is exact by construction and independent of any search
    radius.
    """
    camera_q = camera_a if camera_q is None else camera_q
    scene_a = render_scene(model, pose_a, camera_a, background_a)
    scene_q = render_scene(model, pose_q, camera_q, background_q)

    n = len(model.points)
    pix_a = np.full((n, 2), -1, dtype=np.int64)
    pix_q = np.full((n, 2), -1, dtype=np.int64)
    rows, cols = np.nonzero(scene_a.mask)
    pix_a[scene_a.point_index[rows, cols]] = np.column_stack([cols, rows])
    rows, cols = np.nonzero(scene_q.mask)
    pix_q[scene_q.point_index[rows, cols]] = np.column_stack([cols, rows])

    both = (pix_a[:, 0] >= 0) & (pix_q[:, 0] >= 0)
    oracle = GtPair(
        anchor=pix_a[both],
        query=pix_q[both],
        relative=relative_pose(pose_a, pose_q),
    )
    return scene_a, scene_q, oracle


def check_descriptor_params(dim: int, noise: float, outlier_fraction: float) -> None:
    """Raise ValueError unless :func:`make_descriptor_field` accepts these."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if not 0 <= noise < np.inf:
        raise ValueError("noise must be finite and non-negative")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must lie in [0, 1]")


def make_descriptor_field(
    scene_a: SynthScene,
    scene_q: SynthScene,
    dim: int = 32,
    noise: float = 0.0,
    outlier_fraction: float = 0.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-descriptor grids keyed by model point identity.

    Both grids live at image resolution, so the cell-to-pixel map is the
    identity. Object cells get the descriptor of the model point they
    render; background cells get independent random descriptors. With
    ``noise=0`` and ``outlier_fraction=0``, matched cells of co-visible
    points agree exactly. ``noise`` perturbs every cell before
    re-normalization; ``outlier_fraction`` replaces that share of
    query-side object cells with fresh random unit vectors.
    """
    check_descriptor_params(dim, noise, outlier_fraction)

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    n = len(scene_a.model.points)
    desc = unit(np.random.default_rng([seed, _STREAM_POINT_DESC]).normal(size=(n, dim)))

    fields = []
    for scene, stream in (
        (scene_a, _STREAM_BACKGROUND_A),
        (scene_q, _STREAM_BACKGROUND_Q),
    ):
        h, w = scene.depth.shape
        field = unit(np.random.default_rng([seed, stream]).normal(size=(h, w, dim)))
        field[scene.mask] = desc[scene.point_index[scene.mask]]
        fields.append(field)
    field_a, field_q = fields

    if noise > 0:
        rng = np.random.default_rng([seed, _STREAM_NOISE])
        field_a = unit(field_a + noise * rng.normal(size=field_a.shape))
        field_q = unit(field_q + noise * rng.normal(size=field_q.shape))

    if outlier_fraction > 0:
        rng = np.random.default_rng([seed, _STREAM_OUTLIERS])
        rows, cols = np.nonzero(scene_q.mask)
        n_out = int(round(outlier_fraction * len(rows)))
        chosen = rng.permutation(len(rows))[:n_out]
        field_q[rows[chosen], cols[chosen]] = unit(
            rng.normal(size=(n_out, field_q.shape[2]))
        )
    return field_a, field_q


def make_correspondences(
    n_matches: int = 60,
    outlier_fraction: float = 0.3,
    noise: float = 0.002,
    seed: int = 0,
    extent: float = 0.1,
    pose: Pose | None = None,
) -> tuple[Correspondences, Pose]:
    """Synthetic 3D correspondences for registration Monte-Carlo runs.

    Source points are uniform in a cube of side ``extent``; targets are
    the posed sources plus isotropic Gaussian noise. A fixed share of
    targets, chosen deterministically, is replaced by uniform points in
    a tripled box around the target cloud (gross outliers). Returns the
    correspondences and the true pose.
    """
    if n_matches < 3:
        raise ValueError("n_matches must be at least 3")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    true_pose = random_pose(rng) if pose is None else pose

    src = rng.uniform(-extent / 2.0, extent / 2.0, size=(n_matches, 3))
    dst = true_pose.apply(src)
    if noise > 0:
        dst = dst + rng.normal(scale=noise, size=dst.shape)

    n_out = int(round(outlier_fraction * n_matches))
    if n_out > 0:
        which = rng.permutation(n_matches)[:n_out]
        center = dst.mean(axis=0)
        dst[which] = center + rng.uniform(
            -1.5 * extent, 1.5 * extent, size=(n_out, 3)
        )
    return Correspondences(src, dst), true_pose
