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
* depth values are quantized at render time as the on-disk depth
  format stores them (whole millimeters up to 65.535 m), so the
  in-memory scene and its file round-trip are bit-identical.

Symmetric models are built by orbit completion: base points are
replicated under the declared finite rotation group, so every declared
symmetry maps the cloud onto itself to float precision.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    ObjectModel,
    Pose,
    as_depth,
    relative_pose,
)
from .io import quantize_depth
from .matcher import Correspondences, row_norms, unit_rows
from .matchgen import GtPair
from .render import splat_depth, visibility

_STREAM_POINT_DESC = 0
_STREAM_BACKGROUND_A = 1
_STREAM_BACKGROUND_Q = 2
_STREAM_NOISE = 3
_STREAM_OUTLIERS = 4
# Image rows of noise drawn at a time into one reused buffer.
_NOISE_ROWS = 8

# Declared symmetries turn about the model's z axis.
_SYMMETRY_AXIS = (0.0, 0.0, 1.0)


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


def random_pose(rng: np.random.Generator) -> Pose:
    """Uniformly random rotation with a translation uniform in [-0.5, 0.5]^3 m."""
    t = rng.uniform(-0.5, 0.5, size=3)
    return Pose(random_rotation(rng), t)


def cyclic_symmetries(order: int) -> tuple[Pose, ...]:
    """The cyclic rotation group of the given order about the z axis.

    Order 1 is just the identity. The group is closed under
    composition, which downstream symmetry-invariance guarantees rely
    on.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    poses = [Pose.identity()]
    for k in range(1, order):
        poses.append(Pose(rotation_about_axis(_SYMMETRY_AXIS, 2.0 * math.pi * k / order), np.zeros(3)))
    return tuple(poses)


def _orbit_complete(base: np.ndarray, symmetries: tuple[Pose, ...]) -> np.ndarray:
    return np.concatenate([s.apply(base) for s in symmetries], axis=0)


def _sphere_points(rng, n: int, radius: float) -> np.ndarray:
    return radius * unit_rows(rng.normal(size=(n, 3)), "sphere directions")


def _box_points(rng, n: int, side: float) -> np.ndarray:
    half = np.full(3, side / 2.0)
    # The 8 corners pin the exact diagonal diameter sqrt(3) * side.
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


def _cylinder_points(rng, n: int, radius: float, height: float) -> np.ndarray:
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
    size: float = 0.05,
    cyclic_order: int = 1,
    seed: int = 0,
) -> ObjectModel:
    """Sample a synthetic object surface with a declared symmetry group.

    Kinds: ``sphere`` (size = radius), ``box`` (a cube of side size;
    corners always present so the diagonal diameter is exact),
    ``cylinder`` (radius = size / 2, height = size), ``blob`` (size =
    Gaussian scale).
    With ``cyclic_order > 1`` the cloud is orbit-completed under the
    cyclic group about the z axis, declared as the model's symmetries.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not 0 < size < np.inf:
        raise ValueError("size must be finite and positive")
    rng = np.random.default_rng(seed)
    symmetries = cyclic_symmetries(cyclic_order)
    n_base = max(2, -(-n_points // len(symmetries)))  # ceil division

    if kind == "sphere":
        base = _sphere_points(rng, n_base, size)
    elif kind == "box":
        base = _box_points(rng, n_base, size)
    elif kind == "cylinder":
        base = _cylinder_points(rng, n_base, size / 2.0, size)
    elif kind == "blob":
        base = _blob_points(rng, n_base, size)
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
    depth: np.ndarray
    mask: np.ndarray
    point_index: np.ndarray


def render_scene(
    model: ObjectModel,
    pose: Pose,
    camera: CameraIntrinsics,
    background_depth=0.0,
) -> SynthScene:
    """Render the model over a background with per-pixel ground truth.

    ``background_depth`` is a depth map that broadcasts to (H, W), such
    as a scalar plane depth or a full map; 0 means free space. Model
    pixels survive only where the model is strictly nearer than the
    background. All depth values are quantized as the on-disk depth
    format stores them (:func:`crosspose.io.quantize_depth`), so writing
    and re-reading the scene is lossless.
    """
    shape = (camera.height, camera.width)
    background = quantize_depth(as_depth(np.broadcast_to(background_depth, shape), camera))

    raw_depth, index = splat_depth(pose.apply(model.points), camera)
    model_depth = quantize_depth(raw_depth)

    visible = visibility(model_depth, background, 0.0)
    depth = np.where(visible, model_depth, background)
    return SynthScene(
        model=model,
        depth=depth,
        mask=visible,
        point_index=np.where(visible, index, -1),
    )


def make_pair(
    model: ObjectModel,
    pose_a: Pose,
    pose_q: Pose,
    camera: CameraIntrinsics,
    background=0.0,
) -> tuple[SynthScene, SynthScene, GtPair]:
    """Render two views and derive the co-visibility match oracle.

    Both views use one camera and one ``background`` (as in
    :func:`render_scene`). The oracle pairs the pixels of every model
    point visible in both views (by point identity, not proximity),
    ordered by model point index. It is exact by construction and
    independent of any search radius.
    """
    scene_a = render_scene(model, pose_a, camera, background)
    scene_q = render_scene(model, pose_q, camera, background)

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
    # Noise above about 1e153 overflows the squared norms of the noisy
    # descriptors; at noise 10 they are already random.
    if not 0 <= noise <= 1e100:
        raise ValueError("noise must lie in [0, 1e100]")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must lie in [0, 1]")


def make_descriptor_field(
    scene_a: SynthScene,
    scene_q: SynthScene,
    dim: int = 32,
    noise: float = 0.0,
    outlier_fraction: float = 0.0,
    seed: int = 0,
) -> Iterator[np.ndarray]:
    """Unit-descriptor grids keyed by model point identity.

    Both grids live at image resolution, so the cell-to-pixel map is the
    identity. Object cells get the descriptor of the model point they
    render; background cells get independent random descriptors. With
    ``noise=0`` and ``outlier_fraction=0``, matched cells of co-visible
    points agree exactly. ``noise`` perturbs every cell before
    re-normalization; ``outlier_fraction`` replaces that share of
    query-side object cells with fresh random unit vectors.

    The parameters are checked at the call. The two (H, W, dim) float64
    grids then come lazily, anchor first: the query's grid is built only
    when the anchor's is taken, so a caller that drops each grid before
    taking the next holds one grid at a time. The noise is drawn into
    one buffer of ``_NOISE_ROWS`` image rows, and each block of rows is
    perturbed and renormalized in place; the numbers are those of one
    full draw per grid.
    """
    check_descriptor_params(dim, noise, outlier_fraction)
    return _descriptor_fields(scene_a, scene_q, dim, noise, outlier_fraction, seed)


def _descriptor_fields(scene_a, scene_q, dim, noise, outlier_fraction, seed):
    n = len(scene_a.model.points)
    desc = np.random.default_rng([seed, _STREAM_POINT_DESC]).normal(size=(n, dim))
    desc /= row_norms(desc, "point descriptors")[:, None]
    # One noise stream runs through both grids, anchor first.
    noise_rng = np.random.default_rng([seed, _STREAM_NOISE])
    yield _view_field(scene_a, desc, [seed, _STREAM_BACKGROUND_A], noise, noise_rng)

    field_q = _view_field(scene_q, desc, [seed, _STREAM_BACKGROUND_Q], noise, noise_rng)
    if outlier_fraction > 0:
        rng = np.random.default_rng([seed, _STREAM_OUTLIERS])
        rows, cols = np.nonzero(scene_q.mask)
        n_out = int(round(outlier_fraction * len(rows)))
        chosen = rng.permutation(len(rows))[:n_out]
        field_q[rows[chosen], cols[chosen]] = unit_rows(
            rng.normal(size=(n_out, dim)), "outlier descriptors"
        )
    yield field_q


def _view_field(scene, desc, background_seed, noise, noise_rng) -> np.ndarray:
    """One view's unit-descriptor grid, perturbed by ``noise`` times the
    next draws of ``noise_rng``."""
    h, w = scene.depth.shape
    field = np.random.default_rng(background_seed).normal(size=(h, w, desc.shape[1]))
    field /= row_norms(field, "background descriptors")[..., None]
    field[scene.mask] = desc[scene.point_index[scene.mask]]
    if noise > 0:
        # noise * z + field, rounded as the out-of-place sum rounds it.
        buf = np.empty((min(_NOISE_ROWS, h), *field.shape[1:]))
        for top in range(0, h, _NOISE_ROWS):
            block = field[top : top + _NOISE_ROWS]
            z = buf[: len(block)]
            noise_rng.standard_normal(out=z)
            z *= noise
            block += z
            block /= row_norms(block, "noisy descriptors")[..., None]
    return field


def make_correspondences(
    n_matches: int = 60,
    outlier_fraction: float = 0.3,
    noise: float = 0.002,
    seed: int = 0,
    extent: float = 0.1,
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
    true_pose = random_pose(rng)

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
