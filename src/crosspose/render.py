"""Z-buffered point-splat rendering of model point clouds.

Each camera-frame point is splatted onto the pixel whose center is
nearest to its projection. A contested pixel keeps the smallest depth,
then the lowest point index among the points at exactly that depth, so
renders are deterministic; two scatter-minimum passes find them, one per
key. The result is a depth map (0 where no point lands) plus the winning
point index per pixel (-1 where none).

Splat rendering approximates a surface render; its fidelity grows with
point density, so consumers that compare rendered depth maps should
sample models densely relative to the image resolution.
"""

from __future__ import annotations

import numpy as np

from .geometry import CameraIntrinsics, _as_points, project


def splat_depth(
    points_cam, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Render camera-frame points. Returns ``(depth, point_index)``."""
    pts = _as_points(points_cam)
    h, w = intrinsics.height, intrinsics.width
    proj = project(pts, intrinsics)
    visible = np.nonzero(proj.in_image)[0]
    uv = np.rint(proj.uv[visible]).astype(np.int64)
    z = pts[visible, 2]
    lin = uv[:, 1] * w + uv[:, 0]

    # Minima are exact and independent of scatter order.
    depth = np.full(h * w, np.inf)
    np.minimum.at(depth, lin, z)
    at_min = z == depth[lin]
    index = np.full(h * w, len(pts), dtype=np.int64)
    np.minimum.at(index, lin[at_min], visible[at_min])
    empty = index == len(pts)
    depth[empty] = 0.0
    index[empty] = -1
    return depth.reshape(h, w), index.reshape(h, w)


def visibility(rendered: np.ndarray, scene: np.ndarray, tolerance: float) -> np.ndarray:
    """Pixels where a rendered surface shows in front of a scene depth map.

    A rendered pixel (depth > 0) shows where the scene is free space
    (depth 0) or where it lies nearer than the scene depth plus
    ``tolerance``.
    """
    return (rendered > 0) & ((scene == 0) | (rendered < scene + tolerance))
