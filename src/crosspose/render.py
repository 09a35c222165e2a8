"""Z-buffered point-splat rendering of model point clouds.

Each camera-frame point is splatted onto the pixel whose center is
nearest to its projection; the smallest depth wins a contested pixel,
with exact-depth ties resolved by lowest point index so renders are
deterministic. The result is a depth map (0 where no point lands) plus
the winning point index per pixel (-1 where none).

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
    depth = np.zeros((h, w))
    index = np.full((h, w), -1, dtype=np.int64)

    proj = project(pts, intrinsics)
    visible = np.nonzero(proj.in_image)[0]
    uv = np.rint(proj.uv[visible]).astype(np.int64)
    z = pts[visible, 2]
    lin = uv[:, 1] * w + uv[:, 0]

    # One stable sort resolves both the z-buffer and index tie-breaking:
    # within a pixel the smallest depth comes first, then lowest index.
    order = np.lexsort((visible, z, lin))
    lin_sorted = lin[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = lin_sorted[1:] != lin_sorted[:-1]
    winners = order[first]

    rows, cols = lin[winners] // w, lin[winners] % w
    depth[rows, cols] = z[winners]
    index[rows, cols] = visible[winners]
    return depth, index


def visibility(rendered: np.ndarray, scene: np.ndarray, tolerance: float) -> np.ndarray:
    """Pixels where a rendered surface shows in front of a scene depth map.

    A rendered pixel (depth > 0) shows where the scene is free space
    (depth 0) or where it lies nearer than the scene depth plus
    ``tolerance``.
    """
    return (rendered > 0) & ((scene == 0) | (rendered < scene + tolerance))
