"""Ground-truth pixel correspondences between two views of one object.

Given depth, mask, intrinsics, and the object pose for an anchor view A
and a query view Q, the generator back-projects both masked depth maps,
carries the anchor cloud into the query frame with the relative pose
``T = pose_q * inverse(pose_a)``, and pairs each anchor point with its
nearest query point. Pairs farther apart than ``nn_radius`` (default
2 mm) are discarded; surviving pairs are reported through the source
pixels recorded at back-projection, so a consumer can re-unproject them
and reproduce the acceptance distances exactly.

Matching is one-directional (anchor to query), so several anchor pixels
may legitimately share one query pixel on oblique surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyMask
from .geometry import CameraIntrinsics, Pose, relative_pose, unproject

DEFAULT_NN_RADIUS = 0.002  # meters
DEFAULT_MIN_MATCHES = 100


@dataclass(frozen=True)
class GtPair:
    """Pixel correspondences between an anchor and a query view.

    ``anchor`` and ``query`` are (M, 2) integer ``(u, v)`` arrays aligned
    index-wise; ``relative`` maps anchor-camera points onto query-camera
    points.
    """

    anchor: np.ndarray
    query: np.ndarray
    relative: Pose

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=np.int64).reshape(-1, 2)
        q = np.asarray(self.query, dtype=np.int64).reshape(-1, 2)
        if len(a) != len(q):
            raise ValueError(f"anchor/query counts differ: {len(a)} vs {len(q)}")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "query", q)

    def __len__(self) -> int:
        return len(self.anchor)


def nearest_neighbors(tree: cKDTree, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor of each point, ties broken by lowest index.

    A kd-tree already returns exact distances; this wrapper re-resolves
    only the (rare) exact-distance ties so the winner is always the
    lowest candidate index.
    """
    k = min(2, tree.n)
    dist, idx = tree.query(points, k=k)
    if k == 1:
        return np.atleast_1d(dist), np.atleast_1d(idx)
    tied = dist[:, 1] == dist[:, 0]
    best_idx = idx[:, 0].copy()
    for i in np.nonzero(tied)[0]:
        candidates = tree.query_ball_point(points[i], r=dist[i, 0])
        best_idx[i] = min(candidates)
    return dist[:, 0], best_idx


def generate_gt_matches(
    depth_a,
    depth_q,
    mask_a,
    mask_q,
    cam_a: CameraIntrinsics,
    cam_q: CameraIntrinsics,
    pose_a: Pose,
    pose_q: Pose,
    nn_radius: float = DEFAULT_NN_RADIUS,
) -> GtPair:
    """Generate ground-truth matches for one anchor/query scene pair.

    Raises EmptyMask when either masked cloud has no valid pixel.
    """
    if not 0 < nn_radius < np.inf:
        raise ValueError("nn_radius must be finite and positive")
    cloud_a = unproject(depth_a, cam_a, mask_a)
    cloud_q = unproject(depth_q, cam_q, mask_q)
    if len(cloud_a) == 0:
        raise EmptyMask("anchor mask selects no valid depth pixels")
    if len(cloud_q) == 0:
        raise EmptyMask("query mask selects no valid depth pixels")

    rel = relative_pose(pose_a, pose_q)
    aligned = rel.apply(cloud_a.points)
    dist, idx = nearest_neighbors(cKDTree(cloud_q.points), aligned)
    keep = dist <= nn_radius
    return GtPair(
        anchor=cloud_a.pixels[keep],
        query=cloud_q.pixels[idx[keep]],
        relative=rel,
    )


def accept_pair(pair: GtPair, min_matches: int = DEFAULT_MIN_MATCHES) -> bool:
    """Keep only pairs with at least ``min_matches`` correspondences."""
    if min_matches < 0:
        raise ValueError("min_matches must be non-negative")
    return len(pair) >= min_matches
