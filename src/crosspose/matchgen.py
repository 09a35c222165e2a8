"""Ground-truth pixel correspondences between two views of one object.

Given depth, mask, intrinsics, and the object pose for an anchor view A
and a query view Q, the generator back-projects both masked depth maps,
carries the anchor cloud into the query frame with the relative pose
``T = pose_q * inverse(pose_a)``, and pairs each anchor point with its
nearest query point. Pairs farther apart than ``NN_RADIUS`` (2 mm) are
discarded; surviving pairs are reported through the source pixels
recorded at back-projection, so a consumer can re-unproject them and
reproduce the acceptance distances exactly.

Matching is one-directional (anchor to query), so several anchor pixels
may legitimately share one query pixel on oblique surfaces. A pair is
kept for training only with at least ``MIN_MATCHES`` correspondences.
Both values are module constants, so every caller follows one protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask
from .geometry import (
    CameraIntrinsics, Pose, as_rows, nearest_within, relative_pose, unproject,
)

NN_RADIUS = 0.002  # meters
MIN_MATCHES = 100


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
        a = as_rows(self.anchor, 2, np.int64, "anchor pixels")
        q = as_rows(self.query, 2, np.int64, "query pixels")
        if len(a) != len(q):
            raise ValueError(f"anchor/query counts differ: {len(a)} vs {len(q)}")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "query", q)

    def __len__(self) -> int:
        return len(self.anchor)


def generate_gt_matches(
    depth_a,
    depth_q,
    mask_a,
    mask_q,
    cam_a: CameraIntrinsics,
    cam_q: CameraIntrinsics,
    pose_a: Pose,
    pose_q: Pose,
) -> GtPair:
    """Generate ground-truth matches for one anchor/query scene pair.

    Raises EmptyMask when either masked cloud has no valid pixel.
    """
    cloud_a = unproject(depth_a, cam_a, mask_a)
    cloud_q = unproject(depth_q, cam_q, mask_q)
    if len(cloud_a) == 0:
        raise EmptyMask("anchor mask selects no valid depth pixels")
    if len(cloud_q) == 0:
        raise EmptyMask("query mask selects no valid depth pixels")

    rel = relative_pose(pose_a, pose_q)
    aligned = rel.apply(cloud_a.points)
    dist, idx = nearest_within(cloud_q.points, aligned, NN_RADIUS)
    keep = dist <= NN_RADIUS
    return GtPair(
        anchor=cloud_a.pixels[keep],
        query=cloud_q.pixels[idx[keep]],
        relative=rel,
    )


def accept_pair(pair: GtPair) -> bool:
    """Keep only pairs with at least ``MIN_MATCHES`` correspondences."""
    return len(pair) >= MIN_MATCHES
