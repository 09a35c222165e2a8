"""Symmetry-aware pose-error metrics and recall aggregation.

All comparisons take an estimated pose and a reference pose, both
mapping model-frame points into the same camera frame. Symmetric
objects declare a finite set of self-mappings; surface and projection
errors take the minimum over that set, so any declared symmetry of the
reference pose leaves scores unchanged.

Errors:

* surface (MSSD): worst 3D displacement between corresponding model
  points, minimized over symmetries.
* projection (MSPD): the same in projected pixel coordinates.
* visible-surface (VSD): fraction of pixels, within the union of the
  two visibility masks, where the rendered depth maps disagree by more
  than a misalignment tolerance or only one pose is visible at all.
  Visibility is estimated against the scene depth with an occlusion
  tolerance, so an estimate is not penalized where the object is
  genuinely hidden. Rendering is point-splat based; fidelity grows with
  model point density relative to image resolution.
* average distance (ADD): mean displacement of corresponding points,
  or mean closest-point distance for symmetric objects (ADD-S). A pose
  counts as correct when the error is strictly below one tenth of the
  object diameter.

Per-pair recalls average strict ``error < threshold`` indicators over a
threshold sweep; the headline score is the mean of the visible-surface,
surface, and projection recalls.

:func:`pair_report` scores the fixed protocol of the BOP Challenge 2020
(Hodaň et al.), held in module constants: ``VSD_TOLERANCE_FRACTIONS``,
the misalignment tolerance tau at 0.05 to 0.5 of the diameter;
``VSD_THRESHOLDS``, theta at 0.05 to 0.5; ``MSSD_FRACTIONS``, 0.05 to
0.5 of the diameter; ``MSPD_MULTIPLIERS``, 5r to 50r pixels with
r = width / ``MSPD_BASE_WIDTH``; and ``OCCLUSION_TOLERANCE``, delta =
15 mm. ADD(-S) counts at ``ADD_FRACTION``, one tenth of the diameter.
It poses the model once per pose and once per symmetry other than the
identity, and hands those read-only clouds to the four errors through
their keyword-only ``posed`` argument; called without it, each error
poses the model the same way. It also projects each of those clouds
once and carries the projections in the same ``posed`` object, for MSPD
and on to :func:`render.splat_depth` for both VSD renders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BehindCamera, DimensionMismatch, EmptyRender
from .geometry import (
    CameraIntrinsics, ObjectModel, Pose, Projection, as_depth, as_mask, project,
)
from .render import splat_depth, visibility

# 0.05, 0.10, ..., 0.50: the standard threshold sweep.
_TENTH_STEPS = tuple((i + 1) * 0.05 for i in range(10))
VSD_TOLERANCE_FRACTIONS = _TENTH_STEPS
VSD_THRESHOLDS = _TENTH_STEPS
MSSD_FRACTIONS = _TENTH_STEPS
MSPD_MULTIPLIERS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
MSPD_BASE_WIDTH = 640.0
OCCLUSION_TOLERANCE = 0.015  # meters
ADD_FRACTION = 0.1

# The scores of a report, in [0, 1], in the order of the eval table.
SCORES = ("ar", "vsd", "mssd", "mspd", "add", "miou")


class _Projected(NamedTuple):
    """The projections of the clouds of a :class:`_Posed`, field for field."""

    est: Projection
    refs: tuple
    true: Projection


class _Posed(NamedTuple):
    """The model points of one pair under its two poses, all read-only,
    and their projections by the pair's camera when the caller holds them."""

    est: np.ndarray  # pose_est
    refs: tuple  # pose_true after each declared symmetry, in order
    true: np.ndarray  # pose_true
    proj: _Projected | None = None


def _pose_model(model: ObjectModel, pose_true: Pose, pose_est: Pose) -> _Posed:
    """Pose the model once per pose and once per symmetry other than the
    identity.

    A symmetry that is exactly the identity (``rotation`` equal to
    ``eye(3)``, ``translation`` all zero) moves no point: a product with
    exact ones and zeros changes at most the sign of a zero coordinate,
    which no error sees. Its cloud is ``true`` itself.
    """

    def frozen(points: np.ndarray) -> np.ndarray:
        points.flags.writeable = False
        return points

    true = frozen(pose_true.apply(model.points))
    return _Posed(
        est=frozen(pose_est.apply(model.points)),
        refs=tuple(
            true
            if np.array_equal(sym.rotation, np.eye(3)) and not sym.translation.any()
            else frozen(pose_true.apply(sym.apply(model.points)))
            for sym in model.symmetries
        ),
        true=true,
    )


def _project_posed(posed: _Posed, intrinsics: CameraIntrinsics) -> _Projected:
    """Project each distinct cloud of ``posed`` once: a reference that is
    ``true`` itself takes the projection of ``true``."""
    true = project(posed.true, intrinsics)
    return _Projected(
        est=project(posed.est, intrinsics),
        refs=tuple(
            true if ref is posed.true else project(ref, intrinsics) for ref in posed.refs
        ),
        true=true,
    )


def mssd_error(
    model: ObjectModel, pose_true: Pose, pose_est: Pose, *, posed: _Posed | None = None
) -> float:
    """Worst 3D displacement over corresponding points, min over symmetries."""
    if posed is None:
        posed = _pose_model(model, pose_true, pose_est)
    best = math.inf
    for ref in posed.refs:
        err = float(np.linalg.norm(posed.est - ref, axis=1).max())
        best = min(best, err)
    return best


def mspd_error(
    model: ObjectModel,
    pose_true: Pose,
    pose_est: Pose,
    intrinsics: CameraIntrinsics,
    *,
    posed: _Posed | None = None,
) -> float:
    """Worst projected displacement in pixels, min over symmetries.

    Points behind the camera under either pose are excluded; a warning
    counts those left out of the symmetry whose error is returned. If
    every point of every symmetry is excluded the metric is undefined and
    BehindCamera is raised.
    """
    if posed is None:
        posed = _pose_model(model, pose_true, pose_est)
    projected = posed.proj
    if projected is None:
        projected = _project_posed(posed, intrinsics)
    proj_est = projected.est
    best = math.inf
    excluded = 0
    for proj_ref in projected.refs:
        valid = proj_est.in_front & proj_ref.in_front
        if not np.any(valid):
            continue
        dist = np.linalg.norm(proj_est.uv - proj_ref.uv, axis=1)
        err = float(dist.max(where=valid, initial=-math.inf))
        if err < best:
            best, excluded = err, len(valid) - int(np.count_nonzero(valid))
    if not math.isfinite(best):
        raise BehindCamera("every model point is behind the camera")
    if excluded:
        warnings.warn(
            f"projection metric excluded {excluded} behind-camera point(s)",
            stacklevel=2,
        )
    return best


def add_error(
    model: ObjectModel, pose_true: Pose, pose_est: Pose, *, posed: _Posed | None = None
) -> float:
    """Mean displacement (ADD), or mean closest-point distance (ADD-S).

    ADD-S scores exactly the models that declare a non-identity symmetry.
    It alone needs a nearest point at any distance, so scipy loads only here.
    """
    if posed is None:
        posed = _pose_model(model, pose_true, pose_est)
    if model.is_symmetric:
        from scipy.spatial import cKDTree

        return float(np.mean(cKDTree(posed.true).query(posed.est)[0]))
    return float(np.mean(np.linalg.norm(posed.est - posed.true, axis=1)))


@dataclass(frozen=True)
class AddResult:
    error: float
    threshold: float
    success: bool


def add_result(
    model: ObjectModel, pose_true: Pose, pose_est: Pose, *, posed: _Posed | None = None
) -> AddResult:
    """ADD(-S) error plus the strict diameter-fraction success test."""
    err = add_error(model, pose_true, pose_est, posed=posed)
    threshold = ADD_FRACTION * model.diameter_m
    return AddResult(error=err, threshold=threshold, success=err < threshold)


def vsd_error_set(
    model: ObjectModel,
    pose_true: Pose,
    pose_est: Pose,
    scene_depth,
    intrinsics: CameraIntrinsics,
    misalignment_tolerances,
    *,
    posed: _Posed | None = None,
) -> np.ndarray:
    """Visible-surface error at several misalignment tolerances.

    Renders once and sweeps the tolerances, which keeps recall loops
    cheap. Raises EmptyRender when neither pose is visible at all.
    """
    tols = np.asarray(misalignment_tolerances, dtype=np.float64).reshape(-1)
    if len(tols) == 0 or not np.all(tols > 0):
        raise ValueError("misalignment tolerances must be non-empty and positive")
    scene = as_depth(scene_depth, intrinsics)
    if posed is None:
        posed = _pose_model(model, pose_true, pose_est)

    proj_true = proj_est = None
    if posed.proj is not None:
        proj_true, proj_est = posed.proj.true, posed.proj.est
    d_true, _ = splat_depth(posed.true, intrinsics, projection=proj_true)
    d_est, _ = splat_depth(posed.est, intrinsics, projection=proj_est)

    visib_true = visibility(d_true, scene, OCCLUSION_TOLERANCE)
    visib_est = visibility(d_est, scene, OCCLUSION_TOLERANCE)
    # Where the reference object is visible, an estimate landing on the
    # same pixel competes there even if something occludes it.
    visib_est |= visib_true & (d_est > 0)

    union = visib_true | visib_est
    n_union = int(np.count_nonzero(union))
    if n_union == 0:
        raise EmptyRender("no model point is visible under either pose")

    one_sided = union & ~(visib_true & visib_est)
    diff = np.abs(d_true - d_est)
    errors = np.empty(len(tols))
    for i, tol in enumerate(tols):
        mismatch = one_sided | (union & (diff > tol))
        errors[i] = np.count_nonzero(mismatch) / n_union
    return errors


def recall_average(errors, thresholds) -> float:
    """Mean over thresholds of the fraction of errors strictly below.

    Fractions are exact ratios and the outer mean uses compensated
    summation, so the result is independent of input ordering.
    """
    errs = np.asarray(errors, dtype=np.float64).reshape(-1)
    thrs = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    if len(errs) == 0:
        raise ValueError("errors must be non-empty")
    if len(thrs) == 0:
        raise ValueError("thresholds must be non-empty")
    fractions = [float(np.count_nonzero(errs < t)) / len(errs) for t in thrs]
    return math.fsum(fractions) / len(thrs)


def miou(pred_mask, gt_mask) -> float:
    """Intersection over union of two masks; 1.0 when both are empty."""
    p = as_mask(pred_mask)
    g = np.asarray(gt_mask)
    if p.shape != g.shape:
        raise DimensionMismatch(
            f"mask shapes differ: {p.shape} vs {g.shape}"
        )
    g = g.astype(bool)
    union = int(np.count_nonzero(p | g))
    if union == 0:
        return 1.0
    return float(np.count_nonzero(p & g)) / union


@dataclass(frozen=True)
class MetricReport:
    """Per-pair scores, all in [0, 1].

    ``ar`` is not a constructor argument: it is always computed as
    exactly ``(vsd + mssd + mspd) / 3``, so the identity can never drift.
    """

    vsd: float
    mssd: float
    mspd: float
    ar: float = field(init=False)
    add: float
    miou: float
    mssd_error_m: float
    mspd_error_px: float
    add_error_m: float
    vsd_errors: tuple

    def __post_init__(self):
        object.__setattr__(self, "ar", (self.vsd + self.mssd + self.mspd) / 3.0)
        for name in SCORES:
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        object.__setattr__(self, "vsd_errors", tuple(float(v) for v in self.vsd_errors))

    def to_dict(self) -> dict:
        return asdict(self)


def pair_report(
    model: ObjectModel,
    pose_true: Pose,
    pose_est: Pose,
    scene_depth,
    intrinsics: CameraIntrinsics,
    pred_mask=None,
    gt_mask=None,
) -> MetricReport:
    """Evaluate one estimated pose against its reference.

    Scores follow the fixed BOP 2020 protocol of the module constants.
    Mask quality is 1.0 when no predicted mask is supplied, else its
    :func:`miou` against ``gt_mask``. The model is posed once per pose and
    once per symmetry other than the identity, and the four errors share
    those read-only clouds; MSPD and VSD share one projection of each.
    """
    d = model.diameter_m
    posed = _pose_model(model, pose_true, pose_est)
    posed = posed._replace(proj=_project_posed(posed, intrinsics))

    e_mssd = mssd_error(model, pose_true, pose_est, posed=posed)
    mssd_score = recall_average([e_mssd], [f * d for f in MSSD_FRACTIONS])

    e_mspd = mspd_error(model, pose_true, pose_est, intrinsics, posed=posed)
    px_unit = intrinsics.width / MSPD_BASE_WIDTH
    mspd_score = recall_average([e_mspd], [m * px_unit for m in MSPD_MULTIPLIERS])

    e_vsd = vsd_error_set(
        model,
        pose_true,
        pose_est,
        scene_depth,
        intrinsics,
        [f * d for f in VSD_TOLERANCE_FRACTIONS],
        posed=posed,
    )
    vsd_score = math.fsum(
        recall_average([e], VSD_THRESHOLDS) for e in e_vsd
    ) / len(e_vsd)

    add = add_result(model, pose_true, pose_est, posed=posed)

    mask_score = 1.0 if pred_mask is None else miou(pred_mask, gt_mask)

    return MetricReport(
        vsd=vsd_score,
        mssd=mssd_score,
        mspd=mspd_score,
        add=1.0 if add.success else 0.0,
        miou=mask_score,
        mssd_error_m=e_mssd,
        mspd_error_px=e_mspd,
        add_error_m=add.error,
        vsd_errors=tuple(e_vsd),
    )


def aggregate_reports(reports) -> dict:
    """Dataset means of per-pair scores.

    The aggregate ``ar`` is the mean of per-pair ``ar`` values. Means
    use compensated summation, so any aggregation order produces the
    same bytes.
    """
    reports = list(reports)
    if len(reports) == 0:
        raise ValueError("cannot aggregate zero reports")
    n = len(reports)
    means = {name: math.fsum(getattr(r, name) for r in reports) / n for name in SCORES}
    return {"count": n, **means}
