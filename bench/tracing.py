"""Timing spans around the public functions of the crosspose modules.

The traced benchmark run wraps functions from outside the package: a
wrapper replaces every binding a caller resolves, that is the global in
the defining module and every ``from ... import`` copy in the other
crosspose modules (``cli.match_features``, ``config.read_json`` and so
on). A binding the patcher missed therefore shows up as zero calls, not
as a fast layer.

Each span records its name, start, end, parent span, thread id and the
id of the stage run. Spans stay in memory; the stage child writes them
out once, when the stage ends. :func:`layer_metrics` turns the spans of
one round into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict


def _read_bytes(bound) -> dict:
    path = os.path.realpath(bound.arguments["path"])
    return {"path": path, "bytes": os.path.getsize(path)}


def _written_bytes(bound, result) -> dict:
    return _read_bytes(bound)


def _diameter(bound) -> dict:
    n = len(bound.arguments["points"])
    return {"pair_checks": n * n}


def _read_model(bound) -> dict:
    return {"model": os.path.realpath(bound.arguments["path"])}


def _splat(bound) -> dict:
    return {"points": len(bound.arguments["points_cam"])}


def _gt_matches(bound, result) -> dict:
    return {"matches": len(result)}


def _accept(bound, result) -> dict:
    return {"accepted": int(bool(result)), "checked": 1}


def _match_features(bound) -> dict:
    import numpy as np

    cells_a = int(np.count_nonzero(bound.arguments["mask_a"]))
    cells_q = int(np.count_nonzero(bound.arguments["mask_q"]))
    return {"cell_pairs": cells_a * cells_q}


def _lift(bound, result) -> dict:
    return {"matches_in": len(bound.arguments["matches"]), "lifted": len(result)}


def _compatibility(bound) -> dict:
    n = len(bound.arguments["src"])
    return {"entries": n * n}


def _register(bound, result) -> dict:
    n = len(bound.arguments["matches"])
    iterations = bound.arguments["params"].iterations
    return {
        "hypotheses": iterations,
        "residual_evals": iterations * n,
        "inliers": len(result.inliers),
        "lifted": n,
    }


def _symmetry_points(bound) -> dict:
    model = bound.arguments["model"]
    return {"symmetry_point_evals": len(model.symmetries) * len(model.points)}


def _samples(bound) -> dict:
    return {"samples": len(bound.arguments["anchor"])}


# (module, function) -> (span name, counter on the arguments, counter on
# the arguments and the result). Every other read_*/write_* of ``io``
# shares one span name per direction.
_IO_READS = ("read_json", "read_depth", "read_mask", "read_pose",
             "read_intrinsics", "read_features", "read_matches")
_IO_WRITES = ("write_json", "write_depth", "write_mask", "write_pose",
              "write_intrinsics", "write_features", "write_model", "write_matches")
LAYERS = {
    ("geometry", "diameter"): ("geometry.diameter", _diameter, None),
    ("io", "read_model"): ("io.read_model", _read_model, None),
    **{("io", f): ("io.read", _read_bytes, None) for f in _IO_READS},
    **{("io", f): ("io.write", None, _written_bytes) for f in _IO_WRITES},
    ("synth", "make_model"): ("synth.make_model", None, None),
    ("synth", "make_pair"): ("synth.make_pair", None, None),
    ("synth", "make_descriptor_field"): ("synth.make_descriptor_field", None, None),
    ("render", "splat_depth"): ("render.splat_depth", _splat, None),
    ("matchgen", "generate_gt_matches"): ("matchgen.generate_gt_matches", None, _gt_matches),
    ("matchgen", "accept_pair"): ("matchgen.accept_pair", None, _accept),
    ("matcher", "match_features"): ("matcher.match_features", _match_features, None),
    ("matcher", "lift_matches"): ("matcher.lift_matches", None, _lift),
    ("registration", "compatibility_scores"): (
        "registration.compatibility_scores", _compatibility, None),
    ("registration", "register_spatial_consistency"): (
        "registration.register_spatial_consistency", None, _register),
    ("registration", "kabsch"): ("registration.kabsch", None, None),
    ("metrics", "pair_report"): ("metrics.pair_report", None, None),
    ("metrics", "mssd_error"): ("metrics.mssd_error", _symmetry_points, None),
    ("metrics", "mspd_error"): ("metrics.mspd_error", _symmetry_points, None),
    ("metrics", "vsd_error_set"): ("metrics.vsd_error_set", None, None),
    ("metrics", "add_result"): ("metrics.add_result", None, None),
    ("losses", "positive_loss"): ("losses.positive_loss", _samples, None),
    ("losses", "hardest_negative_loss"): ("losses.hardest_negative_loss", None, None),
    ("losses", "dice_loss"): ("losses.dice_loss", None, None),
    ("config", "load_pairs"): ("config.load_pairs", None, None),
    ("cli", "cmd_synth"): ("cli.synth", None, None),
    ("cli", "cmd_gen_matches"): ("cli.gen_matches", None, None),
    ("cli", "cmd_register"): ("cli.register", None, None),
    ("cli", "cmd_eval"): ("cli.eval", None, None),
    ("cli", "cmd_losses"): ("cli.losses", None, None),
}


class Tracer:
    """Collects spans in memory for one stage run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # outermost span; parent of spans opened on pool threads

    def wrap(self, name: str, fn, before=None, after=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            if self._root is None:
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == span_id:
                    self._root = None
            counts = {}
            if before is not None or after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    counts.update(before(bound))
                if after is not None:
                    counts.update(after(bound, result))
            self.spans.append(
                [span_id, name, start, end, parent, threading.get_ident(),
                 self.run_id, counts]
            )
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every function in LAYERS."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "crosspose" or name.startswith("crosspose."))
        ]
        for (module_name, func_name), (span, before, after) in LAYERS.items():
            original = getattr(sys.modules[f"crosspose.{module_name}"], func_name)
            wrapped = self.wrap(span, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children[span_id], start, end)
        for span_id, _, start, end, *_ in spans
    }


def span_counts(stage_spans) -> dict[str, int]:
    """Span name -> number of spans, over every stage run given."""
    counts = defaultdict(int)
    for spans in stage_spans:
        for span in spans:
            counts[span[1]] += 1
    return dict(counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SELF_TIME_LAYERS = (
    "geometry.diameter", "io.read_model", "io.read", "io.write",
    "synth.make_model", "synth.make_pair", "synth.make_descriptor_field",
    "render.splat_depth", "matchgen.generate_gt_matches",
    "matcher.match_features", "matcher.lift_matches",
    "registration.compatibility_scores", "registration.register_spatial_consistency",
    "registration.kabsch", "metrics.pair_report", "metrics.mssd_error",
    "metrics.mspd_error", "metrics.vsd_error_set", "metrics.add_result",
    "losses.positive_loss", "losses.hardest_negative_loss", "losses.dice_loss",
    "config.load_pairs",
)
CLI_STAGES = ("synth", "gen_matches", "register", "eval", "losses")


def layer_metrics(stage_spans) -> dict[str, float]:
    """Per-layer metrics of one round, from the spans of its stage runs.

    ``stage_spans`` holds one span list per stage child. Self times and
    counts are summed over the round; ratios are formed from the sums.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    models = set()
    overlap_num = overlap_den = 0.0
    for spans in stage_spans:
        own = self_times(spans)
        by_id = {span[0]: span for span in spans}
        for span_id, name, start, end, parent, _, _, counts in spans:
            self_s[name] += own[span_id]
            calls[name] += 1
            # read_pose -> read_json on one path is one read of its bytes.
            same_file = parent in by_id and by_id[parent][7].get("path") == counts.get("path")
            for key, value in counts.items():
                if key == "model":
                    models.add(value)
                elif key == "path" or (key == "bytes" and same_file):
                    continue
                else:
                    sums[f"{name}.{key}"] += value
            if name == "cli.register":
                overlap_den += end - start
                overlap_num += sum(s[3] - s[2] for s in spans if s[4] == span_id)

    out = {f"{name}.s": self_s[name] for name in SELF_TIME_LAYERS}
    out["geometry.diameter.calls"] = calls["geometry.diameter"]
    out["geometry.diameter.pair_checks"] = sums["geometry.diameter.pair_checks"]
    out["io.read_model.calls"] = calls["io.read_model"]
    out["io.read_model.models_per_call"] = _ratio(len(models), calls["io.read_model"])
    out["io.read.bytes"] = sums["io.read.bytes"]
    out["io.write.bytes"] = sums["io.write.bytes"]
    out["render.splat_depth.points"] = sums["render.splat_depth.points"]
    out["matchgen.matches"] = sums["matchgen.generate_gt_matches.matches"]
    out["matchgen.accept_ratio"] = _ratio(
        sums["matchgen.accept_pair.accepted"], sums["matchgen.accept_pair.checked"])
    out["matcher.cell_pairs"] = sums["matcher.match_features.cell_pairs"]
    out["matcher.lift_ratio"] = _ratio(
        sums["matcher.lift_matches.lifted"], sums["matcher.lift_matches.matches_in"])
    out["registration.compatibility_entries"] = sums[
        "registration.compatibility_scores.entries"]
    reg = "registration.register_spatial_consistency"
    out["registration.hypotheses"] = sums[f"{reg}.hypotheses"]
    out["registration.residual_evals"] = sums[f"{reg}.residual_evals"]
    out["registration.inlier_ratio"] = _ratio(sums[f"{reg}.inliers"], sums[f"{reg}.lifted"])
    out["metrics.symmetry_point_evals"] = (
        sums["metrics.mssd_error.symmetry_point_evals"]
        + sums["metrics.mspd_error.symmetry_point_evals"])
    out["losses.samples"] = sums["losses.positive_loss.samples"]
    for stage in CLI_STAGES:
        out[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
    out["cli.register.overlap"] = _ratio(overlap_num, overlap_den)
    return out


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-key median over rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
