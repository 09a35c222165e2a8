"""Self-tests of the benchmark, at a small size.

    python3 -m pytest bench

They check the benchmark, not crosspose: that the traced run reaches
every wrapped layer on every workload and leaves the outputs unchanged,
that ``register`` on the contaminated workload does not depend on the
worker count, that the output checks catch a broken report, and that
the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing


def small(name: str) -> run.Workload:
    """The workload's flags and worker counts on 2 pairs of a smaller model."""
    w = run.WORKLOADS[name]
    return dataclasses.replace(w, pairs=2, synth_flags=(*w.synth_flags, "--model-points", "1500"))


def test_self_time_subtracts_union_of_overlapping_children():
    # Parent 0..10 with two pool-thread children overlapping on 2..6 and 4..8,
    # and a grandchild inside the first child.
    spans = [
        [1, "p", 0.0, 10.0, None, 1, "r", {}],
        [2, "c", 2.0, 6.0, 1, 2, "r", {}],
        [3, "c", 4.0, 8.0, 1, 3, "r", {}],
        [4, "g", 3.0, 4.0, 2, 2, "r", {}],
    ]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def full_pass(w: run.Workload, seed: int, data, trace: bool) -> dict:
    data.parent.mkdir(parents=True, exist_ok=True)
    return run.run_pass(w, seed, data, run.STAGES, trace, "test", time.monotonic() + 170)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_pass_reaches_every_layer_and_keeps_outputs(name, tmp_path):
    w = small(name)
    plain = full_pass(w, 5, tmp_path / "plain" / "data", False)
    traced = full_pass(w, 5, tmp_path / "traced" / "data", True)
    assert plain["problems"] == [] and traced["problems"] == []

    seen = tracing.span_counts(run.pass_spans(traced))
    expected = {span for span, _, _ in tracing.LAYERS.values()}
    assert {span for span in expected if seen.get(span, 0) == 0} == set()
    assert traced["digests"] == plain["digests"]

    layers = tracing.layer_metrics(run.pass_spans(traced))
    assert layers["geometry.diameter.calls"] == 2 + w.pairs  # synth twice, eval per pair
    assert layers["io.read_model.models_per_call"] == 1 / w.pairs
    assert 0 < layers["registration.inlier_ratio"] <= 1


def test_contaminated_register_does_not_depend_on_workers(tmp_path):
    w = dataclasses.replace(small("contaminated"), pairs=3)
    assert w.register_workers == 2
    data = tmp_path / "data"
    assert full_pass(w, 9, data, False)["problems"] == []
    argv = run.stage_argv("register", dataclasses.replace(w, register_workers=1), 9, data)
    argv[argv.index("--out-dir") + 1] = str(data / "poses_one_worker")
    out = run.run_stage(argv, tmp_path / "one.result", "one", False, time.monotonic() + 170)
    assert out["rc"] == 0
    two = run.digests(data / "poses")
    assert len(two) == w.pairs + 1  # one pose file per pair plus summary.json
    assert run.digests(data / "poses_one_worker") == two


def test_output_check_rejects_broken_ar_identity(tmp_path):
    pair = {"ar": 0.5, "vsd": 0.25, "mssd": 0.5, "mspd": 0.75}
    (tmp_path / "report.json").write_text(
        json.dumps({"pairs": {"pair_0000": pair}, "aggregate": {"ar": 0.5}, "errors": {}}))
    problems, failed, quality = run.check_outputs(tmp_path, 1)
    assert not any("ar != " in p for p in problems)
    pair["ar"] = 0.5000001
    (tmp_path / "report.json").write_text(
        json.dumps({"pairs": {"pair_0000": pair}, "aggregate": {"ar": 0.5}, "errors": {}}))
    problems, failed, quality = run.check_outputs(tmp_path, 1)
    assert any("ar != " in p for p in problems)
    assert failed == 3 * 1  # the three missing summaries or reports count every pair


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tour", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
