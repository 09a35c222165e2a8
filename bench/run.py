"""crosspose benchmark: the five CLI stages on seeded synthetic workloads.

    python3 bench/run.py --workload tour --seed 1 --seconds 35 --trace 0

Run from the repository root. Every stage runs in a fresh child process
(``stage.py``) that times ``crosspose.cli.main`` after its own imports;
what a stage run costs beyond that call (interpreter start, imports) is
its set-up time. A run first builds two datasets, one from ``--seed``
and one from a second seed derived from it, each with a full pass of
``synth``, ``gen-matches``, ``register``, ``eval`` and ``losses``. Until
``--seconds`` are spent it then re-runs every stage but the dearest in
place, alternating datasets; stages shorter than ``SHORT_STAGE_S`` run
three times in each such pass. A stage time is the median over all its
runs, each scaled to a nominal host speed by a reference kernel timed
around it (see ``steady_s``); set-up time is the sum over stages of the
median set-up of each, in plain seconds.

Every pass is checked: each stage exits 0, no summary or report lists
a failed pair, every evaluated pair satisfies
``ar == (vsd + mssd + mspd) / 3``, and the SHA-256 of every file in the
dataset equals that after the dataset's first pass, and that of any
earlier run of the same code and seed in this checkout.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics. With ``--trace 1`` one untraced pass on the first
seed is followed by traced passes re-running it, and the last line holds
the per-layer metrics (see ``tracing.py``). The full record of the run,
with its environment block, is written under ``.bench_work/results/``.
The exit code is 0 when every check passed, 1 when a check failed, and
2 when the program could not be run at all (nothing is printed then).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Stages whose time is under this run three times in every repeat pass.
SHORT_STAGE_S = 0.25
# Stage times are reported at the speed where the reference kernel in
# stage.py takes this long (about its time on an idle 2-core host).
REF_NOMINAL_S = 0.02
# A run ends within 180 s: no pass starts after this.
PASS_DEADLINE_S = 140.0
CHILD_DEADLINE_S = 170.0
SECOND_SEED_OFFSET = 1_000_003

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
STAGES = ("synth", "gen_matches", "register", "eval", "losses")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    pairs: int
    synth_flags: tuple[str, ...]
    register_workers: int


# Why each workload exists is written down in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tour",
            pairs=4,
            synth_flags=(),
            register_workers=1,
        ),
        Workload(
            "contaminated",
            pairs=16,
            synth_flags=("--noise", "0.2", "--outlier-fraction", "0.5",
                         "--model-points", "3000"),
            register_workers=2,
        ),
        Workload(
            "symmetric-eval",
            pairs=16,
            synth_flags=("--model-kind", "cylinder", "--cyclic-order", "4",
                         "--model-size", "0.03", "--model-points", "3000",
                         "--noise", "0.2", "--outlier-fraction", "0.5"),
            register_workers=1,
        ),
    )
}


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def stage_argv(stage: str, w: Workload, seed: int, data: Path) -> list[str]:
    pairs = str(data / "pairs.json")
    common = ["--pairs", pairs, "--seed", str(seed), "--workers"]
    if stage == "synth":
        return ["synth", "--out", str(data), "--pairs", str(w.pairs),
                "--seed", str(seed), *w.synth_flags]
    if stage == "gen_matches":
        return ["gen-matches", *common, "1", "--out-dir", str(data / "matches")]
    if stage == "register":
        return ["register", *common, str(w.register_workers),
                "--out-dir", str(data / "poses")]
    if stage == "eval":
        return ["eval", *common, "1", "--predictions", str(data / "poses"),
                "--out", str(data / "report.json")]
    return ["losses", *common, "1", "--matches", str(data / "matches"),
            "--out", str(data / "losses.json")]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CROSSPOSE_WORKERS"}
    env.update(THREAD_ENV)
    return env


def run_stage(argv: list[str], result: Path, run_id: str, trace: bool,
              deadline: float) -> dict:
    """Run one stage child; returns its timing, or rc/error on failure."""
    cmd = [sys.executable, str(BENCH / "stage.py"), str(result), run_id,
           "1" if trace else "0", "--", *argv]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result.exists():
        return {"rc": None, "error": proc.stderr.strip()[-2000:]}
    out = json.loads(result.read_text())
    result.unlink()
    return out


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def rotation_error_deg(r_a: list[float], r_b: list[float]) -> float:
    """Geodesic angle between two row-major rotations, stable near 0."""
    chord = math.sqrt(sum((a - b) ** 2 for a, b in zip(r_a, r_b)))
    return math.degrees(2.0 * math.asin(min(1.0, chord / (2.0 * math.sqrt(2.0)))))


def check_outputs(data: Path, pairs: int) -> tuple[list[str], int, dict]:
    """Output checks of one dataset: (problems, failed pairs, quality)."""
    problems = []
    failed = 0
    for name in ("matches/summary.json", "poses/summary.json", "report.json",
                 "losses.json"):
        path = data / name
        if not path.exists():
            problems.append(f"{name} missing")
            failed += pairs
            continue
        errors = json.loads(path.read_text()).get("errors", {})
        if errors:
            problems.append(f"{name} lists failed pairs: {sorted(errors)}")
            failed += len(errors)
    quality = {}
    report_path = data / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
        for pid, r in report["pairs"].items():
            if r["ar"] != (r["vsd"] + r["mssd"] + r["mspd"]) / 3.0:
                problems.append(f"{pid}: ar != (vsd + mssd + mspd) / 3")
        if len(report["pairs"]) != pairs:
            problems.append(f"report.json scores {len(report['pairs'])} of {pairs} pairs")
        quality["ar_mean"] = report["aggregate"]["ar"]
    errors_deg = []
    for i in range(pairs):
        pid = f"pair_{i:04d}"
        pred = data / "poses" / f"{pid}.json"
        if pred.exists():
            truth = json.loads((data / "pairs" / pid / "rel_pose.json").read_text())
            errors_deg.append(
                rotation_error_deg(json.loads(pred.read_text())["pose"]["R"], truth["R"]))
    if errors_deg:
        quality["rot_err_deg_median"] = statistics.median(errors_deg)
    return problems, failed, quality


def run_pass(w: Workload, seed: int, data: Path, stages, trace: bool, label: str,
             deadline: float) -> dict:
    """Run ``stages`` in order on one dataset directory, each in its own child.

    A stage re-run in place rewrites its outputs, so the checks and the
    digests after a pass cover every file the dataset holds.
    """
    runs = []
    problems = []
    for stage in stages:
        start = time.perf_counter()
        out = run_stage(stage_argv(stage, w, seed, data), data.parent / f"{stage}.result",
                        f"{label}/{stage}", trace, deadline)
        wall = time.perf_counter() - start
        if out["rc"] != 0:
            problems.append(f"{stage} exited {out['rc']}: {out.get('error', '')}")
            out = {"rc": out["rc"], "spans": []}
        else:
            out["overhead_s"] = wall - out["main_s"] - out["ref_total_s"]
        runs.append({"stage": stage, **out})
    output_problems, failed, quality = check_outputs(data, w.pairs)
    return {
        "seed": seed,
        "label": label,
        "runs": runs,
        "timed_s": sum(r.get("main_s") or 0.0 for r in runs),
        "problems": problems + output_problems,
        "failed": failed,
        "quality": quality,
        "digests": digests(data) if data.exists() else {},
    }


def pass_spans(p: dict) -> list[list]:
    """The span lists of a pass's stage runs, one list per run."""
    return [r["spans"] for r in p["runs"] if r["rc"] == 0]


def stage_samples(passes: list[dict], stage: str, field: str) -> list[float]:
    return [r[field] for p in passes for r in p["runs"] if r["stage"] == stage]


def steady_s(passes: list[dict], stage: str) -> float:
    """Median over the stage's runs of its time at the reference speed.

    On a shared host the same stage run takes up to 1.8 times as long when
    neighbours load the machine, for seconds to minutes at a time. Each
    run is scaled by REF_NOMINAL_S over the reference kernel's time
    around it, which takes out most of that swing.
    """
    return statistics.median(
        m * REF_NOMINAL_S / ref for m, ref in zip(stage_samples(passes, stage, "main_s"),
                                                 stage_samples(passes, stage, "ref_s")))


def end_to_end(passes: list[dict], pairs: int) -> dict:
    times = {stage: steady_s(passes, stage) for stage in STAGES}
    setup = sum(statistics.median(stage_samples(passes, stage, "overhead_s"))
                for stage in STAGES)
    metrics = {"setup_s": (setup, "s")}
    for stage in STAGES:
        metrics[f"{stage}_s"] = (times[stage], "s")
    metrics["pairs_per_s"] = (pairs / sum(times.values()), "pairs/s")
    metrics["peak_rss_mb"] = (
        max(max(stage_samples(passes, stage, "peak_rss_mb")) for stage in STAGES), "MB")
    # Outputs are deterministic per seed: one value per dataset, equal weights.
    per_seed = {p["seed"]: p["quality"]["ar_mean"] for p in passes}
    metrics["ar_mean"] = (statistics.fmean(per_seed.values()), "score")
    return metrics


RATIO_LAYERS = ("io.read_model.models_per_call", "matchgen.accept_ratio",
                "matcher.lift_ratio", "registration.inlier_ratio", "cli.register.overlap")


def per_layer(traced: list[dict], reference: dict) -> dict:
    layers = tracing.median_metrics([tracing.layer_metrics(pass_spans(p)) for p in traced])
    layers["trace.overhead_s"] = (
        statistics.median(p["timed_s"] for p in traced) - reference["timed_s"])
    layers["registration.rot_err_deg_median"] = reference["quality"]["rot_err_deg_median"]

    def unit(key: str) -> str:
        if key.endswith((".s", "_s")):
            return "s"
        if key.endswith(".bytes"):
            return "bytes"
        if key.endswith("_deg_median"):
            return "deg"
        return "ratio" if key in RATIO_LAYERS else "count"

    return {k: (v, unit(k)) for k, v in layers.items()}


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seeds: list[int]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV,
        "seeds": seeds,
        "git_commit": commit,
        "code_sha256": code_fingerprint(),
    }


def compare_with_earlier_runs(w: Workload, seed: int, found: dict,
                              fingerprint: str) -> list[str]:
    """Digests must match any earlier run of the same code and seed."""
    store = WORK / "digests" / f"{w.name}-{seed}-{fingerprint[:16]}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        if earlier != found:
            changed = sorted(k for k in set(earlier) | set(found)
                             if earlier.get(k) != found.get(k))
            return [f"outputs differ from an earlier run of the same code and seed: "
                    f"{changed[:5]}"]
        return []
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(found, indent=1, sort_keys=True))
    return []


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; returns (result line, full record)."""
    if not (SRC / "crosspose" / "cli.py").is_file():
        raise BenchError(f"no crosspose sources under {SRC}")
    start = time.monotonic()
    child_deadline = start + CHILD_DEADLINE_S
    run_dir = WORK / f"{w.name}-{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    seeds = [seed] if trace else [seed, seed + SECOND_SEED_OFFSET]

    def one(round_seed: int, stages, traced: bool, label: str) -> dict:
        data = run_dir / f"seed{round_seed}" / "data"
        data.parent.mkdir(parents=True, exist_ok=True)
        return run_pass(w, round_seed, data, stages, traced, label, child_deadline)

    try:
        if trace:
            # One untraced pass, then traced passes re-running it in place.
            passes = [one(seed, STAGES, False, "untraced")]
            repeat, traced = STAGES, True
        else:
            passes = [one(s, STAGES, False, f"build-seed{s}") for s in seeds]
            # Then every stage but the dearest runs again, alternating
            # datasets, until time is up; the dearest keeps its two builds.
            # Short stages jitter most and cost little: they run thrice.
            repeat, traced = [], False
            if not any(p["problems"] for p in passes):
                times = {st: steady_s(passes, st) for st in STAGES}
                dearest = max(STAGES, key=times.get)
                repeat = [st for st in STAGES if st != dearest
                          for _ in range(3 if times[st] < SHORT_STAGE_S else 1)]
        while not any(p["problems"] for p in passes):
            round_seed = seeds[(len(passes) - len(seeds)) % len(seeds)]
            before = time.monotonic()
            passes.append(one(round_seed, repeat, traced, f"repeat{len(passes)}-seed{round_seed}"))
            per_pass = time.monotonic() - before
            if time.monotonic() + per_pass > start + min(seconds, PASS_DEADLINE_S):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [f"{p['label']}: {x}" for p in passes for x in p["problems"]]
    fingerprint = code_fingerprint()
    for s in seeds:
        same_seed = [p for p in passes if p["seed"] == s]
        for p in same_seed[1:]:
            if p["digests"] != same_seed[0]["digests"]:
                problems.append(f"{p['label']}: outputs differ from {same_seed[0]['label']}")
        if not problems:
            problems += compare_with_earlier_runs(w, s, same_seed[0]["digests"], fingerprint)

    attempted = w.pairs * sum(len(p["runs"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not problems and failed == 0
    metrics = {}
    if correct:
        metrics = per_layer(passes[1:], passes[0]) if trace else end_to_end(passes, w.pairs)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": w.name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seeds),
        "problems": problems,
        "passes": [{**p, "runs": [{k: v for k, v in run.items() if k != "spans"}
                                  for run in p["runs"]]} for p in passes],
        "result": line,
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        line, record = run(w, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    for name, m in line["metrics"].items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
