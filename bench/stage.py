"""Run one crosspose CLI stage in a fresh process and time it.

    python3 bench/stage.py RESULT_JSON RUN_ID TRACE -- <crosspose argv>

The stage is timed from inside, around ``crosspose.cli.main(argv)``,
after the imports have finished, so interpreter start and imports count
toward the benchmark's set-up time, not toward the stage. A fixed
reference kernel, which uses nothing from crosspose, is timed right
before and right after the stage; its time tracks how fast the shared
host runs at that moment. With TRACE=1 the public functions of every
crosspose module are wrapped first (see ``tracing.py``) and the spans go
into RESULT_JSON with the timings.
"""

import os

# Set before numpy loads: --workers stays the only source of parallelism.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_s() -> float:
    """Time a fixed mix of the work crosspose does: array arithmetic,
    kd-tree queries, an interpreter loop and JSON text.

    The kernel runs twice on buffers allocated here, and only the second
    run is timed, so neither cold caches left by the stage nor the state
    of the heap it leaves behind change the result.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    points = np.random.default_rng(0).normal(size=(3000, 3))
    block = points[:600]
    diff = np.empty((600, 600, 3))
    sq = np.empty((600, 600))
    for _ in range(2):
        start = time.perf_counter()
        np.subtract(block[:, None, :], block[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=-1, out=sq)
        float(sq.max())
        cKDTree(points).query(points[::-1], k=2)
        total = 0
        for i in range(60_000):
            total += i * i
        json.dumps({"values": list(range(5_000))}, indent=1)
        elapsed = time.perf_counter() - start
    return elapsed


def main(argv: list[str]) -> int:
    result_path, run_id, trace, sep, *cli_argv = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: stage.py RESULT_JSON RUN_ID 0|1 -- ARGV...")
    sys.path.insert(0, str(SRC))
    import crosspose.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"crosspose was imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    ref_start = time.perf_counter()
    ref_before = reference_s()
    start = time.perf_counter()
    rc = cli.main(cli_argv)
    main_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_after = reference_s()
    ref_total = time.perf_counter() - ref_start - main_s
    Path(result_path).write_text(
        json.dumps(
            {
                "rc": rc,
                "main_s": main_s,
                "ref_s": (ref_before + ref_after) / 2.0,
                "ref_before_s": ref_before,
                "ref_after_s": ref_after,
                "ref_total_s": ref_total,
                "peak_rss_mb": peak_kb / 1024.0,
                "spans": tracer.spans if tracer is not None else [],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
