"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cold-ladder --seed 1 --seconds 26 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, ops_per_s,
latency_p50_ms, latency_p90_ms, peak_rss_mb); ``--trace 1`` sets up once with
each layer's public functions wrapped, runs the same passes as ``--trace 0``
unwrapped (the overhead baseline), then a fixed number of wrapped passes, and
prints the per-layer metrics.
The last line of standard output is always the result object; progress and
failure details go to standard error.  The program under test is imported
from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

WORKLOADS = ("cold-ladder", "rate-sweep", "served-mix")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The program runs at its defaults: no REPRO_* knobs reach it.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import harness
    import suite

    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    workload = suite.make(args.workload, args.seed, expected, traced=bool(args.trace))
    import_s = harness.process_age_s()
    calib_before = harness.host_calibration_ms()
    try:
        if args.trace:
            import tracing

            result = tracing.traced_run(workload, args.seconds)
        else:
            result = _timed_run(workload, args.seconds, import_s)
    finally:
        workload.close()
    calib_after = harness.host_calibration_ms()
    print(f"host.calib_ms before={calib_before:.2f} after={calib_after:.2f}", file=sys.stderr)
    if args.trace:
        result["metrics"]["host.calib_ms"] = harness.metric(
            statistics.mean((calib_before, calib_after)), "ms"
        )
    print(json.dumps(result))
    return 0


def _timed_run(workload, seconds: float, import_s: float) -> dict:
    import harness
    import suite

    setup_times = []
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.close()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    passes = [
        workload.run_pass(index)
        for index in range(harness.passes_for(seconds, workload.nominal_pass_s))
    ]
    attempted, failed, problems = suite.tally(passes, workload.verify())
    p50, p90 = workload.latency_percentiles(passes)
    metrics = {
        "setup_s": harness.metric(import_s + statistics.median(setup_times), "s"),
        "ops_per_s": harness.metric(harness.throughput(passes), "1/s"),
        "latency_p50_ms": harness.metric(p50 * 1000.0, "ms"),
        "latency_p90_ms": harness.metric(p90 * 1000.0, "ms"),
        "peak_rss_mb": harness.metric(workload.peak_rss_mb(), "MB"),
    }
    print(
        f"{workload.name}: {len(passes)} passes, pass walls "
        + " ".join(f"{record.wall_s:.3f}" for record in passes)
        + ", setups " + " ".join(f"{value:.3f}" for value in setup_times),
        file=sys.stderr,
    )
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
