"""Steadiness proof: run every workload with several seeds and record spreads.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

Each run is one ``perfbench/run.py --trace 0`` subprocess with its own seed
(1, 2, ... ``--runs``).  The output keeps every run's metrics and host
calibration, and per workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile range
as a share of the median, and (max - min) / median.  The spread of every
metric except ``setup_s`` has to stay below a third of its bound in
``BENCHMARK.json``; the script prints each verdict and exits non-zero if one
fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
_CALIB = re.compile(r"host\.calib_ms before=([0-9.]+) after=([0-9.]+)")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    calibration = _CALIB.search(completed.stderr)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "host_calib_ms": [float(calibration.group(1)), float(calibration.group(2))],
    }


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / statistics.median(values),
        "range_over_median": (max(values) - min(values)) / statistics.median(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}
    workloads = [entry["name"] for entry in config["workloads"]]
    record = {"run_seconds": config["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [
            one_run(workload, seed, config["run_seconds"]) for seed in range(1, args.runs + 1)
        ]
        summary = {
            name: summarise([run["metrics"][name] for run in runs]) for name in bounds
        }
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, stats in summary.items():
            limit = bounds[name] / 3.0
            steady = name == "setup_s" or stats["iqr_over_median"] < limit
            ok = ok and steady and all(run["correct"] for run in runs)
            print(
                f"{workload:12s} {name:15s} median {stats['median']:10.4f} "
                f"IQR/median {stats['iqr_over_median']:.4f} (limit {limit:.4f}) "
                f"range/median {stats['range_over_median']:.4f} "
                f"{'ok' if steady else 'TOO NOISY'}"
            )
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
