"""Timing, memory and reporting helpers shared by every workload.

A run is a whole number of *passes* over a fixed op sequence, so every run
of a workload does identical work.  Throughput comes from a typical pass
(:func:`typical_pass_s`) and latency percentiles from op latencies (each op's
median across passes on the batch workloads, see :func:`op_median_latencies`),
so a burst of slow host time inside one pass moves neither.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.stats import beta


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``; 10 ms ticks)."""
    with open("/proc/self/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # Field 22 of stat (index 19 after the command name) is the start time
    # in clock ticks after boot.
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def _calibration_loop() -> int:
    total = 0
    for index in range(200_000):
        total += (index * index) % 7
    return total


def host_calibration_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: a host-speed probe.

    Reported beside the metrics (never gated) so a reader can tell a slow
    host from a slow program.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The Harrell-Davis estimate of the ``fraction`` quantile.

    A beta-weighted mean of all order statistics instead of one or two of
    them: latencies the server quantises to timer ticks then move the
    estimate smoothly instead of jumping a whole tick between runs.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    if count == 0:
        raise ValueError("percentile of no samples")
    edges = beta.cdf(
        np.arange(count + 1) / count, (count + 1) * fraction, (count + 1) * (1.0 - fraction)
    )
    return float(np.diff(edges) @ ordered)


@dataclass
class PassRecord:
    """One timed pass over the workload's op sequence."""

    wall_s: float
    #: Op key -> latency in seconds (batch workloads: one entry per op).
    latencies: Dict[object, float] = field(default_factory=dict)
    #: Step key -> wall seconds of each externally timed step of the pass
    #: (batch workloads; the steps add up to the pass).
    steps: Dict[object, float] = field(default_factory=dict)
    #: Latencies of ops without a stable identity (served requests).
    samples: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: One line per failed op, printed to stderr.
    problems: List[str] = field(default_factory=list)


def op_median_latencies(passes: Sequence[PassRecord]) -> List[float]:
    """Each op's latency as its median over the passes that ran it.

    Batch workloads repeat the same op sequence every pass, so a burst of
    slow host time that hits one pass does not move any op's median.
    """
    keys = {key: None for record in passes for key in record.latencies}
    return [
        statistics.median(
            record.latencies[key] for record in passes if key in record.latencies
        )
        for key in keys
    ]


def typical_pass_s(passes: Sequence[PassRecord]) -> float:
    """The wall time of a typical pass.

    With timed steps (batch workloads) it is the sum of each step's median
    across passes, so a burst of slow host time that hits one step of one
    pass moves nothing; otherwise it is the median pass.
    """
    if passes[0].steps:
        return sum(
            statistics.median(record.steps[key] for record in passes)
            for key in passes[0].steps
        )
    return statistics.median(record.wall_s for record in passes)


def throughput(passes: Sequence[PassRecord]) -> float:
    """Completed ops per second of a typical pass."""
    completed = statistics.median(record.attempted - record.failed for record in passes)
    return completed / typical_pass_s(passes)


def passes_for(seconds: float, nominal_pass_s: float, minimum: int = 3) -> int:
    """How many passes fill ``seconds`` at the workload's nominal pass time.

    The count depends only on ``seconds``, never on how fast this host runs,
    so every run given the same ``--seconds`` does the same work.
    """
    return max(minimum, int(round(seconds / nominal_pass_s)))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
