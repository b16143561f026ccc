"""The workload registry and what the batch workloads share."""

from __future__ import annotations

import sys
from typing import List, Sequence, Tuple

from harness import PassRecord, op_median_latencies, peak_rss_mb, percentile


class BatchWorkload:
    """One client, sequential ops, the same op sequence in every pass.

    Latency percentiles are taken over the pass's ops, each op's latency
    being its median across the run's passes.
    """

    setup_repeats = 3

    def latency_percentiles(self, passes: Sequence[PassRecord]) -> Tuple[float, float]:
        latencies = op_median_latencies(passes)
        return percentile(latencies, 0.5), percentile(latencies, 0.9)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def verify(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


def make(name: str, seed: int, expected: dict, traced: bool = False):
    if name == "cold-ladder":
        from cold_ladder import ColdLadder

        return ColdLadder(seed, expected["ladder"])
    if name == "rate-sweep":
        from rate_sweep import RateSweepWorkload

        return RateSweepWorkload(seed, expected["sweep"])
    if name == "served-mix":
        from served_mix import ServedMix

        return ServedMix(seed, in_process=traced)
    raise ValueError(f"unknown workload {name!r}")


def tally(passes: Sequence[PassRecord], verify_problems: Sequence[str]):
    """(attempted, failed, problems) over the passes plus the post-run checks.

    Every post-run problem names one op whose output was wrong, so it counts
    as one more failed op.
    """
    problems = [problem for record in passes for problem in record.problems]
    problems += list(verify_problems)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted = sum(record.attempted for record in passes)
    failed = sum(record.failed for record in passes) + len(verify_problems)
    return attempted, failed, problems
