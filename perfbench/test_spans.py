"""Span coverage and reconciliation test for the traced benchmark run.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench/test_spans.py

Each workload's traced run must fire every span of the layers it is meant to
load (a wrapper that patched the wrong module's name never fires), its
top-level spans must cover the traced wall time to within
``tracing.RECONCILE_RANGE`` (both checked inside the run, which then reports
``correct: false``), and it must report exactly the per-layer metrics that
``BENCHMARK.json`` declares.  Layers a workload bypasses must read zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402

#: Metrics that must be positive on the workload that exercises their layer.
LOADED = {
    "cold-ladder": [
        "dft.parse_ms", "conversion.ms", "conversion.states", "aggregation.ms",
        "aggregation.peak_product_states", "composition.calls", "composition.self_ms",
        "reduction.self_ms", "bisimulation.ms", "bisimulation.noop_frac", "markov.ms",
        "ladder.cas_ms", "ladder.cps_ms", "ladder.cpand3x6_ms", "ladder.cpand4x6_ms",
        "ladder.race5_ms", "ladder.rnd16_ms",
    ],
    "rate-sweep": [
        "aggregation.ms", "kernel.ms", "kernel.matvecs", "kernel.refills",
        "kernel.structure_builds", "sweep.instantiate_ms", "sweep.solve_ms",
        "measures.self_ms",
    ],
    "served-mix": [
        "dft.parse_ms", "dft.hash_ms", "kernel.ms", "measures.self_ms", "store.load_calls",
        "store.load_ms", "store.bytes_read", "store.hit_frac", "store.build_ms",
        "store.write_ms", "service.handle_ms", "service.self_ms", "server.overhead_ms",
    ],
}
#: Metrics of layers the workload bypasses: exactly zero.
BYPASSED = {
    "cold-ladder": ["store.load_calls", "sweep.solve_ms", "service.handle_ms"],
    "rate-sweep": ["dft.parse_ms", "store.load_calls", "service.handle_ms",
                   "ladder.cas_ms"],
    "served-mix": ["sweep.solve_ms", "ladder.rnd16_ms"],
}


@pytest.mark.parametrize("workload", sorted(LOADED))
def test_traced_run_covers_its_layers(workload):
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stderr
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    for name in LOADED[workload]:
        assert values[name] > 0, f"{name} did not fire on {workload}"
    for name in BYPASSED[workload]:
        assert values[name] == 0, f"{name} fired on {workload}, which bypasses it"


def test_self_time_and_outermost_totals():
    tracer = tracing.Tracer()
    with tracer.span("kernel"):
        with tracer.span("kernel"):
            time.sleep(0.02)
        with tracer.span("measures"):
            time.sleep(0.01)
    index = tracing.SpanIndex(tracer)
    outer = next(span for span in tracer.spans if span.parent is None)
    # Nested spans of one layer count once in its total, and self times add
    # up to the layer total minus the other layers' time inside it.
    assert index.total_ms("kernel") == pytest.approx(1000.0 * outer.duration)
    assert index.self_ms("kernel") + index.self_ms("measures") == pytest.approx(
        1000.0 * outer.duration
    )
    assert index.self_ms("measures") >= 10.0
