"""The traced run: spans around each layer's public functions.

:class:`Instrumentation` replaces the functions and methods named in
:data:`SPANS` (and the counters in :data:`COUNTERS`) with wrappers that
record a span -- name, start, end, parent -- into a :class:`Tracer`, and puts
the originals back on exit.  Each function is wrapped where its callers look
it up, e.g. ``repro.service.app.canonical_profile`` as well as
``repro.dft.hashing.canonical_profile``.  Spans stay in memory; the per-layer
metrics are computed from them when the run ends.

A layer's time (``*.ms``) is the total of its outermost spans; its self time
(``*.self_ms``) is its spans' time minus the time their child spans cover.
Totals cover the whole traced window: one set-up plus the workload's
``trace_passes`` passes (the untraced baseline passes in between are not
wrapped).  ``service.*`` and ``server.overhead_ms`` are means
per request instead.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from cold_ladder import RUNGS
from harness import metric, passes_for


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "attrs", "phase")

    def __init__(self, name: str, parent: Optional["Span"], phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.child_s = 0.0
        self.attrs: Dict[str, float] = {}
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def under(self, name: str) -> bool:
        """Whether an enclosing span has ``name``."""
        parent = self.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


class Tracer:
    """An in-memory span and counter store; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None, self.phase)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *_exc) -> None:
        self.tracer.close(self.span)


# --------------------------------------------------------------------------
# what gets wrapped
# --------------------------------------------------------------------------

def _conversion(span, _args, result):
    span.attrs["models"] = len(result.members)
    span.attrs["states"] = result.total_states


def _aggregation(span, _args, result):
    _model, statistics_ = result
    span.attrs["steps"] = len(statistics_.steps)
    span.attrs["peak"] = statistics_.peak_product_states


def _product(span, _args, result):
    span.attrs["states"] = result.num_states


def _bisimulation(span, args, result):
    span.attrs["input"] = args[0].num_states
    span.attrs["noop"] = float(result.num_states == args[0].num_states)


def _sweep(span, _args, result):
    span.attrs["instantiate"] = sum(row.instantiate_seconds or 0.0 for row in result.rows)
    span.attrs["solve"] = sum(row.solve_seconds or 0.0 for row in result.rows)


def _load(span, args, result):
    store, key = args[0], args[1]
    span.attrs["hit"] = float(result is not None)
    span.attrs["bytes"] = store.path_of(key).stat().st_size if result is not None else 0


def _get_or_build(span, _args, result):
    span.attrs["hit"] = float(result[1])


#: Span name -> the ``module:attribute`` paths it wraps, and what it records.
SPANS = {
    "dft.parse": (["repro.dft.galileo:parse"], None),
    "dft.hash": (
        [
            "repro.dft.hashing:canonical_profile",
            "repro.service.app:canonical_profile",
            "repro.dft.hashing:structural_hash",
            "repro.service.store:structural_hash",
        ],
        None,
    ),
    "conversion": (["repro.core.conversion:DftToIoimcConverter.convert"], _conversion),
    "aggregation": (["repro.core.aggregation:CompositionalAggregator.run"], _aggregation),
    "composition": (["repro.core.aggregation:parallel"], _product),
    "reduction": (["repro.core.aggregation:aggregate"], None),
    "bisimulation": (
        ["repro.ioimc.reduction:minimize_weak", "repro.ioimc.reduction:minimize_strong"],
        _bisimulation,
    ),
    "markov": (
        [
            "repro.core.study:ctmc_from_ioimc",
            "repro.core.study:ctmdp_from_ioimc",
            "repro.core.study:ctmdp_skeleton_from_ioimc",
            "repro.core.sweep:ctmc_skeleton_from_ioimc",
            "repro.core.sweep:ctmdp_skeleton_from_ioimc",
            "repro.service.store:ctmc_skeleton_from_ioimc",
            "repro.service.store:ctmdp_skeleton_from_ioimc",
        ],
        _product,
    ),
    "kernel": (
        [
            "repro.ctmc.kernel:TransientKernel.__init__",
            "repro.ctmc.kernel:TransientKernel.load",
            "repro.ctmc.kernel:TransientKernel.probability_of_label_curve",
            "repro.ctmc.kernel:CtmdpKernel.__init__",
            "repro.ctmc.kernel:CtmdpKernel.load",
            "repro.ctmc.kernel:CtmdpKernel.time_bounded_reachability_curve",
            "repro.ctmc.kernel:CtmdpKernel.gradient_curve",
            "repro.ctmc.kernel:CtmdpKernel.reachability_bounds_curve",
        ],
        None,
    ),
    "measures": (
        [
            "repro.core.study:evaluate_skeleton_query",
            "repro.service.app:evaluate_skeleton_query",
            "repro.core.sweep:measures_from_curves",
            "repro.core.sweep:gradient_values_from_kernel",
        ],
        None,
    ),
    "sweep.run": (["repro.core.sweep:SweepStudy.run"], _sweep),
    "store.get_or_build": (["repro.service.store:SkeletonStore.get_or_build"], _get_or_build),
    "store.load": (["repro.service.store:SkeletonStore.load"], _load),
    "store.build": (["repro.service.store:build_entry"], None),
    "store.write": (["repro.service.store:SkeletonStore.store"], None),
    "service.handle": (["repro.service.app:AnalysisService.handle"], None),
}

#: Counter name -> the ``module:attribute`` paths whose calls it counts.
COUNTERS = {
    "kernel.matvecs": ["repro.ctmc.kernel:CsrBuffer.step", "repro.ctmc.kernel:CsrBuffer.step_forward"],
    "kernel.refills": ["repro.ctmc.kernel:CsrBuffer.refill"],
    "kernel.structure_builds": ["repro.ctmc.kernel:CsrBuffer.__init__"],
}


def _resolve(path: str):
    module_name, attribute = path.split(":")
    owner = importlib.import_module(module_name)
    for part in attribute.split(".")[:-1]:
        owner = getattr(owner, part)
    name = attribute.split(".")[-1]
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


def _span_wrapper(tracer: Tracer, name: str, function: Callable, record) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span)
        if record is not None:
            record(span, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return function(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Context manager: wrap everything in SPANS and COUNTERS, then restore."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[tuple] = []

    def __enter__(self) -> "Instrumentation":
        for name, (paths, record) in SPANS.items():
            for path in paths:
                owner, attribute, original = _resolve(path)
                self._patch(owner, attribute, original,
                            _span_wrapper(self.tracer, name, original, record))
        for name, paths in COUNTERS.items():
            for path in paths:
                owner, attribute, original = _resolve(path)
                self._patch(owner, attribute, original,
                            _count_wrapper(self.tracer, name, original))
        return self

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

class SpanIndex:
    def __init__(self, tracer: Tracer):
        self.by_name: Dict[str, List[Span]] = {}
        for span in tracer.spans:
            self.by_name.setdefault(span.name, []).append(span)

    def of(self, name: str, phase: Optional[str] = None) -> List[Span]:
        spans = self.by_name.get(name, [])
        return spans if phase is None else [span for span in spans if span.phase == phase]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def total_ms(self, name: str) -> float:
        return 1000.0 * sum(span.duration for span in self.of(name) if not span.under(name))

    def self_ms(self, name: str) -> float:
        return 1000.0 * sum(span.self_s for span in self.of(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0.0) for span in self.of(name))

    def attr_max(self, name: str, key: str) -> float:
        return max((span.attrs.get(key, 0.0) for span in self.of(name)), default=0.0)

    def mean_ms(self, spans: List[Span], self_time: bool = False) -> float:
        if not spans:
            return 0.0
        return 1000.0 * statistics.mean(span.self_s if self_time else span.duration for span in spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, traced, untraced) -> Dict[str, dict]:
    index = SpanIndex(tracer)
    counters = tracer.counters
    handles = index.of("service.handle", "passes")
    requests = index.of("client.request", "passes")
    bisimulation_calls = index.count("bisimulation")
    values = {
        "dft.parse_ms": (index.total_ms("dft.parse"), "ms"),
        "dft.hash_ms": (index.total_ms("dft.hash"), "ms"),
        "conversion.ms": (index.total_ms("conversion"), "ms"),
        "conversion.models": (index.attr_sum("conversion", "models"), "count"),
        "conversion.states": (index.attr_sum("conversion", "states"), "states"),
        "aggregation.ms": (index.total_ms("aggregation"), "ms"),
        "aggregation.steps": (index.attr_sum("aggregation", "steps"), "count"),
        "aggregation.peak_product_states": (index.attr_max("aggregation", "peak"), "states"),
        "composition.calls": (index.count("composition"), "count"),
        "composition.self_ms": (index.self_ms("composition"), "ms"),
        "composition.product_states": (index.attr_sum("composition", "states"), "states"),
        "reduction.calls": (index.count("reduction"), "count"),
        "reduction.self_ms": (index.self_ms("reduction"), "ms"),
        "bisimulation.calls": (bisimulation_calls, "count"),
        "bisimulation.ms": (index.total_ms("bisimulation"), "ms"),
        "bisimulation.input_states": (index.attr_sum("bisimulation", "input"), "states"),
        "bisimulation.noop_frac": (
            _ratio(index.attr_sum("bisimulation", "noop"), bisimulation_calls), "frac"),
        "markov.ms": (index.total_ms("markov"), "ms"),
        "markov.states": (index.attr_sum("markov", "states"), "states"),
        "kernel.ms": (index.total_ms("kernel"), "ms"),
        "kernel.matvecs": (counters["kernel.matvecs"], "count"),
        "kernel.refills": (counters["kernel.refills"], "count"),
        "kernel.structure_builds": (counters["kernel.structure_builds"], "count"),
        "sweep.instantiate_ms": (1000.0 * index.attr_sum("sweep.run", "instantiate"), "ms"),
        "sweep.solve_ms": (1000.0 * index.attr_sum("sweep.run", "solve"), "ms"),
        "measures.self_ms": (index.self_ms("measures"), "ms"),
        "store.load_calls": (index.count("store.load"), "count"),
        "store.load_ms": (index.total_ms("store.load"), "ms"),
        "store.bytes_read": (index.attr_sum("store.load", "bytes"), "bytes"),
        "store.hit_frac": (
            _ratio(index.attr_sum("store.get_or_build", "hit"), index.count("store.get_or_build")),
            "frac"),
        "store.build_ms": (index.total_ms("store.build"), "ms"),
        "store.write_ms": (index.total_ms("store.write"), "ms"),
        "service.handle_ms": (index.mean_ms(handles), "ms/op"),
        "service.self_ms": (index.mean_ms(handles, self_time=True), "ms/op"),
        "server.overhead_ms": (
            index.mean_ms(requests) - index.mean_ms(handles) if requests else 0.0, "ms/op"),
    }
    for rung in RUNGS:
        spans = index.of(f"ladder.{rung}", "passes")
        values[f"ladder.{rung}_ms"] = (
            1000.0 * statistics.median(span.duration for span in spans) if spans else 0.0, "ms")
    values["trace.overhead_frac"] = (
        statistics.median(record.wall_s for record in traced)
        / statistics.median(record.wall_s for record in untraced) - 1.0,
        "frac",
    )
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


# --------------------------------------------------------------------------
# coverage and reconciliation
# --------------------------------------------------------------------------

#: Spans (and counters) each workload must fire: the layers it is meant to load.
REQUIRED = {
    "cold-ladder": ["dft.parse", "conversion", "aggregation", "composition", "reduction",
                    "bisimulation", "markov"],
    "rate-sweep": ["conversion", "aggregation", "composition", "reduction", "bisimulation",
                   "markov", "sweep.run", "kernel", "measures", "kernel.matvecs",
                   "kernel.refills", "kernel.structure_builds"],
    "served-mix": ["dft.parse", "dft.hash", "store.get_or_build", "store.load", "store.build",
                   "store.write", "service.handle", "kernel", "measures", "client.request",
                   "kernel.matvecs", "kernel.refills"],
}
#: The benchmark's own spans around each op, per workload: the top level.
OP_SPANS = {"cold-ladder": "ladder.", "rate-sweep": "sweep.run", "served-mix": "client.request"}
#: Top-level op spans must cover this share of the traced passes' wall time
#: (times the number of concurrent clients).
RECONCILE_RANGE = (0.90, 1.005)


def check_trace(workload, tracer: Tracer, traced) -> List[str]:
    problems = []
    index = SpanIndex(tracer)
    required = list(REQUIRED[workload.name])
    if workload.name == "cold-ladder":
        required += [f"ladder.{rung}" for rung in RUNGS]
    for name in required:
        fired = tracer.counters[name] if name in COUNTERS else index.count(name)
        if not fired:
            problems.append(f"span coverage: {name} never fired on {workload.name}")
    prefix = OP_SPANS[workload.name]
    tops = [
        span for span in tracer.spans
        if span.phase == "passes" and span.parent is None and span.name.startswith(prefix)
    ]
    covered = sum(span.duration for span in tops)
    wall = sum(record.wall_s for record in traced) * getattr(workload, "clients", 1)
    share = covered / wall
    low, high = RECONCILE_RANGE
    print(f"trace reconciliation: top-level spans cover {share:.4f} of traced wall", file=sys.stderr)
    if not low <= share <= high:
        problems.append(
            f"trace reconciliation: top-level spans cover {share:.3f} of the traced wall "
            f"time, outside [{low}, {high}]"
        )
    return problems


def traced_run(workload, seconds: float) -> dict:
    """Untraced passes for the overhead baseline, then a traced set-up and passes."""
    import suite

    tracer = Tracer()
    with Instrumentation(tracer):
        workload.setup()
    untraced = [
        workload.run_pass(index)
        for index in range(passes_for(seconds, workload.nominal_pass_s))
    ]
    tracer.phase = "passes"
    with Instrumentation(tracer):
        traced = [
            workload.run_pass(len(untraced) + index, tracer)
            for index in range(workload.trace_passes)
        ]
    passes = untraced + traced
    attempted, failed, problems = suite.tally(passes, workload.verify())
    trace_problems = check_trace(workload, tracer, traced)
    for problem in trace_problems:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = per_layer_metrics(tracer, traced, untraced)
    return {
        "correct": failed == 0 and not problems and not trace_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
