"""``cold-ladder``: the ROADMAP ladder analysed cold, one tree at a time.

One op parses a ladder rung from Galileo text and runs a fresh
``Study(tree).evaluate(...)`` with no skeleton store, so conversion,
composition, minimisation and the Markov builder run every time.  The seed
only permutes the rung order (the same order in every pass of a run).
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Tuple

from checks import check_value
from harness import PassRecord
from suite import BatchWorkload

from repro.core import Study, Unreliability, UnreliabilityBounds
from repro.dft import galileo
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_family,
    cascaded_pand_system,
    pand_race_bank,
    random_dft,
)

#: Rung name -> tree factory (the ROADMAP ladder minus its 10^5-state point).
RUNGS = {
    "cas": cardiac_assist_system,
    "cps": cascaded_pand_system,
    "cpand3x6": lambda: cascaded_pand_family(3, 6),
    "cpand4x6": lambda: cascaded_pand_family(4, 6),
    "race5": lambda: pand_race_bank(5),
    "rnd16": lambda: random_dft(16, seed=5, fdep=True, shared_spares=True),
}


class ColdLadder(BatchWorkload):
    name = "cold-ladder"
    #: Wall time of one pass on a 2-vCPU guest; only sets the pass count.
    nominal_pass_s = 2.9
    trace_passes = 2

    def __init__(self, seed: int, expected: Dict[str, dict]):
        self.seed = seed
        self.expected = expected
        self.ops: List[Tuple[str, str, object]] = []

    def setup(self) -> None:
        order = list(RUNGS)
        random.Random(self.seed).shuffle(order)
        self.ops = []
        for rung in order:
            pin = self.expected[rung]
            measure = (
                UnreliabilityBounds([pin["time"]])
                if pin["measure"] == "unreliability_bounds"
                else Unreliability([pin["time"]])
            )
            self.ops.append((rung, galileo.write(RUNGS[rung]()), measure))
        # Warm lazily imported numerics on a tiny tree before timing.
        warm = galileo.parse('toplevel "S";\n"S" and "A" "B";\n"A" lambda=1;\n"B" lambda=2;\n')
        Study(warm).evaluate(Unreliability([1.0]))

    def analyse(self, rung: str, text: str, measure):
        tree = galileo.parse(text, name=rung)
        return Study(tree).evaluate(measure)

    def run_pass(self, index: int, tracer=None) -> PassRecord:
        record = PassRecord(wall_s=0.0)
        pass_start = time.perf_counter()
        for rung, text, measure in self.ops:
            start = time.perf_counter()
            try:
                with tracer.span(f"ladder.{rung}") if tracer else nullcontext():
                    result = self.analyse(rung, text, measure)
            except Exception:  # noqa: BLE001 - a crashing op is a failed op
                result, problem = None, traceback.format_exc()
            record.latencies[rung] = record.steps[rung] = time.perf_counter() - start
            record.attempted += 1
            if result is not None:
                problem = check_value(result.measures[0], self.expected[rung])
            if problem:
                record.failed += 1
                record.problems.append(f"{rung}: {problem}")
        record.wall_s = time.perf_counter() - pass_start
        return record
