"""``rate-sweep``: seeded rate samples over prebuilt sweep skeletons.

Set-up builds one ``SweepStudy`` skeleton per tree (conversion, aggregation
and the Markov builder run there and nowhere else).  Each pass then sweeps
the same seeded samples with ``processes=1``:

* ``cps``  -- the CPS with every failure rate bound to one parameter
  ``lam``, a 100-point unreliability curve (38 states: the dense kernel);
* ``rnd``  -- ``random_dft(12, seed=0)`` with three parametrised events
  (568 states, above the 256-state dense limit: the CSR kernel);
* ``race`` -- ``pand_race_bank(5)`` with three parametrised events,
  unreliability bounds plus per-row gradients (the CTMDP kernel).

Each sample scales a tree's parameters by one factor in [1/2, 2], stratified
on a log scale: the seed moves each sample inside its stratum, so every seed
asks for nearly the same solver work.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from typing import Dict, List

from checks import check_bounds, check_curve
from harness import PassRecord
from suite import BatchWorkload

from repro.core import (
    RateSweep,
    Study,
    SweepStudy,
    Unreliability,
    UnreliabilityBounds,
    substitute_parameters,
    with_rate_parameters,
)
from repro.systems import cascaded_pand_system, pand_race_bank, random_dft

#: Rows per tree in one pass (about a third of the pass time each).
ROWS = {"cps": 40, "rnd": 40, "race": 20}


def _trees():
    cps = cascaded_pand_system()
    rnd = random_dft(12, seed=0)
    race = pand_race_bank(5)
    return {
        "cps": (
            with_rate_parameters(cps, {event.name: "lam" for event in cps.basic_events()}),
            Unreliability([round(0.02 * (index + 1), 2) for index in range(100)]),
            False,
        ),
        "rnd": (
            with_rate_parameters(rnd, ["E1", "E2", "E3"]),
            Unreliability([round(0.1 * (index + 1), 1) for index in range(20)]),
            False,
        ),
        "race": (
            with_rate_parameters(race, ["T0", "A2", "B4"]),
            UnreliabilityBounds([0.5, 1.0]),
            True,
        ),
    }


def stratified_samples(rng: random.Random, nominal: Dict[str, float], count: int):
    """``count`` samples scaling every parameter by one common factor.

    The factor lies in [1/2, 2]; on a log scale the range is cut into
    ``count`` equal strata, each sample lies at a seeded point inside its own
    stratum, and the seed shuffles the order.  Solver work grows with the rates, so every seed
    asks for nearly the same work per row.
    """
    strata = list(range(count))
    rng.shuffle(strata)
    factors = [2.0 ** (2.0 * (stratum + rng.random()) / count - 1.0) for stratum in strata]
    return [{name: value * factor for name, value in nominal.items()} for factor in factors]


def check_row(row, bounds: bool):
    if row.error is not None:
        return f"row error: {row.error}"
    measure = row.measures[0]
    if measure.error is not None:
        return f"measure error: {measure.error}"
    if bounds:
        problem = check_bounds(measure.lower, measure.upper)
        if problem is None and not all(
            math.isfinite(value) for curve in row.gradients.values() for value in curve
        ):
            problem = "non-finite gradient"
        return problem
    return check_curve(measure.values)


class RateSweepWorkload(BatchWorkload):
    name = "rate-sweep"
    nominal_pass_s = 1.0
    trace_passes = 3

    def __init__(self, seed: int, expected: Dict[str, dict]):
        self.seed = seed
        self.expected = expected
        self.studies: Dict[str, tuple] = {}
        self.first_rows: Dict[str, tuple] = {}
        self.setup_problems: List[str] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.studies = {}
        for label, (tree, query, bounds) in _trees().items():
            study = SweepStudy(tree)
            study.skeleton  # conversion, aggregation and the skeleton build
            nominal = dict(tree.parameters)
            samples = stratified_samples(rng, nominal, ROWS[label])
            self.studies[label] = (tree, study, query, bounds, samples)
        self.first_rows = {}
        # Warm each tree's kernel path on its nominal rates; check the pins.
        self.setup_problems = []
        for label, (tree, study, query, bounds, _samples) in self.studies.items():
            result = study.run(
                RateSweep(query, [dict(tree.parameters)]), processes=1, gradients=bounds
            )
            problem = self._check_pin(label, result.rows[0])
            if problem:
                self.setup_problems.append(f"{label} nominal: {problem}")

    def _check_pin(self, label: str, row):
        pin = self.expected[label]
        measure = row.measures[0]
        if row.error is not None or measure.error is not None:
            return f"error {row.error or measure.error}"
        for field in ("values", "lower", "upper"):
            if field in pin:
                got = getattr(measure, field)
                for index, expected in pin[field].items():
                    actual = got[int(index)]
                    if not math.isclose(actual, expected, rel_tol=pin["rel_tol"], abs_tol=0.0):
                        return f"{field}[{index}] {actual!r} != {expected!r} ({pin['source']})"
        return None

    def sweep(self, label: str):
        _tree, study, query, bounds, samples = self.studies[label]
        return study.run(RateSweep(query, samples), processes=1, gradients=bounds)

    def run_pass(self, index: int, tracer=None) -> PassRecord:
        record = PassRecord(wall_s=0.0)
        pass_start = time.perf_counter()
        for label, (_tree, _study, _query, bounds, _samples) in self.studies.items():
            start = time.perf_counter()
            try:
                result = self.sweep(label)
            except Exception:  # noqa: BLE001 - a crashing sweep fails its rows
                record.steps[label] = time.perf_counter() - start
                record.attempted += ROWS[label]
                record.failed += ROWS[label]
                record.problems.append(f"{label}: {traceback.format_exc()}")
                continue
            record.steps[label] = time.perf_counter() - start
            for row_index, row in enumerate(result.rows):
                record.latencies[(label, row_index)] = row.wall_seconds
                record.attempted += 1
                problem = check_row(row, bounds)
                if problem:
                    record.failed += 1
                    record.problems.append(f"{label}[{row_index}]: {problem}")
            if label not in self.first_rows:
                self.first_rows[label] = result.rows
        record.wall_s = time.perf_counter() - pass_start
        return record

    def verify(self) -> List[str]:
        """Recompute one seeded row per tree on the cold full pipeline."""
        problems = list(self.setup_problems)
        rng = random.Random(self.seed + 1)
        for label, rows in self.first_rows.items():
            tree, _study, query, bounds, _samples = self.studies[label]
            row = rows[rng.randrange(len(rows))]
            reference = Study(substitute_parameters(tree, row.sample)).evaluate(query)
            expected = reference.measures[0]
            got = row.measures[0]
            pairs = (
                zip(got.lower + got.upper, expected.lower + expected.upper)
                if bounds
                else zip(got.values, expected.values)
            )
            worst = max(abs(a - b) for a, b in pairs)
            # Kernel and reference share the uniformisation truncation
            # tolerance; the CTMDP engines differ by up to that much.
            if worst > (1e-8 if bounds else 1e-9):
                problems.append(f"{label} sample {row.sample}: off the full pipeline by {worst:.3g}")
        return problems
