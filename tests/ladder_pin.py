"""Recorder of the cold-ladder pin: per-rung composition steps and final model.

The cold-ladder benchmark analyses six trees (CAS, CPS, cascaded PANDs, the
PAND race bank and a random tree) from Galileo text.  For each of them this
module records the :class:`~repro.core.aggregation.CompositionStep` list and
the SHA-256 digest of the final aggregated I/O-IMC's exact record — states,
labels, names, every interactive pair (sorted by action name) and every
Markovian rate (in adjacency order, as an exact ``float.hex``) — so a change
to the aggregation pipeline can be checked to leave every number
bit-identical.
``tests/core/test_ladder_pin.py`` compares against the JSON file written
by::

    PYTHONPATH=src python tests/ladder_pin.py tests/data/ladder_pin.json

Only re-record on purpose, after a change that is meant to alter the
pipeline's output, and update the ``provenance`` entry when doing so.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Callable, Dict

from repro.core import Study
from repro.dft import galileo
from repro.ioimc import IOIMC
from repro.ioimc.actions import ACTIONS
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_family,
    cascaded_pand_system,
    pand_race_bank,
    random_dft,
)

#: The cold-ladder rungs (same factories as the benchmark's).
RUNGS: Dict[str, Callable] = {
    "cas": cardiac_assist_system,
    "cps": cascaded_pand_system,
    "cpand3x6": lambda: cascaded_pand_family(3, 6),
    "cpand4x6": lambda: cascaded_pand_family(4, 6),
    "race5": lambda: pand_race_bank(5),
    "rnd16": lambda: random_dft(16, seed=5, fdep=True, shared_spares=True),
}

PROVENANCE = (
    "Recorded at commit 138e030 (before the array-backed rate classes, the "
    "direct tau-free weak quotient and the copy-free no-op reduction passes) "
    "with `PYTHONPATH=src python tests/ladder_pin.py tests/data/ladder_pin.json`."
)


def _rate(value) -> str:
    return float(value).hex()


def model_record(model: IOIMC) -> dict:
    """Every observable part of ``model`` in a JSON-friendly, exact form."""
    name = ACTIONS.name
    return {
        "name": model.name,
        "initial": model.initial,
        "inputs": sorted(model.signature.inputs),
        "outputs": sorted(model.signature.outputs),
        "internals": sorted(model.signature.internals),
        "labels": [sorted(model.labels(state)) for state in model.states()],
        "state_names": [model.state_name(state) for state in model.states()],
        # Sorted by action name: pair order follows the process-wide action
        # ids, which depend on what else the process interned first.
        "interactive": [
            sorted([name(aid), target] for aid, target in model.interactive_pairs(state))
            for state in model.states()
        ],
        "markovian": [
            [[target, _rate(rate)] for target, rate in model.markovian_dict(state).items()]
            for state in model.states()
        ],
    }


def model_digest(model: IOIMC) -> str:
    text = json.dumps(model_record(model), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rung_record(rung: str) -> dict:
    """Composition steps and final model of one rung, parsed from Galileo text."""
    tree = galileo.parse(galileo.write(RUNGS[rung]()), name=rung)
    study = Study(tree)
    final = study.final_ioimc
    return {
        "steps": [step.to_dict() for step in study.statistics.steps],
        "final_states": final.num_states,
        "final_transitions": final.num_transitions,
        "final_sha256": model_digest(final),
    }


def record() -> dict:
    return {
        "provenance": PROVENANCE,
        "rungs": {rung: rung_record(rung) for rung in RUNGS},
    }


def dumps(pin: dict) -> str:
    """The pin as JSON text with one composition step per line."""
    lines = ["{", f' "provenance": {json.dumps(pin["provenance"])},', ' "rungs": {']
    rungs = list(pin["rungs"].items())
    for position, (rung, entry) in enumerate(rungs):
        lines.append(f"  {json.dumps(rung)}: {{")
        lines.append('   "steps": [')
        steps = [f"    {json.dumps(step)}" for step in entry["steps"]]
        lines.append(",\n".join(steps))
        lines.append("   ],")
        fields = [key for key in entry if key != "steps"]
        lines.append(",\n".join(f"   {json.dumps(key)}: {json.dumps(entry[key])}" for key in fields))
        lines.append("  }" + ("," if position < len(rungs) - 1 else ""))
    lines.extend([" }", "}"])
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        handle.write(dumps(record()))
