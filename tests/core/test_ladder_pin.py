"""The cold-ladder rungs aggregate to exactly the recorded steps and models.

``tests/data/ladder_pin.json`` holds, per rung of the cold-ladder benchmark,
the composition-step records and the digest of the final aggregated I/O-IMC
(see ``tests/ladder_pin.py`` for what is recorded and where it came from).
Every optimisation of the compose/hide/aggregate loop must keep them equal.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from tests.ladder_pin import RUNGS, rung_record

PIN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "data" / "ladder_pin.json").read_text()
)


def test_pin_names_its_provenance():
    assert "138e030" in PIN["provenance"]
    assert set(PIN["rungs"]) == set(RUNGS)


@pytest.mark.parametrize("rung", list(RUNGS))
def test_rung_matches_pin(rung):
    expected = PIN["rungs"][rung]
    actual = rung_record(rung)
    assert actual["steps"] == expected["steps"]
    assert (actual["final_states"], actual["final_transitions"]) == (
        expected["final_states"],
        expected["final_transitions"],
    )
    assert actual["final_sha256"] == expected["final_sha256"]
