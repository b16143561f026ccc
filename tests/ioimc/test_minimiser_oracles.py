"""Oracles for the weak minimiser's array-backed rate classes and the direct
tau-free quotient.

* Every flush of the weak engines' vectorised re-bucketing must assign the
  same classes (same ids, same members, same re-enqueued splitters) as the
  scalar per-unit bucketing kept in ``tests/reduction_reference.py``, and
  must compute exactly the same raw rate sums (a sum in another order would
  differ in the last bits even where the canonical rate hides it).
* The tau-free quotient must equal the condensation-based weak quotient
  builder byte for byte: pair order, rates, labels, state names, initial
  state — on random tau-free models and on every tau-free minimisation input
  of one cold-ladder pass.
"""

from __future__ import annotations

import random

import pytest

from repro.ioimc import bisimulation
from repro.ioimc.bisimulation import (
    _WeakClosureEngine,
    _WeakEngineBase,
    _WeakSplitterEngine,
    _build_weak_quotient,
    _strong_partition_splitter,
    _tau_free_quotient,
    weak_bisimulation_partition,
)
from repro.ioimc.partition import DEFAULT_RATE_DIGITS, TauCondensation
from tests.ladder_pin import RUNGS
from tests.reduction_reference import (
    ScalarRateClasses,
    exact_record,
    random_tau_free_model,
    random_weak_model,
)


@pytest.fixture
def checked_flushes(monkeypatch):
    """Patch the engines' re-bucketing to check each flush against the scalar
    reference; returns the list of checked flush sizes."""
    flushes = []
    rebucket = _WeakEngineBase._rebucket

    def checking(engine, units, push):
        reference = engine.__dict__.get("_scalar_reference")
        if reference is None:
            reference = engine._scalar_reference = ScalarRateClasses(engine)
        expected = []
        for unit in units:
            expected.extend(("rates", cls) for cls in reference.assign(unit) or ())
        pushed = []

        def recording(splitter):
            pushed.append(splitter)
            push(splitter)

        rebucket(engine, units, recording)
        assert pushed == expected
        assert engine.class_of == reference.class_of
        assert engine.class_members == reference.class_members
        assert set(engine._rate_ids) == set(reference.sums)
        flushes.append(len(units))

    monkeypatch.setattr(_WeakEngineBase, "_rebucket", checking)
    return flushes


ENGINES = {"closure": _WeakClosureEngine, "splitter": _WeakSplitterEngine}


class TestRateClassOracle:
    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("parametric", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_flush_matches_scalar_bucketing(
        self, checked_flushes, engine, parametric, seed
    ):
        model = random_weak_model(seed, parametric=parametric)
        respect_labels = seed % 3 != 0
        partition = ENGINES[engine](
            model, respect_labels, DEFAULT_RATE_DIGITS
        ).state_partition()
        assert len(checked_flushes) >= 2  # construction plus refinement
        assert partition == weak_bisimulation_partition(
            model, respect_labels=respect_labels, algorithm="signature"
        )

    def test_models_exercise_long_sums_and_merges(self, checked_flushes):
        """The random models are not vacuous: a hub sums 10+ edges into one
        label block at the construction flush, and some class holds several
        units."""
        model = random_weak_model(0)
        longest = max(
            max(
                sum(1 for target in model.markovian_dict(state) if model.labels(target) == labels)
                for labels in {model.labels(target) for target in model.markovian_dict(state)}
            )
            for state in model.states()
            if model.markovian_dict(state)
        )
        assert longest >= 10
        engine = _WeakClosureEngine(model, True, DEFAULT_RATE_DIGITS)
        engine.state_partition()
        assert any(len(members) > 1 for members in engine.class_members)

    def test_cold_ladder_rung_flushes_match(self, checked_flushes):
        from repro.core import Study

        Study(RUNGS["cpand3x6"]()).final_ioimc
        assert sum(checked_flushes) > 1000


def _condensation_quotient(model, partition):
    return _build_weak_quotient(model, TauCondensation(model), partition)


class TestTauFreeQuotientOracle:
    @pytest.mark.parametrize("parametric", [False, True])
    @pytest.mark.parametrize("seed", range(15))
    def test_random_models(self, seed, parametric):
        model = random_tau_free_model(seed, parametric=parametric)
        partitions = [_strong_partition_splitter(model, True, DEFAULT_RATE_DIGITS)]
        # An arbitrary (non-bisimulation) partition: the builders must still
        # agree, representative by representative.
        rng = random.Random(seed)
        groups = {}
        for state in model.states():
            groups.setdefault(rng.randrange(5), set()).add(state)
        partitions.append(sorted((frozenset(g) for g in groups.values()), key=min))
        for partition in partitions:
            assert exact_record(_tau_free_quotient(model, partition)) == exact_record(
                _condensation_quotient(model, partition)
            )

    def test_every_tau_free_input_of_a_cold_ladder_pass(self, monkeypatch):
        from repro.core import Study
        from repro.dft import galileo

        checked = []

        def comparing(model, partition, name=None):
            direct = _tau_free_quotient(model, partition, name)
            assert exact_record(direct) == exact_record(
                _condensation_quotient(model, partition)
            )
            checked.append(model.num_states)
            return direct

        monkeypatch.setattr(bisimulation, "_tau_free_quotient", comparing)
        for rung, factory in RUNGS.items():
            Study(galileo.parse(galileo.write(factory()), name=rung)).final_ioimc
        assert len(checked) > 300
