"""Tests for the aggregation pipeline (reduction module)."""

import pytest

from repro.errors import ModelError
from repro.ioimc import (
    AggregationOptions,
    IOIMC,
    aggregate,
    compress_deterministic_tau,
    remove_internal_self_loops,
    signature,
)


def chain_with_taus() -> IOIMC:
    model = IOIMC("chain", signature(outputs=["done"], internals=["tau"]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state()
    s2 = model.add_state()
    s3 = model.add_state(labels=["failed"])
    model.add_markovian(s0, 2.0, s1)
    model.add_interactive(s1, "tau", s2)
    model.add_interactive(s2, "done", s3)
    model.add_interactive(s3, "tau", s3)  # internal self loop
    return model


class TestHelpers:
    def test_remove_internal_self_loops(self):
        cleaned = remove_internal_self_loops(chain_with_taus())
        assert all(
            target != state
            for state in cleaned.states()
            for action, target in cleaned.interactive_out(state)
        )

    def test_compress_deterministic_tau(self):
        compressed = compress_deterministic_tau(chain_with_taus())
        # s1 (single tau to s2) disappears.
        assert compressed.num_states == 3

    def test_compression_redirects_markovian_sources(self):
        compressed = compress_deterministic_tau(chain_with_taus())
        # The Markovian transition from the initial state now goes straight to
        # the state offering "done".
        (rate, target), = list(compressed.markovian_out(compressed.initial))
        assert rate == pytest.approx(2.0)
        assert "done" in compressed.actions_enabled(target)

    def test_compression_moves_initial_state(self):
        model = IOIMC("init", signature(internals=["tau"], outputs=["x"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        model.add_interactive(s0, "tau", s1)
        model.add_interactive(s1, "x", s1)
        compressed = compress_deterministic_tau(model)
        assert compressed.num_states == 1
        assert "x" in compressed.actions_enabled(compressed.initial)

    def test_compression_keeps_branching_taus(self):
        model = IOIMC("branch", signature(internals=["tau"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        s2 = model.add_state()
        model.add_interactive(s0, "tau", s1)
        model.add_interactive(s0, "tau", s2)
        compressed = compress_deterministic_tau(model)
        assert compressed.num_states == 3  # non-deterministic choice preserved


class TestAggregate:
    def test_weak_pipeline_reduces(self):
        reduced, stats = aggregate(chain_with_taus())
        assert reduced.num_states <= 3
        assert stats.states_before == 4
        assert stats.states_after == reduced.num_states
        assert 0.0 <= stats.state_reduction <= 1.0

    def test_strong_pipeline(self):
        reduced, _ = aggregate(chain_with_taus(), AggregationOptions(method="strong"))
        assert reduced.num_states <= 3

    def test_tau_only_pipeline(self):
        reduced, _ = aggregate(chain_with_taus(), AggregationOptions(method="tau"))
        assert reduced.num_states <= 4

    def test_none_pipeline_only_restricts_reachability(self):
        model = chain_with_taus()
        model.add_state(name="orphan")
        reduced, stats = aggregate(model, AggregationOptions(method="none"))
        assert reduced.num_states == 4
        assert stats.states_before == 5

    def test_unknown_method_rejected(self):
        with pytest.raises(ModelError):
            AggregationOptions(method="magic")

    def test_aggregation_keeps_name(self):
        model = chain_with_taus()
        reduced, _ = aggregate(model)
        assert reduced.name == model.name

    def test_statistics_reduction_zero_for_empty_model(self):
        stats_model = IOIMC("one", signature())
        stats_model.add_state(initial=True)
        reduced, stats = aggregate(stats_model)
        assert reduced.num_states == 1
        assert stats.state_reduction == 0.0


def _structure(model: IOIMC):
    """Everything but the name: initial state, labels and both transition kinds."""
    states = model.states()
    return (
        model.initial,
        model.signature,
        tuple(tuple(sorted(model.labels(state))) for state in states),
        tuple(tuple(sorted(model.interactive_out(state))) for state in states),
        tuple(tuple(sorted(model.markovian_out(state))) for state in states),
    )


def _intermediate_models(tree, monkeypatch):
    """Every model the compositional pipeline hands to ``aggregate`` for ``tree``."""
    import repro.core.aggregation as aggregation_engine
    import repro.core.conversion as conversion
    from repro.core import Study

    seen = []

    def recording(model, options=None):
        seen.append((model.copy(), options))
        return aggregate(model, options)

    monkeypatch.setattr(aggregation_engine, "aggregate", recording)
    monkeypatch.setattr(conversion, "aggregate", recording)
    Study(tree).final_ioimc
    return seen


class TestAggregateFixpoint:
    """``aggregate`` iterates to a fixpoint although ``minimize_weak`` is not
    idempotent on its own quotients (see the comment in ``aggregate``): one
    more aggregation round must leave its result structurally unchanged."""

    @pytest.mark.parametrize("system", ["cas", "cpand4x6", "race5"])
    def test_one_more_round_is_a_no_op(self, system, monkeypatch):
        from repro.systems import cardiac_assist_system, cascaded_pand_family, pand_race_bank

        tree = {
            "cas": cardiac_assist_system,
            "cpand4x6": lambda: cascaded_pand_family(4, 6),
            "race5": lambda: pand_race_bank(5),
        }[system]()
        models = _intermediate_models(tree, monkeypatch)
        assert len(models) > 10
        for model, options in models:
            reduced, _ = aggregate(model, options)
            again, _ = aggregate(reduced, options)
            assert _structure(again) == _structure(reduced)
