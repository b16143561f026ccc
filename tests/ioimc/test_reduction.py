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


def _tau_chain(length: int) -> IOIMC:
    """``s0 -tau-> s1 -tau-> ... -tau-> s_{n-1}``, the last state failed."""
    model = IOIMC("long-chain", signature(internals=["tau"]))
    for index in range(length):
        model.add_state(
            labels=["failed"] if index == length - 1 else [], initial=index == 0
        )
    for index in range(length - 1):
        model.add_interactive(index, "tau", index + 1)
    return model


def _random_tau_model(seed: int, num_states: int = 25) -> IOIMC:
    """Deterministic tau chains, tau cycles (divergences), branching states,
    Markovian and visible transitions, drawn from ``seed``."""
    import random

    rng = random.Random(seed)
    model = IOIMC(
        f"random-chains-{seed}",
        signature(inputs=["in"], outputs=["out"], internals=["tau"]),
    )
    for index in range(num_states):
        model.add_state(labels=rng.choice(([], ["failed"])), initial=index == 0)
    for state in range(num_states):
        kind = rng.random()
        if kind < 0.55:  # deterministic tau step (often into a chain or cycle)
            model.add_interactive(state, "tau", rng.randrange(num_states))
        elif kind < 0.75:
            model.add_markovian(state, rng.choice([0.5, 1.0, 2.0]), rng.randrange(num_states))
            model.add_markovian(state, 3.0, rng.randrange(num_states))
        else:
            for _ in range(rng.randint(1, 3)):
                model.add_interactive(
                    state, rng.choice(["tau", "in", "out"]), rng.randrange(num_states)
                )
    return model


class TestCompressionIsLinear:
    """``compress_deterministic_tau`` memoises its chain walks: the result is
    the simple re-walking version's, and a 10^5-state chain compresses fast."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_on_random_chains_and_cycles(self, seed):
        from tests.reduction_reference import (
            compress_deterministic_tau_reference,
            exact_record,
        )

        model = _random_tau_model(seed)
        assert exact_record(compress_deterministic_tau(model)) == exact_record(
            compress_deterministic_tau_reference(model)
        )

    def test_cycle_keeps_its_smallest_member(self):
        model = IOIMC("cycle", signature(outputs=["out"], internals=["tau"]))
        for index in range(5):
            model.add_state(initial=index == 0)
        # 0 -> 3 -> 4 -> 2 -> 3 (cycle {2, 3, 4}); 1 -out-> 0
        for source, target in [(0, 3), (3, 4), (4, 2), (2, 3)]:
            model.add_interactive(source, "tau", target)
        model.add_interactive(1, "out", 0)
        compressed = compress_deterministic_tau(model)
        assert [compressed.state_name(s) for s in compressed.states()] == ["1", "2"]
        assert compressed.initial == 1

    def test_hundred_thousand_state_chain(self):
        import time

        model = _tau_chain(100_000)
        start = time.perf_counter()
        compressed = compress_deterministic_tau(model)
        elapsed = time.perf_counter() - start
        assert compressed.num_states == 1
        assert compressed.labels(compressed.initial) == frozenset({"failed"})
        # Linear: well under a second on a laptop core; the quadratic walk
        # took minutes at this length.
        assert elapsed < 10.0


def _snapshot(model: IOIMC):
    return (model.name, _structure(model), tuple(model._state_names))


class TestNoOpPassesReturnTheirInput:
    """A reduction pass with nothing to remove hands back its input object; a
    pass that removes something returns a new model and leaves the input as
    it was."""

    def _stable_model(self) -> IOIMC:
        model = IOIMC("stable", signature(inputs=["in"], outputs=["out"], internals=["tau"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        s2 = model.add_state(labels=["failed"])
        model.add_markovian(s0, 1.0, s1)
        model.add_interactive(s1, "tau", s2)
        model.add_interactive(s0, "in", s2)
        return model

    def test_maximal_progress(self):
        from repro.ioimc import apply_maximal_progress

        model = self._stable_model()
        assert apply_maximal_progress(model) is model
        assert apply_maximal_progress(model, name="stable") is model
        renamed = apply_maximal_progress(model, name="other")
        assert renamed is not model and renamed.name == "other"
        model.add_interactive(0, "out", 1)  # s0 becomes urgent
        before = _snapshot(model)
        pruned = apply_maximal_progress(model)
        assert pruned is not model
        assert not pruned.markovian_dict(0)
        assert _snapshot(model) == before

    def test_internal_self_loops(self):
        model = self._stable_model()
        assert remove_internal_self_loops(model) is model
        model.add_interactive(2, "tau", 2)
        before = _snapshot(model)
        cleaned = remove_internal_self_loops(model)
        assert cleaned is not model
        assert cleaned.interactive_pairs(2) == []
        assert _snapshot(model) == before

    def test_restrict_to_reachable(self):
        model = self._stable_model()
        assert model.restrict_to_reachable() is model
        assert model.restrict_to_reachable(model.name) is model
        assert model.restrict_to_reachable("renamed") is not model
        model.add_state(labels=["orphan"])
        before = _snapshot(model)
        restricted = model.restrict_to_reachable()
        assert restricted is not model and restricted.num_states == 3
        assert _snapshot(model) == before

    def test_compress_deterministic_tau(self):
        model = self._stable_model()
        model.add_interactive(2, "out", 0)
        model.add_interactive(1, "out", 0)  # s1 branches: nothing to compress
        assert compress_deterministic_tau(model) is model
        compressed = compress_deterministic_tau(_tau_chain(4))
        assert compressed.num_states == 1


class TestAggregateLeavesItsArgumentAlone:
    @pytest.mark.parametrize("method", ["weak", "strong", "tau", "none"])
    def test_hand_built_models(self, method):
        options = AggregationOptions(method=method)
        for model in (chain_with_taus(), _tau_chain(6), _random_tau_model(3)):
            before = _snapshot(model)
            reduced, _ = aggregate(model, options)
            assert _snapshot(model) == before
            again, _ = aggregate(reduced, options)
            assert _snapshot(model) == before

    def test_every_intermediate_model_of_cas(self, monkeypatch):
        from repro.systems import cardiac_assist_system

        models = _intermediate_models(cardiac_assist_system(), monkeypatch)
        for model, options in models:
            before = _snapshot(model)
            aggregate(model, options)
            assert _snapshot(model) == before
