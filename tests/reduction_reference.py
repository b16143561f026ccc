"""Test-local scalar references for the reduction and minimisation hot paths.

* :class:`ScalarRateClasses` is the per-unit rate-vector bucketing the weak
  engines did before their rate classes became array-backed: a dict
  accumulation of each stable unit's rates into the other blocks, one
  :func:`~repro.ioimc.partition.canonical_rate` call per sum, a frozenset
  key per unit.  The engines must reach the same class assignment, with the
  same class ids and the same re-enqueued splitters, at every flush.
* :func:`compress_deterministic_tau_reference` is the straightforward
  (quadratic on long chains) deterministic-tau compression that re-walks
  every forwarding chain from every start state; the production pass
  memoises the walks and must return the same model.
* :func:`random_weak_model` and :func:`random_tau_free_model` draw seeded
  models that exercise them: stable hubs with edges to many states of one
  block (long float sums), twins with the same out-edges in another order,
  tau chains and cycles, parametric rates.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ioimc import IOIMC, signature
from repro.ioimc.partition import canonical_rate
from repro.ioimc.rates import ParametricRate


class ScalarRateClasses:
    """Shadow rate-class bookkeeping of one weak engine, one unit at a time."""

    def __init__(self, engine):
        self.engine = engine
        self.class_of: Dict[int, int] = {}
        self.class_members: List[set] = []
        self.class_by_key: Dict[FrozenSet[Tuple[int, object]], int] = {}
        #: Every raw (un-canonicalised) rate sum computed so far.
        self.sums: List[object] = []

    def vector_key(self, unit: int) -> FrozenSet[Tuple[int, object]]:
        """Canonical rate vector of a stable unit under the current partition."""
        engine = self.engine
        state = engine.unit_states[unit][0]  # stable units are singletons
        own_block = engine.part.block_of(unit)
        rates: Dict[int, object] = {}
        for target, rate in engine.model.markovian_dict(state).items():
            block = engine.part.block_of(engine.unit_of_state[target])
            if block == own_block:
                continue  # ordinary lumpability: ignore intra-class rates
            rates[block] = rates.get(block, 0.0) + rate
        self.sums.extend(rates.values())
        return frozenset(
            (block, canonical_rate(total, engine.rate_digits))
            for block, total in rates.items()
        )

    def assign(self, unit: int) -> Optional[Tuple[int, ...]]:
        """(Re)bucket a stable unit by rate vector; return the changed classes."""
        key = self.vector_key(unit)
        new_class = self.class_by_key.get(key)
        if new_class is None:
            new_class = len(self.class_members)
            self.class_members.append(set())
            self.class_by_key[key] = new_class
        old_class = self.class_of.get(unit)
        if old_class == new_class:
            return None
        self.class_of[unit] = new_class
        self.class_members[new_class].add(unit)
        if old_class is None:
            return (new_class,)
        self.class_members[old_class].discard(unit)
        return (old_class, new_class)


def compress_deterministic_tau_reference(model: IOIMC) -> IOIMC:
    """Deterministic-tau compression, re-walking every chain from every start."""
    internal = model.signature.internal_ids
    forward: Dict[int, int] = {}
    for state in model.states():
        pairs = model.interactive_pairs(state)
        if len(pairs) != 1:
            continue
        aid, target = pairs[0]
        if aid in internal and target != state and not model.markovian_dict(state):
            forward[state] = target
    if not forward:
        return model

    for start in list(forward):
        if start not in forward:
            continue
        path = []
        on_path = {}
        state = start
        while state in forward and state not in on_path:
            on_path[state] = len(path)
            path.append(state)
            state = forward[state]
        if state in on_path:  # a cycle: keep its smallest member
            del forward[min(path[on_path[state]:])]

    def resolve(state: int) -> int:
        while state in forward:
            state = forward[state]
        return state

    resolved = {state: resolve(state) for state in model.states()}
    keep = sorted(state for state in model.states() if state not in forward)
    remap = {old: new for new, old in enumerate(keep)}
    compressed = IOIMC(model.name, model.signature)
    for old in keep:
        compressed.add_state(labels=model.labels(old), name=model.state_name(old))
    for old in keep:
        new = remap[old]
        pairs: List[Tuple[int, int]] = []
        for aid, target in model.interactive_pairs(old):
            pair = (aid, remap[resolved[target]])
            if pair not in pairs:
                pairs.append(pair)
        compressed._set_interactive_raw(new, pairs)
        rates: Dict[int, float] = {}
        for target, rate in model.markovian_dict(old).items():
            resolved_target = remap[resolved[target]]
            rates[resolved_target] = rates.get(resolved_target, 0.0) + rate
        compressed._set_markovian_raw(new, rates)
    compressed.set_initial(remap[resolved[model.initial]])
    return compressed


def exact_record(model: IOIMC) -> tuple:
    """Everything observable of ``model``, rates compared exactly by type and
    bits (``float.hex``) or by parametric structure."""

    def rate(value):
        if isinstance(value, ParametricRate):
            return ("param", value.const.hex(), tuple(sorted(
                (name, coefficient.hex()) for name, coefficient in value.coeffs.items()
            )))
        return (type(value).__name__, float(value).hex())

    return (
        model.name,
        model.signature,
        model._initial,
        tuple(model._labels),
        tuple(model._state_names),
        tuple(tuple(pairs) for pairs in model._itrans),
        tuple(
            tuple((target, rate(value)) for target, value in rates.items())
            for rates in model._mtrans
        ),
    )


#: Rates whose sums round differently in different orders (0.1 + 0.2 is not
#: 0.3) and parametric forms that must never merge with plain floats.
_FLOATS = (0.1, 0.2, 0.3, 0.7, 1.0, 1e-3, 2.5, 3.3333333333333335)


def _rate(rng: random.Random, parametric: bool):
    if parametric and rng.random() < 0.3:
        name = rng.choice(("p0", "p1"))
        return ParametricRate.for_parameter(name, {"p0": 0.5, "p1": 2.0}[name], rng.choice((1.0, 0.5)))
    return rng.choice(_FLOATS)


def random_weak_model(seed: int, num_states: int = 40, parametric: bool = False) -> IOIMC:
    """A seeded model for the weak engines.

    Internal chains and cycles make vanishing states and non-trivial tau
    SCCs; three label sets seed the partition; stable *hubs* send Markovian
    edges to 10-30 distinct states of one label class, so the first flush
    (blocks = label classes) sums long segments, where a reordered sum
    differs in the last bits; *twins*
    repeat a hub's edges in shuffled order (equal vectors, different edge
    order).
    """
    rng = random.Random(seed)
    model = IOIMC(
        f"random-weak-{seed}",
        signature(inputs=["in"], outputs=["out", "done"], internals=["tau", "tau2"]),
    )
    labels = [rng.choice(((), ("failed",), ("down",))) for _ in range(num_states)]
    for state in range(num_states):
        model.add_state(labels=labels[state], initial=state == 0)
    vanishing = set(rng.sample(range(1, num_states), num_states // 4))
    for state in sorted(vanishing):
        for _ in range(rng.randint(1, 2)):
            model.add_interactive(state, rng.choice(("tau", "tau2")), rng.randrange(num_states))
    stable = [state for state in range(num_states) if state not in vanishing]
    hubs = rng.sample(stable, max(2, len(stable) // 5))
    for hub in hubs:
        wanted = rng.choice(labels)
        targets = [s for s in range(num_states) if labels[s] == wanted and s != hub] or [0]
        for target in rng.sample(targets, min(len(targets), rng.randint(10, 30))):
            model.add_markovian(hub, _rate(rng, parametric), target)
    for hub in hubs[: len(hubs) // 2 + 1]:
        edges = list(model.markovian_dict(hub).items())
        rng.shuffle(edges)
        twin = model.add_state(labels=labels[hub])
        model._set_markovian_raw(twin, dict(edges))
        model.add_interactive(rng.choice(stable), "out", twin)
    for state in stable:
        if state in hubs:
            continue
        for _ in range(rng.randint(0, 3)):
            model.add_markovian(state, _rate(rng, parametric), rng.randrange(num_states))
        if rng.random() < 0.4:
            model.add_interactive(state, rng.choice(("in", "out", "done")), rng.randrange(num_states))
    return model


def random_tau_free_model(seed: int, num_states: int = 30, parametric: bool = False) -> IOIMC:
    """A seeded model without internal transitions (internals still declared).

    Several actions per state, explicit input self-loops and input edges
    into equivalent states (which the quotient keeps implicit), parallel
    Markovian edges into one block.
    """
    rng = random.Random(seed)
    model = IOIMC(
        f"random-tau-free-{seed}",
        signature(inputs=["in", "in2"], outputs=["out", "done"], internals=["tau"]),
    )
    for state in range(num_states):
        model.add_state(labels=rng.choice(((), ("failed",))), initial=state == 0)
    for state in range(num_states):
        for _ in range(rng.randint(0, 4)):
            model.add_interactive(
                state, rng.choice(("in", "in2", "out", "done")), rng.randrange(num_states)
            )
        if rng.random() < 0.3:
            model.add_interactive(state, "in", state)
        for _ in range(rng.randint(0, 6)):
            model.add_markovian(state, _rate(rng, parametric), rng.randrange(num_states))
    return model
