"""The aggregation pipeline used after every composition step.

The paper's compositional aggregation interleaves parallel composition with
state-space reduction.  This module wires the individual reductions into a
single :func:`aggregate` entry point:

1. restriction to reachable states,
2. maximal progress (urgency) pruning,
3. removal of internal self-loops,
4. compression of deterministic internal transitions (vanishing states whose
   only behaviour is a single internal step),
5. bisimulation minimisation (weak by default, strong as a cross-check),
6. another reachability restriction.

Every step preserves the reliability measures computed by the analysis layer;
the pipeline records before/after statistics so benchmarks can report the
"largest intermediate model" figures from Section 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ModelError
from .bisimulation import ALGORITHMS, minimize_strong, minimize_weak
from .maximal_progress import apply_maximal_progress
from .model import IOIMC
from .partition import DEFAULT_RATE_DIGITS


@dataclass
class AggregationOptions:
    """Configuration of the aggregation pipeline.

    Attributes
    ----------
    method:
        ``"weak"`` (paper default), ``"strong"``, ``"tau"`` (only steps 1-4) or
        ``"none"`` (reachability restriction only).
    urgent_outputs:
        Whether output actions make a state urgent for maximal progress
        (I/O-IMC semantics; ``True`` in the paper).
    respect_labels:
        Keep differently labelled states apart during minimisation.
    minimiser:
        Bisimulation refinement engine: ``"closure"`` (default, saturation-free
        closure-then-strong refinement with batched frontiers),
        ``"splitter"`` (per-splitter partition refinement on the tau-SCC
        condensation) or ``"signature"`` (the seed signature-refinement
        reference).  All three compute identical quotients.
    rate_digits:
        Significant digits compared when two aggregate Markovian rates are
        tested for equality during refinement (default
        :data:`~repro.ioimc.partition.DEFAULT_RATE_DIGITS`); all engines
        honour the same precision.
    minimisation_processes:
        Worker processes for intra-minimisation multi-core (1 = serial).
        Connected components of the transition graph refine in parallel; a
        single-component model — every reachability-restricted product of one
        root — always refines serially, so this only pays off on disconnected
        scenario unions.
    """

    method: str = "weak"
    urgent_outputs: bool = True
    respect_labels: bool = True
    minimiser: str = "closure"
    rate_digits: int = DEFAULT_RATE_DIGITS
    minimisation_processes: int = 1

    def __post_init__(self) -> None:
        if self.method not in {"weak", "strong", "tau", "none"}:
            raise ModelError(f"unknown aggregation method {self.method!r}")
        if self.minimiser not in ALGORITHMS:
            raise ModelError(
                f"unknown minimiser {self.minimiser!r}; choose one of {ALGORITHMS}"
            )
        if not isinstance(self.rate_digits, int) or self.rate_digits < 1:
            raise ModelError(
                f"rate_digits must be a positive integer, got {self.rate_digits!r}"
            )
        if int(self.minimisation_processes) < 1:
            raise ModelError(
                "minimisation_processes must be >= 1, got "
                f"{self.minimisation_processes!r}"
            )


@dataclass
class AggregationStatistics:
    """Size of a model before and after one aggregation call."""

    states_before: int = 0
    transitions_before: int = 0
    states_after: int = 0
    transitions_after: int = 0

    @property
    def state_reduction(self) -> float:
        """Fraction of states removed (0.0 if the model was already minimal)."""
        if self.states_before == 0:
            return 0.0
        return 1.0 - self.states_after / self.states_before


def remove_internal_self_loops(model: IOIMC) -> IOIMC:
    """Drop internal transitions from a state to itself.

    Weak bisimulation (and every measure we compute) is insensitive to internal
    self-loops; removing them keeps later reductions simple and avoids
    spurious "unstable" states.  Returns ``model`` itself when it has no
    internal self-loop, otherwise a new model.
    """
    internal = model.signature.internal_ids
    itrans = model._itrans
    looping = [
        state
        for state in model.states()
        if any(target == state and aid in internal for aid, target in itrans[state])
    ]
    if not looping:
        return model
    cleaned = model.copy()
    for state in looping:
        cleaned._set_interactive_raw(
            state,
            [
                (aid, target)
                for aid, target in itrans[state]
                if target != state or aid not in internal
            ],
        )
    return cleaned


def compress_deterministic_tau(model: IOIMC) -> IOIMC:
    """Eliminate states whose only behaviour is a single internal transition.

    Such states are vanishing (no time is spent in them) and deterministic, so
    redirecting their incoming transitions to their unique successor is weak
    bisimulation preserving.  Chains of such states collapse in one pass.
    """
    internal = model.signature.internal_ids
    mtrans = model._mtrans
    forward: Dict[int, int] = {}
    for state, pairs in enumerate(model._itrans):
        if len(pairs) != 1:
            continue
        aid, target = pairs[0]
        if aid in internal and target != state and not mtrans[state]:
            forward[state] = target

    if not forward:
        return model

    # A cycle of deterministic internal transitions (a divergence) cannot be
    # compressed away entirely: keep one representative per cycle (its
    # smallest member) so that every forwarding chain terminates in a kept
    # state.  ``forward`` is a functional graph, so each walk stops at a kept
    # state, at a state an earlier walk finished (no new cycle) or at a state
    # of its own path (a new cycle); every state is walked once.
    finished: Set[int] = set()
    for start in list(forward):
        if start in finished:
            continue
        path: List[int] = []
        on_path: Set[int] = set()
        state = start
        while state in forward and state not in finished and state not in on_path:
            on_path.add(state)
            path.append(state)
            state = forward[state]
        if state in on_path:
            del forward[min(path[path.index(state):])]
        finished.update(path)

    # Resolve every state to the kept state its chain ends in, memoising the
    # whole walked path so no chain is walked twice.
    resolved = list(model.states())
    for start in forward:
        if resolved[start] != start:
            continue  # already resolved as part of an earlier walk
        path = []
        state = start
        while state in forward and resolved[state] == state:
            path.append(state)
            state = forward[state]
        end = resolved[state]
        for member in path:
            resolved[member] = end

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


def aggregate(
    model: IOIMC,
    options: Optional[AggregationOptions] = None,
) -> tuple[IOIMC, AggregationStatistics]:
    """Run the full aggregation pipeline on ``model``.

    Returns the reduced model together with before/after statistics.
    """
    options = options or AggregationOptions()
    stats = AggregationStatistics(
        states_before=model.num_states,
        transitions_before=model.num_transitions,
    )

    reduced = model.restrict_to_reachable()
    if options.method != "none":
        # The individual reductions can enable each other (e.g. quotienting may
        # create a deterministic internal chain that can then be compressed),
        # so the sequence is iterated until a fixpoint is reached; the bound
        # of ten rounds is purely defensive.  The final round is a genuine
        # confirmation, not a formality: ``minimize_weak`` is *not*
        # idempotent on its own weak quotients.  On the benchmark ladder
        # (CAS, CPS, cascaded PANDs, the race bank, a 16-event random tree)
        # 10 of 180 weak minimisations whose input equalled the previous
        # round's output shrank it again, e.g. a cascaded-PAND(4, 6) step
        # from 105 to 31 states, and the signature and closure engines agree
        # on those partitions.  Do not skip the confirming minimisation on
        # the assumption that a quotient is already minimal; the test-suite
        # pins that the loop's result *is* a fixpoint of one more round.
        #
        # ``reduced`` is restricted to its reachable states at the top of every
        # round, and each pass returns its input object when it has nothing
        # to remove, so a restriction is only re-run after a pass that
        # actually changed the model.
        for _round in range(10):
            size_before = (reduced.num_states, reduced.num_transitions)
            passed = apply_maximal_progress(reduced, urgent_outputs=options.urgent_outputs)
            passed = remove_internal_self_loops(passed)
            passed = compress_deterministic_tau(passed)
            if passed is not reduced:
                reduced = passed.restrict_to_reachable()
            if options.method == "weak":
                reduced = minimize_weak(
                    reduced,
                    respect_labels=options.respect_labels,
                    algorithm=options.minimiser,
                    rate_digits=options.rate_digits,
                    processes=options.minimisation_processes,
                )
            elif options.method == "strong":
                reduced = minimize_strong(
                    reduced,
                    respect_labels=options.respect_labels,
                    algorithm=options.minimiser,
                    rate_digits=options.rate_digits,
                    processes=options.minimisation_processes,
                )
            # re-run maximal progress: quotienting may have exposed new urgency
            passed = apply_maximal_progress(reduced, urgent_outputs=options.urgent_outputs)
            if passed is not reduced:
                reduced = passed.restrict_to_reachable()
            if (reduced.num_states, reduced.num_transitions) == size_before:
                break

    reduced.name = model.name
    stats.states_after = reduced.num_states
    stats.transitions_after = reduced.num_transitions
    return reduced, stats
