"""Maximal progress (urgency) pruning for I/O-IMC.

Output and internal actions of an I/O-IMC are *immediate*: a state with an
enabled locally-controlled transition never lets time pass, hence its Markovian
transitions can never fire.  Removing those Markovian transitions ("maximal
progress" in the Interactive Markov Chain literature) is the first step of
every aggregation pipeline: it is measure-preserving and it enables further
reductions such as the elimination of vanishing states.
"""

from __future__ import annotations

from typing import Optional

from .model import IOIMC


def apply_maximal_progress(
    model: IOIMC, urgent_outputs: bool = True, name: Optional[str] = None
) -> IOIMC:
    """``model`` without Markovian transitions in urgent states.

    Returns ``model`` itself when no urgent state has a Markovian transition
    (and ``name`` is absent or already the model's name), otherwise a new
    model; the input is never modified.

    Parameters
    ----------
    urgent_outputs:
        If ``True`` (the I/O-IMC semantics used by the paper) output actions
        are urgent as well; if ``False`` only internal actions make a state
        urgent (the classical open-IMC rule).
    """
    signature = model.signature
    urgent_mask = signature.urgent_mask if urgent_outputs else signature.internal_mask
    mtrans = model._mtrans
    enabled_mask = model.enabled_mask
    urgent = [
        state
        for state in model.states()
        if mtrans[state] and enabled_mask(state) & urgent_mask
    ]
    if not urgent and (name is None or name == model.name):
        return model
    pruned = model.copy(name)
    for state in urgent:
        pruned._set_markovian_raw(state, {})
    return pruned


def count_pruned_transitions(model: IOIMC, urgent_outputs: bool = True) -> int:
    """Number of Markovian transitions that maximal progress would remove."""
    removed = 0
    for state in model.states():
        urgent = model.is_urgent(state) if urgent_outputs else not model.is_stable(state)
        if urgent:
            removed += len(model.markovian_dict(state))
    return removed
