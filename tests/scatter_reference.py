"""Test-local ``np.add.at`` references for the kernel's scatter products.

The uniformisation kernel sums edge values into states (exit rates, the
gradient scatter) through a constant source-incidence matrix and into CSR
slots through ``np.bincount``.  Both must stay bit-identical to the plain
``np.add.at`` scatters they replaced; these helpers keep those scatters so
the tests can compare byte for byte.
"""

from __future__ import annotations

import random

import numpy as np

from repro.ctmc.builders import CtmdpSkeleton
from repro.ioimc.rates import ParametricRate


class AddAtScatter:
    """Drop-in for ``CsrBuffer._incidence``: ``self @ x`` by ``np.add.at``."""

    def __init__(self, buffer):
        self.sources = buffer._sources
        self.num_states = buffer.skeleton.num_states

    def __matmul__(self, values):
        out = np.zeros((self.num_states,) + np.shape(values)[1:])
        np.add.at(out, self.sources, values)
        return out


def reference_refill(buffer, rate):
    """``(exit rates, CSR data, dense matrix or None)`` of the buffer's last
    evaluated edge values under ``rate``, all scattered with ``np.add.at``."""
    values = buffer._edge_values
    num_states = buffer.skeleton.num_states
    exit_rates = np.zeros(num_states)
    np.add.at(exit_rates, buffer._sources, values)
    data = np.zeros(len(buffer.matrix.data))
    np.add.at(data, buffer._slots, values)
    data /= rate
    data[buffer._diag] = 1.0 - exit_rates / rate
    dense = None
    if buffer.dense is not None:
        flat = np.zeros(num_states * num_states)
        np.add.at(flat, buffer._sources * num_states + buffer._targets, values)
        flat /= rate
        flat[np.arange(num_states) * (num_states + 1)] = data[buffer._diag]
        dense = flat.reshape(num_states, num_states)
    return exit_rates, data, dense


def random_ctmdp_skeleton(seed: int, num_states: int = 40) -> CtmdpSkeleton:
    """A seeded CTMDP skeleton with parametric rates, vanishing choices and
    repeated ``(source, target)`` edges (which a scatter must accumulate)."""
    rng = random.Random(seed)
    params = ("p0", "p1", "p2")
    goal = {num_states - 1, num_states - 2}
    vanishing = set(rng.sample(range(1, num_states - 2), num_states // 6))
    choices = []
    edges = []
    for state in range(num_states):
        if state in vanishing:
            choices.append(tuple(sorted(rng.sample([t for t in range(num_states) if t != state], 2))))
            continue
        choices.append(())
        if state in goal:
            continue
        targets = [rng.choice([t for t in range(num_states) if t != state]) for _ in range(3)]
        targets.append(targets[0])  # a duplicate edge on every tangible state
        for target in targets:
            name = rng.choice(params)
            rate = ParametricRate(
                rng.uniform(0.0, 0.5),
                {name: rng.uniform(0.5, 2.0)},
                {name: rng.uniform(0.2, 3.0)},
            )
            edges.append((state, target, rate if rng.random() < 0.7 else rng.uniform(0.1, 2.0)))
    rng.shuffle(edges)  # interleave sources so edge order is not row order
    return CtmdpSkeleton(
        num_states=num_states,
        initial=0,
        labels=tuple(frozenset({"failed"}) if s in goal else frozenset() for s in range(num_states)),
        choices=tuple(choices),
        edges=tuple(edges),
    )
