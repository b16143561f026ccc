"""Output checks: every op's result is compared before it counts as done."""

from __future__ import annotations

import math
from typing import Optional, Sequence


def _close(actual: float, expected: float, check: dict) -> bool:
    if "abs_tol" in check:
        return abs(actual - expected) <= check["abs_tol"]
    return math.isclose(actual, expected, rel_tol=check["rel_tol"], abs_tol=0.0)


def check_value(measure, pin: dict) -> Optional[str]:
    """``None`` if ``measure`` (a ``MeasureResult``) meets every check of
    ``pin`` (an ``expected.json`` entry), else what went wrong."""
    if measure.error is not None:
        return f"measure error: {measure.error}"
    if measure.kind != pin["measure"]:
        return f"measure kind {measure.kind!r} != {pin['measure']!r}"
    for check in pin["checks"]:
        if "value" in check:
            pairs = [(measure.values[0], check["value"])]
        else:
            pairs = [(measure.lower[0], check["lower"]), (measure.upper[0], check["upper"])]
        for actual, expected in pairs:
            if not _close(actual, expected, check):
                return f"{actual!r} != {expected!r} ({check['source']})"
    return None


def check_curve(values: Sequence[float], slack: float = 1e-12) -> Optional[str]:
    """An unreliability curve over ascending times: finite, in [0, 1], and
    non-decreasing (to ``slack``)."""
    previous = 0.0
    for value in values:
        if not (math.isfinite(value) and -slack <= value <= 1.0 + slack):
            return f"unreliability {value!r} outside [0, 1]"
        if value < previous - slack:
            return f"unreliability decreases ({previous!r} -> {value!r})"
        previous = value
    return None


def check_bounds(lower: Sequence[float], upper: Sequence[float]) -> Optional[str]:
    """A (min, max) bound pair: each a valid curve, lower below upper."""
    problem = check_curve(lower) or check_curve(upper)
    if problem:
        return problem
    for low, high in zip(lower, upper):
        if low > high + 1e-12:
            return f"lower bound {low!r} above upper bound {high!r}"
    return None
