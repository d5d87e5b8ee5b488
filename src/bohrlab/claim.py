"""The paper's claim rules: the certificate, its numbered bounds, the threshold and the radius.

One definition of each rule, read by extract, verify, the certificate files
and the sweep's ``k_limit`` column alike.  The module imports only ``groups``
and ``bohr``, so the verifier reads the rules without loading the extractor
or any fast transform.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .bohr import BohrSpec
from .groups import CharTuple, Elem, GroupSpec, char_tuple, check_elem

BOUND_SLACK = 1e-9
RADIUS_SLACK = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """One recorded inequality: its achieved value against its stated limit."""

    value: float
    limit: float
    ok: bool


@dataclass(frozen=True)
class Bound:
    """One of the paper's numbered bounds: its limit as a formula of delta, its slack, floor or cap."""

    limit: Callable[[float], float]
    slack: float
    floor: bool


# The one definition of the paper's bounds, which extract records, verify audits and the sweep
# reports.  A floor holds when value >= limit - slack, a cap when value <= limit + slack.
BOUNDS = {
    "dimension": Bound(lambda delta: 16.0 * delta**-5, 0.0, floor=False),
    "witness_value": Bound(lambda delta: delta**4, BOUND_SLACK, floor=True),
    "c_lower": Bound(lambda delta: 0.5 * delta**4, BOUND_SLACK, floor=True),
    "torus_radius": Bound(lambda delta: delta**9 / (64.0 * math.pi), RADIUS_SLACK, floor=True),
    "remainder": Bound(lambda delta: 0.25 * delta**4, BOUND_SLACK, floor=False),
}


def bound_limit(name: str, delta: float) -> float:
    """The limit of bound ``name`` of :data:`BOUNDS` at ``delta``; +inf where the formula divides by zero or overflows.

    A certificate's delta is data: at 0 or below about 1e-61, 16 delta^-5 has
    no float value, and the limit is infinite, not an error.
    """
    try:
        return BOUNDS[name].limit(delta)
    except (ZeroDivisionError, OverflowError):
        return math.inf


def bound_check(name: str, value: float, delta: float) -> BoundCheck:
    """``value`` against bound ``name`` of :data:`BOUNDS` at ``delta``."""
    bound = BOUNDS[name]
    limit = bound_limit(name, delta)
    ok = value >= limit - bound.slack if bound.floor else value <= limit + bound.slack
    return BoundCheck(value, limit, ok)


def s1_threshold(delta: float) -> float:
    """The large-spectrum threshold delta^3 / 4 that S1 is read off at."""
    return 0.25 * delta**3


def radius_rule(c: float, k: int) -> float:
    """The character-form radius c / k of a level-c polynomial on k frequencies; c when k = 0."""
    return c / k if k else c


@dataclass(frozen=True, eq=False)
class Certificate:
    """Everything needed to re-verify one extraction from scratch."""

    group: GroupSpec
    delta: float
    a0: Elem
    s1: CharTuple
    c: float
    k: int
    h_at_a0: float
    bohr_char_form: BohrSpec
    bohr_torus_form: BohrSpec
    bounds: dict[str, BoundCheck]

    def __post_init__(self) -> None:
        # One array check, as BohrSpec does for its frequencies; a CharTuple is kept.
        object.__setattr__(self, "s1", char_tuple(self.group, self.s1))
        check_elem(self.group, self.a0)
