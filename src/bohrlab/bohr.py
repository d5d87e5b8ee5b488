"""Bohr sets on a finite abelian group, in two interchangeable radius forms.

A Bohr set is cut out by a finite list of frequencies and a radius.  The
torus-norm form keeps ``max_t ||pairing(t, z)|| < radius``; the
character-distance form keeps ``max_t |chi_t(z) - 1| < radius``.  Both are
symmetric neighborhoods of 0.  Converting character-distance radius eta to
torus-norm radius eta/(2*pi) always shrinks the member set (or keeps it equal),
since ``|chi(z) - 1| = 2*sin(pi*phase) <= 2*pi*||phase||``.

Membership is strict, and distances that land within a small guard band of the
radius raise :class:`AmbiguousBoundary` instead of being decided silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousBoundary, DomainError
from .groups import (
    TWO_PI,
    CharTuple,
    Elem,
    GroupSpec,
    char_tuple,
    check_elem,
    coords_table,
    pairing,
    require_within_cap,
    torus_norm,
)
from .spectral import phase_blocks

FORM_CHAR = "character-distance"
FORM_TORUS = "torus-norm"

DEFAULT_GUARD = 1e-12
# Margin of the guard-band screen: far above the float error of a computed
# distance (a few ulps per coordinate), far below the guard band's purpose.
_SCREEN_SLACK = 1e-9


@dataclass(frozen=True)
class BohrSpec:
    """Frequencies, radius and form of a Bohr set; optionally a center."""

    group: GroupSpec
    freqs: CharTuple
    radius: float
    form: str
    center: Elem | None = None

    def __post_init__(self) -> None:
        if self.form not in (FORM_CHAR, FORM_TORUS):
            raise DomainError(f"unknown Bohr form {self.form!r}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be positive and finite, got {self.radius}")
        # One array check; a CharTuple is kept, so dataclasses.replace copies nothing.
        object.__setattr__(self, "freqs", char_tuple(self.group, self.freqs))
        if self.center is not None:
            check_elem(self.group, self.center)

    @property
    def dimension(self) -> int:
        return len(self.freqs)


# --- membership --------------------------------------------------------------

def _distances_point(b: BohrSpec, z: Elem) -> list[float]:
    out = []
    for t in b.freqs:
        phase = pairing(b.group, t, z)
        if b.form == FORM_CHAR:
            out.append(2.0 * math.sin(math.pi * phase))
        else:
            out.append(torus_norm(phase))
    return out


def bohr_member(b: BohrSpec, z: Elem) -> bool:
    """Strict membership test for the untranslated set (centers are metadata)."""
    check_elem(b.group, z)
    member = True
    for t, dist in zip(b.freqs, _distances_point(b, z)):
        if abs(dist - b.radius) <= DEFAULT_GUARD:
            raise AmbiguousBoundary(
                f"distance {dist!r} for frequency {t} is within {DEFAULT_GUARD} "
                f"of radius {b.radius!r}"
            )
        if dist >= b.radius:
            member = False
    return member


def _distances(form: str, phases: np.ndarray) -> np.ndarray:
    if form == FORM_CHAR:
        return 2.0 * np.sin(np.pi * phases)
    return np.minimum(phases, 1.0 - phases)


def _may_touch_guard_band(b: BohrSpec) -> np.ndarray:
    """Per frequency: could some element's distance land in the guard band?

    chi_t takes exactly the phases j/L, L the order of t, and both distances
    grow with j on [0, L/2], so the attainable distances nearest the radius
    come from the j next to L times the radius's inverse distance.  Testing
    those within ``_SCREEN_SLACK`` of the band is O(k) work and never misses
    a frequency the full-group check would flag.
    """
    factors = np.asarray(b.group.factors, dtype=np.int64)
    order = np.lcm.reduce(factors // np.gcd(b.freqs.rows, factors), axis=1)[:, None]
    if b.form == FORM_CHAR:
        level = math.asin(min(b.radius / 2.0, 1.0)) / math.pi
    else:
        level = min(b.radius, 0.5)
    j = np.clip(np.floor(level * order) + np.arange(-1, 3), 0, order)
    dists = _distances(b.form, j / order)
    return (np.abs(dists - b.radius) <= DEFAULT_GUARD + _SCREEN_SLACK).any(axis=1)


def members_mask(b: BohrSpec) -> np.ndarray:
    """Boolean membership table over the whole group, canonical order.

    A boundary distance anywhere raises, naming the first one in (frequency,
    element) order: the frequencies :func:`_may_touch_guard_band` keeps get
    the full-group check, in frequency order.  Membership then walks
    :func:`~bohrlab.spectral.phase_blocks` blocks over the elements still in
    the running only, so an element drops out at the first block that
    excludes it and memory is one block's phase table, never (k, N, d).
    """
    g = b.group
    rows, coords = b.freqs.rows, coords_table(g)
    suspects = np.flatnonzero(_may_touch_guard_band(b))
    for block, phases in phase_blocks(g, rows[suspects], coords):
        dists = _distances(b.form, phases)
        near = np.abs(dists - b.radius) <= DEFAULT_GUARD
        if near.any():
            t_idx, z_idx = np.argwhere(near)[0]
            raise AmbiguousBoundary(
                f"distance {dists[t_idx, z_idx]!r} at element rank {z_idx} "
                f"(frequency {b.freqs[suspects[block.start + t_idx]]}) is within "
                f"{DEFAULT_GUARD} of radius {b.radius!r}"
            )
    ranks = np.arange(g.order)
    walk = phase_blocks(g, rows, coords)
    try:
        _, phases = next(walk)
        while True:
            ranks = ranks[(_distances(b.form, phases) < b.radius).all(axis=0)]
            _, phases = walk.send(coords[ranks])
    except StopIteration:
        pass
    members = np.zeros(g.order, dtype=bool)
    members[ranks] = True
    return members


def bohr_enumerate(b: BohrSpec) -> list[Elem]:
    """All members in canonical order; capped like every other enumeration."""
    require_within_cap(b.group)
    coords = coords_table(b.group)
    return [Elem(tuple(row)) for row in coords[members_mask(b)]]


# --- transformations ---------------------------------------------------------

def char_form_to_torus_form(b: BohrSpec) -> BohrSpec:
    """Shrink a character-distance set to the torus-norm set it contains."""
    if b.form != FORM_CHAR:
        raise DomainError("input must be in character-distance form")
    return replace(b, radius=b.radius / TWO_PI, form=FORM_TORUS)


def halve_radius(b: BohrSpec) -> BohrSpec:
    """Same frequencies and form at half the radius.

    Two members of the halved set always sum into the original set: both
    distance forms obey the triangle inequality along the group law.
    """
    return replace(b, radius=b.radius / 2.0)
