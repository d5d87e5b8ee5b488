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


def members_mask(b: BohrSpec) -> np.ndarray:
    """Boolean membership table over the whole group, canonical order.

    Frequency rows are walked in :func:`~bohrlab.spectral.phase_blocks` blocks
    with a running AND, so memory is one block's phase table, not (k, N, d).
    Every block is checked against the guard band, so a boundary distance
    anywhere still raises, naming the first one in (frequency, element) order.
    """
    g = b.group
    members = np.ones(g.order, dtype=bool)
    for block, phases in phase_blocks(g, b.freqs.rows, coords_table(g)):
        if b.form == FORM_CHAR:
            dists = 2.0 * np.sin(np.pi * phases)
        else:
            dists = np.minimum(phases, 1.0 - phases)
        near = np.abs(dists - b.radius) <= DEFAULT_GUARD
        if near.any():
            t_idx, z_idx = np.argwhere(near)[0]
            raise AmbiguousBoundary(
                f"distance {dists[t_idx, z_idx]!r} at element rank {z_idx} "
                f"(frequency {b.freqs[block.start + t_idx]}) is within {DEFAULT_GUARD} "
                f"of radius {b.radius!r}"
            )
        members &= (dists < b.radius).all(axis=0)
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
