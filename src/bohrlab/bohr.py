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

from .errors import AmbiguousBoundary, CapacityError, DomainError, ShapeError
from .groups import (
    TWO_PI,
    Char,
    Elem,
    GroupSpec,
    char_tuple,
    check_elem,
    coords_table,
    enumeration_cap,
    pairing,
    pairing_exact,
    phase_table,
    torus_norm,
)
from .spectral import _block_rows

FORM_CHAR = "character-distance"
FORM_TORUS = "torus-norm"

DEFAULT_GUARD = 1e-12


@dataclass(frozen=True)
class BohrSpec:
    """Frequencies, radius and form of a Bohr set; optionally a center."""

    group: GroupSpec
    freqs: tuple[Char, ...]
    radius: float
    form: str
    center: Elem | None = None

    def __post_init__(self) -> None:
        if self.form not in (FORM_CHAR, FORM_TORUS):
            raise DomainError(f"unknown Bohr form {self.form!r}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be positive and finite, got {self.radius}")
        # One array check; a CharTuple (as extract and the loader build) is
        # kept as is, so dataclasses.replace re-checks without rebuilding.
        object.__setattr__(self, "freqs", char_tuple(self.group, self.freqs))
        if self.center is not None:
            check_elem(self.group, self.center)

    @property
    def dimension(self) -> int:
        return len(self.freqs)

    def freq_matrix(self) -> np.ndarray:
        """The validated (k, d) frequency matrix, read-only and shared with ``freqs``."""
        return self.freqs.rows


@dataclass(frozen=True)
class Hom:
    """A homomorphism between groups, given by the images of the generators."""

    domain: GroupSpec
    codomain: GroupSpec
    images: tuple[Elem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.domain.ndim:
            raise ShapeError(
                f"need one generator image per domain factor "
                f"({self.domain.ndim}), got {len(self.images)}"
            )
        for m_j, w in zip(self.domain.factors, self.images):
            check_elem(self.codomain, w)
            # Well-definedness: the j-th generator has order m_j, so its image
            # must be killed by m_j.
            for w_l, n_l in zip(w.coords, self.codomain.factors):
                if (m_j * w_l) % n_l != 0:
                    raise DomainError(
                        f"generator image {w} has order incompatible with Z_{m_j}"
                    )


def identity_hom(g: GroupSpec) -> Hom:
    images = []
    for j in range(g.ndim):
        coords = [0] * g.ndim
        coords[j] = 1 % g.factors[j]
        images.append(Elem(tuple(coords)))
    return Hom(g, g, tuple(images))


def zero_hom(domain: GroupSpec, codomain: GroupSpec) -> Hom:
    zero = Elem((0,) * codomain.ndim)
    return Hom(domain, codomain, (zero,) * domain.ndim)


def hom_apply(h: Hom, x: Elem) -> Elem:
    check_elem(h.domain, x)
    acc = [0] * h.codomain.ndim
    for x_j, w in zip(x.coords, h.images):
        for l, w_l in enumerate(w.coords):
            acc[l] = (acc[l] + x_j * w_l) % h.codomain.factors[l]
    return Elem(tuple(acc))


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

def bohr_member(b: BohrSpec, z: Elem, guard: float = DEFAULT_GUARD) -> bool:
    """Strict membership test for the untranslated set (centers are metadata)."""
    check_elem(b.group, z)
    member = True
    for t, dist in zip(b.freqs, _distances_point(b, z)):
        if abs(dist - b.radius) <= guard:
            raise AmbiguousBoundary(
                f"distance {dist!r} for frequency {t} is within {guard} of radius {b.radius!r}"
            )
        if dist >= b.radius:
            member = False
    return member


def members_mask(b: BohrSpec, guard: float = DEFAULT_GUARD) -> np.ndarray:
    """Boolean membership table over the whole group, canonical order.

    Frequency rows are taken in blocks of the definitional paths' size, with
    a running AND, so memory is one block's phase table rather than (k, N, d).
    Every block is checked against the guard band, so a boundary distance
    anywhere still raises, naming the first one in (frequency, element) order.
    """
    g = b.group
    coords = coords_table(g)
    freqs = b.freq_matrix()
    members = np.ones(g.order, dtype=bool)
    step = _block_rows(g)
    for start in range(0, len(freqs), step):
        phases = phase_table(g, freqs[start : start + step], coords)
        if b.form == FORM_CHAR:
            dists = 2.0 * np.sin(np.pi * phases)
        else:
            dists = np.minimum(phases, 1.0 - phases)
        near = np.abs(dists - b.radius) <= guard
        if near.any():
            t_idx, z_idx = np.argwhere(near)[0]
            raise AmbiguousBoundary(
                f"distance {dists[t_idx, z_idx]!r} at element rank {z_idx} "
                f"(frequency {b.freqs[start + t_idx]}) is within {guard} of radius {b.radius!r}"
            )
        members &= (dists < b.radius).all(axis=0)
    return members


def bohr_enumerate(
    b: BohrSpec, cap: int | None = None, guard: float = DEFAULT_GUARD
) -> list[Elem]:
    """All members in canonical order; capped like every other enumeration."""
    cap = enumeration_cap() if cap is None else cap
    if b.group.order > cap:
        raise CapacityError(
            f"group order {b.group.order} exceeds enumeration cap {cap}"
        )
    mask = members_mask(b, guard=guard)
    coords = coords_table(b.group)
    return [Elem(tuple(row)) for row in coords[mask]]


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


def pullback(b: BohrSpec, h: Hom) -> BohrSpec:
    """Transport a Bohr set along a homomorphism by composing its frequencies.

    The composed set has identical membership: z belongs iff h(z) belongs to
    the original set.  Frequencies are composed in exact rational arithmetic.
    """
    if b.group != h.codomain:
        raise ShapeError(
            f"Bohr set lives on {b.group}, homomorphism maps into {h.codomain}"
        )
    composed = []
    for t in b.freqs:
        freq = []
        for m_j, w in zip(h.domain.factors, h.images):
            theta = pairing_exact(h.codomain, t, w)
            scaled = theta * m_j
            if scaled.denominator != 1:
                raise DomainError(
                    f"image {w} is incompatible with factor order {m_j}"
                )
            freq.append(int(scaled) % m_j)
        composed.append(Char(tuple(freq)))
    return BohrSpec(h.domain, tuple(composed), b.radius, b.form, center=None)
