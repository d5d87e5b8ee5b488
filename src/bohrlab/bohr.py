"""Bohr sets on a finite abelian group, in two interchangeable radius forms.

A Bohr set is cut out by a finite list of frequencies and a radius.  The
torus-norm form keeps ``max_t ||pairing(t, z)|| < radius``; the
character-distance form keeps ``max_t |chi_t(z) - 1| < radius``.  Both are
symmetric neighborhoods of 0.  Converting character-distance radius eta to
torus-norm radius eta/(2*pi) always shrinks the member set (or keeps it equal),
since ``|chi(z) - 1| = 2*sin(pi*phase) <= 2*pi*||phase||``.

Membership is strict and decided in integers.  With L = lcm(n_i), the phase
of t at z is the exact rational M/L, M = sum_i (t_i L/n_i) z_i mod L, a linear
form in z: one integer matrix product and one reduction by the scalar L per
block.  Both distances grow with j = min(M, L - M).  So each form is one integer
threshold on j: the torus form is exact (a float radius is a dyadic
rational), and the character form needs one arcsine, enclosed to a few ulps.
Only a distance that really ties the radius, or whose phase lands inside that
enclosure, raises :class:`AmbiguousBoundary`.  Green, "Finite field models in
additive combinatorics" (2005): at the tiny radii a certificate carries, the
Bohr set is the annihilator of span(S1), and the threshold is j < 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

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
    require_within_cap,
)
from .spectral import phase_blocks

FORM_CHAR = "character-distance"
FORM_TORUS = "torus-norm"

# Relative half-width of the enclosure of the character-form threshold
# L asin(r/2)/pi.  r/2 is exact; libm's asin is within 1 ulp; math.pi is
# within half an ulp of pi; the division, the product by L and the product by
# (1 -+ margin) round once each, half an ulp apiece.  That is at most 3 ulps
# of relative error, each ulp at most epsilon relative; 8 leaves room for a
# libm that is a few ulps worse.
_THRESHOLD_MARGIN = 8 * sys.float_info.epsilon


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

@lru_cache(maxsize=32)
def _lcm_weights(factors: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """L = lcm(n_i) and the weights L/n_i that put every factor's phase over L."""
    lcm = math.lcm(*factors)
    weights = lcm // np.asarray(factors, dtype=np.int64)
    weights.flags.writeable = False
    return lcm, weights


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


@lru_cache(maxsize=32)
def _step_tables(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, list]:
    """The lookup tables of :func:`_steps`: ``(offsets, codes, fields)``.

    A divisor of L = prod q^E_q is coded with one field of E_q bits per prime
    q, holding e low ones for the power q^e it has (at most 31 bits in all
    below 2^31), so the code of a gcd of divisors is the AND of their codes.
    For each distinct cycle length n, a block of ``codes`` holds at t the code
    of (L/n) gcd(t, n); ``offsets[i]`` is where axis i's block starts, so axes
    of one length share a block.  ``fields`` lists (shift, width, q^0..q^E_q)
    per prime.
    """
    lcm = _lcm_weights(factors)[0]
    fields, rest, shift = [], lcm, 0
    for q in _divisors(lcm)[1:]:
        width = 0
        while rest % q == 0:
            rest, width = rest // q, width + 1
        if width:
            powers = q ** np.arange(width + 1, dtype=np.int64)
            powers.flags.writeable = False
            fields.append((shift, width, powers))
            shift += width

    def code(d: int) -> int:
        out = 0
        for shift, width, powers in fields:
            q, e = int(powers[1]), 0
            while d % q == 0:
                d, e = d // q, e + 1
            out |= ((1 << e) - 1) << shift
        return out

    lengths = sorted(set(factors))
    starts = dict(zip(lengths, np.cumsum([0] + lengths[:-1]).tolist()))
    codes = np.empty(sum(lengths), dtype=np.uint32)
    for n in lengths:
        block = codes[starts[n] : starts[n] + n]
        for d in _divisors(n):  # increasing, so t keeps its largest divisor d of n: gcd(t, n)
            block[::d] = code(lcm // n * d)
    codes.flags.writeable = False
    return np.array([starts[n] for n in factors], dtype=np.int64), codes, fields


def _steps(g: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """s = gcd(t_1 L/n_1, ..., t_d L/n_d, L) for every frequency row t, with no per-element Euclid.

    gcd(t_i L/n_i, L) = (L/n_i) gcd(t_i, n_i), a divisor of L read off a
    table of n_i entries per axis, by its code in :func:`_step_tables`.  The
    axes fold by one AND of the gathered codes.  A field of e ones is
    2^e - 1, whose binary exponent ``frexp`` reads exactly, and s is the
    product of the q^e.
    """
    offsets, codes, fields = _step_tables(g.factors)
    folded = np.bitwise_and.reduce(codes[rows + offsets if offsets.any() else rows], axis=1)
    steps = np.ones(len(rows), dtype=np.int64)
    for shift, width, powers in fields:
        ones = (folded >> shift) & ((1 << width) - 1)
        steps *= powers[np.frexp(ones + 1)[1] - 1]
    return steps


def _distances(g: GroupSpec, rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The (k, m) exact distances j = min(M, L - M) of ``rows`` at ``coords``.

    M/L is the phase.  It is linear in z: (t_i z_i mod n_i) L/n_i is
    (t_i L/n_i) z_i mod L, so M = sum_i (t_i L/n_i) z_i mod L, one integer
    matrix product and one reduction by the scalar L, by floor division as
    in ``spectral._reduce``.  Each term is below L n_i, so the sum is below
    L sum_i n_i, which is inside int64 for every group of order below 2^31.
    """
    lcm, weights = _lcm_weights(g.factors)
    phases = (rows * weights) @ coords.T
    scratch = np.floor_divide(phases, lcm)
    scratch *= lcm
    phases -= scratch
    np.subtract(lcm, phases, out=scratch)
    return np.minimum(phases, scratch, out=phases)


def _threshold(b: BohrSpec) -> tuple[int, int]:
    """(T, U) on the distance j: a member below T, undecidable in [T, U], not above U.

    Torus form: j/L < r iff j < r L, exactly.  Character form:
    2 sin(pi j/L) < r iff j < L asin(r/2)/pi, enclosed to ``_THRESHOLD_MARGIN``;
    every element is a member above r = 2.  j = 0 always is (r > 0).
    """
    lcm = _lcm_weights(b.group.factors)[0]
    everyone = lcm // 2 + 1, lcm // 2  # j <= L/2 always
    if b.form == FORM_TORUS:
        exact = Fraction(b.radius) * lcm
        if 2 * exact > lcm:
            return everyone
        below = math.ceil(exact)
        return below, below if exact == below else below - 1
    if b.radius > 2.0:
        return everyone
    theta = lcm * math.asin(b.radius / 2.0) / math.pi
    below = max(1, math.ceil(theta * (1.0 - _THRESHOLD_MARGIN)))
    return below, math.floor(theta * (1.0 + _THRESHOLD_MARGIN))


def _boundary(b: BohrSpec, t_idx: int, where: str, j: int) -> AmbiguousBoundary:
    lcm = _lcm_weights(b.group.factors)[0]
    if b.form == FORM_CHAR:
        dist = f"distance 2 sin(pi {j}/{lcm}) = {2.0 * math.sin(math.pi * j / lcm)!r}"
        tie = "is within rounding error of"
    else:
        dist, tie = f"distance {j}/{lcm}", "equals"
    return AmbiguousBoundary(f"{dist} {where} (frequency {b.freqs[t_idx]}) {tie} radius {b.radius!r}")


def bohr_member(b: BohrSpec, z: Elem) -> bool:
    """Strict membership test for the untranslated set (centers are metadata).

    The rule of :func:`members_mask`, at one element: raises
    :class:`AmbiguousBoundary` only when one of its own distances is undecidable.
    """
    check_elem(b.group, z)
    below, upto = _threshold(b)
    j = _distances(b.group, b.freqs.rows, np.asarray([z.coords], dtype=np.int64))[:, 0]
    ties = np.flatnonzero((j >= below) & (j <= upto))
    if ties.size:
        raise _boundary(b, int(ties[0]), f"at element {z.coords}", int(j[ties[0]]))
    return bool((j < below).all())


def _walk_order(step: np.ndarray) -> np.ndarray:
    """Frequencies by descending order L/s, each order class spread by i*phi mod 1.

    In canonical order the first m frequencies of a class span few dimensions
    (on F_2^n, log2 m), so the survivors of a walk shrink only like N/m and
    every doubling block costs about N cells.  Frequencies taken across the
    class, as the golden-ratio sequence spreads them, are independent early.
    """
    spread = (np.arange(len(step)) * 0.6180339887498949) % 1.0
    return np.argsort(step + spread)  # step is a positive integer, spread in [0, 1)


def members_mask(b: BohrSpec) -> np.ndarray:
    """Boolean membership table over the whole group, canonical order.

    First an exact O(k) screen: t takes exactly the phases that are multiples
    of s = gcd(t_i L/n_i, L), read off tables (:func:`_steps`), so a tie is
    possible only for a frequency with a multiple of s in the undecidable
    window of :func:`_threshold`.  The first such frequency raises
    :class:`AmbiguousBoundary`, naming its first tied element from a scan of
    that one row.  Otherwise membership walks
    :func:`~bohrlab.spectral.phase_blocks` blocks of integer phases over the
    elements still in the running, in :func:`_walk_order`: frequencies of
    highest order L/s first, so the first block removes most candidates, and
    each order class spread out.  An element drops out at the first
    block that excludes it, and memory is one block's table, never (k, N, d).
    """
    g = b.group
    rows, coords = b.freqs.rows, coords_table(g)
    lcm = _lcm_weights(g.factors)[0]
    below, upto = _threshold(b)
    step = _steps(g, rows)
    first = -(-below // step) * step  # the least attainable j >= T
    ties = np.flatnonzero(first <= min(upto, lcm // 2))
    if ties.size:
        t_idx = int(ties[0])
        j = _distances(g, rows[t_idx : t_idx + 1], coords)[0]
        z_idx = int(np.flatnonzero((j >= below) & (j <= upto))[0])
        raise _boundary(b, t_idx, f"at element rank {z_idx}", int(j[z_idx]))
    if below > lcm // 2:
        return np.ones(g.order, dtype=bool)
    ranks = np.arange(g.order)
    walk = phase_blocks(g, rows[_walk_order(step)], coords, _distances)
    try:
        _, j = next(walk)
        while True:
            ranks = ranks[(j < below).all(axis=0)]
            _, j = walk.send(coords[ranks])
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
