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
block of frequencies, which one plain loop walks over the elements still in
the running.  Both distances grow with j = min(M, L - M).  So each form is
one integer threshold on j: the torus form is exact (a float radius is a
dyadic rational), and the character form needs one arcsine, enclosed to a
few ulps.  Only a distance that really ties the radius, or whose phase lands
inside that enclosure, raises :class:`AmbiguousBoundary`; an O(k) screen
finds them before any walk, from each frequency's order class, which one
table per group holds by canonical rank.  Green, "Finite
field models in additive combinatorics" (2005): at the tiny radii a
certificate carries, the Bohr set is the annihilator of span(S1), and the
threshold is j < 1.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import spectral
from .errors import AmbiguousBoundary, DomainError
from .groups import (
    TWO_PI,
    CharTuple,
    Elem,
    GroupSpec,
    char_ranks,
    char_rows,
    char_tuple,
    check_elem,
    coords_table,
    require_within_cap,
)

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
def _step_tables(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(divisors, classes)``: the divisors of L, ascending, and the order class of every character.

    ``classes[r]`` is the position among ``divisors`` of the step
    s = gcd(t_1 L/n_1, ..., t_d L/n_d, L) of the character t of canonical
    rank r.  t has order L/s, so classes ascend as orders descend.  No
    per-element Euclid: gcd(t_i L/n_i, L) = (L/n_i) gcd(t_i, n_i), filled
    into a table of n_i classes by divisor strides, and the table grows axis
    by axis in canonical order (last factor fastest), each fold reading the
    class of the gcd of two divisors off one D x D table, D the number of
    divisors of L.  One uint16 per character: L < 2^31 has at most 1600
    divisors.
    """
    lcm = _lcm_weights(factors)[0]
    divisors = np.array(_divisors(lcm), dtype=np.int64)
    gcd_class = np.searchsorted(divisors, np.gcd.outer(divisors, divisors)).astype(np.uint16)
    classes = np.full(1, len(divisors) - 1, dtype=np.uint16)  # gcd of no axis: L
    for n in factors:
        axis = np.empty(n, dtype=np.uint16)
        for d in _divisors(n):  # increasing, so t keeps its largest divisor d of n: gcd(t, n)
            axis[::d] = np.searchsorted(divisors, lcm // n * d)
        classes = gcd_class[classes[:, None], axis].ravel()
    for table in (divisors, classes):
        table.flags.writeable = False
    return divisors, classes


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


def _walk_order(classes: np.ndarray) -> np.ndarray:
    """Frequencies by descending order L/s, each order class spread by a golden-ratio stride.

    In canonical order the first m frequencies of a class span few dimensions
    (on F_2^n, log2 m), so the survivors of a walk shrink only like N/m and
    every doubling block costs about N cells.  Frequencies taken across the
    class are independent early.  The spread is the Weyl sequence i w mod 2^b,
    2^b >= k and w odd near 2^b/phi, with the terms >= k dropped: a
    permutation of the k indices by one multiply and one mask, no modulo and
    no float sort.  One stable counting sort of the uint16 class positions
    (numpy's radix sort) then groups the classes, highest order first, and
    keeps the spread inside each.
    """
    size = 1 << max(0, len(classes) - 1).bit_length()
    spread = np.arange(size, dtype=np.int64)
    spread *= int(size * 0.6180339887498949) | 1  # wraps past 2^63 only in bits the mask drops
    spread &= size - 1
    spread = spread[spread < len(classes)]
    return spread[np.argsort(classes[spread], kind="stable")]


@dataclass(frozen=True, eq=False)
class _Walk:
    """What a walk over the whole group decided: the members at threshold ``below``.

    ``freqs`` is a weak reference to the walked tuple, so the memo keeps no
    certificate's S1 alive, and ``ranks`` are the members.
    """

    freqs: weakref.ref
    group: GroupSpec
    below: int
    ranks: np.ndarray


_last_walk: _Walk | None = None


def _walk(g: GroupSpec, rows: np.ndarray, classes: np.ndarray, below: int, ranks: np.ndarray | None) -> np.ndarray:
    """The ranks among ``ranks`` (every element when None) whose distances all lie below T.

    One loop over blocks of the frequencies in :func:`_walk_order`, each
    block's :func:`_distances` taken at the elements still in the running;
    an element drops out at the first block that excludes it.  Blocks grow
    1, 2, 4, ... rows, and a block has at least (initial elements // current
    elements) rows, so it costs about as many cells as the first block: once
    the survivors collapse (a point-like Bohr set) the walk ends in a few
    blocks, not log2 of its rows.  Each block is capped at
    ``spectral._BLOCK_CELLS`` cells against the current elements, and at
    least one row, so memory stays bounded.  A walk from every element reads
    the cached coordinate table as it is, not a gathered copy of it.
    """
    coords = coords_table(g)
    rows = rows[_walk_order(classes)]
    cols = coords if ranks is None else coords[ranks]
    if ranks is None:
        ranks = np.arange(g.order)
    start, size, initial = 0, 1, len(cols)
    while start < len(rows):
        cap = max(1, spectral._BLOCK_CELLS // max(1, len(cols) * g.ndim))
        stop = start + min(max(size, initial // max(1, len(cols))), cap)
        j = _distances(g, rows[start:stop], cols)
        ranks = ranks[(j < below).all(axis=0)]
        cols = coords[ranks]
        start, size = stop, 2 * size
    return ranks


def members_mask(b: BohrSpec) -> np.ndarray:
    """Boolean membership table over the whole group, canonical order; a fresh array.

    First an exact O(k) screen: t takes exactly the phases that are multiples
    of its step s = gcd(t_i L/n_i, L), one of the divisors of L, whose order
    class is read off the group's table by t's canonical rank
    (:func:`_step_tables`), so a tie is possible only for a frequency whose
    step has a multiple in the undecidable window of :func:`_threshold`.  The
    screen decides each divisor once.  The first frequency with such a step
    raises :class:`AmbiguousBoundary`, naming its first tied element from a
    scan of that one row; no other row is gathered.  Otherwise membership
    walks blocks of exact integer distances (:func:`_walk`) over the
    elements still in the running, in :func:`_walk_order`: frequencies of
    highest order L/s first, so the first block removes most candidates, and
    each order class spread out.  An element drops out at the first
    block that excludes it, and memory is one block's table, never (k, N, d).

    The last walk over the whole group is remembered (:class:`_Walk`).  A
    later call on the same :class:`~bohrlab.groups.CharTuple` and group at a
    threshold T' <= T screens at T' as a fresh call does, so it raises
    exactly as a fresh call would, and then walks only the stored members,
    which hold every member at T'; at T' = T it walks nothing.  A wider
    threshold or another tuple walks the whole group and replaces the memo.
    So a certificate's char form, torus form and half-radius form cost one
    walk over the group and at most two over its members.
    """
    global _last_walk
    g = b.group
    freq_ranks = char_ranks(g, b.freqs)
    lcm = _lcm_weights(g.factors)[0]
    below, upto = _threshold(b)
    divisors, table = _step_tables(g.factors)
    classes = table[freq_ranks]
    first = -(-below // divisors) * divisors  # the least attainable j >= T, per step
    ties = np.flatnonzero((first <= min(upto, lcm // 2))[classes])
    if ties.size:
        t_idx = int(ties[0])
        coords = coords_table(g)
        j = _distances(g, coords[freq_ranks[t_idx : t_idx + 1]], coords)[0]
        z_idx = int(np.flatnonzero((j >= below) & (j <= upto))[0])
        raise _boundary(b, t_idx, f"at element rank {z_idx}", int(j[z_idx]))
    if below > lcm // 2:
        return np.ones(g.order, dtype=bool)
    rows = char_rows(g, b.freqs)
    memo = _last_walk
    if memo is not None and (memo.freqs() is not b.freqs or memo.group != g):
        memo = None
    if memo is not None and below <= memo.below:
        ranks = memo.ranks if below == memo.below else _walk(g, rows, classes, below, memo.ranks)
    else:
        ranks = _walk(g, rows, classes, below, None)
        ranks.flags.writeable = False
        _last_walk = _Walk(weakref.ref(b.freqs), g, below, ranks)
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
