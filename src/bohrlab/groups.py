"""Finite abelian groups ``Z_{n1} x ... x Z_{nd}``, their elements and characters.

Elements and characters are indexed tuples with componentwise modular
arithmetic.  The canonical order of both index spaces is lexicographic on the
coordinate tuples, which coincides with C-order raveling of a ``factors``-shaped
array; every table in the package (densities, spectra, bitsets) uses that order.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, ShapeError

TWO_PI = 2.0 * math.pi

DEFAULT_ENUM_CAP = 1 << 16
ENUM_CAP_ENV = "BOHRLAB_ENUM_CAP"


def enumeration_cap() -> int:
    """Current enumeration cap; the BOHRLAB_ENUM_CAP env var overrides the default."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{ENUM_CAP_ENV} must be >= 1, got {cap}")
    return cap


def require_within_cap(g: GroupSpec) -> None:
    """Raise :class:`CapacityError` if ``g`` is larger than the enumeration cap.

    The one capacity check: every call that enumerates the group or runs an
    O(N^2) oracle on it makes it before doing any work.
    """
    cap = enumeration_cap()
    if g.order > cap:
        raise CapacityError(f"group order {g.order} exceeds enumeration cap {cap}")


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given as an ordered product of cyclic factors."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(n) for n in self.factors)
        if not factors:
            raise DomainError("a group needs at least one cyclic factor")
        if any(n < 1 for n in factors):
            raise DomainError(f"cycle lengths must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    @property
    def ndim(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "x".join(str(n) for n in self.factors)


def parse_group(text: str) -> GroupSpec:
    """Parse a spec string like ``"8"``, ``"4x3"`` or ``"2x2x2"``, left to right."""
    parts = text.strip().split("x")
    try:
        factors = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"cannot parse group spec {text!r}") from exc
    return GroupSpec(factors)


@dataclass(frozen=True, slots=True)
class Elem:
    """A group element, one coordinate per cyclic factor."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    def __str__(self) -> str:
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True, slots=True)
class Char:
    """A character of the group, identified by its frequency tuple."""

    freq: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "freq", tuple(int(t) for t in self.freq))

    def __str__(self) -> str:
        if len(self.freq) == 1:
            return str(self.freq[0])
        return "(" + ",".join(str(t) for t in self.freq) + ")"


def check_elem(g: GroupSpec, a: Elem) -> None:
    if len(a.coords) != g.ndim:
        raise ShapeError(f"element {a} has {len(a.coords)} coords, group {g} has {g.ndim}")
    for c, n in zip(a.coords, g.factors):
        if not 0 <= c < n:
            raise ShapeError(f"coordinate {c} out of range for factor Z_{n}")


def check_char(g: GroupSpec, t: Char) -> None:
    if len(t.freq) != g.ndim:
        raise ShapeError(f"character {t} has {len(t.freq)} coords, group {g} has {g.ndim}")
    for c, n in zip(t.freq, g.factors):
        if not 0 <= c < n:
            raise ShapeError(f"frequency {c} out of range for factor Z_{n}")


def elem_add(g: GroupSpec, a: Elem, b: Elem) -> Elem:
    check_elem(g, a)
    check_elem(g, b)
    return Elem(tuple((x + y) % n for x, y, n in zip(a.coords, b.coords, g.factors)))


def elem_neg(g: GroupSpec, a: Elem) -> Elem:
    check_elem(g, a)
    return Elem(tuple((-x) % n for x, n in zip(a.coords, g.factors)))


def pairing(g: GroupSpec, t: Char, z: Elem) -> float:
    """The torus pairing ``sum_j t_j z_j / n_j mod 1`` as a float in [0, 1)."""
    check_char(g, t)
    check_elem(g, z)
    acc = 0.0
    for tj, zj, n in zip(t.freq, z.coords, g.factors):
        acc += ((tj * zj) % n) / n
    return acc % 1.0


def char_eval(g: GroupSpec, t: Char, z: Elem) -> complex:
    """Evaluate the character: ``exp(2 pi i sum_j t_j z_j / n_j)``."""
    phase = pairing(g, t, z)
    return complex(math.cos(TWO_PI * phase), math.sin(TWO_PI * phase))


def torus_norm(x: float) -> float:
    """Distance of a real number to the nearest integer, in [0, 1/2]."""
    frac = x % 1.0
    return min(frac, 1.0 - frac)


# --- canonical ranking -------------------------------------------------------

def strides(g: GroupSpec) -> tuple[int, ...]:
    """Mixed-radix strides so that rank = sum_j coords_j * stride_j.

    This is the canonical rank of an element or a character: mixed radix over
    the factors, last factor fastest (C order), so on Z_n a rank is the
    coordinate itself.  Certificate files write S1 as these ranks.
    """
    out = []
    acc = 1
    for n in reversed(g.factors):
        out.append(acc)
        acc *= n
    return tuple(reversed(out))


@lru_cache(maxsize=32)
def _coords_table(factors: tuple[int, ...]) -> np.ndarray:
    grid = np.indices(factors, dtype=np.int64).reshape(len(factors), -1).T
    grid.flags.writeable = False
    return grid


def coords_table(g: GroupSpec) -> np.ndarray:
    """All N coordinate tuples in canonical order, as an (N, d) int array.

    Plumbing for the dense numerical paths; the user-facing enumeration ops
    call :func:`require_within_cap`, this accessor does not.
    """
    return _coords_table(g.factors)


def rank_of_elem(g: GroupSpec, a: Elem) -> int:
    check_elem(g, a)
    return int(sum(c * s for c, s in zip(a.coords, strides(g))))


def elem_at(g: GroupSpec, rank: int) -> Elem:
    if not 0 <= rank < g.order:
        raise DomainError(f"rank {rank} out of range for group of order {g.order}")
    coords = []
    for s, n in zip(strides(g), g.factors):
        coords.append((rank // s) % n)
    return Elem(tuple(coords))


# --- characters in bulk --------------------------------------------------------

class CharTuple(Sequence):
    """An immutable sequence of characters, held as their (k, d) frequency matrix.

    ``rows`` (int64, read-only) holds the characters.  An integer index builds
    one :class:`Char`, a slice gives a CharTuple, and equality and hashing
    agree with the plain tuple of the characters.  Ragged rows, integers
    beyond int64 and a non-(k, d) shape raise :class:`ShapeError`; range
    checks belong to :func:`char_tuple`.

    Beside ``rows`` a tuple keeps a memo that is a pure function of them: the
    factors they were last range-checked against, and, once asked for, their
    canonical ranks under those factors (:func:`char_ranks`).  The rows are
    read-only, so the memo stays true.  :meth:`from_ranks` builds a tuple from
    its ranks alone, with the memo set; its rows are unravelled only when
    something reads ``rows`` (or :func:`char_rows` gathers them), while
    ``len`` and an integer index read the ranks.  A slice or a pickled copy
    starts from rows, without the memo.
    """

    __slots__ = ("_rows", "_factors", "_ranks", "__weakref__")

    def __init__(self, rows) -> None:
        try:
            rows = np.array(rows, dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ShapeError(f"frequency rows are ragged or exceed int64: {exc}") from exc
        if rows.ndim != 2:
            raise ShapeError(f"frequency rows must form a (k, d) matrix, got shape {rows.shape}")
        rows.flags.writeable = False
        self._rows = rows
        self._factors = self._ranks = None

    @classmethod
    def from_ranks(cls, g: GroupSpec, ranks: np.ndarray) -> CharTuple:
        """The characters of ``g`` at int64 canonical ranks that the caller has range-checked.

        ``ranks`` is kept, not copied, and made read-only: the tuple starts
        checked against ``g``, with these ranks, and no rows.
        """
        ranks.flags.writeable = False
        chars = cls.__new__(cls)
        chars._rows, chars._factors, chars._ranks = None, g.factors, ranks
        return chars

    @property
    def rows(self) -> np.ndarray:
        """The (k, d) int64 frequency matrix, read-only; unravelled from the ranks on first read."""
        if self._rows is None:
            rows = rows_at(GroupSpec(self._factors), self._ranks)
            rows.flags.writeable = False
            self._rows = rows
        return self._rows

    def __reduce__(self):
        return CharTuple, (self.rows,)  # through __init__, so the copy is read-only too

    def __len__(self) -> int:
        return len(self._ranks) if self._rows is None else len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CharTuple(self.rows[i])
        if self._rows is None:
            return Char(np.unravel_index(self._ranks[i], self._factors))
        return Char(self._rows[i].tolist())

    def __iter__(self):
        return map(Char, self.rows.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, CharTuple):
            # Empty tuples are equal whatever their width, as plain tuples are.
            return not (len(self) or len(other)) or np.array_equal(self.rows, other.rows)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def char_tuple(g: GroupSpec, chars) -> CharTuple:
    """``chars`` validated against ``g`` by one array check, as a CharTuple.

    A CharTuple is checked through its matrix and returned as is; one already
    checked against ``g``'s factors is returned at once.  Any other sequence
    of characters is converted to one first.  Ragged, wrong-length and
    out-of-range frequencies raise :class:`ShapeError`.
    """
    if not isinstance(chars, CharTuple):
        chars = CharTuple([t.freq for t in chars] or np.zeros((0, g.ndim)))
    elif chars._factors == g.factors:
        return chars
    _check_range(g, chars)
    chars._factors, chars._ranks = g.factors, None
    return chars


def _check_range(g: GroupSpec, chars: CharTuple) -> None:
    """Raise :class:`ShapeError` unless every row of ``chars`` is a frequency of ``g``."""
    rows = chars.rows
    k, d = rows.shape
    if not k:
        return  # empty tuples are equal whatever their width, so any width passes
    if d != g.ndim:
        raise ShapeError(f"character {chars[0]} has {d} coords, group {g} has {g.ndim}")
    bad = (rows < 0) | (rows >= np.asarray(g.factors, dtype=np.int64))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ShapeError(f"frequency {rows[i, j]} out of range for factor Z_{g.factors[j]}")


def char_ranks(g: GroupSpec, chars) -> np.ndarray:
    """Canonical ranks of ``chars``, validated against ``g``, as a read-only int64 array.

    A CharTuple computes them at most once per group it is checked against
    and keeps them.
    """
    chars = char_tuple(g, chars)
    if chars._ranks is None:
        # The check lets an empty tuple of any width through: give it the group's.
        ranks = ranks_of_rows(g, chars.rows.reshape(len(chars), g.ndim))
        ranks.flags.writeable = False
        chars._ranks = ranks
    return chars._ranks


def char_rows(g: GroupSpec, chars) -> np.ndarray:
    """The (k, d) rows of ``chars``, validated against ``g``; a tuple that holds only ranks gathers them.

    The gather is one read of the cached coordinate table at the ranks,
    ``coords_table(g)[ranks]``, the same rows that :func:`rows_at` unravels
    axis by axis and stacks; the tuple keeps them.  For callers that read the
    (N, d) table anyway, as membership walks do.
    """
    chars = char_tuple(g, chars)
    if chars._rows is None:
        rows = coords_table(g)[chars._ranks]
        rows.flags.writeable = False
        chars._rows = rows
    return chars._rows


def ranks_of_rows(g: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """Canonical ranks of validated (k, d) coordinate or frequency rows."""
    return np.ravel_multi_index(tuple(rows.T), g.factors).astype(np.int64, copy=False)


def rows_at(g: GroupSpec, ranks: np.ndarray) -> np.ndarray:
    """The (k, d) coordinate rows of canonical ranks; inverse of :func:`ranks_of_rows`."""
    return np.stack(np.unravel_index(ranks, g.factors), axis=1).astype(np.int64, copy=False)


def enumerate_elems(g: GroupSpec) -> list[Elem]:
    """All N elements exactly once, lexicographic on coordinates."""
    require_within_cap(g)
    return [Elem(tuple(row)) for row in _coords_table(g.factors)]


def enumerate_chars(g: GroupSpec) -> list[Char]:
    """All N characters in the same lexicographic order as the elements."""
    require_within_cap(g)
    return [Char(tuple(row)) for row in _coords_table(g.factors)]
