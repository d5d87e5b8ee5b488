"""Subsets of a finite abelian group: densities, sumsets, generators, files.

Subsets are stored as boolean tables in canonical element order.  The sumset
oracle here is deliberately combinatorial (translate unions, no Fourier), so it
can serve as an independent cross-check for the exact counts the verifier and
``good_shift_set`` read A+B-B from: it is the oracle of the acceptance suite's
sumset criterion and of the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bohr import BohrSpec, members_mask
from .errors import DomainError, RetryExhausted, ShapeError
from .groups import (
    Elem,
    GroupSpec,
    check_elem,
    coords_table,
    rank_of_elem,
    require_within_cap,
    strides,
)
from .spectral import DensityFn, _translate_windows


@dataclass(frozen=True, eq=False)
class GroupSubset:
    """A subset of the group, stored as a bitset over canonical ranks."""

    group: GroupSpec
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != (self.group.order,):
            raise ShapeError(
                f"expected {self.group.order} mask entries for group {self.group}, "
                f"got shape {mask.shape}"
            )
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    @property
    def density(self) -> float:
        return self.size / self.group.order

    def indicator(self) -> DensityFn:
        return DensityFn(self.group, self.mask.astype(np.float64))

    def contains(self, a: Elem) -> bool:
        return bool(self.mask[rank_of_elem(self.group, a)])

    def ranks(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def members(self) -> list[Elem]:
        require_within_cap(self.group)
        coords = coords_table(self.group)
        return [Elem(tuple(row)) for row in coords[self.mask]]

    @classmethod
    def from_ranks(cls, g: GroupSpec, ranks) -> "GroupSubset":
        mask = np.zeros(g.order, dtype=bool)
        for r in ranks:
            r = int(r)
            if not 0 <= r < g.order:
                raise DomainError(f"element rank {r} out of range for group {g}")
            mask[r] = True
        return cls(g, mask)

    @classmethod
    def from_elems(cls, g: GroupSpec, elems) -> "GroupSubset":
        mask = np.zeros(g.order, dtype=bool)
        for a in elems:
            mask[rank_of_elem(g, a)] = True
        return cls(g, mask)

    @classmethod
    def full(cls, g: GroupSpec) -> "GroupSubset":
        return cls(g, np.ones(g.order, dtype=bool))

    @classmethod
    def empty(cls, g: GroupSpec) -> "GroupSubset":
        return cls(g, np.zeros(g.order, dtype=bool))


def _translate_union(g: GroupSpec, base_nd: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Union of base + s over the given shift coordinate rows.

    Rows may be negative, unsorted or repeated: each distinct translate is OR-ed
    in once, as a window from :func:`~bohrlab.spectral._translate_windows`, in
    rank order.  An empty base gives the empty set at once.  The union stops
    growing once it is the whole group; that is tested after 1, 2, 4, ...
    translates, so a union that never fills pays for O(log) tests only.  The
    table returned is column-major.
    """
    out = np.zeros(g.factors, dtype=bool, order="F")
    if not base_nd.any():
        return out
    test_at = 1
    for done, window in enumerate(_translate_windows(base_nd, shifts), start=1):
        out |= window
        if done == test_at:
            if out.all():
                break
            test_at *= 2
    return out


def sumset_ABmB(A: GroupSubset, B: GroupSubset) -> GroupSubset:
    """The exact sumset {a + b - c : a in A, b, c in B}, by enumeration.

    Computed in two passes: the difference set B - B first, then its translates
    along A.  O(N * (|A| + |B|)) bit-table work.
    """
    g = A.group
    require_within_cap(g)
    if B.group != g:
        raise ShapeError(f"subsets live on different groups: {g} vs {B.group}")
    coords = coords_table(g)
    # B - B as the union of B - c over c in B.
    diff_nd = _translate_union(g, B.mask.reshape(g.factors), -coords[B.mask])
    out_nd = _translate_union(g, diff_nd, coords[A.mask])
    return GroupSubset(g, out_nd.ravel())


def random_subset(g: GroupSpec, density: float, seed: int) -> GroupSubset:
    """Bernoulli(density) subset, deterministic under the seed.

    Draws are redrawn (from the same stream, at most 16 times) until the
    empirical density lands within five binomial standard deviations of the
    target.
    """
    if not 0.0 < density <= 1.0:
        raise DomainError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(int(seed))
    band = 5.0 * math.sqrt(density * (1.0 - density) / g.order)
    for _ in range(16):
        mask = rng.random(g.order) < density
        if abs(mask.mean() - density) <= band:
            return GroupSubset(g, mask)
    raise RetryExhausted(f"no draw within {band:.3g} of density {density} after 16 tries")


def random_nonempty_subset(g: GroupSpec, density: float, seed: int) -> GroupSubset:
    """Like :func:`random_subset` but also redraws empty results.

    The extraction pipeline needs positive mass, so sweep harnesses sample
    with this variant.  Up to 32 retries are derived deterministically from
    the seed.
    """
    for attempt in range(32):
        sub_seed = int(np.random.SeedSequence([int(seed), attempt]).generate_state(1)[0])
        subset = random_subset(g, density, sub_seed)
        if subset.size > 0:
            return subset
    raise RetryExhausted(f"all 32 draws at density {density} were empty")


# --- structured generators ---------------------------------------------------

def subgroup_subset(g: GroupSpec, divisors) -> GroupSubset:
    """The subgroup of coordinates divisible by the given per-factor divisors."""
    divisors = tuple(int(x) for x in divisors)
    if len(divisors) != g.ndim:
        raise DomainError(f"need {g.ndim} divisors, got {len(divisors)}")
    for d, n in zip(divisors, g.factors):
        if d < 1 or n % d != 0:
            raise DomainError(f"divisor {d} does not divide factor {n}")
    coords = coords_table(g)
    mask = (coords % np.asarray(divisors, dtype=np.int64) == 0).all(axis=1)
    return GroupSubset(g, mask)


def progression_subset(g: GroupSpec, start: Elem, step: Elem, length: int) -> GroupSubset:
    """The arithmetic progression start, start + step, ... of the given length."""
    check_elem(g, start)
    check_elem(g, step)
    if length < 1:
        raise DomainError(f"progression length must be >= 1, got {length}")
    factors = np.asarray(g.factors, dtype=np.int64)
    s = np.asarray(start.coords, dtype=np.int64)
    d = np.asarray(step.coords, dtype=np.int64)
    terms = (s[None, :] + np.arange(length, dtype=np.int64)[:, None] * d[None, :]) % factors
    mask = np.zeros(g.order, dtype=bool)
    stride_vec = np.asarray(strides(g), dtype=np.int64)
    mask[(terms * stride_vec).sum(axis=1)] = True
    return GroupSubset(g, mask)


def bohr_subset(g: GroupSpec, spec: BohrSpec) -> GroupSubset:
    require_within_cap(g)
    if spec.group != g:
        raise ShapeError(f"Bohr spec lives on {spec.group}, requested group is {g}")
    return GroupSubset(g, members_mask(spec))


def union_shift_subset(base: GroupSubset, shifts) -> GroupSubset:
    """Union of translates base + s over the given shifts."""
    g = base.group
    rows = []
    for s in shifts:
        check_elem(g, s)
        rows.append(s.coords)
    if not rows:
        raise DomainError("need at least one shift")
    out = _translate_union(g, base.mask.reshape(g.factors), np.asarray(rows, dtype=np.int64))
    return GroupSubset(g, out.ravel())


_STRUCTURED_KINDS = ("subgroup", "progression", "bohr-set", "union-shift")


def structured_subset(g: GroupSpec, kind: str, **params) -> GroupSubset:
    """Dispatcher over the structured generators, by kind tag."""
    if kind == "subgroup":
        return subgroup_subset(g, **params)
    if kind == "progression":
        return progression_subset(g, **params)
    if kind == "bohr-set":
        return bohr_subset(g, **params)
    if kind == "union-shift":
        return union_shift_subset(**params)
    raise DomainError(f"unknown kind {kind!r}; expected one of {_STRUCTURED_KINDS}")


# --- set files ---------------------------------------------------------------

def write_set_file(subset: GroupSubset, path, fmt: str = "ranks") -> None:
    """Write a subset as rank lines or as a JSON array of coordinate tuples."""
    path = Path(path)
    if fmt == "ranks":
        lines = [str(int(r)) for r in subset.ranks()]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    elif fmt == "coords":
        coords = coords_table(subset.group)[subset.mask]
        payload = [[int(x) for x in row] for row in coords]
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    else:
        raise DomainError(f"unknown set file format {fmt!r}")


def read_set_file(path, g: GroupSpec) -> GroupSubset:
    """Parse either set file format; the two round-trip through each other."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON set file: {exc}") from exc
        if not isinstance(payload, list):
            raise DomainError(f"{path}: expected a JSON array of coordinate tuples")
        elems = []
        for entry in payload:
            if isinstance(entry, int):
                entry = [entry]
            if not isinstance(entry, list) or len(entry) != g.ndim:
                raise DomainError(f"{path}: coordinate tuple {entry!r} does not fit {g}")
            elem = Elem(tuple(int(x) for x in entry))
            try:
                check_elem(g, elem)
            except ShapeError as exc:
                raise DomainError(f"{path}: {exc}") from exc
            elems.append(elem)
        return GroupSubset.from_elems(g, elems)
    ranks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            ranks.append(int(line))
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: not an element rank: {line!r}") from exc
    try:
        return GroupSubset.from_ranks(g, ranks)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
