"""Bitset subsets: construction, sumsets against brute force, generators, files."""

from __future__ import annotations

import numpy as np
import pytest

from bohrlab.bohr import FORM_CHAR, BohrSpec, halve_radius, members_mask
from bohrlab.errors import CapacityError, DomainError, ShapeError
from bohrlab.groups import Char, Elem, GroupSpec, coords_table
from bohrlab.sets import (
    GroupSubset,
    _translate_union,
    bohr_subset,
    progression_subset,
    random_nonempty_subset,
    random_subset,
    read_set_file,
    structured_subset,
    subgroup_subset,
    sumset_ABmB,
    union_shift_subset,
    write_set_file,
)
from bohrlab.verify import good_shift_set


def test_subset_basics():
    g = GroupSpec((8,))
    s = GroupSubset.from_ranks(g, [0, 2, 4, 6])
    assert s.size == 4
    assert s.density == 0.5
    assert s.contains(Elem((2,)))
    assert not s.contains(Elem((3,)))
    assert list(s.ranks()) == [0, 2, 4, 6]
    assert [m.coords for m in s.members()] == [(0,), (2,), (4,), (6,)]
    assert s.indicator().values.tolist() == [1, 0, 1, 0, 1, 0, 1, 0]


def test_subset_validation():
    g = GroupSpec((8,))
    with pytest.raises(ShapeError):
        GroupSubset(g, np.zeros(5, dtype=bool))
    with pytest.raises(DomainError):
        GroupSubset.from_ranks(g, [8])
    with pytest.raises(DomainError):
        GroupSubset.from_ranks(g, [-1])


def test_from_elems_multi_factor():
    g = GroupSpec((4, 3))
    s = GroupSubset.from_elems(g, [Elem((1, 2)), Elem((0, 0))])
    assert s.size == 2
    assert s.contains(Elem((1, 2)))
    assert GroupSubset.full(g).size == 12
    assert GroupSubset.empty(g).size == 0


def _sumset_brute(A: GroupSubset, B: GroupSubset) -> set:
    g = A.group
    out = set()
    for a in A.members():
        for b in B.members():
            for c in B.members():
                z = tuple(
                    (x + y - w) % n
                    for x, y, w, n in zip(a.coords, b.coords, c.coords, g.factors)
                )
                out.add(z)
    return out


@pytest.mark.parametrize("g", [GroupSpec((12,)), GroupSpec((4, 3)), GroupSpec((2, 2, 3))], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sumset_matches_brute_force(g, seed):
    rng = np.random.default_rng(seed)
    A = GroupSubset(g, rng.random(g.order) < 0.3)
    B = GroupSubset(g, rng.random(g.order) < 0.3)
    got = {m.coords for m in sumset_ABmB(A, B).members()}
    assert got == _sumset_brute(A, B)


def test_sumset_empty_inputs():
    g = GroupSpec((9,))
    empty = GroupSubset.empty(g)
    evens = GroupSubset.from_ranks(g, [0, 2, 4])
    assert sumset_ABmB(empty, evens).size == 0
    assert sumset_ABmB(evens, empty).size == 0


def test_sumset_subgroup_is_closed():
    g = GroupSpec((8,))
    evens = GroupSubset.from_ranks(g, [0, 2, 4, 6])
    assert list(sumset_ABmB(evens, evens).ranks()) == [0, 2, 4, 6]


def test_sumset_cap(monkeypatch):
    g = GroupSpec((32,))
    s = GroupSubset.full(g)
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "16")
    with pytest.raises(CapacityError):
        sumset_ABmB(s, s)


def test_sumset_group_mismatch():
    a = GroupSubset.full(GroupSpec((4,)))
    b = GroupSubset.full(GroupSpec((5,)))
    with pytest.raises(ShapeError):
        sumset_ABmB(a, b)


def test_random_subset_deterministic():
    g = GroupSpec((64,))
    s1 = random_subset(g, 0.3, seed=42)
    s2 = random_subset(g, 0.3, seed=42)
    s3 = random_subset(g, 0.3, seed=43)
    assert np.array_equal(s1.mask, s2.mask)
    assert not np.array_equal(s1.mask, s3.mask)


def test_random_subset_density_band():
    g = GroupSpec((256,))
    for seed in range(20):
        s = random_subset(g, 0.2, seed=seed)
        band = 5.0 * np.sqrt(0.2 * 0.8 / 256)
        assert abs(s.density - 0.2) <= band


def test_random_subset_full_density():
    g = GroupSpec((16,))
    assert random_subset(g, 1.0, seed=0).size == 16


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_random_subset_rejects_density(bad):
    with pytest.raises(DomainError):
        random_subset(GroupSpec((8,)), bad, seed=0)


def test_random_nonempty_subset():
    g = GroupSpec((32,))
    for seed in range(10):
        s = random_nonempty_subset(g, 0.05, seed=seed)
        assert s.size > 0
    # deterministic too
    a = random_nonempty_subset(g, 0.05, seed=3)
    b = random_nonempty_subset(g, 0.05, seed=3)
    assert np.array_equal(a.mask, b.mask)


def test_subgroup_subset():
    g = GroupSpec((8,))
    assert list(subgroup_subset(g, [2]).ranks()) == [0, 2, 4, 6]
    g2 = GroupSpec((4, 3))
    s = subgroup_subset(g2, [2, 3])
    assert {m.coords for m in s.members()} == {(0, 0), (2, 0)}
    with pytest.raises(DomainError):
        subgroup_subset(g, [3])  # 3 does not divide 8
    with pytest.raises(DomainError):
        subgroup_subset(g, [2, 2])  # arity


def test_progression_subset():
    g = GroupSpec((8,))
    s = progression_subset(g, Elem((1,)), Elem((2,)), 4)
    assert list(s.ranks()) == [1, 3, 5, 7]
    # wrap-around collapses onto the same residues
    s2 = progression_subset(g, Elem((1,)), Elem((2,)), 10)
    assert list(s2.ranks()) == [1, 3, 5, 7]
    with pytest.raises(DomainError):
        progression_subset(g, Elem((1,)), Elem((2,)), 0)


def test_bohr_subset_matches_mask():
    g = GroupSpec((8,))
    spec = BohrSpec(g, (Char((0,)), Char((4,))), 15 / 128, FORM_CHAR)
    s = bohr_subset(g, spec)
    assert list(s.ranks()) == [0, 2, 4, 6]
    with pytest.raises(ShapeError):
        bohr_subset(GroupSpec((9,)), spec)


def test_union_shift_subset():
    g = GroupSpec((8,))
    evens = GroupSubset.from_ranks(g, [0, 2, 4, 6])
    odds = union_shift_subset(evens, [Elem((1,))])
    assert list(odds.ranks()) == [1, 3, 5, 7]
    both = union_shift_subset(evens, [Elem((0,)), Elem((1,))])
    assert both.size == 8
    with pytest.raises(DomainError):
        union_shift_subset(evens, [])


def test_structured_dispatch():
    g = GroupSpec((8,))
    assert structured_subset(g, "subgroup", divisors=[2]).size == 4
    assert structured_subset(g, "progression", start=Elem((0,)), step=Elem((1,)), length=3).size == 3
    with pytest.raises(DomainError):
        structured_subset(g, "no-such-kind")


@pytest.mark.parametrize("fmt", ["ranks", "coords"])
def test_set_file_round_trip(tmp_path, fmt):
    g = GroupSpec((4, 3))
    rng = np.random.default_rng(77)
    s = GroupSubset(g, rng.random(12) < 0.4)
    path = tmp_path / "set.txt"
    write_set_file(s, path, fmt=fmt)
    back = read_set_file(path, g)
    assert np.array_equal(back.mask, s.mask)


def test_set_file_rank_format(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0\n\n  2 \n4\n6\n")
    s = read_set_file(path, GroupSpec((8,)))
    assert list(s.ranks()) == [0, 2, 4, 6]


def test_set_file_coords_format(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[[0, 0], [1, 2]]")
    s = read_set_file(path, GroupSpec((4, 3)))
    assert {m.coords for m in s.members()} == {(0, 0), (1, 2)}


def test_set_file_bool_coordinate_counts_as_an_integer(tmp_path):
    # The certificate loader's rule: a JSON integer, where a bool counts; a float does not.
    path = tmp_path / "s.json"
    path.write_text("[[true, 2]]")
    assert [m.coords for m in read_set_file(path, GroupSpec((4, 3))).members()] == [(1, 2)]
    path.write_text("[[1.0, 2]]")
    with pytest.raises(DomainError, match="s.json"):
        read_set_file(path, GroupSpec((4, 3)))


def test_set_file_scalar_coords_one_dim(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[1, 5]")
    s = read_set_file(path, GroupSpec((8,)))
    assert list(s.ranks()) == [1, 5]


def test_set_file_empty_is_empty_set(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("")
    assert read_set_file(path, GroupSpec((8,))).size == 0


def test_set_file_errors(tmp_path):
    g = GroupSpec((8,))
    bad = tmp_path / "bad.txt"
    bad.write_text("0\nfoo\n")
    with pytest.raises(DomainError, match="bad.txt:2"):
        read_set_file(bad, g)
    oor = tmp_path / "oor.txt"
    oor.write_text("12\n")
    with pytest.raises(DomainError):
        read_set_file(oor, g)
    arity = tmp_path / "arity.json"
    arity.write_text("[[1, 2]]")
    with pytest.raises(DomainError):
        read_set_file(arity, g)
    njson = tmp_path / "broken.json"
    njson.write_text("[1, 2")
    with pytest.raises(DomainError):
        read_set_file(njson, g)
    with pytest.raises(DomainError):
        write_set_file(GroupSubset.full(g), tmp_path / "x", fmt="nope")


# --- translate unions against the full loop ----------------------------------------

def _full_union(g: GroupSpec, base_nd: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Every translate rolled, with no early stop."""
    out = np.zeros(g.factors, dtype=bool)
    for row in shifts:
        out |= np.roll(base_nd, tuple(int(x) for x in row), axis=tuple(range(g.ndim)))
    return out


def _union_cases():
    rng = np.random.default_rng(91)
    for factors, index in (((64,), 2), ((8, 6, 4), 2), ((2,) * 7, 2), ((2,) * 10, 2), ((5, 1, 3), 5)):
        g = GroupSpec(factors)
        # Random sets: B - B fills the group after a few translates.
        yield f"{g} random", GroupSubset(g, rng.random(g.order) < 0.3), GroupSubset(
            g, rng.random(g.order) < 0.2
        )
        # A subgroup and a coset of it: no union ever fills the group.
        h = subgroup_subset(g, (index,) + (1,) * (g.ndim - 1))
        coset = union_shift_subset(h, [Elem((1,) + (0,) * (g.ndim - 1))])
        yield f"{g} subgroup", h, h
        yield f"{g} coset", coset, h
    # No shift rows at all (A empty), and an empty base with no rows (B empty).
    g = GroupSpec((8, 6, 4))
    yield f"{g} empty A", GroupSubset.empty(g), GroupSubset(g, rng.random(g.order) < 0.2)
    yield f"{g} empty B", GroupSubset(g, rng.random(g.order) < 0.3), GroupSubset.empty(g)


UNION_CASES = list(_union_cases())


@pytest.mark.parametrize("A,B", [c[1:] for c in UNION_CASES], ids=[c[0] for c in UNION_CASES])
def test_translate_unions_match_full_loop(A, B):
    g = A.group
    coords = coords_table(g)
    diff = _full_union(g, B.mask.reshape(g.factors), -coords[B.mask])
    sumset = _full_union(g, diff, coords[A.mask]).ravel()
    assert np.array_equal(sumset_ABmB(A, B).mask, sumset)
    freqs = tuple(Char(tuple(int(x) for x in row)) for row in coords[[1, -1]])
    for radius in (0.3, 1.2):
        b = BohrSpec(g, freqs, radius, FORM_CHAR)
        half = members_mask(halve_radius(b))
        bad = _full_union(g, ~sumset.reshape(g.factors), -coords[half]).ravel()
        assert np.array_equal(good_shift_set(A, B, b).mask, A.mask & ~bad)
    # Shift rows of any sign, unsorted and repeated, as union_shift_subset passes them.
    rng = np.random.default_rng(g.order)
    factors = np.asarray(g.factors)
    picks = coords[rng.integers(0, g.order, size=40)]
    picks = rng.permutation(np.concatenate([picks, picks[::3]]))
    rows = picks + factors * rng.integers(-2, 3, size=picks.shape)
    for base in (A, B):
        base_nd = base.mask.reshape(g.factors)
        want = _full_union(g, base_nd, rows)
        assert np.array_equal(_translate_union(g, base_nd, rows), want)
        assert np.array_equal(_translate_union(g, base_nd, rows[:0]), _full_union(g, base_nd, rows[:0]))
        shifted = union_shift_subset(base, [Elem(tuple(int(x) for x in row)) for row in picks])
        assert np.array_equal(shifted.mask, want.ravel())
