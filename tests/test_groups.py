"""Group plumbing: parsing, ranking, pairings, characters."""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bohrlab.errors import CapacityError, DomainError, ShapeError
from bohrlab.groups import (
    Char,
    Elem,
    CharTuple,
    GroupSpec,
    char_eval,
    char_ranks,
    char_rows,
    char_tuple,
    check_char,
    check_elem,
    coords_table,
    elem_add,
    elem_at,
    elem_neg,
    enumerate_chars,
    enumerate_elems,
    enumeration_cap,
    pairing,
    parse_group,
    rank_of_elem,
    ranks_of_rows,
    rows_at,
    torus_norm,
)

from oracles import char_at, pairing_exact, phase_table, rank_of_char

GROUPS = [GroupSpec((8,)), GroupSpec((4, 3)), GroupSpec((2, 2, 5)), GroupSpec((1,))]


def test_parse_group_round_trip():
    for text, factors in [("8", (8,)), ("4x3", (4, 3)), ("2x2x5", (2, 2, 5)), (" 12 x 5 ", (12, 5))]:
        g = parse_group(text)
        assert g.factors == factors
        assert parse_group(str(g)).factors == factors


@pytest.mark.parametrize("bad", ["", "0", "-4", "4x", "x3", "4x0x2", "abc", "3.5"])
def test_parse_group_rejects_garbage(bad):
    with pytest.raises(DomainError):
        parse_group(bad)


def test_group_order_and_ndim():
    g = GroupSpec((4, 3))
    assert g.order == 12
    assert g.ndim == 2
    assert str(g) == "4x3"


def test_rank_is_lexicographic():
    g = GroupSpec((4, 3))
    expected = list(itertools.product(range(4), range(3)))
    for rank, coords in enumerate(expected):
        assert rank_of_elem(g, Elem(coords)) == rank
        assert elem_at(g, rank).coords == coords
    assert [e.coords for e in enumerate_elems(g)] == expected
    assert [t.freq for t in enumerate_chars(g)] == expected


def test_coords_table_matches_enumeration():
    for g in GROUPS:
        table = coords_table(g)
        assert table.shape == (g.order, g.ndim)
        for rank, e in enumerate(enumerate_elems(g)):
            assert tuple(table[rank]) == e.coords


def test_elem_arithmetic_mod_factors():
    g = GroupSpec((4, 3))
    a, b = Elem((3, 2)), Elem((2, 2))
    assert elem_add(g, a, b).coords == (1, 1)
    assert elem_neg(g, a).coords == (1, 1)
    assert elem_add(g, a, elem_neg(g, a)) == Elem((0, 0))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = elem_at(g, int(rng.integers(g.order)))
        y = elem_at(g, int(rng.integers(g.order)))
        assert elem_add(g, elem_add(g, x, elem_neg(g, y)), y) == x


def test_check_elem_shape_errors():
    g = GroupSpec((4, 3))
    with pytest.raises(ShapeError):
        check_elem(g, Elem((1,)))
    with pytest.raises(ShapeError):
        check_elem(g, Elem((4, 0)))
    with pytest.raises(ShapeError):
        check_char(g, Char((0, 3)))


def test_pairing_matches_exact_fraction():
    rng = np.random.default_rng(17)
    for g in GROUPS:
        for _ in range(40):
            t = char_at(g, int(rng.integers(g.order)))
            z = elem_at(g, int(rng.integers(g.order)))
            exact = pairing_exact(g, t, z)
            assert 0 <= exact < 1
            assert pairing(g, t, z) == pytest.approx(float(exact), abs=1e-12)


def test_pairing_bilinear_exact():
    g = GroupSpec((4, 3))
    rng = np.random.default_rng(3)
    for _ in range(60):
        t = char_at(g, int(rng.integers(g.order)))
        x = elem_at(g, int(rng.integers(g.order)))
        y = elem_at(g, int(rng.integers(g.order)))
        lhs = pairing_exact(g, t, elem_add(g, x, y))
        rhs = (pairing_exact(g, t, x) + pairing_exact(g, t, y)) % 1
        assert lhs == rhs


def test_char_eval_is_unit_and_multiplicative():
    g = GroupSpec((2, 2, 5))
    rng = np.random.default_rng(23)
    for _ in range(40):
        t = char_at(g, int(rng.integers(g.order)))
        x = elem_at(g, int(rng.integers(g.order)))
        y = elem_at(g, int(rng.integers(g.order)))
        assert abs(char_eval(g, t, x)) == pytest.approx(1.0, abs=1e-12)
        assert char_eval(g, t, elem_add(g, x, y)) == pytest.approx(
            char_eval(g, t, x) * char_eval(g, t, y), abs=1e-12
        )
        # conjugation under negation
        assert char_eval(g, t, elem_neg(g, x)) == pytest.approx(
            char_eval(g, t, x).conjugate(), abs=1e-12
        )


def test_trivial_character_is_constant_one():
    for g in GROUPS:
        t0 = char_at(g, 0)
        for z in enumerate_elems(g):
            assert char_eval(g, t0, z) == 1.0 + 0.0j


def test_char_eval_known_values_z8():
    g = GroupSpec((8,))
    t = Char((4,))
    # chi_4(z) = exp(2 pi i 4 z / 8) = (-1)^z
    for z in range(8):
        want = 1.0 if z % 2 == 0 else -1.0
        assert char_eval(g, t, Elem((z,))) == pytest.approx(want, abs=1e-12)


def test_torus_norm_values():
    assert torus_norm(0.0) == 0.0
    assert torus_norm(0.5) == 0.5
    assert torus_norm(0.75) == pytest.approx(0.25)
    assert torus_norm(1.25) == pytest.approx(0.25)
    assert torus_norm(-0.1) == pytest.approx(0.1)
    rng = np.random.default_rng(2)
    for x in rng.normal(scale=3.0, size=100):
        v = torus_norm(float(x))
        assert 0.0 <= v <= 0.5
        assert torus_norm(-float(x)) == pytest.approx(v, abs=1e-12)


def test_phase_table_matches_pairing():
    g = GroupSpec((4, 3))
    freqs = coords_table(g)[[0, 5, 11]]
    coords = coords_table(g)
    table = phase_table(g, freqs, coords)
    assert table.shape == (3, g.order)
    for i, frow in enumerate(freqs):
        t = Char(tuple(int(v) for v in frow))
        for rank in range(g.order):
            z = elem_at(g, rank)
            assert table[i, rank] == pytest.approx(pairing(g, t, z), abs=1e-12)


def test_enumeration_cap_env_override(monkeypatch):
    g = GroupSpec((64,))
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "32")
    assert enumeration_cap() == 32
    with pytest.raises(CapacityError):
        enumerate_elems(g)
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "64")
    assert len(enumerate_elems(g)) == 64


def test_enumeration_cap_garbage_env(monkeypatch):
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "not-a-number")
    with pytest.raises(DomainError):
        enumeration_cap()


def test_rank_of_char_round_trip():
    g = GroupSpec((2, 2, 5))
    for rank in range(g.order):
        assert rank_of_char(g, char_at(g, rank)) == rank


def test_one_point_group_degenerates():
    g = GroupSpec((1,))
    assert g.order == 1
    assert enumerate_elems(g) == [Elem((0,))]
    assert pairing(g, Char((0,)), Elem((0,))) == 0.0


def test_chartuple_of_rows_builds_equal_chars():
    g = GroupSpec((4, 3))
    rows = coords_table(g)
    chars = CharTuple(rows)
    assert isinstance(chars, CharTuple)
    assert chars == tuple(enumerate_chars(g))
    assert all(type(x) is int for t in chars for x in t.freq)
    assert np.array_equal(chars.rows, rows) and not chars.rows.flags.writeable
    assert char_tuple(g, chars) is chars  # already carries a matrix: checked, not rebuilt
    assert CharTuple(np.zeros((0, 2), dtype=np.int64)) == ()


@settings(max_examples=80, deadline=None)
@given(
    rows=arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)),
    data=st.data(),
)
def test_chartuple_behaves_like_the_tuple_of_its_chars(rows, data):
    chars = CharTuple(rows)
    plain = tuple(Char(tuple(r)) for r in rows.tolist())
    k = len(plain)
    assert len(chars) == k and list(chars) == list(plain)
    assert [chars[i] for i in range(-k, k)] == list(plain + plain)
    for i in (k, -k - 1):
        with pytest.raises(IndexError):
            chars[i]
    assert chars == plain and plain == chars and not chars != plain
    assert hash(chars) == hash(plain)
    part = data.draw(st.slices(k))
    assert isinstance(chars[part], CharTuple) and np.array_equal(chars[part].rows, rows[part])
    assert chars[part] == plain[part]
    assert chars == CharTuple(rows.copy()) and hash(chars) == hash(CharTuple(rows.copy()))
    assert chars != list(plain)
    other = data.draw(arrays(np.int64, data.draw(st.sampled_from([rows.shape, (k, 1), (1, 1)]))))
    assert (chars == CharTuple(other)) == (plain == tuple(Char(tuple(r)) for r in other.tolist()))
    back = pickle.loads(pickle.dumps(chars))
    assert isinstance(back, CharTuple) and back == chars and not back.rows.flags.writeable


def test_char_tuple_validates_in_one_array_check():
    g = GroupSpec((4, 3))
    plain = (Char((3, 2)), Char((0, 1)))
    wrapped = char_tuple(g, plain)
    assert wrapped == plain and wrapped.rows.tolist() == [[3, 2], [0, 1]]
    assert char_tuple(g, ()).rows.shape == (0, 2)
    for bad in (
        (Char((0, 3)),),  # out of range
        (Char((-1, 0)),),  # negative
        (Char((0,)),),  # wrong length
        (Char((0, 0)), Char((1,))),  # ragged
        (Char((2**63, 0)),),  # beyond int64
    ):
        with pytest.raises(ShapeError):
            char_tuple(g, bad)
    with pytest.raises(ShapeError):
        char_tuple(g, CharTuple(np.array([[4, 0]])))


@pytest.mark.parametrize("g", GROUPS, ids=str)
def test_rows_and_ranks_agree_with_scalar_ranking(g):
    ranks = np.arange(g.order)
    rows = rows_at(g, ranks)
    assert [tuple(r) for r in rows.tolist()] == [char_at(g, int(r)).freq for r in ranks]
    assert np.array_equal(ranks_of_rows(g, rows), ranks)
    assert ranks_of_rows(g, rows[:0]).shape == (0,)


@settings(max_examples=60, deadline=None)
@example(factors=(4, 4), other=(5, 5), draws=[5, 0])  # (1, 1) has rank 5 in 4x4, 6 in 5x5
@example(factors=(4, 4), other=(2, 4), draws=[15])  # (3, 3) is out of range for 2x4
@given(
    factors=st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
    other=st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
    draws=st.lists(st.integers(0, 2**20), max_size=20),
)
def test_tuple_from_ranks_is_the_checked_tuple_of_its_rows(factors, other, draws):
    """The rows, the ranks kept and the group they were checked for agree with a fresh check of the rows."""
    g, h = GroupSpec(factors), GroupSpec(other)
    ranks = np.array(draws, dtype=np.int64) % g.order
    chars = CharTuple.from_ranks(g, ranks)
    fresh = CharTuple(rows_at(g, ranks))
    assert chars == fresh and chars.rows.shape == (len(ranks), g.ndim)
    assert not chars.rows.flags.writeable and not ranks.flags.writeable
    assert char_tuple(g, chars) is chars and char_ranks(g, chars) is ranks
    assert np.array_equal(char_ranks(g, fresh), ranks)
    # Checked against another group, the tuple is checked afresh and ranked for that group.
    try:
        want = char_ranks(h, fresh)
    except ShapeError:
        with pytest.raises(ShapeError):
            char_tuple(h, chars)
    else:
        assert np.array_equal(char_ranks(h, chars), want)
        assert want.tolist() == [rank_of_char(h, t) for t in chars]
    assert np.array_equal(char_ranks(g, chars), ranks)
    back = pickle.loads(pickle.dumps(chars))
    assert back == chars and np.array_equal(char_ranks(g, back), ranks)


@pytest.mark.parametrize("g", GROUPS + [GroupSpec((3, 1, 4, 2))], ids=str)
def test_gathered_rows_are_the_unravelled_rows(g):
    """``char_rows`` on a tuple of ranks gathers the coordinate table, equal to ``rows_at``, and keeps it."""
    ranks = np.arange(g.order)[::-1][::2].copy()
    chars = CharTuple.from_ranks(g, ranks)
    rows = char_rows(g, chars)
    assert rows.dtype == np.int64 and rows.flags.c_contiguous and not rows.flags.writeable
    assert np.array_equal(rows, rows_at(g, ranks)) and chars.rows is rows
    held = CharTuple(rows_at(g, ranks))
    assert char_rows(g, held) is held.rows
    assert char_rows(g, CharTuple.from_ranks(g, np.zeros(0, dtype=np.int64))).shape == (0, g.ndim)
