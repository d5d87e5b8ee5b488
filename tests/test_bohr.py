"""Bohr sets in both metric forms, membership, radius surgery."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrlab import bohr, spectral
from bohrlab.bohr import (
    FORM_CHAR,
    FORM_TORUS,
    BohrSpec,
    bohr_enumerate,
    bohr_member,
    char_form_to_torus_form,
    halve_radius,
    members_mask,
)
from bohrlab.errors import AmbiguousBoundary, CapacityError, DomainError, ShapeError
from bohrlab.groups import (
    Char,
    CharTuple,
    Elem,
    GroupSpec,
    coords_table,
    elem_add,
    enumerate_elems,
)

from oracles import pairing_exact, phase_table


def test_spec_validation():
    g = GroupSpec((8,))
    with pytest.raises(DomainError):
        BohrSpec(g, (Char((0,)),), 0.5, "no-such-form")
    with pytest.raises(DomainError):
        BohrSpec(g, (Char((0,)),), 0.0, FORM_CHAR)
    with pytest.raises(DomainError):
        BohrSpec(g, (Char((0,)),), float("inf"), FORM_CHAR)
    with pytest.raises(ShapeError):
        BohrSpec(g, (Char((0, 1)),), 0.5, FORM_CHAR)
    with pytest.raises(ShapeError):
        BohrSpec(g, (Char((0,)),), 0.5, FORM_CHAR, center=Elem((9,)))


def test_char_form_members_worked_example():
    # freqs {0, 4} on Z8 at radius 15/128: chi_4 separates parities exactly
    g = GroupSpec((8,))
    b = BohrSpec(g, (Char((0,)), Char((4,))), 15 / 128, FORM_CHAR)
    members = sorted(m.coords[0] for m in bohr_enumerate(b))
    assert members == [0, 2, 4, 6]


def test_torus_form_members_hand_derived():
    # freq {2} on Z8: phases z/4, torus norms 0, .25, .5, .25, 0, ...
    g = GroupSpec((8,))
    b = BohrSpec(g, (Char((2,)),), 0.3, FORM_TORUS)
    members = sorted(m.coords[0] for m in bohr_enumerate(b))
    assert members == [0, 1, 3, 4, 5, 7]


def test_zero_always_member():
    g = GroupSpec((12, 5))
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        freqs = tuple(
            Char((int(rng.integers(12)), int(rng.integers(5)))) for _ in range(k)
        )
        radius = float(rng.uniform(0.05, 0.4))
        for form in (FORM_CHAR, FORM_TORUS):
            b = BohrSpec(g, freqs, radius, form)
            assert bohr_member(b, Elem((0, 0)))


def test_member_agrees_with_mask():
    g = GroupSpec((9, 4))
    rng = np.random.default_rng(13)
    for _ in range(10):
        freqs = tuple(
            Char((int(rng.integers(9)), int(rng.integers(4)))) for _ in range(2)
        )
        b = BohrSpec(g, freqs, float(rng.uniform(0.1, 0.9)), FORM_CHAR)
        mask = members_mask(b)
        for rank, e in enumerate(enumerate_elems(g)):
            assert bohr_member(b, e) == bool(mask[rank])


def test_membership_symmetric_under_negation():
    g = GroupSpec((16,))
    b = BohrSpec(g, (Char((3,)), Char((5,))), 0.7, FORM_CHAR)
    mask = members_mask(b)
    for z in range(16):
        assert mask[z] == mask[(-z) % 16]


def test_dimension_zero_is_whole_group():
    g = GroupSpec((6,))
    b = BohrSpec(g, (), 0.25, FORM_CHAR)
    assert members_mask(b).all()


def test_radius_past_every_distance_is_the_whole_group():
    g = GroupSpec((8, 3))
    freqs = (Char((1, 1)), Char((4, 2)))
    for radius, form in ((2.5, FORM_CHAR), (1e300, FORM_CHAR), (0.51, FORM_TORUS), (1e300, FORM_TORUS)):
        assert members_mask(BohrSpec(g, freqs, radius, form)).all()
    # At exactly 1/2 the torus distance of z = (4, 0) under t = (1, 1) ties.
    with pytest.raises(AmbiguousBoundary, match="distance 12/24 at element rank 12 "):
        members_mask(BohrSpec(g, freqs, 0.5, FORM_TORUS))


def test_boundary_within_guard_raises():
    # distance of z=1 under freq 2 in Z8 is exactly 2 sin(pi/4); use it as radius
    g = GroupSpec((8,))
    radius = 2.0 * math.sin(math.pi * 0.25)
    b = BohrSpec(g, (Char((2,)),), radius, FORM_CHAR)
    with pytest.raises(AmbiguousBoundary):
        bohr_member(b, Elem((1,)))
    with pytest.raises(AmbiguousBoundary):
        members_mask(b)
    # a safely-shifted radius decides cleanly
    b2 = BohrSpec(g, (Char((2,)),), radius + 1e-6, FORM_CHAR)
    assert bohr_member(b2, Elem((1,)))


def test_char_ties_raise_where_the_arcsine_is_well_conditioned():
    # A radius that is 2 sin(pi j/L) rounded lands inside the threshold's enclosure.
    for n in range(2, 65):
        g = GroupSpec((n,))
        for j in range(1, int(0.45 * n) + 1):
            b = BohrSpec(g, (Char((1,)),), 2.0 * math.sin(math.pi * j / n), FORM_CHAR)
            with pytest.raises(AmbiguousBoundary, match=f"at element rank {j} "):
                members_mask(b)
            with pytest.raises(AmbiguousBoundary):
                bohr_member(b, Elem((n - j,)))


def test_tiny_radius_is_the_annihilator():
    # Far below any nonzero distance: members are the elements every frequency kills.
    g = GroupSpec((2,) * 6 + (4,))
    freqs = CharTuple([[1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 2], [0] * 7])
    coords = coords_table(g)
    kernel = (phase_table(g, freqs.rows, coords) == 0).all(axis=0)
    for radius in (5e-324, 1e-300, 1e-13, 1e-9):
        for form in (FORM_CHAR, FORM_TORUS):
            b = BohrSpec(g, freqs, radius, form)
            assert np.array_equal(members_mask(b), kernel)
            assert all(bohr_member(b, Elem(tuple(map(int, coords[r])))) == kernel[r] for r in range(g.order))


def test_torus_boundary_within_guard_raises():
    g = GroupSpec((8,))
    b = BohrSpec(g, (Char((2,)),), 0.25, FORM_TORUS)
    with pytest.raises(AmbiguousBoundary):
        members_mask(b)


def test_enumerate_cap(monkeypatch):
    g = GroupSpec((64,))
    b = BohrSpec(g, (Char((1,)),), 0.3, FORM_CHAR)
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "16")
    with pytest.raises(CapacityError):
        bohr_enumerate(b)
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "64")
    assert len(bohr_enumerate(b)) > 0


def test_char_to_torus_conversion_shrinks():
    rng = np.random.default_rng(29)
    g = GroupSpec((32,))
    for _ in range(20):
        freqs = tuple(Char((int(rng.integers(32)),)) for _ in range(2))
        b = BohrSpec(g, freqs, float(rng.uniform(0.2, 1.5)), FORM_CHAR)
        t = char_form_to_torus_form(b)
        assert t.form == FORM_TORUS
        assert t.radius == pytest.approx(b.radius / (2 * math.pi))
        assert t.freqs == b.freqs
        char_mask = members_mask(b)
        torus_mask = members_mask(t)
        assert not (torus_mask & ~char_mask).any()


def test_char_to_torus_requires_char_form():
    g = GroupSpec((8,))
    b = BohrSpec(g, (Char((1,)),), 0.2, FORM_TORUS)
    with pytest.raises(DomainError):
        char_form_to_torus_form(b)


@pytest.mark.parametrize("form", [FORM_CHAR, FORM_TORUS])
def test_halved_members_sum_into_parent(form):
    rng = np.random.default_rng(31)
    g = GroupSpec((24,))
    for _ in range(10):
        freqs = tuple(Char((int(rng.integers(24)),)) for _ in range(2))
        b = BohrSpec(g, freqs, float(rng.uniform(0.1, 0.8)), form)
        half = halve_radius(b)
        assert half.radius == b.radius / 2
        members = bohr_enumerate(half)
        parent = members_mask(b)
        for x in members:
            for y in members:
                s = elem_add(g, x, y)
                assert parent[s.coords[0]], (x, y, b.radius)


def test_spec_shares_validated_frequency_tuple():
    g = GroupSpec((8,))
    b = BohrSpec(g, (Char((0,)), Char((4,))), 0.5, FORM_CHAR)
    torus = char_form_to_torus_form(b)
    assert torus.freqs is b.freqs and halve_radius(b).freqs is b.freqs
    assert b.freqs.rows.tolist() == [[0], [4]]


@settings(max_examples=200, deadline=None)
@given(
    factors=st.lists(st.sampled_from([1, 1, 2, 3, 4, 6, 8, 9, 12, 97]), min_size=1, max_size=4).map(tuple),
    data=st.data(),
)
def test_distances_are_the_exact_pairing(factors, data):
    # The linear form (rows * L/n) @ coords mod L is L times the exact pairing, folded to min(M, L - M).
    g = GroupSpec(factors)
    lcm = math.lcm(*factors)
    elem = st.tuples(*(st.integers(0, n - 1) for n in factors))
    chars = data.draw(st.lists(elem, min_size=1, max_size=5))
    elems = data.draw(st.lists(elem, min_size=1, max_size=5))
    got = bohr._distances(g, np.array(chars, dtype=np.int64), np.array(elems, dtype=np.int64))
    for t, row in zip(chars, got):
        for z, j in zip(elems, row):
            m = pairing_exact(g, Char(t), Elem(z)) * lcm
            assert m.denominator == 1
            assert j == min(m, lcm - m)


@settings(max_examples=300, deadline=None)
@given(
    factors=st.lists(
        st.sampled_from([1, 2, 3, 5, 7, 97, 4, 8, 9, 25, 27, 64, 6, 12, 30]), min_size=1, max_size=5
    ).map(tuple).filter(lambda f: math.prod(f) <= 1 << 20),
    data=st.data(),
)
@example(factors=(2, 3, 4, 6, 6, 3), data=None)
@example(factors=(720720,), data=None)
@example(factors=(97, 4), data=None)
@example(factors=(1,), data=None)
@example(factors=(1, 1, 2), data=None)
@example(factors=(2,) * 18, data=None)
def test_screen_steps_are_the_gcd(factors, data):
    # The class table of the membership screen, read by rank, against np.gcd, the Euclid it replaces.
    g = GroupSpec(factors)
    lcm, weights = bohr._lcm_weights(factors)
    if data is None:  # an explicit example: every character
        rows = coords_table(g)
    else:
        elem = st.tuples(*(st.integers(0, n - 1) for n in factors))
        rows = np.array(data.draw(st.lists(elem, min_size=1, max_size=40)), dtype=np.int64)
    want = np.gcd(np.gcd.reduce(rows * weights, axis=1), lcm)
    divisors, classes = bohr._step_tables(factors)
    got = divisors[classes[np.ravel_multi_index(tuple(rows.T), factors)]]
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(divisors, bohr._divisors(lcm))
    assert classes.dtype == np.uint16 and classes.shape == (g.order,)
    assert not divisors.flags.writeable and not classes.flags.writeable


def test_members_mask_blocking_changes_nothing(monkeypatch):
    g = GroupSpec((4, 3, 2))
    rng = np.random.default_rng(8)
    freqs = tuple(Char(tuple(int(x) for x in rng.integers(0, (4, 3, 2)))) for _ in range(7))
    specs = [BohrSpec(g, freqs, r, form) for r in (0.9, 1.7) for form in (FORM_CHAR, FORM_TORUS)]
    whole = [members_mask(b) for b in specs]
    edge = BohrSpec(g, (Char((0, 0, 0)), Char((2, 0, 0))), 2.0, FORM_CHAR)
    with pytest.raises(AmbiguousBoundary) as unblocked:
        members_mask(edge)
    monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1)  # one frequency row per block
    monkeypatch.setattr(bohr, "_last_walk", None)  # so the last spec walks again, blocked
    rows, distances = [], bohr._distances  # the frequency rows of each block

    def counted(grp, block, coords):
        rows.append(len(block))
        return distances(grp, block, coords)

    monkeypatch.setattr(bohr, "_distances", counted)
    assert all(np.array_equal(members_mask(b), m) for b, m in zip(specs, whole))
    assert rows and set(rows) == {1}
    with pytest.raises(AmbiguousBoundary) as blocked:
        members_mask(edge)
    assert str(blocked.value) == str(unblocked.value)


# --- the pruned walk against an exact oracle ------------------------------------

def _exact_oracle(b: BohrSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """Every frequency against every element: (members, decided), or None at an exact tie.

    Torus form: the distance j/L as a Fraction against the float radius, itself
    a Fraction, so every element is decided and a tie gives None.  Character
    form: float distances 2 sin(pi phase), decided only where they are more
    than 1e-14 from the radius; an element is decided when no distance of its
    is that near, or when one far distance already excludes it.
    """
    g = b.group
    phases = phase_table(g, b.freqs.rows, coords_table(g))
    if b.form == FORM_TORUS:
        lcm = math.lcm(*g.factors)
        numer = np.rint(phases * lcm).astype(np.int64) % lcm
        j = np.minimum(numer, lcm - numer)
        radius = Fraction(b.radius)
        dist = {int(v): Fraction(int(v), lcm) for v in np.unique(j)}
        if radius in dist.values():
            return None
        members = np.vectorize(lambda v: dist[v] < radius, otypes=[bool])(j).all(axis=0)
        return members, np.ones(g.order, dtype=bool)
    dists = 2.0 * np.sin(np.pi * phases)
    near = np.abs(dists - b.radius) <= 1e-14
    excluded = ((dists >= b.radius) & ~near).any(axis=0)
    return (dists < b.radius).all(axis=0), excluded | ~near.any(axis=0)


def _near_pairs(b: BohrSpec) -> int:
    """How many (frequency, element) distances lie within 1e-14 of the radius."""
    phases = phase_table(b.group, b.freqs.rows, coords_table(b.group))
    dists = 2.0 * np.sin(np.pi * phases) if b.form == FORM_CHAR else np.minimum(phases, 1.0 - phases)
    return int((np.abs(dists - b.radius) <= 1e-14).sum())


MEMBERSHIP_GROUPS = st.one_of(
    st.lists(st.integers(1, 12), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda f: math.prod(f) <= 512),
    st.sampled_from([(2,) * 9, (3,) * 5, (4, 2, 2, 2, 2, 2)]),
)


@settings(max_examples=400, deadline=None)
@given(
    factors=MEMBERSHIP_GROUPS,
    k=st.integers(0, 6),
    form=st.sampled_from([FORM_CHAR, FORM_TORUS]),
    attainable=st.booleans(),
    nudge=st.sampled_from([0.0, 0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_members_mask_matches_full_walk(factors, k, form, attainable, nudge, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, factors, size=(k, len(factors)))
    tie = None
    if attainable and k:
        # A distance some frequency really takes: 2 sin(pi j/L) or j/L, L its order.
        t = rows[rng.integers(k)]
        order = math.lcm(*(n // math.gcd(int(x), n) for x, n in zip(t, factors)))
        j = int(rng.integers(1, order // 2 + 1)) if order > 1 else 1
        radius = 2.0 * math.sin(math.pi * j / order) if form == FORM_CHAR else j / order
        tie = (j, order) if order > 1 else None
    else:
        radius = float(rng.uniform(0.0, 2.2 if form == FORM_CHAR else 0.6))
    radius = max(radius + nudge, 1e-3)
    b = BohrSpec(g, CharTuple(rows), radius, form)
    try:
        got = members_mask(b)
    except AmbiguousBoundary:
        got = None
    want = _exact_oracle(b)
    if got is None:
        # It raises only at a distance within rounding of the radius.
        assert _near_pairs(b) > 0
    else:
        assert want is not None
        members, decided = want
        assert np.array_equal(got[decided], members[decided])
    # An attainable tie must raise.  In torus form a nudge-0 radius ties exactly
    # when j/L is dyadic; in char form it is 2 sin(pi j/L) rounded, which the
    # rule may still decide where the arcsine is ill-conditioned, near j/L = 1/2.
    if tie is not None and nudge == 0.0 and form == FORM_TORUS and Fraction(radius) == Fraction(*tie):
        assert got is None
    if tie is not None and nudge in (5e-13, -5e-13, 2e-12, -2e-12):
        assert got is not None and want[1].all()  # decided, on the side the nudge gives


# --- the remembered walk against fresh ones ---------------------------------------

def _outcome(b: BohrSpec) -> np.ndarray | str:
    try:
        return members_mask(b)
    except AmbiguousBoundary as exc:
        return str(exc)


def _same(got, want) -> bool:
    return got == want if isinstance(want, str) else not isinstance(got, str) and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(
    factors=MEMBERSHIP_GROUPS,
    k=st.integers(0, 6),
    radius=st.floats(1e-3, 2.2),
    wider=st.floats(1.01, 4.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_remembered_walk_matches_fresh_walks(factors, k, radius, wider, seed, data):
    # One tuple at r, r/2pi, r/2 and a wider radius, in both forms and any order: each call
    # may walk only the members of an earlier, wider walk, yet gives what a fresh tuple gives.
    g = GroupSpec(factors)
    rows = np.random.default_rng(seed).integers(0, factors, size=(k, len(factors)))
    freqs = CharTuple(rows)
    radii = (radius, radius / (2 * math.pi), radius / 2, radius * wider)
    specs = [BohrSpec(g, freqs, r, form) for r in radii for form in (FORM_CHAR, FORM_TORUS)]
    want = [_outcome(replace(b, freqs=CharTuple(rows))) for b in specs]
    for i in data.draw(st.permutations(range(len(specs)))):
        got = _outcome(specs[i])
        assert _same(got, want[i]), (specs[i].form, specs[i].radius)
        if not isinstance(got, str):
            got[:] = True  # a fresh array: writing it leaves later calls as they were


@settings(max_examples=300, deadline=None)
@given(
    factors=MEMBERSHIP_GROUPS,
    k=st.integers(1, 6),
    form=st.sampled_from([FORM_CHAR, FORM_TORUS]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_tie_after_a_wider_walk_raises_as_a_fresh_walk(factors, k, form, seed, data):
    # A clean torus walk just past j/order, then a radius at distance j/order of one of the
    # frequencies: the remembered walk must not skip the screen that finds the tie.
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, factors, size=(k, len(factors)))
    t = rows[rng.integers(k)]
    order = math.lcm(*(n // math.gcd(int(x), n) for x, n in zip(t, factors)))
    j = data.draw(st.integers(1, max(1, order // 2)))
    tie = 2.0 * math.sin(math.pi * j / order) if form == FORM_CHAR else j / order
    want = _outcome(BohrSpec(g, CharTuple(rows), tie, form))
    if order > 1 and form == FORM_TORUS and Fraction(tie) == Fraction(j, order):
        assert isinstance(want, str)
    freqs = CharTuple(rows)
    wide = BohrSpec(g, freqs, min((j + 0.5) / order, 0.499) + 1e-9, FORM_TORUS)  # r L is no integer: no tie
    assert not isinstance(_outcome(wide), str)  # a clean walk over the group, remembered
    assert _same(_outcome(BohrSpec(g, freqs, tie, form)), want)


def test_remembered_walk_is_per_group():
    # One tuple checked against two groups in turn: the second call, at a narrower
    # threshold, must not read the first group's members.
    rows = [[1, 1], [2, 3]]
    cases = ((GroupSpec((16, 16)), 0.45), (GroupSpec((4, 4)), 0.2), (GroupSpec((16, 16)), 0.1))
    want = [members_mask(BohrSpec(g, CharTuple(rows), radius, FORM_TORUS)) for g, radius in cases]
    freqs = CharTuple(rows)
    for (g, radius), mask in zip(cases, want):
        assert np.array_equal(members_mask(BohrSpec(g, freqs, radius, FORM_TORUS)), mask)
