"""The extraction pipeline, step by step and end to end."""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrlab.bohr import FORM_CHAR, FORM_TORUS, bohr_enumerate, char_form_to_torus_form
from bohrlab.claim import BOUND_SLACK, RADIUS_SLACK, BoundCheck, Certificate
from bohrlab.errors import (
    DomainError,
    EmptyInputError,
    InvariantBreach,
    PreconditionError,
    ShapeError,
)
from bohrlab import extractor
from bohrlab.extractor import (
    TrigPoly,
    _at_least,
    _check_mean,
    _libm_table,
    _require_closed,
    _residue_ranks,
    bohr_from_trigpoly,
    extract,
    find_witness,
    normalize_means,
)
from bohrlab.groups import (
    TWO_PI,
    Char,
    CharTuple,
    Elem,
    GroupSpec,
    char_eval,
    char_ranks,
    elem_at,
    rank_of_elem,
    ranks_of_rows,
    rows_at,
    strides,
)
from bohrlab.rfft import dft, triple_convolve
from bohrlab.serialize import certificate_to_json
from bohrlab.sets import GroupSubset, random_nonempty_subset
from bohrlab.spectral import DensityFn, _negated_ranks

from oracles import (
    char_at,
    constant_density,
    idft_real,
    large_spectrum,
    rank_of_char,
    remainder_bound_check,
    triple_convolve_definitional,
    triple_spectrum,
)

Z8 = GroupSpec((8,))
EVENS = DensityFn(Z8, [1, 0, 1, 0, 1, 0, 1, 0])


def test_normalize_means_equal_means_untouched():
    f, g, delta = normalize_means(EVENS, EVENS)
    assert delta == 0.5
    assert np.array_equal(f.values, EVENS.values)
    assert np.array_equal(g.values, EVENS.values)


def test_normalize_means_scales_heavier_side():
    quarter = DensityFn(Z8, [1, 0, 0, 0, 1, 0, 0, 0])
    f, g, delta = normalize_means(EVENS, quarter)
    assert delta == 0.25
    assert f.mean == pytest.approx(0.25, abs=1e-15)
    assert np.array_equal(g.values, quarter.values)
    # support is preserved, only mass changes
    assert np.array_equal(f.values > 0, EVENS.values > 0)
    # symmetric case
    f2, g2, delta2 = normalize_means(quarter, EVENS)
    assert delta2 == 0.25
    assert g2.mean == pytest.approx(0.25, abs=1e-15)


def test_normalize_means_errors():
    with pytest.raises(DomainError):
        normalize_means(DensityFn(Z8, [2.0] * 8), EVENS)
    with pytest.raises(DomainError):
        normalize_means(DensityFn(Z8, [-0.5] * 8), EVENS)
    with pytest.raises(EmptyInputError):
        normalize_means(DensityFn(Z8, [0.0] * 8), EVENS)
    with pytest.raises(ShapeError):
        normalize_means(EVENS, constant_density(GroupSpec((9,))))


def test_large_spectrum_evens():
    # coefficients are exactly 1/2 at t in {0, 4}, zero elsewhere; extract reads S1 off this mask
    coeffs = dft(EVENS).coeffs
    assert np.flatnonzero(_at_least(coeffs, 0.25)).tolist() == [0, 4]
    assert np.flatnonzero(_at_least(coeffs, 0.5)).tolist() == [0, 4]  # >= is inclusive
    assert not _at_least(coeffs, 0.500001).any()
    for threshold in (0.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            _at_least(coeffs, threshold)
    # The full-table oracle reads the same mask.
    assert [t.freq for t in large_spectrum(dft(EVENS), 0.5)] == [(0,), (4,)]
    with pytest.raises(DomainError):
        large_spectrum(dft(EVENS), 0.0)


def test_large_spectrum_canonical_order():
    g = GroupSpec((4, 3))
    rng = np.random.default_rng(3)
    f = DensityFn(g, rng.random(12))
    chars = large_spectrum(dft(f), 1e-6)
    ranks = [t.freq for t in chars]
    assert ranks == sorted(ranks)


def test_find_witness_ties_break_canonically():
    h = triple_convolve(EVENS, EVENS)  # constant 1/4 on the evens
    a0, val = find_witness(h, EVENS)
    assert a0 == Elem((0,))
    assert val == 0.25


def test_find_witness_restricted_to_support():
    g = GroupSpec((8,))
    f = DensityFn(g, [0, 1, 0, 0, 0, 0, 0, 0])  # support {1} only, mean 1/8
    h = DensityFn(g, [9.0, 0.5, 0, 0, 0, 0, 0, 0])  # larger value off-support
    a0, val = find_witness(h, f)
    assert a0 == Elem((1,))
    assert val == 0.5


def test_find_witness_empty_support():
    g = GroupSpec((8,))
    with pytest.raises(EmptyInputError):
        find_witness(constant_density(g, 0.0), constant_density(g, 0.0))


def test_find_witness_low_value_is_breach():
    g = GroupSpec((8,))
    flat_zero = constant_density(g, 0.0)
    with pytest.raises(InvariantBreach):
        find_witness(flat_zero, EVENS)  # needs >= (1/2)^4 on the evens


def test_remainder_zero_when_s1_complete():
    hhat = triple_spectrum(dft(EVENS), dft(EVENS))
    r = remainder_bound_check(hhat, [Char((0,)), Char((4,))], 0.5)
    assert r == 0.0


def test_remainder_breach_when_s1_drops_mass():
    # dropping t=4 leaves a coefficient of 1/8 in the tail, far over the cap
    with pytest.raises(InvariantBreach):
        remainder_bound_check(triple_spectrum(dft(EVENS), dft(EVENS)), [Char((0,))], 0.5)


def test_remainder_requires_matching_means():
    # means 1/2 and 1/4: h-hat(0) = 1/32, which is delta^3 for neither
    hhat = triple_spectrum(dft(EVENS), dft(constant_density(Z8, 0.25)))
    for delta in (0.5, 0.25):
        with pytest.raises(DomainError, match="not mean-normalized"):
            _check_mean(complex(hhat.coeffs[0]), delta)
        with pytest.raises(DomainError):
            remainder_bound_check(hhat, [Char((0,))], delta)
    _check_mean(complex(triple_spectrum(dft(EVENS), dft(EVENS)).coeffs[0]), 0.5)


def test_remainder_requires_s1_closed_under_negation():
    # The real synthesis reads half the table; an unpaired character would be zeroed on one side.
    hhat = triple_spectrum(dft(EVENS), dft(EVENS))
    with pytest.raises(DomainError, match="negation"):
        remainder_bound_check(hhat, [Char((0,)), Char((1,))], 0.5)
    in_s1 = np.zeros(8, dtype=bool)
    in_s1[[0, 1]] = True
    with pytest.raises(DomainError, match=re.escape("holds (1,) but not its negative")):
        _require_closed(in_s1)
    in_s1[7] = True
    _require_closed(in_s1)


@settings(max_examples=80, deadline=None)
@example(factors=(3, 5, 6), density=0.5, pair=False, seed=1)
@example(factors=(1, 4, 1, 3), density=0.5, pair=True, seed=2)
@example(factors=(2, 2, 2), density=1.0, pair=False, seed=3)
@given(
    factors=st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
    density=st.sampled_from([0.1, 0.5, 1.0]),
    pair=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_remainder_names_the_first_unpaired_character(factors, density, pair, seed):
    # Against negation coordinate by coordinate: S1 is refused exactly when some -t is missing,
    # and the message names the first such t in S1's order.
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    chosen = {0} | set(np.flatnonzero(rng.random(g.order) < density).tolist())
    freqs = {tuple(int(x) for x in rows_at(g, np.array([r]))[0]) for r in chosen}
    negate = lambda t: tuple((-c) % n for c, n in zip(t, factors))
    if pair:
        freqs |= {negate(t) for t in freqs}
    s1 = sorted((Char(t) for t in freqs), key=lambda t: rank_of_char(g, t))
    hhat = triple_spectrum(dft(constant_density(g, 0.5)), dft(constant_density(g, 0.5)))
    unpaired = [t for t in s1 if negate(t.freq) not in freqs]
    if not unpaired:
        assert remainder_bound_check(hhat, s1, 0.5) < 1e-12
    else:
        with pytest.raises(DomainError, match=re.escape(f"holds {unpaired[0].freq} but not")):
            remainder_bound_check(hhat, s1, 0.5)


def _first_unpaired_by_rows(g: GroupSpec, ranks: np.ndarray):
    """The per-row closure check: negate S1's (k, d) rows, rank them, look each up in S1.

    The first frequency of S1, in rank order, whose negative S1 lacks, or None.
    """
    in_s1 = np.zeros(g.order, dtype=bool)
    in_s1[ranks] = True
    rows = rows_at(g, np.sort(ranks))
    unpaired = np.flatnonzero(~in_s1[ranks_of_rows(g, np.negative(rows) % g.factors)])
    return tuple(rows[unpaired[0]].tolist()) if unpaired.size else None


@settings(max_examples=200, deadline=None)
@example(factors=(1, 2, 3, 2), density=0.5, symmetric=False, seed=4)
@example(factors=(2, 2, 2, 2), density=0.3, symmetric=False, seed=5)
@example(factors=(7, 1), density=0.0, symmetric=False, seed=6)
@given(
    factors=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 11]), min_size=1, max_size=4).map(tuple),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closure_check_on_the_table_agrees_with_the_per_row_check(factors, density, symmetric, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    in_s1 = (rng.random(g.order) < density).reshape(factors)
    if symmetric:
        in_s1 |= in_s1.reshape(-1)[_negated_ranks(factors)].reshape(factors)
    elif in_s1.any():
        in_s1.reshape(-1)[rng.choice(np.flatnonzero(in_s1))] = False  # may unpair one character
    want = _first_unpaired_by_rows(g, np.flatnonzero(in_s1))
    assert not (symmetric and want)
    if want is None:
        _require_closed(in_s1)
    else:
        with pytest.raises(DomainError, match=re.escape(f"holds {want} but not its negative")):
            _require_closed(in_s1)


@pytest.mark.parametrize("factors", [(4096,), (8, 8, 8, 4), (5, 1, 9)], ids=str)
def test_real_transforms_raise_no_warnings(factors):
    g = GroupSpec(factors)
    A = random_nonempty_subset(g, 0.2, 3)
    B = random_nonempty_subset(g, 0.2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extract(A.indicator(), B.indicator())
        triple_convolve(A.indicator(), B.indicator())


def test_trigpoly_evaluate():
    p = TrigPoly.from_terms(Z8, {Char((0,)): 0.5 + 0j, Char((4,)): 0.25 + 0j}, constant_shift=-0.1)
    for z in range(8):
        want = -0.1 + 0.5 + 0.25 * char_eval(Z8, Char((4,)), Elem((z,)))
        assert p.evaluate(Elem((z,))) == pytest.approx(want, abs=1e-12)


def test_trigpoly_orders_terms_canonically():
    p = TrigPoly.from_terms(Z8, {Char((4,)): 1 + 0j, Char((0,)): 2 + 0j})
    assert p.support == (Char((0,)), Char((4,)))


def test_trigpoly_rejects_foreign_frequency():
    with pytest.raises(ShapeError):
        TrigPoly.from_terms(Z8, {Char((0, 0)): 1 + 0j})


def test_bohr_from_trigpoly_basic():
    p = TrigPoly.from_terms(Z8, {Char((0,)): 0.5 + 0j, Char((4,)): 0.5 + 0j}, constant_shift=-1 / 64)
    a = Elem((0,))
    c = p.evaluate(a).real
    b = bohr_from_trigpoly(p, a, c)
    assert b.form == FORM_CHAR
    assert b.center == a
    assert b.radius == pytest.approx(c / 2)
    assert b.freqs == (Char((0,)), Char((4,)))


def test_bohr_from_trigpoly_empty_support_falls_back():
    p = TrigPoly.from_terms(Z8, {}, constant_shift=0.5)
    b = bohr_from_trigpoly(p, Elem((0,)), 0.5)
    assert b.dimension == 0
    assert b.radius == 0.5


def test_bohr_from_trigpoly_rejects_bad_level():
    p = TrigPoly.from_terms(Z8, {Char((0,)): 0.5 + 0j})
    with pytest.raises(DomainError):
        bohr_from_trigpoly(p, Elem((0,)), 0.0)
    with pytest.raises(DomainError):
        bohr_from_trigpoly(p, Elem((0,)), float("nan"))


def test_bohr_from_trigpoly_rejects_large_coefficients():
    p = TrigPoly.from_terms(Z8, {Char((1,)): 1.5 + 0j})
    with pytest.raises(PreconditionError):
        bohr_from_trigpoly(p, Elem((0,)), 0.5)


def test_bohr_from_trigpoly_rejects_level_above_value():
    p = TrigPoly.from_terms(Z8, {Char((0,)): 0.5 + 0j})
    with pytest.raises(PreconditionError):
        bohr_from_trigpoly(p, Elem((0,)), 0.9)


def test_bohr_from_trigpoly_checks_level_after_an_evaluation():
    p = TrigPoly.from_terms(Z8, {Char((2,)): 0.5 + 0j})
    assert p.evaluate(Elem((0,))).real == 0.5
    with pytest.raises(PreconditionError):
        bohr_from_trigpoly(p, Elem((0,)), 0.9)
    assert p.evaluate(Elem((1,))).real == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(PreconditionError):  # the value at 1 does not stand in for the value at 2
        bohr_from_trigpoly(p, Elem((2,)), 0.1)
    assert bohr_from_trigpoly(p, Elem((0,)), 0.5).center == Elem((0,))


def test_extract_worked_example_exact():
    cert = extract(EVENS, EVENS)
    assert cert.delta == 0.5
    assert cert.a0 == Elem((0,))
    assert tuple(t.freq for t in cert.s1) == ((0,), (4,))
    assert cert.c == 15 / 64
    assert cert.k == 2
    assert cert.h_at_a0 == 0.25
    assert cert.bohr_char_form.radius == 15 / 128
    assert cert.bohr_char_form.form == FORM_CHAR
    assert cert.bohr_torus_form.form == FORM_TORUS
    assert cert.bohr_torus_form.radius == pytest.approx(15 / 128 / (2 * math.pi), rel=1e-15)
    members = sorted(m.coords[0] for m in bohr_enumerate(cert.bohr_char_form))
    assert members == [0, 2, 4, 6]
    assert set(cert.bounds) == {"dimension", "witness_value", "c_lower", "torus_radius", "remainder"}
    assert all(b.ok for b in cert.bounds.values())


def test_extract_full_group_whole_bohr_set():
    g = GroupSpec((12,))
    ones = constant_density(g, 1.0)
    cert = extract(ones, ones)
    assert cert.delta == 1.0
    assert cert.k == 1
    assert cert.c == 0.75
    assert cert.bohr_char_form.radius == 0.75
    assert len(bohr_enumerate(cert.bohr_char_form)) == 12


def test_extract_deterministic():
    from bohrlab.serialize import certificate_to_json

    g = GroupSpec((64,))
    A = random_nonempty_subset(g, 0.3, 11)
    B = random_nonempty_subset(g, 0.25, 12)
    one = certificate_to_json(extract(A.indicator(), B.indicator()))
    two = certificate_to_json(extract(A.indicator(), B.indicator()))
    assert one == two


@pytest.mark.parametrize("seed", range(8))
def test_extract_random_bounds_all_recorded_ok(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([16, 32, 64]))
    d = float(rng.uniform(0.15, 0.6))
    g = GroupSpec((n,))
    A = random_nonempty_subset(g, d, seed * 2 + 100)
    B = random_nonempty_subset(g, d, seed * 2 + 101)
    cert = extract(A.indicator(), B.indicator())
    delta = cert.delta
    assert cert.k <= 16.0 * delta**-5
    assert cert.h_at_a0 >= delta**4 - 1e-9
    assert cert.c >= 0.5 * delta**4 - 1e-9
    assert cert.bohr_torus_form.radius >= delta**9 / (64 * math.pi) - 1e-12
    assert cert.bounds["remainder"].value <= 0.25 * delta**4 + 1e-9
    # witness really is the argmax over the support
    h = triple_convolve(*normalize_means(A.indicator(), B.indicator())[:2])
    supp = A.indicator().values > 0
    assert cert.h_at_a0 == pytest.approx(h.values[supp].max(), abs=1e-12)


def test_extract_mean_scaling_changes_delta():
    g = GroupSpec((16,))
    A = GroupSubset.from_ranks(g, range(0, 16, 2))  # density 1/2
    B = GroupSubset.from_ranks(g, [0, 4, 8, 12])  # density 1/4
    cert = extract(A.indicator(), B.indicator())
    assert cert.delta == 0.25


def test_trigpoly_evaluate_matches_scalar_route_exactly():
    g = GroupSpec((2,) * 9)
    rng = np.random.default_rng(4)
    chars = [char_at(g, int(r)) for r in rng.choice(g.order, size=300, replace=False)]
    coeffs = rng.normal(size=300) + 1j * rng.normal(size=300)
    p = TrigPoly.from_terms(g, dict(zip(chars, coeffs)), constant_shift=-0.3)
    for z in (elem_at(g, int(r)) for r in rng.integers(g.order, size=5)):
        want = complex(-0.3)
        for t, coeff in sorted(zip(chars, coeffs), key=lambda tc: rank_of_char(g, tc[0])):
            want += complex(coeff) * char_eval(g, t, z)
        assert p.evaluate(z) == want


def _per_term_value(p: TrigPoly, z: Elem) -> complex:
    """Re-derivation of ``TrigPoly.evaluate`` as it called libm once per term, not per distinct angle."""
    rows = p.support.rows
    phase = np.zeros(len(rows))
    for j, (zj, n) in enumerate(zip(z.coords, p.group.factors)):
        phase = phase + ((rows[:, j] * zj) % n) / n
    angle = (2.0 * math.pi * (phase % 1.0)).tolist()
    cos = np.fromiter(map(math.cos, angle), dtype=np.float64, count=len(angle))
    sin = np.fromiter(map(math.sin, angle), dtype=np.float64, count=len(angle))
    a, b = p.coeffs.real, p.coeffs.imag
    re = np.add.accumulate(np.concatenate(([p.constant_shift], a * cos - b * sin)))[-1]
    im = np.add.accumulate(np.concatenate(([0.0], a * sin + b * cos)))[-1]
    return complex(re, im)


@settings(max_examples=60, deadline=None)
@example(factors=(3, 5, 6), density=1.0, seed=1)
@example(factors=(7, 9), density=1.0, seed=2)
@example(factors=(16, 16, 16), density=0.9, seed=3)
@example(factors=(2,) * 10, density=1.0, seed=4)
@example(factors=(4096,), density=0.7, seed=5)
@given(
    factors=st.one_of(
        st.lists(st.integers(1, 16), min_size=1, max_size=4).map(tuple),
        st.sampled_from([(3, 5, 6), (7, 9), (16, 16), (2,) * 8, (1024,), (12, 10, 7)]),
    ).filter(lambda f: math.prod(f) <= 4096),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trigpoly_evaluate_is_the_per_term_route_bit_for_bit(factors, density, seed):
    # One libm call per distinct angle, gathered back, changes no bit of any term or of the sum.
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    ranks = np.flatnonzero(rng.random(g.order) < density)
    coeffs = rng.normal(size=ranks.size) + 1j * rng.normal(size=ranks.size)
    p = TrigPoly(g, CharTuple(rows_at(g, ranks)), coeffs, constant_shift=float(rng.normal()))
    for z in [elem_at(g, 0)] + [elem_at(g, int(r)) for r in rng.integers(g.order, size=4)]:
        got = np.array([p.evaluate(z)]).view(np.int64)
        assert np.array_equal(got, np.array([_per_term_value(p, z)]).view(np.int64))


@settings(max_examples=60, deadline=None)
@example(factors=(3, 5, 6), density=1.0, seed=1)
@example(factors=(12, 10, 7), density=0.7, seed=2)
@example(factors=(3,) * 8, density=0.5, seed=3)
@example(factors=(1, 6, 1, 5), density=1.0, seed=4)
@example(factors=(1,), density=1.0, seed=5)
@example(factors=(2,) * 12, density=0.5, seed=6)
@given(
    factors=st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple),
        st.sampled_from([(3, 5, 6), (12, 10, 7), (3,) * 8, (1, 7, 1), (5, 1, 9, 2), (4096,)]),
    ).filter(lambda f: math.prod(f) <= 6561),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_table_cold_and_warm_is_the_per_term_route_bit_for_bit(factors, density, seed):
    # Several points on a cold table, then the same points on the warm one: the residue ranks
    # are those of the residues (t_j z_j mod n_j)_j, every value is the per-term route's bit for
    # bit, and the warm pass writes nothing.  On a non-dyadic group one exact phase has several
    # floats, each with its own libm result, so the table must key on the residues, not the phase.
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    ranks = np.flatnonzero(rng.random(g.order) < density)
    coeffs = rng.normal(size=ranks.size) + 1j * rng.normal(size=ranks.size)
    p = TrigPoly(g, CharTuple.from_ranks(g, ranks), coeffs, constant_shift=float(rng.normal()))
    points = [elem_at(g, 0)] + [elem_at(g, int(r)) for r in rng.integers(g.order, size=4)]
    _libm_table.cache_clear()
    table = _libm_table(g.factors)
    assert not table.any()
    for warm in (False, True):
        before = table.copy()
        for z in points:
            residues = p.support.rows * np.array(z.coords) % np.array(g.factors)
            assert np.array_equal(_residue_ranks(g, ranks, z), ranks_of_rows(g, residues))
            got, want = p.evaluate(z), _per_term_value(p, z)
            assert (_bits(got.real), _bits(got.imag)) == (_bits(want.real), _bits(want.imag))
        assert np.array_equal(table.view(np.int64), before.view(np.int64)) == (warm or not ranks.size)


def test_no_double_is_a_zero_of_cos():
    """The level table marks an unset entry by cos = +0.0, which needs cos(x) != 0 at every
    double x: the zeros pi/2 and 3 pi/2 in [0, 2 pi) are irrational, and the doubles on either
    side of each, the closest there are, have a nonzero cosine; so do 2 pi * 1/4 and 2 pi * 3/4."""
    pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")
    for zero in (pi / 2, 3 * pi / 2):
        below = float(zero)
        if Fraction(below) > zero:
            below = math.nextafter(below, 0.0)
        above = math.nextafter(below, math.inf)
        assert Fraction(below) < zero < Fraction(above)
        assert math.cos(below) > 0.0 > math.cos(above) or math.cos(below) < 0.0 < math.cos(above)
    assert math.cos(TWO_PI * 0.25) != 0.0 and math.cos(TWO_PI * 0.75) != 0.0


def test_trigpoly_rejects_malformed_arrays():
    with pytest.raises(ShapeError):
        TrigPoly(Z8, (Char((0,)), Char((4,))), [1.0])
    with pytest.raises(DomainError):
        TrigPoly(Z8, (Char((4,)), Char((4,))), [1.0, 2.0])


def test_trigpoly_keeps_a_frozen_coefficient_array_as_given():
    support = CharTuple.from_ranks(Z8, np.array([1, 3, 6]))
    frozen = np.array([1.0, 2j, 0.5 - 0.5j])
    frozen.flags.writeable = False
    assert TrigPoly(Z8, support, frozen).coeffs is frozen
    writable = frozen.copy()
    kept = TrigPoly(Z8, support, writable).coeffs
    assert kept is not writable and not kept.flags.writeable and np.array_equal(kept, writable)
    writable[0] = 7.0  # the copy does not follow later writes
    assert kept[0] == 1.0
    column = frozen.reshape(3, 1)
    assert TrigPoly(Z8, support, column).coeffs.shape == (3,)
    real = np.array([1.0, 2.0, 3.0])
    real.flags.writeable = False
    assert TrigPoly(Z8, support, real).coeffs.dtype == np.complex128


# Z_n, F_2^n, F_3^n and mixed groups, with axes of length 1 and 2 among them.
EVAL_GROUPS = st.one_of(
    st.integers(1, 4096).map(lambda n: (n,)),
    st.integers(1, 12).map(lambda n: (2,) * n),
    st.integers(1, 7).map(lambda n: (3,) * n),
    st.lists(st.integers(1, 16), min_size=2, max_size=4).map(tuple).filter(lambda f: math.prod(f) <= 4096),
)


@settings(max_examples=120, deadline=None)
@example(factors=(4096,), density=1.0, seed=1)
@example(factors=(2,) * 12, density=0.9, seed=2)
@example(factors=(3,) * 7, density=0.5, seed=3)
@example(factors=(2, 1, 2, 5), density=1.0, seed=4)
@example(factors=(16, 16, 16), density=0.96, seed=5)
@example(factors=(1,), density=1.0, seed=6)
@given(factors=EVAL_GROUPS, density=st.sampled_from([0.0, 0.1, 0.5, 0.96, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_real_part_evaluation_is_evaluate_real_bit_for_bit(factors, density, seed):
    # On a cold or a warm table, the real-part evaluation keeps the bits of evaluate(z).real.
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    ranks = np.flatnonzero(rng.random(g.order) < density)
    coeffs = rng.normal(size=ranks.size) + 1j * rng.normal(size=ranks.size)
    shift = float(rng.normal())
    if rng.random() < 0.5:
        _libm_table.cache_clear()
    for z in [elem_at(g, 0)] + [elem_at(g, int(r)) for r in rng.integers(g.order, size=3)]:
        fresh = TrigPoly(g, CharTuple.from_ranks(g, ranks), coeffs, constant_shift=shift)
        got = fresh.evaluate_real(z)
        assert type(got) is float
        want = TrigPoly(g, CharTuple.from_ranks(g, ranks), coeffs, constant_shift=shift).evaluate(z)
        assert _bits(got) == _bits(want.real)
        assert _bits(fresh._real_value_at(z)) == _bits(got)


def _prefix_residue_ranks(group: GroupSpec, ranks: np.ndarray, z: Elem) -> np.ndarray:
    """The residue ranks by the prefix-table route on every group: a mixed-radix table of the
    leading axes' residues, gathered at each leading rank, plus t_last z_last mod n_last."""
    *lead, n_last = group.factors
    prefix = np.zeros(1, dtype=np.int64)
    for n, zj, s in zip(lead, z.coords, strides(group)):
        prefix = (prefix[:, None] + np.arange(n, dtype=np.int64) * zj % n * s).reshape(-1)
    high, last = np.divmod(ranks, n_last)
    return prefix[high] + last * z.coords[-1] % n_last


@pytest.mark.parametrize("factors", [(2,), (2,) * 10, (2, 1, 2, 2), (1, 2), (2, 3), (4, 2, 2), (3, 2, 5), (12, 10, 7)])
def test_residue_ranks_by_and_are_the_prefix_table_route(factors, monkeypatch):
    # Where every factor is at most 2 the residue rank is one AND, and no prefix table is
    # built; elsewhere the table route stays.
    g = GroupSpec(factors)
    rng = np.random.default_rng(sum(factors))
    ranks = np.flatnonzero(rng.random(g.order) < 0.6)
    for z in (elem_at(g, 0), elem_at(g, g.order - 1), elem_at(g, int(rng.integers(g.order)))):
        want = _prefix_residue_ranks(g, ranks, z)
        tables = []
        zeros = np.zeros

        def counted(*args, **kwargs):
            tables.append(args)
            return zeros(*args, **kwargs)

        monkeypatch.setattr(np, "zeros", counted)
        got = _residue_ranks(g, ranks, z)
        monkeypatch.undo()
        assert np.array_equal(got, want)
        assert bool(tables) == (max(factors) > 2 and len(factors) > 1)
        if max(factors) <= 2:
            assert np.array_equal(got, ranks & rank_of_elem(g, z))


def _remainder_of(monkeypatch, table: list[float]) -> float:
    """``_remainder``'s max |r| when the synthesis gives ``table``."""
    r = np.array(table, dtype=np.float64)
    monkeypatch.setattr(extractor, "_synthesize_half", lambda half, g: r)
    return extractor._remainder(np.zeros(len(r), dtype=np.complex128), GroupSpec((len(r),)), np.zeros(0, dtype=np.int64), 1.0)


@pytest.mark.parametrize("table", [[-0.0], [0.0], [-0.0, 0.0, -0.0], [0.0, -0.0], [-0.0] * 5])
def test_remainder_of_signed_zeros_is_plus_zero(monkeypatch, table):
    # max(r.max(), -r.min()) alone can be -0.0 here, which would change a certificate byte.
    r_max = _remainder_of(monkeypatch, table)
    assert type(r_max) is float and _bits(r_max) == _bits(0.0)


@pytest.mark.parametrize(
    "table", [[0.125, -0.1875, 0.0625], [-0.125, 0.1875], [0.1875, -0.1875], [-0.0, -0.0625, 0.03125], [0.2, -0.1]]
)
def test_remainder_of_mixed_signs_is_the_largest_modulus(monkeypatch, table):
    r_max = _remainder_of(monkeypatch, table)
    assert _bits(r_max) == _bits(float(np.abs(np.array(table)).max()))


GROUPS = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple).filter(
    lambda f: math.prod(f) <= 512
)


def _set(g: GroupSpec, kind: str, density: float, rng: np.random.Generator) -> GroupSubset:
    """A random set of the given density, or a coset of the subgroup 2Z x ... (ties in h)."""
    if kind == "coset" and g.factors[0] % 2 == 0:
        first = np.indices(g.factors).reshape(g.ndim, -1)[0]
        return GroupSubset(g, first % 2 == rng.integers(2))
    mask = np.zeros(g.order, dtype=bool)
    mask[rng.choice(g.order, size=max(1, round(density * g.order)), replace=False)] = True
    return GroupSubset(g, mask)


@settings(max_examples=80, deadline=None)
@example(factors=(8,), kind_a="coset", kind_b="coset", density=0.5, seed=0)
@example(factors=(8, 8, 8), kind_a="random", kind_b="coset", density=0.3, seed=1)
@example(factors=(4, 2, 8, 4), kind_a="coset", kind_b="random", density=0.02, seed=2)
@given(
    factors=GROUPS,
    kind_a=st.sampled_from(["random", "random", "coset"]),
    kind_b=st.sampled_from(["random", "random", "coset"]),
    density=st.floats(0.002, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_extract_h_agrees_with_definitional_h(factors, kind_a, kind_b, density, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    A, B = _set(g, kind_a, density, rng), _set(g, kind_b, density, rng)
    f1, g1, _ = normalize_means(A.indicator(), B.indicator())
    h = triple_convolve(f1, g1).values
    h_def = triple_convolve_definitional(f1, g1).values
    assert np.abs(h - h_def).max() <= 1e-12
    cert = extract(A.indicator(), B.indicator())
    a0 = rank_of_elem(g, cert.a0)
    # extract's h is triple_convolve's, bit for bit: same value, same first argmax
    assert cert.h_at_a0 == h[a0]
    assert a0 == int(np.argmax(np.where(A.mask, h, -np.inf)))
    assert abs(cert.h_at_a0 - h_def[a0]) <= 1e-12
    assert h_def[a0] >= h_def[A.mask].max() - 1e-12


def _witness_by_masked_table(h: DensityFn, f: DensityFn) -> tuple[Elem, float]:
    """The witness as it was taken before: argmax over an N-point table with -inf off the support."""
    supp = f.values > 0.0
    if not supp.any():
        raise EmptyInputError("support of f is empty")
    rank = int(np.argmax(np.where(supp, h.values, -np.inf)))
    a0, h_at_a0 = elem_at(h.group, rank), float(h.values[rank])
    if h_at_a0 < f.mean**4 - BOUND_SLACK:
        raise InvariantBreach(f"witness value {h_at_a0} below delta^4 = {f.mean**4} at {a0.coords}")
    return a0, h_at_a0


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:  # compared, not swallowed: both routes must raise alike
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@example(factors=(8,), levels=1, support=0.5, seed=0)
@example(factors=(3, 1, 4), levels=2, support=0.1, seed=1)
@example(factors=(5, 1, 3), levels=3, support=1.0, seed=2)
@example(factors=(6,), levels=2, support=0.0, seed=3)
@given(
    factors=GROUPS,
    levels=st.integers(1, 4),
    support=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_find_witness_keeps_the_masked_table_witness(factors, levels, support, seed):
    """h takes a few exact values (at most 4), so the maximum over the support is an exact
    tie at many ranks; a low top level makes the delta^4 breach fire, and an empty support
    raises.  The witness, its value and every error are those of the N-point masked table."""
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    h = DensityFn(g, rng.integers(levels, size=g.order) / 4.0)
    f = DensityFn(g, rng.random(g.order) < support)
    assert _outcome(lambda: find_witness(h, f)) == _outcome(lambda: _witness_by_masked_table(h, f))


def _full_table_extract(f: DensityFn, g: DensityFn) -> tuple[Certificate, float]:
    """Extraction on full N-point tables, as it ran before extract kept to the rfftn half:
    every spectrum unfolded (``dft``), h-hat formed over all N characters, h and q read off it,
    and the remainder checked by ``remainder_bound_check``.  Returns the certificate and r_max."""
    f1, g1, delta = normalize_means(f, g)
    grp = f1.group
    fhat = dft(f1)
    s1 = large_spectrum(fhat, 0.25 * delta**3)
    hhat = triple_spectrum(fhat, dft(g1))
    a0, h_at_a0 = _witness_by_masked_table(DensityFn(grp, idft_real(hhat)), f1)
    q = TrigPoly(grp, s1, hhat.coeffs[char_ranks(grp, s1)], constant_shift=-0.25 * delta**4)
    c = q.evaluate(a0).real
    r_max = remainder_bound_check(hhat, s1, delta)
    bohr_char = bohr_from_trigpoly(q, a0, c)
    bohr_torus = char_form_to_torus_form(bohr_char)
    k, torus_limit = len(s1), delta**9 / (64.0 * math.pi)
    bounds = {
        "dimension": BoundCheck(float(k), 16.0 * delta**-5, k <= 16.0 * delta**-5),
        "witness_value": BoundCheck(h_at_a0, delta**4, h_at_a0 >= delta**4 - BOUND_SLACK),
        "c_lower": BoundCheck(c, 0.5 * delta**4, c >= 0.5 * delta**4 - BOUND_SLACK),
        "torus_radius": BoundCheck(
            bohr_torus.radius, torus_limit, bohr_torus.radius >= torus_limit - RADIUS_SLACK
        ),
        "remainder": BoundCheck(r_max, 0.25 * delta**4, r_max <= 0.25 * delta**4 + BOUND_SLACK),
    }
    cert = Certificate(grp, delta, a0, bohr_char.freqs, c, k, h_at_a0, bohr_char, bohr_torus, bounds)
    return cert, r_max


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


# Up to 4 factors; the last one odd or even, 1 or 2 among them.
IDENTITY_GROUPS = st.tuples(
    st.lists(st.integers(1, 10), min_size=0, max_size=3),
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16]),
).map(lambda p: (*p[0], p[1])).filter(lambda f: math.prod(f) <= 1024)


@settings(max_examples=80, deadline=None)
@example(factors=(5, 1, 3), kind="dense", seed=0)
@example(factors=(5, 1, 3), kind="sparse", seed=1)
@example(factors=(4, 1), kind="coset", seed=2)
@example(factors=(6, 2), kind="coset", seed=3)
@example(factors=(16, 9), kind="dense", seed=4)
@example(factors=(8, 8, 8, 2), kind="sparse", seed=5)
@example(factors=(1, 1), kind="dense", seed=6)
@given(
    factors=IDENTITY_GROUPS,
    kind=st.sampled_from(["dense", "coset", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extract_is_the_full_table_route_bit_for_bit(factors, kind, seed):
    """Dense sets (density 0.95) give k = 1, a coset of 2Z x ... gives a subgroup-sized S1,
    and sparse sets (density 0.05) a worst-case S1 near the whole dual group."""
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    density = {"dense": 0.95, "coset": 0.5, "sparse": 0.05}[kind]
    A = _set(g, "coset" if kind == "coset" else "random", density, rng)
    B = _set(g, "random", density, rng)
    got = _outcome(lambda: extract(A.indicator(), B.indicator()))
    want = _outcome(lambda: _full_table_extract(A.indicator(), B.indicator()))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    ref, r_max = want
    assert certificate_to_json(got) == certificate_to_json(ref)
    assert _bits(got.c) == _bits(ref.c)
    assert _bits(got.h_at_a0) == _bits(ref.h_at_a0)
    assert _bits(got.bounds["remainder"].value) == _bits(r_max)


CENSUS = json.loads((Path(__file__).parent / "data" / "extract_digests.json").read_text())


def _census_densities(row) -> tuple[float, float]:
    density = row["density"]
    return tuple(density) if isinstance(density, list) else (density, density)


def _census_id(row) -> str:
    densities = "-".join(map(str, dict.fromkeys(_census_densities(row))))
    return f"{'x'.join(map(str, row['factors']))}-{densities}-{row['seeds'][0]}"


@pytest.mark.parametrize("row", CENSUS["instances"], ids=_census_id)
def test_extract_census_keeps_every_certificate_bit(row):
    """Certificates of seeded instances hashed by the full-table route, before extract kept
    to the half tables: Z_2^16, 256^2 and 16^4 at density 0.1 (worst-case k), Z_2^18 and
    512^2 at 0.3 (k = 1), F_2^10, (5, 1, 3) and 97 x 4.  Then, hashed while every axis
    still went through numpy's transforms: length-2 axes beside others, at unequal
    densities (2 x 8 x 2 x 4, 3 x 2 x 5, 2 x 4 x 4, F_2^14, 8 x 2, 2 x 16 x 2 x 8)."""
    g = GroupSpec(tuple(row["factors"]))
    density_a, density_b = _census_densities(row)
    A = random_nonempty_subset(g, density_a, row["seeds"][0])
    B = random_nonempty_subset(g, density_b, row["seeds"][1])
    cert = extract(A.indicator(), B.indicator())
    assert cert.k == row["k"]
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == row["sha256"]
