"""Good shifts by exact counts, against the translate-union definition, and the verifier's count memo.

``good_shift_set`` reads A+B-B off the representation counts that
``verify_certificate`` reads, and the bad shifts off one difference count.
The oracle here is the combinatorial definition: A minus the union of the
translates of G minus ``sumset_ABmB(A, B)`` by the negated half-radius members.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bohrlab import spectral, verify
from bohrlab.bohr import FORM_CHAR, FORM_TORUS, BohrSpec, halve_radius, members_mask
from bohrlab.errors import AmbiguousBoundary
from bohrlab.extractor import extract
from bohrlab.groups import Char, GroupSpec, coords_table
from bohrlab.sets import GroupSubset, _translate_union, subgroup_subset, sumset_ABmB
from bohrlab.verify import good_shift_set, verify_certificate


def _good_shifts_by_unions(A: GroupSubset, B: GroupSubset, b: BohrSpec) -> np.ndarray:
    """a in A is bad when a + z leaves ``sumset_ABmB`` for some half-radius member z."""
    g = A.group
    outside = ~sumset_ABmB(A, B).mask.reshape(g.factors)
    half = members_mask(halve_radius(b))
    return A.mask & ~_translate_union(g, outside, -coords_table(g)[half]).ravel()


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(factors=(8, 6), density_a=1.0, density_b=1.0, n_freqs=1, radius=1.1, torus=False, seed=1)
@example(factors=(97,), density_a=0.2, density_b=0.05, n_freqs=2, radius=0.8, torus=False, seed=2)
@example(factors=(2,) * 4, density_a=0.5, density_b=0.3, n_freqs=3, radius=3.5, torus=False, seed=3)
@example(factors=(5, 1, 3), density_a=0.0, density_b=0.4, n_freqs=1, radius=0.3, torus=True, seed=4)
@example(factors=(12, 12), density_a=0.3, density_b=0.3, n_freqs=1, radius=0.05, torus=True, seed=5)
@given(
    factors=st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple),
    density_a=st.floats(0.0, 1.0),
    density_b=st.floats(0.0, 1.0),
    n_freqs=st.integers(1, 3),
    radius=st.floats(0.01, 4.5),
    torus=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_good_shifts_are_the_translate_union_definition(
    factors, density_a, density_b, n_freqs, radius, torus, seed
):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    A = GroupSubset(g, rng.random(g.order) < density_a)
    B = GroupSubset(g, rng.random(g.order) < density_b)
    rows = coords_table(g)[rng.integers(0, g.order, size=n_freqs)]
    freqs = tuple(Char(tuple(int(x) for x in row)) for row in rows)
    b = BohrSpec(g, freqs, radius / (2 * math.pi) if torus else radius, FORM_TORUS if torus else FORM_CHAR)
    try:
        want = _good_shifts_by_unions(A, B, b)
    except AmbiguousBoundary:
        with pytest.raises(AmbiguousBoundary):
            good_shift_set(A, B, b)
        return
    assert np.array_equal(good_shift_set(A, B, b).mask, want)


def test_an_empty_half_set_leaves_every_shift_good(monkeypatch):
    g = GroupSpec((8, 6))
    A, B = subgroup_subset(g, (2, 1)), subgroup_subset(g, (4, 1))
    b = BohrSpec(g, (Char((1, 1)),), 0.5, FORM_CHAR)
    monkeypatch.setattr(verify, "members_mask", lambda spec: np.zeros(g.order, dtype=bool))
    assert not sumset_ABmB(A, B).mask.all()
    assert np.array_equal(good_shift_set(A, B, b).mask, A.mask)


# --- the count memo ------------------------------------------------------------

G86 = GroupSpec((8, 6))
SUB = subgroup_subset(G86, (2, 1))


def _spy_counts(monkeypatch) -> list[tuple[bool, ...]]:
    """Record the negation pattern of every exact count that runs a route."""
    calls = []
    original = spectral._signed_counts

    def spy(g, tables, negated):
        calls.append(tuple(negated))
        return original(g, tables, negated)

    monkeypatch.setattr(spectral, "_signed_counts", spy)
    return calls


def test_verify_then_good_shift_counts_the_sumset_once(monkeypatch):
    cert = extract(SUB.indicator(), SUB.indicator())
    calls = _spy_counts(monkeypatch)
    assert verify_certificate(cert, SUB, SUB).passed
    good = good_shift_set(SUB, SUB, cert.bohr_char_form)
    # One representation count (A, B, -B), shared; one difference count (G \ S, -half).
    assert calls == [(False, False, True), (False, True)]
    assert np.array_equal(good.mask, _good_shifts_by_unions(SUB, SUB, cert.bohr_char_form))


def test_equal_masks_in_new_subsets_hit_the_memo(monkeypatch):
    cert = extract(SUB.indicator(), SUB.indicator())
    calls = _spy_counts(monkeypatch)
    verify_certificate(cert, SUB, SUB)
    again = GroupSubset(G86, SUB.mask.copy())
    good_shift_set(again, GroupSubset(G86, SUB.mask.copy()), cert.bohr_char_form)
    assert calls.count((False, False, True)) == 1
    assert verify._memo_counts.cache_info().hits == 1


def test_a_flipped_element_misses_the_memo(monkeypatch):
    cert = extract(SUB.indicator(), SUB.indicator())
    calls = _spy_counts(monkeypatch)
    verify_certificate(cert, SUB, SUB)
    for flip_a in (True, False):
        mask = SUB.mask.copy()
        mask[1] = not mask[1]
        A, B = (GroupSubset(G86, mask), SUB) if flip_a else (SUB, GroupSubset(G86, mask))
        good = good_shift_set(A, B, cert.bohr_char_form)
        assert np.array_equal(good.mask, _good_shifts_by_unions(A, B, cert.bohr_char_form))
    assert calls.count((False, False, True)) == 3
    info = verify._memo_counts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 1)


def test_memo_counts_are_read_only():
    counts = verify._counts(SUB, SUB)
    assert counts.dtype == np.int64 and not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0] = 0
    assert verify._counts(SUB, SUB) is counts
    assert np.array_equal(counts, spectral.representation_counts(G86, SUB.mask, SUB.mask))
