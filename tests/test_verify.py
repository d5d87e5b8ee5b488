"""The brute-force auditor: honest certificates pass, tampered fields are caught."""

from __future__ import annotations

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bohrlab import verify
from bohrlab.bohr import FORM_CHAR, FORM_TORUS, BohrSpec, members_mask
from bohrlab.errors import AmbiguousBoundary, DomainError, EmptyInputError, ShapeError
from bohrlab.claim import BOUND_SLACK
from bohrlab.extractor import extract
from bohrlab.groups import (
    Char,
    CharTuple,
    Elem,
    GroupSpec,
    elem_add,
    elem_at,
    rank_of_elem,
    ranks_of_rows,
)
from bohrlab.serialize import certificate_from_json, report_to_json
from bohrlab.sets import (
    GroupSubset,
    random_nonempty_subset,
    subgroup_subset,
    sumset_ABmB,
    union_shift_subset,
)
from bohrlab.rfft import convolve, dft, fourier_identity_suite
from bohrlab.spectral import (
    constant_density,
    dft_definitional,
    reflect,
    representation_counts,
    synthesize,
    triple_convolve_definitional,
)
from bohrlab.verify import (
    _h_from_counts,
    good_shift_set,
    verify_certificate,
)

Z8 = GroupSpec((8,))
EVENS = GroupSubset.from_ranks(Z8, [0, 2, 4, 6])


@pytest.fixture(scope="module")
def evens_cert():
    return extract(EVENS.indicator(), EVENS.indicator())


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"no check named {name}")


def test_honest_certificate_passes(evens_cert):
    report = verify_certificate(evens_cert, EVENS, EVENS)
    assert report.passed
    assert report.first_failure() is None
    assert [c.name for c in report.checks] == [
        "witness-in-set",
        "containment",
        "torus-subset",
        "dimension-bound",
        "witness-value",
        "level-value",
        "remainder-bound",
        "delta-consistent",
        "large-spectrum",
        "radius-consistency",
        "forms-and-centers",
    ]


def test_full_group_certificate_passes():
    g = GroupSpec((10,))
    whole = GroupSubset.full(g)
    cert = extract(whole.indicator(), whole.indicator())
    report = verify_certificate(cert, whole, whole)
    assert report.passed


@pytest.mark.parametrize("seed", range(6))
def test_random_certificates_pass(seed):
    g = GroupSpec((48,))
    A = random_nonempty_subset(g, 0.3, 1000 + seed)
    B = random_nonempty_subset(g, 0.4, 2000 + seed)
    cert = extract(A.indicator(), B.indicator())
    report = verify_certificate(cert, A, B)
    assert report.passed, report.first_failure()


def test_group_mismatch_raises(evens_cert):
    other = GroupSubset.full(GroupSpec((9,)))
    with pytest.raises(ShapeError):
        verify_certificate(evens_cert, other, other)


def test_empty_set_raises(evens_cert):
    with pytest.raises(EmptyInputError):
        verify_certificate(evens_cert, GroupSubset.empty(Z8), EVENS)


def test_tampered_witness_detected(evens_cert):
    bad = dataclasses.replace(evens_cert, a0=Elem((1,)))
    report = verify_certificate(bad, EVENS, EVENS)
    assert not report.passed
    assert not _check(report, "witness-in-set").passed


def test_tampered_radius_detected(evens_cert):
    doubled = dataclasses.replace(
        evens_cert.bohr_char_form, radius=2 * evens_cert.bohr_char_form.radius
    )
    bad = dataclasses.replace(evens_cert, bohr_char_form=doubled)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not report.passed
    assert not _check(report, "radius-consistency").passed


def test_oversized_bohr_set_escapes_containment(evens_cert):
    # odd elements sit at character distance exactly 2 under t=4, so a radius
    # above 2 sweeps them in and containment must break on a named element
    wide = dataclasses.replace(evens_cert.bohr_char_form, radius=2.5)
    wide_torus = dataclasses.replace(evens_cert.bohr_torus_form, radius=2.5 / (2 * np.pi))
    bad = dataclasses.replace(
        evens_cert, bohr_char_form=wide, bohr_torus_form=wide_torus
    )
    report = verify_certificate(bad, EVENS, EVENS)
    check = _check(report, "containment")
    assert not check.passed
    assert "outside the sumset" in check.detail


def test_torus_radius_wider_than_char_fails_torus_subset():
    # S1 = {0, 243, 486} on Z_729: at torus radius 0.4 every element is a member.  Its
    # threshold passes the char form's, so the torus form walks the whole group again
    # rather than the char members the char walk left, and finds the elements outside them.
    g = GroupSpec((729,))
    A = GroupSubset(g, np.arange(729) % 3 == 0)
    cert = extract(A.indicator(), A.indicator())
    assert verify_certificate(cert, A, A).passed
    wide = dataclasses.replace(cert.bohr_torus_form, radius=0.4)
    report = verify_certificate(dataclasses.replace(cert, bohr_torus_form=wide), A, A)
    check = _check(report, "torus-subset")
    assert not check.passed and check.detail == "torus member (1,) is not a char-form member"


def test_ambiguous_boundary_is_a_failed_check(evens_cert):
    # radius 2 is exactly the distance of the odd elements under t=4
    edge = dataclasses.replace(evens_cert.bohr_char_form, radius=2.0)
    edge_torus = dataclasses.replace(evens_cert.bohr_torus_form, radius=2.0 / (2 * np.pi))
    bad = dataclasses.replace(evens_cert, bohr_char_form=edge, bohr_torus_form=edge_torus)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not report.passed
    assert report.first_failure().name == "undecidable"
    assert "within" in report.first_failure().detail
    names = [c.name for c in report.checks]
    assert "containment" not in names and "torus-subset" not in names


def test_out_of_range_s1_raises_shape_error(evens_cert):
    for s1 in ((Char((0,)), Char((8,))), (Char((0,)), Char((-1,))), (Char((0, 0)),)):
        with pytest.raises(ShapeError):
            verify_certificate(dataclasses.replace(evens_cert, s1=s1), EVENS, EVENS)


def test_tampered_spectrum_detected(evens_cert):
    swapped = (Char((0,)), Char((3,)))  # 3 carries no mass for the evens
    forms = [
        dataclasses.replace(evens_cert.bohr_char_form, freqs=swapped),
        dataclasses.replace(evens_cert.bohr_torus_form, freqs=swapped),
    ]
    bad = dataclasses.replace(
        evens_cert, s1=swapped, bohr_char_form=forms[0], bohr_torus_form=forms[1]
    )
    report = verify_certificate(bad, EVENS, EVENS)
    assert not report.passed
    assert not _check(report, "large-spectrum").passed


def test_tampered_level_detected(evens_cert):
    bad = dataclasses.replace(evens_cert, c=evens_cert.c + 0.01)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not _check(report, "level-value").passed


def test_tampered_witness_value_detected(evens_cert):
    bad = dataclasses.replace(evens_cert, h_at_a0=evens_cert.h_at_a0 + 0.001)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not _check(report, "witness-value").passed


def test_tampered_dimension_detected(evens_cert):
    bad = dataclasses.replace(evens_cert, k=evens_cert.k + 1)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not _check(report, "dimension-bound").passed


def test_tampered_delta_detected(evens_cert):
    bad = dataclasses.replace(evens_cert, delta=evens_cert.delta * 0.9)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not _check(report, "delta-consistent").passed


def test_tampered_center_detected(evens_cert):
    moved = dataclasses.replace(evens_cert.bohr_char_form, center=Elem((2,)))
    bad = dataclasses.replace(evens_cert, bohr_char_form=moved)
    report = verify_certificate(bad, EVENS, EVENS)
    assert not _check(report, "forms-and-centers").passed


def test_report_serializes_stably(evens_cert):
    report = verify_certificate(evens_cert, EVENS, EVENS)
    d = report.to_dict()
    assert list(d) == ["group", "passed", "checks"]
    assert d["group"] == "8"
    assert all(list(c) == ["name", "passed", "detail"] for c in d["checks"])


# --- good shifts -------------------------------------------------------------

def test_good_shift_subgroup_fraction_one(evens_cert):
    good = good_shift_set(EVENS, EVENS, evens_cert.bohr_char_form)
    assert np.array_equal(good.mask, EVENS.mask)
    assert good.size / EVENS.size == 1.0


def test_good_shift_whole_group():
    g = GroupSpec((9,))
    whole = GroupSubset.full(g)
    b = BohrSpec(g, (Char((1,)),), 0.5, FORM_CHAR)
    good = good_shift_set(whole, whole, b)
    assert good.size == 9


def test_good_shift_empty_when_radius_over_wide():
    # Bohr members = whole group, sumset only the evens: containment impossible
    b = BohrSpec(Z8, (Char((1,)),), 10.0, FORM_CHAR)
    good = good_shift_set(EVENS, EVENS, b)
    assert good.size == 0


def test_good_shift_contains_witness(evens_cert):
    good = good_shift_set(EVENS, EVENS, evens_cert.bohr_char_form)
    assert good.contains(evens_cert.a0)


def test_good_shift_monotone_in_radius():
    rng = np.random.default_rng(55)
    g = GroupSpec((24,))
    A = random_nonempty_subset(g, 0.4, 7)
    B = random_nonempty_subset(g, 0.4, 8)
    for _ in range(8):
        freqs = (Char((int(rng.integers(24)),)),)
        r = float(rng.uniform(0.1, 1.0))
        big = good_shift_set(A, B, BohrSpec(g, freqs, r, FORM_CHAR))
        small = good_shift_set(A, B, BohrSpec(g, freqs, r / 3, FORM_CHAR))
        # shrinking the radius can only add good shifts
        assert not (big.mask & ~small.mask).any()


def test_good_shift_raises_on_guard_band():
    # Char radius 4 halves to 2 = |chi_4(1) - 1|: membership of 1 is undecidable.
    golden = pathlib.Path(__file__).parent / "data" / "z8_evens_cert.json"
    cert = certificate_from_json(golden.read_text(encoding="utf-8"))
    b = dataclasses.replace(cert.bohr_char_form, radius=4.0)
    with pytest.raises(AmbiguousBoundary, match=r"distance 2 sin\(pi 4/8\) = 2.0 at element rank 1 .* is within rounding error of radius 2.0"):
        good_shift_set(EVENS, EVENS, b)


def test_good_shift_group_mismatch():
    b = BohrSpec(GroupSpec((9,)), (Char((1,)),), 0.5, FORM_CHAR)
    with pytest.raises(ShapeError):
        good_shift_set(EVENS, EVENS, b)


# --- identity suite ----------------------------------------------------------

def test_identity_suite_small_errors():
    report = fourier_identity_suite(GroupSpec((64,)), trials=50, seed=4)
    assert report.passed
    assert set(report.max_errors) == {"plancherel", "parseval", "convolution", "reflection"}
    assert all(v <= 1e-9 for v in report.max_errors.values())


def test_identity_suite_multi_factor():
    report = fourier_identity_suite(GroupSpec((4, 3, 5)), trials=20, seed=9)
    assert report.passed


def test_identity_suite_one_point_group():
    report = fourier_identity_suite(GroupSpec((1,)), trials=5, seed=0)
    assert report.passed
    assert max(report.max_errors.values()) <= 1e-12


def test_identity_suite_validation():
    with pytest.raises(DomainError):
        fourier_identity_suite(GroupSpec((8,)), trials=0, seed=0)
    with pytest.raises(DomainError):
        fourier_identity_suite(GroupSpec((8,)), trials=1, seed=-1)


def test_identities_exact_for_constant_tables():
    # power-of-two FFT of a constant table is exact; errors are zero up to a
    # single rounding step in the summation order
    g = GroupSpec((64,))
    f = constant_density(g, 0.3)
    h = constant_density(g, 0.7)
    fhat, hhat = dft(f).coeffs, dft(h).coeffs
    assert np.abs(fhat[1:]).max() == 0.0
    assert abs(complex(np.vdot(h.values, f.values) / 64) - (fhat * hhat.conj()).sum()) < 1e-15
    assert abs((f.values**2).mean() - (np.abs(fhat) ** 2).sum()) < 1e-15
    assert np.abs(dft(convolve(f, h)).coeffs - fhat * hhat).max() < 1e-15
    assert np.abs(dft(reflect(h)).coeffs - hhat.conj()).max() < 1e-15


def test_suite_report_dict_shape():
    report = fourier_identity_suite(GroupSpec((16,)), trials=3, seed=1)
    d = report.to_dict()
    assert list(d) == ["group", "trials", "seed", "tolerance", "max_errors", "passed"]
    assert d["passed"] is True


# --- the synthesis of h-hat on S1 ------------------------------------------------

@pytest.mark.parametrize(
    "entry, check",
    [
        ("dimension", "dimension-bound"),
        ("witness_value", "witness-value"),
        ("c_lower", "level-value"),
        ("remainder", "remainder-bound"),
        ("torus_radius", "radius-consistency"),
    ],
)
@pytest.mark.parametrize("field", ["value", "limit", "ok"])
def test_recorded_bound_is_audited_by_its_check(entry, check, field):
    # Only the check of the same quantity fails, and its detail names the entry.
    g = GroupSpec((6, 8))
    A = random_nonempty_subset(g, 0.3, 31)
    B = random_nonempty_subset(g, 0.4, 32)
    cert = extract(A.indicator(), B.indicator())
    bounds = dict(cert.bounds)
    old = bounds[entry]
    bounds[entry] = dataclasses.replace(old, **{field: False if field == "ok" else getattr(old, field) + 1e-6})
    report = verify_certificate(dataclasses.replace(cert, bounds=bounds), A, B)
    assert [c.name for c in report.checks if not c.passed] == [check]
    assert f"recorded bound {entry} " in _check(report, check).detail


def _detail_value(report, name: str, prefix: str) -> float:
    detail = _check(report, name).detail
    return float(re.match(re.escape(prefix) + r" (\S+?),? ", detail).group(1))


def test_repeated_s1_row_counts_twice_as_in_synthesis():
    # Repeating an S1 row adds its term to p a second time, as the O(kN)
    # synthesis sum over the rows does: c and max |h - p| follow that route.
    g = GroupSpec((6, 8))
    A = random_nonempty_subset(g, 0.3, 31)
    B = random_nonempty_subset(g, 0.4, 32)
    cert = extract(A.indicator(), B.indicator())
    rows = np.concatenate([cert.s1.rows, cert.s1.rows[[-1]]])

    delta = min(A.density, B.density)
    f1 = A.indicator().scaled(delta / A.density)
    g1 = B.indicator().scaled(delta / B.density)
    h = triple_convolve_definitional(f1, g1)
    ranks = ranks_of_rows(g, rows)
    p = synthesize(g, rows, dft_definitional(h).coeffs[ranks])
    a0 = rank_of_elem(g, cert.a0)
    c_ref = float(p[a0].real) - 0.25 * delta**4
    r_ref = float(np.abs(h.values - p).max())

    # The recorded bounds follow the repeated row, so only the checks above can fail.
    bounds = dict(cert.bounds)
    bounds["dimension"] = dataclasses.replace(bounds["dimension"], value=float(len(rows)))
    bounds["remainder"] = dataclasses.replace(bounds["remainder"], value=r_ref)
    bad = dataclasses.replace(
        cert,
        s1=CharTuple(rows),
        k=len(rows),
        bohr_char_form=dataclasses.replace(cert.bohr_char_form, freqs=CharTuple(rows)),
        bohr_torus_form=dataclasses.replace(cert.bohr_torus_form, freqs=CharTuple(rows)),
        bounds=bounds,
    )
    report = verify_certificate(bad, A, B)

    assert abs(_detail_value(report, "level-value", "c =") - c_ref) <= 1e-12
    assert abs(_detail_value(report, "remainder-bound", "max |h - p| =") - r_ref) <= 1e-12
    assert _check(report, "level-value").passed == (
        abs(c_ref - bad.c) <= BOUND_SLACK and c_ref >= 0.5 * delta**4 - BOUND_SLACK
    )
    assert _check(report, "remainder-bound").passed == (r_ref <= 0.25 * delta**4 + BOUND_SLACK)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == [
        "level-value",
        "large-spectrum",
        "radius-consistency",
    ]


# --- independence from numpy's FFT -------------------------------------------------

FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def test_verifier_calls_no_numpy_fft(monkeypatch):
    g = GroupSpec((4, 3, 6))
    A = random_nonempty_subset(g, 0.3, 41)
    B = random_nonempty_subset(g, 0.35, 42)
    cert = extract(A.indicator(), B.indicator())

    def no_fft(*args, **kwargs):
        raise AssertionError("the verifier called numpy.fft")

    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, no_fft)
    assert verify_certificate(cert, A, B).passed
    assert good_shift_set(A, B, cert.bohr_char_form).contains(cert.a0)


# --- A+B-B as the support of h, and S1 against one rank mask ---------------------

def _scaled_like_verify(A: GroupSubset, B: GroupSubset):
    """f1 and g1 as verify_certificate builds them: the heavier indicator scaled down to delta."""
    f0, g0 = A.indicator(), B.indicator()
    delta = min(f0.mean, g0.mean)
    f1 = f0 if f0.mean == delta else f0.scaled(delta / f0.mean)
    g1 = g0 if g0.mean == delta else g0.scaled(delta / g0.mean)
    return f1, g1


def _subset(g: GroupSpec, kind: str, density: float, rng) -> GroupSubset:
    if kind == "empty":
        return GroupSubset.empty(g)
    if kind == "full":
        return GroupSubset.full(g)
    mask = np.zeros(g.order, dtype=bool)
    size = 1 if kind == "one" else max(1, round(density * g.order))
    mask[rng.choice(g.order, size=size, replace=False)] = True
    return GroupSubset(g, mask)


SUPPORT_GROUPS = st.one_of(
    st.lists(st.integers(2, 8), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda f: math.prod(f) <= 512),
    st.integers(2, 512).map(lambda n: (n,)),
    st.sampled_from([(2,) * 9, (3,) * 5]),
)
SET_KINDS = st.sampled_from(["random", "random", "one", "full", "empty"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(factors=(2,) * 9, kind_a="full", kind_b="one", density=0.5, seed=1)
@example(factors=(3,) * 5, kind_a="one", kind_b="random", density=0.02, seed=2)
@example(factors=(4, 6, 2), kind_a="empty", kind_b="random", density=0.3, seed=3)
@example(factors=(512,), kind_a="random", kind_b="empty", density=0.3, seed=4)
@given(
    factors=SUPPORT_GROUPS,
    kind_a=SET_KINDS,
    kind_b=SET_KINDS,
    density=st.floats(0.002, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_of_definitional_h_is_the_sumset(factors, kind_a, kind_b, density, seed):
    # verify_certificate reads A+B-B off h > 0, with no threshold.
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    A, B = _subset(g, kind_a, density, rng), _subset(g, kind_b, density, rng)
    h = triple_convolve_definitional(*_scaled_like_verify(A, B))
    assert np.array_equal(h.values > 0, sumset_ABmB(A, B).mask)


@pytest.mark.parametrize(
    "factors",
    [(2048,), (64, 32), (8, 8, 8, 4), (2,) * 10, (16, 16, 16), (1,)],
    ids=str,
)
def test_h_from_counts_is_the_translate_sum_bit_for_bit(factors):
    # Dyadic N and |A| = |B|: both scales are 1 and r / N / N is exact.
    g = GroupSpec(factors)
    rng = np.random.default_rng(sum(factors))
    size = max(1, round(0.3 * g.order))
    A, B = (GroupSubset.from_ranks(g, rng.choice(g.order, size, replace=False)) for _ in range(2))
    counts = representation_counts(g, A.mask, B.mask)
    h = _h_from_counts(g, counts, 1.0, 1.0).values
    want = triple_convolve_definitional(*_scaled_like_verify(A, B)).values
    assert np.array_equal(h.view(np.int64), want.view(np.int64))


def _evens_instance():
    return EVENS, EVENS


def _coset_instance():
    # A coset of a subgroup of order 4 in Z4 x Z6: A+B-B = A, and a0 = (1, 1).
    g = GroupSpec((4, 6))
    H = subgroup_subset(g, (2, 3))
    return union_shift_subset(H, [Elem((1, 1))]), H


def _random_instance():
    g = GroupSpec((6, 8))
    return random_nonempty_subset(g, 0.3, 31), random_nonempty_subset(g, 0.4, 32)


def _with_rows(cert, rows):
    """The certificate with S1, k and both forms' frequencies replaced by ``rows``."""
    s1 = CharTuple(np.asarray(rows, dtype=np.int64).reshape(-1, cert.group.ndim))
    return dataclasses.replace(
        cert,
        s1=s1,
        k=len(s1),
        bohr_char_form=dataclasses.replace(cert.bohr_char_form, freqs=s1),
        bohr_torus_form=dataclasses.replace(cert.bohr_torus_form, freqs=s1),
    )


def _widened(cert):
    # Every character distance is at most 2, so radius 2.5 makes the Bohr set the whole group.
    return dataclasses.replace(
        cert,
        bohr_char_form=dataclasses.replace(cert.bohr_char_form, radius=2.5),
        bohr_torus_form=dataclasses.replace(cert.bohr_torus_form, radius=2.5 / (2 * np.pi)),
    )


def _rank_one(cert):
    return [0] * (cert.group.ndim - 1) + [1]


TAMPERS = {
    "honest": lambda cert: cert,
    "last row dropped": lambda cert: _with_rows(cert, cert.s1.rows[:-1]),
    "rank 1 added": lambda cert: _with_rows(cert, [*cert.s1.rows.tolist(), _rank_one(cert)]),
    "first row repeated": lambda cert: _with_rows(cert, cert.s1.rows[[*range(len(cert.s1)), 0]]),
    "radius widened": _widened,
}

# (instance, tamper, large-spectrum detail, containment detail), as the
# set-based S1 check and the enumerated sumset wrote them.
PINNED = [
    ("Z8 evens", "honest", "2 characters at threshold 0.03125",
     "4 members, all contained after shifting by a0"),
    ("Z8 evens", "last row dropped", "missing character rank 4",
     "element (1,) lies outside the sumset"),
    ("Z8 evens", "rank 1 added", "character rank 1 is below the threshold",
     "1 members, all contained after shifting by a0"),
    ("Z8 evens", "first row repeated", "duplicate characters in S1",
     "4 members, all contained after shifting by a0"),
    ("Z8 evens", "radius widened", "2 characters at threshold 0.03125",
     "element (1,) lies outside the sumset"),
    ("4x6 coset", "honest", "6 characters at threshold 0.0011574074074074071",
     "4 members, all contained after shifting by a0"),
    ("4x6 coset", "last row dropped", "missing character rank 16",
     "4 members, all contained after shifting by a0"),
    ("4x6 coset", "rank 1 added", "character rank 1 is below the threshold",
     "2 members, all contained after shifting by a0"),
    ("4x6 coset", "first row repeated", "duplicate characters in S1",
     "4 members, all contained after shifting by a0"),
    ("4x6 coset", "radius widened", "6 characters at threshold 0.0011574074074074071",
     "element (0, 0) lies outside the sumset"),
]
INSTANCES = {
    "Z8 evens": _evens_instance,
    "4x6 coset": _coset_instance,
    "6x8 random": _random_instance,
}
ALL_CASES = [(instance, tamper) for instance in INSTANCES for tamper in TAMPERS]


def _tampered_case(instance: str, tamper: str):
    A, B = INSTANCES[instance]()
    return TAMPERS[tamper](extract(A.indicator(), B.indicator())), A, B


@pytest.mark.parametrize(
    "instance,tamper,spectrum,containment", PINNED, ids=[f"{c[0]}-{c[1]}" for c in PINNED]
)
def test_large_spectrum_and_containment_details_are_pinned(instance, tamper, spectrum, containment):
    report = verify_certificate(*_tampered_case(instance, tamper))
    assert _check(report, "large-spectrum").detail == spectrum
    assert _check(report, "large-spectrum").passed == (tamper in ("honest", "radius widened"))
    assert _check(report, "containment").detail == containment
    assert _check(report, "containment").passed == containment.endswith("by a0")


def _no_union(*args, **kwargs):
    raise AssertionError("verify_certificate enumerated a translate union")


@pytest.mark.parametrize("instance,tamper", ALL_CASES, ids=[f"{i}-{t}" for i, t in ALL_CASES])
def test_verifier_computes_the_sumset_once(monkeypatch, instance, tamper):
    cert, A, B = _tampered_case(instance, tamper)
    want = report_to_json(verify_certificate(cert, A, B))
    # verify binds neither union; one reached through sets would still be caught.
    assert not {"sumset_ABmB", "_translate_union"} & set(vars(verify))
    monkeypatch.setattr("bohrlab.sets.sumset_ABmB", _no_union)
    monkeypatch.setattr("bohrlab.sets._translate_union", _no_union)
    verify._memo_counts.cache_clear()
    assert report_to_json(verify_certificate(cert, A, B)) == want


@pytest.mark.parametrize("factors, a0_rank", [((16, 12), 101), ((4, 3, 8), 57), ((5, 2, 7), 41)], ids=str)
def test_containment_names_the_least_escapee(factors, a0_rank):
    # One frequency at a wide radius, moved to another centre: containment names the escapee
    # of least rank, z + a0 over every member z, against an oracle that adds them one by one.
    g = GroupSpec(factors)
    A = random_nonempty_subset(g, 0.05, 3)
    B = random_nonempty_subset(g, 0.05, 4)
    cert = extract(A.indicator(), B.indicator())
    a0 = elem_at(g, a0_rank)
    freqs = CharTuple([[1] * g.ndim])
    char = BohrSpec(g, freqs, 1.2, FORM_CHAR, center=a0)
    torus = dataclasses.replace(char, radius=1.2 / (2 * np.pi), form=FORM_TORUS)
    report = verify_certificate(dataclasses.replace(cert, a0=a0, bohr_char_form=char, bohr_torus_form=torus), A, B)
    sumset = sumset_ABmB(A, B).mask
    members = [elem_at(g, int(r)) for r in np.flatnonzero(members_mask(char))]
    escapees = sorted(r for r in (rank_of_elem(g, elem_add(g, z, a0)) for z in members) if not sumset[r])
    assert 1 < len(members) < g.order and escapees
    check = _check(report, "containment")
    assert not check.passed
    assert check.detail == f"element {elem_at(g, escapees[0]).coords} lies outside the sumset"
