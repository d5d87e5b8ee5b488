"""Independent re-checking of certificates, plus the good-shift statistic.

Everything here recomputes from definitions: the triple convolution from the
exact integer count of representations a + b - c, whose support is the
sumset A+B-B (``spectral.representation_counts``: a number-theoretic
transform or an integer translate sum), transforms by the exact-phase
factored transform, Bohr membership by exact integer phases.  Nothing here
reaches ``np.fft``.  Containment shifts the char-form members' coordinates by
a0 and reads the sumset at their ranks; no translate of a table is drawn.
None of the extractor's fast-path results are trusted; a certificate is data
to be audited.  Failed checks are recorded in the report, not raised --
reports are data too.  The certificate and the rules it is audited against
are ``claim``'s.  This module's static import closure holds neither
``extractor`` nor ``rfft``, and none of its modules names ``np.fft``
(``tests/test_verify_no_fft.py`` walks the import graph).

Membership is decided once per certificate: ``bohr.members_mask`` remembers
its last walk over the group, so the torus form and the half-radius form of
``good_shift_set``, whose thresholds are at most the char form's, walk only
the char form's members, or nothing where the thresholds are equal.

The good-shift statistic reads A+B-B off the same counts: one table, keyed by
the contents of A and B, is kept between calls, so a verify followed by
``good_shift_set`` on equal sets counts once.  Its erosion, the shifts a with
a + (half-radius Bohr set) outside A+B-B, is the support of a second exact
count, of differences (``spectral.difference_counts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bohr import (
    FORM_CHAR,
    FORM_TORUS,
    BohrSpec,
    halve_radius,
    members_mask,
)
from .claim import (
    BOUND_SLACK,
    BOUNDS,
    RADIUS_SLACK,
    Certificate,
    bound_check,
    bound_limit,
    radius_rule,
    s1_threshold,
)
from .errors import AmbiguousBoundary, EmptyInputError, ShapeError
from .groups import (
    TWO_PI,
    GroupSpec,
    char_ranks,
    elem_at,
    rank_of_elem,
    require_within_cap,
)
from .sets import GroupSubset
from .spectral import (
    DensityFn,
    Spectrum,
    dft_factored,
    difference_counts,
    idft_factored,
    representation_counts,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class VerificationReport:
    group: GroupSpec
    passed: bool
    checks: tuple[CheckResult, ...]

    def first_failure(self) -> CheckResult | None:
        for check in self.checks:
            if not check.passed:
                return check
        return None

    def to_dict(self) -> dict:
        return {
            "group": str(self.group),
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _close(x: float, y: float, rel: float = RADIUS_SLACK) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=rel)


def _audit_bound(cert: Certificate, name: str, value: float, slack: float = 0.0) -> str:
    """What is wrong with the certificate's recorded bound ``name``; empty if nothing is.

    The entry must be present, record ``value`` (to within ``slack``), carry
    the limit ``BOUNDS`` gives at the recorded delta (``claim.bound_limit``, infinite
    where no float holds it), and be ok.
    """
    entry = cert.bounds.get(name)
    if entry is None:
        return f"; recorded bound {name} is missing"
    limit = bound_limit(name, cert.delta)
    if not abs(entry.value - value) <= slack:
        return f"; recorded bound {name} has value {entry.value!r}, want {value!r}"
    if entry.limit != limit:
        return f"; recorded bound {name} has limit {entry.limit!r}, want {limit!r}"
    if not entry.ok:
        return f"; recorded bound {name} is not ok"
    return ""


@lru_cache(maxsize=1)
def _memo_counts(g: GroupSpec, a: bytes, b: bytes) -> np.ndarray:
    counts = representation_counts(g, np.frombuffer(a, dtype=bool), np.frombuffer(b, dtype=bool))
    counts.flags.writeable = False
    return counts


def _counts(A: GroupSubset, B: GroupSubset) -> np.ndarray:
    """The representation counts of A+B-B, read-only, keyed by the sets' contents.

    One table is kept: a verify followed by a good-shift run on equal sets
    counts once.
    """
    return _memo_counts(A.group, A.mask.tobytes(), B.mask.tobytes())


def _h_from_counts(g: GroupSpec, counts: np.ndarray, scale_f: float, scale_g: float) -> DensityFn:
    """h = f1 conv g1 conv g1(-.) for f1 = scale_f 1_A and g1 = scale_g 1_B, from the counts of A+B-B.

    h = r scale_f scale_g^2 / N^2.  With both scales 1 and N a power of two
    every step is exact, so h is the translate sum's table bit for bit.  The
    table is fresh and handed over read-only, so the DensityFn keeps it uncopied.
    """
    h = counts * (scale_f * scale_g * scale_g) / g.order / g.order
    h.flags.writeable = False
    return DensityFn(g, h)


def verify_certificate(cert: Certificate, A: GroupSubset, B: GroupSubset) -> VerificationReport:
    """Audit every claim in the certificate against A and B from scratch.

    The checks, in report order: the witness lies in A; the translated Bohr
    set sits inside A+B-B, the support of the exact representation counts
    that h is scaled from; torus-form members are a subset of char-form
    members (these two become one failed ``undecidable`` check only at a true
    tie, a distance whose exact phase sits on the radius, see ``bohr``); the
    dimension, witness-value, level and remainder bounds; then internal
    consistency (delta, spectrum, radii, centers) against the definitional
    recomputation, S1 against the large spectrum by one rank mask.  The
    certificate's recorded bounds block is audited by the check of the same
    quantity: each entry records the certified value (k, h(a0), c, the
    torus radius; the remainder within ``BOUND_SLACK`` of the recomputed
    one), its limit is that of ``claim.BOUNDS`` at the recorded delta,
    and it is ok; forms-and-centers requires exactly the entries of ``BOUNDS``.
    A group above the enumeration cap, or counts beyond the primes an int64
    CRT can join, raise :class:`CapacityError` before any transform.
    """
    require_within_cap(cert.group)
    if A.group != cert.group or B.group != cert.group:
        raise ShapeError(
            f"certificate is for {cert.group}, sets are on {A.group} and {B.group}"
        )
    grp = cert.group
    f0, g0 = A.indicator(), B.indicator()
    if f0.mean <= 0.0 or g0.mean <= 0.0:
        raise EmptyInputError("cannot verify against an empty set")
    delta = min(f0.mean, g0.mean)
    scale_f, scale_g = delta / f0.mean, delta / g0.mean
    f1 = f0.scaled(scale_f)

    counts = _counts(A, B)
    h_def = _h_from_counts(grp, counts, scale_f, scale_g)
    fhat_def = dft_factored(f1).coeffs
    hhat_def = dft_factored(h_def).coeffs

    a0_rank = rank_of_elem(grp, cert.a0)
    s1_ranks = char_ranks(grp, cert.s1)
    k = len(s1_ranks)

    # p is the synthesis of h-hat on S1; a repeated S1 row counts once per copy.
    s1_hhat = np.zeros(grp.order, dtype=np.complex128)
    np.add.at(s1_hhat, s1_ranks, hhat_def[s1_ranks])
    p_vals = idft_factored(Spectrum(grp, s1_hhat))
    c_def = float(p_vals[a0_rank].real) - BOUNDS["remainder"].limit(delta)
    h_at_a0_def = float(h_def.values[a0_rank])
    r_max_def = float(np.abs(h_def.values - p_vals).max())

    # Exact, not a threshold: counts[x] is the integer number of triples
    # (a, b, c) in A x B x B with a + b - c = x, so it is positive exactly on A+B-B.
    sumset = counts > 0
    try:
        char_members = members_mask(cert.bohr_char_form)
        torus_members = members_mask(cert.bohr_torus_form)
        undecidable = None
    except AmbiguousBoundary as exc:
        # A distance on the radius: membership, and with it containment,
        # cannot be decided, so the certificate is refuted.
        undecidable = str(exc)

    checks: list[CheckResult] = []

    checks.append(
        CheckResult(
            "witness-in-set",
            A.contains(cert.a0),
            f"a0 = {cert.a0.coords}",
        )
    )

    if undecidable is not None:
        checks.append(CheckResult("undecidable", False, undecidable))
    else:
        # Each member z moves to z + a0: its coordinates shifted, ravelled mod the factors.
        members = np.flatnonzero(char_members)
        at = np.unravel_index(members, grp.factors)
        shifted = np.ravel_multi_index(
            [x + a for x, a in zip(at, cert.a0.coords)], grp.factors, mode="wrap"
        )
        escapees = shifted[~sumset[shifted]]
        if escapees.size:
            first = elem_at(grp, int(escapees.min()))
            detail = f"element {first.coords} lies outside the sumset"
        else:
            detail = f"{members.size} members, all contained after shifting by a0"
        checks.append(CheckResult("containment", escapees.size == 0, detail))

        stray = np.flatnonzero(torus_members & ~char_members)
        if stray.size:
            first = elem_at(grp, int(stray[0]))
            detail = f"torus member {first.coords} is not a char-form member"
        else:
            detail = f"{int(torus_members.sum())} torus members inside {int(char_members.sum())}"
        checks.append(CheckResult("torus-subset", stray.size == 0, detail))

    # Each bound check also audits the certificate's own record of that bound.
    bound = bound_check("dimension", float(k), delta)
    recorded = _audit_bound(cert, "dimension", float(k))
    detail = f"k = {cert.k}, |S1| = {k}, limit = {bound.limit}{recorded}"
    checks.append(CheckResult("dimension-bound", cert.k == k and bound.ok and not recorded, detail))

    bound = bound_check("witness_value", h_at_a0_def, delta)
    recorded = _audit_bound(cert, "witness_value", cert.h_at_a0)
    ok = bound.ok and abs(h_at_a0_def - cert.h_at_a0) <= BOUND_SLACK and not recorded
    detail = f"h(a0) = {h_at_a0_def} vs certified {cert.h_at_a0}, floor {bound.limit}{recorded}"
    checks.append(CheckResult("witness-value", ok, detail))

    bound = bound_check("c_lower", c_def, delta)
    recorded = _audit_bound(cert, "c_lower", cert.c)
    ok = abs(c_def - cert.c) <= BOUND_SLACK and bound.ok and not recorded
    detail = f"c = {c_def} vs certified {cert.c}, floor {bound.limit}{recorded}"
    checks.append(CheckResult("level-value", ok, detail))

    bound = bound_check("remainder", r_max_def, delta)
    recorded = _audit_bound(cert, "remainder", r_max_def, BOUND_SLACK)
    detail = f"max |h - p| = {r_max_def}, cap {bound.limit}{recorded}"
    checks.append(CheckResult("remainder-bound", bound.ok and not recorded, detail))

    checks.append(
        CheckResult(
            "delta-consistent",
            abs(delta - cert.delta) <= BOUND_SLACK,
            f"recomputed {delta} vs certified {cert.delta}",
        )
    )

    # The certified S1 must match the definitional large spectrum, allowing a
    # band around the threshold where floating-point could go either way.
    threshold = s1_threshold(delta)
    moduli = np.abs(fhat_def)
    claimed = np.zeros(grp.order, dtype=bool)
    claimed[s1_ranks] = True
    missing = np.flatnonzero((moduli >= threshold + BOUND_SLACK) & ~claimed)
    excess = np.flatnonzero(claimed & (moduli < threshold - BOUND_SLACK))
    duplicates = int(claimed.sum()) != k
    if missing.size:
        detail = f"missing character rank {missing[0]}"
    elif excess.size:
        detail = f"character rank {excess[0]} is below the threshold"
    elif duplicates:
        detail = "duplicate characters in S1"
    else:
        detail = f"{k} characters at threshold {threshold}"
    spectrum_ok = not (missing.size or excess.size or duplicates)
    checks.append(CheckResult("large-spectrum", spectrum_ok, detail))

    want_char = radius_rule(cert.c, k)
    recorded = _audit_bound(cert, "torus_radius", cert.bohr_torus_form.radius)
    # Not char_form_to_torus_form, which raises on a relabelled form or a radius that
    # underflows: either refutes here (exit 1) and must not be refused as bad input.
    radii_ok = (
        _close(cert.bohr_char_form.radius, want_char)
        and _close(cert.bohr_torus_form.radius, cert.bohr_char_form.radius / TWO_PI)
        and not recorded
    )
    checks.append(
        CheckResult(
            "radius-consistency",
            radii_ok,
            f"char {cert.bohr_char_form.radius} (want {want_char}), "
            f"torus {cert.bohr_torus_form.radius}{recorded}",
        )
    )

    forms_ok = (
        cert.bohr_char_form.form == FORM_CHAR
        and cert.bohr_torus_form.form == FORM_TORUS
        and cert.bohr_char_form.center == cert.a0
        and cert.bohr_torus_form.center == cert.a0
        and cert.bohr_char_form.freqs == cert.s1
        and cert.bohr_torus_form.freqs == cert.s1
    )
    bounds_ok = set(cert.bounds) == set(BOUNDS)
    if not forms_ok:
        detail = "metadata mismatch"
    elif not bounds_ok:
        detail = f"bounds block holds {sorted(cert.bounds)}, want {sorted(BOUNDS)}"
    else:
        detail = "both forms carry S1 and are centered at a0"
    checks.append(CheckResult("forms-and-centers", forms_ok and bounds_ok, detail))

    return VerificationReport(
        group=grp,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
    )


def good_shift_set(A: GroupSubset, B: GroupSubset, b: BohrSpec) -> GroupSubset:
    """Members a of A with a + (half-radius Bohr set) inside the sumset.

    Halving the radius is what makes the property hereditary: two half-radius
    members sum to a full-radius member, so every shift found here admits its
    own Bohr neighborhood inside A+B-B.  The sumset is the support of the
    exact representation counts that :func:`verify_certificate` reads, shared
    with it on equal sets.  The bad shifts, (complement of the sumset) - half,
    are the support of one exact difference count.  After a verify of the
    certificate whose char form is ``b``, the half-radius members are read off
    the char form's remembered members (``bohr.members_mask``), with no walk
    over the group.  Raises
    :class:`AmbiguousBoundary` when a distance of the half-radius set ties its
    radius, and :class:`CapacityError` above the enumeration cap or
    when the counts outgrow the primes an int64 CRT can join.
    """
    g = b.group
    require_within_cap(g)
    if A.group != g or B.group != g:
        raise ShapeError(f"sets on {A.group}/{B.group} but Bohr spec on {g}")
    sumset = _counts(A, B) > 0
    half = members_mask(halve_radius(b))
    # a is bad when a + z misses the sumset for some half-radius member z: a = u - z, u outside.
    bad = difference_counts(g, ~sumset, half) > 0
    return GroupSubset(g, A.mask & ~bad)
