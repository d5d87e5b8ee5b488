"""Certificate extraction: from two dense sets to an explicit Bohr witness.

Pipeline, for densities f and g with common mean delta after normalization:

    h-hat = f-hat * |g-hat|^2 (the transform of h = f * g * g~, g~ the
                               reflection; supp h is the sumset)
    S1 = large spectrum of f at threshold delta^3 / 4
    a0 = argmax of h over supp f
    p  = the S1 part of h-hat, as a trigonometric polynomial
    q  = p - delta^4 / 4,  c = Re q(a0)

The certificate then asserts that a0 plus the Bohr set on frequencies S1 with
radius c / |S1| (character-distance form) sits inside supp h.  Every numbered
bound the construction promises is recorded and re-checked; a violation is an
internal error, never a silently weaker certificate.

Each input is transformed once, on the half of the dual group that a
real-input FFT computes (``spectral._half_spectrum``); f, g, h and the
remainder are real tables, and no N-point complex table is formed.  S1 is read
off f-hat's half as a mask, unfolded as booleans to every character
(|conj z| = |z| bit for bit).  Then f-hat becomes h-hat = f-hat * |g-hat|^2
in place, and g-hat is dropped.  h-hat feeds everything after: h is its
synthesis, q's coefficients are its entries at the S1 ranks (past n/2, the
conjugate of the entry at -t), and the remainder is the synthesis of the same
half with S1 zeroed in place, once h and q have read it.  That is two forward
and two inverse real transforms per extraction, each ``rfftn`` or ``irfftn``
bit for bit, with length-2 axes as sum/difference passes (none of numpy's
transforms runs on F_2^n), and h is ``triple_convolve``'s, bit for bit, since
both take the same private steps.  The certificate is that of
the full-table route (``spectral.dft``, :func:`large_spectrum`,
``spectral.triple_spectrum``, ``spectral.idft_real``,
:func:`remainder_bound_check`) bit for bit: a coefficient of q past n/2 can
differ from the full product only in the sign of a zero part, which no
certificate stores and which cannot reach c, a running sum that starts at
-delta^4 / 4 and so is never -0.  S1, the large spectrum of a real table, is
closed under negation, which the real synthesis of the remainder needs; that
is checked on the unfolded mask itself, which is freed before the syntheses.

The pipeline is array-native: S1 is a rank array, and ``TrigPoly`` is a thin
wrapper over a support and a coefficient array.  S1 is one ``CharTuple``,
shared by the certificate and both of its Bohr forms, built from the ranks
it was read off with: no stage range-checks or ranks it again, and none forms
its (k, d) frequency table; q reads per-axis frequency columns unravelled
from the ranks.  c = Re q(a0) keeps the bits of the scalar route, which calls
libm once per term; ``TrigPoly.evaluate`` calls it once per distinct angle.
On a worst-case S1, nearly the whole dual group, that is far fewer calls than
terms on a group of small exponent (16 on 16^4), and up to k on Z_n when a0
is a unit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .bohr import FORM_CHAR, BohrSpec, char_form_to_torus_form
from .errors import (
    DomainError,
    EmptyInputError,
    InvariantBreach,
    PreconditionError,
    ShapeError,
)
from .groups import (
    TWO_PI,
    Char,
    Elem,
    CharTuple,
    GroupSpec,
    char_ranks,
    char_tuple,
    check_elem,
    elem_at,
    freq_columns,
    ranks_of_rows,
)
from .spectral import (
    DensityFn,
    Spectrum,
    _at_negated,
    _half_index,
    _half_spectrum,
    _negated_ranks,
    _synthesize_half,
    _triple_half,
    _unfold,
)

BOUND_SLACK = 1e-9
RADIUS_SLACK = 1e-12

MEAN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """One recorded inequality: its achieved value against its stated limit."""

    value: float
    limit: float
    ok: bool


@dataclass(frozen=True)
class Bound:
    """One of the paper's numbered bounds: its limit as a formula of delta, its slack, floor or cap."""

    limit: Callable[[float], float]
    slack: float
    floor: bool


# The one definition of the paper's bounds, which extract records, verify audits and the sweep
# reports.  A floor holds when value >= limit - slack, a cap when value <= limit + slack.
BOUNDS = {
    "dimension": Bound(lambda delta: 16.0 * delta**-5, 0.0, floor=False),
    "witness_value": Bound(lambda delta: delta**4, BOUND_SLACK, floor=True),
    "c_lower": Bound(lambda delta: 0.5 * delta**4, BOUND_SLACK, floor=True),
    "torus_radius": Bound(lambda delta: delta**9 / (64.0 * math.pi), RADIUS_SLACK, floor=True),
    "remainder": Bound(lambda delta: 0.25 * delta**4, BOUND_SLACK, floor=False),
}


def bound_check(name: str, value: float, delta: float) -> BoundCheck:
    """``value`` against bound ``name`` of :data:`BOUNDS` at ``delta``."""
    bound = BOUNDS[name]
    limit = bound.limit(delta)
    ok = value >= limit - bound.slack if bound.floor else value <= limit + bound.slack
    return BoundCheck(value, limit, ok)


def s1_threshold(delta: float) -> float:
    """The large-spectrum threshold delta^3 / 4 that S1 is read off at."""
    return 0.25 * delta**3


def radius_rule(c: float, k: int) -> float:
    """The character-form radius c / k of a level-c polynomial on k frequencies; c when k = 0."""
    return c / k if k else c


def _running_sum(start: float, values: np.ndarray) -> float:
    """Left-to-right float sum, as a scalar loop would do (``np.sum`` would sum pairwise)."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """A finite trigonometric polynomial: constant_shift + sum of coeff * chi.

    A thin array wrapper over a CharTuple ``support`` and the matching complex
    array ``coeffs``.  The support must be distinct characters in increasing
    rank order, which makes evaluation sums reproducible; :meth:`from_terms` sorts.
    The polynomial remembers its last evaluation, so a later check of the
    same value (:func:`bohr_from_trigpoly` after ``c = Re p(a)``) is free.
    """

    group: GroupSpec
    support: CharTuple
    coeffs: np.ndarray
    constant_shift: float = 0.0
    _last: tuple[Elem, complex] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        support = char_tuple(self.group, self.support)
        coeffs = np.array(self.coeffs, dtype=np.complex128).reshape(-1)
        if coeffs.shape != (len(support),):
            raise ShapeError(
                f"{coeffs.size} coefficients for {len(support)} frequencies"
            )
        if (np.diff(char_ranks(self.group, support)) <= 0).any():
            raise DomainError("frequencies must be distinct and in increasing rank order")
        coeffs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_terms(
        cls, group: GroupSpec, terms: Mapping[Char, complex], constant_shift: float = 0.0
    ) -> "TrigPoly":
        """Build from a {character: coefficient} mapping, in any order."""
        rows = char_tuple(group, tuple(terms)).rows
        order = np.argsort(ranks_of_rows(group, rows), kind="stable")
        coeffs = np.array(list(terms.values()), dtype=np.complex128)[order]
        return cls(group, CharTuple(rows[order]), coeffs, constant_shift)

    def evaluate(self, z: Elem) -> complex:
        """The value at z, summed term by term in rank order.

        Each term is computed as the scalar route would: the pairing phase
        accumulated factor by factor from the support's per-axis frequency
        columns (:func:`~bohrlab.groups.freq_columns`, unravelled from the
        ranks of a support that holds no rows) and reduced mod 1,
        ``math.cos``/``math.sin`` of 2 pi times it, the complex product written
        out in separate real operations, then a left-to-right sum starting from
        the shift.  libm is called once per *distinct* angle and its results
        gathered back to the terms: an equal float gives an equal libm result,
        so no bit changes, and a group of small exponent, such as 16^4, takes a
        handful of calls for any k.  The result does not depend on how numpy
        vectorizes or reduces.
        """
        check_elem(self.group, z)
        # Every angle is >= +0.0, so no -0.0 is merged with +0.0; equal angles share one libm call.
        phase = _pairing_phases(self.group, self.support, z)
        angle, where = np.unique(TWO_PI * phase, return_inverse=True)
        distinct = angle.tolist()
        cos = np.fromiter(map(math.cos, distinct), dtype=np.float64, count=len(distinct))[where]
        sin = np.fromiter(map(math.sin, distinct), dtype=np.float64, count=len(distinct))[where]
        a, b = self.coeffs.real, self.coeffs.imag
        value = complex(
            _running_sum(self.constant_shift, a * cos - b * sin),
            _running_sum(0.0, a * sin + b * cos),
        )
        object.__setattr__(self, "_last", (z, value))
        return value

    def _value_at(self, z: Elem) -> complex:
        """The value at z: the last :meth:`evaluate` if it was at z, else a new one."""
        if self._last is not None and self._last[0] == z:
            return self._last[1]
        return self.evaluate(z)


def _pairing_phases(group: GroupSpec, support: CharTuple, z: Elem) -> np.ndarray:
    """The pairing phase at z of each character of ``support``, in [0, 1), summed factor by factor.

    A function of its own, so that the frequency columns are freed before
    :meth:`TrigPoly.evaluate` sorts the angles.  A finite phase >= +0.0 minus
    its floor is its remainder mod 1 bit for bit, and faster.
    """
    phase = np.zeros(len(support))
    for col, zj, n in zip(freq_columns(group, support), z.coords, group.factors):
        phase += ((col * zj) % n) / n
    phase -= np.floor(phase)
    return phase


def normalize_means(f: DensityFn, g: DensityFn) -> tuple[DensityFn, DensityFn, float]:
    """Scale down the heavier input so both have the smaller mean.

    Values must already lie in [0, 1]; a zero mean on either side is an
    empty-input error (the pipeline needs positive density).  Returns the
    common mean delta alongside the adjusted pair.
    """
    if f.group != g.group:
        raise ShapeError(f"inputs live on different groups: {f.group} vs {g.group}")
    for name, d in (("first", f), ("second", g)):
        lo = float(d.values.min())
        hi = float(d.values.max())
        if lo < -MEAN_TOLERANCE or hi > 1.0 + MEAN_TOLERANCE:
            raise DomainError(
                f"{name} input has values outside [0, 1]: range [{lo}, {hi}]"
            )
    mf, mg = f.mean, g.mean
    if mf <= 0.0 or mg <= 0.0:
        raise EmptyInputError("both inputs must have positive mean")
    if mf == mg:
        return f, g, mf
    delta = min(mf, mg)
    if mf > mg:
        return f.scaled(delta / mf), g, delta
    return f, g.scaled(delta / mg), delta


def large_spectrum(spectrum: Spectrum, threshold: float) -> CharTuple:
    """Characters whose Fourier coefficient has modulus >= threshold.

    Returned in canonical character order, as a CharTuple.  The trivial
    character is always included whenever threshold <= the mean, which is
    the coefficient at t = 0.
    """
    return CharTuple.from_ranks(spectrum.group, np.flatnonzero(_at_least(spectrum.coeffs, threshold)))


def _at_least(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    """The mask |coeffs| >= threshold, for a positive threshold."""
    if not threshold > 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    return np.abs(coeffs) >= threshold


def find_witness(h: DensityFn, f: DensityFn) -> tuple[Elem, float]:
    """Argmax of h over supp f, first in canonical order on ties.

    The argmax is taken over h read at the support's ranks, which are in
    canonical order, so the first maximum there is the first in the group.
    Ties are broken among the *computed* values of h.  When h comes from
    floating-point transforms, rounding can split an exact tie of the true h
    (h is constant on the cosets of a subgroup, for one) in the last digits;
    the witness is then the first computed maximum, which need not be the
    first element of the exact tie.

    The averaging identity <h, f> = sum |f-hat|^2 |g-hat|^2 >= delta^4 forces
    the maximum to reach delta^4; falling short means the inputs violated the
    pipeline's preconditions, reported as an invariant breach.
    """
    if h.group != f.group:
        raise ShapeError(f"inputs live on different groups: {h.group} vs {f.group}")
    supp = np.flatnonzero(f.values > 0.0)
    if not supp.size:
        raise EmptyInputError("support of f is empty")
    rank = int(supp[np.argmax(h.values[supp])])
    a0 = elem_at(h.group, rank)
    h_at_a0 = float(h.values[rank])
    check = bound_check("witness_value", h_at_a0, f.mean)
    if not check.ok:
        raise InvariantBreach(f"witness value {h_at_a0} below delta^4 = {check.limit} at {a0.coords}")
    return a0, h_at_a0


def remainder_bound_check(hhat: Spectrum, s1: tuple[Char, ...], delta: float) -> float:
    """Max modulus of h minus its S1 truncation; must stay under delta^4 / 4.

    ``hhat`` is the transform of h, f-hat * |g-hat|^2 (:func:`triple_spectrum`),
    so the remainder is its inverse transform with the S1 coefficients zeroed
    out.  Its coefficient at t = 0 is the product of the means, which must be
    delta^3.  The remainder is real, and is synthesized from the half of the
    table a real-input FFT reads, so S1 must be closed under negation, as the
    large spectrum of a real table is: an unpaired character would be zeroed
    on one side only.  That is checked on S1's boolean table, built from its
    ranks, as :func:`extract` checks the table it reads S1 off.  A copy of
    that half goes through the routine that :func:`extract` runs on its own
    half of h-hat.
    """
    grp = hhat.group
    _check_mean(complex(hhat.coeffs[0]), delta)
    ranks = char_ranks(grp, s1)
    in_s1 = np.zeros(grp.factors, dtype=bool)
    in_s1.reshape(-1)[ranks] = True
    _require_closed(in_s1)
    del in_s1
    index, mirrored = _half_index(ranks, grp.factors, _negated_ranks(grp.factors[:-1]))
    rest = hhat.as_nd()[..., : grp.factors[-1] // 2 + 1].copy()
    return _remainder(rest, grp, index[~mirrored], delta)


def _check_mean(hhat0: complex, delta: float) -> None:
    """h-hat(0), the product of the means, must be delta^3."""
    if abs(hhat0.real - delta**3) > BOUND_SLACK * delta**3:
        raise DomainError(
            f"inputs are not mean-normalized: h-hat(0) = {hhat0.real} vs delta^3 = {delta**3}"
        )


def _require_closed(in_s1: np.ndarray) -> None:
    """S1's boolean table must hold -t for each t it holds; else raise, naming the first t by rank.

    ``in_s1`` has the group's shape, and is read at -t by ``spectral._at_negated``.
    An axis of length at most 2 is its own negation, so on F_2^n there is
    nothing to check.
    """
    if max(in_s1.shape) <= 2:
        return
    negated = _at_negated(in_s1)
    unpaired = np.greater(in_s1, negated, out=negated)  # t in S1, -t not
    first = int(np.argmax(unpaired))
    if unpaired.flat[first]:
        freq = tuple(int(x) for x in np.unravel_index(first, in_s1.shape))
        raise DomainError(f"S1 is not closed under negation: it holds {freq} but not its negative")


def _remainder(hhat: np.ndarray, grp: GroupSpec, s1_index: np.ndarray, delta: float) -> float:
    """The remainder's max modulus from the ``rfftn`` half of h-hat, which is overwritten.

    ``s1_index`` are the places in the ravelled half of the characters of S1
    whose last coordinate is at most n/2; the caller has checked that S1 is
    closed under negation (:func:`_require_closed`).  They are zeroed in
    place, and the rest is synthesized.
    """
    np.put(hhat, s1_index, 0.0)
    r_max = float(np.abs(_synthesize_half(hhat, grp)).max())
    check = bound_check("remainder", r_max, delta)
    if not check.ok:
        raise InvariantBreach(f"remainder {r_max} exceeds delta^4 / 4 = {check.limit}")
    return r_max


def bohr_from_trigpoly(p: TrigPoly, a: Elem, c: float) -> BohrSpec:
    """Bohr set on supp p, radius c / |supp p|, centered at a.

    Valid whenever each coefficient has modulus at most 1 and Re p(a) >= c:
    then |p(z + a) - p(a)| < c for every member z, by telescoping the
    character distances.  Violated preconditions raise.  The Bohr set shares
    the polynomial's support tuple.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"level c must be positive and finite, got {c}")
    moduli = np.abs(p.coeffs)
    big = np.flatnonzero(moduli > 1.0 + RADIUS_SLACK)
    if big.size:
        raise PreconditionError(
            f"coefficient at {p.support[big[0]].freq} has modulus {moduli[big[0]]} > 1"
        )
    re_pa = p._value_at(a).real
    if re_pa < c - RADIUS_SLACK:
        raise PreconditionError(f"Re p(a) = {re_pa} is below the level c = {c}")
    return BohrSpec(p.group, p.support, radius_rule(c, len(p.support)), FORM_CHAR, center=a)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Everything needed to re-verify one extraction from scratch."""

    group: GroupSpec
    delta: float
    a0: Elem
    s1: CharTuple
    c: float
    k: int
    h_at_a0: float
    bohr_char_form: BohrSpec
    bohr_torus_form: BohrSpec
    bounds: dict[str, BoundCheck]

    def __post_init__(self) -> None:
        # One array check, as BohrSpec does for its frequencies; a CharTuple is kept.
        object.__setattr__(self, "s1", char_tuple(self.group, self.s1))
        check_elem(self.group, self.a0)


def extract(f: DensityFn, g: DensityFn) -> Certificate:
    """Run the full pipeline and return a self-checked certificate.

    Deterministic: identical inputs give identical certificates.  Any recorded
    bound that fails is an invariant breach, not a degraded result.
    """
    f1, g1, delta = normalize_means(f, g)
    grp = f1.group
    neg = _negated_ranks(grp.factors[:-1])
    hhat = _half_spectrum(f1, neg)
    in_s1 = _unfold(_at_least(hhat, s1_threshold(delta)), grp.factors, neg)
    s1 = CharTuple.from_ranks(grp, np.flatnonzero(in_s1))
    _require_closed(in_s1)
    del in_s1  # before the syntheses, which set extract's peak at small k
    # f-hat becomes h-hat in place; g-hat is dropped as soon as the product exists.
    hhat = _triple_half(hhat, _half_spectrum(g1, neg))
    a0, h_at_a0 = find_witness(DensityFn(grp, _synthesize_half(hhat, grp)), f1)

    # q's coefficients are h-hat at the S1 ranks, past n/2 the conjugate at -t.  Then the
    # half, read by h and q, becomes the remainder's.  The k-sized index arrays and the half
    # are dropped as soon as they are spent: at worst-case k, q's evaluation sets the peak.
    k = len(s1)
    index, mirrored = _half_index(char_ranks(grp, s1), grp.factors, neg)
    coeffs = hhat.reshape(-1)[index]
    np.negative(coeffs.imag, out=coeffs.imag, where=mirrored)
    in_half = index[~mirrored]
    del index, mirrored
    _check_mean(complex(hhat.flat[0]), delta)
    r_max = _remainder(hhat, grp, in_half, delta)
    del hhat, in_half

    q = TrigPoly(grp, s1, coeffs, constant_shift=-BOUNDS["remainder"].limit(delta))
    c = q.evaluate(a0).real
    bohr_char = bohr_from_trigpoly(q, a0, c)
    bohr_torus = char_form_to_torus_form(bohr_char)

    values = {
        "dimension": float(k),
        "witness_value": h_at_a0,
        "c_lower": c,
        "torus_radius": bohr_torus.radius,
        "remainder": r_max,
    }
    bounds = {name: bound_check(name, value, delta) for name, value in values.items()}
    for name, check in bounds.items():
        if not check.ok:
            raise InvariantBreach(f"bound {name} failed: value {check.value} vs limit {check.limit}")
    return Certificate(
        group=grp,
        delta=delta,
        a0=a0,
        s1=bohr_char.freqs,
        c=c,
        k=k,
        h_at_a0=h_at_a0,
        bohr_char_form=bohr_char,
        bohr_torus_form=bohr_torus,
        bounds=bounds,
    )
