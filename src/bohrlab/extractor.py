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
internal error, never a silently weaker certificate.  The certificate, the
bounds, the threshold delta^3 / 4 and the radius rule are ``claim``'s, which
the verifier reads as well; every transform here is ``rfft``'s.

Each input is transformed once, on the half of the dual group that a
real-input FFT computes (``rfft._half_spectrum``); f, g, h and the
remainder are real tables, and no N-point complex table is formed.  S1 is read
off f-hat's half as a mask, unfolded as booleans to every character
(|conj z| = |z| bit for bit).  Then f-hat becomes h-hat = f-hat * |g-hat|^2
in place, and g-hat is dropped.  h-hat feeds everything after: h is its
synthesis, q's coefficients are its entries at the S1 ranks (past n/2, the
conjugate of the entry at -t), and the remainder is the synthesis of the same
half with S1 zeroed in place, once h and q have read it.  That is two forward
and two inverse real transforms per extraction, each ``rfftn / N`` or
``irfftn * N`` bit for bit and each writing one fresh table (the syntheses
one complex table and their real output), with length-2 axes as
sum/difference passes (none of numpy's transforms runs on F_2^n), and h is
``triple_convolve``'s, bit for bit, since both take the same private steps.
This is the one extraction path.  The certificate is bit for bit that of the
full-table route, which unfolds every spectrum and which the tests keep as
their reference: a coefficient of q past n/2 can differ from the full
product only in the sign of a zero part, which no certificate stores and
which cannot reach c, a running sum that starts at -delta^4 / 4 and so is
never -0.  S1, the large spectrum of a real table, is closed under negation,
which the real synthesis of the remainder needs; that is checked on the
unfolded mask itself, which is freed before the syntheses.

The pipeline is array-native: S1 is a rank array, and ``TrigPoly`` is a thin
wrapper over a support and a coefficient array.  S1 is one ``CharTuple``,
shared by the certificate and both of its Bohr forms, built from the ranks
it was read off with: no stage range-checks or ranks it again, and none forms
its (k, d) frequency table.  q keeps its coefficients as extract gathered
them, frozen, with no copy.  c = Re q(a0) keeps the bits of the scalar
route, which calls libm once per term; only the real part is formed
(``TrigPoly.evaluate_real``), and q remembers it for
:func:`bohr_from_trigpoly`.  A term's phase at a0 depends only on its
residues (t_j a0_j mod n_j)_j, so each rank of S1 is mapped to the rank of
its residues: by one AND on F_2^n, and otherwise by one prefix table over the
leading axes, a gather, and a small table on the last axis.  cos and sin are
read there from a per-group table of libm results, filled on demand with one
libm call per distinct angle among the entries still unset.  A group seen
before, as in a benchmark round or a sweep, pays no sort and no libm call for
them.  The terms' real parts a cos - b sin are formed in the gathered cos
buffer and summed by one running sum, so at worst-case k the evaluation
holds three k-sized arrays at most: the residue ranks, cos and sin.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bohr import FORM_CHAR, BohrSpec, char_form_to_torus_form
from .claim import (
    BOUND_SLACK,
    BOUNDS,
    RADIUS_SLACK,
    Certificate,
    bound_check,
    radius_rule,
    s1_threshold,
)
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
    rank_of_elem,
    ranks_of_rows,
    strides,
)
from .rfft import _half_index, _half_spectrum, _synthesize_half, _triple_half, _unfold
from .spectral import DensityFn, _at_negated, _frozen, _negated_ranks

MEAN_TOLERANCE = 1e-12


def _running_sum(start: float, values: np.ndarray) -> float:
    """Left-to-right float sum from ``start``, as a scalar loop would do (``np.sum`` would sum pairwise).

    ``values`` is overwritten: ``start`` is added to its first entry, then the
    partial sums are accumulated in place.  The first partial sum is
    fl(start + v0) either way, so the sum keeps its bits.
    """
    if not values.size:
        return float(start)
    values[0] += start
    return float(np.add.accumulate(values, out=values)[-1])


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """A finite trigonometric polynomial: constant_shift + sum of coeff * chi.

    A thin array wrapper over a CharTuple ``support`` and the matching complex
    array ``coeffs``.  The support must be distinct characters in increasing
    rank order, which makes evaluation sums reproducible; :meth:`from_terms` sorts.
    The coefficients are frozen by ``spectral._frozen``, as :class:`Spectrum`
    keeps its table: a read-only 1-D complex128 array is kept as it is, and
    anything else is copied.  The polynomial remembers the real part of its
    last evaluation, so a later check of the same value
    (:func:`bohr_from_trigpoly` after ``c = Re p(a)``) is free.
    """

    group: GroupSpec
    support: CharTuple
    coeffs: np.ndarray
    constant_shift: float = 0.0
    _last: tuple[Elem, float] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        support = char_tuple(self.group, self.support)
        coeffs = _frozen(self.coeffs, np.complex128)
        if coeffs.ndim != 1:
            coeffs = coeffs.reshape(-1)
        if coeffs.shape != (len(support),):
            raise ShapeError(
                f"{coeffs.size} coefficients for {len(support)} frequencies"
            )
        ranks = char_ranks(self.group, support)
        if (ranks[1:] <= ranks[:-1]).any():
            raise DomainError("frequencies must be distinct and in increasing rank order")
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
        accumulated factor by factor and reduced mod 1, ``math.cos``/``math.sin``
        of 2 pi times it, the complex product written out in separate real
        operations, then a left-to-right sum starting from the shift.  The
        cos and sin of each term are read from the group's table of libm
        results (:meth:`_cos_sin`).  The result does not depend on how numpy
        vectorizes or reduces.
        """
        cos, sin = self._cos_sin(z)
        a, b = self.coeffs.real, self.coeffs.imag
        value = complex(
            _running_sum(self.constant_shift, a * cos - b * sin),
            _running_sum(0.0, a * sin + b * cos),
        )
        object.__setattr__(self, "_last", (z, value.real))
        return value

    def evaluate_real(self, z: Elem) -> float:
        """Re p(z), which is ``evaluate(z).real`` bit for bit.

        The real parts a cos - b sin of the terms are formed in the gathered
        cos buffer, in the same operations as :meth:`evaluate`'s, and summed
        by one running sum from the shift; no imaginary part is formed.
        """
        cos, sin = self._cos_sin(z)
        cos *= self.coeffs.real
        sin *= self.coeffs.imag
        cos -= sin
        del sin
        value = _running_sum(self.constant_shift, cos)
        object.__setattr__(self, "_last", (z, value))
        return value

    def _real_value_at(self, z: Elem) -> float:
        """Re p(z): the last evaluation's if it was at z, else :meth:`evaluate_real`'s."""
        if self._last is not None and self._last[0] == z:
            return self._last[1]
        return self.evaluate_real(z)

    def _cos_sin(self, z: Elem) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of 2 pi phase(t, z) for each term t, as fresh arrays in rank order.

        The phase of t at z is a function of t's residues (t_j z_j mod n_j)_j
        alone, so each term reads its cos and sin at the rank of its residues
        (:func:`_residue_ranks`) from the group's table (:func:`_libm_table`),
        which holds libm's results at the phase the scalar route forms.  Only
        entries still unset are computed (:func:`_fill`), with libm called
        once per distinct angle among them: an equal float gives an equal
        libm result, so no bit changes.  A group evaluated before takes no
        sort and no libm call for the entries it has set.
        """
        check_elem(self.group, z)
        table = _libm_table(self.group.factors)
        residues = _residue_ranks(self.group, char_ranks(self.group, self.support), z)
        cos = table[0][residues]
        if not cos.all():
            unset = cos == 0.0
            del cos  # before the fill's temporaries, which set a cold evaluation's peak
            _fill(table, self.group, residues, unset)
            del unset
            cos = table[0][residues]
        return cos, table[1][residues]


@lru_cache(maxsize=16)
def _libm_table(factors: tuple[int, ...]) -> np.ndarray:
    """The (2, N) table of cos and sin of 2 pi phase(R) for one group shape, indexed by residue rank R.

    phase(R) is the float that the scalar route forms for any term whose
    residues have rank R: sum_j r_j / n_j, summed from 0.0 factor by factor,
    minus its floor.  Entries are filled on demand (:func:`_fill`); one is
    unset while its cos is +0.0, which no cosine of a double is, since no
    double is a zero of cos.  The table is backed by an anonymous private
    mapping, so pages never written are the kernel's zero page and do not
    count toward the process's resident memory; ``np.zeros`` would touch
    every page.  Every evaluation on a shape shares its table, whose entries
    are a pure function of the shape and R, so what one fills changes no
    other's result.  The cache bounds the shapes kept.
    """
    n = math.prod(factors)
    buf = mmap.mmap(-1, 16 * n, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.float64).reshape(2, n)


def _residue_ranks(group: GroupSpec, ranks: np.ndarray, z: Elem) -> np.ndarray:
    """The rank of the residues (t_j z_j mod n_j)_j of each character t, given by its canonical rank.

    When every factor is at most 2, each length-2 axis owns one bit of a
    rank and t_j z_j mod 2 is t_j AND z_j, so the residue rank is the rank of
    t AND the rank of z.  Otherwise the leading axes' part of every such rank
    is one mixed-radix table over the leading axes (N / n_last entries, built
    by outer adds), gathered at each character's leading rank; the last axis
    adds t_last z_last mod n_last, gathered from a table of n_last entries.
    The k-sized reductions are floor divisions by a scalar, which numpy runs
    far faster than ``%`` or ``divmod``.
    """
    if max(group.factors) <= 2:
        return ranks & rank_of_elem(group, z)
    *lead, n_last = group.factors
    if not lead:
        residues = ranks * z.coords[0]
        residues -= residues // n_last * n_last
        return residues
    prefix = np.zeros(1, dtype=np.int64)
    for n, zj, s in zip(lead, z.coords, strides(group)):
        prefix = (prefix[:, None] + np.arange(n, dtype=np.int64) * zj % n * s).reshape(-1)
    last = ranks // n_last
    residues = prefix[last]
    last *= n_last
    np.subtract(ranks, last, out=last)  # t_last
    residues += (np.arange(n_last, dtype=np.int64) * z.coords[-1] % n_last)[last]
    return residues


def _fill(table: np.ndarray, group: GroupSpec, residues: np.ndarray, unset: np.ndarray) -> None:
    """Set ``table``'s entries at the residue ranks ``residues[unset]``, with libm called once per distinct angle.

    Each distinct rank's phase is summed factor by factor from its residues,
    as the scalar route sums a term's, and reduced by its floor, which for a
    finite phase >= +0.0 is ``% 1.0`` bit for bit.  Every angle is >= +0.0, so
    no -0.0 is merged with +0.0.  The ranks come out ascending, and on Z_n so
    do their angles: they are sorted and deduplicated only when they are not
    strictly increasing.  sin is written before cos, so a reader that sees an
    entry's cos set sees its sin set too.
    """
    todo = np.zeros(table.shape[1], dtype=bool)
    todo[residues] = unset  # equal ranks are all set or all unset
    ranks = np.flatnonzero(todo)
    del todo
    angle = np.zeros(len(ranks))
    for n, s in zip(group.factors, strides(group)):
        r = ranks // s
        r %= n
        angle += r / n
    del r
    angle -= np.floor(angle)
    angle *= TWO_PI
    where = None
    if not (angle[1:] > angle[:-1]).all():
        angle, where = np.unique(angle, return_inverse=True)
    distinct = angle.tolist()
    for row, fn in ((1, math.sin), (0, math.cos)):
        values = np.fromiter(map(fn, distinct), dtype=np.float64, count=len(distinct))
        table[row][ranks] = values if where is None else values[where]


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

    ``s1_index`` are the places in the ravelled half where the characters of
    S1 are read (``rfft._half_index``): a character past n/2 is read at
    the place of -t.  The caller has checked that S1 is closed under negation
    (:func:`_require_closed`), so those places are S1's own as well, and
    zeroing them all in place zeroes S1 in the half.  The rest is
    synthesized.  max |r| is taken as |max(max r, -min r)|, the same float
    with no N-sized table of moduli; the outer ``abs`` makes an all-zero
    remainder +0.0, as the largest modulus is.
    """
    np.put(hhat, s1_index, 0.0)
    r = _synthesize_half(hhat, grp)
    r_max = float(abs(max(r.max(), -r.min())))
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
    re_pa = p._real_value_at(a)
    if re_pa < c - RADIUS_SLACK:
        raise PreconditionError(f"Re p(a) = {re_pa} is below the level c = {c}")
    return BohrSpec(p.group, p.support, radius_rule(c, len(p.support)), FORM_CHAR, center=a)


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

    # q's coefficients are h-hat at the S1 ranks, past n/2 the conjugate at -t, gathered once
    # and frozen, so q keeps them.  Then the half, read by h and q, becomes the remainder's, with
    # S1 zeroed at the same places.  The k-sized index arrays and the half are dropped as soon
    # as they are spent: at worst-case k, q's evaluation sets the peak.
    k = len(s1)
    index, mirrored = _half_index(char_ranks(grp, s1), grp.factors, neg)
    coeffs = hhat.reshape(-1)[index]
    np.negative(coeffs.imag, out=coeffs.imag, where=mirrored)
    coeffs.flags.writeable = False
    del mirrored
    _check_mean(complex(hhat.flat[0]), delta)
    r_max = _remainder(hhat, grp, index, delta)
    del hhat, index

    q = TrigPoly(grp, s1, coeffs, constant_shift=-BOUNDS["remainder"].limit(delta))
    c = q.evaluate_real(a0)
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
