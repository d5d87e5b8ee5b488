"""numpy's real-input FFT on a finite group: the extractor's fast path.

The fast path is numpy's real-input FFT, bit for bit; the extraction pipeline
uses it.  A table here is real, so its transform is conjugate-symmetric,
fhat(-t) = conj(fhat(t)).  One private half transform, ``_half_spectrum``,
computes ``rfftn`` on the characters whose last coordinate is at most n/2 and
makes the planes that hold both t and -t exactly symmetric; one private
synthesis, ``_synthesize_half``, is ``irfftn``.  Both walk the axes in
numpy's order: a length-2 axis is one sum/difference pass over the whole
table (``_pair_passes``), which is pocketfft's length-2 transform exactly,
and each maximal run of other axes is one numpy call.  On F_2^n no numpy
transform runs at all; a group with no length-2 axis makes one ``rfftn`` and
one ``irfftn`` call.  The extractor and :func:`triple_convolve` stay on that
half, from the transform to the synthesis: no N-point complex table is
formed.  :func:`dft` unfolds the half to the full table, exactly symmetric by
construction, and :func:`idft_real` synthesizes a real table from the half of
a full one.  :func:`idft` is the complex synthesis of any spectrum.

The fast triple convolution f conv g conv g(-.) is one product of transforms,
f-hat * |g-hat|^2, since the reflection of a real table has the conjugate
transform: :func:`triple_spectrum` forms it on full tables, ``_triple_half``
in place on half tables, with the same bits where both hold it.
:func:`triple_convolve` is two forward and one inverse real FFT on the half.
The identity suite, :func:`fourier_identity_suite`, checks the transform
identities on :func:`dft` and :func:`convolve`.

Every ``np.fft`` call of the package is made here.  The table types and the
conventions are those of ``bohrlab.spectral``.  The verifier's static import
closure holds neither this module nor the extractor, and none of its modules
names ``np.fft`` (``tests/test_verify_no_fft.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .groups import GroupSpec
from .spectral import DensityFn, Spectrum, _negated_ranks, _require_same_group, reflect


# --- transforms --------------------------------------------------------------

def dft(f: DensityFn) -> Spectrum:
    """Fourier transform via the real-input FFT, unfolded to every character.

    The half table of :func:`_half_spectrum`, unfolded by :func:`_unfold`:
    the characters whose last coordinate exceeds n/2 are the conjugates of
    their negatives, so ``fhat(-t) == conj(fhat(t))`` holds exactly, for
    every t.  The extractor never unfolds a complex table; this is the
    public route to the full one.
    """
    g = f.group
    neg = _negated_ranks(g.factors[:-1])
    coeffs = _unfold(_half_spectrum(f, neg), g.factors, neg).ravel()
    coeffs.flags.writeable = False
    return Spectrum(g, coeffs)


def _axis_runs(factors: tuple[int, ...]) -> list[tuple[int, int, bool]]:
    """The maximal runs of adjacent axes, ``(start, stop, pairs)``, ``pairs`` when every length is 2."""
    runs, start = [], 0
    for pairs, run in itertools.groupby(factors, key=lambda n: n == 2):
        stop = start + len(list(run))
        runs.append((start, stop, pairs))
        start = stop
    return runs


def _pair_passes(
    table: np.ndarray, start: int, stop: int, descending: bool, scratch: bool = False
) -> np.ndarray:
    """The length-2 transform (x0 + x1, x0 - x1) on the axes ``start`` to ``stop - 1``; a fresh table.

    That is pocketfft's length-2 transform in either direction, bit for bit:
    one add and one subtract per pair, with no multiply, real and imaginary
    parts apart.  Its inverse then multiplies by 1/2, which the caller drops
    and makes up with one power-of-two scale at the end.  The axes go in
    descending order (numpy's forward order) or ascending (its inverse order),
    in Stockham's self-sorting (autosort) layout: a descending pass reads the
    run's last axis as adjacent pairs and writes its sums and differences as
    the run's first axis, two contiguous halves, so after the run's last pass
    every axis is back in place; an ascending pass is the mirror image.  Each
    pass writes one whole table, and two tables take turns; ``table`` is one
    of them only when ``scratch`` says it may be overwritten and it is
    C-ordered.
    """
    shape = table.shape
    lead, tail, half = math.prod(shape[:start]), math.prod(shape[stop:]), 1 << (stop - start - 1)
    pairs, halves = (lead, half, 2, tail), (lead, 2, half, tail)
    (read, at_read), (write, at_write) = (pairs, 2), (halves, 1)
    if not descending:
        (read, at_read), (write, at_write) = (write, at_write), (read, at_read)
    first, second = (slice(None),) * at_read + (0,), (slice(None),) * at_read + (1,)
    sums, differences = (slice(None),) * at_write + (0,), (slice(None),) * at_write + (1,)
    reusable = scratch and table.flags.c_contiguous
    src, free = table, []
    for _ in range(start, stop):
        out = free.pop() if free else np.empty(shape, table.dtype)
        x, y = src.reshape(read), out.reshape(write)
        np.add(x[first], x[second], out=y[sums])
        np.subtract(x[first], x[second], out=y[differences])
        if reusable or src is not table:
            free.append(src)
        src = out
    return src


def _real_forward(table: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn(table)`` over every axis, bit for bit, with each length-2 axis one pass.

    numpy's order: the real transform on the last axis, then the complex one
    on the others from last to first.  A maximal run of other axes is one
    numpy call: ``rfftn`` if it holds the last axis, else ``fftn`` in place,
    which walks its axes from last to first too.  A run of length-2 axes is
    :func:`_pair_passes`.  When the last axis has length 2, its run goes on
    the real table: pairs of real numbers with zero imaginary parts sum and
    subtract to exactly zero imaginary parts, as pocketfft leaves them.  A
    group with no length-2 axis makes one ``rfftn`` call.
    """
    runs = _axis_runs(table.shape)
    start, stop, pairs = runs[-1]
    if pairs:
        half = _pair_passes(table, start, stop, descending=True).astype(np.complex128)
    else:
        half = np.fft.rfftn(table, axes=tuple(range(start, stop)))
    for start, stop, pairs in reversed(runs[:-1]):
        if pairs:
            half = _pair_passes(half, start, stop, descending=True, scratch=True)
        else:
            np.fft.fftn(half, axes=tuple(range(start, stop)), out=half)
    return half


def _half_spectrum(f: DensityFn, neg: np.ndarray) -> np.ndarray:
    """The transform of f at the characters whose last coordinate is at most n/2.

    ``rfftn`` divided by N, bit for bit (:func:`_real_forward`), a writable
    table of shape (*factors[:-1], n//2 + 1).
    ``neg`` is ``_negated_ranks(factors[:-1])``, built once by the caller.  The
    planes where the last coordinate is 0 or n/2 hold t and -t both, and
    ``rfftn`` computes each pair twice: the value of the pair's first
    character in rank order is kept and mirrored, and a self-paired character
    keeps its real part, so the half is exactly conjugate-symmetric where it
    holds both.  h and the remainder are synthesized from these planes.
    """
    g = f.group
    half = _real_forward(f.as_nd())
    half /= g.order
    n = g.factors[-1]
    planes = half.reshape(len(neg), n // 2 + 1)
    rank = np.arange(len(neg))
    later, own = neg < rank, neg == rank
    for col in (0, n // 2) if n % 2 == 0 else (0,):
        column = planes[:, col]
        column[later] = np.conjugate(column[neg[later]])
        column[own] = column[own].real
    return half


def _unfold(half: np.ndarray, factors: tuple[int, ...], neg: np.ndarray) -> np.ndarray:
    """The full ``factors``-shaped table from a half table in :func:`_half_spectrum`'s layout.

    Column j > n/2 is column n - j at the negated leading coordinates (``neg``),
    conjugated when the table is complex.  A boolean table unfolds as it is:
    the mask |fhat| >= threshold on the half unfolds to the mask on every
    character, since |conj z| == |z| bit for bit.
    """
    n = factors[-1]
    width = n // 2 + 1
    half = half.reshape(len(neg), width)
    full = np.empty((len(neg), n), dtype=half.dtype)
    full[:, :width] = half
    mirror = half[:, (n - 1) // 2 : 0 : -1][neg]
    if full.dtype.kind == "c":
        np.conjugate(mirror, out=full[:, width:])
    else:
        full[:, width:] = mirror
    return full.reshape(factors)


def _half_index(
    ranks: np.ndarray, factors: tuple[int, ...], neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each character of ``ranks`` is read in a ravelled half table: ``(index, mirrored)``.

    A character whose last coordinate is at most n/2 is read at its own place;
    one past n/2 (``mirrored``) is read as the conjugate of the entry of -t.
    The index is formed in place from the leading rank and the last
    coordinate, which are negated where mirrored; the last coordinate is the
    rank less n times its floor quotient, as numpy's ``divmod`` is far slower.
    """
    n = factors[-1]
    width = n // 2 + 1
    index = ranks // n
    col = index * n
    np.subtract(ranks, col, out=col)
    mirrored = col >= width
    index[mirrored] = neg[index[mirrored]]
    np.subtract(n, col, out=col, where=mirrored)
    index *= width
    index += col
    return index, mirrored


def idft(spectrum: Spectrum) -> np.ndarray:
    """Pointwise synthesis sum_t F(t) chi_t(z); returns a complex table."""
    values = np.fft.ifftn(spectrum.as_nd()).ravel()
    values *= spectrum.group.order
    return values


def idft_real(spectrum: Spectrum) -> np.ndarray:
    """The synthesis of a real table's spectrum by the real-input inverse FFT; a read-only real table.

    Only valid for the spectrum of a real table, ``F(-t) == conj(F(t))``: the
    characters whose last coordinate exceeds n/2 are never read, and the
    imaginary part the synthesis would have is dropped.  The half it reads
    goes through ``_synthesize_half``, as the extractor's h and remainder do.
    """
    g = spectrum.group
    return _synthesize_half(spectrum.as_nd()[..., : g.factors[-1] // 2 + 1], g)


def _synthesize_half(half: np.ndarray, g: GroupSpec) -> np.ndarray:
    """The real synthesis of the ``rfftn`` half of a conjugate-symmetric table, ravelled.

    ``np.fft.irfftn(half, s=g.factors) * N``, bit for bit, with each length-2
    axis one :func:`_pair_passes`; ``half`` is never written.  numpy's order:
    the complex inverse on the axes but the last, in ascending order, then the
    real inverse on the last.  A maximal run of other axes is one numpy call
    on ``half`` itself (``irfftn``, or ``ifftn`` on its axes listed from last
    to first, which it walks from first to last); on a table of the walk's
    own, its complex axes go through ``ifftn`` in place and the last axis
    through ``irfft``.  From the start of a run of length-2 axes that ends the
    group, only real parts are read: the real part of a sum or difference is
    that of the real parts, and the real inverse of length 2 reads real parts
    only.  numpy's inverse also multiplies by 1/2 on each of the m length-2
    axes; the passes do not, and the table is multiplied by N / 2^m at the end
    in place of N (by nothing on F_2^n).  That is exact: scaling by a power of
    two is exact in binary64 outside the subnormal range, so every rounding on
    the way sees the same significands.  A group with no length-2 axis makes
    one ``irfftn`` call.  The table is fresh and returned read-only, so a
    :class:`DensityFn` keeps it uncopied.
    """
    table = half
    for start, stop, pairs in _axis_runs(g.factors):
        last = stop == g.ndim
        if pairs:
            scratch = not last and table is not half
            table = _pair_passes(
                table.real if last else table, start, stop, descending=False, scratch=scratch
            )
        elif table is half:
            if last:
                table = np.fft.irfftn(half, s=g.factors[start:], axes=tuple(range(start, stop)))
            else:
                table = np.fft.ifftn(half, axes=tuple(range(stop - 1, start - 1, -1)))
        else:
            complex_axes = tuple(range(start, stop - 1 if last else stop))
            if complex_axes:
                np.fft.ifftn(table, axes=complex_axes[::-1], out=table)
            if last:
                table = np.fft.irfft(table, g.factors[-1])
    values = table.ravel()
    scale = g.order >> g.factors.count(2)
    if scale != 1:
        values *= scale
    values.flags.writeable = False
    return values


# --- convolution --------------------------------------------------------------

def convolve(f: DensityFn, g: DensityFn) -> DensityFn:
    """Haar-normalized circular convolution, computed through the FFT."""
    grp = _require_same_group(f, g)
    prod = np.fft.fftn(f.as_nd()) * np.fft.fftn(g.as_nd())
    vals = np.fft.ifftn(prod).real.ravel() / grp.order
    return DensityFn(grp, vals)


def triple_spectrum(fhat: Spectrum, ghat: Spectrum) -> Spectrum:
    """h-hat = f-hat * |g-hat|^2, the transform of f conv g conv g(-.) for real g.

    The transform of g(-.) is conj(g-hat) when g is real, so the two
    convolutions are one elementwise product, over every character here; the
    extractor and :func:`triple_convolve` form it on the half tables instead
    (``_triple_half``), with the same bits there.
    """
    grp = _require_same_group(fhat, ghat)
    hhat = fhat.coeffs * np.abs(ghat.coeffs) ** 2
    hhat.flags.writeable = False
    return Spectrum(grp, hhat)


def _triple_half(fhat: np.ndarray, ghat: np.ndarray) -> np.ndarray:
    """h-hat = f-hat * |g-hat|^2 on two half tables, written over ``fhat``, which is returned."""
    power = np.abs(ghat)
    np.square(power, out=power)
    fhat *= power
    return fhat


def triple_convolve(f: DensityFn, g: DensityFn) -> DensityFn:
    """The smoothed sumset profile f conv g conv g(-.), for real g.

    Three real-input transforms on the half of the dual group that ``rfftn``
    computes (``_half_spectrum`` and ``_synthesize_half``): f-hat and g-hat,
    their product h-hat (``_triple_half``), then its real synthesis.  No full
    table is unfolded.  The extractor's h goes through these same private
    steps, so it is this table, bit for bit.
    """
    grp = _require_same_group(f, g)
    neg = _negated_ranks(grp.factors[:-1])
    hhat = _triple_half(_half_spectrum(f, neg), _half_spectrum(g, neg))
    return DensityFn(grp, _synthesize_half(hhat, grp))


def plancherel_pairing(f: DensityFn, g: DensityFn) -> complex:
    """The spatial inner product (1/N) sum_z f(z) * conj(g(z))."""
    grp = _require_same_group(f, g)
    return complex(np.vdot(g.values, f.values) / grp.order)


# --- the identity suite ---------------------------------------------------------

SUITE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SuiteReport:
    group: GroupSpec
    trials: int
    seed: int
    tolerance: float
    max_errors: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.max_errors.values())

    def to_dict(self) -> dict:
        return {
            "group": str(self.group),
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_errors": dict(self.max_errors),
            "passed": self.passed,
        }


def fourier_identity_suite(g: GroupSpec, trials: int, seed: int = 0) -> SuiteReport:
    """Exercise the transform identities on seeded random tables.

    Four identities per trial: the inner-product identity (Plancherel), its
    diagonal case (Parseval), the convolution theorem, and conjugation under
    reflection.  The report carries the max absolute error of each.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    errs = {"plancherel": 0.0, "parseval": 0.0, "convolution": 0.0, "reflection": 0.0}
    n = g.order
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        f = DensityFn(g, rng.random(n))
        h = DensityFn(g, rng.random(n))
        fhat = dft(f).coeffs
        hhat = dft(h).coeffs

        lhs = plancherel_pairing(f, h)
        rhs = complex((fhat * hhat.conj()).sum())
        errs["plancherel"] = max(errs["plancherel"], abs(lhs - rhs))

        errs["parseval"] = max(
            errs["parseval"],
            abs(float((f.values**2).mean()) - float((np.abs(fhat) ** 2).sum())),
        )

        conv_hat = dft(convolve(f, h)).coeffs
        errs["convolution"] = max(
            errs["convolution"], float(np.abs(conv_hat - fhat * hhat).max())
        )

        refl_hat = dft(reflect(h)).coeffs
        errs["reflection"] = max(
            errs["reflection"], float(np.abs(refl_hat - hhat.conj()).max())
        )
    return SuiteReport(
        group=g, trials=trials, seed=seed, tolerance=SUITE_TOLERANCE, max_errors=errs
    )
