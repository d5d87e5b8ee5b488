"""numpy's real-input FFT on a finite group: the extractor's fast path.

The fast path is numpy's real-input FFT, bit for bit; the extraction pipeline
uses it.  A table here is real, so its transform is conjugate-symmetric,
fhat(-t) = conj(fhat(t)).  One private half transform, ``_half_spectrum``,
computes ``rfftn / N`` on the characters whose last coordinate is at most
n/2 and makes the planes that hold both t and -t exactly symmetric; one
private synthesis, ``_synthesize_half``, is ``irfftn * N``.  Both walk the
axes in numpy's order.  A length-2 axis is one sum/difference pass over the
whole table (``_pair_passes``), which is pocketfft's length-2 transform
exactly.  The other axes go through one-axis numpy calls and in-place ones:
the real transform of the last axis is ``rfft`` or ``irfft``, and each
maximal run of other complex axes is one ``fftn`` or ``ifftn`` with
``out=``, but for the synthesis's first complex axis, one ``ifft`` out of
place, as ``half`` is never written.  So numpy's calls write one fresh table
in a forward transform, and one complex table and the real output in a
synthesis, where numpy's n-D routines write one table per axis; a run of
length-2 axes writes its passes into two tables that take turns.  On F_2^n
no numpy transform runs at all.  The extractor and :func:`triple_convolve`
stay on that half, from the transform to the synthesis: no N-point complex
table is formed.  :func:`dft` unfolds the half to the full table, exactly
symmetric by construction.  :func:`idft` is the complex synthesis of any
spectrum.

The scales keep every bit in two ways.  numpy's inverse multiplies by 1/2 on
each of the m length-2 axes, which the passes drop and make up with one
scale at the end.  And when N is a power of two, the forward 1/N and the
inverse's 1/n per axis go into numpy's own normalization (``norm="forward"``):
numpy multiplies by 1/n in each forward call and not at all in an inverse
one.  A synthesis then makes no scaling pass, and a forward transform, in
place of a complex division by N, one cheaper multiply (below).  Both are
exact because every factor is a power of two: multiplying by one is exact
in binary64 and commutes with every rounding on the way, so each rounding
sees the same significands.  The caveat is the subnormal range: where a
nonzero value or partial sum, once scaled, falls below 2^-1022 in magnitude,
it loses bits, and the table can differ from numpy's in its last bits.  For
any other N the division by N and the multiply by N / 2^m stay outside the
transform, as numpy's 1/n would round.  One more detail keeps the signs of
zero: ``rfftn(x) / N`` divides by the complex N + 0i, which gives
((a + b*0) / N, (b - a*0) / N) and so turns some zero parts' signs, and a
folded forward transform ends with one multiply by the complex 2^-m - 0i,
which turns exactly the same ones.

The fast triple convolution f conv g conv g(-.) is one product of transforms,
f-hat * |g-hat|^2, since the reflection of a real table has the conjugate
transform: ``_triple_half`` forms it in place on half tables.
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


def _power_of_two(order: int) -> bool:
    return order & (order - 1) == 0


def _real_forward(table: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn(table) / N`` over every axis, bit for bit.

    numpy's order: the real transform on the last axis, then the complex one
    on the others from last to first.  The run of axes that holds the last
    one starts with ``rfft`` on the last axis, which writes the transform's
    one fresh table; the run's other axes, and every other maximal run of
    axes whose length is not 2, are one ``fftn`` each, in place, which walks
    its axes from last to first too.  A run of length-2 axes is
    :func:`_pair_passes`.  When the last axis has length 2, its run goes on
    the real table: pairs of real numbers with zero imaginary parts sum and
    subtract to exactly zero imaginary parts, as pocketfft leaves them.
    When N is a power of two, numpy scales each call by 1/n, and one
    multiply by the complex 2^-m - 0i, with m length-2 axes, ends the
    transform; it gives the bits and the signs of zero of the division by
    N (module docstring).  Any other N divides the table at the end.
    """
    factors = table.shape
    folded = _power_of_two(table.size)
    norm = "forward" if folded else None
    *runs, (start, stop, pairs) = _axis_runs(factors)
    if pairs:
        half = _pair_passes(table, start, stop, descending=True).astype(np.complex128)
    else:
        half = np.fft.rfft(table, norm=norm)
        runs.append((start, stop - 1, False))
    for start, stop, pairs in reversed(runs):
        if pairs:
            half = _pair_passes(half, start, stop, descending=True, scratch=True)
        elif stop > start:
            np.fft.fftn(half, axes=tuple(range(start, stop)), norm=norm, out=half)
    if folded:
        half *= complex(1.0 / (1 << factors.count(2)), -0.0)
    else:
        half /= table.size
    return half


def _half_spectrum(f: DensityFn, neg: np.ndarray) -> np.ndarray:
    """The transform of f at the characters whose last coordinate is at most n/2.

    ``rfftn`` divided by N, bit for bit (:func:`_real_forward`, which on a
    group of power-of-two order scales inside numpy's calls), a fresh
    writable table of shape (*factors[:-1], n//2 + 1).
    ``neg`` is ``_negated_ranks(factors[:-1])``, built once by the caller.  The
    planes where the last coordinate is 0 or n/2 hold t and -t both, and
    ``rfftn`` computes each pair twice: the value of the pair's first
    character in rank order is kept and mirrored, and a self-paired character
    keeps its real part, so the half is exactly conjugate-symmetric where it
    holds both.  h and the remainder are synthesized from these planes.
    """
    g = f.group
    half = _real_forward(f.as_nd())
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


def _synthesize_half(half: np.ndarray, g: GroupSpec) -> np.ndarray:
    """The real synthesis of the ``rfftn`` half of a conjugate-symmetric table, ravelled.

    ``np.fft.irfftn(half, s=g.factors) * N``, bit for bit, with each length-2
    axis one :func:`_pair_passes`; ``half`` is never written.  numpy's order:
    the complex inverse on the axes but the last, in ascending order, then the
    real inverse on the last.  The walk's first complex axis on ``half`` is
    its one out-of-place ``ifft``; every later complex axis runs in place on
    that table, each maximal run of them as one ``ifftn`` with its axes listed
    from last to first, which it walks from first to last, and ``irfft`` on
    the last axis writes the real output into a table of its own.  From the
    start of a run of length-2 axes that ends the group, only real parts are
    read: the real part of a sum or difference is that of the real parts, and
    the real inverse of length 2 reads real parts only.  The passes drop
    numpy's 1/2 per length-2 axis, so the table is multiplied by N / 2^m at
    the end in place of N, with m length-2 axes; when N is a power of two,
    that multiply and numpy's 1/n on every other axis cancel, and neither is
    made (``norm="forward"``).  Both keep every bit (module docstring).  The
    table is fresh and returned read-only, so a :class:`DensityFn` keeps it
    uncopied.
    """
    folded = _power_of_two(g.order)
    norm = "forward" if folded else None
    table = half
    for start, stop, pairs in _axis_runs(g.factors):
        last = stop == g.ndim
        if pairs:
            scratch = not last and table is not half
            table = _pair_passes(
                table.real if last else table, start, stop, descending=False, scratch=scratch
            )
            continue
        axes = range(start, stop - 1 if last else stop)
        if axes and table is half:
            table = np.fft.ifft(half, axis=start, norm=norm)
            axes = axes[1:]
        if axes:
            np.fft.ifftn(table, axes=tuple(reversed(axes)), norm=norm, out=table)
        if last:
            table = np.fft.irfft(table, g.factors[-1], norm=norm, out=np.empty(g.factors))
    values = table.ravel()
    if not folded:
        values *= g.order >> g.factors.count(2)
    values.flags.writeable = False
    return values


# --- convolution --------------------------------------------------------------

def convolve(f: DensityFn, g: DensityFn) -> DensityFn:
    """Haar-normalized circular convolution, computed through the FFT."""
    grp = _require_same_group(f, g)
    prod = np.fft.fftn(f.as_nd()) * np.fft.fftn(g.as_nd())
    vals = np.fft.ifftn(prod).real.ravel() / grp.order
    return DensityFn(grp, vals)


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
