"""Test oracles: the definitional sums, the exact pairing and the full-table extract route.

Only tests call these, so they live here and not in the library.  The
definitional routes evaluate the plain O(N^2) pairing sums over float phases
(:func:`phase_table`) and the convolution as a translate sum; the fast and
factored transforms are tested against them.  The full-table extract route
(``rfft.dft``, :func:`large_spectrum`, :func:`triple_spectrum`,
:func:`idft_real`, :func:`remainder_bound_check`) is the reference that
``extract``, which keeps to the ``rfftn`` half tables, must match bit for
bit; it runs the extractor's own private steps on full tables.  The
conventions are those of ``bohrlab.spectral``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from bohrlab import spectral
from bohrlab.errors import ShapeError
from bohrlab.extractor import _at_least, _check_mean, _remainder, _require_closed
from bohrlab.groups import (
    TWO_PI,
    Char,
    CharTuple,
    Elem,
    GroupSpec,
    char_ranks,
    check_char,
    check_elem,
    coords_table,
    elem_at,
    strides,
)
from bohrlab.rfft import _half_index, _synthesize_half
from bohrlab.spectral import (
    DensityFn,
    Spectrum,
    _negated_ranks,
    _require_same_group,
    _translate_windows,
    reflect,
)


# --- groups ---------------------------------------------------------------------

def pairing_exact(g: GroupSpec, t: Char, z: Elem) -> Fraction:
    """Exact rational value of the torus pairing, reduced mod 1."""
    check_char(g, t)
    check_elem(g, z)
    acc = Fraction(0)
    for tj, zj, n in zip(t.freq, z.coords, g.factors):
        acc += Fraction(tj * zj, n)
    return acc % 1


def rank_of_char(g: GroupSpec, t: Char) -> int:
    check_char(g, t)
    return int(sum(c * s for c, s in zip(t.freq, strides(g))))


def char_at(g: GroupSpec, rank: int) -> Char:
    return Char(elem_at(g, rank).coords)


def phase_table(g: GroupSpec, freqs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Pairing phases in [0, 1) for every (frequency row, coordinate row) pair.

    ``freqs`` is (k, d) and ``coords`` is (m, d); the result is (k, m).  All
    trigonometry downstream goes through these phases, never through
    incremental rotation, so there is no accumulated drift on large groups.
    """
    factors = np.asarray(g.factors, dtype=np.int64)
    prod = (freqs[:, None, :] * coords[None, :, :]) % factors
    return (prod / factors).sum(axis=2) % 1.0


# --- the definitional transforms ---------------------------------------------------

def _phase_blocks(g: GroupSpec, rows: np.ndarray, cols: np.ndarray):
    """Yield ``(block, phase_table(g, rows[block], cols))`` over consecutive row slices.

    Blocks grow 1, 2, 4, ... rows, each capped at ``spectral._BLOCK_CELLS``
    cells (and at least one row), so memory stays bounded.  The cap is read
    at call time, so a test can force small blocks.
    """
    start, size = 0, 1
    while start < len(rows):
        cap = max(1, spectral._BLOCK_CELLS // max(1, len(cols) * g.ndim))
        block = slice(start, start + min(size, cap))
        yield block, phase_table(g, rows[block], cols)
        start, size = block.stop, 2 * size


def constant_density(g: GroupSpec, value: float = 1.0) -> DensityFn:
    return DensityFn(g, np.full(g.order, value, dtype=np.float64))


def dft_definitional(f: DensityFn) -> Spectrum:
    """The analysis sum evaluated directly, blocked to bound memory."""
    g = f.group
    coords = coords_table(g)
    out = np.empty(g.order, dtype=np.complex128)
    for block, phases in _phase_blocks(g, coords, coords):
        out[block] = np.exp(-1j * TWO_PI * phases) @ f.values / g.order
    return Spectrum(g, out)


def idft_definitional(spectrum: Spectrum) -> np.ndarray:
    """The synthesis sum over every character, evaluated directly."""
    g = spectrum.group
    return synthesize(g, coords_table(g), spectrum.coeffs)


def synthesize(g: GroupSpec, freqs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate sum_j coeffs[j] * chi_{freqs[j]}(z) at every z, definitionally.

    ``freqs`` is a (k, d) integer array of frequency tuples.
    """
    freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, g.ndim)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if freqs.shape[0] != coeffs.shape[0]:
        raise ShapeError("one coefficient per frequency row is required")
    out = np.empty(g.order, dtype=np.complex128)
    for block, phases in _phase_blocks(g, coords_table(g), freqs):
        out[block] = np.exp(1j * TWO_PI * phases) @ coeffs
    return out


def convolve_definitional(f: DensityFn, g: DensityFn) -> DensityFn:
    """The convolution sum evaluated by shifting, one translate per summand.

    ``out += g(t) * f(. - t)`` over the nonzero weights in rank order of t, as
    a plain translate sum: each translate is a window from
    ``spectral._translate_windows``, with no copy of f per summand, and the
    products go through one reused table.  The order of the sum, and so every
    bit of the result, is that of rolling f once per weight.
    """
    grp = _require_same_group(f, g)
    ranks = np.flatnonzero(g.values)
    shifts = np.stack(np.unravel_index(ranks, grp.factors), axis=1)
    out = np.zeros(grp.factors, dtype=np.float64, order="F")
    term = np.empty_like(out)
    for weight, window in zip(g.values[ranks], _translate_windows(f.as_nd(), shifts)):
        np.multiply(window, weight, out=term)
        out += term
    return DensityFn(grp, out.ravel() / grp.order)


def triple_convolve_definitional(f: DensityFn, g: DensityFn) -> DensityFn:
    _require_same_group(f, g)
    return convolve_definitional(convolve_definitional(f, g), reflect(g))


# --- the full-table extract route ---------------------------------------------------

def idft_real(spectrum: Spectrum) -> np.ndarray:
    """The synthesis of a real table's spectrum by the real-input inverse FFT; a read-only real table.

    Only valid for the spectrum of a real table, ``F(-t) == conj(F(t))``: the
    characters whose last coordinate exceeds n/2 are never read, and the
    imaginary part the synthesis would have is dropped.  The half it reads
    goes through ``rfft._synthesize_half``, as the extractor's h and remainder do.
    """
    g = spectrum.group
    return _synthesize_half(spectrum.as_nd()[..., : g.factors[-1] // 2 + 1], g)


def triple_spectrum(fhat: Spectrum, ghat: Spectrum) -> Spectrum:
    """h-hat = f-hat * |g-hat|^2, the transform of f conv g conv g(-.) for real g.

    The transform of g(-.) is conj(g-hat) when g is real, so the two
    convolutions are one elementwise product, over every character here; the
    extractor and ``rfft.triple_convolve`` form it on the half tables instead
    (``rfft._triple_half``), with the same bits there.
    """
    grp = _require_same_group(fhat, ghat)
    hhat = fhat.coeffs * np.abs(ghat.coeffs) ** 2
    hhat.flags.writeable = False
    return Spectrum(grp, hhat)


def large_spectrum(spectrum: Spectrum, threshold: float) -> CharTuple:
    """Characters whose Fourier coefficient has modulus >= threshold.

    Returned in canonical character order, as a CharTuple.  The trivial
    character is always included whenever threshold <= the mean, which is
    the coefficient at t = 0.
    """
    return CharTuple.from_ranks(spectrum.group, np.flatnonzero(_at_least(spectrum.coeffs, threshold)))


def remainder_bound_check(hhat: Spectrum, s1: tuple[Char, ...], delta: float) -> float:
    """Max modulus of h minus its S1 truncation; must stay under delta^4 / 4.

    ``hhat`` is the transform of h, f-hat * |g-hat|^2 (:func:`triple_spectrum`),
    so the remainder is its inverse transform with the S1 coefficients zeroed
    out.  Its coefficient at t = 0 is the product of the means, which must be
    delta^3.  The remainder is real, and is synthesized from the half of the
    table a real-input FFT reads, so S1 must be closed under negation, as the
    large spectrum of a real table is: an unpaired character would be zeroed
    on one side only.  That is checked on S1's boolean table, built from its
    ranks, as ``extract`` checks the table it reads S1 off.  A copy of
    that half goes through the routine that ``extract`` runs on its own
    half of h-hat.
    """
    grp = hhat.group
    _check_mean(complex(hhat.coeffs[0]), delta)
    ranks = char_ranks(grp, s1)
    in_s1 = np.zeros(grp.factors, dtype=bool)
    in_s1.reshape(-1)[ranks] = True
    _require_closed(in_s1)
    del in_s1
    index, _ = _half_index(ranks, grp.factors, _negated_ranks(grp.factors[:-1]))
    rest = hhat.as_nd()[..., : grp.factors[-1] // 2 + 1].copy()
    return _remainder(rest, grp, index, delta)
