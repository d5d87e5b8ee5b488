"""Fourier transform, convolution and reflection for tables on a finite group.

Three routes are provided for the transform.  The fast path runs numpy's FFT
factor by factor; the extraction pipeline uses it.  The factored path is a
Cooley-Tukey transform, axis by axis, whose every kernel and twiddle is built
from exact integer phases ``((a*b) mod n)/n`` and which calls no ``np.fft``;
the verifier uses it.  The definitional path evaluates the plain O(N^2)
pairing sums; it is the oracle both are tested against.  Conventions:

    fhat(t) = (1/N) * sum_z f(z) * conj(chi_t(z))        (analysis)
    f(z)    = sum_t fhat(t) * chi_t(z)                   (synthesis)
    (f conv g)(z) = (1/N) * sum_t f(z - t) g(t)

so the transform of a [0,1]-valued table is bounded by its mean, and the
convolution of indicator tables counts representations divided by N^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .groups import TWO_PI, GroupSpec, coords_table, phase_table

# Cells per intermediate block in the definitional paths; keeps the (rows, N, d)
# products well under a couple hundred MB.
_BLOCK_CELLS = 1 << 21


def phase_blocks(g: GroupSpec, rows: np.ndarray, cols: np.ndarray):
    """Yield ``(block, phase_table(g, rows[block], cols))`` over consecutive row slices.

    Blocks grow 1, 2, 4, ... rows, each capped at ``_BLOCK_CELLS`` cells
    against the current columns (and at least one row), so memory stays
    bounded for any ``cols`` of at most N rows.  A walk that prunes columns
    sends the remaining ones back (``walk.send(cols)``); later blocks are sized
    for and computed against them.  Every blocked walk over pairing phases
    (the definitional transforms, synthesis, the prime lengths of the factored
    transform, Bohr membership) goes through here.
    """
    start, size = 0, 1
    while start < len(rows):
        cap = max(1, _BLOCK_CELLS // max(1, len(cols) * g.ndim))
        block = slice(start, start + min(size, cap))
        sent = yield block, phase_table(g, rows[block], cols)
        if sent is not None:
            cols = sent
        start, size = block.stop, 2 * size


@dataclass(frozen=True, eq=False)
class DensityFn:
    """A real table over the group, indexed by element in canonical order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.group.order,):
            raise ShapeError(
                f"expected {self.group.order} values for group {self.group}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("density table must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def mean(self) -> float:
        """The normalized-measure integral (1/N) * sum_z f(z)."""
        return float(self.values.mean())

    def as_nd(self) -> np.ndarray:
        return self.values.reshape(self.group.factors)

    def scaled(self, factor: float) -> "DensityFn":
        return DensityFn(self.group, self.values * factor)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A complex table over the dual group, indexed by character in canonical order."""

    group: GroupSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.group.order,):
            raise ShapeError(
                f"expected {self.group.order} coefficients for group {self.group}, "
                f"got shape {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def as_nd(self) -> np.ndarray:
        return self.coeffs.reshape(self.group.factors)


def constant_density(g: GroupSpec, value: float = 1.0) -> DensityFn:
    return DensityFn(g, np.full(g.order, value, dtype=np.float64))


def _require_same_group(a, b) -> GroupSpec:
    if a.group != b.group:
        raise ShapeError(f"operands live on different groups: {a.group} vs {b.group}")
    return a.group


# --- transforms --------------------------------------------------------------

def dft(f: DensityFn) -> Spectrum:
    """Fourier transform via the per-factor FFT."""
    g = f.group
    coeffs = np.fft.fftn(f.as_nd()).ravel() / g.order
    return Spectrum(g, coeffs)


def idft(spectrum: Spectrum) -> np.ndarray:
    """Pointwise synthesis sum_t F(t) chi_t(z); returns a complex table."""
    g = spectrum.group
    return np.fft.ifftn(spectrum.as_nd()).ravel() * g.order


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _cyclic_transform(x: np.ndarray, sign: int) -> np.ndarray:
    """``sum_z x[:, z] * exp(sign * 2 pi i * t*z / n)`` for every t, per row of (M, n) ``x``.

    Cooley-Tukey on n = p*m with p the smallest prime factor: writing
    z = z1 + p*z2 and t = m*t1 + t2, the sum is m-point transforms over z2,
    the exact twiddle phase ``(z1*t2 mod n)/n``, then p-point sums over z1.
    A prime length (or 1) is summed directly in :func:`phase_blocks` blocks,
    so no p-by-p kernel is ever built whole.
    """
    rows, n = x.shape
    p = _smallest_prime_factor(n)
    line = GroupSpec((n,))
    idx = np.arange(n, dtype=np.int64)[:, None]
    if p == n:
        out = np.empty_like(x)
        for block, phases in phase_blocks(line, idx, idx):
            out[:, block] = x @ np.exp(sign * 1j * TWO_PI * phases).T
        return out
    m = n // p
    inner = _cyclic_transform(x.reshape(rows, m, p).transpose(0, 2, 1).reshape(rows * p, m), sign)
    twiddle = np.exp(sign * 1j * TWO_PI * phase_table(line, idx[:p], idx[:m]))
    inner = inner.reshape(rows, p, m) * twiddle
    outer = _cyclic_transform(inner.transpose(0, 2, 1).reshape(rows * m, p), sign)
    return outer.reshape(rows, m, p).transpose(0, 2, 1).reshape(rows, n)


def _factored(table: np.ndarray, sign: int) -> np.ndarray:
    """The unnormalized pairing sum of a ``factors``-shaped table, one axis at a time."""
    out = np.asarray(table, dtype=np.complex128)
    for axis, n in enumerate(out.shape):
        moved = np.moveaxis(out, axis, -1)
        summed = _cyclic_transform(moved.reshape(-1, n), sign).reshape(moved.shape)
        out = np.moveaxis(summed, -1, axis)
    return out


def dft_factored(f: DensityFn) -> Spectrum:
    """The analysis sum by the exact-phase factored transform; no ``np.fft``."""
    g = f.group
    return Spectrum(g, _factored(f.as_nd(), -1).ravel() / g.order)


def idft_factored(spectrum: Spectrum) -> np.ndarray:
    """The synthesis sum over every character by the exact-phase factored transform."""
    return _factored(spectrum.as_nd(), 1).ravel()


def dft_definitional(f: DensityFn) -> Spectrum:
    """The analysis sum evaluated directly, blocked to bound memory."""
    g = f.group
    coords = coords_table(g)
    out = np.empty(g.order, dtype=np.complex128)
    for block, phases in phase_blocks(g, coords, coords):
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
    for block, phases in phase_blocks(g, coords_table(g), freqs):
        out[block] = np.exp(1j * TWO_PI * phases) @ coeffs
    return out


# --- convolution and reflection ----------------------------------------------

def convolve(f: DensityFn, g: DensityFn) -> DensityFn:
    """Haar-normalized circular convolution, computed through the FFT."""
    grp = _require_same_group(f, g)
    prod = np.fft.fftn(f.as_nd()) * np.fft.fftn(g.as_nd())
    vals = np.fft.ifftn(prod).real.ravel() / grp.order
    return DensityFn(grp, vals)


def convolve_definitional(f: DensityFn, g: DensityFn) -> DensityFn:
    """The convolution sum evaluated by shifting, one translate per summand."""
    grp = _require_same_group(f, g)
    f_nd = f.as_nd()
    axes = tuple(range(grp.ndim))
    out = np.zeros(grp.factors, dtype=np.float64)
    for rank, weight in enumerate(g.values):
        if weight == 0.0:
            continue
        shift = np.unravel_index(rank, grp.factors)
        out += weight * np.roll(f_nd, shift, axis=axes)
    return DensityFn(grp, out.ravel() / grp.order)


def reflect(f: DensityFn) -> DensityFn:
    """The reflected table z -> f(-z)."""
    g = f.group
    idx = [(-np.arange(n)) % n for n in g.factors]
    vals = f.as_nd()[np.ix_(*idx)].ravel()
    return DensityFn(g, vals)


def triple_convolve(f: DensityFn, g: DensityFn) -> DensityFn:
    """The smoothed sumset profile f conv g conv g(-.)."""
    _require_same_group(f, g)
    return convolve(convolve(f, g), reflect(g))


def triple_convolve_definitional(f: DensityFn, g: DensityFn) -> DensityFn:
    _require_same_group(f, g)
    return convolve_definitional(convolve_definitional(f, g), reflect(g))


def plancherel_pairing(f: DensityFn, g: DensityFn) -> complex:
    """The spatial inner product (1/N) sum_z f(z) * conj(g(z))."""
    grp = _require_same_group(f, g)
    return complex(np.vdot(g.values, f.values) / grp.order)
