"""Tables on a finite group, and the transforms and counts that call no ``np.fft``.

The table types live here, :class:`DensityFn` and :class:`Spectrum`.  numpy's
real-input FFT, the extractor's fast path, is ``bohrlab.rfft``, which builds
on this module; nothing here imports it.  Two routes are provided for the
transform here.  The factored path is one engine of matrix stages over a
ring: the
complex numbers, or the integers mod primes p = 1 (mod L, the lcm of the cycle
lengths) below 2^31.  Adjacent axes whose lengths multiply to at most 64 are one
stage, a product by their Kronecker kernel; a longer cycle splits by Bailey's
four-step (J. Supercomputing 4, 1990) into such stages and a twiddle; a prime
above 64 is a row loop.  Every kernel and twiddle entry is read off one cached
table of the powers of a root of unity of order L at an exact integer
exponent: exp(2 pi i * e/L) from the exact phase e/L, exact at the quarter
turns, or root^e mod p.  A stage is one BLAS matrix product on a C-contiguous
table, in complex128 over C; mod p in float64, on the two 16-bit halves of
every residue, where every sum is an integer below 2^53 and so exact.  Mod p,
every reduction is x - (x // p) p by a scalar p, one ring row at a time
(``_reduce``): numpy divides by a scalar through a multiply by its inverse,
several times faster than int64 ``%``, which divides per element.  Over C
it is :func:`dft_factored` and :func:`idft_factored`, which call no
``np.fft``; the verifier uses them.  Mod primes it is a number-theoretic
transform: :func:`representation_counts` runs it, or an integer translate sum
where that is cheaper, to count exactly the representations x = a + b - c;
the verifier reads its h and the sumset off those counts.  A second exact
count, :func:`difference_counts` of a = u - z over X x Y, is the same private
core on two tables, one negated; the good-shift statistic reads its erosion
off it.  The definitional path evaluates the plain O(N^2) pairing sums; it is
the oracle the others are tested against.  :func:`reflect` serves the
identity suite (``rfft.fourier_identity_suite``) and the definitional route.

The definitional convolution sums translates of f.  Every translate in the
package (here, in the sumset unions of ``sets`` and in the verifier's
containment shift) is a read-only window from one private walk,
``_translate_windows``: the table is doubled along its trailing axes, where a
shift is a slice, and rolled along the leading ones once per distinct leading
prefix, by single-axis rolls.  Conventions:

    fhat(t) = (1/N) * sum_z f(z) * conj(chi_t(z))        (analysis)
    f(z)    = sum_t fhat(t) * chi_t(z)                   (synthesis)
    (f conv g)(z) = (1/N) * sum_t f(z - t) g(t)

so the transform of a [0,1]-valued table is bounded by its mean, and the
convolution of indicator tables counts representations divided by N^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, ShapeError
from .groups import TWO_PI, GroupSpec, coords_table, phase_table

# Cells per intermediate block in the definitional paths; keeps the (rows, N, d)
# products well under a couple hundred MB.
_BLOCK_CELLS = 1 << 21


def phase_blocks(g: GroupSpec, rows: np.ndarray, cols: np.ndarray, table=phase_table):
    """Yield ``(block, table(g, rows[block], cols))`` over consecutive row slices.

    Blocks grow 1, 2, 4, ... rows, each capped at ``_BLOCK_CELLS`` cells
    against the current columns (and at least one row), so memory stays
    bounded for any ``cols`` of at most N rows.  A walk that prunes columns
    sends the remaining ones back (``walk.send(cols)``); later blocks are sized
    for and computed against them, at least (initial columns // current
    columns) rows, so a block costs about as many cells as the first
    column set had.  A walk whose survivors collapse after one block (a
    point-like Bohr set) then ends in a few blocks, not log2 of its rows;
    a walk that never prunes, as the definitional transforms, keeps the
    doubling.  Every blocked walk over pairing phases
    goes through here: the definitional transforms and synthesis over the
    float phases of :func:`~bohrlab.groups.phase_table`, Bohr membership over
    its own ``table`` of exact integer distances.  The factored transform
    reads its phases off a power table instead.
    """
    start, size, initial = 0, 1, len(cols)
    while start < len(rows):
        cap = max(1, _BLOCK_CELLS // max(1, len(cols) * g.ndim))
        block = slice(start, start + min(max(size, initial // max(1, len(cols))), cap))
        sent = yield block, table(g, rows[block], cols)
        if sent is not None:
            cols = sent
        start, size = block.stop, 2 * size


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array: a read-only 1-D one is kept as it is, anything else copied.

    The caller checks the shape.  :class:`DensityFn`, :class:`Spectrum` and
    the extractor's ``TrigPoly`` keep their tables this way.
    """
    frozen = isinstance(values, np.ndarray) and not values.flags.writeable
    if not (frozen and values.dtype == dtype and values.ndim == 1):
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class DensityFn:
    """A real table over the group, indexed by element in canonical order.

    The table is frozen by :func:`_frozen`: a fresh table handed over
    read-only is not copied.
    """

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.values, np.float64)
        if vals.shape != (self.group.order,):
            raise ShapeError(
                f"expected {self.group.order} values for group {self.group}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("density table must be finite")
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
    """A complex table over the dual group, indexed by character in canonical order.

    The table is frozen by :func:`_frozen`, so a transform hands over its
    fresh output without a copy.
    """

    group: GroupSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _frozen(self.coeffs, np.complex128)
        if coeffs.shape != (self.group.order,):
            raise ShapeError(
                f"expected {self.group.order} coefficients for group {self.group}, "
                f"got shape {coeffs.shape}"
            )
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

def _negated_ranks(factors: tuple[int, ...]) -> np.ndarray:
    """``neg[r]`` is the rank of -t for the t of rank r, over a table of shape ``factors``."""
    return _at_negated(np.arange(math.prod(factors)).reshape(factors)).ravel()


def _at_negated(table: np.ndarray) -> np.ndarray:
    """The table read at -t, a fresh table of the same shape.

    Axis by axis: on an axis of length n, coordinate i goes to (n - i) mod n,
    so place 0 stays and places 1 to n - 1 are read reversed, one slice copy
    each.  An axis of length at most 2 is its own negation and is skipped.
    """
    out = table
    for axis, n in enumerate(table.shape):
        if n <= 2:
            continue
        lead = (slice(None),) * axis
        src, out = out, np.empty_like(out)
        out[lead + (0,)] = src[lead + (0,)]
        out[lead + (slice(1, None),)] = src[lead + (slice(None, 0, -1),)]
    return table.copy() if out is table else out


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


@lru_cache(maxsize=16)
def _powers(lcm: int, moduli: tuple[tuple[int, int], ...]) -> np.ndarray:
    """``powers[i, e]`` is w_i^e for e < ``lcm``, one row per ring; read-only.

    Over C (no ``moduli``) the one row is exp(2 pi i * e/lcm), from the exact
    phase e/lcm: a quarter turn i^q, exact, times exp(2 pi i * r/(4 lcm)) for
    4e = q lcm + r, so 1, i and -1 are exact and a kernel of F_2^n is +-1.
    w^(lcm - e) = conj(w^e), so no phase above 1/2 is evaluated.  Mod
    primes, w_i is root_i mod p_i, of order ``lcm``.  These rows, 16 bytes a
    cell over C and 8 per prime mod primes, are all that the engine caches
    at the group's size: a stage kernel has at most ``_STAGE``^2 cells per
    ring row, and twiddles are gathered from the rows per call.
    """
    if not moduli:
        quarter, rest = np.divmod(4 * np.arange(lcm // 2 + 1), lcm)
        half = np.exp(1j * (TWO_PI / 4) * (rest / lcm)) * np.array([1, 1j, -1])[quarter]
        powers = np.concatenate([half, half[(lcm - 1) // 2 : 0 : -1].conj()])[None]
    else:
        primes = np.array([p for p, _ in moduli], dtype=np.int64)[:, None]
        base = np.array([root for _, root in moduli], dtype=np.int64)[:, None]
        powers = np.empty((len(moduli), lcm), dtype=np.int64)
        powers[:, 0] = 1
        filled = 1
        while filled < lcm:
            span = min(filled, lcm - filled)
            powers[:, filled : filled + span] = powers[:, :span] * base % primes
            base = base * base % primes
            filled += span
    powers.flags.writeable = False
    return powers


def _reduce(x: np.ndarray, moduli: tuple[tuple[int, int], ...]) -> None:
    """x mod p_i in place, one prime per index of the leading axis; over C, nothing.

    x - (x // p) p, one ring row at a time, with p a Python int: numpy
    divides an int64 array by a scalar through a multiply by a precomputed
    inverse (Granlund and Montgomery, PLDI 1994), where int64 ``%`` divides
    in hardware per element, about 5x slower.  Floor division makes the
    result lie in [0, p) for negative x too, as ``%`` does.  One scratch row
    holds the quotients.  The engine reduces once per stage, when it joins
    the sums of a residue's two halves, and once per twiddle product.
    """
    if moduli:
        scratch = np.empty(x.shape[1:], dtype=np.int64)
        for row, (p, _) in zip(x, moduli):
            _mod(row, p, scratch)


def _mod(x: np.ndarray, p: int, scratch: np.ndarray) -> np.ndarray:
    """x mod p in place by constant-divisor division; ``scratch`` is x-shaped; returns x."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch
    return x


# The longest stage the engine contracts in one matrix product.  Mod p a
# residue r < p < 2^31 is split as r = 2^16 h + l (``_HALF_BITS``), h < 2^15
# and l < 2^16.  Each half goes through one float64 product against kernel
# entries below p, each term is below 2^47, and a sum of 64 of them stays
# below 2^53: every partial sum is an integer that float64 holds exactly, in
# whatever order or with whatever fused multiply-add BLAS uses.  This is a
# bound, not a tuning knob.
_STAGE = 64
_HALF_BITS = 16
# Cells per ring row in one block of a modular stage: its float64 halves and
# their sums, 32 bytes a cell per prime, stay at a few MB.
_STAGE_BLOCK = 1 << 16
# A multiply-add inside a BLAS stage costs about 1/16 of a cell that an
# elementwise pass (a translate, a reduction) moves: fitted on the crossover
# grid of BENCH_verify_matmul.json, where it picks the faster count route at
# every point where the two differ by 2x or more.
_BLAS_SPEEDUP = 16


@lru_cache(maxsize=64)
def _kernel(axes: tuple[int, ...], sign: int, lcm: int, moduli: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The pairing kernel of the adjacent cycle lengths ``axes``, n = prod(axes) <= ``_STAGE``; read-only.

    K[i, t, z] is w_i^(sign L <t, z>) over the Kronecker product of the axes,
    t and z in row-major order, read off :func:`_powers` at the exact
    exponent sum_j t_j z_j L/n_j mod L, so K is symmetric.  Over C it is
    (1, n, n) complex128.  Mod primes it is (P, 2, n, n) float64, every
    entry below p and so exact: row 0 is 2^16 K mod p, for the high halves,
    so that the two sums of a stage add to the residue's sum mod p; row 1
    is K, for the low halves.
    """
    coords = np.indices(axes).reshape(len(axes), -1)
    exponents = sum(np.outer(c, c) * (lcm // n) for c, n in zip(coords, axes)) * sign % lcm
    kernel = _powers(lcm, moduli)[:, exponents]
    if moduli:
        primes = np.array([p for p, _ in moduli], dtype=np.int64)[:, None, None]
        kernel = np.stack([(kernel << _HALF_BITS) % primes, kernel], axis=1).astype(np.float64)
    kernel.flags.writeable = False
    return kernel


def _contract(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_z kernel[..., t, z] x[..., a, z, c]`` by BLAS matrix products, broadcast over the leading axes.

    ``x`` is C-contiguous (..., A, n, C), so numpy hands every product to
    BLAS.  With one trailing column the rows a stack into one product
    against the symmetric kernel; else one product per row a.
    """
    *lead, rows, n, cols = x.shape
    if cols == 1:
        out = np.matmul(x.reshape(*lead, rows, n), kernel)
        return out.reshape(*out.shape, 1)
    return np.matmul(kernel[..., None, :, :], x)


def _stage(x: np.ndarray, kernel: np.ndarray, moduli: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The kernel applied along axis 2 of a (P, A, n, C) table, exactly in each ring; a fresh table.

    Over C it is one complex product.  Mod p_i, a residue r = 2^16 h + l
    goes through as its halves, float64 tables against the two kernel rows
    (see ``_STAGE`` and :func:`_kernel`); the sums, below 2^52 and 2^53, are
    exact integers, and their sum, congruent to the residue's sum mod p, is
    reduced once in int64.  A boolean table (P may be 1, broadcast against
    the primes) has no high half.  The table goes through in blocks of rows a
    and columns c of about ``_STAGE_BLOCK`` cells, so the float64 tables stay
    small.
    """
    if not moduli:
        return _contract(kernel, x)
    _, rows, n, cols = x.shape
    out = np.empty((len(kernel), rows, n, cols), dtype=np.int64)
    col_step = min(cols, max(1, _STAGE_BLOCK // n))
    row_step = max(1, _STAGE_BLOCK // (n * col_step))
    for r, c in itertools.product(range(0, rows, row_step), range(0, cols, col_step)):
        part = (slice(None), slice(r, r + row_step), slice(None), slice(c, c + col_step))
        block, into = x[part], out[part]
        if x.dtype == np.bool_:
            into[...] = _contract(kernel[:, 1], block.astype(np.float64, order="C"))
        else:
            halves = np.empty((len(block), 2, *block.shape[1:]), dtype=np.float64)
            np.right_shift(block, _HALF_BITS, out=halves[:, 0], casting="unsafe")
            np.bitwise_and(block, (1 << _HALF_BITS) - 1, out=halves[:, 1], casting="unsafe")
            sums = _contract(kernel, halves)
            np.add(sums[:, 0], sums[:, 1], out=into, dtype=np.int64, casting="unsafe")
        _reduce(into, moduli)
    return out


def _prime_length(x: np.ndarray, sign: int, lcm: int, moduli: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The n-point sum along axis 2 of a (P, A, n, C) table, n a prime above ``_STAGE``, row by row.

    No n-by-n kernel is built.  The rows run along the last axis of the
    output, so each product is contiguous.  Mod p_i, residues stay below
    p < 2^31, so a product plus a residue stays inside int64 before it is
    reduced.
    """
    x = np.moveaxis(x, 2, -1)
    n = x.shape[-1]
    powers = _powers(lcm, moduli)
    steps = np.arange(n, dtype=np.int64) * (sign * lcm // n)
    out = np.empty((len(powers), *x.shape[1:]), dtype=powers.dtype)
    out[:] = x[..., :1]
    for z in range(1, n):
        out += x[..., z, None] * powers[:, None, None, z * steps % lcm]
        _reduce(out, moduli)
    return np.ascontiguousarray(np.moveaxis(out, -1, 2))


def _split(n: int) -> int:
    """n1 of the four-step split n = n1 n2: the product of n's smallest prime factors, up to ``_STAGE``.

    A smallest prime factor above ``_STAGE`` is n1 on its own.
    """
    n1, rest = 1, n
    while rest > 1 and n1 * (p := _smallest_prime_factor(rest)) <= _STAGE:
        n1, rest = n1 * p, rest // p
    return n1 if n1 > 1 else _smallest_prime_factor(n)


def _stage_lengths(factors: tuple[int, ...]) -> list[int]:
    """The length of every stage :func:`_factored` runs on a table of shape ``factors``, in order.

    A run of fused axes is one stage; a longer cycle is its split's stages,
    n2's then n1's; a prime above ``_STAGE`` is one row loop of its length.
    """

    def cycle(n: int) -> list[int]:
        if n <= _STAGE or _smallest_prime_factor(n) == n:
            return [n]
        n1 = _split(n)
        return cycle(n // n1) + cycle(n1)

    return [m for start, stop in _fused_axes(factors) for m in cycle(math.prod(factors[start:stop]))]


def _transform(
    x: np.ndarray, axes: tuple[int, ...], sign: int, lcm: int, moduli: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """The pairing sum along axis 2 of a (P, A, n, C) table, n = prod(``axes``), per ring row i.

    At most ``_STAGE`` points, one :func:`_stage` of the Kronecker kernel of
    ``axes``.  A prime above it, :func:`_prime_length`.  Else one cycle of
    length n splits n = n1 n2 (:func:`_split`; Bailey's four-step): with
    z = z1 + n1 z2 and t = n2 t1 + t2, the n2-point transforms over z2
    (recursively), the twiddle w^(z1 t2) gathered from :func:`_powers`, then
    the n1-point transform over z1.  The twiddle product writes its table with
    z1 leading, so the last step is one C-contiguous stage whose (t1, t2)
    output is in natural order.
    """
    n = math.prod(axes)
    if n <= _STAGE:
        return _stage(x, _kernel(axes, sign, lcm, moduli), moduli)
    if _smallest_prime_factor(n) == n:
        return _prime_length(x, sign, lcm, moduli)
    _, rows, _, cols = x.shape
    n1 = _split(n)
    n2 = n // n1
    inner = _transform(x.reshape(-1, rows, n2, n1 * cols), (n2,), sign, lcm, moduli)
    ring = inner.shape[0]
    # z1 t2 (L/n) < L needs no reduction; w^-e is powers[L - e], read as
    # reversed[e - 1], where index -1 is powers[0].
    exponents = np.outer(np.arange(n1), np.arange(n2) * (lcm // n))
    powers = _powers(lcm, moduli)
    if sign < 0:
        powers, exponents = powers[:, ::-1], np.subtract(exponents, 1, out=exponents)
    twiddled = np.empty((ring, rows, n1, n2, cols), dtype=inner.dtype)
    np.multiply(
        inner.reshape(ring, rows, n2, n1, cols).transpose(0, 1, 3, 2, 4),
        powers[:, None, exponents, None],
        out=twiddled,
    )
    _reduce(twiddled, moduli)
    del inner
    return _transform(twiddled.reshape(ring, rows, n1, n2 * cols), (n1,), sign, lcm, moduli)


def _fused_axes(factors: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(start, stop)`` runs of adjacent axes whose lengths multiply to at most ``_STAGE``, or one longer axis."""
    runs, start = [], 0
    for axis in range(1, len(factors) + 1):
        if axis == len(factors) or math.prod(factors[start : axis + 1]) > _STAGE:
            runs.append((start, axis))
            start = axis
    return runs


def _factored(table: np.ndarray, sign: int, moduli: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The pairing sum of a (P, batch, *factors) table, per ring row and batch row; a fresh table.

    Over C when ``moduli`` is empty (a complex table, P = 1; the float
    transforms pass batch 1), else mod p_i in row i (an int64 table of
    residues, or a boolean table with P = 1 that every prime reads).
    Adjacent axes whose lengths multiply to at most ``_STAGE`` are one stage
    of their Kronecker kernel; a longer axis is split by :func:`_transform`.
    Each stage reads the table as (P, A, n, C), A the cells before its axes
    and C those after.
    """
    _, batch, *factors = table.shape
    lcm = math.lcm(*factors)
    out = np.ascontiguousarray(table)
    for start, stop in _fused_axes(tuple(factors)):
        view = out.reshape(len(out), batch * math.prod(factors[:start]), math.prod(factors[start:stop]), -1)
        out = _transform(view, tuple(factors[start:stop]), sign, lcm, moduli)
    return out.reshape(-1, *table.shape[1:])


def dft_factored(f: DensityFn) -> Spectrum:
    """The analysis sum by the exact-phase factored transform; no ``np.fft``."""
    g = f.group
    return Spectrum(g, _factored(f.as_nd().astype(np.complex128)[None, None], -1, ()).ravel() / g.order)


def idft_factored(spectrum: Spectrum) -> np.ndarray:
    """The synthesis sum over every character by the exact-phase factored transform."""
    return _factored(spectrum.as_nd()[None, None], 1, ()).ravel()


# --- exact representation counts ------------------------------------------------

# Residues stay below 2^31, so a product of two, plus a residue, fits in int64.
_PRIME_CEILING = 1 << 31
# Miller-Rabin with these bases decides primality below 3,215,031,751 > 2^31.
_MILLER_RABIN_BASES = (2, 3, 5, 7)
# An int64 CRT joins at most two primes: their product stays below 2^62.
_MAX_PRIMES = 2


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^31."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n with multiplicity, smallest first."""
    out = []
    while n > 1:
        p = _smallest_prime_factor(n)
        out.append(p)
        n //= p
    return out


@lru_cache(maxsize=64)
def _prime_moduli(lcm: int, lcm_primes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The largest primes p < 2^31 with p = 1 mod ``lcm``, each with a root of order ``lcm``.

    At most ``_MAX_PRIMES`` of them, found by walking p = lcm*m + 1 downwards
    from 2^31, and fewer when the progression holds fewer.  The root is x^m
    for the least x >= 2 whose m-th power has order exactly ``lcm``: no
    (lcm/q)-th power of it is 1 for a prime q of ``lcm``, so p - 1 is never
    factored beyond ``lcm``.  Cached per ``lcm``.
    """
    found = []
    for m in range((_PRIME_CEILING - 2) // lcm, 0, -1):
        p = lcm * m + 1
        if not _is_prime(p):
            continue
        x = 2
        while any(pow(pow(x, m, p), lcm // q, p) == 1 for q in lcm_primes):
            x += 1
        found.append((p, pow(x, m, p)))
        if len(found) == _MAX_PRIMES:
            break
    return tuple(found)


def _ntt_moduli(factors: tuple[int, ...], bound: int) -> tuple[tuple[int, int], ...]:
    """The fewest ``(p, root)`` pairs, roots of order L = lcm(factors), whose primes multiply past ``bound``.

    Raises :class:`CapacityError` when the primes an int64 CRT can join do not.
    """
    lcm = math.lcm(*factors)
    lcm_primes = tuple(sorted({q for n in factors for q in _prime_factors(n)}))
    moduli = _prime_moduli(lcm, lcm_primes)
    product = 1
    for used, (p, _) in enumerate(moduli, start=1):
        product *= p
        if product > bound:
            return moduli[:used]
    raise CapacityError(
        f"exact counts up to {bound} need primes p = 1 mod {lcm} below 2^31 whose product "
        f"exceeds them; {len(moduli)} found, and an int64 CRT joins at most {_MAX_PRIMES}"
    )


def _counts_by_ntt(
    tables: tuple[np.ndarray, ...], negated: tuple[bool, ...], moduli: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Exact counts from the transforms of the tables mod each prime, joined by CRT.

    The distinct tables (a table passed twice is transformed once) go through
    one forward pass together, every prime at once.  The transform of a
    negated table is its own read at -t.  Their product mod each prime goes
    through one inverse pass.
    """
    factors = tables[0].shape
    order = tables[0].size
    distinct = {id(t): t for t in tables}
    slots = list(distinct)
    stacked = np.stack(list(distinct.values())).astype(bool, copy=False)
    hats = _factored(stacked[None], 1, moduli).reshape(len(moduli), len(slots), order)
    neg = _negated_ranks(factors)
    product = None
    for table, flip in zip(tables, negated):
        hat = hats[:, slots.index(id(table))]
        hat = hat[:, neg] if flip else hat
        if product is None:
            product = hat.copy()
        else:
            product *= hat
            _reduce(product, moduli)
    del stacked, hats, hat
    inverse = _factored(product.reshape(len(moduli), 1, *factors), -1, moduli)
    residues = inverse.reshape(len(moduli), order)
    residues *= np.array([pow(order, -1, p) for p, _ in moduli], dtype=np.int64)[:, None]
    _reduce(residues, moduli)
    if len(moduli) == 1:
        return residues[0]
    (p1, _), (p2, _) = moduli
    r1, r2 = residues
    scratch = np.empty_like(r1)
    lift = _mod(r2 - r1, p2, scratch)
    lift *= pow(p1, -1, p2)
    _mod(lift, p2, scratch)
    lift *= p1
    lift += r1
    return lift


def _counts_by_translates(tables: tuple[np.ndarray, ...], negated: tuple[bool, ...]) -> np.ndarray:
    """Exact counts as int64 translate sums over each later table's support.

    Start from the first table (reflected if it enters negated); each later
    table replaces the running table r by sum_z r(. - z) over z in its
    support, or r(. + z) if it enters negated.
    """
    factors = tables[0].shape
    out = tables[0].astype(np.int64)
    if negated[0]:
        out = _at_negated(out)
    for table, flip in zip(tables[1:], negated[1:]):
        shifts = np.argwhere(table)
        acc = np.zeros(factors, dtype=np.int64, order="F")
        for window in _translate_windows(out, -shifts if flip else shifts):
            acc += window
        out = acc
    return out.ravel()


def _signed_counts(g: GroupSpec, tables: tuple[np.ndarray, ...], negated: tuple[bool, ...]) -> np.ndarray:
    """#{(z_1, ..., z_k) : z_i in the support of tables[i], +-z_1 +- ... +- z_k = x} for every x, as int64.

    ``tables`` are ``g.factors``-shaped boolean tables, and ``negated[i]``
    says whether z_i enters with a minus sign.  Two routes, the cheaper by an
    estimate of cells.  The number-theoretic transform (Pollard 1971) runs
    :func:`_factored` once per distinct table and once more for the inverse,
    per prime.  Its stages (:func:`_stage_lengths`) do 2n multiply-adds per
    cell at length n: two halves through a BLAS product, each multiply-add
    about 1/``_BLAS_SPEEDUP`` of a cell that an elementwise pass moves, or n
    rows of a product and a reduction in a prime-length row loop.  The
    primes are the fewest whose product exceeds the product of every support
    size but the largest, which bounds every count: fix x and all the z_i but
    one of largest support, and that one is determined.  The translate sum moves one table of N cells per element of
    each later support.  Counts that two primes below 2^31 cannot hold raise
    :class:`CapacityError` before either route runs.
    """
    sizes = [int(t.sum()) for t in tables]
    moduli = _ntt_moduli(g.factors, math.prod(sorted(sizes)[:-1]))
    transforms = len({id(t) for t in tables}) + 1
    stage_cells = sum(2 * n / _BLAS_SPEEDUP if n <= _STAGE else 2 * n for n in _stage_lengths(g.factors))
    ntt_cells = transforms * len(moduli) * g.order * stage_cells
    if sum(sizes[1:]) * g.order < ntt_cells:
        return _counts_by_translates(tables, negated)
    return _counts_by_ntt(tables, negated, moduli)


def representation_counts(g: GroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r(x) = #{(a, b, c) in A x B x B : a + b - c = x} for every x, exact, as int64.

    ``a`` and ``b`` are the boolean tables of A and B in rank order.  The
    support of r is A+B-B, and r * s_f * s_g^2 / N^2 is f conv g conv g(-.)
    for f = s_f 1_A and g = s_g 1_B.  One :func:`_signed_counts` of the tables
    (A, B, -B): three transforms per prime against 2|B| translates.  Every
    count is at most min(|A|, |B|) * |B|, and the primes are sized for that.
    """
    b = b.reshape(g.factors)
    return _signed_counts(g, (a.reshape(g.factors), b, b), (False, False, True))


def difference_counts(g: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c(a) = #{(u, z) in X x Y : u - z = a} for every a, exact, as int64.

    ``x`` and ``y`` are the boolean tables of X and Y in rank order; the
    support of c is X - Y.  One :func:`_signed_counts` of the tables (X, -Y):
    three transforms per prime against |Y| translates.  An empty X or Y
    returns zeros at once, with no transform.
    """
    if not (x.any() and y.any()):
        return np.zeros(g.order, dtype=np.int64)
    return _signed_counts(g, (x.reshape(g.factors), y.reshape(g.factors)), (False, True))


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


# --- translates --------------------------------------------------------------

def _split_axes(factors: tuple[int, ...], rows: np.ndarray, redo: np.ndarray) -> int:
    """How many leading axes :func:`_translate_windows` rolls; it doubles the rest.

    ``rows`` are the distinct reduced shifts in rank order and ``redo[i]`` the
    first axis where row i differs from row i - 1 (0 for the first row).  With
    the axes from ``lead`` on doubled, a translate rolls each leading axis from
    its ``redo`` on whose shift is nonzero.  The estimate counts cells: those
    rolls and the building of the doubled table, each moving all of its cells,
    plus one pass per translate over the span of its window, which is the
    table itself when at most the last axis is doubled and grows with each
    axis doubled before it.  The cheapest split wins among those whose doubled
    table and roll buffers fit in ``_BLOCK_CELLS`` cells.  Doubling nothing is
    always allowed: its table and buffers are at most d + 1 tables of N cells,
    about the size of the group's coordinate table.
    """
    d = len(factors)
    nonzero = rows != 0
    before = np.zeros((len(rows), d + 1), dtype=np.int64)
    np.cumsum(nonzero, axis=1, out=before[:, 1:])
    rolls = np.maximum(before - before[np.arange(len(rows)), redo][:, None], 0).sum(axis=0)
    buffers = np.concatenate([[0], np.cumsum(nonzero.any(axis=0))])
    best, best_cost = d, None
    for lead in range(d, -1, -1):
        dims = factors[:lead] + tuple(2 * n - 1 for n in factors[lead:])
        cells = math.prod(dims)
        # A pass sweeps a window from its first cell to its last (column-major).
        span = 1 + sum((n - 1) * math.prod(dims[:axis]) for axis, n in enumerate(factors))
        cost = (int(rolls[lead]) + (lead < d)) * cells + len(rows) * span
        fits = (1 + int(buffers[lead])) * cells <= _BLOCK_CELLS
        if best_cost is None or (fits and cost < best_cost):
            best, best_cost = lead, cost
    return best


def _translate_windows(table: np.ndarray, shifts):
    """Yield ``table(z - t)``, the table moved by t, once per distinct shift row t.

    Shift rows are integer coordinates of any sign, taken mod the factors and
    walked in increasing rank of t, so the windows pair with data sorted by
    rank.  The table is doubled along its trailing axes (length n becomes
    2n - 1), where a shift is a slice.  Each leading axis is rolled into a
    buffer of its own, one rolled table per level; a translate redoes only the
    levels from the first axis where it differs from the translate before, and
    a zero shift reuses the level above.  :func:`_split_axes` picks where the
    trailing axes start.  The tables are column-major, so the rolls the walk
    repeats most, on the last leading axes, copy long runs; accumulate windows
    into a column-major table to keep each pass contiguous.  Each window is a
    read-only view, valid until the next one is drawn.
    """
    factors = table.shape
    shifts = np.asarray(shifts, dtype=np.int64).reshape(-1, table.ndim)
    hit = np.zeros(table.size, dtype=bool)
    hit[np.ravel_multi_index(shifts.T, factors, mode="wrap")] = True
    rows = np.stack(np.unravel_index(np.flatnonzero(hit), factors), axis=1)
    if not len(rows):
        return
    changed = np.ones(rows.shape, dtype=bool)
    changed[1:] = rows[1:] != rows[:-1]
    redo = changed.argmax(axis=1)
    lead = _split_axes(factors, rows, redo)
    widths = [(0, 0)] * lead + [(0, size - 1) for size in factors[lead:]]
    levels = [np.asfortranarray(np.pad(table, widths, mode="wrap"))] + [None] * lead
    buffers = [None] * lead
    for row, first in zip(rows, redo):
        row = row.tolist()
        for axis in range(first, lead):
            shift, level = row[axis], levels[axis]
            if shift:
                if buffers[axis] is None:
                    buffers[axis] = np.empty_like(levels[0])
                rest = (slice(None),) * axis
                buffers[axis][rest + (slice(shift, None),)] = level[rest + (slice(-shift),)]
                buffers[axis][rest + (slice(shift),)] = level[rest + (slice(-shift, None),)]
                level = buffers[axis]
            levels[axis + 1] = level
        tail = tuple(slice(-t % n, -t % n + n) for t, n in zip(row[lead:], factors[lead:]))
        window = levels[lead][(slice(None),) * lead + tail]
        window.flags.writeable = False
        yield window


# --- definitional convolution and reflection ------------------------------------


def convolve_definitional(f: DensityFn, g: DensityFn) -> DensityFn:
    """The convolution sum evaluated by shifting, one translate per summand.

    ``out += g(t) * f(. - t)`` over the nonzero weights in rank order of t, as
    a plain translate sum: each translate is a window from
    :func:`_translate_windows`, with no copy of f per summand, and the
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


def reflect(f: DensityFn) -> DensityFn:
    """The reflected table z -> f(-z)."""
    return DensityFn(f.group, _at_negated(f.as_nd()).ravel())


def triple_convolve_definitional(f: DensityFn, g: DensityFn) -> DensityFn:
    _require_same_group(f, g)
    return convolve_definitional(convolve_definitional(f, g), reflect(g))
