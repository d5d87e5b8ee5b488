"""Transforms and convolutions, fast path against the definitional oracle."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bohrlab.rfft as rfft
import bohrlab.spectral as spectral
from bohrlab.errors import DomainError, ShapeError
from bohrlab.groups import (
    Char,
    GroupSpec,
    char_eval,
    elem_add,
    elem_at,
    elem_neg,
    rank_of_elem,
    rows_at,
)
from bohrlab.rfft import (
    convolve,
    dft,
    idft,
    plancherel_pairing,
    triple_convolve,
)
from bohrlab.spectral import DensityFn, Spectrum, dft_factored, idft_factored, reflect

from oracles import (
    constant_density,
    convolve_definitional,
    dft_definitional,
    idft_definitional,
    idft_real,
    large_spectrum,
    synthesize,
    triple_convolve_definitional,
)

GROUPS = [GroupSpec((16,)), GroupSpec((4, 3)), GroupSpec((2, 2, 5)), GroupSpec((1,))]


def _random_density(g: GroupSpec, seed: int) -> DensityFn:
    rng = np.random.default_rng(seed)
    return DensityFn(g, rng.random(g.order))


def test_density_fn_validation():
    g = GroupSpec((8,))
    with pytest.raises(ShapeError):
        DensityFn(g, np.zeros(7))
    with pytest.raises(DomainError):
        DensityFn(g, [0.0] * 7 + [float("nan")])
    f = constant_density(g, 0.25)
    assert f.mean == 0.25
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # tables are frozen
    assert f.scaled(2.0).mean == 0.5


def test_density_fn_keeps_a_read_only_float64_table():
    g = GroupSpec((8,))
    writable = np.linspace(0.0, 1.0, 8)
    f = DensityFn(g, writable)
    assert f.values is not writable
    writable[0] = 5.0  # the caller's array cannot reach the frozen table
    assert f.values[0] == 0.0
    frozen = np.linspace(0.0, 1.0, 8)
    frozen.flags.writeable = False
    assert DensityFn(g, frozen).values is frozen
    ints = np.arange(8)
    ints.flags.writeable = False
    kept = DensityFn(g, ints).values
    assert kept is not ints and kept.dtype == np.float64 and not kept.flags.writeable
    with pytest.raises(ShapeError):
        DensityFn(g, frozen[:7])


def test_spectrum_validation():
    g = GroupSpec((8,))
    with pytest.raises(ShapeError):
        Spectrum(g, np.zeros(3, dtype=complex))
    s = Spectrum(g, np.zeros(8, dtype=complex))
    assert s.as_nd().shape == (8,)


def test_spectrum_keeps_frozen_tables_and_copies_the_rest():
    g = GroupSpec((8,))
    frozen = np.arange(8, dtype=np.complex128)
    frozen.flags.writeable = False
    assert Spectrum(g, frozen).coeffs is frozen  # a transform's output is handed over, not copied
    live = np.arange(8, dtype=np.complex128)
    s = Spectrum(g, live)
    live[0] = 99.0
    assert s.coeffs[0] == 0.0 and not s.coeffs.flags.writeable
    narrow = np.arange(8, dtype=np.complex64)
    narrow.flags.writeable = False
    assert Spectrum(g, narrow).coeffs.dtype == np.complex128
    assert not dft(DensityFn(g, np.ones(8))).coeffs.flags.writeable


def test_dft_known_values_evens_z8():
    # indicator of the evens: coefficient 1/2 exactly at t=0 and t=4, else 0
    g = GroupSpec((8,))
    f = DensityFn(g, [1, 0, 1, 0, 1, 0, 1, 0])
    coeffs = dft(f).coeffs
    assert coeffs[0] == 0.5
    assert coeffs[4] == 0.5
    others = np.delete(coeffs, [0, 4])
    assert np.abs(others).max() < 1e-15


def test_dft_of_constant_is_point_mass():
    for g in GROUPS:
        coeffs = dft(constant_density(g, 0.7)).coeffs
        assert coeffs[0] == pytest.approx(0.7, abs=1e-12)
        if g.order > 1:
            assert np.abs(coeffs[1:]).max() < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_dft_matches_definitional(g, seed):
    f = _random_density(g, seed)
    fast = dft(f).coeffs
    slow = dft_definitional(f).coeffs
    assert np.abs(fast - slow).max() < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=str)
def test_idft_inverts_dft(g):
    f = _random_density(g, 7)
    back = idft(dft(f))
    assert np.abs(back - f.values).max() < 1e-12
    back_slow = idft_definitional(dft_definitional(f))
    assert np.abs(back_slow - f.values).max() < 1e-11


@settings(max_examples=100, deadline=None)
@example(factors=(1,), indicator=False, seed=0)
@example(factors=(4, 1, 7), indicator=True, seed=1)
@example(factors=(6, 2, 3, 4), indicator=False, seed=2)
@example(factors=(8, 8, 8), indicator=True, seed=3)
@given(
    factors=st.lists(st.integers(1, 12), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda f: math.prod(f) <= 512),
    indicator=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_input_dft_is_exactly_conjugate_symmetric(factors, indicator, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    values = rng.random(g.order)
    f = DensityFn(g, values < 0.3 if indicator else values)
    coeffs = dft(f).coeffs
    coords = np.indices(factors).reshape(g.ndim, -1)
    neg = np.ravel_multi_index(tuple(-coords % np.array(factors)[:, None]), factors)
    assert np.array_equal(coeffs[neg], coeffs.conj())  # bit for bit, planes 0 and n/2 included
    assert np.abs(coeffs - dft_definitional(f).coeffs).max() < 1e-12
    back = idft_real(dft(f))
    assert back.dtype == np.float64 and np.abs(back - f.values).max() < 1e-12
    # A threshold at one of the moduli puts its character on the boundary.
    threshold = max(np.abs(coeffs[rng.integers(g.order)]), 1e-300)
    ranks = np.ravel_multi_index(tuple(large_spectrum(dft(f), threshold).rows.T), factors)
    assert set(neg[ranks].tolist()) == set(ranks.tolist())


_PAIR_SHAPES = (
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 8]), min_size=1, max_size=6)
    .map(tuple)
    .filter(lambda f: math.prod(f) <= 4096)
)


def _real_table(factors: tuple[int, ...], kind: str, rng) -> np.ndarray:
    values = rng.random(factors)
    if kind == "indicator":
        return (values < 0.3).astype(np.float64)
    if kind == "scaled":  # an indicator rescaled to a smaller mean, as normalize_means does
        return (values < 0.3) * (0.1 / 0.3)
    return values - 0.5


@settings(max_examples=150, deadline=None)
@example(factors=(2,) * 10, kind="scaled", seed=0)
@example(factors=(2, 3, 5), kind="scaled", seed=1)
@example(factors=(3, 5, 2), kind="random", seed=2)
@example(factors=(3, 2, 5), kind="indicator", seed=3)
@example(factors=(2, 8, 2, 4), kind="scaled", seed=4)
@example(factors=(2, 2, 3, 3, 2), kind="random", seed=5)
@example(factors=(5, 1, 2), kind="scaled", seed=6)
@example(factors=(2,), kind="random", seed=7)
@example(factors=(4096,), kind="scaled", seed=8)
@example(factors=(64, 32), kind="indicator", seed=9)
@example(factors=(16, 16, 16), kind="random", seed=10)
@example(factors=(8, 8, 8, 4), kind="scaled", seed=11)
@example(factors=(2, 8, 2, 4), kind="random", seed=12)
@example(factors=(3, 5, 4), kind="scaled", seed=13)
@example(factors=(6, 10), kind="random", seed=14)
@example(factors=(8,), kind="indicator", seed=0)  # a -0 part that the division by N + 0i makes +0
@given(
    factors=_PAIR_SHAPES,
    kind=st.sampled_from(["indicator", "scaled", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_transform_is_numpys_rfftn_bit_for_bit(factors, kind, seed):
    """Length-2 axes as sum/difference passes, first, last or between other axes: the
    bytes of ``np.fft.rfftn(x) / N``, every axis still in numpy's order, also where N is a
    power of two and numpy scales by 1/n in each call, signs of zero included."""
    table = _real_table(factors, kind, np.random.default_rng(seed))
    got = rfft._real_forward(table)
    want = np.fft.rfftn(table) / math.prod(factors)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@example(factors=(2,) * 10, kind="half", seed=0)
@example(factors=(2, 3, 5), kind="complex", seed=1)
@example(factors=(3, 5, 2), kind="half", seed=2)
@example(factors=(3, 2, 5), kind="complex", seed=3)
@example(factors=(2, 8, 2, 4), kind="half", seed=4)
@example(factors=(2, 2, 3, 3, 2), kind="complex", seed=5)
@example(factors=(8, 2), kind="tiny-imaginary", seed=6)
@example(factors=(2,), kind="complex", seed=7)
@example(factors=(4096,), kind="half", seed=8)
@example(factors=(64, 32), kind="complex", seed=9)
@example(factors=(16, 16, 16), kind="half", seed=10)
@example(factors=(8, 8, 8, 4), kind="complex", seed=11)
@example(factors=(2, 8, 2, 4), kind="tiny-imaginary", seed=12)
@example(factors=(3, 5, 4), kind="half", seed=13)
@example(factors=(6, 10), kind="complex", seed=14)
@given(
    factors=_PAIR_SHAPES,
    kind=st.sampled_from(["half", "complex", "tiny-imaginary"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_synthesis_is_numpys_irfftn_bit_for_bit(factors, kind, seed):
    """The bytes of ``np.fft.irfftn(half, s) * N``, with numpy's 1/2 per length-2 axis
    folded into one power-of-two scale, and where N is a power of two no scale at all, on
    half tables that are a scaled table's transform or random complex, conjugate-symmetric
    or not; ``half`` is not written."""
    rng = np.random.default_rng(seed)
    order = math.prod(factors)
    shape = factors[:-1] + (factors[-1] // 2 + 1,)
    if kind == "half":
        half = np.fft.rfftn(_real_table(factors, "scaled", rng)) / order
    else:
        imaginary = 1e-17 if kind == "tiny-imaginary" else 1.0
        half = rng.standard_normal(shape) + 1j * imaginary * rng.standard_normal(shape)
    before = half.tobytes()
    got = rfft._synthesize_half(half, GroupSpec(factors))
    want = np.fft.irfftn(half, s=factors, axes=tuple(range(len(factors)))) * order
    assert half.tobytes() == before
    assert got.tobytes() == want.ravel().tobytes()


@pytest.mark.parametrize(
    "factors",
    [(2,) * 9, (16, 16, 16), (256,), (8, 8, 8), (64,), (5, 1, 2), (2, 3), (4, 2, 7), (1,)],
    ids=lambda factors: "x".join(map(str, factors)),
)
def test_negated_table_is_the_index_gather(factors):
    """Reversed slices per axis read every table at -t, as the gather of (-i) mod n per axis does."""
    ranks = np.arange(math.prod(factors)).reshape(factors)
    gather = ranks[np.ix_(*((-np.arange(n)) % n for n in factors))]
    assert np.array_equal(spectral._negated_ranks(factors), gather.ravel())
    negated = spectral._at_negated(ranks)
    assert np.array_equal(negated, gather) and not np.shares_memory(negated, ranks)


def test_definitional_path_blocking(monkeypatch):
    # Force tiny blocks so the loop runs many times; results must not change.
    g = GroupSpec((4, 3))
    f = _random_density(g, 9)
    whole = dft_definitional(f).coeffs
    monkeypatch.setattr(spectral, "_BLOCK_CELLS", 8)
    blocked = dft_definitional(f).coeffs
    assert np.array_equal(whole, blocked) or np.abs(whole - blocked).max() < 1e-15


def _convolve_brute(f: DensityFn, g: DensityFn) -> np.ndarray:
    """Direct two-loop convolution sum, the slowest possible oracle."""
    grp = f.group
    n = grp.order
    out = np.zeros(n)
    for z in range(n):
        zel = elem_at(grp, z)
        acc = 0.0
        for t in range(n):
            tel = elem_at(grp, t)
            acc += f.values[rank_of_elem(grp, elem_add(grp, zel, elem_neg(grp, tel)))] * g.values[t]
        out[z] = acc / n
    return out


@pytest.mark.parametrize("g", [GroupSpec((12,)), GroupSpec((4, 3))], ids=str)
def test_convolution_routes_agree_with_brute_force(g):
    f = _random_density(g, 21)
    h = _random_density(g, 22)
    brute = _convolve_brute(f, h)
    assert np.abs(convolve(f, h).values - brute).max() < 1e-12
    assert np.abs(convolve_definitional(f, h).values - brute).max() < 1e-12


def test_convolution_commutes():
    g = GroupSpec((15,))
    f = _random_density(g, 31)
    h = _random_density(g, 32)
    assert np.abs(convolve(f, h).values - convolve(h, f).values).max() < 1e-12


def test_reflect_is_an_involution():
    for g in GROUPS:
        f = _random_density(g, 41)
        assert np.array_equal(reflect(reflect(f)).values, f.values)


def test_reflect_known_values():
    g = GroupSpec((8,))
    f = DensityFn(g, [0, 1, 1, 0, 0, 0, 0, 0])  # {1, 2}
    r = reflect(f)
    want = np.zeros(8)
    want[6] = want[7] = 1  # {-1, -2} = {7, 6}
    assert np.array_equal(r.values, want)


def test_triple_convolve_routes_agree():
    g = GroupSpec((4, 3))
    f = _random_density(g, 51)
    h = _random_density(g, 52)
    fast = triple_convolve(f, h).values
    slow = triple_convolve_definitional(f, h).values
    assert np.abs(fast - slow).max() < 1e-12


def test_triple_convolve_support_is_sumset():
    # For indicators, N^2 * h counts representations z = b + a - c.
    g = GroupSpec((12,))
    rng = np.random.default_rng(61)
    for _ in range(10):
        amask = rng.random(12) < 0.3
        bmask = rng.random(12) < 0.3
        if not amask.any() or not bmask.any():
            continue
        f = DensityFn(g, amask.astype(float))
        h = DensityFn(g, bmask.astype(float))
        conv = triple_convolve(f, h)
        sumset = set()
        for a in np.flatnonzero(amask):
            for b in np.flatnonzero(bmask):
                for c in np.flatnonzero(bmask):
                    sumset.add((a + b - c) % 12)
        got = set(np.flatnonzero(conv.values > 1.0 / (2 * 12**2)).tolist())
        assert got == sumset


def test_plancherel_pairing_brute_force():
    g = GroupSpec((4, 3))
    f = _random_density(g, 71)
    h = _random_density(g, 72)
    brute = sum(f.values[i] * h.values[i] for i in range(g.order)) / g.order
    assert plancherel_pairing(f, h) == pytest.approx(brute, abs=1e-12)


def test_synthesize_matches_pointwise_characters():
    g = GroupSpec((4, 3))
    freqs = np.array([[0, 0], [1, 2], [3, 1]])
    coeffs = np.array([0.5, 0.25 - 0.1j, -0.125j])
    table = synthesize(g, freqs, coeffs)
    for rank in range(g.order):
        z = elem_at(g, rank)
        want = sum(
            c * char_eval(g, Char(tuple(int(v) for v in row)), z)
            for row, c in zip(freqs, coeffs)
        )
        assert table[rank] == pytest.approx(want, abs=1e-12)


def test_synthesize_empty_support_is_zero():
    g = GroupSpec((6,))
    table = synthesize(g, np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=complex))
    assert np.array_equal(table, np.zeros(6, dtype=complex))


def test_synthesize_rejects_mismatched_lengths():
    g = GroupSpec((6,))
    with pytest.raises(ShapeError):
        synthesize(g, np.array([[1], [2]]), np.array([1.0 + 0j]))


def test_mismatched_groups_raise():
    f = constant_density(GroupSpec((8,)))
    h = constant_density(GroupSpec((9,)))
    with pytest.raises(ShapeError):
        convolve(f, h)
    with pytest.raises(ShapeError):
        plancherel_pairing(f, h)


# --- the exact-phase factored transform against the definitional sums -----------

FACTORED_GROUPS = [
    GroupSpec((97,)),
    GroupSpec((2048,)),
    GroupSpec((3 * 97,)),
    GroupSpec((64, 32)),
    GroupSpec((2,) * 9),
    GroupSpec((3,) * 5),
    GroupSpec((5, 1, 3)),
    GroupSpec((1,)),
]


@pytest.mark.parametrize("g", FACTORED_GROUPS, ids=str)
def test_factored_transform_matches_definitional(g):
    f = _random_density(g, 81)
    fhat = dft_definitional(f)
    assert np.abs(dft_factored(f).coeffs - fhat.coeffs).max() < 1e-12
    assert np.abs(idft_factored(fhat) - idft_definitional(fhat)).max() < 1e-12
    # Synthesis of a sparse spectrum against the sum over its support rows.
    rng = np.random.default_rng(82)
    ranks = rng.choice(g.order, size=min(g.order, 7), replace=False)
    coeffs = rng.random(ranks.size) + 1j * rng.random(ranks.size)
    sparse = np.zeros(g.order, dtype=complex)
    sparse[ranks] = coeffs
    want = synthesize(g, rows_at(g, ranks), coeffs)
    assert np.abs(idft_factored(Spectrum(g, sparse)) - want).max() < 1e-12


def _axis_by_axis(table: np.ndarray, sign: int, moduli) -> np.ndarray:
    """The pairing sum of a (P, batch, *factors) table one axis at a time, each by its plain n x n sum.

    Mod p_i every product is reduced by int64 ``%`` before the sum over z;
    over C the kernel is exp(2 pi i sign t z / n), independent of the
    engine's power table.  Outputs t go 64 at a time, so no n x n table is
    built.
    """
    out = table
    for axis, n in enumerate(table.shape[2:], start=2):
        moved = np.moveaxis(out, axis, -1)
        summed = np.empty(moved.shape, dtype=moved.dtype)
        roots = [pow(root, math.lcm(*table.shape[2:]) // n, p) for p, root in moduli]
        powers = [np.array([pow(w, sign * e % n, p) for e in range(n)]) for w, (p, _) in zip(roots, moduli)]
        for t in range(0, n, 64):
            tz = np.outer(np.arange(t, min(t + 64, n)), np.arange(n)) % n
            if moduli:
                for i, (p, _) in enumerate(moduli):
                    summed[i, ..., t : t + 64] = (moved[i, ..., None, :] * powers[i][tz] % p).sum(axis=-1) % p
            else:
                summed[..., t : t + 64] = moved @ np.exp(sign * 2j * np.pi * tz / n).T
        out = np.moveaxis(summed, -1, axis)
    return out


STAGE_GROUPS = [
    GroupSpec((2048,)), GroupSpec((64, 32)), GroupSpec((8, 8, 8, 4)), GroupSpec((97, 4)),
    GroupSpec((3,) * 6), GroupSpec((2, 97)), GroupSpec((96,)),
]


@pytest.mark.parametrize("g", STAGE_GROUPS, ids=str)
def test_stage_engine_is_the_axis_by_axis_sum(g):
    # Mod each of two primes, a batch of two residue tables: exact.
    moduli = spectral._ntt_moduli(g.factors, 1 << 61)
    assert len(moduli) == 2
    rng = np.random.default_rng(85)
    residues = rng.integers(0, min(p for p, _ in moduli), size=(len(moduli), 2, *g.factors))
    for sign in (1, -1):
        got = spectral._factored(residues, sign, moduli)
        assert got.dtype == np.int64
        assert np.array_equal(got, _axis_by_axis(residues, sign, moduli))
    # Over C, at the analysis normalization: within 1e-12.
    table = (rng.random(g.factors) + 1j * rng.random(g.factors))[None, None]
    for sign in (1, -1):
        got = spectral._factored(table, sign, ())
        assert np.abs(got - _axis_by_axis(table, sign, ())).max() / g.order < 1e-12


@pytest.mark.parametrize(
    "factors, stages",
    [((2,) * 10, [64, 16]), ((8, 8, 8, 4), [64, 32]), ((64, 32), [64, 32]), ((2048,), [32, 64]),
     ((65536,), [16, 64, 64]), ((3 * 97,), [97, 3]), ((5, 1, 3), [15])],
    ids=str,
)
def test_stages_are_at_most_64_points(monkeypatch, factors, stages):
    seen = []
    original = spectral._stage

    def spy(x, kernel, moduli):
        seen.append(kernel.shape[-1])
        return original(x, kernel, moduli)

    monkeypatch.setattr(spectral, "_stage", spy)
    prime = []
    original_prime = spectral._prime_length

    def spy_prime(x, *args):
        seen.append(x.shape[2])
        prime.append(x.shape[2])
        return original_prime(x, *args)

    monkeypatch.setattr(spectral, "_prime_length", spy_prime)
    spectral._factored(np.ones((1, 1, *factors), dtype=complex), 1, ())
    assert seen == stages
    assert all(n > 64 for n in prime)


def _ntt_by_definition(table: np.ndarray, sign: int, p: int, root: int) -> list[int]:
    """sum_z x(z) root^(sign L <t, z>) mod p for every t, in Python ints; ``root`` has order L."""
    factors = table.shape
    lcm = math.lcm(*factors)
    coords = [tuple(int(c) for c in np.unravel_index(r, factors)) for r in range(table.size)]
    values = [int(v) for v in table.ravel()]
    out = []
    for t in coords:
        acc = 0
        for z, v in zip(coords, values):
            e = sum(ti * zi * (lcm // n) for ti, zi, n in zip(t, z, factors)) % lcm
            acc += v * pow(root, sign * e % lcm, p)
        out.append(acc % p)
    return out


@pytest.mark.parametrize(
    "factors",
    [(2,), (3,), (4,), (97,), (210,), (6, 4), (3,) * 5,
     # Fused stages and the four-step split around the 64-point limit.
     (64,), (128,), (2,) * 7, (4, 4, 4), (8, 8, 2), (96,), (3 * 97,), (2, 97)],
    ids=lambda f: "x".join(map(str, f)),
)
@pytest.mark.parametrize("primes", [1, 2])
def test_ntt_reduction_at_the_int64_edge(factors, primes):
    # Residues p - 1 make every twiddle product (p - 1)^2 plus a residue, the
    # largest an int64 must hold, and fill both halves of every stage's sums.
    moduli = spectral._ntt_moduli(factors, 1 << 61)[:primes]
    assert len(moduli) == primes
    rng = np.random.default_rng(87)
    near = rng.integers(1, 64, size=factors)
    table = np.stack(
        [np.stack([np.full(factors, p - 1), p - near]) for p, _ in moduli]
    ).astype(np.int64)
    for sign in (1, -1):
        got = spectral._factored(table, sign, moduli)
        assert got.dtype == np.int64
        for i, (p, root) in enumerate(moduli):
            for j in range(2):
                assert got[i, j].ravel().tolist() == _ntt_by_definition(table[i, j], sign, p, root)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=40))
def test_reduce_is_the_remainder(values):
    # One prime per row of the leading axis, as the engine's ring rows are reduced.
    moduli = spectral._ntt_moduli((8, 3), 1 << 61)
    x = np.array([values, values[::-1]], dtype=np.int64)
    want = np.array([[v % p for v in row] for row, (p, _) in zip(x.tolist(), moduli)], dtype=np.int64)
    spectral._reduce(x, moduli)
    assert np.array_equal(x, want)


def test_prime_length_builds_no_square_kernel():
    # One kernel row at a time: the peak is a few N-point tables, not an N-by-N block.
    g = GroupSpec((2039,))
    f = _random_density(g, 86)
    spectral._powers.cache_clear()
    spectral._kernel.cache_clear()
    tracemalloc.start()
    try:
        dft_factored(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * g.order


@pytest.mark.parametrize(
    "factors", [(2048,), (8, 8, 8, 4), (2,) * 10, (96,), (3 * 97,), (1 << 14,)], ids=str
)
def test_modular_products_stay_exact_in_float64(monkeypatch, factors):
    # Every float64 product of the modular ring contracts at most 64 terms, and
    # every sum it returns is an integer below 2^53, so no bit was rounded.
    products = []
    original = np.matmul

    def spy(a, b, *args, **kwargs):
        out = original(a, b, *args, **kwargs)
        if a.dtype == np.float64 and b.dtype == np.float64:
            products.append((a.shape[-1], float(np.abs(out).max())))
        return out

    monkeypatch.setattr(spectral.np, "matmul", spy)
    moduli = spectral._ntt_moduli(factors, 1 << 61)
    # p - 1, and a residue whose low 17 bits are all ones: the largest low half.
    table = np.stack(
        [np.stack([np.full(factors, p - 1), np.full(factors, ((p - 1) >> 17 << 17) - 1)]) for p, _ in moduli]
    ).astype(np.int64)
    for sign in (1, -1):
        spectral._factored(table, sign, moduli)
    g = GroupSpec(factors)
    rng = np.random.default_rng(88)
    spectral.representation_counts(g, rng.random(g.order) < 0.5, rng.random(g.order) < 0.5)
    assert products
    assert max(n for n, _ in products) <= 64
    assert max(top for _, top in products) < 2**53


def test_engine_caches_hold_no_table_per_level():
    # After a dft/idft pair and a count on Z_2^16, with the results dropped,
    # the caches hold the power rows (one complex, one int64 per prime) and
    # kernels of at most 64^2 cells: no twiddle table per level.
    g = GroupSpec((1 << 16,))
    f = _random_density(g, 89)
    rng = np.random.default_rng(90)
    a, b = rng.random(g.order) < 0.3, rng.random(g.order) < 0.3
    spectral._powers.cache_clear()
    spectral._kernel.cache_clear()
    tracemalloc.start()
    try:
        idft_factored(dft_factored(f))
        spectral.representation_counts(g, a, b)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * 16 * g.order


def test_factored_prime_length_blocking(monkeypatch):
    # The factored route, with a prime length of 97, against the definitional sum in tiny blocks.
    g = GroupSpec((3 * 97,))
    f = _random_density(g, 83)
    fast = dft_factored(f).coeffs
    monkeypatch.setattr(spectral, "_BLOCK_CELLS", 97)  # one phase row per block
    assert np.abs(dft_definitional(f).coeffs - fast).max() < 1e-12


# --- translate windows against the np.roll loop ---------------------------------

def _rolled_convolution(f: DensityFn, g: DensityFn) -> DensityFn:
    """One multi-axis ``np.roll`` per nonzero weight, summed in rank order."""
    grp = f.group
    axes = tuple(range(grp.ndim))
    out = np.zeros(grp.factors, dtype=np.float64)
    for rank, weight in enumerate(g.values):
        if weight == 0.0:
            continue
        shift = np.unravel_index(rank, grp.factors)
        out += weight * np.roll(f.as_nd(), shift, axis=axes)
    return DensityFn(grp, out.ravel() / grp.order)


def _split_of(factors, ranks) -> int:
    rows = np.stack(np.unravel_index(np.asarray(ranks), factors), axis=1)
    changed = np.ones(rows.shape, dtype=bool)
    changed[1:] = rows[1:] != rows[:-1]
    return spectral._split_axes(factors, rows, changed.argmax(axis=1))


TRANSLATE_GROUPS = st.one_of(
    st.lists(st.integers(1, 12), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda f: math.prod(f) <= 512),
    st.sampled_from([(2,) * 9, (3,) * 5, (4, 2, 2, 2, 2, 2), (5, 1, 3), (1,)]),
)


@settings(max_examples=150, deadline=None)
@given(
    factors=TRANSLATE_GROUPS,
    f_support=st.sampled_from([0.0, 0.3, 1.0]),
    g_support=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
    block_cells=st.sampled_from([None, 1, 64, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
def test_translate_windows_keep_every_bit(factors, f_support, g_support, block_cells, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    f = DensityFn(g, rng.normal(size=g.order) * (rng.random(g.order) < f_support))
    h = DensityFn(g, rng.normal(size=g.order) * (rng.random(g.order) < g_support))
    want = _rolled_convolution(f, h).values.view(np.int64)
    want_triple = _rolled_convolution(_rolled_convolution(f, h), reflect(h)).values.view(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        if block_cells is not None:
            mp.setattr(spectral, "_BLOCK_CELLS", block_cells)
        assert np.array_equal(convolve_definitional(f, h).values.view(np.int64), want)
        assert np.array_equal(triple_convolve_definitional(f, h).values.view(np.int64), want_triple)


def test_translate_walk_split_follows_cost(monkeypatch):
    # A cyclic group with many translates: double its axis, never roll.
    assert _split_of((2048,), range(0, 2048, 3)) == 0
    # Three translates of F_2^9: doubling would build 3^9 cells, rolling moves 2^9 a few times.
    assert _split_of((2,) * 9, [5, 300, 511]) == 9
    # Many translates of (8,8,8,4): double the last two axes, roll the two before.
    assert _split_of((8, 8, 8, 4), range(0, 2048, 3)) == 2
    # No room for a doubled table: roll every axis.
    monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1)
    assert _split_of((8, 8, 8, 4), range(0, 2048, 3)) == 4


def test_translate_windows_are_read_only_and_deduplicated():
    table = np.arange(24.0).reshape(2, 3, 4)
    shifts = [[1, -1, 6], [-1, 2, 2], [0, 0, 0]]  # the first two are the same translate
    windows = [w.copy() for w in spectral._translate_windows(table, shifts)]
    assert len(windows) == 2
    assert np.array_equal(windows[0], table)
    assert np.array_equal(windows[1], np.roll(table, (1, 2, 2), axis=(0, 1, 2)))
    window = next(spectral._translate_windows(table, [[1, 1, 1]]))
    with pytest.raises(ValueError):
        window[0, 0, 0] = 1.0
    assert list(spectral._translate_windows(table, np.zeros((0, 3), dtype=np.int64))) == []
