"""Exact representation counts: the number-theoretic transform, the translate sum and the primes.

r(x) = #{(a, b, c) in A x B x B : a + b - c = x}, and the difference counts
c(a) = #{(u, z) in X x Y : u - z = a}.  Both routes must give the same int64
table as a brute-force count over every triple or pair (small groups) or as
each other, with total |A| |B|^2 (|X| |Y|) and support A+B-B (X - Y).
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bohrlab.spectral as spectral
from bohrlab.cli import main
from bohrlab.errors import CapacityError
from bohrlab.extractor import extract
from bohrlab.groups import GroupSpec, coords_table
from bohrlab.serialize import certificate_to_json
from bohrlab.sets import GroupSubset, sumset_ABmB, write_set_file
from bohrlab.spectral import (
    _counts_by_ntt,
    _counts_by_translates,
    _ntt_moduli,
    difference_counts,
    representation_counts,
)


def _brute_counts(g: GroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r by ``np.add.at`` over every triple (a, b, c)."""
    coords = coords_table(g)
    xs = coords[a][:, None, None] + coords[b][None, :, None] - coords[b][None, None, :]
    ranks = np.ravel_multi_index(xs.reshape(-1, g.ndim).T, g.factors, mode="wrap")
    out = np.zeros(g.order, dtype=np.int64)
    np.add.at(out, ranks, 1)
    return out


def _is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


COUNT_GROUPS = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(factors=(97,), density_a=0.3, density_b=0.4, seed=1)
@example(factors=(5, 1, 3), density_a=0.5, density_b=0.2, seed=2)
@example(factors=(1,), density_a=1.0, density_b=1.0, seed=3)
@example(factors=(3,) * 5, density_a=0.1, density_b=0.3, seed=4)
@example(factors=(97, 4), density_a=0.3, density_b=0.3, seed=5)
@example(factors=(6, 4), density_a=0.0, density_b=0.5, seed=6)
@given(
    factors=COUNT_GROUPS,
    density_a=st.floats(0.0, 1.0),
    density_b=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_routes_count_every_representation(factors, density_a, density_b, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    a = rng.random(g.order) < density_a
    b = rng.random(g.order) < density_b
    size_a, size_b = int(a.sum()), int(b.sum())
    shaped = a.reshape(factors), b.reshape(factors)
    tables, negated = (shaped[0], shaped[1], shaped[1]), (False, False, True)
    want = _brute_counts(g, a, b) if g.order <= 64 else _counts_by_translates(tables, negated)
    assert want.dtype == np.int64
    one_prime = _ntt_moduli(factors, size_a * size_b**2)
    two_primes = _ntt_moduli(factors, 1 << 61)
    assert len(two_primes) == 2
    for got in (
        _counts_by_translates(tables, negated),
        _counts_by_ntt(tables, negated, one_prime),
        _counts_by_ntt(tables, negated, two_primes),
        representation_counts(g, a, b),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert int(want.sum()) == size_a * size_b**2
    assert np.array_equal(want > 0, sumset_ABmB(GroupSubset(g, a), GroupSubset(g, b)).mask)


def _brute_differences(g: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c by ``np.bincount`` over every pair (u, z), about 2^20 pairs at a time.

    Blocks of u keep the (pairs, d) table of differences near 32 MB, where one
    table for all |X| |Y| pairs would take gigabytes on 12^4.
    """
    coords = coords_table(g)
    us, zs = coords[x], coords[y]
    step = max(1, (1 << 20) // max(1, len(zs)))
    out = np.zeros(g.order, dtype=np.int64)
    for start in range(0, len(us), step):
        diffs = us[start : start + step, None] - zs[None, :]
        ranks = np.ravel_multi_index(diffs.reshape(-1, g.ndim).T, g.factors, mode="wrap")
        out += np.bincount(ranks, minlength=g.order)
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(factors=(97,), density_x=0.6, density_y=0.1, seed=1)
@example(factors=(5, 1, 3), density_x=0.5, density_y=0.5, seed=2)
@example(factors=(1,), density_x=1.0, density_y=1.0, seed=3)
@example(factors=(3,) * 5, density_x=0.9, density_y=0.05, seed=4)
@example(factors=(6, 4), density_x=0.0, density_y=0.5, seed=5)
@example(factors=(6, 4), density_x=0.5, density_y=0.0, seed=6)
@given(
    factors=COUNT_GROUPS,
    density_x=st.floats(0.0, 1.0),
    density_y=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_routes_count_every_difference(factors, density_x, density_y, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    x = rng.random(g.order) < density_x
    y = rng.random(g.order) < density_y
    want = _brute_differences(g, x, y)
    tables, negated = (x.reshape(factors), y.reshape(factors)), (False, True)
    one_prime = _ntt_moduli(factors, int(x.sum()) * int(y.sum()))
    for got in (
        _counts_by_translates(tables, negated),
        _counts_by_ntt(tables, negated, one_prime),
        _counts_by_ntt(tables, negated, _ntt_moduli(factors, 1 << 61)),
        difference_counts(g, x, y),
        # -z + u = a, with the negated table first.
        _counts_by_translates(tables[::-1], negated[::-1]),
        _counts_by_ntt(tables[::-1], negated[::-1], one_prime),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert int(want.sum()) == int(x.sum()) * int(y.sum())


def test_difference_counts_of_an_empty_table_run_no_route(monkeypatch):
    g = GroupSpec((8, 6))
    monkeypatch.setattr(spectral, "_counts_by_ntt", _refuse_to_count)
    monkeypatch.setattr(spectral, "_counts_by_translates", _refuse_to_count)
    full, empty = np.ones(g.order, dtype=bool), np.zeros(g.order, dtype=bool)
    for x, y in ((empty, full), (full, empty)):
        got = difference_counts(g, x, y)
        assert got.dtype == np.int64 and not got.any()


@settings(max_examples=40, deadline=None)
@example(factors=(1,), bound=0)
@example(factors=(2048,), bound=614**3)
@example(factors=(1 << 20,), bound=(1 << 62) // 3)
@example(factors=(8191, 8), bound=1 << 40)
@given(
    factors=st.lists(st.integers(1, 5000), min_size=1, max_size=3)
    .map(tuple)
    .filter(lambda f: math.lcm(*f) <= 1 << 22),
    bound=st.integers(0, 1 << 61),
)
def test_primes_are_one_mod_lcm_with_a_root_of_that_order(factors, bound):
    lcm = math.lcm(*factors)
    moduli = _ntt_moduli(factors, bound)
    assert math.prod(p for p, _ in moduli) > bound
    assert len(moduli) == 1 or math.prod(p for p, _ in moduli[:-1]) <= bound  # the fewest
    for p, root in moduli:
        assert p < 1 << 31
        assert _is_prime_by_trial_division(p)
        assert (p - 1) % lcm == 0
        assert pow(root, lcm, p) == 1
        small = [d for d in range(1, math.isqrt(lcm) + 1) if lcm % d == 0]
        divisors = set(small) | {lcm // d for d in small}
        assert all(pow(root, d, p) != 1 for d in divisors - {lcm})


def test_primes_run_out_with_a_capacity_error():
    (p1, _), (p2, _) = _ntt_moduli((1 << 20,), 1 << 61)
    assert _ntt_moduli((1 << 20,), p1 * p2 - 1)
    with pytest.raises(CapacityError, match="int64 CRT joins at most 2"):
        _ntt_moduli((1 << 20,), p1 * p2)
    # No prime below 2^31 is 1 mod 2^30: the search finds none.
    with pytest.raises(CapacityError, match="0 found"):
        _ntt_moduli((1 << 30,), 1)


def _refuse_to_count(*args, **kwargs):
    raise AssertionError("a count ran although the primes ran out")


def test_verify_exits_2_when_the_primes_run_out(monkeypatch, tmp_path):
    g = GroupSpec((8, 4))
    A = GroupSubset(g, np.arange(g.order) % 3 == 0)
    cert = extract(A.indicator(), A.indicator())
    paths = {"a": tmp_path / "a.txt", "cert": tmp_path / "cert.json"}
    write_set_file(A, paths["a"])
    paths["cert"].write_text(certificate_to_json(cert), encoding="utf-8")
    # One small prime: |A| |B|^2 = 11^3 exceeds it.
    monkeypatch.setattr(spectral, "_prime_moduli", lambda lcm, primes: ((17, 3),))
    monkeypatch.setattr(spectral, "_counts_by_ntt", _refuse_to_count)
    monkeypatch.setattr(spectral, "_counts_by_translates", _refuse_to_count)
    with pytest.raises(CapacityError):
        representation_counts(g, A.mask, A.mask)
    argv = ["verify", "--cert", str(paths["cert"]), "--set-a", str(paths["a"]), "--set-b", str(paths["a"])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert "CapacityError" in err.getvalue()


def _routes_taken(monkeypatch, g: GroupSpec, a: np.ndarray, b: np.ndarray) -> list[str]:
    """The count routes ``representation_counts(g, a, b)`` runs, in order."""
    taken = []
    for name in ("ntt", "translates"):
        original = getattr(spectral, f"_counts_by_{name}")

        def spy(*args, _name=name, _fn=original):
            taken.append(_name)
            return _fn(*args)

        monkeypatch.setattr(spectral, f"_counts_by_{name}", spy)
    representation_counts(g, a, b)
    return taken


@pytest.mark.parametrize(
    "factors, density, route",
    [((97,), 0.3, "translates"), ((2039,), 0.3, "translates"), ((2048,), 0.3, "ntt"),
     ((8, 8, 8, 4), 0.3, "ntt"), ((2,) * 10, 0.3, "ntt")],
    ids=str,
)
def test_cell_estimate_picks_the_route(monkeypatch, factors, density, route):
    g = GroupSpec(factors)
    rng = np.random.default_rng(7)
    a, b = rng.random(g.order) < density, rng.random(g.order) < density
    assert _routes_taken(monkeypatch, g, a, b) == [route]


@pytest.mark.parametrize(
    "factors, size_a, size_b, route",
    # Points of the crossover grid (BENCH_verify_matmul.json) where one route
    # measured at least 2x faster than the other.
    [((64, 32), 512, 32, "ntt"), ((2,) * 10, 256, 16, "ntt"), ((3,) * 6, 182, 11, "ntt"),
     ((2048,), 512, 128, "ntt"), ((243, 8), 486, 60, "ntt"), ((97, 4), 97, 6, "translates"),
     ((97, 4), 97, 97, "translates")],
    ids=str,
)
def test_stage_estimate_picks_the_faster_route_on_the_crossover_grid(monkeypatch, factors, size_a, size_b, route):
    g = GroupSpec(factors)
    rng = np.random.default_rng(3)
    a, b = np.zeros(g.order, dtype=bool), np.zeros(g.order, dtype=bool)
    a[rng.choice(g.order, size_a, replace=False)] = True
    b[rng.choice(g.order, size_b, replace=False)] = True
    assert _routes_taken(monkeypatch, g, a, b) == [route]


def test_primes_are_sized_by_the_largest_single_count(monkeypatch):
    # Multiples of 8 in Z_65536: |A| |B|^2 = 2^39 needs two primes, but no
    # single count exceeds min(|A|, |B|) |B| = 2^26, so one prime holds them.
    g = GroupSpec((1 << 16,))
    sub = np.arange(g.order) % 8 == 0
    size = int(sub.sum())
    used = []
    original = spectral._counts_by_ntt

    def spy(tables, negated, moduli):
        used.append(len(moduli))
        return original(tables, negated, moduli)

    monkeypatch.setattr(spectral, "_counts_by_ntt", spy)
    got = representation_counts(g, sub, sub)
    assert used == [1]
    assert got.dtype == np.int64
    assert np.array_equal(got, np.where(sub, size * size, 0))
    assert int(got.sum()) == size**3
