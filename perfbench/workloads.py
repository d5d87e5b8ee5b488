"""Seeded instances for the four benchmark workloads.

An instance is a group shape plus two boolean masks in canonical element
order.  The masks are generated here with numpy alone, never with the
library's own generators, so that a change to ``bohrlab.sets`` cannot change
what the benchmark feeds the library.  Instance ``j`` of round ``r`` under
seed ``s`` is drawn from ``default_rng([s, r, j])``: the same seed gives the
same inputs on every commit.

A round holds one instance per shape (or per structured family), so every
round has the same mix and medians do not drift with the number of rounds a
run completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Instance:
    label: str
    factors: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full_pipeline: bool  # extract -> round trip -> verify -> good shift, else extract -> round trip
    round_size: int
    make: Callable[[np.random.Generator, int], Instance]  # (rng, slot in round) -> instance
    warmup: Callable[[], list[Instance]]  # one cheap instance per group shape


def _coords(factors: tuple[int, ...]) -> np.ndarray:
    return np.indices(factors, dtype=np.int64).reshape(len(factors), -1).T


def _exact_size(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=size, replace=False)] = True
    return mask


def _random(rng: np.random.Generator, factors, density: float, label: str) -> Instance:
    # Exact set sizes: delta, and with it the threshold delta^3 / 4 that sets
    # k, is the same for every instance of a shape.
    n = math.prod(factors)
    size = round(density * n)
    return Instance(label, tuple(factors), _exact_size(rng, n, size), _exact_size(rng, n, size))


def _char_order(t: np.ndarray, factors) -> int:
    return math.lcm(*(n // math.gcd(int(x), n) for x, n in zip(t, factors)))


def _kernel(factors, t: np.ndarray) -> np.ndarray:
    """Mask of the subgroup {z : chi_t(z) = 1}, in exact integer arithmetic."""
    lcm = math.lcm(*factors)
    weights = np.asarray([lcm // n for n in factors], dtype=np.int64) * t
    return (_coords(factors) @ weights) % lcm == 0


def _shift(factors, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    shift = tuple(int(rng.integers(n)) for n in factors)
    return np.roll(mask.reshape(factors), shift, axis=tuple(range(len(factors)))).ravel()


def _subgroup_mask(rng: np.random.Generator, factors, index: int) -> np.ndarray:
    """Kernel of a uniformly drawn character of the given order."""
    while True:
        t = np.asarray([rng.integers(n) for n in factors], dtype=np.int64)
        if _char_order(t, factors) == index:
            return _kernel(factors, t)


# --- random workloads --------------------------------------------------------

WORST_K_SHAPES = ((65536,), (256, 256), (16, 16, 16, 16))
EASY_K_SHAPES = ((262144,), (512, 512))
VERIFY_SHAPES = ((2048,), (64, 32), (8, 8, 8, 4))


def _random_round(shapes, density: float) -> Callable[[np.random.Generator, int], Instance]:
    def make(rng: np.random.Generator, slot: int) -> Instance:
        factors = shapes[slot]
        return _random(rng, factors, density, "x".join(map(str, factors)) + " random")

    return make


def _random_warmup(shapes, density: float) -> Callable[[], list[Instance]]:
    return lambda: [
        _random(np.random.default_rng([0, i]), f, density, "warm-up") for i, f in enumerate(shapes)
    ]


def _subgroup_warmup(shapes) -> Callable[[], list[Instance]]:
    # Subgroups of prime index: k is that prime, so a warm-up costs the
    # definitional transforms of the shape and little else.
    def warm() -> list[Instance]:
        out = []
        for i, f in enumerate(shapes):
            prime = next(q for q in range(2, f[0] + 1) if f[0] % q == 0)
            h = _subgroup_mask(np.random.default_rng([0, i]), f, prime)
            out.append(Instance("warm-up", f, h, h))
        return out

    return warm


# --- structured families -----------------------------------------------------

F2_10 = (2,) * 10
F3_6 = (3,) * 6
Z2048 = (2048,)
Z64x32 = (64, 32)

# (label, shape, subgroup index) for the subgroup and coset families.
_SUBGROUPS = (
    ("F2^10", F2_10, 2),
    ("F3^6", F3_6, 3),
    ("Z2048", Z2048, 8),
    ("Z64xZ32", Z64x32, 8),
)


def _structured(rng: np.random.Generator, slot: int) -> Instance:
    if slot < 2 * len(_SUBGROUPS):
        label, factors, index = _SUBGROUPS[slot // 2]
        h = _subgroup_mask(rng, factors, index)
        if slot % 2 == 0:
            return Instance(f"{label} subgroup", factors, h, h)
        return Instance(f"{label} coset", factors, _shift(factors, h, rng), _shift(factors, h, rng))
    kind = slot - 2 * len(_SUBGROUPS)
    if kind == 0:
        # Progressions of length N/4 with a common unit step.
        n, length = Z2048[0], Z2048[0] // 4
        step = 2 * int(rng.integers(n // 2)) + 1
        a = np.zeros(n, dtype=bool)
        b = np.zeros(n, dtype=bool)
        a[(int(rng.integers(n)) + step * np.arange(length)) % n] = True
        b[(int(rng.integers(n)) + step * np.arange(length)) % n] = True
        return Instance("Z2048 progression", Z2048, a, b)
    if kind == 1:
        h = _subgroup_mask(rng, F2_10, 2)
        noisy = h ^ (rng.random(h.size) < 0.01)
        return Instance("F2^10 subgroup + 1% noise", F2_10, noisy, h)
    # Torus-norm Bohr set on two random frequencies, radius 1/4, exact integers.
    n = Z2048[0]
    z = np.arange(n, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for t in rng.integers(1, n, size=2):
        r = (int(t) * z) % n
        mask &= 4 * np.minimum(r, n - r) < n
    return Instance("Z2048 Bohr set", Z2048, mask, mask)


STRUCTURED_ROUND = 2 * len(_SUBGROUPS) + 3

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract_worst_k",
            "k ~ 0.96 N on N = 65536: the per-character Elem/Char path of groups/extractor "
            "and a 5-10 MB certificate in serialize; FFTs idle, verifier out of budget",
            False,
            len(WORST_K_SHAPES),
            _random_round(WORST_K_SHAPES, 0.1),
            _random_warmup(WORST_K_SHAPES, 0.3),
        ),
        Workload(
            "extract_easy_k",
            "k = 1 on N = 2^18, above the enumeration cap: spectral FFTs and convolutions "
            "with the per-character path idle; the bypass for extractor work on large k",
            False,
            len(EASY_K_SHAPES),
            _random_round(EASY_K_SHAPES, 0.3),
            _random_warmup(EASY_K_SHAPES, 0.3),
        ),
        Workload(
            "verify_random",
            "random sets on N = 2048 with k ~ 0.7 N: definitional DFTs and (k, N, d) phase "
            "tables dominate the verifier; the 4-factor shape multiplies phase-table memory",
            True,
            len(VERIFY_SHAPES),
            _random_round(VERIFY_SHAPES, 0.3),
            _subgroup_warmup(VERIFY_SHAPES),
        ),
        Workload(
            "sweep_structured",
            "subgroups, cosets, progressions, noisy subgroups and Bohr sets with few "
            "frequencies but 243-512 Bohr members: good-shift rolls and sumset unions, d <= 10",
            True,
            STRUCTURED_ROUND,
            _structured,
            _subgroup_warmup((F2_10, F3_6, Z2048, Z64x32)),
        ),
    )
}


def round_instances(w: Workload, seed: int, r: int) -> list[Instance]:
    return [w.make(np.random.default_rng([seed, r, j]), j) for j in range(w.round_size)]
