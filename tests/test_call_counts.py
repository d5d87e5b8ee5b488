"""Per-character work stays out of the pipeline: a deterministic count of the
scalar group helpers, in place of a timing gate.

Each helper is replaced at every place a bohrlab module binds it by a wrapper
that counts calls.  Extract plus a JSON round trip must make the same number
of calls whether S1 holds a handful of characters or thousands, and the S1 it
builds and loads holds no ``Char`` objects, only their frequency matrix.
The level polynomial q is evaluated once per extraction, for c, with one
libm cosine and sine per distinct angle, not per character; and f and g
are transformed once each: ``extract`` makes two forward and two inverse
transforms (f-hat, g-hat; h and the remainder), whatever k is.  Each makes
one ``np.fft`` call per maximal run of axes whose length is not 2, and none
for a run of length-2 axes, which are sum/difference passes: on a group with
no length-2 axis the four are ``rfftn`` and ``irfftn``, and on F_2^n there is
no ``np.fft`` call at all.  ``extract`` keeps to their half tables: it never
calls the full-table ``rfft.dft``, ``triple_spectrum`` or ``idft_real``,
and at small k its traced memory peaks under 2.5 tables of 16 N bytes on
Z_2^16, and on F_2^16 under the peak of the route that ran numpy's
transforms on every axis.  ``good_shift_set``
draws no translate window, however many members its Bohr set has.  S1 crosses
the JSON boundary as one rank array: ``json.loads`` never reads the rank block
of a file in the writer's layout, and from extract to verify each S1 tuple is
range-checked and ranked at most once.  Bohr membership at a radius far
below every nonzero distance walks about (N + k) d phase cells, not k N d.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bohrlab import bohr, extractor, groups, rfft, serialize, spectral
from bohrlab.bohr import FORM_CHAR, BohrSpec, halve_radius, members_mask
from bohrlab.errors import ShapeError
from bohrlab.extractor import TrigPoly, extract
from bohrlab.serialize import certificate_from_json, certificate_to_json
from bohrlab.sets import GroupSubset, random_nonempty_subset, subgroup_subset
from bohrlab.verify import good_shift_set, verify_certificate

COUNTED = ("check_char", "rank_of_char", "char_eval", "pairing", "elem_at", "char_at")
Z4096 = groups.GroupSpec((4096,))
G8884 = groups.GroupSpec((8, 8, 8, 4))
F2_10 = groups.GroupSpec((2,) * 10)
FFT_FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn", "hfft")
FFT_INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn", "ihfft")


def _count_calls(monkeypatch, run) -> Counter:
    calls: Counter = Counter()
    for name in COUNTED:
        original = getattr(groups, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "bohrlab"]:
            for site, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, site, wrapper)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def _pipeline(A: GroupSubset, B: GroupSubset, ks: list[int]):
    def run():
        cert = extract(A.indicator(), B.indicator())
        loaded = certificate_from_json(certificate_to_json(cert))
        ks.append(loaded.k)

    return run


def test_scalar_helper_calls_do_not_grow_with_k(monkeypatch):
    ks: list[int] = []
    # Multiples of 8: a subgroup, so S1 is its 8 annihilating characters.
    sub = GroupSubset(Z4096, np.arange(4096) % 8 == 0)
    few = _count_calls(monkeypatch, _pipeline(sub, sub, ks))
    A = random_nonempty_subset(Z4096, 0.1, 5)
    B = random_nonempty_subset(Z4096, 0.1, 6)
    many = _count_calls(monkeypatch, _pipeline(A, B, ks))
    assert ks[0] <= 10 and ks[1] > 1000
    assert sum(many.values()) == sum(few.values())
    assert sum(many.values()) <= len(COUNTED)


def test_certificate_frequency_sets_hold_no_chars():
    A = random_nonempty_subset(Z4096, 0.1, 5)
    B = random_nonempty_subset(Z4096, 0.1, 6)
    cert = extract(A.indicator(), B.indicator())
    loaded = certificate_from_json(certificate_to_json(cert))
    assert loaded.k > 1000
    for chars in (cert.s1, loaded.s1):
        assert not any(isinstance(x, groups.Char) for x in gc.get_referents(chars))


def test_extract_evaluates_q_once(monkeypatch):
    """Extract reads q once, at a0, by its real-part evaluation; the complex one never runs."""
    points = []
    for name in ("evaluate", "evaluate_real"):
        original = getattr(TrigPoly, name)

        def counted(self, z, _name=name, _fn=original):
            points.append((_name, z))
            return _fn(self, z)

        monkeypatch.setattr(TrigPoly, name, counted)
    A = random_nonempty_subset(Z4096, 0.1, 5)
    B = random_nonempty_subset(Z4096, 0.1, 6)
    cert = extract(A.indicator(), B.indicator())
    assert points == [("evaluate_real", cert.a0)]


def _caught_q(monkeypatch, fa, fb):
    """Extract on (fa, fb), with q and the coefficient array its constructor was handed."""
    caught = []
    original = TrigPoly.__post_init__

    def post_init(self):
        handed = self.coeffs
        original(self)
        caught.append((self, handed))

    monkeypatch.setattr(TrigPoly, "__post_init__", post_init)
    cert = extract(fa, fb)
    monkeypatch.undo()
    [(q, handed)] = caught
    return cert, q, handed


def test_extract_keeps_q_coefficients_as_gathered(monkeypatch):
    """q holds the very array extract gathered from the half of h-hat, frozen, with no copy."""
    A = random_nonempty_subset(G8884, 0.1, 5)
    B = random_nonempty_subset(G8884, 0.1, 6)
    cert, q, handed = _caught_q(monkeypatch, A.indicator(), B.indicator())
    assert q.coeffs is handed and not handed.flags.writeable and handed.base is None
    assert q.coeffs.shape == (cert.k,) and cert.k > 0.9 * G8884.order


@pytest.mark.parametrize("factors", [(65536,), (256, 256), (2,) * 16])
def test_worst_k_level_peaks_under_three_tables(monkeypatch, factors):
    """c = Re q(a0) at k near N, on a warm level table, peaks under three tables of 8 k bytes:
    the residue ranks and the gathered cos and sin, with the real parts formed in place."""
    g = groups.GroupSpec(factors)
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    cert, q, _ = _caught_q(monkeypatch, A.indicator(), B.indicator())
    assert cert.k > 0.8 * g.order
    gc.collect()
    tracemalloc.start()
    try:
        c = q.evaluate_real(cert.a0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == cert.c
    assert peak <= 3.02 * 8 * cert.k


class _CountingMath:
    """``math`` with its ``cos`` and ``sin`` calls counted."""

    def __init__(self, calls: Counter):
        self._calls = calls

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self._calls["cos"] += 1
        return math.cos(x)

    def sin(self, x):
        self._calls["sin"] += 1
        return math.sin(x)


def test_level_takes_libm_once_per_distinct_angle(monkeypatch):
    """On 16^4 every pairing phase is a multiple of 1/16: a worst-case S1 of k > 60,000
    characters has at most 16 distinct angles at a0, and c takes one cos and one sin each
    on a cold table."""
    g = groups.GroupSpec((16,) * 4)
    extractor._libm_table.cache_clear()
    calls: Counter = Counter()
    monkeypatch.setattr(extractor, "math", _CountingMath(calls))
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    cert = extract(A.indicator(), B.indicator())
    assert cert.k > 60_000
    # Exact on 16^4: the float phase of t at a0 is (t . a0 mod 16) / 16, so distinct angles are distinct residues.
    distinct = np.unique(cert.s1.rows @ np.array(cert.a0.coords) % 16).size
    assert 1 <= distinct <= 16
    assert calls == Counter(cos=distinct, sin=distinct)


@pytest.mark.parametrize("g", [Z4096, G8884, F2_10], ids=str)
def test_repeated_extract_takes_no_libm_call(monkeypatch, g):
    """A second extract on the same inputs reads every cos and sin of c off the group's table."""
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    first = extract(A.indicator(), B.indicator())
    calls: Counter = Counter()
    monkeypatch.setattr(extractor, "math", _CountingMath(calls))
    second = extract(A.indicator(), B.indicator())
    assert first.k > g.order // 2
    assert calls == Counter() and second.c.hex() == first.c.hex()


def _count_transforms(monkeypatch, run) -> Counter:
    calls: Counter = Counter()
    for kind, names in (("forward", FFT_FORWARD), ("inverse", FFT_INVERSE)):
        for name in names:

            def counted(*args, _kind=kind, _fn=getattr(np.fft, name), **kwargs):
                calls[_kind] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def _subgroup(g: groups.GroupSpec, index: int) -> GroupSubset:
    """Elements whose first coordinate is a multiple of ``index``: S1 is its few annihilators."""
    first = np.indices(g.factors).reshape(g.ndim, -1)[0]
    return GroupSubset(g, first % index == 0)


@pytest.mark.parametrize(
    "g, index, few, transforms",
    [
        (Z4096, 8, True, 2),
        (Z4096, None, False, 2),
        (G8884, 2, True, 2),
        (G8884, None, False, 2),
        (F2_10, 2, True, 0),
        (F2_10, None, False, 0),
    ],
    ids=["Z4096-subgroup", "Z4096-random", "8x8x8x4-subgroup", "8x8x8x4-random", "F2^10-subgroup", "F2^10-random"],
)
def test_extract_transforms_each_input_once(monkeypatch, g, index, few, transforms):
    if few:
        A = B = _subgroup(g, index)
    else:
        A = random_nonempty_subset(g, 0.1, 5)
        B = random_nonempty_subset(g, 0.1, 6)
    certs = []
    calls = _count_transforms(monkeypatch, lambda: certs.append(extract(A.indicator(), B.indicator())))
    assert (certs[0].k <= index) if few else (certs[0].k > g.order // 2)
    assert calls == Counter(forward=transforms, inverse=transforms)


def _count_fft_calls(monkeypatch, g: groups.GroupSpec) -> Counter:
    """The ``np.fft`` calls of one extract on random sets at density 0.1, by name."""
    calls: Counter = Counter()
    for name in FFT_FORWARD + FFT_INVERSE:

        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    extract(A.indicator(), B.indicator())
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "g, want",
    [(Z4096, Counter(rfftn=2, irfftn=2)), (G8884, Counter(rfftn=2, irfftn=2)), (F2_10, Counter())],
    ids=[str(Z4096), str(G8884), str(F2_10)],
)
def test_extract_makes_only_real_input_transforms(monkeypatch, g, want):
    """No length-2 axis: one ``rfftn`` per input and one ``irfftn`` per synthesis.  F_2^10:
    every axis is a sum/difference pass, and no ``np.fft`` call is made."""
    assert _count_fft_calls(monkeypatch, g) == want


RUN_CALLS = [
    ((2, 8, 2, 4), Counter(rfftn=2, fftn=2, ifftn=2, irfft=2)),
    ((3, 2, 5), Counter(rfftn=2, fftn=2, ifftn=2, irfft=2)),
    ((2, 4, 4), Counter(rfftn=2, ifftn=2, irfft=2)),
    ((8, 2), Counter(fftn=2, ifftn=2)),
    ((2, 3, 3, 2, 2), Counter(fftn=2, ifftn=2)),
]


@pytest.mark.parametrize("factors, want", RUN_CALLS, ids=["x".join(map(str, f)) for f, _ in RUN_CALLS])
def test_extract_makes_one_numpy_call_per_run(monkeypatch, factors, want):
    """Length-2 axes beside others: one ``np.fft`` call per maximal run of other axes in each
    transform, none for the length-2 runs.  Forward, the run that holds the last axis is an
    ``rfftn`` and any other an ``fftn``.  Inverse, a run on the input half is an ``ifftn``;
    on the walk's own table, the last axis is an ``irfft``, after an ``ifftn`` in place
    when the last run holds other axes too."""
    assert _count_fft_calls(monkeypatch, groups.GroupSpec(factors)) == want


@pytest.mark.parametrize("g", [Z4096, G8884, groups.GroupSpec((5, 1, 3))], ids=str)
def test_extract_never_calls_the_full_table_routes(monkeypatch, g):
    def refuse(*args, **kwargs):
        raise AssertionError("extract formed a full N-point spectrum")

    for name in ("dft", "triple_spectrum", "idft_real"):
        original = getattr(rfft, name)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "bohrlab"]:
            for site, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, site, refuse)
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    assert extract(A.indicator(), B.indicator()).k >= 1


@pytest.mark.parametrize(
    "factors, kind, k_max, tables",
    [
        ((1 << 16,), "subgroup", 2, 2.5),
        ((1 << 16,), "random", 2, 2.5),
        ((2,) * 16, "subgroup", 2, 3.26),
        ((2,) * 16, "random", 16, 3.76),
    ],
    ids=["subgroup", "random", "F2^16-subgroup", "F2^16-random"],
)
def test_extract_peak_memory_at_small_k(factors, kind, k_max, tables):
    """One extract at small k peaks under ``tables`` tables of 16 N bytes (traced).  On
    Z_2^16: the half tables of f-hat and g-hat, h-hat formed over f-hat's, and one real
    table for h at a time; the full-table route peaked at 3.5 tables.  On F_2^16 the
    bound is the peak of the route that ran numpy's transforms on every axis, 3.26 and
    3.76 tables; the sum/difference passes stay under it."""
    g = groups.GroupSpec(factors)
    if kind == "subgroup":
        A = B = _subgroup(g, 2)
    else:
        A = random_nonempty_subset(g, 0.3, 5)
        B = random_nonempty_subset(g, 0.3, 6)
    fa, fb = A.indicator(), B.indicator()
    extract(fa, fb)  # caches and allocator arenas first
    gc.collect()
    tracemalloc.start()
    try:
        cert = extract(fa, fb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.k <= k_max
    assert peak <= tables * 16 * g.order


def _count_windows(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the ``spectral._translate_windows`` windows drawn from now on, at every binding."""
    windows = []
    original = spectral._translate_windows

    def counted(table, shifts):
        for window in original(table, shifts):
            windows.append(window.shape)
            yield window

    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "bohrlab"]:
        if vars(mod).get("_translate_windows") is original:
            monkeypatch.setattr(mod, "_translate_windows", counted)
    return windows


def test_good_shift_draws_no_translate_window(monkeypatch):
    """The erosion is one exact difference count: no translate per Bohr member."""
    g = groups.GroupSpec((2,) * 10)
    A = _subgroup(g, 2)
    b = extract(A.indicator(), A.indicator()).bohr_char_form
    assert int(members_mask(halve_radius(b)).sum()) == 512
    windows = _count_windows(monkeypatch)
    good = good_shift_set(A, A, b)
    assert np.array_equal(good.mask, A.mask)
    assert windows == []


@pytest.mark.parametrize("g", [groups.GroupSpec((2,) * 10), Z4096], ids=str)
def test_verify_draws_no_translate_window(monkeypatch, g):
    """Containment shifts the members' ranks by a0: no translate window of the member mask."""
    A = _subgroup(g, 2)
    cert = extract(A.indicator(), A.indicator())
    assert int(members_mask(cert.bohr_char_form).sum()) == g.order // 2
    windows = _count_windows(monkeypatch)
    report = verify_certificate(cert, A, A)
    assert report.passed and f"{g.order // 2} members, all contained" in report.checks[1].detail
    assert windows == []


def _fresh(spec: BohrSpec) -> BohrSpec:
    """``spec`` on a new copy of its frequency tuple, so ``members_mask`` walks the whole group."""
    return dataclasses.replace(spec, freqs=groups.CharTuple(spec.freqs.rows))


def test_tiny_radius_membership_is_not_k_by_n(monkeypatch):
    """A char radius of 9.3e-10 on F_2^12 costs about (N + k) d phase cells, not k N d.

    The walk's blocks visit about 2.5 N elements before the survivors fall to
    the 4 members; then the rest of the k rows meet those 4.
    """
    g = groups.GroupSpec((2,) * 12)
    A = subgroup_subset(g, (2,) * 10 + (1, 1))
    cert = extract(A.indicator(), A.indicator())
    assert cert.k == 1024 and cert.bohr_char_form.radius < 1e-9
    cells = []
    original = spectral.phase_blocks

    def counted(grp, *args):
        walk, sent = original(grp, *args), None
        while True:
            try:
                block, table = walk.send(sent)
            except StopIteration:
                return
            cells.append(table.size * grp.ndim)
            sent = yield block, table

    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "bohrlab"]:
        if vars(mod).get("phase_blocks") is original:
            monkeypatch.setattr(mod, "phase_blocks", counted)
    for spec in (cert.bohr_char_form, cert.bohr_torus_form):
        cells.clear()
        assert np.array_equal(members_mask(_fresh(spec)), A.mask)
        assert 0 < sum(cells) <= 4 * (g.order + cert.k) * g.ndim


def test_point_like_membership_walks_few_blocks(monkeypatch):
    """Blocks are sized by the survivors: once the first block leaves a few
    elements, the next covers about N cells, so a point-like Bohr set on Z_2048
    is decided in a few blocks, not the log2 k of blocks that double."""
    g = groups.GroupSpec((2048,))
    A = random_nonempty_subset(g, 0.3, 91)
    B = random_nonempty_subset(g, 0.3, 92)
    cert = extract(A.indicator(), B.indicator())
    assert cert.k > 1000
    blocks = []
    original = spectral.phase_blocks

    def counted(*args):
        walk, sent = original(*args), None
        while True:
            try:
                block, table = walk.send(sent)
            except StopIteration:
                return
            blocks.append(block)
            sent = yield block, table

    monkeypatch.setattr(bohr, "phase_blocks", counted)
    for spec in (cert.bohr_char_form, cert.bohr_torus_form):
        blocks.clear()
        members = members_mask(_fresh(spec))
        assert np.flatnonzero(members).tolist() == [0]
        assert 0 < len(blocks) <= 4
        assert blocks[-1].stop >= cert.k


def _point_like() -> tuple[GroupSubset, GroupSubset]:
    g = groups.GroupSpec((2048,))
    return random_nonempty_subset(g, 0.3, 91), random_nonempty_subset(g, 0.3, 92)


def _tiny_radius() -> tuple[GroupSubset, GroupSubset]:
    A = subgroup_subset(groups.GroupSpec((2,) * 12), (2,) * 10 + (1, 1))
    return A, A


@pytest.mark.parametrize("sets", [_point_like, _tiny_radius], ids=["Z2048-point-like", "F2^12-tiny-radius"])
def test_certificate_forms_walk_the_group_once(monkeypatch, sets):
    """``verify_certificate`` then ``good_shift_set``: the char form walks all N elements
    once, from the cached coordinate table itself; the torus form and the half-radius form
    walk only char-form members, or nothing where their threshold is the char form's."""
    A, B = sets()
    g = A.group
    cert = extract(A.indicator(), B.indicator())
    starts = []
    original = spectral.phase_blocks

    def counted(grp, rows, cols, *args):
        starts.append(cols)
        return original(grp, rows, cols, *args)

    monkeypatch.setattr(bohr, "phase_blocks", counted)
    assert verify_certificate(cert, A, B).passed
    good = good_shift_set(A, B, cert.bohr_char_form)
    monkeypatch.undo()
    assert not (good.mask & ~A.mask).any()
    coords = groups.coords_table(g)
    members = coords[members_mask(cert.bohr_char_form)]
    assert 0 < len(members) < g.order
    assert [len(cols) for cols in starts].count(g.order) == 1 and starts[0] is coords
    for cols in starts[1:]:
        assert (cols[:, None, :] == members[None, :, :]).all(axis=2).any(axis=1).all()


@pytest.mark.parametrize(
    "g", [groups.GroupSpec((97,)), groups.GroupSpec((3 * 97,)), G8884, groups.GroupSpec((2,) * 9)], ids=str,
)
def test_factored_transforms_build_no_phase_table(monkeypatch, g):
    """Every twiddle and prime-length kernel is read off one cached power table."""

    def refuse(*args, **kwargs):
        raise AssertionError("a factored transform built a phase table")

    for mod, name in ((spectral, "phase_blocks"), (spectral, "phase_table"), (groups, "phase_table")):
        monkeypatch.setattr(mod, name, refuse)
    f = spectral.DensityFn(g, np.random.default_rng(9).random(g.order))
    back = spectral.idft_factored(spectral.dft_factored(f))
    assert np.abs(back - f.values).max() < 1e-12



class _SizedJson:
    """``json`` with the length of every text ``loads`` reads recorded."""

    def __init__(self, sizes: list[int]):
        self._sizes = sizes

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, text, **kwargs):
        self._sizes.append(len(text))
        return json.loads(text, **kwargs)


def test_json_loads_never_reads_the_rank_block(monkeypatch):
    """A worst-case cert/2 of k > 60,000 ranks: numpy parses the block, json.loads reads the rest."""
    g = groups.GroupSpec((16,) * 4)
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    cert = extract(A.indicator(), B.indicator())
    text = certificate_to_json(cert)
    assert cert.k > 60_000 and len(text) > 500_000
    sizes: list[int] = []
    monkeypatch.setattr(serialize, "json", _SizedJson(sizes))
    loaded = certificate_from_json(text)
    assert sizes and max(sizes) < 4096
    assert np.array_equal(loaded.s1.rows, cert.s1.rows)


def _spy_rows(monkeypatch, seen: list[tuple[str, np.ndarray]]) -> None:
    """Record the rows that ``groups._check_range`` scans and ``groups.ranks_of_rows`` ranks, at every binding."""

    check_range, ranks_of_rows = groups._check_range, groups.ranks_of_rows

    def scan(g, chars):
        seen.append(("scan", chars.rows))
        return check_range(g, chars)

    def rank(g, rows):
        seen.append(("rank", rows))
        return ranks_of_rows(g, rows)

    monkeypatch.setattr(groups, "_check_range", scan)
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "bohrlab"]:
        for site, value in list(vars(mod).items()):
            if value is ranks_of_rows:
                monkeypatch.setattr(mod, site, rank)


@pytest.mark.parametrize("g", [Z4096, G8884], ids=str)
def test_s1_is_range_checked_and_ranked_at_most_once(monkeypatch, g):
    """Extract, to_json, from_json and verify.  Both S1 tuples, the extracted and the
    loaded one, are built from ranks already checked, so their rows are never scanned
    or ranked: the one check and ranking of S1 is that of its ranks."""
    A = random_nonempty_subset(g, 0.1, 5)
    B = random_nonempty_subset(g, 0.1, 6)
    seen: list[tuple[str, np.ndarray]] = []
    _spy_rows(monkeypatch, seen)
    cert = extract(A.indicator(), B.indicator())
    loaded = certificate_from_json(certificate_to_json(cert))
    assert verify_certificate(loaded, A, B).passed
    # The spy is wired: a polynomial built from its terms scans and ranks its rows through it.
    probe = len(seen)
    TrigPoly.from_terms(g, {groups.Char((1,) * g.ndim): 1.0})
    monkeypatch.undo()
    assert cert.k > 1000 and {what for what, rows in seen[probe:]} == {"scan", "rank"}
    assert [what for what, rows in seen if np.array_equal(rows, cert.s1.rows)] == []


def test_worst_k_round_trip_forms_no_row_table_and_renders_once(monkeypatch):
    """Extract, to_json and from_json at k near N keep S1 as ranks: ``groups.rows_at``
    never runs, and the rank block is rendered once, by the writer; the loader's
    gate checks the block's bytes without rendering it again."""
    A = random_nonempty_subset(G8884, 0.1, 5)
    B = random_nonempty_subset(G8884, 0.1, 6)
    calls: Counter = Counter()
    for mod, name in ((groups, "rows_at"), (serialize, "_render_ranks")):
        original = getattr(mod, name)

        def wrapper(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, wrapper)
    cert = extract(A.indicator(), B.indicator())
    loaded = certificate_from_json(certificate_to_json(cert))
    monkeypatch.undo()
    assert cert.k > 0.9 * G8884.order and loaded.k == cert.k
    assert calls == Counter({"_render_ranks": 1})
    assert np.array_equal(loaded.s1.rows, cert.s1.rows)  # read on demand, outside the count


def test_membership_gathers_loaded_rows_from_the_coordinate_table(monkeypatch):
    """Verify and good shifts on a loaded worst-k certificate, whose S1 holds ranks only:
    membership reads S1's rows as one gather from the coordinate table, and
    ``groups.rows_at`` never runs."""
    A = random_nonempty_subset(G8884, 0.1, 5)
    B = random_nonempty_subset(G8884, 0.1, 6)
    cert = extract(A.indicator(), B.indicator())
    loaded = certificate_from_json(certificate_to_json(cert))
    calls: Counter = Counter()
    original = groups.rows_at

    def counted(*args):
        calls["rows_at"] += 1
        return original(*args)

    monkeypatch.setattr(groups, "rows_at", counted)
    assert verify_certificate(loaded, A, B).passed
    assert good_shift_set(A, B, loaded.bohr_char_form)
    monkeypatch.undo()
    assert cert.k > 0.9 * G8884.order and calls == Counter()
    assert np.array_equal(loaded.s1.rows, original(G8884, groups.char_ranks(G8884, loaded.s1)))


def test_a_checked_tuple_is_still_refused_by_a_smaller_group(monkeypatch):
    A = random_nonempty_subset(G8884, 0.1, 5)
    B = random_nonempty_subset(G8884, 0.1, 6)
    s1 = extract(A.indicator(), B.indicator()).s1
    seen: list[tuple[str, np.ndarray]] = []
    _spy_rows(monkeypatch, seen)
    assert groups.char_tuple(G8884, s1) is s1 and seen == []
    smaller = groups.GroupSpec((8, 8, 8, 2))
    assert (s1.rows[:, -1] >= 2).any()
    with pytest.raises(ShapeError):
        groups.char_tuple(smaller, s1)
    with pytest.raises(ShapeError):
        BohrSpec(smaller, s1, 0.1, FORM_CHAR)
    assert groups.char_tuple(G8884, s1) is s1
    assert np.array_equal(groups.char_ranks(G8884, s1), groups.ranks_of_rows(G8884, s1.rows))
