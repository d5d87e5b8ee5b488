"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Each test computes its verdict, records a single PASS/FAIL line (echoed in the
terminal summary), then asserts.  The seeded trial grid is shared by the
criteria that quantify over "every certificate".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from bohrlab.bohr import bohr_enumerate
from bohrlab.claim import Certificate
from bohrlab.cli import main as cli_main
from bohrlab.extractor import extract
from bohrlab.groups import GroupSpec
from bohrlab.serialize import certificate_from_json, certificate_to_json
from bohrlab.sets import GroupSubset, random_nonempty_subset, sumset_ABmB, write_set_file
from bohrlab.rfft import dft, fourier_identity_suite, triple_convolve
from bohrlab.spectral import DensityFn, dft_definitional
from bohrlab.verify import (
    VerificationReport,
    good_shift_set,
    verify_certificate,
)

MASTER_SEED = 20260823

GRID_SIZES = (32, 64, 256, 1024)
GRID_DENSITIES = (0.1, 0.2, 0.3, 0.5)
TRIALS_PER_CELL = 13  # 4 x 4 x 13 = 208 certificates


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Trial:
    n: int
    delta: float
    index: int
    cert: Certificate
    report: VerificationReport
    good: GroupSubset
    a_size: int


@pytest.fixture(scope="module")
def grid():
    trials: list[Trial] = []
    t0 = time.perf_counter()
    for n in GRID_SIZES:
        g = GroupSpec((n,))
        for d in GRID_DENSITIES:
            dkey = int(round(d * 10**9))
            for i in range(TRIALS_PER_CELL):
                A = random_nonempty_subset(g, d, _seed(MASTER_SEED, n, dkey, i, 0))
                B = random_nonempty_subset(g, d, _seed(MASTER_SEED, n, dkey, i, 1))
                cert = extract(A.indicator(), B.indicator())
                report = verify_certificate(cert, A, B)
                good = good_shift_set(A, B, cert.bohr_char_form)
                trials.append(Trial(n, d, i, cert, report, good, A.size))
    elapsed = time.perf_counter() - t0
    return trials, elapsed


def test_criterion_1_spectral_bounds(grid, criterion_log):
    trials, elapsed = grid
    bad = []
    for t in trials:
        delta = t.cert.delta
        ok = (
            t.cert.k <= 16.0 * delta**-5
            and t.cert.h_at_a0 >= delta**4 - 1e-9
            and t.cert.c >= 0.5 * delta**4 - 1e-9
            and t.cert.bohr_torus_form.radius >= delta**9 / (64 * math.pi) - 1e-12
        )
        if not ok:
            bad.append(t)
    status = "PASS" if not bad and elapsed < 60.0 else "FAIL"
    criterion_log(
        f"criterion 1: {status} - {len(trials) - len(bad)}/{len(trials)} certificates "
        f"met k<=16d^-5, h(a0)>=d^4-1e-9, c>=d^4/2-1e-9, eta>=d^9/(64pi)-1e-12; "
        f"grid ran in {elapsed:.1f}s (< 60s)"
    )
    assert not bad
    assert elapsed < 60.0


def test_criterion_2_containment(grid, criterion_log):
    trials, _ = grid
    failed = [
        t for t in trials
        if not any(c.name == "containment" and c.passed for c in t.report.checks)
    ]
    status = "PASS" if not failed else "FAIL"
    criterion_log(
        f"criterion 2: {status} - exhaustive containment a0+Bohr inside A+B-B held "
        f"in {len(trials) - len(failed)}/{len(trials)} trials"
    )
    assert not failed


def test_criterion_3_support_equals_sumset(criterion_log):
    sizes = (8, 16, 32, 64, 128, 256)
    pairs_per_size = 100
    mismatches = 0
    total = 0
    for n in sizes:
        g = GroupSpec((n,))
        for i in range(pairs_per_size):
            rng = np.random.default_rng(_seed(MASTER_SEED, 3, n, i))
            density = float(rng.uniform(0.05, 0.6))
            A = GroupSubset(g, rng.random(n) < density)
            B = GroupSubset(g, rng.random(n) < density)
            h = triple_convolve(A.indicator(), B.indicator())
            support = h.values > 1.0 / (2 * n**2)
            total += 1
            if not np.array_equal(support, sumset_ABmB(A, B).mask):
                mismatches += 1
    status = "PASS" if mismatches == 0 else "FAIL"
    criterion_log(
        f"criterion 3: {status} - supp(f*g*g~) matched the enumerated sumset exactly "
        f"(threshold 1/(2N^2)) in {total - mismatches}/{total} random pairs, N in {sizes}"
    )
    assert mismatches == 0


def test_criterion_4_fourier_identities(criterion_log):
    worst_suite = 0.0
    for n in (64, 256, 4096):
        report = fourier_identity_suite(GroupSpec((n,)), trials=50, seed=_seed(MASTER_SEED, 4, n))
        worst_suite = max(worst_suite, max(report.max_errors.values()))
    worst_def = 0.0
    for factors in [(8,), (60,), (128,), (500,), (512,), (8, 8, 8)]:
        g = GroupSpec(factors)
        rng = np.random.default_rng(_seed(MASTER_SEED, 4, g.order, 99))
        f = DensityFn(g, rng.random(g.order))
        err = float(np.abs(dft(f).coeffs - dft_definitional(f).coeffs).max())
        worst_def = max(worst_def, err)
    ok = worst_suite <= 1e-9 and worst_def <= 1e-9
    status = "PASS" if ok else "FAIL"
    criterion_log(
        f"criterion 4: {status} - identity-suite max error {worst_suite:.2e} <= 1e-9 "
        f"(50 trials at N=64,256,4096); fast-vs-definitional max {worst_def:.2e} <= 1e-9 (N <= 512)"
    )
    assert ok


def test_criterion_5_worked_example_regression(criterion_log):
    import pathlib

    g = GroupSpec((8,))
    evens = GroupSubset.from_ranks(g, [0, 2, 4, 6])
    cert = extract(evens.indicator(), evens.indicator())
    data = pathlib.Path(__file__).parent / "data"
    golden, golden_v1 = data / "z8_evens_cert2.json", data / "z8_evens_cert.json"
    exact = (
        tuple(t.freq for t in cert.s1) == ((0,), (4,))
        and cert.a0.coords == (0,)
        and cert.h_at_a0 == 0.25
        and cert.c == 15 / 64
        and cert.k == 2
        and sorted(m.coords[0] for m in bohr_enumerate(cert.bohr_char_form)) == [0, 2, 4, 6]
    )
    bytes_match = (
        certificate_to_json(cert).encode()
        == golden.read_bytes()
        == certificate_to_json(certificate_from_json(golden_v1.read_text())).encode()
    )
    status = "PASS" if exact and bytes_match else "FAIL"
    criterion_log(
        f"criterion 5: {status} - Z8 evens extraction reproduced S1={{0,4}}, a0=0, "
        f"h(a0)=1/4, c=15/64, k=2, members {{0,2,4,6}} and matched the cert/2 golden file "
        f"byte for byte, as did the cert/1 golden file loaded and written out"
    )
    assert exact
    assert bytes_match


def test_criterion_6_remainder_bound(grid, criterion_log):
    trials, _ = grid
    bad = [
        t for t in trials
        if t.cert.bounds["remainder"].value > 0.25 * t.cert.delta**4 + 1e-9
        or not any(c.name == "remainder-bound" and c.passed for c in t.report.checks)
    ]
    status = "PASS" if not bad else "FAIL"
    criterion_log(
        f"criterion 6: {status} - max|r| <= delta^4/4 + 1e-9 on "
        f"{len(trials) - len(bad)}/{len(trials)} trials (fast and definitional routes)"
    )
    assert not bad


def test_criterion_7_good_shifts(grid, criterion_log):
    trials, _ = grid
    bad = [
        t for t in trials
        if t.good.size == 0 or not t.good.contains(t.cert.a0)
    ]
    # subgroup example: fraction exactly 1
    g = GroupSpec((8,))
    evens = GroupSubset.from_ranks(g, [0, 2, 4, 6])
    cert = extract(evens.indicator(), evens.indicator())
    frac = good_shift_set(evens, evens, cert.bohr_char_form).size / evens.size
    fractions = [t.good.size / t.a_size for t in trials]
    ok = not bad and frac == 1.0
    status = "PASS" if ok else "FAIL"
    criterion_log(
        f"criterion 7: {status} - good-shift set nonempty and contains a0 in "
        f"{len(trials) - len(bad)}/{len(trials)} trials; subgroup example fraction {frac}; "
        f"observed fractions span [{min(fractions):.3f}, {max(fractions):.3f}] (reported, not thresholded)"
    )
    assert ok


def test_criterion_8_performance(tmp_path, criterion_log):
    g = GroupSpec((65536,))
    A = random_nonempty_subset(g, 0.3, _seed(MASTER_SEED, 8, 0))
    B = random_nonempty_subset(g, 0.3, _seed(MASTER_SEED, 8, 1))
    t0 = time.perf_counter()
    cert = extract(A.indicator(), B.indicator())
    elapsed = time.perf_counter() - t0

    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    args = ["sweep", "--n", "32,64", "--delta", "0.3,0.5", "--trials", "3", "--seed", "9"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc1 = cli_main(args + ["--out", str(serial), "--jobs", "1"])
        rc2 = cli_main(args + ["--out", str(parallel), "--jobs", "2"])
    identical = serial.read_bytes() == parallel.read_bytes()
    ok = elapsed < 5.0 and rc1 == 0 and rc2 == 0 and identical
    status = "PASS" if ok else "FAIL"
    criterion_log(
        f"criterion 8: {status} - N=65536 extraction took {elapsed:.2f}s (< 5s, k={cert.k}); "
        f"parallel sweep output byte-identical to serial: {identical}"
    )
    assert ok


def _corrupt_spectrum(payload: dict, rng: np.random.Generator) -> None:
    """Tamper with one claimed spectrum entry, which both forms share.

    Swaps the entry for a frequency outside the claim when one exists; for
    dense sets the claim can already saturate the dual group, in which case
    the entry is dropped instead (the claim then under-covers the spectrum).
    On Z_n a character's rank is its frequency.
    """
    n = int(payload["group"].split("x")[0])
    s1 = payload["s1_ranks"]
    idx = int(rng.integers(len(s1)))
    existing = set(s1)
    spare = [v for v in range(n) if v not in existing]
    if spare:
        s1[idx] = int(spare[int(rng.integers(len(spare)))])
    else:
        del s1[idx]


def test_criterion_9_fault_injection(tmp_path, criterion_log):
    # base pool: the Z8 subgroup pair plus seeded random pairs
    bases = []
    specs = [
        ("8", [0, 2, 4, 6], [0, 2, 4, 6]),
    ]
    for j, (n, d) in enumerate([(32, 0.3), (32, 0.5), (64, 0.2), (64, 0.4)]):
        g = GroupSpec((n,))
        A = random_nonempty_subset(g, d, _seed(MASTER_SEED, 9, j, 0))
        B = random_nonempty_subset(g, d, _seed(MASTER_SEED, 9, j, 1))
        specs.append((str(n), list(A.ranks()), list(B.ranks())))
    for j, (group, aranks, branks) in enumerate(specs):
        g = GroupSpec((int(group),))
        A = GroupSubset.from_ranks(g, aranks)
        B = GroupSubset.from_ranks(g, branks)
        apath, bpath = tmp_path / f"a{j}.txt", tmp_path / f"b{j}.txt"
        write_set_file(A, apath)
        write_set_file(B, bpath)
        cert = extract(A.indicator(), B.indicator())
        bases.append((json.loads(certificate_to_json(cert)), str(apath), str(bpath)))

    detected = 0
    mutations = 50
    outcomes = []
    for m in range(mutations):
        payload, apath, bpath = bases[m % len(bases)]
        tampered = json.loads(json.dumps(payload))  # deep copy
        rng = np.random.default_rng(np.random.SeedSequence([MASTER_SEED, 9, m]))
        kind = m % 3
        if kind == 0:
            _corrupt_spectrum(tampered, rng)
        elif kind == 1:
            r = float(tampered["bohr_char_form"]["radius"])
            tampered["bohr_char_form"]["radius"] = format(2 * r, ".17g")
        else:
            r = float(tampered["bohr_torus_form"]["radius"])
            tampered["bohr_torus_form"]["radius"] = format(2 * r, ".17g")
        path = tmp_path / f"mut{m}.json"
        path.write_text(json.dumps(tampered))
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
            code = cli_main(["verify", "--cert", str(path), "--set-a", apath, "--set-b", bpath])
        outcomes.append(code)
        if code == 1:
            detected += 1
    status = "PASS" if detected == mutations else "FAIL"
    criterion_log(
        f"criterion 9: {status} - {detected}/{mutations} seeded mutations "
        f"(spectrum corruption, radius doubling) exited 1 from cmd_verify"
    )
    assert detected == mutations, outcomes
