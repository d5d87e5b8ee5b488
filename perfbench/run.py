"""Benchmark for bohrlab's public pipeline: extract -> JSON round trip -> verify -> good shift.

Run from the repository root:

    python3 perfbench/run.py --workload extract_worst_k --seed 1 --seconds 22 --trace 0

The library is imported from ``src/`` next to this directory; nothing needs
building.  Load model: one process, one caller, closed loop -- the next
instance starts when the previous one has finished and been checked.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs every instance twice, untraced and then traced with the
outside-in span recorder of ``tracer.py``, and reports per-layer metrics,
tracing overhead and coverage.  Either way every output is checked; the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``), and the exit status is 1 if any instance failed.
"""

from __future__ import annotations

import os

# numpy's OpenBLAS reads this once, when numpy is first imported.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # this process, then two fresh child processes in turn
CALIBRATE_EVERY_S = 1.0  # least wall time between two samples of the host's slowness
WORKLOAD_NAMES = ("extract_worst_k", "extract_easy_k", "verify_random", "sweep_structured")

# Which end-to-end metric each layer metric should move, written down before
# anyone optimises: (layer metrics, should move, on workload, should stay flat on).
LAYER_MAP = (
    ("groups.elem_char.*, extractor.trigpoly.s, extractor.self_s",
     "instance_cal_s, extract_p50_s", "extract_worst_k", "extract_easy_k, sweep_structured"),
    ("serialize.*", "instance_cal_s, instance_p50_s", "extract_worst_k", "extract_easy_k"),
    ("spectral.fft.*", "instance_cal_s, extract_p50_s", "extract_easy_k", "verify_random"),
    ("spectral.definitional.*, groups.phase_table.*", "instance_cal_s, verify_p50_s",
     "verify_random (and sweep_structured at d <= 10)", "extract_*"),
    ("bohr.members_mask.peak_mb, groups.phase_table.cells", "peak_rss_mb, verify_p50_s",
     "verify_random (4-factor shape)", "sweep_structured"),
    ("sets.sumset.*, verify.good_shift.*, spectral.conv_translates", "instance_cal_s, instance_p50_s",
     "sweep_structured", "extract_*"),
)

# Time metrics that read exactly 0 on the extract-only workloads, where their
# layer never runs.  They are printed but left out of the JSON line, whose
# per-layer metrics must be measured values on every workload.
PRINTED_ONLY = {
    "groups.phase_table.self_s", "spectral.definitional.self_s", "bohr.members_mask.self_s",
    "sets.sumset.self_s", "verify.verify_certificate.self_s", "verify.good_shift.self_s",
}


# The library's own certificate_to_json, kept before any tracer wraps it: the
# round-trip check calls it after the clock stops, and leaves no span.
check_to_json = None


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no ``src/bohrlab``)."""


@dataclass
class Result:
    label: str
    times: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    cert_bytes: int = 0
    k: int = 0
    checks_failed: int = 0
    failure: str | None = None
    cert: object = None  # kept only while the traced run still needs it


def import_library():
    if not (SRC / "bohrlab" / "__init__.py").is_file():
        raise SetupError(f"no bohrlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bohrlab

    if not Path(bohrlab.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported bohrlab from {bohrlab.__file__}, not from {SRC}")
    global check_to_json
    check_to_json = bohrlab.certificate_to_json
    return bohrlab


def run_instance(bl, inst, full: bool) -> Result:
    """One pass of the workload's pipeline through the public API, then its checks.

    Library functions are looked up on the package at call time, so the
    tracer's wrappers are the ones called while it is active.  Garbage is
    collected before the clock starts, so every instance begins from the same
    collector state instead of paying for its predecessors' cycles.
    """
    res = Result(inst.label)
    g = bl.GroupSpec(inst.factors)
    A, B = bl.GroupSubset(g, inst.a), bl.GroupSubset(g, inst.b)
    fa, fb = A.indicator(), B.indicator()
    clock = time.perf_counter
    report = good = None
    gc.collect()
    try:
        c0 = time.process_time()
        t0 = clock()
        cert = bl.extract(fa, fb)
        t1 = clock()
        text = bl.certificate_to_json(cert)
        loaded = bl.certificate_from_json(text)
        t2 = clock()
        if full:
            report = bl.verify_certificate(loaded, A, B)
            res.times["verify"] = clock() - t2
            good = bl.good_shift_set(A, B, loaded.bohr_char_form)
        res.times.update(extract=t1 - t0, instance=clock() - t0, instance_cpu=time.process_time() - c0)
        again = check_to_json(loaded)
    except Exception as exc:  # an instance that raises is a failed instance, not a crash
        res.failure = f"{type(exc).__name__}: {exc}"
        return res
    raw = text.encode()
    res.digest = hashlib.sha256(raw).hexdigest()
    res.cert_bytes = len(raw)
    res.k = cert.k
    res.cert = loaded
    if not all(check.ok for check in cert.bounds.values()):
        res.failure = "a self-checked bound is not ok"
    elif again != text:
        res.failure = "JSON round trip is not byte-exact"
    elif report is not None and not report.passed:
        res.checks_failed = sum(not c.passed for c in report.checks)
        res.failure = f"verification failed: {report.first_failure().name}"
    elif good is not None and (good.mask & ~A.mask).any():
        res.failure = "good-shift set is not a subset of A"
    return res


def setup(bl, workload) -> None:
    """Warm-up: one instance per group shape, so caches and allocator arenas
    are filled before anything is timed."""
    for inst in workload.warmup():
        res = run_instance(bl, inst, workload.full_pipeline)
        if res.failure:
            raise SetupError(f"warm-up instance {inst.factors} failed: {res.failure}")


def child_setups(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(n):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise SetupError("set-up child timed out") from exc
        if done.returncode != 0:
            raise SetupError(f"set-up child exited with {done.returncode}: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def bohr_members(cert) -> int:
    """Members of the certificate's char-form Bohr set, counted from outside.

    Uses the same phase formula as ``bohrlab.groups.phase_table`` but filters
    candidates frequency block by frequency block, so a point-like set with
    k ~ N costs O(N) instead of the O(kN) table ``members_mask`` would build.
    """
    import numpy as np

    b = cert.bohr_char_form
    factors = np.asarray(b.group.factors, dtype=np.int64)
    cand = np.indices(b.group.factors, dtype=np.int64).reshape(factors.size, -1).T
    freqs = np.asarray([t.freq for t in b.freqs], dtype=np.int64).reshape(-1, factors.size)
    start = 0
    while start < len(freqs) and len(cand) > 0:
        rows = freqs[start : start + max(1, (1 << 22) // (len(cand) * factors.size))]
        phases = (((rows[:, None, :] * cand[None, :, :]) % factors) / factors).sum(axis=2) % 1.0
        cand = cand[(2.0 * np.sin(np.pi * phases) < b.radius).all(axis=0)]
        start += len(rows)
    return len(cand)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (pct, value).

    None below 20 samples, where that percentile would not reach the median.
    """
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_rounds(workload, seed: int, seconds: float, per_instance) -> None:
    """Round 0 whole, then instances until ``seconds`` of wall time have passed."""
    from workloads import round_instances

    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for inst in round_instances(workload, seed, r):
            if r > 0 and time.perf_counter() >= deadline:
                return
            per_instance(r, inst)
        r += 1


def digests(results: list[Result], window: int) -> dict[str, str]:
    def combined(rs):
        h = hashlib.sha256()
        for r in rs:
            h.update(r.digest.encode())
        return h.hexdigest()

    return {"round0": combined(results[:window]), "all": combined(results)}


def timing_lines(results: list[Result], key: str) -> list[str]:
    values = [r.times[key] for r in results if key in r.times]
    if not values:
        return [f"  {key}_*: absent (this workload does not call it)"]
    lines = [
        f"  {key}_mean_s: {statistics.fmean(values):.6f} s (n={len(values)})",
        f"  {key}_p50_s: {statistics.median(values):.6f} s (n={len(values)})",
    ]
    t = tail(values)
    if t is None:
        lines.append(f"  {key}_tail_s: absent (n={len(values)}; a tail needs at least 20 samples)")
    else:
        lines.append(f"  {key}_tail_s: {t[1]:.6f} s (p{t[0]:.1f}, n={len(values)})")
    return lines


def untraced(bl, workload, args, setup_s: float) -> tuple[dict, list[Result]]:
    import calibrate

    results: list[Result] = []

    slow: list[float] = []
    sampled_at = float("-inf")

    def step(r, inst):
        # The host's slowness is sampled between instances, at most once per
        # CALIBRATE_EVERY_S of wall time, so short instances do not pay for
        # a sample each.
        nonlocal sampled_at
        if time.perf_counter() - sampled_at >= CALIBRATE_EVERY_S:
            slow.append(calibrate.slowness())
            sampled_at = time.perf_counter()
        res = run_instance(bl, inst, workload.full_pipeline)
        res.cert = None
        results.append(res)

    run_rounds(workload, args.seed, args.seconds, step)
    ok = [r for r in results if r.failure is None]
    if not ok:
        return {}, results
    # The one gated timing is the CPU time of an instance, balanced over the
    # round: the mean per shape (or family), then the mean of those, so a run
    # that stops mid-round weighs every shape alike.  The median of the raw
    # mix would jump between the cost clusters of its shapes, and a median
    # per shape jumps between the costs of its few, differently drawn inputs.
    # CPU time, unlike wall time, leaves out the time the host takes the CPU
    # away; dividing it by the run's median slowness takes out the host's
    # drift in speed (calibrate.py).
    cpu = defaultdict(list)
    for r in ok:
        cpu[r.label].append(r.times["instance_cpu"])
    busy = sum(r.times["instance"] for r in ok)
    cpu_s = statistics.fmean(statistics.fmean(v) for v in cpu.values())
    slowness = statistics.median(slow)
    print(f"  instances_per_s: {len(ok) / busy:.6f} 1/s (wall clock, n={len(ok)})")
    print(f"  instance_cpu_s: {cpu_s:.6f} s (not calibrated)")
    print(f"  host slowness: {slowness:.4f} (median of {len(slow)} samples; 1.0 is the nominal speed)")
    metrics = {
        "instance_cal_s": (cpu_s / slowness, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for key in ("extract", "verify", "instance"):
        print("\n".join(timing_lines(ok, key)))
    return metrics, results


def traced(bl, workload, args) -> tuple[dict, list[Result]]:
    import tracer

    rec = tracer.Recorder()
    tr = tracer.Tracer(rec)
    plain: list[Result] = []
    results: list[Result] = []
    members: list[tuple[int, int]] = []  # (Bohr members, group order), round 0 only

    def step(r, inst):
        i = len(results)

        def traced_pass():
            with tr.active(i):
                return run_instance(bl, inst, workload.full_pipeline)

        # Alternate which pass goes first, so that neither always runs warm.
        if i % 2:
            res = traced_pass()
            base = run_instance(bl, inst, workload.full_pipeline)
        else:
            base = run_instance(bl, inst, workload.full_pipeline)
            res = traced_pass()
        if res.failure is None and res.digest != base.digest:
            res.failure = "traced certificate differs from the untraced one"
        if r == 0 and res.cert is not None:
            members.append((bohr_members(res.cert), res.cert.group.order))
        res.cert = base.cert = None
        plain.append(base)
        results.append(res)

    run_rounds(workload, args.seed, args.seconds, step)
    if not tr.restored():
        raise RuntimeError("tracer left a wrapper installed")
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{workload.name}.npz")

    window = list(range(workload.round_size))
    first = results[: len(window)]
    spans = tracer.span_totals(rec)
    counted = tracer.span_totals(rec, window)
    paired = [(p, t) for p, t in zip(plain, results) if p.failure is None and t.failure is None]
    if not paired:
        return {}, results

    # Counts are per instance over round 0, so they repeat exactly for a seed;
    # times are per instance over every traced instance.
    def calls(names):
        return tracer.family(rec, counted["calls"], names) / len(window)

    def work(key):
        return sum(rec.counts[i][key] for i in window) / len(window)

    def self_s(names):
        return tracer.family(rec, spans["self"], names) / len(results)

    def total_s(names):
        return tracer.family(rec, spans["total"], names) / len(results)

    sizes = [m for m, _ in members]
    peaks = [p for i in window for p in rec.member_peaks[i]]
    untraced_s = sum(p.times["instance"] for p, _ in paired)
    traced_s = sum(t.times["instance"] for _, t in paired)
    metrics = {
        "groups.elem_char.calls": (calls(tracer.ELEM_CHAR), "count"),
        "groups.elem_char.self_s": (self_s(tracer.ELEM_CHAR), "s"),
        "groups.phase_table.calls": (calls({"groups.phase_table"}), "count"),
        "groups.phase_table.self_s": (self_s({"groups.phase_table"}), "s"),
        "groups.phase_table.cells": (work("groups.phase_table.cells"), "count"),
        "spectral.fft.calls": (calls(tracer.FFT), "count"),
        "spectral.fft.self_s": (self_s(tracer.FFT), "s"),
        "spectral.definitional.calls": (calls(tracer.DEFINITIONAL), "count"),
        "spectral.definitional.self_s": (self_s(tracer.DEFINITIONAL), "s"),
        "spectral.conv_translates": (work("spectral.conv_translates"), "count"),
        "bohr.members_mask.calls": (calls({"bohr.members_mask"}), "count"),
        "bohr.members_mask.self_s": (self_s({"bohr.members_mask"}), "s"),
        "bohr.members_mask.peak_mb": (max(peaks, default=0.0), "MB"),
        "bohr.members_p50": (statistics.median(sizes) if sizes else 0.0, "count"),
        "bohr.point_frac": (sizes.count(1) / len(sizes) if sizes else 0.0, "frac"),
        "sets.sumset.calls": (calls({"sets.sumset_ABmB"}), "count"),
        "sets.sumset.self_s": (self_s({"sets.sumset_ABmB"}), "s"),
        "sets.sumset.translates": (work("sets.sumset.translates"), "count"),
        "extractor.self_s": (self_s({n for n in rec.names if n.startswith("extractor.")}), "s"),
    }
    for stage in tracer.STAGES:
        metrics[f"extractor.{stage}.s"] = (total_s({f"extractor.{stage}"}), "s")
    metrics.update({
        "extractor.trigpoly.s": (total_s(tracer.TRIGPOLY), "s"),
        "extractor.k_p50": (statistics.median(r.k for r in first), "count"),
        "verify.verify_certificate.self_s": (self_s({"verify.verify_certificate"}), "s"),
        "verify.good_shift.self_s": (self_s({"verify.good_shift_set"}), "s"),
        "verify.good_shift.translates": (work("verify.good_shift.translates"), "count"),
        "verify.checks_failed": (sum(r.checks_failed for r in first), "count"),
        "serialize.to_json.s": (total_s({"serialize.certificate_to_json"}), "s"),
        "serialize.from_json.s": (total_s({"serialize.certificate_from_json"}), "s"),
        "serialize.cert_bytes_p50": (statistics.median(r.cert_bytes for r in first), "bytes"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
        "trace.coverage_frac": (spans["top_level_s"] / traced_s, "frac"),
    })
    classes = ["point" if m == 1 else "whole" if m == n else "proper" for m, n in members]
    print(f"  round 0 Bohr members: {sizes}, classes: {classes}")
    print(f"  spans: {len(rec.start)} over {len(results)} traced instances, written to {OUT.name}/")
    return metrics, results


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    bl = import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup(bl, workload)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] if args.trace else [setup_s] + child_setups(args, SETUP_SAMPLES - 1)

    print(f"bohrlab benchmark: {json.dumps(environment(args))}")
    print(f"  why: {workload.why}")
    print(f"  load: closed loop, 1 process, 1 caller; rounds of {workload.round_size} instances")
    print(f"  setup_s samples: {[round(s, 4) for s in setups]}")
    if args.trace:
        metrics, results = traced(bl, workload, args)
        for row in LAYER_MAP:
            print("  layer map: {} -> {} on {}; flat on {}".format(*row))
    else:
        metrics, results = untraced(bl, workload, args, statistics.median(setups))
    failed = [r for r in results if r.failure is not None]
    d = digests(results, workload.round_size)
    print(f"  failed_frac: {len(failed) / len(results):.6f} ({len(failed)}/{len(results)})")
    for r in failed[:5]:
        print(f"  FAILED {r.label}: {r.failure}")
    print(f"  certificate digest, round 0: {d['round0']}")
    print(f"  certificate digest, all {len(results)} in run order: {d['all']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
