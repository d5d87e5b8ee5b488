"""Command-line front end: extract certificates, verify them, run sweeps.

Exit codes: 0 success, 1 a verification (or sweep row) failed, 2 bad input
(running out of memory included), 3 an internal invariant broke.  All
randomness is seeded and every output is byte-deterministic for fixed
arguments, including parallel sweeps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .claim import bound_limit
from .errors import (
    AmbiguousBoundary,
    CapacityError,
    DomainError,
    InvariantBreach,
    PreconditionError,
    RetryExhausted,
    ShapeError,
)
from .extractor import extract
from .groups import GroupSpec, parse_group, require_within_cap
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    fmt_real,
    report_to_json,
)
from .sets import random_nonempty_subset, read_set_file
from .verify import good_shift_set, verify_certificate

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Running out of memory means the input is too large to process: bad input too.
_INPUT_ERRORS = (DomainError, ShapeError, CapacityError, MemoryError)
_INTERNAL_ERRORS = (InvariantBreach, AmbiguousBoundary, RetryExhausted, PreconditionError)

_SWEEP_COLUMNS = (
    "N",
    "delta",
    "trial",
    "k",
    "k_limit",
    "c",
    "eta",
    "h_at_a0",
    "good_shift_fraction",
    "pass",
    "error",
)


def _cmd_extract(args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    A = read_set_file(args.set_a, g)
    B = read_set_file(args.set_b, g)
    cert = extract(A.indicator(), B.indicator())
    Path(args.out).write_text(certificate_to_json(cert), encoding="utf-8")
    print(
        f"wrote certificate for {g}: k={cert.k}, c={fmt_real(cert.c)}, "
        f"eta={fmt_real(cert.bohr_torus_form.radius)} -> {args.out}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cert = certificate_from_json(Path(args.cert).read_text(encoding="utf-8"))
    require_within_cap(cert.group)  # before the set files are read into N-sized masks
    A = read_set_file(args.set_a, cert.group)
    B = read_set_file(args.set_b, cert.group)
    report = verify_certificate(cert, A, B)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "passed", "detail"])
        for check in report.checks:
            writer.writerow([check.name, str(check.passed).lower(), check.detail])
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(report_to_json(report))
    if report.passed:
        return EXIT_OK
    fail = report.first_failure()
    print(f"verification failed: {fail.name}: {fail.detail}", file=sys.stderr)
    return EXIT_FAILED


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _sweep_trial(n: int, delta: float, trial: int, master_seed: int) -> dict:
    """One (N, delta, trial) cell; failures land in the row, not as exceptions.

    ``error`` is empty on success and ``ExcType: message`` when the cell
    raised, running out of memory included.
    """
    g = GroupSpec((n,))
    delta_key = int(round(delta * 10**9))
    row: dict = {
        "N": n,
        "delta": delta,
        "trial": trial,
        "k": None,
        "k_limit": bound_limit("dimension", delta),
        "c": None,
        "eta": None,
        "h_at_a0": None,
        "good_shift_fraction": None,
        "pass": False,
        "error": "",
    }
    try:
        A = random_nonempty_subset(g, delta, _derive_seed(master_seed, n, delta_key, trial, 0))
        B = random_nonempty_subset(g, delta, _derive_seed(master_seed, n, delta_key, trial, 1))
        cert = extract(A.indicator(), B.indicator())
        report = verify_certificate(cert, A, B)
        good = good_shift_set(A, B, cert.bohr_char_form)
        row.update(
            {
                "k": cert.k,
                "c": cert.c,
                "eta": cert.bohr_torus_form.radius,
                "h_at_a0": cert.h_at_a0,
                "good_shift_fraction": good.size / A.size,
                "pass": report.passed,
            }
        )
    except (*_INPUT_ERRORS, *_INTERNAL_ERRORS) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        out = []
        for col in _SWEEP_COLUMNS:
            val = row[col]
            if val is None:
                out.append("")
            elif isinstance(val, bool):
                out.append(str(val).lower())
            elif isinstance(val, float):
                out.append(fmt_real(val))
            else:
                out.append(str(val))
        writer.writerow(out)
    return buf.getvalue()


def _rows_to_json(rows: list[dict]) -> str:
    return json.dumps({"rows": rows}, indent=2) + "\n"


def _parse_list(text: str, convert) -> list:
    """Comma-separated values through ``convert``; blank parts are skipped."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(convert(part))
        except ValueError as exc:
            raise DomainError(f"not a valid {convert.__name__}: {part!r}") from exc
    if not out:
        raise DomainError(f"empty list: {text!r}")
    return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    ns = _parse_list(args.n, int)
    deltas = _parse_list(args.delta, float)
    for n in ns:
        if n < 1:
            raise DomainError(f"group order must be >= 1, got {n}")
    for d in deltas:
        if not 0.0 < d <= 1.0:
            raise DomainError(f"density must lie in (0, 1], got {d}")
        if not math.isfinite(bound_limit("dimension", d)):
            raise DomainError(f"density {d} is too small: its dimension bound k_limit has no float value")
    if args.trials < 1:
        raise DomainError(f"need at least one trial, got {args.trials}")
    if args.seed < 0:
        raise DomainError(f"seed must be non-negative, got {args.seed}")
    if args.jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {args.jobs}")

    tasks = [
        (n, d, t, args.seed) for n in ns for d in deltas for t in range(args.trials)
    ]
    columns = zip(*tasks)
    # At most one worker per cell and per CPU: the pool forks every worker at its first task.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        rows = list(map(_sweep_trial, *columns))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_trial, *columns, chunksize=1))
    rows.sort(key=lambda r: (r["N"], r["delta"], r["trial"]))

    text = _rows_to_json(rows) if args.format == "json" else _rows_to_csv(rows)
    Path(args.out).write_text(text, encoding="utf-8")
    failed = sum(1 for r in rows if not r["pass"])
    print(f"wrote {len(rows)} rows to {args.out}; {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Extract and verify Bohr-neighborhood certificates for "
        "sumsets A+B-B on finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="extract a certificate from two set files")
    ex.add_argument("--group", required=True, help="group factors, e.g. '8' or '4x3'")
    ex.add_argument("--set-a", dest="set_a", required=True, help="set file for A")
    ex.add_argument("--set-b", dest="set_b", required=True, help="set file for B")
    ex.add_argument("--out", required=True, help="output certificate path")
    ex.set_defaults(func=_cmd_extract)

    ve = sub.add_parser("verify", help="re-check a certificate against set files")
    ve.add_argument("--cert", required=True, help="certificate JSON path")
    ve.add_argument("--set-a", dest="set_a", required=True, help="set file for A")
    ve.add_argument("--set-b", dest="set_b", required=True, help="set file for B")
    ve.add_argument("--format", choices=("json", "csv"), default="json")
    ve.set_defaults(func=_cmd_verify)

    sw = sub.add_parser("sweep", help="randomized extract+verify sweep over a grid")
    sw.add_argument("--n", required=True, help="comma-separated cyclic orders")
    sw.add_argument("--delta", required=True, help="comma-separated densities")
    sw.add_argument("--trials", type=int, required=True)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True, help="output report path")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per cell and CPU")
    sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
