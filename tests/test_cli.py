"""Exit codes, file round trips, and sweep determinism through the CLI."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import pathlib

import pytest

from bohrlab.cli import main
from bohrlab.groups import GroupSpec
from bohrlab.serialize import certificate_from_json, certificate_to_json, fmt_real
from bohrlab.sets import GroupSubset, subgroup_subset, write_set_file


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def evens_file(tmp_path):
    path = tmp_path / "evens.txt"
    write_set_file(GroupSubset.from_ranks(GroupSpec((8,)), [0, 2, 4, 6]), path)
    return str(path)


@pytest.fixture()
def evens_cert_file(tmp_path, evens_file):
    out = str(tmp_path / "cert.json")
    code, _, _ = run_cli("extract", "--group", "8", "--set-a", evens_file, "--set-b", evens_file, "--out", out)
    assert code == 0
    return out


def test_extract_writes_valid_certificate(evens_cert_file):
    cert = certificate_from_json(open(evens_cert_file).read())
    assert cert.c == 15 / 64
    assert cert.k == 2


def test_extract_deterministic_bytes(tmp_path, evens_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli("extract", "--group", "8", "--set-a", evens_file, "--set-b", evens_file, "--out", a)[0] == 0
    assert run_cli("extract", "--group", "8", "--set-a", evens_file, "--set-b", evens_file, "--out", b)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_extract_bad_group_exits_2(evens_file, tmp_path):
    code, _, err = run_cli("extract", "--group", "zebra", "--set-a", evens_file, "--set-b", evens_file, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in err


def test_extract_empty_set_exits_2(tmp_path, evens_file):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run_cli("extract", "--group", "8", "--set-a", str(empty), "--set-b", evens_file, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "EmptyInputError" in err


def test_extract_out_of_range_exits_2(tmp_path, evens_file):
    oor = tmp_path / "oor.txt"
    oor.write_text("11\n")
    code, _, _ = run_cli("extract", "--group", "8", "--set-a", str(oor), "--set-b", evens_file, "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_extract_missing_file_exits_2(tmp_path, evens_file):
    code, _, _ = run_cli("extract", "--group", "8", "--set-a", str(tmp_path / "nope.txt"), "--set-b", evens_file, "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_extract_out_of_memory_exits_2(monkeypatch, tmp_path, evens_file):
    from bohrlab import cli

    def no_room(*args):
        raise MemoryError("Unable to allocate 931. GiB")

    monkeypatch.setattr(cli, "extract", no_room)
    code, _, err = run_cli("extract", "--group", "8", "--set-a", evens_file, "--set-b", evens_file, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert err == "error: MemoryError: Unable to allocate 931. GiB\n"


def test_verify_valid_exits_0(evens_cert_file, evens_file):
    code, out, _ = run_cli("verify", "--cert", evens_cert_file, "--set-a", evens_file, "--set-b", evens_file)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


@pytest.mark.parametrize("n", [15, 16])
def test_verify_tiny_radius_subgroup_certificate_exits_0(tmp_path, n):
    # A = an order-4 subgroup of F_2^n: a true certificate whose char radius,
    # 1.8e-12 on F_2^15 and 2.3e-13 on F_2^16, is far below any nonzero distance.
    group = "x".join(["2"] * n)
    sets, cert = str(tmp_path / "a.txt"), str(tmp_path / "cert.json")
    write_set_file(subgroup_subset(GroupSpec((2,) * n), (2,) * (n - 2) + (1, 1)), sets)
    assert run_cli("extract", "--group", group, "--set-a", sets, "--set-b", sets, "--out", cert)[0] == 0
    assert certificate_from_json(open(cert).read()).bohr_char_form.radius < 2e-12
    code, out, err = run_cli("verify", "--cert", cert, "--set-a", sets, "--set-b", sets)
    assert code == 0, err
    report = json.loads(out)
    assert report["passed"] is True
    assert any(c["detail"] == "4 members, all contained after shifting by a0" for c in report["checks"])


def test_verify_csv_format(evens_cert_file, evens_file):
    code, out, _ = run_cli("verify", "--cert", evens_cert_file, "--set-a", evens_file, "--set-b", evens_file, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "passed", "detail"]
    assert all(row[1] == "true" for row in rows[1:])
    assert len(rows) == 12  # header + 11 checks


def test_verify_tampered_radius_exits_1(tmp_path, evens_cert_file, evens_file):
    payload = json.loads(open(evens_cert_file).read())
    radius = float(payload["bohr_char_form"]["radius"])
    payload["bohr_char_form"]["radius"] = format(2 * radius, ".17g")
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    code, _, err = run_cli("verify", "--cert", str(tampered), "--set-a", evens_file, "--set-b", evens_file)
    assert code == 1
    assert "radius-consistency" in err


def _set_bound(name, key, value):
    def tamper(bounds):
        bounds[name][key] = value

    return tamper


def _add_bound(bounds):
    bounds["extra"] = dict(bounds["remainder"])


@pytest.mark.parametrize(
    "tamper, check, entry",
    [
        (_set_bound("c_lower", "ok", False), "level-value", "c_lower is not ok"),
        (_set_bound("c_lower", "value", "123"), "level-value", "c_lower has value 123.0"),
        (_set_bound("dimension", "limit", "1"), "dimension-bound", "dimension has limit 1.0"),
        (_set_bound("witness_value", "limit", "1"), "witness-value", "witness_value has limit 1.0"),
        (_set_bound("c_lower", "limit", "1"), "level-value", "c_lower has limit 1.0"),
        (_set_bound("torus_radius", "limit", "1"), "radius-consistency", "torus_radius has limit 1.0"),
        (_set_bound("remainder", "limit", "1"), "remainder-bound", "remainder has limit 1.0"),
        (_add_bound, "forms-and-centers", "'extra'"),
        (dict.clear, "dimension-bound", "dimension is missing"),
    ],
    ids=[
        "c_lower not ok", "c_lower value", "dimension limit", "witness_value limit", "c_lower limit",
        "torus_radius limit", "remainder limit", "extra bound", "empty bounds",
    ],
)
def test_verify_tampered_bounds_block_exits_1(tmp_path, tamper, check, entry):
    g = GroupSpec((8, 8))
    sets, cert = str(tmp_path / "a.txt"), tmp_path / "cert.json"
    write_set_file(GroupSubset.from_ranks(g, [r for r in range(64) if r % 2 == 0 and r // 8 % 2 == 0]), sets)
    assert run_cli("extract", "--group", "8x8", "--set-a", sets, "--set-b", sets, "--out", str(cert))[0] == 0
    assert run_cli("verify", "--cert", str(cert), "--set-a", sets, "--set-b", sets)[0] == 0
    payload = json.loads(cert.read_text())
    tamper(payload["bounds"])
    cert.write_text(json.dumps(payload))
    code, _, err = run_cli("verify", "--cert", str(cert), "--set-a", sets, "--set-b", sets)
    assert code == 1
    assert err.startswith(f"verification failed: {check}: ")
    assert entry in err


@pytest.mark.parametrize(
    "key, value, check",
    [("form", "torus-norm", "forms-and-centers"), ("radius", "5e-324", "radius-consistency")],
    ids=["relabelled torus", "subnormal radius"],
)
def test_verify_tampered_char_form_exits_1(tmp_path, evens_cert_file, evens_file, key, value, check):
    # Refuted, not refused as bad input: the char form is read as it stands, never
    # converted by char_form_to_torus_form, which raises on both.
    payload = json.loads(open(evens_cert_file).read())
    payload["bohr_char_form"][key] = value
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    code, _, err = run_cli("verify", "--cert", str(tampered), "--set-a", evens_file, "--set-b", evens_file)
    assert code == 1
    assert err.startswith(f"verification failed: {check}: ")


def test_verify_mismatched_group_exits_2(tmp_path, evens_cert_file):
    big = tmp_path / "big.txt"
    big.write_text("11\n")  # rank 11 cannot live in a group of order 8
    code, _, _ = run_cli("verify", "--cert", evens_cert_file, "--set-a", str(big), "--set-b", str(big))
    assert code == 2


def test_verify_garbage_cert_exits_2(tmp_path, evens_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli("verify", "--cert", str(bad), "--set-a", evens_file, "--set-b", evens_file)
    assert code == 2
    bad.write_text(json.dumps({"schema": "other/9"}))
    code, _, _ = run_cli("verify", "--cert", str(bad), "--set-a", evens_file, "--set-b", evens_file)
    assert code == 2


def test_sweep_writes_sorted_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        "sweep", "--n", "64,32", "--delta", "0.5,0.3", "--trials", "2",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,delta,trial,k,k_limit,c,eta,h_at_a0,good_shift_fraction,pass,error"
    assert len(lines) == 1 + 2 * 2 * 2
    keys = []
    for line in lines[1:]:
        parts = line.split(",")
        keys.append((int(parts[0]), float(parts[1]), int(parts[2])))
        assert parts[-2:] == ["true", ""]
    assert keys == sorted(keys)


def test_sweep_k_limit_is_the_dimension_bound(tmp_path):
    out = tmp_path / "sweep.csv"
    deltas = (0.5, 0.3, 0.25, 0.7)
    code, _, _ = run_cli(
        "sweep", "--n", "16,9", "--delta", ",".join(map(str, deltas)), "--trials", "1",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2 * len(deltas)
    for row in rows:
        delta = float(row["delta"])
        assert row["k_limit"] == fmt_real(16.0 * delta**-5)


def test_sweep_seed_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--n", "32", "--delta", "0.4", "--trials", "3", "--seed", "7")
    assert run_cli(*args, "--out", str(a))[0] == 0
    assert run_cli(*args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--n", "32,16", "--delta", "0.4", "--trials", "2", "--seed", "3")
    assert run_cli(*args, "--out", str(a), "--jobs", "1")[0] == 0
    assert run_cli(*args, "--out", str(b), "--jobs", "2")[0] == 0
    assert a.read_bytes() == b.read_bytes()


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "n, trials, jobs, cpus, size",
    [
        ("16", 1, 100000, 64, None),  # one cell runs in this process, whatever --jobs says
        ("16,8", 2, 100000, 64, 4),  # one worker per cell
        ("16,8", 2, 100000, 3, 3),  # one worker per CPU
        ("16,8", 2, 2, 64, 2),  # --jobs
        ("16,8", 2, 8, None, None),  # an unknown CPU count counts as one
    ],
)
def test_sweep_workers_are_bounded(monkeypatch, tmp_path, n, trials, jobs, cpus, size):
    from bohrlab import cli

    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: _SerialPool(sizes, max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--n", n, "--delta", "0.5", "--trials", str(trials), "--seed", "4")
    assert run_cli(*args, "--out", str(a), "--jobs", str(jobs))[0] == 0
    assert sizes == ([] if size is None else [size])
    assert run_cli(*args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def _sweep_rows_with_failing_n(monkeypatch, tmp_path, name, exc):
    """Sweep N = 16, 32 with ``bohrlab.cli.<name>`` raising ``exc`` on Z_16 only."""
    from bohrlab import cli

    real = getattr(cli, name)

    def failing_on_16(first, *args):
        if first.group.order == 16:
            raise exc
        return real(first, *args)

    monkeypatch.setattr(cli, name, failing_on_16)
    out = tmp_path / "sweep.json"
    code, stdout, _ = run_cli(
        "sweep", "--n", "16,32", "--delta", "0.5", "--trials", "2",
        "--seed", "1", "--out", str(out), "--format", "json",
    )
    assert code == 1
    assert "2 failed" in stdout
    return json.loads(out.read_text())["rows"]


def test_sweep_row_records_ambiguous_boundary(monkeypatch, tmp_path):
    from bohrlab.errors import AmbiguousBoundary

    rows = _sweep_rows_with_failing_n(
        monkeypatch, tmp_path, "good_shift_set", AmbiguousBoundary("distance 2.0 is on the radius")
    )
    for row in rows:
        if row["N"] == 16:
            assert row["pass"] is False
            assert row["error"] == "AmbiguousBoundary: distance 2.0 is on the radius"
        else:
            assert row["pass"] is True and row["error"] == ""


def test_sweep_row_records_memory_error(monkeypatch, tmp_path):
    rows = _sweep_rows_with_failing_n(monkeypatch, tmp_path, "extract", MemoryError("no room"))
    for row in rows:
        if row["N"] == 16:
            assert row["pass"] is False and row["k"] is None
            assert row["error"] == "MemoryError: no room"
        else:
            assert row["pass"] is True and row["error"] == ""


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        "sweep", "--n", "16", "--delta", "0.5", "--trials", "2",
        "--seed", "1", "--out", str(out), "--format", "json",
    )
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2
    assert rows[0]["N"] == 16
    assert rows[0]["pass"] is True


def test_sweep_zero_trials_exits_2(tmp_path):
    code, _, _ = run_cli("sweep", "--n", "16", "--delta", "0.5", "--trials", "0", "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_bad_lists_exit_2(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("sweep", "--n", "16,zap", "--delta", "0.5", "--trials", "1", "--seed", "1", "--out", out)[0] == 2
    assert run_cli("sweep", "--n", "16", "--delta", "1.7", "--trials", "1", "--seed", "1", "--out", out)[0] == 2
    assert run_cli("sweep", "--n", "16", "--delta", "0.5", "--trials", "1", "--seed", "-4", "--out", out)[0] == 2


@pytest.mark.parametrize("delta", ["1e-62", "5e-324"])
def test_sweep_delta_without_a_finite_k_limit_exits_2(tmp_path, delta):
    # 16 delta^-5 overflows a float: the density is refused as bad input, before any row runs.
    out = tmp_path / "x.csv"
    code, _, err = run_cli("sweep", "--n", "8", "--delta", delta, "--trials", "1", "--seed", "1", "--out", str(out))
    assert code == 2, err
    assert "DomainError" in err and "k_limit" in err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_help_exits_0():
    code, out, _ = run_cli("--help")
    assert code == 0


def test_missing_required_flag_exits_2():
    code, _, _ = run_cli("extract", "--group", "8")
    assert code == 2


def test_verify_ambiguous_boundary_exits_1(tmp_path, evens_cert_file, evens_file):
    # Radius 2 equals |chi_4(1) - 1| exactly: membership of 1 is undecidable.
    import math

    payload = json.loads(open(evens_cert_file).read())
    payload["bohr_char_form"]["radius"] = "2"
    payload["bohr_torus_form"]["radius"] = format(2 / (2 * math.pi), ".17g")
    tampered = tmp_path / "ambiguous.json"
    tampered.write_text(json.dumps(payload))
    code, out, err = run_cli("verify", "--cert", str(tampered), "--set-a", evens_file, "--set-b", evens_file)
    assert code == 1, err
    assert "internal error" not in err
    assert "undecidable" in err
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert checks["undecidable"] is False
    assert "containment" not in checks


@pytest.mark.parametrize("command", ["extract", "verify"])
@pytest.mark.parametrize(
    "text",
    ["[[1.5]]", '[["a"]]', "[[NaN]]", "[[Infinity]]", "[[1e400]]"],
    ids=["float", "string", "NaN", "Infinity", "1e400"],
)
def test_set_file_coordinate_must_be_a_json_integer(tmp_path, evens_cert_file, evens_file, command, text):
    # Read as the certificate loader reads a0: [[1.5]] is refused, not read as element 1, and
    # NaN, Infinity and 1e400 are refused as bad input, not raised as ValueError or OverflowError.
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "extract":
        argv = ["extract", "--group", "8", "--out", str(tmp_path / "x.json")]
    else:
        argv = ["verify", "--cert", evens_cert_file]
    code, _, err = run_cli(*argv, "--set-a", str(bad), "--set-b", evens_file)
    assert code == 2, err
    assert err.startswith("error: DomainError: ") and "bad.json" in err and "must be a list of integers" in err


DATA = pathlib.Path(__file__).parent / "data"
GOLDEN1 = (DATA / "z8_evens_cert.json").read_text()  # cert/1
GOLDEN2 = (DATA / "z8_evens_cert2.json").read_text()  # cert/2, rank block [0, 4]


def _edited(text, key, value):
    payload = json.loads(text)
    payload[key] = value
    return json.dumps(payload, indent=2)


# Certificate texts on the loader's rarer paths, each with its exit code and a piece of its
# message; a lenient case (exit 0) loads to the golden certificate itself.
LOADER_CASES = {
    "delta as a JSON number": (GOLDEN2.replace('"delta": "0.5"', '"delta": 0.5'), 0, ""),
    "rank block separator moved": (GOLDEN2.replace("0,\n    4\n  ]", "0\n    ,4\n  ]"), 0, ""),
    "rank block with a leading zero": (
        GOLDEN2.replace("0,\n    4\n  ]", "0,\n   04\n  ]"), 2, "invalid certificate JSON",
    ),
    "text outside the rank block not JSON": (GOLDEN2 + "x", 2, "invalid certificate JSON: Extra data"),
    "a0 entry not an integer": (
        GOLDEN2.replace('"a0": [\n    0\n  ]', '"a0": [\n    "0"\n  ]'), 2, "a0 must be a list of integers",
    ),
    "cert/1 s1 not a list": (_edited(GOLDEN1, "s1", 7), 2, "S1 entry rows must be a list, got 7"),
    "Bohr form not an object": (_edited(GOLDEN2, "bohr_char_form", [1]), 2, "malformed Bohr spec object: [1]"),
    "certificate not an object": ("[1, 2]\n", 2, "certificate must be a JSON object"),
    # Radius 2 ties |chi_4(2) - 1| = 2: the screen names frequency 4 of an S1 loaded as ranks only.
    "tie named from ranks": (
        GOLDEN2.replace('"radius": "0.1171875"', '"radius": "2"'), 1, "at element rank 1 (frequency 4)",
    ),
}


@pytest.mark.parametrize("name", list(LOADER_CASES))
def test_verify_loader_paths(tmp_path, evens_file, name):
    text, want, message = LOADER_CASES[name]
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code, _, err = run_cli("verify", "--cert", str(cert), "--set-a", evens_file, "--set-b", evens_file)
    assert code == want, err
    assert message in err and "internal error" not in err
    if want == 0:
        assert certificate_to_json(certificate_from_json(text)) == GOLDEN2
