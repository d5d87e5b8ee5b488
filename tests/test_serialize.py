"""Certificate JSON: byte identity with the stdlib layout, exact round trips,
the loader's outcomes on malformed S1 ranks, frequency rows and witnesses (in
compact JSON and in the writer's layout, whose rank block numpy parses), the
two loader routes agreeing on edited rank blocks, cert/1 files loading as
their cert/2 certificates, and the extract -> JSON -> verify contract over
random multi-factor groups."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bohrlab import serialize, verify
from bohrlab.cli import main
from bohrlab.errors import DomainError, ShapeError
from bohrlab.extractor import extract, normalize_means
from bohrlab.groups import Char, GroupSpec, char_eval, char_ranks, rank_of_char, rows_at
from bohrlab.rfft import dft
from bohrlab.serialize import (
    certificate_from_dict,
    certificate_from_json,
    certificate_to_json,
    fmt_real,
    report_to_json,
)
from bohrlab.sets import GroupSubset, write_set_file
from bohrlab.verify import verify_certificate

GOLDEN = pathlib.Path(__file__).parent / "data" / "z8_evens_cert.json"  # cert/1
GOLDEN2 = pathlib.Path(__file__).parent / "data" / "z8_evens_cert2.json"
Z8 = GroupSpec((8,))
EVENS = GroupSubset.from_ranks(Z8, [0, 2, 4, 6])

GROUPS = st.one_of(
    st.lists(st.integers(2, 9), min_size=1, max_size=4).map(tuple),
    st.integers(2, 512).map(lambda n: (n,)),
    st.sampled_from([(2,) * 10, (3,) * 6, (2,) * 8, (4, 2, 2, 2, 2, 2, 2, 2)]),
)


def scalar_level(cert, A, B) -> float:
    """Re q(a0) by the scalar route: one coeff * char_eval term per S1 character,
    summed left to right in rank order from -delta^4 / 4."""
    f1, g1, delta = normalize_means(A.indicator(), B.indicator())
    hhat = dft(f1).coeffs * np.abs(dft(g1).coeffs) ** 2
    acc = complex(-0.25 * delta**4)
    for t in sorted(cert.s1, key=lambda t: rank_of_char(cert.group, t)):
        acc += complex(hhat[rank_of_char(cert.group, t)]) * char_eval(cert.group, t, cert.a0)
    return acc.real


def _exact_size_subset(g: GroupSpec, density: float, rng) -> GroupSubset:
    mask = np.zeros(g.order, dtype=bool)
    mask[rng.choice(g.order, size=max(1, round(density * g.order)), replace=False)] = True
    return GroupSubset(g, mask)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(factors=(4, 4, 4), density_a=1.0, density_b=1.0, seed=3)  # k = 1
@example(factors=(2,) * 10, density_a=0.02, density_b=0.02, seed=3)  # k close to N
@given(
    factors=GROUPS,
    density_a=st.floats(0.02, 1.0),
    density_b=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_json_is_stdlib_layout_and_round_trips(factors, density_a, density_b, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    A, B = (_exact_size_subset(g, d, rng) for d in (density_a, density_b))
    cert = extract(A.indicator(), B.indicator())
    text = certificate_to_json(cert)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert certificate_to_json(certificate_from_json(text)) == text
    assert cert.c == scalar_level(cert, A, B)


def test_loader_shares_one_character_tuple():
    for golden in (GOLDEN, GOLDEN2):
        cert = certificate_from_json(golden.read_text())
        assert cert.bohr_char_form.freqs is cert.s1
        assert cert.bohr_torus_form.freqs is cert.s1
        assert certificate_to_json(cert) == GOLDEN2.read_text()


def test_writer_handles_user_built_tuples():
    cert = certificate_from_json(GOLDEN.read_text())
    plain = tuple(cert.s1)  # not a CharTuple: converted where the certificate is built
    forms = [dataclasses.replace(b, freqs=plain) for b in (cert.bohr_char_form, cert.bohr_torus_form)]
    rebuilt = dataclasses.replace(cert, s1=plain, bohr_char_form=forms[0], bohr_torus_form=forms[1])
    assert certificate_to_json(rebuilt) == GOLDEN2.read_text()


# Every power of ten and its predecessor up to int64, so a list crosses each digit width.
DIGIT_EDGES = sorted({0, 2**32 - 1, 2**32, 2**63 - 1} | {10**p + e for p in range(19) for e in (-1, 0)})
RANK_LISTS = st.lists(
    st.one_of(st.sampled_from(DIGIT_EDGES), st.integers(0, 2**63 - 1), st.integers(0, 99)),
    min_size=1,
    max_size=60,
)


def _rendered(ranks) -> str:
    """The writer's rank block for ``ranks``, its chunks joined as the writer joins them."""
    return b"".join(serialize._render_ranks(np.asarray(ranks, dtype=np.int64))).decode("ascii")


def _dumps_block(ranks: list) -> str:
    """The rank list's block as ``json.dumps(..., indent=2)`` lays it out in a certificate."""
    head, tail = '{\n  "s1_ranks": ', "\n}"
    text = json.dumps({"s1_ranks": ranks}, indent=2)
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head) : -len(tail)]


@settings(max_examples=200, deadline=None)
@example(ranks=[])
@example(ranks=[0])
@example(ranks=[7])
@example(ranks=[5, 5, 5])
@example(ranks=[0, 0])
@example(ranks=[0, 0, 9, 9, 10, 10, 99, 100, 100, 999, 1000])
@example(ranks=[9, 10, 99, 100, 999, 1000, 9999, 10000])
@example(ranks=[100, 9, 10, 0, 99, 1000])
@example(ranks=DIGIT_EDGES)
@example(ranks=DIGIT_EDGES[::-1])
@example(ranks=[2**63 - 1, 0])
@example(ranks=[0, 2**63 - 1, 2**63 - 1])
@given(ranks=st.one_of(RANK_LISTS, RANK_LISTS.map(sorted)))
def test_rank_renderer_is_the_join(ranks):
    # Sorted lists go by digit-count runs, any other by the join; both are json.dumps's block.
    want = _dumps_block(ranks)
    assert _rendered(ranks) == want
    if ranks:
        assert want == "[\n    " + ",\n    ".join(map(str, ranks)) + "\n  ]"
    assert json.loads(want) == ranks


def test_rank_renderer_writes_an_empty_list_as_json_does():
    assert _rendered([]) == json.dumps([], indent=2)


def test_loader_takes_all_bool_and_empty_rank_lists():
    bools = certificate_from_json(_tampered(_set_ranks([True, False, True]), GOLDEN2.read_text()))
    assert bools.s1.rows.ravel().tolist() == [1, 0, 1]
    assert json.loads(certificate_to_json(bools))["s1_ranks"] == [1, 0, 1]
    empty = certificate_from_json(_tampered(_set_ranks([]), GOLDEN2.read_text()))
    assert empty.s1.rows.shape == (0, 1)
    assert empty.bohr_char_form.freqs is empty.s1
    assert '"s1_ranks": [],' in certificate_to_json(empty)


def test_writer_refuses_a_form_off_s1():
    cert = certificate_from_json(GOLDEN2.read_text())
    form = dataclasses.replace(cert.bohr_torus_form, freqs=cert.s1[:1])
    with pytest.raises(DomainError):
        certificate_to_json(dataclasses.replace(cert, bohr_torus_form=form))


def _cert1_text(cert) -> str:
    """The cert/1 layout: S1 and both forms' frequencies written out as lists of rows."""
    rows = cert.s1.rows.tolist()
    forms = {
        key: {"form": b.form, "freqs": rows, "radius": fmt_real(b.radius), "center": list(b.center.coords)}
        for key, b in (("bohr_char_form", cert.bohr_char_form), ("bohr_torus_form", cert.bohr_torus_form))
    }
    payload = {
        "schema": "bohrlab-cert/1", "group": str(cert.group), "delta": fmt_real(cert.delta),
        "a0": list(cert.a0.coords), "s1": rows, "c": fmt_real(cert.c), "k": cert.k,
        "h_at_a0": fmt_real(cert.h_at_a0), **forms,
        "bounds": {
            name: {"value": fmt_real(b.value), "limit": fmt_real(b.limit), "ok": b.ok}
            for name, b in cert.bounds.items()
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def test_cert1_writer_reproduces_the_cert1_golden():
    assert _cert1_text(certificate_from_json(GOLDEN2.read_text())) == GOLDEN.read_text()


# --- malformed frequency rows and witnesses --------------------------------------

def _tampered(edit, text: str | None = None, indent: int | None = None) -> str:
    """The edited certificate as compact JSON, or with ``indent=2`` in the writer's layout."""
    payload = json.loads(GOLDEN.read_text() if text is None else text)
    edit(payload)
    return json.dumps(payload) if indent is None else json.dumps(payload, indent=indent) + "\n"


def _set_freqs(rows):
    def edit(p):
        p["bohr_char_form"]["freqs"] = rows
        p["bohr_torus_form"]["freqs"] = rows

    return edit


def _set_s1(rows):
    def edit(p):
        p["s1"] = rows

    return edit


def _set_a0(coords):
    def edit(p):
        p["a0"] = coords

    return edit


def _set_field(value, *keys):
    def edit(p):
        for key in keys[:-1]:
            p = p[key]
        p[keys[-1]] = value

    return edit


def _set_all(rows):
    def edit(p):
        _set_s1(rows)(p)
        _set_freqs(rows)(p)

    return edit


def _set_ranks(ranks):
    def edit(p):
        p["s1_ranks"] = ranks

    return edit


def _drop_ranks(p):
    del p["s1_ranks"]


# Once refused only by the verifier, after its O(N^2) transforms; now refused at load.
LOAD_TIME_REFUSALS = [
    ("negative s1 entry", _set_s1([[0], [-4]]), ShapeError),
    ("wrong-length rows in s1", _set_s1([[0, 0], [4, 0]]), ShapeError),
    ("zero-width row in s1", _set_s1([[]]), ShapeError),
    ("out-of-range a0", _set_a0([8]), ShapeError),
    ("wrong-length a0", _set_a0([0, 0]), ShapeError),
]

LOAD_ERRORS = LOAD_TIME_REFUSALS + [
    ("float entry in s1", _set_s1([[0], [4.0]]), DomainError),
    ("float entry in freqs", _set_freqs([[0], [4.0]]), DomainError),
    ("string row in s1", _set_s1([[0], "4"]), DomainError),
    ("string row in freqs", _set_freqs(["0", [4]]), DomainError),
    ("string entry in freqs", _set_freqs([[0], ["4"]]), DomainError),
    ("ragged row in freqs", _set_freqs([[0], [4, 1]]), ShapeError),
    ("wrong-length rows in freqs", _set_freqs([[0, 0], [4, 0]]), ShapeError),
    ("out-of-range freqs", _set_freqs([[0], [8]]), ShapeError),
    ("integer >= 2^63 in freqs", _set_freqs([[0], [2**63]]), ShapeError),
    ("integer >= 2^63 in s1", _set_s1([[0], [2**63]]), ShapeError),
    ("ragged rows in s1", _set_s1([[0], [4, 0]]), ShapeError),
    ("float k", _set_field(2.9, "k"), DomainError),
    ("string k", _set_field("2", "k"), DomainError),
    ("string ok", _set_field("false", "bounds", "dimension", "ok"), DomainError),
    ("list bounds", _set_field([], "bounds"), DomainError),
    ("string bounds", _set_field("x", "bounds"), DomainError),
    ("integer group", _set_field(8, "group"), DomainError),
]

# cert/2 writes S1 once, as a flat list of ranks; these edit the cert/2 golden.
CERT2_LOAD_TIME_REFUSALS = [
    ("negative rank", _set_ranks([0, -4]), ShapeError),
    ("rank equal to N", _set_ranks([0, 8]), ShapeError),
]

CERT2_LOAD_ERRORS = CERT2_LOAD_TIME_REFUSALS + [
    ("float rank", _set_ranks([0, 4.0]), DomainError),
    ("string rank", _set_ranks([0, "4"]), DomainError),
    ("nested list of ranks", _set_ranks([[0], [4]]), DomainError),
    ("rank 2^63", _set_ranks([0, 2**63]), ShapeError),
    ("rank 2^64", _set_ranks([0, 2**64]), ShapeError),
    ("missing s1_ranks", _drop_ranks, DomainError),
    ("list bounds, cert/2", _set_field([], "bounds"), DomainError),
    ("string bounds, cert/2", _set_field("x", "bounds"), DomainError),
    ("integer group, cert/2", _set_field(8, "group"), DomainError),
]

# (golden file, label, edit, error)
CASES = [(GOLDEN, *c) for c in LOAD_ERRORS] + [(GOLDEN2, *c) for c in CERT2_LOAD_ERRORS]
REFUSALS = [(GOLDEN, *c) for c in LOAD_TIME_REFUSALS] + [(GOLDEN2, *c) for c in CERT2_LOAD_TIME_REFUSALS]


@pytest.mark.parametrize("golden,label,edit,error", CASES, ids=[c[1] for c in CASES])
def test_loader_rejects_malformed_rows(golden, label, edit, error):
    with pytest.raises(error):
        certificate_from_json(_tampered(edit, golden.read_text()))


@pytest.mark.parametrize("golden,label,edit,error", CASES, ids=[c[1] for c in CASES])
def test_loader_rejects_malformed_rows_in_the_writer_layout(golden, label, edit, error):
    with pytest.raises(error):
        certificate_from_json(_tampered(edit, golden.read_text(), indent=2))


def test_loader_accepts_bools_as_ints():
    for golden, edit in ((GOLDEN, _set_all([[False], [4]])), (GOLDEN2, _set_ranks([False, 4]))):
        cert = certificate_from_json(_tampered(edit, golden.read_text()))
        assert [t.freq for t in cert.s1] == [(0,), (4,)]
        assert certificate_to_json(cert) == GOLDEN2.read_text()
        assert verify_certificate(cert, EVENS, EVENS).passed


def test_negative_s1_entry_is_refused_at_load():
    with pytest.raises(ShapeError):
        certificate_from_json(_tampered(_set_s1([[0], [-4]])))
    cert = certificate_from_json(GOLDEN.read_text())
    with pytest.raises(ShapeError):
        dataclasses.replace(cert, s1=(Char((0,)), Char((-4,))))


def _no_transform_work(*args, **kwargs):
    raise AssertionError("a transform ran on a malformed certificate")


@pytest.mark.parametrize("golden,label,edit,error", REFUSALS, ids=[c[1] for c in REFUSALS])
def test_malformed_certificate_is_refused_before_any_transform(monkeypatch, golden, label, edit, error):
    monkeypatch.setattr(verify, "dft_factored", _no_transform_work)
    monkeypatch.setattr(verify, "representation_counts", _no_transform_work)
    with pytest.raises(error):
        verify_certificate(certificate_from_json(_tampered(edit, golden.read_text())), EVENS, EVENS)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize("golden,label,edit,error", CASES, ids=[c[1] for c in CASES])
def test_cli_verify_exits_2_on_malformed_rows(tmp_path, golden, label, edit, error):
    sets = tmp_path / "evens.txt"
    write_set_file(EVENS, sets)
    cert = tmp_path / "cert.json"
    cert.write_text(_tampered(edit, golden.read_text()))
    code, err = run_cli("verify", "--cert", str(cert), "--set-a", str(sets), "--set-b", str(sets))
    assert code == 2, err
    assert error.__name__ in err


# --- properties over random multi-factor groups, N <= 512 ------------------------

SMALL_GROUPS = st.one_of(
    st.lists(st.integers(2, 8), min_size=2, max_size=4)
    .map(tuple)
    .filter(lambda f: math.prod(f) <= 512),
    st.integers(2, 512).map(lambda n: (n,)),
    st.sampled_from([(2,) * 9, (3,) * 5, (4, 2, 2, 2, 2, 2, 2)]),
)
INSTANCES = dict(
    factors=SMALL_GROUPS,
    density_a=st.floats(0.02, 1.0),
    density_b=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def _instance(factors, density_a, density_b, seed):
    g = GroupSpec(factors)
    rng = np.random.default_rng(seed)
    A, B = (_exact_size_subset(g, d, rng) for d in (density_a, density_b))
    return A, B, rng


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INSTANCES)
def test_verify_passes_what_extract_certifies(factors, density_a, density_b, seed):
    A, B, _ = _instance(factors, density_a, density_b, seed)
    assert verify_certificate(extract(A.indicator(), B.indicator()), A, B).passed


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INSTANCES)
def test_cert1_file_loads_as_its_cert2_certificate(factors, density_a, density_b, seed):
    A, B, _ = _instance(factors, density_a, density_b, seed)
    cert = extract(A.indicator(), B.indicator())
    loaded = certificate_from_json(_cert1_text(cert))
    assert certificate_to_json(loaded) == certificate_to_json(cert)
    assert report_to_json(verify_certificate(loaded, A, B)) == report_to_json(
        verify_certificate(cert, A, B)
    )


# --- the loader's two routes: the writer's rank block parsed by numpy, or json.loads ---

_BLOCK_HEAD = '  "s1_ranks": [\n'


def _respell_rank(spell):
    """Rewrite one line of the rank block, rank r to ``spell(r)``, leaving the layout as it is."""

    def edit(text: str, i: int) -> str:
        head = text.index(_BLOCK_HEAD) + len(_BLOCK_HEAD)
        end = text.index("\n  ]", head)
        lines = text[head:end].split("\n")
        j = i % len(lines)
        rank = lines[j].strip().rstrip(",")
        lines[j] = lines[j].replace(rank, spell(int(rank)), 1)
        return text[:head] + "\n".join(lines) + text[end:]

    return edit


def _reseparate(separator: str):
    """Write the separator after rank line ``i`` (of a block of two or more) as ``separator``."""

    def edit(text: str, i: int) -> str:
        head = text.index(_BLOCK_HEAD) + len("  \"s1_ranks\": [\n    ")
        end = text.index("\n  ]", head)
        ranks = text[head:end].split(",\n    ")
        if len(ranks) < 2:
            return text
        j = i % (len(ranks) - 1)
        body = ",\n    ".join(ranks[: j + 1]) + separator + ",\n    ".join(ranks[j + 1 :])
        return text[:head] + body + text[end:]

    return edit


def _close_one_space(text: str, i: int) -> str:
    head = text.index(_BLOCK_HEAD)
    end = text.index("\n  ]", head)
    return text[:end] + "\n ]" + text[end + len("\n  ]") :]


FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))


def _reindent(indent):
    return lambda text, i: json.dumps(json.loads(text), indent=indent) + "\n"


def _duplicate_after(text: str, i: int) -> str:
    """A second top-level ``s1_ranks`` at the end, in the writer's layout, which overrides the first."""
    ranks = json.loads(text)["s1_ranks"]
    return text[: text.rindex("\n}")] + ',\n  "s1_ranks": ' + _rendered(ranks[: 1 + i % len(ranks)]) + "\n}\n"


def _duplicate_before(text: str, i: int) -> str:
    """A first top-level ``s1_ranks`` in the writer's layout, which the later one overrides."""
    return '{\n  "s1_ranks": ' + _rendered([i % 7]) + "," + text[1:]


def _cut_block(text: str) -> tuple[str, str, str]:
    """``text`` around the writer's rank block: up to its key, the block, and after it."""
    start = text.index(_BLOCK_HEAD) + len('  "s1_ranks": ')
    end = text.index("\n  ]", start) + len("\n  ]")
    return text[:start], text[start:end], text[end:]


def _in_bound(text: str, block: str) -> str:
    """``text`` with an ``s1_ranks`` key holding ``block`` first in the ``dimension`` bound."""
    head = '"dimension": {\n'
    return text.replace(head, head + '      "s1_ranks": ' + block + ",\n", 1)


def _nested_in_bounds(text: str, i: int) -> str:
    """An ``s1_ranks`` key inside a bound entry, its list laid out as the top-level block."""
    return _in_bound(text, _rendered([i % 7]))


def _nested_only(text: str, i: int) -> str:
    """The rank block moved into an object ahead of every other key; no top-level ``s1_ranks``."""
    before, block, after = _cut_block(text)
    rest = before[: -len('  "s1_ranks": ')] + after[len(",\n") :]
    return '{\n  "extra": {"s1_ranks": ' + block + "}," + rest[1:]


def _mark_string(text: str, i: int) -> str:
    """The top-level ``s1_ranks`` replaced by the writer's mark string, the block moved into a bound."""
    before, block, after = _cut_block(text)
    return _in_bound(before + json.dumps(serialize._MARK) + after, block)


def _nan_ranks(text: str, i: int) -> str:
    """The top-level ``s1_ranks`` replaced by ``NaN``, the block moved into a bound."""
    before, block, after = _cut_block(text)
    return _in_bound(before + "NaN" + after, block)


def _nan_k(text: str, i: int) -> str:
    return text.replace('"k": ', '"k": NaN, "kk": ', 1)


BLOCK_EDITS = {
    "unedited": lambda text, i: text,
    "leading zero": _respell_rank(lambda r: f"0{r}"),
    "plus sign": _respell_rank(lambda r: f"+{r}"),
    "negative": _respell_rank(lambda r: f"-{r}"),
    "2^63 - 1": _respell_rank(lambda r: str(2**63 - 1)),
    "2^63": _respell_rank(lambda r: str(2**63)),
    "2^64": _respell_rank(lambda r: str(2**64)),
    "float": _respell_rank(lambda r: f"{r}.0"),
    "exponent": _respell_rank(lambda r: f"{r}e0"),
    "true": _respell_rank(lambda r: "true"),
    "extra spaces": _respell_rank(lambda r: f" {r}  "),
    "tab": _respell_rank(lambda r: f"\t{r}"),
    "string": _respell_rank(lambda r: f'"{r}"'),
    "bracketed": _respell_rank(lambda r: f"[{r}]"),
    "fullwidth digits": _respell_rank(lambda r: str(r).translate(FULLWIDTH)),
    "arabic-indic digits": _respell_rank(lambda r: str(r).translate(ARABIC_INDIC)),
    "19-digit overflow": _respell_rank(lambda r: "9999999999999999999"),
    "00": _respell_rank(lambda r: "00"),
    "0": _respell_rank(lambda r: "0"),
    "separator with 3 spaces": _reseparate(",\n   "),
    "separator with CRLF": _reseparate(",\r\n    "),
    "separator reordered": _reseparate(",    \n"),
    "close with 1 space": _close_one_space,
    "re-indent 4": _reindent(4),
    "re-indent 1": _reindent(1),
    "compact": _reindent(None),
    "duplicate after": _duplicate_after,
    "duplicate before": _duplicate_before,
    "nested in bounds": _nested_in_bounds,
    "nested only": _nested_only,
    "mark string": _mark_string,
    "NaN s1_ranks": _nan_ranks,
    "NaN elsewhere": _nan_k,
}


def _slow_route(text: str):
    """``json.loads`` of the whole text, then :func:`certificate_from_dict`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid certificate JSON: {exc}") from exc
    return certificate_from_dict(payload)


def _outcome(load, text: str):
    """Every field of the loaded certificate, S1's rows and ranks included, or the exception class."""
    try:
        cert = load(text)
    except Exception as exc:
        return type(exc)
    forms = [
        (b.form, b.radius, b.center, b.freqs is cert.s1) for b in (cert.bohr_char_form, cert.bohr_torus_form)
    ]
    return (
        cert.group, cert.delta, cert.a0, cert.s1.rows.shape, cert.s1.rows.tolist(),
        char_ranks(cert.group, cert.s1).tolist(), cert.c, cert.k, cert.h_at_a0, forms, cert.bounds,
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(factors=(4, 4, 2), density_a=0.1, density_b=0.1, seed=1, i=0)
@given(**INSTANCES, i=st.integers(0, 2**16))
def test_both_loader_routes_agree_on_edited_rank_blocks(factors, density_a, density_b, seed, i):
    """Every edit of :data:`BLOCK_EDITS`, at rank line ``i``, on one extracted certificate."""
    A, B, _ = _instance(factors, density_a, density_b, seed)
    text = certificate_to_json(extract(A.indicator(), B.indicator()))
    for name, edit in BLOCK_EDITS.items():
        edited = edit(text, i)
        assert _outcome(certificate_from_json, edited) == _outcome(_slow_route, edited), name


def test_writer_text_takes_the_numpy_route():
    cert = certificate_from_json(GOLDEN2.read_text())
    for text in (
        GOLDEN2.read_text(), _nested_in_bounds(GOLDEN2.read_text(), 0), BLOCK_EDITS["0"](GOLDEN2.read_text(), 1)
    ):
        skeleton, ranks = serialize._split_rank_block(text)
        assert ranks.dtype == np.int64 and ranks.tolist() == json.loads(text)["s1_ranks"]
        assert "s1_ranks" in skeleton and skeleton["k"] == cert.k
    for edit in (
        "leading zero", "extra spaces", "re-indent 4", "duplicate after", "duplicate before",
        "nested only", "mark string", "NaN s1_ranks", "NaN elsewhere", "bracketed",
        "fullwidth digits", "arabic-indic digits", "19-digit overflow", "00",
        "separator with 3 spaces", "separator with CRLF", "separator reordered", "close with 1 space",
    ):
        assert serialize._split_rank_block(BLOCK_EDITS[edit](GOLDEN2.read_text(), 1)) is None, edit
    assert certificate_to_json(certificate_from_json(GOLDEN2.read_bytes())) == GOLDEN2.read_text()


def _shift(key):
    def edit(p):
        p[key] = fmt_real(float(p[key]) + 1e-6)

    return edit


def _double_char_radius(p):
    form = p["bohr_char_form"]
    form["radius"] = fmt_real(2.0 * float(form["radius"]))


def _bump_k(p):
    p["k"] += 1


def _drop_s1_row(index):
    def edit(p):
        ranks = p["s1_ranks"]
        del ranks[index % len(ranks)]

    return edit


def _tampers(A: GroupSubset, index: int) -> dict:
    """Single-field edits of a certificate's JSON object, each of which a verifier must refute.

    A delta at which a bound's formula divides by zero or overflows (16 delta^-5 at 0 and below
    about 1e-61, delta^4 above about 1e77) is refuted too, not raised from the audit of the
    recorded bounds.
    """
    edits = {
        "delta": _shift("delta"),
        "c": _shift("c"),
        "h_at_a0": _shift("h_at_a0"),
        "k": _bump_k,
        "char radius": _double_char_radius,
        "s1 row": _drop_s1_row(index),
    }
    for delta in ("0", "-0", "1e-62", "1e-310", "1e80"):
        edits[f"delta {delta}"] = _set_field(delta, "delta")
    outside = np.flatnonzero(~A.mask)
    if outside.size:
        edits["a0"] = _set_a0(rows_at(A.group, outside[[index % outside.size]])[0].tolist())
    return edits


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INSTANCES)
def test_single_field_tamper_makes_cli_verify_exit_1(factors, density_a, density_b, seed):
    A, B, rng = _instance(factors, density_a, density_b, seed)
    text = certificate_to_json(extract(A.indicator(), B.indicator()))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [pathlib.Path(tmp) / name for name in ("a.txt", "b.txt", "cert.json")]
        write_set_file(A, paths[0])
        write_set_file(B, paths[1])
        for name, edit in _tampers(A, int(rng.integers(1 << 30))).items():
            paths[2].write_text(_tampered(edit, text))
            code, err = run_cli(
                "verify", "--cert", str(paths[2]), "--set-a", str(paths[0]), "--set-b", str(paths[1])
            )
            assert code == 1, (name, err)
