"""Certificate JSON: byte identity with the stdlib layout, exact round trips,
and the loader's outcomes on malformed frequency rows."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bohrlab.cli import main
from bohrlab.errors import DomainError, ShapeError
from bohrlab.extractor import extract, normalize_means
from bohrlab.groups import GroupSpec, char_eval, rank_of_char
from bohrlab.serialize import certificate_from_json, certificate_to_json
from bohrlab.sets import GroupSubset, write_set_file
from bohrlab.spectral import dft
from bohrlab.verify import verify_certificate

GOLDEN = pathlib.Path(__file__).parent / "data" / "z8_evens_cert.json"
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
    cert = certificate_from_json(GOLDEN.read_text())
    assert cert.bohr_char_form.freqs is cert.s1
    assert cert.bohr_torus_form.freqs is cert.s1
    assert certificate_to_json(cert) == GOLDEN.read_text()


def test_writer_handles_user_built_tuples():
    import dataclasses

    cert = certificate_from_json(GOLDEN.read_text())
    plain = tuple(cert.s1)  # not a CharTuple: rendered by the stdlib encoder
    forms = [dataclasses.replace(b, freqs=plain) for b in (cert.bohr_char_form, cert.bohr_torus_form)]
    rebuilt = dataclasses.replace(cert, s1=plain, bohr_char_form=forms[0], bohr_torus_form=forms[1])
    assert certificate_to_json(rebuilt) == GOLDEN.read_text()


# --- malformed frequency rows ---------------------------------------------------

def _tampered(edit) -> str:
    payload = json.loads(GOLDEN.read_text())
    edit(payload)
    return json.dumps(payload)


def _set_freqs(rows):
    def edit(p):
        p["bohr_char_form"]["freqs"] = rows
        p["bohr_torus_form"]["freqs"] = rows

    return edit


def _set_s1(rows):
    def edit(p):
        p["s1"] = rows

    return edit


def _set_all(rows):
    def edit(p):
        _set_s1(rows)(p)
        _set_freqs(rows)(p)

    return edit


LOAD_ERRORS = [
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
]


@pytest.mark.parametrize("label,edit,error", LOAD_ERRORS, ids=[c[0] for c in LOAD_ERRORS])
def test_loader_rejects_malformed_rows(label, edit, error):
    with pytest.raises(error):
        certificate_from_json(_tampered(edit))


def test_loader_accepts_bools_as_ints():
    cert = certificate_from_json(_tampered(_set_all([[False], [4]])))
    assert [t.freq for t in cert.s1] == [(0,), (4,)]
    assert certificate_to_json(cert) == GOLDEN.read_text()
    assert verify_certificate(cert, EVENS, EVENS).passed


def test_negative_s1_entry_loads_then_verify_rejects_it():
    cert = certificate_from_json(_tampered(_set_s1([[0], [-4]])))
    assert [t.freq for t in cert.s1] == [(0,), (-4,)]
    with pytest.raises(ShapeError):
        verify_certificate(cert, EVENS, EVENS)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


CLI_CASES = LOAD_ERRORS + [
    ("negative s1 entry", _set_s1([[0], [-4]]), ShapeError),
    ("wrong-length rows in s1", _set_s1([[0, 0], [4, 0]]), ShapeError),
    ("ragged rows in s1", _set_s1([[0], [4, 0]]), ShapeError),
]


@pytest.mark.parametrize("label,edit,error", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_verify_exits_2_on_malformed_rows(tmp_path, label, edit, error):
    sets = tmp_path / "evens.txt"
    write_set_file(EVENS, sets)
    cert = tmp_path / "cert.json"
    cert.write_text(_tampered(edit))
    code, err = run_cli("verify", "--cert", str(cert), "--set-a", str(sets), "--set-b", str(sets))
    assert code == 2, err
    assert error.__name__ in err
