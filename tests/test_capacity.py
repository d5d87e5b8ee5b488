"""One capacity policy: every enumerating call and O(N^2) oracle obeys BOHRLAB_ENUM_CAP."""

from __future__ import annotations

import contextlib
import io

import pytest

from bohrlab import cli, verify
from bohrlab.bohr import FORM_CHAR, BohrSpec, bohr_enumerate
from bohrlab.cli import main
from bohrlab.errors import CapacityError
from bohrlab.extractor import extract
from bohrlab.groups import Char, GroupSpec, enumerate_chars, enumerate_elems
from bohrlab.serialize import certificate_to_json
from bohrlab.sets import GroupSubset, bohr_subset, subgroup_subset, sumset_ABmB, write_set_file
from bohrlab.verify import good_shift_set, verify_certificate

GROUPS = [GroupSpec((32,)), GroupSpec((4, 8))]


def _fixture(g: GroupSpec):
    A = subgroup_subset(g, (2,) + (1,) * (g.ndim - 1))
    B = GroupSubset.full(g)
    b = BohrSpec(g, (Char((1,) * g.ndim),), 0.5, FORM_CHAR)
    return A, B, b, extract(A.indicator(), B.indicator())


ENTRY_POINTS = {
    "enumerate_elems": lambda g, A, B, b, cert: enumerate_elems(g),
    "enumerate_chars": lambda g, A, B, b, cert: enumerate_chars(g),
    "bohr_enumerate": lambda g, A, B, b, cert: bohr_enumerate(b),
    "GroupSubset.members": lambda g, A, B, b, cert: A.members(),
    "sumset_ABmB": lambda g, A, B, b, cert: sumset_ABmB(A, B),
    "bohr_subset": lambda g, A, B, b, cert: bohr_subset(g, b),
    "good_shift_set": lambda g, A, B, b, cert: good_shift_set(A, B, b),
    "verify_certificate": lambda g, A, B, b, cert: verify_certificate(cert, A, B),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("g", GROUPS, ids=str)
def test_entry_point_refuses_above_cap(monkeypatch, g, name):
    args = _fixture(g)
    ENTRY_POINTS[name](g, *args)  # within the default cap: runs
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "16")
    with pytest.raises(CapacityError, match=f"group order {g.order} exceeds enumeration cap 16"):
        ENTRY_POINTS[name](g, *args)


def _no_transform_work(*args, **kwargs):
    raise AssertionError("a transform ran above the cap")


@pytest.mark.parametrize("g", GROUPS + [GroupSpec((1 << 17,))], ids=str)
def test_verify_refuses_before_any_transform(monkeypatch, g):
    A, B, _, cert = _fixture(g)
    monkeypatch.setattr(verify, "dft_factored", _no_transform_work)
    monkeypatch.setattr(verify, "representation_counts", _no_transform_work)
    if g.order <= 1 << 16:
        monkeypatch.setenv("BOHRLAB_ENUM_CAP", "16")
    with pytest.raises(CapacityError):
        verify_certificate(cert, A, B)


def test_cli_verify_above_cap_exits_2(monkeypatch, tmp_path):
    g = GroupSpec((4, 8))
    A, B, _, cert = _fixture(g)
    paths = {}
    for name, subset in (("a", A), ("b", B)):
        paths[name] = str(tmp_path / f"{name}.txt")
        write_set_file(subset, paths[name])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(certificate_to_json(cert), encoding="utf-8")
    argv = ["verify", "--cert", str(cert_path), "--set-a", paths["a"], "--set-b", paths["b"]]
    monkeypatch.setenv("BOHRLAB_ENUM_CAP", "16")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert "CapacityError" in err.getvalue()
    assert out.getvalue() == ""


def test_cli_verify_refuses_group_above_cap_before_reading_sets(monkeypatch, tmp_path):
    g = GroupSpec((1 << 17,))
    *_, cert = _fixture(g)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(certificate_to_json(cert), encoding="utf-8")

    def no_set_files(*args, **kwargs):
        raise AssertionError("a set file was read for a group above the cap")

    monkeypatch.setattr(cli, "read_set_file", no_set_files)
    argv = ["verify", "--cert", str(cert_path), "--set-a", "a.txt", "--set-b", "b.txt"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert "CapacityError" in err.getvalue()
