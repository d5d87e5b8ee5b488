"""A frozen census of verify reports: any moved membership bit or detail string fails.

Each row of ``data/verify_digests.json`` names a seeded instance; the test
extracts its certificate, verifies it, and compares two SHA-256 digests with
the frozen ones: of ``report_to_json(verify_certificate(...))``, and of the
packed membership masks of the char form, the torus form and the half-radius
char form that ``good_shift_set`` walks, with the good-shift mask after them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bohrlab.bohr import FORM_CHAR, FORM_TORUS, BohrSpec, halve_radius, members_mask
from bohrlab.extractor import extract
from bohrlab.groups import CharTuple, Elem, GroupSpec
from bohrlab.serialize import report_to_json
from bohrlab.sets import (
    GroupSubset,
    bohr_subset,
    progression_subset,
    random_nonempty_subset,
    subgroup_subset,
    union_shift_subset,
)
from bohrlab.verify import good_shift_set, verify_certificate

CENSUS = json.loads((Path(__file__).parent / "data" / "verify_digests.json").read_text())


def census_sets(row) -> tuple[GroupSubset, GroupSubset]:
    """The pair (A, B) a census row describes, from the library's seeded generators."""
    g = GroupSpec(tuple(row["factors"]))
    kind = row["kind"]
    if kind == "random":
        return tuple(random_nonempty_subset(g, row["density"], s) for s in row["seeds"])
    if kind == "progression":
        A = progression_subset(g, Elem(tuple(row["start"])), Elem(tuple(row["step"])), row["length"])
        return A, A
    if kind == "bohr-set":
        form = {"char": FORM_CHAR, "torus": FORM_TORUS}[row["form"]]
        A = bohr_subset(g, BohrSpec(g, CharTuple(row["freqs"]), row["radius"], form))
        return A, A
    sub = subgroup_subset(g, row["divisors"])
    if kind == "subgroup":
        return sub, sub
    if kind == "coset":
        return union_shift_subset(sub, [Elem(tuple(row["shift"]))]), sub
    if kind == "noisy-subgroup":
        noise = random_nonempty_subset(g, row["density"], row["seeds"][0])
        A = GroupSubset(g, sub.mask | noise.mask)
        return A, A
    raise ValueError(f"unknown census kind {kind!r}")


def census_digests(row) -> dict[str, str]:
    A, B = census_sets(row)
    cert = extract(A.indicator(), B.indicator())
    report = report_to_json(verify_certificate(cert, A, B))
    masks = [
        members_mask(cert.bohr_char_form),
        members_mask(cert.bohr_torus_form),
        members_mask(halve_radius(cert.bohr_char_form)),
        good_shift_set(A, B, cert.bohr_char_form).mask,
    ]
    packed = b"".join(np.packbits(m).tobytes() for m in masks)
    return {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "masks_sha256": hashlib.sha256(packed).hexdigest(),
    }


@pytest.mark.parametrize("row", CENSUS["instances"], ids=lambda row: row["id"])
def test_verify_census_keeps_every_report_and_mask(row):
    got = census_digests(row)
    assert got == {"report_sha256": row["report_sha256"], "masks_sha256": row["masks_sha256"]}
