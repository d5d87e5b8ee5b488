"""JSON forms for certificates and Bohr specs.

Every real number is written as a decimal string with 17 significant digits,
which round-trips IEEE doubles exactly and keeps the files byte-stable across
platforms.  Field order is fixed by construction (insertion order).

Certificates are written in exactly the layout of ``json.dumps(..., indent=2)``,
but the frequency lists, which make up nearly all of a large certificate, are
rendered straight from their integer matrices, and a list that both Bohr
forms share is rendered once.  The loader type-checks and converts each
distinct frequency list once, as an array, and the Bohr forms reuse the
characters of S1 when their lists equal it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from itertools import chain

import numpy as np

from .bohr import BohrSpec
from .errors import DomainError
from .extractor import BoundCheck, Certificate
from .groups import CharTuple, Elem, GroupSpec, parse_group

CERT_SCHEMA = "bohrlab-cert/1"


def fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def parse_real(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError as exc:
            raise DomainError(f"not a real number: {value!r}") from exc
    raise DomainError(f"not a real number: {value!r}")


def _json_typed(value, kind: type, what: str):
    """``value`` itself, if it has the JSON type ``kind`` (a bool counts as an int)."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _coords_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise DomainError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def bohr_spec_to_dict(b: BohrSpec, freqs: Callable[[CharTuple], object]) -> dict:
    """The JSON object of a Bohr spec; ``freqs`` renders its frequency tuple."""
    return {
        "form": b.form,
        "freqs": freqs(b.freqs),
        "radius": fmt_real(b.radius),
        "center": list(b.center.coords) if b.center is not None else None,
    }


def _char_tuple(value, what: str, ndim: int, parsed: list) -> CharTuple:
    """The CharTuple of a JSON list of integer lists, converted once per distinct list.

    Every entry is type-checked, with ``isinstance`` semantics (so a bool
    counts as an integer); ``parsed`` holds (list, CharTuple) pairs already
    converted, and an equal list reuses its CharTuple.  Shape errors are the
    CharTuple's, range checks the group's.
    """
    if not isinstance(value, list):
        raise DomainError(f"{what} rows must be a list, got {value!r}")
    # Type sets are gathered at C speed; the slow scan runs only to name the culprit.
    if not (
        all(issubclass(t, list) for t in set(map(type, value)))
        and all(issubclass(t, int) for t in set(map(type, chain.from_iterable(value))))
    ):
        bad = next(
            r for r in value
            if not (isinstance(r, list) and all(isinstance(x, int) for x in r))
        )
        raise DomainError(f"{what} must be a list of integers, got {bad!r}")
    for seen, chars in parsed:
        if seen == value:
            return chars
    chars = CharTuple(value or np.zeros((0, ndim)))
    parsed.append((value, chars))
    return chars


def bohr_spec_from_dict(d: dict, g: GroupSpec, parsed: list) -> BohrSpec:
    """Inverse of :func:`bohr_spec_to_dict`; ``parsed`` shares converted frequency lists."""
    try:
        form = d["form"]
        freqs = d["freqs"]
        radius = d["radius"]
        center = d.get("center")
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed Bohr spec object: {d!r}") from exc
    chars = _char_tuple(freqs, "frequency", g.ndim, parsed)
    elem = Elem(_coords_list(center, "center")) if center is not None else None
    return BohrSpec(g, chars, parse_real(radius), form, center=elem)


def certificate_to_dict(cert: Certificate, freqs: Callable[[CharTuple], object]) -> dict:
    """The JSON object of a certificate; ``freqs`` renders each frequency tuple."""
    return {
        "schema": CERT_SCHEMA,
        "group": str(cert.group),
        "delta": fmt_real(cert.delta),
        "a0": list(cert.a0.coords),
        "s1": freqs(cert.s1),
        "c": fmt_real(cert.c),
        "k": cert.k,
        "h_at_a0": fmt_real(cert.h_at_a0),
        "bohr_char_form": bohr_spec_to_dict(cert.bohr_char_form, freqs),
        "bohr_torus_form": bohr_spec_to_dict(cert.bohr_torus_form, freqs),
        "bounds": {
            name: {
                "value": fmt_real(check.value),
                "limit": fmt_real(check.limit),
                "ok": check.ok,
            }
            for name, check in cert.bounds.items()
        },
    }


def certificate_from_dict(d: dict) -> Certificate:
    if not isinstance(d, dict):
        raise DomainError("certificate must be a JSON object")
    schema = d.get("schema")
    if schema != CERT_SCHEMA:
        raise DomainError(f"unsupported certificate schema {schema!r}")
    try:
        g = parse_group(d["group"])
        a0 = Elem(_coords_list(d["a0"], "a0"))
        parsed: list = []
        s1 = _char_tuple(d["s1"], "S1 entry", g.ndim, parsed)
        bounds_raw = d["bounds"]
        cert = Certificate(
            group=g,
            delta=parse_real(d["delta"]),
            a0=a0,
            s1=s1,
            c=parse_real(d["c"]),
            k=_json_typed(d["k"], int, "k"),
            h_at_a0=parse_real(d["h_at_a0"]),
            bohr_char_form=bohr_spec_from_dict(d["bohr_char_form"], g, parsed),
            bohr_torus_form=bohr_spec_from_dict(d["bohr_torus_form"], g, parsed),
            bounds={
                name: BoundCheck(
                    value=parse_real(entry["value"]),
                    limit=parse_real(entry["limit"]),
                    ok=_json_typed(entry["ok"], bool, f"ok of bound {name}"),
                )
                for name, entry in bounds_raw.items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed certificate: {exc}") from exc
    return cert


# A frequency tuple stands in the skeleton as this string, numbered.
_MARK = "\x00freqs:"
_MARKED = re.compile(r'^( *)("[^"\n]*": )"\\u0000freqs:(\d+)"', re.MULTILINE)


def _rows_json(chars: CharTuple, indent: str) -> str:
    """``json.dumps(rows, indent=2)`` as it reads on a line indented by ``indent``,
    rendered from the validated frequency matrix with string joins."""
    rows = chars.rows
    if rows.shape[0] == 0:
        return "[]"
    row, entry = indent + "  ", indent + "    "
    row_open, row_close = row + "[\n" + entry, "\n" + row + "]"
    entries = iter(map(str, rows.ravel().tolist()))
    body = map((",\n" + entry).join, zip(*[entries] * rows.shape[1]))
    return (
        "[\n" + row_open + (row_close + ",\n" + row_open).join(body) + row_close
        + "\n" + indent + "]"
    )


def certificate_to_json(cert: Certificate) -> str:
    """The certificate as ``json.dumps(..., indent=2)`` writes it, plus a newline, byte for byte.

    The small fields go through the stdlib encoder with each frequency tuple
    replaced by a numbered mark; the marks are then replaced by the rendered
    lists.  Each distinct tuple is rendered once: where it recurs at another
    depth (S1 and the Bohr forms share one tuple), only the indentation after
    each newline changes.
    """
    tuples: list[CharTuple] = []

    def mark(chars: CharTuple) -> str:
        tuples.append(chars)
        return f"{_MARK}{len(tuples) - 1}"

    skeleton = json.dumps(certificate_to_dict(cert, mark), indent=2)
    rendered: dict[int, tuple[str, str]] = {}  # id of a tuple -> (indent, text)

    def fill(m: re.Match) -> str:
        indent, key, chars = m.group(1), m.group(2), tuples[int(m.group(3))]
        if id(chars) not in rendered:
            rendered[id(chars)] = (indent, _rows_json(chars, indent))
        at, text = rendered[id(chars)]
        if at != indent:
            text = text.replace("\n" + at, "\n" + indent)
        return indent + key + text

    return _MARKED.sub(fill, skeleton) + "\n"


def certificate_from_json(text: str) -> Certificate:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid certificate JSON: {exc}") from exc
    return certificate_from_dict(payload)


def report_to_json(report) -> str:
    """Serialize any report object exposing to_dict() with stable field order."""
    return json.dumps(report.to_dict(), indent=2) + "\n"
