"""JSON forms for certificates and Bohr specs.

Every real number is written as a decimal string with 17 significant digits,
which round-trips IEEE doubles exactly and keeps the files byte-stable across
platforms.  Field order is fixed by construction (insertion order).

Certificates are written as schema ``bohrlab-cert/2``, in exactly the layout
of ``json.dumps(..., indent=2)``.  S1, nearly all of a large certificate, is
written once, as ``s1_ranks``: the canonical rank of each character in S1's
order, repeats kept (mixed radix, last factor fastest; see
:func:`bohrlab.groups.strides`).  The Bohr forms carry only their form,
radius and center, and share S1's characters.  The writer renders the rank
list from the rank array by digit-count runs: the ranks extract gives S1 are
non-decreasing, so the ranks of w digits are one run, written as one table
of w digit columns, computed by numpy, and the separator, with no leading
zero to drop.
The text around the list and the runs are joined once, as bytes.  A rank
list out of order is written by ``str.join``: extract never makes one, but
the loader's ``json.loads`` route keeps one as the file gives it (a reversed
list, say), so it is written back byte for byte.

The loader has two routes to one result.  A file in the writer's layout has
its rank block cut out of the text and parsed by one numpy call; only the
small fields go through ``json.loads``.  The block is taken only if its bytes
are the writer's spelling of the parsed ranks, checked without rendering
them again: digits, and the writer's separators at the offsets the ranks'
digit counts give (:func:`_writer_spelled`); and only if it is the value of
the top-level ``s1_ranks`` (:func:`certificate_from_json`).  Any other text,
such as a cert/1 file, compact or re-indented JSON, or a rank list in any
other spelling or out of rank order, is parsed whole by ``json.loads``; the
rank list is then type-checked at C speed and converted with one array.
Either way the ranks are range-checked, a bad file is refused at load, and
S1 keeps its ranks (:meth:`bohrlab.groups.CharTuple.from_ranks`), so nothing
ranks it again.

Files of schema ``bohrlab-cert/1``, which write S1 and both forms' ``freqs``
as lists of frequency rows, still load; writing one out gives cert/2.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Callable
from itertools import chain

import numpy as np

from .bohr import BohrSpec
from .claim import BoundCheck, Certificate
from .errors import DomainError, ShapeError
from .groups import CharTuple, Elem, GroupSpec, char_ranks, parse_group

CERT_SCHEMA = "bohrlab-cert/2"
CERT1_SCHEMA = "bohrlab-cert/1"


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


_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", dict: "object"}


def _json_typed(value, kind: type, what: str):
    """``value`` itself, if it has the JSON type ``kind`` (a bool counts as an int)."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _coords_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise DomainError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def bohr_spec_to_dict(b: BohrSpec) -> dict:
    """The JSON object of a certificate's Bohr form; its frequencies are the certificate's S1."""
    return {
        "form": b.form,
        "radius": fmt_real(b.radius),
        "center": list(b.center.coords) if b.center is not None else None,
    }


def _char_tuple(value, what: str, ndim: int) -> CharTuple:
    """The CharTuple of a cert/1 list of integer lists.

    Every entry is type-checked, with ``isinstance`` semantics (so a bool
    counts as an integer).  Shape errors are the CharTuple's, range checks
    the group's.
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
    return CharTuple(value or np.zeros((0, ndim)))


def _rank_array(value) -> np.ndarray:
    """The cert/2 rank list as an int64 array, refused at load unless every entry is an integer.

    The type check gathers the entries' types at C speed (a bool counts as an
    integer); one ``np.array`` converts the list, which refuses an integer
    beyond int64.
    """
    if not isinstance(value, list):
        raise DomainError(f"s1_ranks must be a list, got {value!r}")
    if not all(issubclass(t, int) for t in set(map(type, value))):
        bad = next(x for x in value if not isinstance(x, int))
        raise DomainError(f"an S1 rank must be an integer, got {bad!r}")
    try:
        return np.array(value, dtype=np.int64)
    except OverflowError as exc:
        raise ShapeError(f"an S1 rank exceeds int64: {exc}") from exc


def _s1_at(ranks: np.ndarray, g: GroupSpec) -> CharTuple:
    """S1 from its int64 ranks, refused at load if any is not a rank of ``g``; the ranks are kept."""
    bad = np.flatnonzero((ranks < 0) | (ranks >= g.order))
    if bad.size:
        raise ShapeError(f"S1 rank {ranks[bad[0]]} out of range for group of order {g.order}")
    return CharTuple.from_ranks(g, ranks)


def bohr_spec_from_dict(d: dict, g: GroupSpec, freqs: Callable[[dict], CharTuple]) -> BohrSpec:
    """Inverse of :func:`bohr_spec_to_dict`; ``freqs`` gives the form's frequencies from its object."""
    try:
        form = d["form"]
        radius = d["radius"]
        center = d.get("center")
        chars = freqs(d)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed Bohr spec object: {d!r}") from exc
    elem = Elem(_coords_list(center, "center")) if center is not None else None
    return BohrSpec(g, chars, parse_real(radius), form, center=elem)


def _cert2_fields(cert: Certificate) -> dict:
    """The cert/2 JSON object, with the S1 ranks as an int64 array.

    Both Bohr forms must carry S1, which cert/2 writes once; a form on other
    frequencies cannot be written and raises :class:`DomainError`.
    """
    for b in (cert.bohr_char_form, cert.bohr_torus_form):
        if b.freqs is not cert.s1 and b.freqs != cert.s1:
            raise DomainError(f"the {b.form} Bohr form does not carry S1, which cert/2 writes once")
    return {
        "schema": CERT_SCHEMA,
        "group": str(cert.group),
        "delta": fmt_real(cert.delta),
        "a0": list(cert.a0.coords),
        "s1_ranks": char_ranks(cert.group, cert.s1),
        "c": fmt_real(cert.c),
        "k": cert.k,
        "h_at_a0": fmt_real(cert.h_at_a0),
        "bohr_char_form": bohr_spec_to_dict(cert.bohr_char_form),
        "bohr_torus_form": bohr_spec_to_dict(cert.bohr_torus_form),
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
    """A certificate from its JSON object, of schema cert/2 or cert/1."""
    return _certificate_from_dict(d, None)


def _certificate_from_dict(d: dict, parsed_ranks: np.ndarray | None) -> Certificate:
    """:func:`certificate_from_dict`; a cert/2 S1 is read from ``parsed_ranks`` when given."""
    if not isinstance(d, dict):
        raise DomainError("certificate must be a JSON object")
    schema = d.get("schema")
    if schema not in (CERT_SCHEMA, CERT1_SCHEMA):
        raise DomainError(f"unsupported certificate schema {schema!r}")
    try:
        g = parse_group(_json_typed(d["group"], str, "group"))
        a0 = Elem(_coords_list(d["a0"], "a0"))
        if schema == CERT_SCHEMA:
            ranks = _rank_array(d["s1_ranks"]) if parsed_ranks is None else parsed_ranks
            s1 = _s1_at(ranks, g)

            def freqs(form: dict) -> CharTuple:
                return s1
        else:
            s1 = _char_tuple(d["s1"], "S1 entry", g.ndim)

            def freqs(form: dict) -> CharTuple:
                chars = _char_tuple(form["freqs"], "frequency", g.ndim)
                return s1 if chars == s1 else chars
        bounds_raw = _json_typed(d["bounds"], dict, "bounds")
        cert = Certificate(
            group=g,
            delta=parse_real(d["delta"]),
            a0=a0,
            s1=s1,
            c=parse_real(d["c"]),
            k=_json_typed(d["k"], int, "k"),
            h_at_a0=parse_real(d["h_at_a0"]),
            bohr_char_form=bohr_spec_from_dict(d["bohr_char_form"], g, freqs),
            bohr_torus_form=bohr_spec_from_dict(d["bohr_torus_form"], g, freqs),
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


# The writer's skeleton holds this string where S1's rank list goes.
_MARK = "\x00s1_ranks"


# The writer's rank block, ``"s1_ranks": [\n    0,\n    1\n  ]``: one rank per
# line, indented as json.dumps(indent=2) indents the list at depth 1.
_RANK_KEY = '"s1_ranks": '
_RANK_OPEN = "[\n    "
_RANK_SEPARATOR = b",\n    "
_RANK_CLOSE = "\n  ]"


def _render_ranks(ranks: np.ndarray) -> list[bytes | np.ndarray]:
    """The block ``"[\\n    " + ",\\n    ".join(map(str, ranks)) + "\\n  ]"``, or ``"[]"`` if empty, as ASCII chunks.

    ``ranks`` are non-negative integers.  Non-decreasing ranks, as extract
    and the loader's numpy route yield them, are written by digit count: the
    ranks of w digits are one run (:func:`_digit_counts`), and each run is one
    (count, w + 6) uint8 table, a row per rank of its w digits, from integer
    division, then the separator, so no digit is a leading zero.  The last
    row's separator is left out of the last chunk.  Any other list is the
    join itself.  The chunks are bytes-like, for ``b"".join``.
    """
    if not ranks.size:
        return [b"[]"]
    if (ranks[1:] < ranks[:-1]).any():
        body = _RANK_SEPARATOR.decode("ascii").join(map(str, ranks.tolist()))
        return [(_RANK_OPEN + body + _RANK_CLOSE).encode("ascii")]
    step = len(_RANK_SEPARATOR)
    chunks = [_RANK_OPEN.encode("ascii")]
    end = 0
    for width, count in enumerate(_digit_counts(ranks).tolist(), start=1):
        if not count:
            continue
        rest = ranks[end : end + count].astype(np.uint32 if width < 10 else np.uint64)
        end += count
        table = np.empty((count, width + step), dtype=np.uint8)
        table.fill(_RANK_SEPARATOR[-1])  # the separator's trailing spaces, by one fill
        for col, byte in enumerate(_RANK_SEPARATOR.rstrip(b" "), start=width):
            table[:, col] = byte
        quotient = np.empty_like(rest)
        for col in range(width - 1, -1, -1):
            np.floor_divide(rest, 10, out=quotient)
            rest -= quotient * 10
            rest += ord("0")
            table[:, col] = rest
            rest, quotient = quotient, rest
        chunks.append(table.reshape(-1))
    chunks[-1] = chunks[-1][:-step]
    chunks.append(_RANK_CLOSE.encode("ascii"))
    return chunks


def certificate_to_json(cert: Certificate) -> str:
    """The certificate as ``json.dumps(..., indent=2)`` writes it, plus a newline, byte for byte.

    The small fields go through the stdlib encoder with the rank list replaced
    by a mark; the text around the mark and the rank block, one rank per
    line, rendered from the rank array by :func:`_render_ranks`, are then
    joined once as bytes.
    """
    d = _cert2_fields(cert)
    ranks, d["s1_ranks"] = d["s1_ranks"], _MARK
    head, _, tail = json.dumps(d, indent=2).partition(json.dumps(_MARK))
    chunks = [head.encode("ascii"), *_render_ranks(ranks), (tail + "\n").encode("ascii")]
    return b"".join(chunks).decode("ascii")


def _split_rank_block(text: str) -> tuple[dict, np.ndarray] | None:
    """The JSON object of ``text`` without its S1, and S1's ranks, if the writer laid out the block.

    The block runs from the first ``"s1_ranks": [\\n    `` to the first
    ``]`` after it, which must close the writer's ``\\n  ]``, and its numbers
    are parsed by one ``np.fromstring``.  The parse is taken only if the block
    is in the one spelling the writer uses (:func:`_writer_spelled`), so it
    is a JSON list of integers, and ``json.loads`` would read the same ranks.
    The rest of the text, with the block replaced by ``NaN``, goes through
    ``json.loads``.  Its ``parse_constant`` hook must run exactly once, for
    the block, and return the value of the top-level ``s1_ranks``; so the
    block is no string's content, no nested or earlier duplicate key's value,
    and the text is valid JSON exactly when the rest is.  Otherwise, None, as
    for bytes, which ``json.loads`` also reads.
    """
    if not isinstance(text, str):
        return None
    start = text.find(_RANK_KEY + _RANK_OPEN)
    if start < 0:
        return None
    start += len(_RANK_KEY)
    close = text.find("]", start)
    end = close + 1 - len(_RANK_CLOSE)
    if close < 0 or not text.startswith(_RANK_CLOSE, end):
        return None
    try:
        body = text[start + len(_RANK_OPEN) : end].encode("ascii")
    except UnicodeEncodeError:
        return None
    with warnings.catch_warnings():
        # numpy warns, or in later versions raises, when the parse stops short of the end.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            ranks = np.fromstring(body, dtype=np.int64, sep=",")
        except (DeprecationWarning, ValueError):
            return None
    if not _writer_spelled(body, ranks):
        return None
    block = []

    def constant(name: str) -> list:
        block.append(name)
        return block

    try:
        d = json.loads(text[:start] + "NaN" + text[close + 1 :], parse_constant=constant)
    except json.JSONDecodeError:
        return None
    if len(block) != 1 or not isinstance(d, dict) or d.get("s1_ranks") is not block:
        return None
    return d, ranks


_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _digit_counts(ranks: np.ndarray) -> np.ndarray:
    """How many of the non-empty, non-decreasing, non-negative ``ranks`` have 1, 2, ... digits, up to the last's.

    The ranks of w digits are those from the count below 10^(w - 1) to the
    count below 10^w, one run.
    """
    below = np.searchsorted(ranks, _POWERS_OF_TEN[_POWERS_OF_TEN <= ranks[-1]])
    return np.diff(below, prepend=0, append=ranks.size)


def _writer_spelled(body: bytes, ranks: np.ndarray) -> bool:
    """Whether ``body`` is ``",\\n    ".join(map(str, ranks))``, for the ranks parsed from it.

    Checked on the bytes, with nothing rendered, for ranks in non-decreasing
    order, as S1 is written; any other block is left to ``json.loads``.  The
    ranks of w digits then lie in one run of rows of w + 6 bytes, a rank and
    its separator (the last rank has none), which fixes every separator's
    offset.  The separator columns of each run must hold the separator, and
    no other byte may be a non-digit, so the check does not lean on how
    ``np.fromstring`` treats spaces or signs.  Then each run of digits is one
    rank, exactly as long as its value's decimal form: no leading zero.  A
    parse that saturated at the int64 maximum is refused, since a run of 19
    nines has as many digits.
    """
    step = len(_RANK_SEPARATOR)
    if not ranks.size or ranks[-1] == np.iinfo(np.int64).max:
        return False
    if (ranks[1:] < ranks[:-1]).any():
        return False
    counts = _digit_counts(ranks)
    if len(body) != int(counts @ np.arange(1 + step, len(counts) + 1 + step)) - step:
        return False
    data = np.frombuffer(body, dtype=np.uint8)
    non_digits = np.count_nonzero(data < ord("0")) + np.count_nonzero(data > ord("9"))
    if non_digits != step * (ranks.size - 1):
        return False
    offset = 0
    for width, count in enumerate(counts.tolist(), start=1 + step):
        table = data[offset : offset + count * width]
        offset += table.size
        table = table[: table.size // width * width].reshape(-1, width)  # the last rank has none
        for column, byte in enumerate(_RANK_SEPARATOR, start=width - step):
            if (table[:, column] != byte).any():
                return False
    return True


def certificate_from_json(text: str) -> Certificate:
    """The certificate of a JSON text, of schema cert/2 or cert/1, by one of two routes.

    Numpy route: the rank block in the writer's layout is parsed by one numpy
    call and only the rest of the text by ``json.loads``.  Its gate
    (:func:`_split_rank_block`): the block's bytes are the writer's spelling
    of the parsed ranks, checked byte by byte without rendering them, and the
    block is the value of the top-level ``s1_ranks``.  Any other text takes
    the ``json.loads`` route: parsed whole, then read by
    :func:`certificate_from_dict`.  Both routes give the same certificate, or
    raise the same exception class.
    """
    split = _split_rank_block(text)
    if split is not None:
        return _certificate_from_dict(*split)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid certificate JSON: {exc}") from exc
    return certificate_from_dict(payload)


def report_to_json(report) -> str:
    """Serialize any report object exposing to_dict() with stable field order."""
    return json.dumps(report.to_dict(), indent=2) + "\n"
