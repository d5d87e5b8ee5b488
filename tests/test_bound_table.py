"""One definition of the paper's bounds: an AST scan finds no power of ``delta`` outside it.

The limits k <= 16 delta^-5, h(a0) >= delta^4, c >= delta^4 / 2,
max |h - p| <= delta^4 / 4 and torus radius >= delta^9 / (64 pi), and the
large-spectrum threshold delta^3 / 4, are written once, in
``claim.BOUNDS`` and ``claim.s1_threshold``; extract, verify and the
sweep read them from there.  ``extractor._check_mean`` is allowed its
delta^3: the product of the two means, which h-hat(0) must equal, not a bound.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "bohrlab").glob("*.py"))

# Top-level definitions, by module, that may raise delta to a power.
ALLOWED = {"claim.py": {"BOUNDS", "s1_threshold"}, "extractor.py": {"_check_mean"}}


def delta_powers(source: str, allowed: set[str] = frozenset()) -> list[str]:
    """Every ``delta ** e`` outside the top-level definitions named in ``allowed``, by line."""
    hits = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            names = set()
        if names & allowed:
            continue
        hits += [
            inner.lineno
            for inner in ast.walk(node)
            if isinstance(inner, ast.BinOp)
            and isinstance(inner.op, ast.Pow)
            and isinstance(inner.left, ast.Name)
            and inner.left.id == "delta"
        ]
    return [f"line {line}: delta ** ..." for line in sorted(hits)]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_bounds_are_written_once(path):
    assert delta_powers(path.read_text(encoding="utf-8"), ALLOWED.get(path.name, set())) == []


def test_scan_finds_delta_powers():
    source = (
        "TABLE = {'a': lambda delta: delta**4}\n"
        "def allowed(delta):\n    return delta**3\n"
        "def caller(delta):\n    return 0.25 * delta**4 + delta * 2\n"
        "class C:\n    def m(self, delta):\n        return [delta ** -5, d**4]\n"
        "x = 16.0 * delta**-5\n"
    )
    assert delta_powers(source, {"TABLE", "allowed"}) == [
        "line 5: delta ** ...",
        "line 8: delta ** ...",
        "line 9: delta ** ...",
    ]
    assert len(delta_powers(source)) == 5
