"""One translate primitive: an AST scan finds no ``np.roll`` in the library.

Tables move through ``spectral._translate_windows``.  A multi-axis ``np.roll``
copies 2^(nonzero coordinates) slices per call, and a second way to shift a
table would be a second policy to keep in step with the first.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "bohrlab").glob("*.py"))


def roll_uses(source: str) -> list[str]:
    """Every ``numpy.roll`` reached through a numpy import, by line."""
    tree = ast.parse(source)
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            hits += [(node.lineno, "from numpy import roll") for a in node.names if a.name == "roll"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "roll"
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            hits.append((node.lineno, f"{node.value.id}.roll"))
    return [f"line {line}: {text}" for line, text in sorted(hits)]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_has_no_np_roll(path):
    assert roll_uses(path.read_text(encoding="utf-8")) == []


def test_scan_finds_np_roll():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy import roll, zeros\n"
        "x = np.roll(a, 1)\ny = numpy.roll\nz = table.roll(1)\n"
    )
    assert roll_uses(source) == [
        "line 3: from numpy import roll",
        "line 4: np.roll",
        "line 5: numpy.roll",
    ]
