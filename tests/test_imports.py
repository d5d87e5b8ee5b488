"""Every imported name is used: an AST scan of the library, the tests and the demos.

A name counts as used when it appears anywhere in the module as a plain name,
including as the root of an attribute chain (``np`` in ``np.zeros``) and in
annotations.  ``bohrlab/__init__.py`` re-exports and is skipped, as is
``from __future__ import annotations``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "bohrlab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nprint(np.zeros, a)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]
