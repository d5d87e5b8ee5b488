"""Every imported name is used, and the library holds only what it runs: AST scans.

A name counts as used when it appears anywhere in the module as a plain name,
including as the root of an attribute chain (``np`` in ``np.zeros``) and in
annotations.  ``bohrlab/__init__.py`` re-exports and is skipped, as is
``from __future__ import annotations``.

Every public top-level function and class of the library must be named as an
identifier outside its own definition: elsewhere in its module, in another
library module, in a demo or in perfbench.  A plain name and an attribute
(``bl.extract``) count; a mention inside a string, as in perfbench's tracer
family lists, does not, and neither do tests: a helper only tests call is a
test oracle and belongs with them (``tests/oracles.py``).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "bohrlab").glob("*.py") if p.name != "__init__.py")
MODULES = sorted(LIBRARY + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# Public names that only users and tests call, each with the reason it stays in the library.
EXEMPT = {
    "sets.sumset_ABmB": "the library entry point of acceptance criterion 3 (the enumerated sumset)",
    "rfft.fourier_identity_suite": "the library entry point of acceptance criterion 4",
    "sets.write_set_file": "the documented writer of the CLI's set files",
}


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


def _identifiers(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every plain name and attribute name in ``tree``, outside the subtree ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unnamed_public(library: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of every public top-level function or class of ``library`` named nowhere else.

    ``library`` maps module names to sources.  A definition is named when an
    identifier of its name appears in its own module outside the definition
    itself, in another library module, or in one of the ``callers`` sources.
    """
    trees = {name: ast.parse(source) for name, source in library.items()}
    named_by_callers = set().union(*(_identifiers(ast.parse(source)) for source in callers))
    named_by_module = {name: _identifiers(tree) for name, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = named_by_callers.union(*(ids for m, ids in named_by_module.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in _identifiers(tree, skip=node):
                out.append(f"{module}.{node.name}")
    return sorted(out)


def test_library_holds_only_what_it_runs():
    library = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unnamed_public(library, callers) == sorted(EXEMPT)


def test_scan_finds_an_unnamed_public_name():
    library = {
        "a": (
            "def used_here():\n    pass\n\n"
            "def recursive():\n    return recursive()\n\n"
            "def _private():\n    pass\n\n"
            "class Called:\n    pass\n\n"
            "def in_a_string():\n    pass\n\n"
            "def by_attribute():\n    pass\n\n"
            "x = used_here()\n"
        ),
        "b": "from .a import recursive, in_a_string\ny = Called\nz = 'in_a_string'\n",
    }
    assert unnamed_public(library, ["import a\na.by_attribute()\n"]) == ["a.in_a_string", "a.recursive"]
    assert unnamed_public(library, []) == ["a.by_attribute", "a.in_a_string", "a.recursive"]
