"""The verifier stays independent of numpy's FFT: an AST walk of the package's import graph.

``verify``, ``serialize`` and ``claim`` may reach, through the package's
relative imports, neither ``extractor`` nor ``rfft``, which holds every
``np.fft`` call and every private step of the extractor's half transforms.
No module they reach may name an ``np.fft`` or ``numpy.fft`` attribute or
import numpy's ``fft``.  The graph is read from the sources, not from
``sys.modules``: importing ``bohrlab.verify`` runs the package's
``__init__``, which loads every module.  A new fast helper in ``rfft`` is
out of the verifier's reach with no list of names to keep.
``test_verifier_calls_no_numpy_fft`` in ``tests/test_verify.py`` checks the
same at run time, on one instance.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bohrlab"
FAST_PATH = ("extractor", "rfft")


def sibling_imports(source: str) -> set[str]:
    """The package modules a module imports: ``from .x import ...`` and ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def fft_uses(source: str) -> list[str]:
    """Every ``<numpy>.fft`` attribute and every import of numpy's ``fft``, by line."""
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
            hits += [(node.lineno, "from numpy import fft") for a in node.names if a.name == "fft"]
        elif isinstance(node, ast.Import):
            hits += [(node.lineno, f"import {a.name}") for a in node.names if a.name == "numpy.fft"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fft"
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            hits.append((node.lineno, f"{node.value.id}.fft"))
    return [f"line {line}: {text}" for line, text in sorted(hits)]


def closure(sources: dict[str, str], start: str) -> set[str]:
    """``start`` and every module it reaches by relative imports; a module missing from ``sources`` raises."""
    reached, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sibling_imports(sources[name])
    return reached


def boundary_breaches(sources: dict[str, str], start: str) -> list[str]:
    """The fast-path modules ``start`` reaches, then the ``np.fft`` uses of every module it reaches."""
    reached = closure(sources, start)
    hits = [f"{start} reaches {name}" for name in FAST_PATH if name in reached]
    return hits + [f"{name}.py {hit}" for name in sorted(reached) for hit in fft_uses(sources[name])]


@pytest.mark.parametrize("module", ["verify", "serialize", "claim"])
def test_reaches_no_fast_path(module):
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert boundary_breaches(sources, module) == []


def test_scan_finds_numpy_fft():
    source = (
        '"""Calls no np.fft."""\nimport numpy as np\nimport numpy.fft\nfrom numpy import fft\n'
        "x = np.fft.rfftn(a)\ny = table.fft\n"
    )
    assert fft_uses(source) == [
        "line 3: import numpy.fft",
        "line 4: from numpy import fft",
        "line 5: np.fft",
    ]
    sources = {
        "verify": "from .claim import BOUNDS\nfrom .spectral import dft_factored\n",
        "claim": "import numpy as np\nx = np.zeros(3)\n",
        "spectral": "import numpy\nz = numpy.fft.rfftn(a)\n",
    }
    assert boundary_breaches(sources, "verify") == ["spectral.py line 2: numpy.fft"]
    assert boundary_breaches(sources, "claim") == []


def test_scan_finds_the_private_transform_steps():
    sources = {
        "verify": "from .claim import BOUNDS\nfrom .spectral import dft_factored\n",
        "claim": "from .groups import GroupSpec\n",
        "groups": "import numpy as np\n",
        "spectral": "from .rfft import _pair_passes\nfrom .rfft import _synthesize_half\n",
        "rfft": "import numpy as np\nw = np.fft.fftn(a)\n",
        "extractor": "from .rfft import _half_spectrum\nfrom . import claim\n",
    }
    assert boundary_breaches(sources, "verify") == ["verify reaches rfft", "rfft.py line 2: np.fft"]
    assert boundary_breaches(sources, "claim") == []
    assert closure(sources, "extractor") == {"extractor", "rfft", "claim", "groups"}
    assert boundary_breaches({**sources, "verify": "from .extractor import Certificate\n"}, "verify")[:2] == [
        "verify reaches extractor",
        "verify reaches rfft",
    ]
