"""The verifier stays independent of numpy's FFT: an AST scan of ``verify.py``.

``verify`` may import nothing from ``spectral`` that runs ``np.fft`` (the fast
transforms and the fast convolutions), and may name no ``np.fft`` or
``numpy.fft`` attribute of its own.  ``test_verifier_calls_no_numpy_fft`` in
``tests/test_verify.py`` checks the same at run time, on one instance.  Nor
may it import the extractor's private transform steps: the half transform,
the half synthesis and the length-2 sum/difference passes they share.  On
F_2^n those run no ``np.fft`` at all, so neither check above would see the
verifier borrow them.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
VERIFY = ROOT / "src" / "bohrlab" / "verify.py"
FFT_BACKED = {
    "dft",
    "idft",
    "idft_real",
    "convolve",
    "triple_convolve",
    "triple_spectrum",
    "_half_spectrum",
    "_real_forward",
    "_synthesize_half",
    "_pair_passes",
}


def fft_uses(source: str) -> list[str]:
    """Imports of the ``np.fft``-backed names and every ``<numpy>.fft`` attribute, by line."""
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
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, f"imports {a.name}") for a in node.names if a.name in FFT_BACKED]
            if node.module == "numpy":
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


def test_verify_reaches_no_numpy_fft():
    assert fft_uses(VERIFY.read_text(encoding="utf-8")) == []


def test_scan_finds_numpy_fft():
    source = (
        "import numpy as np\nfrom .spectral import dft_factored, idft_real\n"
        "x = np.fft.rfftn(a)\ny = table.fft\n"
    )
    assert fft_uses(source) == ["line 2: imports idft_real", "line 3: np.fft"]


def test_scan_finds_the_private_transform_steps():
    source = "from .spectral import _pair_passes, dft_factored\nfrom .spectral import _synthesize_half\n"
    assert fft_uses(source) == ["line 1: imports _pair_passes", "line 2: imports _synthesize_half"]
