"""The repository's pytest settings, run on throwaway tests in a fresh pytest process."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TINY = textwrap.dedent(
    """
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(x):
        assert x < 0


    def test_own_deprecation_fails():
        warnings.warn("old", DeprecationWarning)
    """
)


def test_failing_property_shows_its_example(tmp_path):
    # On failure Hypothesis imports libcst, whose use of mypy_extensions.TypedDict warns; under
    # error::DeprecationWarning alone that ended the run in INTERNALERROR with no example shown.
    pytest.importorskip("libcst")
    (tmp_path / "test_tiny.py").write_text(TINY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    # A test's own deprecation still fails it.
    assert "FAILED test_tiny.py::test_own_deprecation_fails - DeprecationWarning: old" in out
    assert "2 failed" in out and run.returncode == 1
