"""Shared fixtures; collects acceptance-gate lines for the terminal summary."""

from __future__ import annotations

import pytest

from bohrlab import verify

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion_log():
    """Record a one-line verdict; echoed in the run's terminal summary."""

    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


@pytest.fixture(autouse=True)
def fresh_count_memo():
    """Empty the verifier's count memo around every test.

    A test that patches the primes or the count routes must count afresh, not
    be served a table that an earlier test left behind.
    """
    verify._memo_counts.cache_clear()
    yield
    verify._memo_counts.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
