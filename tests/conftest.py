"""Shared fixtures and the acceptance-summary reporter.

Acceptance tests register one line per criterion through the
``criterion`` context manager; the collected lines are printed in the
terminal summary so a plain ``pytest -v`` run always ends with an
explicit PASS/FAIL roster of the acceptance checks.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from zfoutage import analytic

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@contextmanager
def criterion(number: int, title: str):
    """Record PASS/FAIL for one acceptance criterion around its asserts."""
    try:
        yield
    except BaseException:
        _ACCEPTANCE_LINES.append((number, f"criterion {number} FAIL: {title}"))
        raise
    else:
        _ACCEPTANCE_LINES.append((number, f"criterion {number} PASS: {title}"))


@pytest.fixture
def count_closed_forms(monkeypatch):
    """Call ``fn(*args, **kwargs)``; return its result and the closed forms made.

    A closed form is one analytic._series_sum call.
    """

    def run(fn, *args, **kwargs):
        calls = 0
        series_sum = analytic._series_sum

        def counting(*series_args):
            nonlocal calls
            calls += 1
            return series_sum(*series_args)

        monkeypatch.setattr(analytic, "_series_sum", counting)
        try:
            return fn(*args, **kwargs), calls
        finally:
            monkeypatch.setattr(analytic, "_series_sum", series_sum)

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
