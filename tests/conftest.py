import importlib

import pytest

# the package re-exports the function theta under the submodule's name
theta = importlib.import_module("thetacoble.theta")

criterion_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print one PASS/FAIL line per acceptance criterion at the end of the run."""
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def fresh_memos(monkeypatch):
    """A function that gives the theta kernel an empty memo and an empty
    geometry memo, both restored after the test: a fault patched in after the
    call cannot hide behind a table or a kept-point set built before it."""

    def reset():
        monkeypatch.setattr(theta, "_MEMO", {})
        monkeypatch.setattr(theta, "_GEOMETRY", {})

    return reset
