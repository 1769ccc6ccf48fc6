import importlib

import pytest

# the package re-exports the function theta under the submodule's name
theta = importlib.import_module("thetacoble.theta")
modular = importlib.import_module("thetacoble.modular")

criterion_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print one PASS/FAIL line per acceptance criterion at the end of the run."""
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


def _forget(taus) -> None:
    """Drop the reference taus cached for the process, whose memos outlive a
    test, and empty the memo of each tau given, dropping its 2 tau."""
    modular.reference_tau3.cache_clear()
    modular.reference_tau2.cache_clear()
    for tau in taus:
        tau.memo.clear()
        vars(tau).pop("doubled", None)


@pytest.fixture
def fresh_memos(monkeypatch):
    """A function reset(*taus) that gives the theta kernel an empty geometry
    memo (the old one restored after the test), new reference taus and an
    empty memo at each tau given; the reference taus and the given taus are
    made fresh again after the test.  A fault patched in after the call cannot
    hide behind a table or a kept-point set built before it, nor leave one
    built under it to a later test.  A tau built after the call is fresh
    already: each tau holds its own memo."""
    taus = []

    def reset(*more):
        taus.extend(more)
        monkeypatch.setattr(theta, "_GEOMETRY", {})
        _forget(taus)

    yield reset
    _forget(taus)
