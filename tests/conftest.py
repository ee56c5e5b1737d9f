"""Echoes the one-line acceptance check results after the run."""

import sys

import pytest

# a tested checkout keeps no bytecode under src/, so that the package's
# start-up time reads the same there as on a fresh checkout
sys.dont_write_bytecode = True


def keep_no_bytecode() -> None:
    """Initializer of a test's spawned worker processes. Unpickling it
    imports this module, which sets the flag above before the worker
    imports the package; it lives here because this module imports no
    package module."""
    sys.dont_write_bytecode = True


_RECORDED: list[str] = []


@pytest.fixture
def record_check():
    """Record a one-line result; printed immediately and again in the
    terminal summary so it survives output capture."""

    def _record(line: str) -> None:
        _RECORDED.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if _RECORDED:
        terminalreporter.section("acceptance checks")
        for line in _RECORDED:
            terminalreporter.write_line(line)
