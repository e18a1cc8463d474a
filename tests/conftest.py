"""Shared pytest wiring: collect acceptance verdicts for the run summary,
and record which process pools a test enters."""

import pytest

from szpirolab import bounds

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def pool_entries(monkeypatch):
    """A list that gains one entry per process pool entered; every pool in
    the library is started by bounds.fan_out (see test_source)."""
    entries = []

    class RecordingPool(bounds.ProcessPoolExecutor):
        def __enter__(self):
            entries.append(self)
            return super().__enter__()

    monkeypatch.setattr(bounds, "ProcessPoolExecutor", RecordingPool)
    return entries
