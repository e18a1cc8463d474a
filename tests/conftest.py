"""Shared pytest wiring: collect acceptance verdicts for the run summary,
and record which process pools a test enters."""

import concurrent.futures

import pytest

from szpirolab import sweeps

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
    """A list that gains one entry per process pool entered by phi_scan
    (which imports the executor at call time) or run_sweep."""
    entries = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __enter__(self):
            entries.append(self)
            return super().__enter__()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
    return entries
