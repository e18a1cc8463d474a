"""Shared pytest wiring: collect acceptance verdicts for the run summary,
record which process pools a test enters, and the test-only references
that several test modules use."""

from fractions import Fraction

import pytest

from szpirolab import bounds
from szpirolab.weierstrass import Isomorphism, _norm

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


def inverse(iso: Isomorphism) -> Isomorphism:
    """The isomorphism that undoes iso."""
    u, r, s, t = iso.u, iso.r, iso.s, iso.t
    uq = Fraction(u)
    return Isomorphism(
        _norm(1 / uq),
        _norm(-Fraction(r) / uq**2),
        _norm(-Fraction(s) / uq),
        _norm(Fraction(s * r - t) / uq**3),
    )
