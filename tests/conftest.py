"""Shared pytest wiring: collect acceptance verdicts for the run summary,
record which worker processes a test forks, and the test-only references
and patches that several test modules use."""

import os
from fractions import Fraction

import pytest

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
def forked_workers(monkeypatch):
    """A list that gains the pid of each worker process forked; every
    process the library starts is forked by bounds.fan_out (see
    test_source)."""
    pids = []
    real = os.fork

    def recording_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def edit_analysis(monkeypatch, module, edit):
    """module.analyze returns edit(analysis) in place of the analysis."""
    real = module.analyze
    monkeypatch.setattr(module, "analyze", lambda model: edit(real(model)))


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
