"""Shared pytest wiring: collect acceptance verdicts for the run summary,
record which worker processes a test forks, and the test-only references,
oracles and patches that several test modules use."""

import math
import os
from fractions import Fraction

import pytest

from szpirolab import bounds, sharpness
from szpirolab.families import ValidationError
from szpirolab.poly import evaluate
from szpirolab.weierstrass import CertificateError, Isomorphism, _norm

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


def _name_branch_homogeneity_data(instance):
    """Test-only reference: the reduction of an instance to (x, alpha scale,
    beta scale, delta scale), one branch per family shape."""
    name = instance.family.name
    m = instance.family.m
    l = instance.family.l
    if name == "C2":
        a, b, d = instance.params
        x = Fraction(b * b * d, a * a)
        base = dbase = Fraction(a)
    elif name == "C2xC2":
        a, b, d = instance.params
        x = Fraction(b, a)
        base = dbase = Fraction(a * d)
    else:
        a, b = instance.params
        x = Fraction(b, a)
        base = Fraction(a)
        dbase = Fraction(math.prod(instance.decomposition or (a,)))
    m_over_l = Fraction(m) / l
    if m_over_l.denominator != 1:
        raise CertificateError(
            f"{name}: weight m = {m} is not an integer multiple of l = {l}, "
            "so delta has no integral homogeneity scale"
        )
    return x, base ** (m // 3), base ** (m // 2), dbase ** int(m_over_l)


def homogeneity_check(instance) -> bool:
    """Criterion 4's sampled oracle: c4, c6 and delta_T at the instance are
    the scales of _name_branch_homogeneity_data times bounds._phi_polys at x,
    exactly in rational arithmetic."""
    if instance.family.name not in bounds.PHI_FAMILIES:
        raise ValidationError(f"{instance.family.name} carries no homogeneity identities")
    if instance.params[0] == 0:
        raise ValidationError("leading parameter must be nonzero")
    x, *scales = _name_branch_homogeneity_data(instance)
    subs = (evaluate(poly.coeffs, x) for poly in bounds._phi_polys(instance.family.name))
    forms = bounds._forms_at(instance)
    return all(
        Fraction(form) == scale * sub for form, scale, sub in zip(forms, scales, subs)
    )


def sharp_degrees(spec) -> tuple[int, int]:
    """(deg H, deg f) of a sharpness sequence, read from its stored factors."""
    return (
        sum((len(c) - 1) * e for c, e in spec.height_factors),
        sum(len(c) - 1 for c in spec.f_factors),
    )


def degree_limit_check(T: str) -> bool:
    """Criterion 7a's oracle: deg H / deg f equals the sharp exponent l."""
    spec = sharpness.sharp_family(T)
    return Fraction(*sharp_degrees(spec)) == spec.l
