"""Sweep engine: enumeration, per-instance reports, config plumbing."""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest

from szpirolab.bounds import SzpiroExponent, exceeds
from szpirolab.families import FAMILIES, ValidationError, validate_params
from szpirolab.sweeps import (
    ALL_CHECKS,
    SweepConfig,
    check_instance,
    default_jobs,
    iter_param_tuples,
    run_config,
    run_sweep,
)
from szpirolab.weierstrass import WeierstrassModel


def _first_instance(name):
    for params in iter_param_tuples(name, 3):
        try:
            return validate_params(name, *params)
        except ValidationError:
            continue


class TestEnumeration:
    def test_two_param_box(self):
        tuples = list(iter_param_tuples("C5", 3))
        assert (1, -3) in tuples and (3, 2) in tuples
        assert all(math.gcd(a, b) == 1 for a, b in tuples)
        assert all(1 <= a <= 3 and -3 <= b <= 3 for a, b in tuples)

    def test_c2_box_includes_negative_d(self):
        tuples = list(iter_param_tuples("C2", 2))
        assert (0, 1, -1) in tuples
        assert all(d not in (0, 1) for _, _, d in tuples)

    def test_c2xc2_box(self):
        tuples = list(iter_param_tuples("C2xC2", 3))
        assert all(a % 2 == 0 and a != 0 for a, _, _ in tuples)
        assert any(d == 1 for _, _, d in tuples)

    def test_c3_0_box(self):
        assert list(iter_param_tuples("C3_0", 4)) == [(1,), (2,), (3,), (4,)]

    def test_deterministic(self):
        assert list(iter_param_tuples("C6", 4)) == list(iter_param_tuples("C6", 4))


class TestCheckInstance:
    def test_clean_instance(self):
        rep = check_instance(validate_params("C5", 1, 1))
        assert rep.ok
        assert (rep.u, rep.conductor, rep.delta_bound, rep.height) == (
            1, 11, 11, 23104,
        )

    def test_checks_subset_skips_torsion(self):
        rep = check_instance(validate_params("C5", 1, 1), checks=("bounds",))
        assert rep.ok and rep.delta_bound == 11

    def test_known_defect_reported(self):
        rep = check_instance(validate_params("C2xC6", 1, 2))
        assert not rep.ok
        assert any("v_2(N)" in f for f in rep.findings)
        assert any("> bound" in f or "conductor" in f for f in rep.findings)

    def test_u_outside_set_reported_not_raised(self, monkeypatch):
        # With u = 1 barred, delta_{C5,u} has no branch for the recovered u;
        # the height check must step aside and leave the u-set finding.
        fam = dataclasses.replace(FAMILIES["C5"], allowed_u=(2,))
        monkeypatch.setitem(FAMILIES, "C5", fam)
        inst = validate_params("C5", 1, 1)
        rep = check_instance(inst)
        assert rep.u == 1 and not rep.ok
        assert any("outside the allowed set" in f for f in rep.findings)
        assert rep.findings == check_instance(inst, checks=("bounds", "torsion")).findings

    def test_nonintegral_delta_reported_not_raised(self, monkeypatch):
        # With delta_{C5,1} scaled by 1/7 the bound polynomial is not
        # integral; the height check must step aside and leave the finding.
        fam = dataclasses.replace(FAMILIES["C5"], delta_scales={1: Fraction(1, 7)})
        monkeypatch.setitem(FAMILIES, "C5", fam)
        inst = validate_params("C5", 1, 1)
        rep = check_instance(inst)
        assert rep.u == 1 and not rep.ok
        assert any("not integral" in f for f in rep.findings)
        assert rep.findings == check_instance(inst, checks=("bounds", "torsion")).findings
        assert check_instance(inst, checks=("height",)).findings == rep.findings


class TestRunSweep:
    def test_counts_and_order_stable_across_jobs(self):
        one = run_sweep("C6", 5, jobs=1)
        two = run_sweep("C6", 5, jobs=2)
        assert one == two
        assert one.ok and one.checked > 0

    def test_c30_override(self):
        from szpirolab.intarith import is_cubefree

        s = run_sweep("C3_0", 5, c30_bound=20)
        assert s.bound == 20
        assert s.checked == sum(1 for a in range(1, 21) if is_cubefree(a))


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.checks == ALL_CHECKS
        assert "C5" in config.family_names() and len(config.family_names()) == 15

    def test_single_family(self):
        config = SweepConfig(family="C7", bound=4, jobs=1)
        (summary,) = run_config(config)
        assert summary.family == "C7" and summary.ok

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SweepConfig(bound=0)
        with pytest.raises(ValueError, match="worker"):
            SweepConfig(jobs=0)
        with pytest.raises(ValueError, match="unknown checks"):
            SweepConfig(checks=("bounds", "phi"))


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SZPIROLAB_JOBS", "7")
        assert default_jobs() == 7
        monkeypatch.setenv("SZPIROLAB_JOBS", "junk")
        assert default_jobs() >= 1


def _count_calls(monkeypatch, module, name):
    """Counts calls of module.name through every szpirolab module that
    binds it."""
    real = getattr(module, name)
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("szpirolab") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def minimal_model_calls(monkeypatch):
    from szpirolab import reduction

    return _count_calls(monkeypatch, reduction, "minimal_model")


@pytest.fixture
def compute_invariants_calls(monkeypatch):
    from szpirolab import weierstrass

    return _count_calls(monkeypatch, weierstrass, "compute_invariants")


class TestSingleMinimalModel:
    def test_one_build_per_check_instance(self, minimal_model_calls):
        for name in FAMILIES:
            inst = _first_instance(name)
            minimal_model_calls.clear()
            check_instance(inst)
            assert len(minimal_model_calls) == 1, name

    def test_one_build_per_exceeds(self, minimal_model_calls):
        exceeds(WeierstrassModel(0, -1, -1, 0, 0), SzpiroExponent(3, 1))
        assert len(minimal_model_calls) == 1


class TestOneSetOfInvariants:
    def test_at_most_two_per_instance(self, compute_invariants_calls):
        # One on the family model in minimal_model and one certifying the
        # model rebuilt from (c4, c6); validation builds no model at all.
        for name in FAMILIES:
            params = _first_instance(name).params
            compute_invariants_calls.clear()
            check_instance(validate_params(name, *params))
            assert len(compute_invariants_calls) <= 2, name
