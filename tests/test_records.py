"""The per-curve result records are immutable tuple records: no attribute
can be set, they compare and hash by value, _replace gives an updated
copy, and their str and repr texts stay as printed in findings and
certificates.  Being tuples, they also equal (and hash as) any tuple, or
record of another class, with the same values, and they index, iterate and
order like tuples.  Isomorphism keeps its u != 0 check on every path that
builds one."""

import pickle
from fractions import Fraction

import pytest

from szpirolab.bounds import leading_dominance, phi_eval, phi_scan, phi_spec
from szpirolab.families import FamilyInstance, ValidationError, validate_params
from szpirolab.reduction import analyze, minimal_model
from szpirolab.sharpness import convergence_scan, verify_sharp_consistency
from szpirolab.sweeps import check_instance, run_sweep
from szpirolab.weierstrass import (
    AffinePoint,
    Isomorphism,
    WeierstrassModel,
    compute_invariants,
)

CURVE_11A1 = WeierstrassModel(0, -1, 1, -10, -20)


def _records() -> dict:
    """One record of each converted class, built by the code that returns it."""
    spec = phi_spec("C5", 1)
    ca = analyze(CURVE_11A1)
    scan = convergence_scan("C2", 40)
    return {
        "WeierstrassModel": CURVE_11A1,
        "ModelInvariants": compute_invariants(CURVE_11A1),
        "AffinePoint": AffinePoint(Fraction(5), Fraction(-6)),
        "MinimalModelResult": minimal_model(CURVE_11A1),
        "LocalReductionData": ca.local[0],
        "CurveAnalysis": ca,
        "FamilyInstance": validate_params("C5", 1, 1),
        "InstanceReport": check_instance(validate_params("C2xC6", 1, 2)),
        "SweepSummary": run_sweep("C5", 2),
        "SharpnessRecord": scan.records[0],
        "ConsistencyReport": verify_sharp_consistency("C2xC8", 3),
        "ConvergenceScan": scan,
        "PhiSpec": spec,
        "PhiValue": phi_eval(spec, Fraction(1, 2)),
        "PhiScanResult": phi_scan(spec, 2, 2),
        "DominanceReport": leading_dominance(spec),
    }


RECORDS = _records()
NAMES = sorted(RECORDS)


def test_every_record_is_its_own_class():
    assert sorted(type(rec).__name__ for rec in RECORDS.values()) == NAMES


@pytest.mark.parametrize("name", NAMES)
class TestRecordSemantics:
    def test_is_a_tuple_record(self, name):
        rec = RECORDS[name]
        assert isinstance(rec, tuple) and len(rec) == len(rec._fields)
        assert tuple(getattr(rec, f) for f in rec._fields) == tuple(rec)

    def test_attribute_assignment_raises(self, name):
        rec = RECORDS[name]
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
            with pytest.raises(AttributeError):
                delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_compares_and_hashes_by_value(self, name):
        rec = RECORDS[name]
        copy = type(rec)(*rec)
        assert copy is not rec and copy == rec and hash(copy) == hash(rec)
        assert pickle.loads(pickle.dumps(rec)) == rec
        changed = rec._replace(**{rec._fields[-1]: object()})
        assert changed != rec

    def test_equals_a_plain_tuple_of_its_values(self, name):
        # tuple equality: a record is not distinct from a plain tuple, or
        # from a record of another class, holding the same values
        rec = RECORDS[name]
        plain = tuple(rec)
        assert type(plain) is tuple
        assert rec == plain and hash(rec) == hash(plain)
        assert {plain: name}[rec] == name

    def test_replace_returns_updated_copy(self, name):
        rec = RECORDS[name]
        before = tuple(rec)
        marker = object()
        for i, field in enumerate(rec._fields):
            new = rec._replace(**{field: marker})
            assert type(new) is type(rec)
            assert getattr(new, field) is marker
            assert tuple(new[:i]) + tuple(new[i + 1 :]) == before[:i] + before[i + 1 :]
        assert tuple(rec) == before
        with pytest.raises(ValueError):
            rec._replace(no_such_field=1)


class TestTexts:
    """The str and repr texts that findings, certificates and the CLI print."""

    def test_model_and_point(self):
        assert str(CURVE_11A1) == "[0,-1,1,-10,-20]"
        assert repr(CURVE_11A1) == "WeierstrassModel(a1=0, a2=-1, a3=1, a4=-10, a6=-20)"
        assert str(AffinePoint(Fraction(1, 4), 0)) == "(1/4, 0)"
        assert CURVE_11A1.coefficients() == (0, -1, 1, -10, -20)
        assert type(CURVE_11A1.coefficients()) is tuple

    def test_instance(self):
        inst = validate_params("C3", 24, 1)
        assert str(inst) == "C3(24, 1)"
        assert inst.delta_args == (2, 1, 3, 1)
        assert FamilyInstance(inst.family, (24, 1)).decomposition is None

    def test_isomorphism(self):
        iso = minimal_model(WeierstrassModel(4, 28, 40, 96, -2432)).iso
        assert repr(iso) == str(iso) == "Isomorphism(u=2, r=-12, s=-2, t=8)"
        assert Isomorphism(3) == (3, 0, 0, 0)

    def test_properties(self):
        assert RECORDS["MinimalModelResult"].delta_min == -161051
        assert RECORDS["PhiSpec"].label == "phi[C5, u=1]"
        assert not RECORDS["InstanceReport"].ok and RECORDS["SweepSummary"].ok
        assert not RECORDS["ConsistencyReport"].ok
        assert RECORDS["ConvergenceScan"].sieve_hits == len(RECORDS["ConvergenceScan"].records)


def test_records_of_different_classes_with_equal_values_are_equal():
    model = WeierstrassModel(1, 2, 3, 4, 5)
    local = type(RECORDS["LocalReductionData"])(1, 2, 3, 4, 5)
    assert model == (1, 2, 3, 4, 5) == local and hash(model) == hash(local)
    assert AffinePoint(0, 0) == (0, 0)
    assert sorted([AffinePoint(1, 0), AffinePoint(0, 5)]) == [(0, 5), (1, 0)]


class TestIsomorphism:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            Isomorphism(0)
        with pytest.raises(ValidationError, match="nonzero"):
            Isomorphism(Fraction(0), 1, 2, 3)

    def test_replace_and_make_keep_the_check(self):
        iso = Isomorphism(2, 1)
        assert iso._replace(t=5) == Isomorphism(2, 1, 0, 5)
        with pytest.raises(ValidationError, match="nonzero"):
            iso._replace(u=0)
        with pytest.raises(ValidationError, match="nonzero"):
            Isomorphism._make((0, 1, 2, 3))

    def test_immutable_and_by_value(self):
        iso = Isomorphism(2, 1)
        with pytest.raises(AttributeError):
            iso.u = 0
        with pytest.raises(AttributeError):
            iso.extra = 1
        assert iso == Isomorphism(2, 1, 0, 0) and hash(iso) == hash(Isomorphism(2, 1, 0, 0))
        assert pickle.loads(pickle.dumps(iso)) == iso
