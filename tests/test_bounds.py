"""Heights, ratios, and the phi machinery."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from szpirolab import bounds
from szpirolab.bounds import (
    PhiSpec,
    PhiValue,
    SzpiroExponent,
    all_phi_specs,
    exceeds,
    homogeneity_check,
    leading_dominance,
    phi_eval,
    phi_scan,
    phi_spec,
    szpiro_exponent,
    szpiro_ratio,
    verify_height_bound,
)
from szpirolab.families import (
    FAMILIES,
    ValidationError,
    build_model,
    delta_base,
    delta_eval,
    recover_uT,
    validate_params,
)
from szpirolab.reduction import analyze, height_of_minimal, minimal_model
from szpirolab.sharpness import build_FT
from szpirolab.sweeps import check_instance, iter_param_tuples
from szpirolab.weierstrass import (
    CertificateError,
    SingularModelError,
    WeierstrassModel,
    compute_invariants,
)

C5_11 = WeierstrassModel(0, -1, -1, 0, 0)
CURVE_11A1 = WeierstrassModel(0, -1, 1, -10, -20)


class TestExponentTable:
    def test_values(self):
        expected = {
            "C1": Fraction(1),
            "C2": Fraction(3, 2),
            "C3": Fraction(2),
            "C3_0": Fraction(2),
            "C2xC2": Fraction(2),
            "C4": Fraction(12, 5),
            "C5": Fraction(3),
            "C6": Fraction(3),
            "C2xC4": Fraction(3),
            "C7": Fraction(4),
            "C8": Fraction(4),
            "C2xC6": Fraction(4),
            "C9": Fraction(9, 2),
            "C10": Fraction(9, 2),
            "C12": Fraction(24, 5),
            "C2xC8": Fraction(24, 5),
        }
        for name, l in expected.items():
            exp = szpiro_exponent(name)
            assert exp.value == l
            assert math.gcd(exp.p, exp.q) == 1


class TestHeight:
    """max(|c4^3|, c6^2) of the global minimal model."""

    def test_c5(self):
        assert height_of_minimal(minimal_model(C5_11)) == max(16**3, 152**2) == 23104

    def test_c3_0(self):
        # c4 = 0 and c6 = -216 a^2, so the height is (216 a^2)^2
        mm = minimal_model(WeierstrassModel(0, 0, 1, 0, 0))
        assert height_of_minimal(mm) == 216**2 == 46656
        mm = minimal_model(build_model(validate_params("C3_0", 3)))
        assert height_of_minimal(mm) == (216 * 9) ** 2

    def test_sharp_c2_height(self):
        for n in (2, 5, -4):
            mm = minimal_model(build_FT("C2", n))
            assert height_of_minimal(mm) == abs(192 * n + 1) ** 3

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            minimal_model(WeierstrassModel(0, 0, 0, 0, 0))


class TestRatio:
    def test_c5(self):
        sigma = szpiro_ratio(C5_11)
        assert abs(sigma - math.log(23104) / math.log(11)) < 1e-12
        assert round(sigma, 4) == 4.1902

    def test_11a1(self):
        sigma = szpiro_ratio(CURVE_11A1)
        assert abs(sigma - 2 * math.log(20008) / math.log(11)) < 1e-12
        assert round(sigma, 4) == 8.2605

    def test_always_above_one(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            coeffs = [rng.randrange(-9, 10) for _ in range(5)]
            m = WeierstrassModel(*coeffs)
            try:
                assert szpiro_ratio(m) > 1
                assert exceeds(m, SzpiroExponent(1, 1))
            except SingularModelError:
                continue
            checked += 1


class TestExceeds:
    def test_c5_against_three(self):
        assert exceeds(C5_11, SzpiroExponent(3, 1))

    def test_c3_0_against_two(self):
        m = WeierstrassModel(0, 0, 1, 0, 0)
        assert height_of_minimal(minimal_model(m)) == 46656 > 27**2
        assert exceeds(m, SzpiroExponent(2, 1))

    def test_agrees_with_float_away_from_threshold(self):
        rng = random.Random(21)
        for name in ("C5", "C6", "C8"):
            done = 0
            while done < 10:
                a = rng.randrange(1, 25)
                b = rng.randrange(-25, 25)
                try:
                    inst = validate_params(name, a, b)
                except ValidationError:
                    continue
                m = build_model(inst)
                sigma = szpiro_ratio(m)
                for l in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(9, 2)):
                    if abs(sigma - float(l)) > 1e-9:
                        assert exceeds(
                            m, SzpiroExponent(l.numerator, l.denominator)
                        ) == (sigma > float(l))
                done += 1


class TestPhi:
    def test_branch_count(self):
        specs = all_phi_specs()
        assert len(specs) == 28
        by_family = {}
        for s in specs:
            by_family.setdefault(s.family.name, []).append(s.u_key)
        assert sorted(by_family["C4"]) == ["2c", "c"]
        assert sorted(by_family["C2"]) == [1, 2, 4]
        assert by_family["C3"] == ["c2d"]

    def test_phi_c5_at_zero(self):
        val = phi_eval(phi_spec("C5", 1), 0)
        assert val.sign == 1 and val.exact == 1

    def test_prefactors(self):
        assert phi_spec("C3", "c2d").prefactor == 1
        assert phi_spec("C4", "c").prefactor == 1
        assert phi_spec("C4", "2c").prefactor == Fraction(1, 2**12)
        assert phi_spec("C2", 4).prefactor == Fraction(1, 4**12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            phi_spec("C5", 2)
        with pytest.raises(ValueError):
            phi_spec("C3_0", 1)

    def test_small_grids_nonnegative(self):
        for spec in all_phi_specs():
            res = phi_scan(spec, denominator=8, x_range=3)
            assert res.violations == (), spec.label
            assert res.zeros == (), spec.label

    def test_scan_arguments_rejected(self):
        spec = phi_spec("C5", 1)
        with pytest.raises(ValueError, match="x_range"):
            phi_scan(spec, 16, -1)
        with pytest.raises(ValueError, match="x_range"):
            phi_scan(spec, 16, Fraction(-1, 32))
        with pytest.raises(ValueError, match="denominator"):
            phi_scan(spec, 0, 1)
        assert phi_scan(spec, 16, 0).points == 1

    def test_c2xc4_minimum_shrinks_with_refinement(self):
        spec = phi_spec("C2xC4", 2)
        coarse = phi_scan(spec, 64, 2)
        fine = phi_scan(spec, 1024, 2)
        assert coarse.violations == () and fine.violations == ()
        # exact rationals here because l = 3 is an integer
        assert 0 < fine.min_exact < coarse.min_exact
        assert abs(float(fine.argmin) - (1 - math.sqrt(5)) / 8) < 0.01 or abs(
            float(fine.argmin) - (1 + math.sqrt(5)) / 8
        ) < 0.01 or abs(float(fine.argmin) + (3 - math.sqrt(5)) / 8) < 0.01 or abs(
            float(fine.argmin) + (3 + math.sqrt(5)) / 8
        ) < 0.01

    def test_parallel_scan_matches_serial(self):
        spec = phi_spec("C6", 2)
        serial = phi_scan(spec, 16, 4, jobs=1)
        parallel = phi_scan(spec, 16, 4, jobs=2)
        assert serial.argmin == parallel.argmin
        assert serial.min_exact == parallel.min_exact
        assert serial.violations == parallel.violations

    def test_tail_dominance_all_branches(self):
        for spec in all_phi_specs():
            rep = leading_dominance(spec)
            assert rep.dominant, spec.label
            # both sides cover the same tail degree or the max side wins on degree
            assert rep.max_side_degree >= rep.bound_side_degree


def _fraction_phi_eval(spec, x):
    """Reference: phi at x from a Fraction model and its invariants, with no
    polynomial cache and no cleared denominators."""
    x = Fraction(x)
    name = spec.family.name
    full = bounds._pattern_args(name, x)
    alpha, beta = bounds._alpha_beta_at(name, full)
    delta_u = spec.family.delta_scales[spec.u_key] * Fraction(delta_base(name, full))
    big = spec.prefactor * max(abs(Fraction(alpha)) ** 3, Fraction(beta) ** 2)
    p, q = spec.exponent.p, spec.exponent.q
    lhs_pow = big**q
    rhs_pow = abs(delta_u) ** p
    sign = (lhs_pow > rhs_pow) - (lhs_pow < rhs_pow)
    exact = big - rhs_pow if q == 1 else None
    approx = bounds._safe_float(big) - bounds._float_power(abs(delta_u), p, q)
    return PhiValue(x, sign, approx, exact)


_ORACLE_POINTS = (
    0,
    -1,
    Fraction(-3, 2),
    Fraction(4, 16),
    Fraction(-6, 16),
    Fraction(12, 16),
    "10/16",
    3,
    Fraction(5, 7),
    Fraction(-22, 7),
    Fraction(1, 1024),
    Fraction(-1023, 1024),
    999_999,
    -(10**6),
    Fraction(10**6 + 1, 7),
    Fraction(-(10**6) + 3, 1024),
)


class TestIntegerPhiEval:
    """phi_eval in cleared-denominator integers against the Fraction model."""

    def _assert_same(self, spec, x):
        got, want = phi_eval(spec, x), _fraction_phi_eval(spec, x)
        assert got.x == want.x, (spec.label, x)
        assert got.sign == want.sign, (spec.label, x)
        assert got.exact == want.exact, (spec.label, x)
        assert repr(got.approx) == repr(want.approx), (spec.label, x)

    def test_matches_fraction_reference_on_every_branch(self):
        for spec in all_phi_specs():
            for x in _ORACLE_POINTS:
                self._assert_same(spec, x)

    def test_hand_built_spec(self):
        # prefactor, exponent and delta scale are read from the spec itself
        rescaled = dataclasses.replace(FAMILIES["C5"], delta_scales={1: Fraction(3, 5)})
        branches = ((FAMILIES["C5"], 1), (rescaled, 1), (FAMILIES["C2"], 4), (FAMILIES["C4"], "2c"))
        exps = ((Fraction(3, 7), SzpiroExponent(7, 2)), (Fraction(-2), SzpiroExponent(2, 1)))
        for fam, key in branches:
            for pre, exp in exps:
                spec = PhiSpec(fam, key, pre, exp)
                for x in (0, Fraction(-5, 3), Fraction(7, 16), 40):
                    self._assert_same(spec, x)

    def test_non_integral_coefficient_raises(self, monkeypatch):
        bounds._phi_polys.cache_clear()
        monkeypatch.setattr(
            bounds, "delta_base", lambda name, args: Fraction(1, 2) * delta_base(name, args)
        )
        try:
            with pytest.raises(CertificateError, match="non-integral"):
                phi_eval(phi_spec("C5", 1), Fraction(1, 3))
            with pytest.raises(CertificateError, match="non-integral"):
                leading_dominance(phi_spec("C5", 1))
        finally:
            bounds._phi_polys.cache_clear()


class TestHomogeneity:
    def test_spec_examples(self):
        assert homogeneity_check(validate_params("C5", 2, 3))
        assert homogeneity_check(validate_params("C2", 3, 2, 5))
        # a = 24 with decomposition (2,1,3), b = 5: the (cde) scaling branch
        inst = validate_params("C3", 24, 5)
        assert inst.decomposition == (2, 1, 3)
        assert homogeneity_check(inst)

    def test_alpha_scaling_explicitly(self):
        # alpha(2,3) = 2^4 alpha(1, 3/2) for the weight-12 family with 5-torsion
        from szpirolab.bounds import _alpha_beta_at

        a24, _ = _alpha_beta_at("C5", (2, 3))
        a_sub, _ = _alpha_beta_at("C5", (1, Fraction(3, 2)))
        assert Fraction(a24) == 16 * a_sub

    def test_c3_0_has_none(self):
        with pytest.raises(ValueError):
            homogeneity_check(validate_params("C3_0", 1))

    def test_non_integral_scale_raises(self):
        # explicit, so the check holds under python -O as well
        inst = validate_params("C5", 2, 3)
        bad = dataclasses.replace(inst, family=dataclasses.replace(inst.family, m=13))
        with pytest.raises(CertificateError, match="integer multiple"):
            homogeneity_check(bad)

    def test_zero_leading_parameter_rejected(self):
        inst = validate_params("C2", 0, 1, 2)
        with pytest.raises(ValueError, match="nonzero"):
            homogeneity_check(inst)


_HEIGHT_FINDING = "|delta|^l >= u^-12 max(|alpha^3|, beta^2)"


def _height_holds(inst) -> bool:
    """check_instance's height verdict, which must equal verify_height_bound
    on the bound and the height its report holds."""
    rep = check_instance(inst, checks=("bounds", "height"))
    exp = szpiro_exponent(inst.family.name)
    direct = verify_height_bound(rep.delta_bound, rep.height, exp)
    assert direct == (not any(_HEIGHT_FINDING in f for f in rep.findings))
    return direct


def _family_model_height_holds(inst) -> bool:
    """Test-only reference: the published inequality from the family
    model's own invariants, |delta_{T,u}|^l < u^-12 max(|alpha|^3, beta^2),
    with delta and u recomputed; for C3_0, (27 a^2)^2 < (216 a^2)^2."""
    name = inst.family.name
    if name == "C3_0":
        a = inst.params[0]
        return (27 * a * a) ** 2 < (216 * a * a) ** 2
    u = recover_uT(inst)
    dv = delta_eval(inst, u)
    inv = compute_invariants(build_model(inst))
    big = max(abs(inv.c4) ** 3, inv.c6**2)
    exp = szpiro_exponent(name)
    return abs(dv) ** exp.p * u ** (12 * exp.q) < big**exp.q


class TestHeightBound:
    def test_samples(self):
        assert _height_holds(validate_params("C5", 1, 1))
        assert _height_holds(validate_params("C2", 1, 2, 3))
        assert _height_holds(validate_params("C3", 24, 1))
        assert _height_holds(validate_params("C3_0", 7))

    def test_c2xc6_defect_class_still_holds(self):
        # The conductor bound breaks for this class; the height bound does not.
        assert _height_holds(validate_params("C2xC6", 1, 2))

    def test_strict_inequality(self):
        exp = SzpiroExponent(3, 2)
        assert verify_height_bound(-3, 6, exp)  # 27 < 36
        assert not verify_height_bound(6, 14, exp)  # 216 >= 196
        assert not verify_height_bound(-4, 4, SzpiroExponent(1, 1))

    def test_matches_family_model_formula(self):
        # The minimal model is the family model scaled by u, so the family
        # model's height is u^12 times the minimal one, and the two ways of
        # deciding the bound agree on every instance of the box.
        checked = 0
        for name in FAMILIES:
            for params in iter_param_tuples(name, 60 if name == "C3_0" else 6):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                model = build_model(inst)
                inv = compute_invariants(model)
                ca = analyze(model)
                assert max(abs(inv.c4) ** 3, inv.c6**2) == (
                    ca.mm.scaling_u**12 * ca.height
                ), inst
                assert _height_holds(inst) == _family_model_height_holds(inst), inst
                checked += 1
        assert checked > 1000
