"""Sharpness sequences: table data, cross-validation, sieving, convergence."""

import math
import sys
from fractions import Fraction

import pytest

from conftest import degree_limit_check, edit_analysis, sharp_degrees
from szpirolab import intarith, sharpness, weierstrass
from szpirolab.families import FAMILIES, ValidationError
from szpirolab.poly import Poly
from szpirolab.reduction import analyze, conductor, height_of_minimal, minimal_model
from szpirolab.sharpness import (
    SHARP_FAMILIES,
    _f_is_squarefree,
    build_FT,
    convergence_scan,
    fit_intercept,
    verify_sharp_consistency,
)
from szpirolab.weierstrass import WeierstrassModel, compute_invariants


def oracle_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class TestBuild:
    def test_c1_model(self):
        assert build_FT("C1", 1) == WeierstrassModel(0, 0, 1, 4, 0)

    def test_parameter_table(self):
        assert build_FT("C2", 3) == WeierstrassModel(*FAMILIES["C2"].model(-1, 8, 3))
        assert build_FT("C3", 2) == WeierstrassModel(*FAMILIES["C3"].model(1, 2))
        assert build_FT("C2xC8", 1) == WeierstrassModel(*FAMILIES["C2xC8"].model(4, 2))
        assert build_FT("C2xC2", 2) == WeierstrassModel(*FAMILIES["C2xC2"].model(32, 9, 1))

    def test_degenerate_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_FT("C3", 0)

    def test_discriminant_radical_is_f_radical(self):
        # build_FT rejects the n with f(n) = 0; that is exact because the
        # model discriminant and f have the same radical as polynomials in n.
        sympy = pytest.importorskip("sympy")
        n = sympy.Symbol("n")

        def radical(p):
            poly = sympy.Poly(list(reversed(p.coeffs)), n, domain="QQ")
            return poly.sqf_part().monic()

        for T, spec in SHARP_FAMILIES.items():
            coeffs = spec.model(*(Poly(c) for c in spec.args))
            disc = compute_invariants(WeierstrassModel(*coeffs)).delta
            f = math.prod((Poly(c) for c in spec.f_factors), start=Poly((1,)))
            assert radical(disc) == radical(f), T

    def test_every_row_builds_through_its_model(self):
        # One path for all fifteen rows, C1 included: the model of Poly(n)
        # arguments, evaluated at n, is the member build_FT makes.
        for T, spec in SHARP_FAMILIES.items():
            coeffs = spec.model(*(Poly(c) for c in spec.args))
            for n in (2, 3, 7, 40, -2, -3, -11):
                at_n = [c(n) if isinstance(c, Poly) else c for c in coeffs]
                assert WeierstrassModel(*at_n) == build_FT(T, n), (T, n)

    def test_rows_read_family_data(self):
        for T, spec in SHARP_FAMILIES.items():
            if T == "C1":
                assert spec.l == 1 and spec.model(5) == (0, 0, 1, 5, 0)
                continue
            assert (spec.model, spec.l) == (FAMILIES[T].model, FAMILIES[T].l), T
            assert len(spec.args) == FAMILIES[T].arity, T

    def test_torsion_point_carried_by_every_member(self):
        from szpirolab.weierstrass import AffinePoint, full_two_torsion, point_order

        origin = AffinePoint(Fraction(0), Fraction(0))
        for T in SHARP_FAMILIES:
            if T == "C1":
                continue
            fam = FAMILIES[T]
            for n in (2, 3, -2, 5, -7, 11, 20):
                m = build_FT(T, n)
                assert point_order(m, origin) == fam.point_order, (T, n)
                if fam.has_full_two_torsion:
                    assert len(full_two_torsion(m)) == 4, (T, n)


class TestTableValues:
    def test_spec_examples(self):
        assert SHARP_FAMILIES["C1"].f_value(1) == 19 * 217 == 4123
        spec = SHARP_FAMILIES["C2"]
        assert (spec.height_value(2), spec.f_value(2)) == (385**3, 254)
        spec = SHARP_FAMILIES["C3"]
        assert (spec.height_value(2), spec.f_value(2)) == (793**2, 106)

    def test_degree_limits_all_families(self):
        for T in SHARP_FAMILIES:
            assert degree_limit_check(T), T

    def test_degree_ratios(self):
        assert Fraction(*sharp_degrees(SHARP_FAMILIES["C4"])) == Fraction(12, 5)
        assert Fraction(*sharp_degrees(SHARP_FAMILIES["C12"])) == Fraction(48, 10)


class TestConsistency:
    def test_c1(self):
        rep = verify_sharp_consistency("C1", 3)
        assert rep.ok and rep.w == 1

    def test_c1_semistable_every_n(self):
        for n in range(-6, 7):
            local = analyze(build_FT("C1", n)).local
            assert all(d.semistable for d in local), n

    def test_c2xc2_conductor_1365(self):
        rep = verify_sharp_consistency("C2xC2", 3)
        assert rep.ok
        assert conductor(build_FT("C2xC2", 3)) == 1365
        assert SHARP_FAMILIES["C2xC2"].f_value(3) == 3 * 13 * 35 == 1365

    def test_c2xc6_w16(self):
        rep = verify_sharp_consistency("C2xC6", 2)
        assert rep.ok and rep.w == 16

    def test_c4_w_depends_on_n(self):
        rep = verify_sharp_consistency("C4", 2)
        assert rep.ok and rep.w == 64
        rep = verify_sharp_consistency("C4", -3)
        assert rep.ok and rep.w == 96

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match=r"\|n\| > 1"):
            verify_sharp_consistency("C2", 1)

    def test_known_c2xc8_odd_n_defect(self):
        # The published rescaling constant 64 is wrong for odd n: the
        # parameters (4n, n+1) share a factor g in {2, 4} and the family
        # coefficients have weights (4, 8, 12), so the real scaling is 256.
        rep = verify_sharp_consistency("C2xC8", 3)
        assert not rep.ok
        m = build_FT("C2xC8", 3)
        mm = minimal_model(m)
        ratio = compute_invariants(m).delta // mm.delta_min
        assert ratio == 256**12
        assert len(rep.findings) == 2  # ratio and height; radical/N/semistable fine

    def test_c2xc8_even_n_clean(self):
        assert verify_sharp_consistency("C2xC8", 4).ok

    @pytest.mark.parametrize("T", list(SHARP_FAMILIES))
    def test_squarefree_decision_matches_product(self, T):
        # verify_sharp_consistency decides on the factor values of f(n),
        # as the scan does; the decision must be that of f(n) itself.
        spec = SHARP_FAMILIES[T]
        decisions = set()
        for n in (k for m in range(2, 61) for k in (m, -m)):
            f = spec.f_value(n)
            assert f != 0
            decision = _f_is_squarefree(spec.f_factor_values(n))
            assert decision == intarith.is_squarefree(f), n
            decisions.add(decision)
        assert decisions == {True, False}

    def test_zero_factor_value_is_not_squarefree(self):
        # gcd(0, 5) != 1 would decide the first, but not the other two
        assert _f_is_squarefree([0, 5]) is _f_is_squarefree([0]) is False
        assert _f_is_squarefree([1, 0]) is False


def record_ns(T: str, n_max: int, n_min: int = 2) -> list[int]:
    return [r.n for r in convergence_scan(T, n_max, n_min=n_min).records]


class TestSieve:
    """convergence_scan keeps exactly the n >= 2 where f_T(n) is squarefree."""

    def test_c2_range(self):
        spec = SHARP_FAMILIES["C2"]
        expected = [
            n
            for n in range(2, 11)
            if oracle_squarefree(spec.f_value(n))
        ]
        assert expected == [2, 3, 5, 6, 7]
        assert record_ns("C2", 10) == expected

    def test_negative_range(self):
        # |n| <= 1 and negative n never scan: n_min below 2 is rejected
        with pytest.raises(ValidationError, match="n_min must be >= 2"):
            convergence_scan("C1", 10, n_min=-2)

    def test_square_n_excluded(self):
        # n = k^2 > 1 makes n | f with a square factor for every family
        # whose f carries the factor n
        for T in ("C2", "C3", "C10"):
            hits = record_ns(T, 50)
            assert all(n not in hits for n in (4, 9, 16, 25, 36, 49))


class TestConvergence:
    def test_fit_recovers_line(self):
        pts = [(0.1, 1.7), (0.2, 1.9), (0.3, 2.1)]
        intercept, slope = fit_intercept(pts)
        assert abs(intercept - 1.5) < 1e-12 and abs(slope - 2.0) < 1e-12

    def test_fit_rejects_equal_abscissae(self):
        with pytest.raises(ValidationError, match="degenerate"):
            fit_intercept([(1.0, 2.0), (1.0, 3.0)])

    def test_exhaustive_sample_is_a_range(self):
        values = sharpness._sample_values(2, 10**12, None)
        assert isinstance(values, range) and len(values) == 10**12 - 1

    def test_c2_exhaustive_small(self):
        scan = convergence_scan("C2", 400, n_min=100)
        assert scan.sieve_hits >= 10
        assert scan.strictly_above
        assert abs(scan.intercept - 1.5) < 0.05

    def test_warning_on_few_hits(self):
        scan = convergence_scan("C12", 12, n_min=2)
        assert scan.warning is not None
        assert scan.intercept is None

    def test_records_carry_conductor(self):
        scan = convergence_scan("C3", 50, n_min=2)
        for r in scan.records:
            assert r.height == height_of_minimal(minimal_model(r.model))
            d = r.as_dict()
            assert d["squarefree"] is True and d["conductor"] == str(abs(r.f_value))
            assert d["T"] == "C3" and isinstance(d["height"], str)

    def test_nmax_guard(self):
        with pytest.raises(ValueError):
            convergence_scan("C2", 5)

    def test_two_invariant_builds_per_record(self, monkeypatch):
        # Only minimal_model builds invariants: for the model and for its
        # certificate.  build_FT decides degeneracy from f(n) alone.
        real = weierstrass.compute_invariants
        calls = []

        def counted(model):
            calls.append(model)
            return real(model)

        for name, module in list(sys.modules.items()):
            if name.startswith("szpirolab") and vars(module).get("compute_invariants") is real:
                monkeypatch.setattr(module, "compute_invariants", counted)
        scan = convergence_scan("C5", 10000, samples=20)
        assert len(scan.records) == 11
        assert len(calls) == 22

    def test_stored_polynomials_not_rebuilt_per_record(self, monkeypatch):
        # The coefficient tuples are evaluated in place: building a Poly per
        # term cost 148 of them for these 11 records.
        real = Poly.__init__
        built = []

        def counted(self, coeffs):
            built.append(coeffs)
            real(self, coeffs)

        monkeypatch.setattr(Poly, "__init__", counted)
        scan = convergence_scan("C5", 10000, samples=20)
        assert len(scan.records) == 11
        assert len(built) <= 10

    def test_samples_guard(self):
        for samples in (1, 0, -3):
            with pytest.raises(ValueError, match="samples"):
                convergence_scan("C2", 1000, samples=samples)
        assert convergence_scan("C2", 1000, samples=2).records


def _starve_factoring(monkeypatch):
    """No attempt past trial division, and no cached answer."""
    monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 0)
    monkeypatch.setattr(intarith, "_factorize_default", intarith._factorize_uncached)
    monkeypatch.setattr(intarith, "_is_squarefree_default", intarith._is_squarefree_uncached)


class TestBudgetSkipped:
    """convergence_scan lists an n whose factoring ran out of budget."""

    def test_hard_cofactor_is_skipped(self, monkeypatch):
        value = SHARP_FAMILIES["C7"].f_factor_values(2743)[-1]
        _, m = intarith._trial(value)
        assert m >= 10**12 and not intarith.is_probable_prime(m)
        assert record_ns("C7", 2743, n_min=2743) == [2743]
        _starve_factoring(monkeypatch)
        scan = convergence_scan("C7", 2743, n_min=2743)
        assert scan.budget_skipped == (2743,)
        assert scan.records == ()

    def test_cube_rule_value_is_not_skipped(self, monkeypatch):
        # 110999183 has no prime up to 10^4 and is below 10^12: one isqrt
        # decides it, so no factoring attempt is needed.
        value = SHARP_FAMILIES["C7"].f_factor_values(131)[-1]
        _, m = intarith._trial(value)
        assert 10**8 < m < 10**12 and not intarith.is_probable_prime(m)
        _starve_factoring(monkeypatch)
        scan = convergence_scan("C7", 131, n_min=131)
        assert scan.budget_skipped == ()
        assert [r.n for r in scan.records] == [131]


class TestFindingTexts:
    """Each finding of verify_sharp_consistency, and a record at or below
    the bound in convergence_scan, fired by changing the one value it
    reads.  F_C2xC2(3) is clean: f = 3 * 13 * 35, squarefree, and I2 at
    each of 3, 5, 7 and 13."""

    def test_radical_mismatch(self, monkeypatch):
        monkeypatch.setattr(sharpness, "radical", lambda n: 2730)
        assert verify_sharp_consistency("C2xC2", 3).findings == (
            "rad(delta_min) != rad(f(n)) for F_C2xC2(3): 1365 vs 2730",
        )

    def test_additive_reduction(self, monkeypatch):
        def edit(ca):
            local = tuple(
                d._replace(semistable=d.p != 5) for d in ca.local
            )
            return ca._replace(local=local)

        edit_analysis(monkeypatch, sharpness, edit)
        assert verify_sharp_consistency("C2xC2", 3).findings == (
            "F_C2xC2(3) has additive reduction at [5]",
        )

    def test_conductor_not_f(self, monkeypatch):
        edit_analysis(
            monkeypatch, sharpness, lambda ca: ca._replace(conductor=2730)
        )
        assert verify_sharp_consistency("C2xC2", 3).findings == (
            "conductor 2730 != |f(n)| = 1365 for squarefree f, F_C2xC2(3)",
        )

    def test_record_at_or_below_the_bound(self, monkeypatch):
        assert convergence_scan("C2", 10).strictly_above
        monkeypatch.setattr(sharpness, "height_of_minimal", lambda mm: 1)
        scan = convergence_scan("C2", 10)
        assert [r.n for r in scan.records] == [2, 3, 5, 6, 7]
        assert scan.strictly_above is False
