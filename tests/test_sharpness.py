"""Sharpness sequences: table data, cross-validation, sieving, convergence."""

from fractions import Fraction

import pytest

from szpirolab.reduction import analyze, conductor, height_of_minimal, minimal_model
from szpirolab.sharpness import (
    SHARP_FAMILIES,
    build_FT,
    convergence_scan,
    degree_limit_check,
    fit_intercept,
    sharp_polynomials,
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
        from szpirolab.families import model_coefficients

        assert build_FT("C2", 3) == WeierstrassModel(
            *model_coefficients("C2", (-1, 8, 3))
        )
        assert build_FT("C3", 2) == WeierstrassModel(
            *model_coefficients("C3", (1, 2))
        )
        assert build_FT("C2xC8", 1) == WeierstrassModel(
            *model_coefficients("C2xC8", (4, 2))
        )
        assert build_FT("C2xC2", 2) == WeierstrassModel(
            *model_coefficients("C2xC2", (32, 9, 1))
        )

    def test_degenerate_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_FT("C3", 0)

    def test_torsion_point_carried_by_every_member(self):
        from szpirolab.families import FAMILIES
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
        assert sharp_polynomials("C1", 1)[1] == 19 * 217 == 4123
        assert sharp_polynomials("C2", 2) == (385**3, 254)
        assert sharp_polynomials("C3", 2) == (793**2, 106)

    def test_degree_limits_all_families(self):
        for T in SHARP_FAMILIES:
            assert degree_limit_check(T), T

    def test_degree_ratios(self):
        spec = SHARP_FAMILIES["C4"]
        assert Fraction(spec.height_degree, spec.f_degree) == Fraction(12, 5)
        spec = SHARP_FAMILIES["C12"]
        assert Fraction(spec.height_degree, spec.f_degree) == Fraction(48, 10)


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
        assert sharp_polynomials("C2xC2", 3)[1] == 3 * 13 * 35 == 1365

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
        # n_min below 2 is raised to 2: |n| <= 1 and negative n never scan
        spec = SHARP_FAMILIES["C1"]
        expected = [
            n for n in range(2, 11) if oracle_squarefree(spec.f_value(n))
        ]
        assert record_ns("C1", 10, n_min=-2) == expected

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
            assert r.squarefree and r.conductor == abs(r.f_value)
            assert r.height == height_of_minimal(minimal_model(r.model))
            d = r.as_dict()
            assert d["T"] == "C3" and isinstance(d["height"], str)

    def test_nmax_guard(self):
        with pytest.raises(ValueError):
            convergence_scan("C2", 5)

    def test_samples_guard(self):
        for samples in (1, 0, -3):
            with pytest.raises(ValueError, match="samples"):
                convergence_scan("C2", 1000, samples=samples)
        assert convergence_scan("C2", 1000, samples=2).records
