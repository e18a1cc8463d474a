"""Minimal models, Tate's algorithm, conductors, semistability."""

import dataclasses
import random
from fractions import Fraction

import pytest

from szpirolab import reduction
from szpirolab.bounds import SzpiroExponent, exceeds
from szpirolab.intarith import factorize, is_squarefree
from szpirolab.reduction import (
    NonMinimalError,
    _model_from_c4c6,
    analyze,
    conductor,
    local_reduction,
    minimal_model,
    semistability_report,
    tate_local,
)
from szpirolab.weierstrass import (
    CertificateError,
    Isomorphism,
    SingularModelError,
    WeierstrassModel,
    compute_invariants,
    transform,
)

CURVE_11A1 = WeierstrassModel(0, -1, 1, -10, -20)


def blow_up(m: WeierstrassModel, u: int) -> WeierstrassModel:
    """Integral model with invariants scaled up by u (inverse direction)."""
    big = transform(m, Isomorphism(Fraction(1, u)))
    assert big.is_integral()
    return big


class TestMinimalModel:
    def test_11a1_already_minimal(self):
        mm = minimal_model(CURVE_11A1)
        assert mm.scaling_u == 1
        assert mm.minimal == CURVE_11A1
        assert mm.delta_min == -161051

    def test_blow_up_round_trip(self):
        big = blow_up(CURVE_11A1, 2)
        mm = minimal_model(big)
        assert mm.scaling_u == 2
        assert mm.delta_min == -161051
        assert mm.minimal == CURVE_11A1
        assert transform(big, mm.iso) == mm.minimal

    def test_c3_11_minimal(self):
        # y^2 + xy + y = x^3: |c4| = 23 prime, so no prime passes descent
        m = WeierstrassModel(1, 0, 1, 0, 0)
        inv = compute_invariants(m)
        assert abs(inv.c4) == 23 and abs(inv.delta) == 26
        mm = minimal_model(m)
        assert mm.scaling_u == 1 and mm.delta_min == -26

    def test_c5_11_minimal(self):
        mm = minimal_model(WeierstrassModel(0, -1, -1, 0, 0))
        assert mm.scaling_u == 1 and mm.delta_min == -11

    def test_delta_scaling_invariant(self):
        rng = random.Random(31337)
        for _ in range(50):
            coeffs = [rng.randrange(-9, 10) for _ in range(5)]
            m = WeierstrassModel(*coeffs)
            if compute_invariants(m).delta == 0:
                continue
            for u in (1, 2, 3, 6):
                big = blow_up(m, u)
                mm = minimal_model(big)
                assert compute_invariants(big).delta == mm.scaling_u**12 * mm.delta_min
                # idempotence
                again = minimal_model(mm.minimal)
                assert again.scaling_u == 1
                assert again.minimal == mm.minimal

    def test_kraus_delta_integrality_guard(self):
        # v3(c6) = 7 would allow k = 1 at 3 but v3(delta) = 11 < 12 forbids it
        m = WeierstrassModel(0, 0, 9, 0, 0)
        mm = minimal_model(m)
        assert mm.scaling_u == 1
        assert mm.delta_min == -(3**11)

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            minimal_model(WeierstrassModel(0, 0, 0, 0, 0))

    def test_rational_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            minimal_model(WeierstrassModel(Fraction(1, 2), 0, 0, 0, 0))

    def test_no_model_for_bad_pair(self):
        with pytest.raises(ValueError, match="no integral model"):
            _model_from_c4c6(1, 1)


class TestTateLocal:
    def test_multiplicative_11(self):
        data = tate_local(CURVE_11A1, 11)
        assert (data.fp, data.kodaira, data.semistable) == (1, "I5", True)
        assert data.vp_delta == 5

    def test_good_prime(self):
        data = tate_local(CURVE_11A1, 7)
        assert (data.fp, data.kodaira, data.semistable) == (0, "I0", True)

    def test_c3_11_at_13(self):
        # v13(delta) = 1 forces multiplicative reduction
        data = tate_local(WeierstrassModel(1, 0, 1, 0, 0), 13)
        assert data.fp == 1 and data.kodaira == "I1"

    def test_additive_types(self):
        # y^2 = x^3 + 1: N = 36
        m = WeierstrassModel(0, 0, 0, 0, 1)
        at2 = tate_local(m, 2)
        at3 = tate_local(m, 3)
        assert (at2.fp, at2.kodaira, at2.semistable) == (2, "IV", False)
        assert (at3.fp, at3.kodaira, at3.semistable) == (2, "III", False)

    def test_type_ii(self):
        # y^2 + y = x^3: N = 27, so f3 = 3 with v3(delta) = 3
        data = tate_local(WeierstrassModel(0, 0, 1, 0, 0), 3)
        assert (data.fp, data.kodaira) == (3, "II")

    def test_type_iii_at_2(self):
        # y^2 = x^3 - x: N = 32, f2 = 5, v2(delta) = 6
        data = tate_local(WeierstrassModel(0, 0, 0, -1, 0), 2)
        assert (data.fp, data.kodaira) == (5, "III")

    def test_i_star_ladder(self):
        # y^2 = x^3 - p^2 x for p = 5: quadratic twist by 5 of y^2 = x^3 - x;
        # additive at 5 with v5(delta) = 6 and v5(c4) = 2: type I0*.
        data = tate_local(WeierstrassModel(0, 0, 0, -25, 0), 5)
        assert data.kodaira == "I0*"
        assert data.fp == 2

    def test_starred_types_from_valuation_table(self):
        # For p >= 5 the type is pinned by (v(c4), v(c6), v(delta)) alone:
        # (>=4, 5, 10) II*, (3, >=5, 9) III*, (>=3, 4, 8) IV*,
        # (2, 3, 6+m) I_m*.  Each curve below is minimal at its prime.
        cases = [
            (WeierstrassModel(0, 0, 0, 0, 5**5), 5, "II*"),
            (WeierstrassModel(0, 0, 0, 7**3, 0), 7, "III*"),
            (WeierstrassModel(0, 0, 0, 0, 5**4), 5, "IV*"),
            (WeierstrassModel(0, 0, 0, -(23**2), 23**3), 23, "I1*"),
        ]
        for m, p, label in cases:
            assert minimal_model(m).scaling_u == 1
            data = tate_local(m, p)
            assert (data.kodaira, data.fp) == (label, 2), (m, p)

    def test_twisting_multiplicative_gives_i_m_star(self):
        # Quadratic twisting by p turns I_m at p into I_m* (p >= 5), which
        # exercises the whole ladder against an independent fact.
        rng = random.Random(60601)
        checked = 0
        while checked < 30:
            a2, a4, a6 = (rng.randrange(-20, 21) for _ in range(3))
            m = WeierstrassModel(0, a2, 0, a4, a6)
            inv = compute_invariants(m)
            if inv.delta == 0:
                continue
            for p, e in factorize(inv.delta):
                if p < 5 or inv.c4 % p == 0 or e > 6:
                    continue
                twist = WeierstrassModel(0, a2 * p, 0, a4 * p * p, a6 * p**3)
                data = tate_local(twist, p)
                assert (data.kodaira, data.fp) == (f"I{e}*", 2), (m, p)
                checked += 1
        assert checked >= 30

    def test_deep_i_star_ladder_via_twist(self):
        # y^2 = x^3 + x^2 + 23 has I4 at 5 (v5(delta) = 4, c4 prime to 5);
        # its quadratic twist by 5 must come out I4* with exponent 2.
        base = WeierstrassModel(0, 1, 0, 0, 23)
        data = tate_local(base, 5)
        assert (data.kodaira, data.fp) == ("I4", 1)
        twist = WeierstrassModel(0, 5, 0, 0, 23 * 125)
        assert minimal_model(twist).scaling_u == 1
        data = tate_local(twist, 5)
        assert (data.kodaira, data.fp) == ("I4*", 2)
        assert data.vp_delta == 10

    def test_non_minimal_rejected(self):
        big = blow_up(CURVE_11A1, 11)
        with pytest.raises(NonMinimalError):
            tate_local(big, 11)

    def test_ogg_consistency_random(self):
        # f = v(delta) - (components - 1) by construction; spot-check the
        # relation between label and exponent on random minimal models.
        rng = random.Random(777)
        seen = set()
        checked = 0
        while checked < 120:
            coeffs = [rng.randrange(-20, 21) for _ in range(5)]
            m = WeierstrassModel(*coeffs)
            if compute_invariants(m).delta == 0:
                continue
            mm = minimal_model(m)
            for p, _ in factorize(mm.delta_min):
                data = tate_local(mm.minimal, p)
                seen.add(data.kodaira[:2])
                cap = {2: 8, 3: 5}.get(p, 2)
                assert 0 < data.fp <= cap
                assert data.semistable == (data.fp == 1)
                if data.kodaira[1:].isdigit():  # multiplicative I_n
                    assert data.fp == 1
                    assert data.kodaira == f"I{data.vp_delta}"
                else:
                    assert data.fp >= 2
            checked += 1


class TestConductor:
    def test_known_values(self):
        assert conductor(CURVE_11A1) == 11
        assert conductor(WeierstrassModel(0, 0, 1, 0, 0)) == 27
        assert conductor(WeierstrassModel(0, 0, 0, 0, 1)) == 36
        assert conductor(WeierstrassModel(0, 0, 0, -1, 0)) == 32
        assert conductor(WeierstrassModel(0, 0, 1, -1, 0)) == 37

    def test_squarefree_discriminant_gives_radical(self):
        # semistable shortcut: squarefree minimal discriminant means N = |delta|
        m = WeierstrassModel(1, 0, 1, 0, 0)  # delta = -26
        assert is_squarefree(-26)
        assert conductor(m) == 26

    def test_scaling_invariance(self):
        assert conductor(blow_up(CURVE_11A1, 6)) == 11

    def test_support_inside_delta(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 60:
            coeffs = [rng.randrange(-15, 16) for _ in range(5)]
            m = WeierstrassModel(*coeffs)
            if compute_invariants(m).delta == 0:
                continue
            mm = minimal_model(m)
            N = conductor(m)
            for p, _ in factorize(N):
                assert mm.delta_min % p == 0
            checked += 1


class TestSemistability:
    def test_additive_curve(self):
        report = dict(semistability_report(WeierstrassModel(0, 0, 0, 0, 1)))
        assert report == {2: False, 3: False}

    def test_semistable_curve(self):
        report = dict(semistability_report(CURVE_11A1))
        assert report == {11: True}

    def test_c5_semistable_at_11(self):
        report = dict(semistability_report(WeierstrassModel(0, -1, -1, 0, 0)))
        assert report == {11: True}

    def test_matches_exponent_one(self):
        for m in (
            CURVE_11A1,
            WeierstrassModel(0, 0, 0, 0, 1),
            WeierstrassModel(0, 0, 1, 0, 0),
            WeierstrassModel(0, 2, 0, -11, 0),
        ):
            flags = dict(semistability_report(m))
            for data in local_reduction(m):
                assert flags[data.p] == (data.fp == 1)


def _random_curves(rng, count, bound=12):
    out = []
    while len(out) < count:
        m = WeierstrassModel(*(rng.randrange(-bound, bound + 1) for _ in range(5)))
        if compute_invariants(m).delta != 0:
            out.append(m)
    return out


def _random_integral_iso(rng):
    return Isomorphism(
        rng.randrange(1, 7), *(rng.randrange(-9, 10) for _ in range(3))
    )


class TestAnalyze:
    def test_11a1(self):
        ca = analyze(CURVE_11A1)
        assert ca.mm == minimal_model(CURVE_11A1)
        assert ca.factorization.pairs == ((11, 5),)
        assert [(d.p, d.kodaira, d.fp) for d in ca.local] == [(11, "I5", 1)]
        assert ca.conductor == 11
        assert ca.height == max(496**3, 20008**2)

    def test_local_data_matches_tate_everywhere(self):
        # The I_n shortcut at p not dividing c4 must agree with Tate's
        # algorithm run at every prime.
        for m in _random_curves(random.Random(90210), 80):
            ca = analyze(m)
            assert ca.factorization == factorize(ca.mm.delta_min)
            assert list(ca.local) == [
                tate_local(ca.mm.minimal, p) for p, _ in ca.factorization
            ]
            N = 1
            for d in ca.local:
                N *= d.p**d.fp
            assert ca.conductor == N

    def test_invariant_under_integral_isomorphisms(self):
        # A random integral isomorphism (u, r, s, t), applied backwards to a
        # random curve, gives another integral model of the same curve:
        # nothing about the curve may change, and the recovered
        # isomorphism must be integral.
        rng = random.Random(271828)
        for m in _random_curves(rng, 60):
            base = analyze(m)
            iso = _random_integral_iso(rng)
            big = transform(m, iso.inverse())
            assert big.is_integral()
            ca = analyze(big)
            assert ca.mm.minimal == base.mm.minimal
            assert ca.mm.delta_min == base.mm.delta_min
            assert ca.conductor == base.conductor
            assert [d.kodaira for d in ca.local] == [d.kodaira for d in base.local]
            assert ca.mm.scaling_u == iso.u * base.mm.scaling_u
            rec = ca.mm.iso
            assert all(type(c) is int for c in (rec.u, rec.r, rec.s, rec.t))
            assert transform(big, rec) == ca.mm.minimal
            for l in (SzpiroExponent(1, 1), SzpiroExponent(3, 2), SzpiroExponent(4, 1)):
                assert exceeds(big, l) == exceeds(m, l)


class TestExplicitChecks:
    """The checks behind minimal models raise CertificateError, which is
    not an AssertionError and survives python -O."""

    def test_not_an_assertion(self):
        assert not issubclass(CertificateError, AssertionError)

    def test_c4c6_mismatch(self, monkeypatch):
        real = reduction.compute_invariants

        def off_by_24(m):
            return dataclasses.replace(real(m), c4=real(m).c4 + 24)

        monkeypatch.setattr(reduction, "compute_invariants", off_by_24)
        with pytest.raises(CertificateError, match="c4"):
            reduction._model_from_c4c6(496, 20008)

    def test_wrong_minimal_model(self, monkeypatch):
        real = reduction._model_from_c4c6
        wrong = WeierstrassModel(0, 0, 1, -1, 0)  # 37a, not 11a1

        monkeypatch.setattr(
            reduction, "_model_from_c4c6", lambda c4, c6: (wrong, real(48, -216)[1])
        )
        with pytest.raises(CertificateError, match="u\\^12"):
            minimal_model(CURVE_11A1)

    def test_wrong_isomorphism(self, monkeypatch):
        real = reduction._isomorphism_to

        def shifted(m, minimal, u):
            iso = real(m, minimal, u)
            return Isomorphism(iso.u, iso.r + 1, iso.s, iso.t)

        monkeypatch.setattr(reduction, "_isomorphism_to", shifted)
        with pytest.raises(CertificateError, match="does not map"):
            minimal_model(blow_up(CURVE_11A1, 2))

    def test_nonintegral_isomorphism(self):
        with pytest.raises(CertificateError, match="not integral"):
            reduction._integral_div(7, 2)
