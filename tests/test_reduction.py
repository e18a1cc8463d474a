"""Minimal models, Tate's algorithm, conductors, semistability."""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import inverse, src_env
from szpirolab import cli, reduction
from szpirolab.bounds import exceeds, szpiro_ratio
from szpirolab.families import (
    FAMILIES,
    PaperContractViolation,
    ValidationError,
    build_model,
    validate_params,
)
from szpirolab.intarith import factorize, is_squarefree, p_adic_valuation
from szpirolab.reduction import (
    _model_from_c4c6,
    analyze,
    conductor,
    minimal_model,
    sigma_m,
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
from szpirolab.sharpness import SHARP_FAMILIES, convergence_scan
from szpirolab.sweeps import check_instance, iter_param_tuples

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

    def test_kraus_back_off_at_3(self):
        # v3(c4) = 5, v3(c6) = 8 and v3(delta) = 12 allow k = 1 at 3, but
        # c6 / 3^6 has v3 = 2, which Kraus' condition at 3 rejects, so k
        # backs off to 0: the model is already minimal at 3 (II*)
        m = WeierstrassModel(0, 0, 0, 81, 243)
        inv = compute_invariants(m)
        assert [p_adic_valuation(x, 3) for x in (inv.c4, inv.c6, inv.delta)] == [5, 8, 12]
        assert not reduction._kraus_ok_at_3(inv.c6 // 3**6)
        mm = minimal_model(m)
        assert (mm.minimal, mm.scaling_u) == (m, 1)
        # the same curve scaled by 3 is scaled back by exactly 3
        scaled = WeierstrassModel(0, 0, 0, 6561, 177147)
        mm3 = minimal_model(scaled)
        assert (mm3.minimal, mm3.scaling_u) == (m, 3)
        ca, ca3 = analyze(m), analyze(scaled)
        assert (ca.factorization, ca.local, ca.conductor, ca.height) == (
            ca3.factorization, ca3.local, ca3.conductor, ca3.height,
        )
        assert tate_local(mm.minimal, 3) == ca.local[1]
        assert (ca.local[1].p, ca.local[1].kodaira, ca.local[1].fp) == (3, "II*", 4)

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            minimal_model(WeierstrassModel(0, 0, 0, 0, 0))

    def test_rational_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            minimal_model(WeierstrassModel(Fraction(1, 2), 0, 0, 0, 0))

    def test_no_model_for_bad_pair(self):
        # only reached once Kraus' conditions hold, so a remainder is a
        # failed identity, not rejected input
        with pytest.raises(CertificateError, match="no integral model"):
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

    def test_singular_rejected(self):
        # y^2 = x^3 - 3x + 2 = (x - 1)^2 (x + 2)
        with pytest.raises(SingularModelError, match="requires delta != 0"):
            tate_local(WeierstrassModel(0, 0, 0, -3, 2), 3)

    def test_non_minimal_rejected(self):
        big = blow_up(CURVE_11A1, 11)
        with pytest.raises(ValidationError, match="not minimal"):
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


class TestDoubleRoot:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_brute_force(self, p):
        # a*(T - r)^2 = a*T^2 - 2ar*T + a*r^2, shifted by multiples of p.
        for a in range(1, p):
            for r in range(p):
                b, c = -2 * a * r + 3 * p, a * r * r - 5 * p
                roots = [t for t in range(p) if (a * t * t + b * t + c) % p == 0]
                assert roots == [r]
                root = reduction._double_root(a - 7 * p, b, c, p)
                assert root % p == r and 2 * abs(root) <= p, (p, a, r)


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


def semistable_flags(m: WeierstrassModel) -> dict[int, bool]:
    return {d.p: d.semistable for d in analyze(m).local}


class TestSemistability:
    def test_additive_curve(self):
        assert semistable_flags(WeierstrassModel(0, 0, 0, 0, 1)) == {2: False, 3: False}

    def test_semistable_curve(self):
        assert semistable_flags(CURVE_11A1) == {11: True}

    def test_c5_semistable_at_11(self):
        assert semistable_flags(WeierstrassModel(0, -1, -1, 0, 0)) == {11: True}

    def test_matches_exponent_one(self):
        for m in (
            CURVE_11A1,
            WeierstrassModel(0, 0, 0, 0, 1),
            WeierstrassModel(0, 0, 1, 0, 0),
            WeierstrassModel(0, 2, 0, -11, 0),
        ):
            for data in analyze(m).local:
                assert data.semistable == (data.fp == 1)


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
        assert ca.factorization == ((11, 5),)
        assert [(d.p, d.kodaira, d.fp) for d in ca.local] == [(11, "I5", 1)]
        assert ca.conductor == 11
        assert ca.height == max(496**3, 20008**2)

    def test_local_data_matches_tate_everywhere(self):
        # The local data analyze computes from its own factorization must
        # agree with tate_local run on its own at every prime.
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

    def test_makes_no_tate_local_call(self, monkeypatch):
        # analyze hands Tate's routine the valuation from its factorization
        # and the certified invariants; tate_local recomputes both.
        calls = []
        original = reduction.tate_local

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(reduction, "tate_local", counted)
        additive = 0
        for m in _random_curves(random.Random(90210), 80):
            additive += sum(not d.semistable for d in analyze(m).local)
        assert additive > 0
        assert calls == []

    def test_invariant_under_integral_isomorphisms(self):
        # A random integral isomorphism (u, r, s, t), applied backwards to a
        # random curve, gives another integral model of the same curve:
        # nothing about the curve may change, and the recovered
        # isomorphism must be integral.
        rng = random.Random(271828)
        for m in _random_curves(rng, 60):
            base = analyze(m)
            iso = _random_integral_iso(rng)
            big = transform(m, inverse(iso))
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
            for l in (Fraction(1, 1), Fraction(3, 2), Fraction(4, 1)):
                assert exceeds(big, l) == exceeds(m, l)


class TestExplicitChecks:
    """The checks behind minimal models raise CertificateError, which is
    not an AssertionError and survives python -O; nor is the reportable
    PaperContractViolation."""

    def test_not_an_assertion(self):
        assert not issubclass(CertificateError, AssertionError)
        assert not issubclass(PaperContractViolation, AssertionError)

    def test_c4c6_mismatch(self, monkeypatch):
        real = reduction.compute_invariants

        def off_by_24(m):
            return real(m)._replace(c4=real(m).c4 + 24)

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

    @pytest.mark.parametrize("shift", [{"t": 1}, {"s": 2}], ids=["t+1", "s+2"])
    def test_shifted_isomorphism_fails_the_integer_check(self, shift, monkeypatch):
        real = reduction._isomorphism_to

        def shifted(m, minimal, u):
            iso = real(m, minimal, u)
            return iso._replace(**{k: getattr(iso, k) + d for k, d in shift.items()})

        monkeypatch.setattr(reduction, "_isomorphism_to", shifted)
        with pytest.raises(CertificateError, match="does not map"):
            minimal_model(blow_up(CURVE_11A1, 2))

    def test_shifted_isomorphism_fails_under_python_O(self):
        code = (
            "import sys\n"
            "from szpirolab import reduction\n"
            "from szpirolab.weierstrass import CertificateError, WeierstrassModel\n"
            "real = reduction._isomorphism_to\n"
            "for shift in ({'t': 1}, {'s': 2}):\n"
            "    reduction._isomorphism_to = lambda m, mn, u: real(m, mn, u)._replace(\n"
            "        **{k: getattr(real(m, mn, u), k) + d for k, d in shift.items()})\n"
            "    try:\n"
            "        reduction.minimal_model(WeierstrassModel(0, -4, 8, -160, -1280))\n"
            "    except CertificateError as exc:\n"
            "        print(sys.flags.optimize, 'does not map' in str(exc))\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "1 True\n1 True\n", "")

    def test_broken_tate_translation(self, monkeypatch):
        # y^2 = (x - 1)^3 + 5: additive at 5 with the cusp at x = 1, so a
        # translation that does nothing leaves 5 not dividing a4.
        m = WeierstrassModel(0, -3, 0, 3, 4)
        assert tate_local(m, 5).kodaira == "II"
        monkeypatch.setattr(reduction, "_translate", lambda work, r=0, s=0, t=0: work)
        with pytest.raises(CertificateError, match="p = 5"):
            tate_local(m, 5)

    def test_nonintegral_isomorphism(self):
        with pytest.raises(CertificateError, match="not integral"):
            reduction._integral_div(7, 2)


def reference_tate_local(m: WeierstrassModel, p: int):
    """The model-based Tate's algorithm tate_local replaced: every
    translation goes through transform and a new WeierstrassModel, and the
    III/IV tests read a full compute_invariants.  Returns
    (vp_delta, fp, kodaira)."""
    inv = compute_invariants(m)
    n = reduction.p_adic_valuation(inv.delta, p) if inv.delta % p == 0 else 0
    if n == 0:
        return 0, 0, "I0"
    if inv.c4 % p != 0:
        return n, 1, f"I{n}"

    def translate(work, r=0, s=0, t=0):
        return transform(work, Isomorphism(1, r, s, t))

    def val(x, bound):
        v = 0
        while v < bound and x % p == 0:
            x //= p
            v += 1
        return v

    centered = reduction._centered
    a1, a2, a3, a4, a6 = m.coefficients()
    if p == 2:
        r = a4 % 2
        t = (r * (1 + a2 + a4) + a6) % 2
    elif p == 3:
        r = (-inv.b6) % 3
        t = (a1 * r + a3) % 3
    else:
        r = centered(-inv.b2 * pow(12, -1, p) % p, p)
        t = centered(-(a1 * r + a3) * pow(2, -1, p) % p, p)
    work = translate(m, r=r, t=t)
    a1, a2, a3, a4, a6 = work.coefficients()
    if val(a6, 2) < 2:
        return n, n, "II"
    winv = compute_invariants(work)
    if val(winv.b8, 3) < 3:
        return n, n - 1, "III"
    if val(winv.b6, 3) < 3:
        return n, n - 2, "IV"
    if p == 2:
        s = a2 % 2
        t = 2 * ((a6 // 4) % 2)
    else:
        s = centered(-a1 * pow(2, -1, p) % p, p)
        t = centered(-a3 * pow(2, -1, p * p) % (p * p), p * p)
    work = translate(work, s=s, t=t)
    a1, a2, a3, a4, a6 = work.coefficients()
    A, B, C = a2 // p, a4 // p**2, a6 // p**3
    if reduction._cubic_has_distinct_roots(A, B, C, p):
        return n, n - 4, "I0*"
    if (3 * B - A * A) % p != 0:
        if p == 2:
            root = B % 2
        else:
            root = (A * B - 9 * C) * pow(2 * (3 * B - A * A) % p, -1, p) % p
        work = translate(work, r=p * centered(root, p))
        a1, a2, a3, a4, a6 = work.coefficients()
        ix, iy = 3, 3
        mx, my = p * p, p * p
        while True:
            a3t = a3 // my
            a6t = a6 // (mx * my)
            if (a3t * a3t + 4 * a6t) % p != 0:
                break
            root = a6t % 2 if p == 2 else -a3t * pow(2, -1, p) % p
            work = translate(work, t=my * centered(root, p))
            a1, a2, a3, a4, a6 = work.coefficients()
            iy += 1
            my *= p
            a2t = a2 // p
            a4t = a4 // (p * mx)
            a6t = a6 // (mx * my)
            if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                break
            if p == 2:
                root = a6t * pow(a2t, -1, 2) % 2
            else:
                root = -a4t * pow(2 * a2t % p, -1, p) % p
            work = translate(work, r=mx * centered(root, p))
            a1, a2, a3, a4, a6 = work.coefficients()
            ix += 1
            mx *= p
        m_star = ix + iy - 5
        return n, n - 4 - m_star, f"I{m_star}*"
    if p == 2:
        root = A % 2
    elif p == 3:
        root = (-C) % 3
    else:
        root = -A * pow(3, -1, p) % p
    work = translate(work, r=p * centered(root, p))
    a1, a2, a3, a4, a6 = work.coefficients()
    a3t = a3 // p**2
    a6t = a6 // p**4
    if (a3t * a3t + 4 * a6t) % p != 0:
        return n, n - 6, "IV*"
    root = a6t % 2 if p == 2 else -a3t * pow(2, -1, p) % p
    work = translate(work, t=p * p * centered(root, p))
    a1, a2, a3, a4, a6 = work.coefficients()
    if a4 % p**4 != 0:
        return n, n - 7, "III*"
    if a6 % p**6 != 0:
        return n, n - 8, "II*"
    raise ValidationError(f"model {m} is not minimal at {p}")


def _local_triple(d):
    return d.vp_delta, d.fp, d.kodaira


class TestTateReference:
    """The integer-tuple tate_local agrees with the model-based reference
    at every prime of delta_min, through analyze (certified invariants
    passed in) and called on its own."""

    def _agree(self, m):
        ca = analyze(m)
        assert [d.p for d in ca.local] == [p for p, _ in ca.factorization]
        for d in ca.local:
            expected = reference_tate_local(ca.mm.minimal, d.p)
            assert _local_triple(d) == expected, (m, d.p)
            assert _local_triple(tate_local(ca.mm.minimal, d.p)) == expected, (m, d.p)
        return ca.local

    def test_box_6_family_instances(self):
        checked = 0
        for name in FAMILIES:
            for params in iter_param_tuples(name, 60 if name == "C3_0" else 6):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                self._agree(build_model(inst))
                checked += 1
        assert checked == 2258

    def test_random_curves_additive_at_2_and_3(self):
        # a_i = r_i * 2^e * 3^f with e, f <= i: the weights of a model that
        # reduces like p^i | a_i, which gives additive reduction at 2 and 3
        # of every depth; the fully divisible ones are made minimal first.
        rng = random.Random(20)
        kinds = {2: set(), 3: set()}
        curves = 0
        while curves < 200:
            coeffs = [
                rng.randrange(-9, 10)
                * 2 ** rng.randrange(i + 1)
                * 3 ** rng.randrange(i + 1)
                for i in (1, 2, 3, 4, 6)
            ]
            m = WeierstrassModel(*coeffs)
            if compute_invariants(m).delta == 0:
                continue
            curves += 1
            for d in self._agree(m):
                if d.p in kinds and not d.semistable:
                    kinds[d.p].add(d.kodaira)
        for p in (2, 3):
            assert {"II", "III", "IV", "I0*", "IV*", "III*", "II*"} <= kinds[p], p
            assert kinds[p] & {f"I{m}*" for m in range(1, 6)}, p


def _printed_sigma_m(m: WeierstrassModel) -> float:
    """The sigma_m that `curve ratio` prints for m."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["curve", "ratio", "--model=" + ",".join(map(str, m.coefficients()))])
    assert code == 0
    return json.loads(out.getvalue())["sigma_m"]


class TestSigmaMParity:
    """Every reported sigma_m is reduction.sigma_m of the height and the
    conductor, to the last bit."""

    def _check(self, m, reported):
        ca = analyze(m)
        expected = repr(sigma_m(ca.height, ca.conductor))
        assert repr(szpiro_ratio(m)) == expected, m
        assert repr(_printed_sigma_m(m)) == expected, m
        for value in reported:
            assert repr(value) == expected, m

    def test_box_3_instances(self):
        checked = 0
        for name in FAMILIES:
            for params in iter_param_tuples(name, 3):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                self._check(build_model(inst), [check_instance(inst).sigma_m])
                checked += 1
        assert checked > 300

    def test_random_curves(self):
        for m in _random_curves(random.Random(5150), 200):
            self._check(m, [])

    @pytest.mark.parametrize("name", list(SHARP_FAMILIES))
    def test_convergence_scan_records(self, name):
        scan = convergence_scan(name, 400)
        assert scan.records
        for r in scan.records:
            assert repr(r.sigma_m) == repr(sigma_m(r.height, abs(r.f_value)))
