"""Weierstrass models: invariants, coordinate changes, the group law."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szpirolab import weierstrass
from szpirolab.families import FAMILIES, ValidationError, build_model, validate_params
from szpirolab.sweeps import iter_param_tuples
from szpirolab.weierstrass import (
    INFINITY,
    AffinePoint,
    CertificateError,
    Isomorphism,
    SingularModelError,
    WeierstrassModel,
    _exact_div,
    _integral_projective,
    _projective_add,
    add_points,
    compute_invariants,
    full_two_torsion,
    is_on_curve,
    j_invariant,
    negate_point,
    point_order,
    transform,
)

CURVE_11A1 = WeierstrassModel(0, -1, 1, -10, -20)
C5_11 = WeierstrassModel(0, -1, -1, 0, 0)  # y^2 - y = x^3 - x^2
ORIGIN = AffinePoint(Fraction(0), Fraction(0))


def oracle_add(m, P, Q):
    """Independent textbook chord-tangent formulas, long Weierstrass form."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = (Fraction(c) for c in m.coefficients())
    x1, y1, x2, y2 = Fraction(P.x), Fraction(P.y), Fraction(Q.x), Fraction(Q.y)
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return None
    if x1 == x2:
        lam = (3 * x1**2 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam**2 + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return AffinePoint(x3, y3)


def oracle_order(m, P, cap=20):
    acc = P  # acc == k * P at the top of iteration k
    for k in range(1, cap + 1):
        if acc is None:
            return k
        acc = oracle_add(m, acc, P)
    return None


class TestInvariants:
    def test_known_11a1(self):
        inv = compute_invariants(CURVE_11A1)
        assert (inv.c4, inv.c6, inv.delta) == (496, 20008, -161051)

    def test_cuspidal_cubic(self):
        inv = compute_invariants(WeierstrassModel(0, 0, 0, 0, 0))
        assert (inv.c4, inv.c6, inv.delta) == (0, 0, 0)

    def test_spec_family_values(self):
        # y^2 + xy + y = x^3, and y^2 + y = x^3 + 4x
        inv = compute_invariants(WeierstrassModel(1, 0, 1, 0, 0))
        assert (inv.c4, inv.c6, inv.delta) == (-23, -181, -26)
        inv = compute_invariants(WeierstrassModel(0, 0, 1, 4, 0))
        assert (inv.c4, inv.c6) == (-192, -216)
        assert inv.delta == -4123 == -19 * 217

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_identity_holds(self, coeffs):
        inv = compute_invariants(WeierstrassModel(*coeffs))
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta
        assert inv.b2 * inv.b6 - inv.b4**2 == 4 * inv.b8

    def test_identity_bulk(self):
        rng = random.Random(5150)
        for _ in range(10_000):
            coeffs = [rng.randrange(-99, 100) for _ in range(5)]
            inv = compute_invariants(WeierstrassModel(*coeffs))
            assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta


class TestJInvariant:
    def test_zero(self):
        assert j_invariant(WeierstrassModel(0, 0, 1, 0, 0)) == 0

    def test_1728(self):
        assert j_invariant(WeierstrassModel(0, 0, 0, -1, 0)) == 1728

    def test_rational(self):
        assert j_invariant(WeierstrassModel(1, 0, 1, 0, 0)) == Fraction(12167, 26)

    def test_singular(self):
        with pytest.raises(SingularModelError):
            j_invariant(WeierstrassModel(0, 0, 0, 0, 0))


class TestTransform:
    def test_identity(self):
        iso = Isomorphism(1, 0, 0, 0)
        assert transform(CURVE_11A1, iso) == CURVE_11A1

    def test_u_scaling_law(self):
        before = compute_invariants(CURVE_11A1)
        after = compute_invariants(transform(CURVE_11A1, Isomorphism(2)))
        assert after.c4 == Fraction(before.c4, 16)
        assert after.c6 == Fraction(before.c6, 64)
        assert after.delta == Fraction(before.delta, 4096)

    def test_round_trip(self):
        iso = Isomorphism(Fraction(2, 3), 1, -2, 5)
        assert transform(transform(CURVE_11A1, iso), iso.inverse()) == CURVE_11A1

    def test_zero_u_rejected(self):
        with pytest.raises(ValueError):
            Isomorphism(0, 0, 0, 0)

    @given(
        st.sampled_from([1, 2, 3, Fraction(1, 2)]),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_scaling_commutes_with_invariants(self, u, r, s, t, coeffs):
        m = WeierstrassModel(*coeffs)
        iso = Isomorphism(u, r, s, t)
        before = compute_invariants(m)
        after = compute_invariants(transform(m, iso))
        uq = Fraction(u)
        assert after.c4 == before.c4 / uq**4
        assert after.c6 == before.c6 / uq**6
        assert after.delta == before.delta / uq**12

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition(self, coeffs, rst1, rst2):
        m = WeierstrassModel(*coeffs)
        iso1 = Isomorphism(2, *rst1)
        iso2 = Isomorphism(Fraction(1, 3), *rst2)
        assert transform(transform(m, iso1), iso2) == transform(
            m, iso1.compose(iso2)
        )


class TestGroupLaw:
    def test_on_curve(self):
        assert is_on_curve(C5_11, ORIGIN)
        assert is_on_curve(C5_11, INFINITY)
        assert not is_on_curve(
            WeierstrassModel(0, 0, 0, -1, 0), AffinePoint(Fraction(1), Fraction(1))
        )

    def test_point_plus_negative_is_infinity(self):
        P = ORIGIN
        assert add_points(C5_11, P, negate_point(C5_11, P)) is INFINITY

    def test_matches_oracle_on_multiples(self):
        acc = ORIGIN
        oracle_acc = ORIGIN
        for _ in range(6):
            acc = add_points(C5_11, acc, ORIGIN)
            oracle_acc = oracle_add(C5_11, oracle_acc, ORIGIN)
            assert acc == oracle_acc

    def test_associativity_spot_checks(self):
        # points found by brute x-search on a rank-positive curve
        m = WeierstrassModel(0, 0, 1, -1, 0)
        a1, a2, a3, a4, a6 = (Fraction(c) for c in m.coefficients())
        pts = []
        for num in range(-40, 41):
            for den in (1, 2, 4):
                x = Fraction(num, den)
                disc = (a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6)
                if disc < 0:
                    continue
                root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
                if root * root != disc:
                    continue
                y = (-(a1 * x + a3) + root) / 2
                pts.append(AffinePoint(x, y))
        assert len(pts) >= 4
        for P in pts:
            assert is_on_curve(m, P)
        rng = random.Random(11)
        for _ in range(25):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            lhs = add_points(m, add_points(m, P, Q), R)
            rhs = add_points(m, P, add_points(m, Q, R))
            assert lhs == rhs

    def test_point_order_c5(self):
        assert oracle_order(C5_11, ORIGIN) == 5
        assert point_order(C5_11, ORIGIN) == 5

    def test_point_order_two_torsion(self):
        # y^2 = x^3 + 2x^2 - 11x: a1 = a3 = 0 and y = 0 force order 2
        m = WeierstrassModel(0, 2, 0, -11, 0)
        assert point_order(m, ORIGIN) == 2

    def test_point_order_c2xc8(self):
        from szpirolab.families import model_coefficients

        m = WeierstrassModel(*model_coefficients("C2xC8", (4, 2)))
        assert oracle_order(m, ORIGIN) == 8
        assert point_order(m, ORIGIN) == 8

    def test_exceeds_cap(self):
        # non-torsion point: order exceeds any small cap
        m = WeierstrassModel(0, 0, 1, -1, 0)
        P = AffinePoint(Fraction(0), Fraction(0))
        assert point_order(m, P, cap=16) is None

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="not on the curve"):
            point_order(C5_11, AffinePoint(Fraction(5), Fraction(5)))

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            point_order(WeierstrassModel(0, 0, 0, 0, 0), ORIGIN)

    def test_infinity_order(self):
        assert point_order(C5_11, INFINITY) == 1


class TestTwoTorsion:
    def test_full_on_congruent_number_curve(self):
        pts = full_two_torsion(WeierstrassModel(0, 0, 0, -1, 0))
        xs = sorted(p.x for p in pts if p is not INFINITY)
        assert xs == [-1, 0, 1]

    def test_only_identity_when_cubic_irreducible(self):
        pts = full_two_torsion(WeierstrassModel(0, 0, 1, -1, 0))
        assert pts == [INFINITY]

    def test_rational_noninteger_root(self):
        # y^2 = x(x - 1/4)(x + 2), scaled integral: 2-torsion at x = 1/4
        m = WeierstrassModel(0, Fraction(7, 4), 0, Fraction(-1, 2), 0)
        xs = {p.x for p in full_two_torsion(m) if p is not INFINITY}
        assert Fraction(1, 4) in xs and Fraction(0) in xs and Fraction(-2) in xs


def fraction_order(m, P, cap=16):
    """The reference: the Fraction add_points loop point_order replaced."""
    acc = P  # acc == k * P at the top of iteration k
    for k in range(1, cap + 1):
        if acc is INFINITY:
            return k
        acc = add_points(m, acc, P)
    return None


def map_point(P, iso):
    """The image of P under x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""
    u, r, s, t = (Fraction(c) for c in (iso.u, iso.r, iso.s, iso.t))
    x = (P.x - r) / u**2
    return AffinePoint(x, (P.y - u * u * s * x - t) / u**3)


class TestIntegerPointOrder:
    """point_order runs in integer projective coordinates; the Fraction
    group law add_points is its reference."""

    def test_family_instances_small_box(self):
        checked = 0
        for name, fam in FAMILIES.items():
            for params in iter_param_tuples(name, 3):
                try:
                    m = build_model(validate_params(name, *params))
                except ValidationError:
                    continue
                order = point_order(m, ORIGIN)
                assert order == fraction_order(m, ORIGIN) == fam.point_order
                checked += 1
        assert checked > 300

    def test_random_curves_through_origin(self):
        rng = random.Random(1729)
        orders = set()
        checked = 0
        while checked < 300:
            coeffs = [rng.randrange(-6, 7) for _ in range(4)] + [0]
            m = WeierstrassModel(*coeffs)
            if compute_invariants(m).delta == 0:
                continue
            order = point_order(m, ORIGIN)
            assert order == fraction_order(m, ORIGIN), coeffs
            orders.add(order)
            checked += 1
        assert None in orders and len(orders) >= 5

    def test_rational_model_and_point(self):
        iso = Isomorphism(Fraction(2, 3), Fraction(1, 2), -1, Fraction(3, 4))
        m = transform(C5_11, iso)
        P = map_point(ORIGIN, iso)
        assert not m.is_integral() and P.x.denominator > 1
        assert is_on_curve(m, P)
        assert point_order(m, P) == fraction_order(m, P) == 5
        # a non-torsion point on a rational model of 37a
        m = transform(WeierstrassModel(0, 0, 1, -1, 0), iso)
        P = map_point(ORIGIN, iso)
        assert point_order(m, P) is fraction_order(m, P) is None

    def test_multiples_match_affine_group_law(self):
        for m in (C5_11, WeierstrassModel(0, 0, 1, -1, 0), CURVE_11A1):
            a, P = _integral_projective(m, ORIGIN)
            acc, ref = P, ORIGIN
            for _ in range(10):
                acc, ref = _projective_add(a, acc, P), add_points(m, ref, ORIGIN)
                if ref is INFINITY:
                    assert acc[2] == 0
                else:
                    X, Y, Z = acc
                    assert AffinePoint(Fraction(X, Z), Fraction(Y, Z)) == ref


class TestExactDiv:
    def test_int_division_stays_int(self):
        assert _exact_div(12, 4) == 3 and type(_exact_div(12, 4)) is int
        assert _exact_div(-12, -4) == 3 and type(_exact_div(-12, -4)) is int
        assert _exact_div(7, -2) == Fraction(-7, 2)
        assert _exact_div(Fraction(9, 2), Fraction(3, 2)) == 3
        assert type(_exact_div(Fraction(9, 2), Fraction(3, 2))) is int
        assert _exact_div(Fraction(1, 2), 3) == Fraction(1, 6)


class TestTwoTorsionCheck:
    def test_off_curve_root_raises(self, monkeypatch):
        monkeypatch.setattr(
            weierstrass, "_rational_roots_cubic", lambda *c: [Fraction(5)]
        )
        with pytest.raises(CertificateError, match="not on"):
            full_two_torsion(WeierstrassModel(0, 0, 0, -1, 0))
