"""Weierstrass models: invariants, coordinate changes, the group law."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inverse
from szpirolab import weierstrass
from szpirolab.poly import Poly
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
    _projective_on_curve,
    _two_torsion_count,
    add_points,
    compute_invariants,
    full_two_torsion,
    integral_model,
    j_invariant,
    point_order,
    transform,
)

CURVE_11A1 = WeierstrassModel(0, -1, 1, -10, -20)
C5_11 = WeierstrassModel(0, -1, -1, 0, 0)  # y^2 - y = x^3 - x^2
ORIGIN = AffinePoint(Fraction(0), Fraction(0))


def is_on_curve(m: WeierstrassModel, point) -> bool:
    """Exact equation check, in integers once denominators are cleared; the
    point at infinity is always on the curve."""
    a, _, P = _integral_projective(m, point)
    return _projective_on_curve(a, P)


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

    def test_identities_checked_explicitly(self):
        # Float coefficients round, so the exact identities fail; that raises
        # CertificateError, which python -O does not strip.
        with pytest.raises(CertificateError, match="1728"):
            compute_invariants(WeierstrassModel(0.1, 0.2, 0.3, 0.4, 0.5))
        with pytest.raises(CertificateError, match="4\\*b8"):
            compute_invariants(WeierstrassModel(0, 0.1, 1, 0, 0.3))

    def test_poly_coefficients_accepted(self):
        X = Poly([0, 1])
        inv = compute_invariants(WeierstrassModel(0, 0, 1, X, 0))  # y^2 + y = x^3 + Xx
        assert inv.delta == Poly([-27, 0, 0, -64])

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
        assert transform(transform(CURVE_11A1, iso), inverse(iso)) == CURVE_11A1

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


class TestGroupLaw:
    def test_on_curve(self):
        assert is_on_curve(C5_11, ORIGIN)
        assert is_on_curve(C5_11, INFINITY)
        assert not is_on_curve(
            WeierstrassModel(0, 0, 0, -1, 0), AffinePoint(Fraction(1), Fraction(1))
        )

    def test_point_plus_negative_is_infinity(self):
        P = ORIGIN
        a1, a3 = C5_11.a1, C5_11.a3
        neg = AffinePoint(P.x, -P.y - a1 * P.x - a3)
        assert neg == AffinePoint(0, 1) and is_on_curve(C5_11, neg)
        assert add_points(C5_11, P, neg) is INFINITY

    def test_identity_is_neutral(self):
        P = AffinePoint(Fraction(5), Fraction(5))
        assert add_points(CURVE_11A1, P, INFINITY) == P
        assert add_points(CURVE_11A1, INFINITY, P) == P
        assert add_points(CURVE_11A1, INFINITY, INFINITY) is INFINITY

    def test_rational_model_maps_back(self):
        iso = Isomorphism(Fraction(2, 3), Fraction(1, 2), -1, Fraction(3, 4))
        m, P = transform(C5_11, iso), map_point(ORIGIN, iso)
        assert add_points(m, P, INFINITY) == P
        twice = add_points(m, P, P)
        assert twice == oracle_add(m, P, P) == map_point(AffinePoint(1, 1), iso)

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
        m = WeierstrassModel(*FAMILIES["C2xC8"].model(4, 2))
        assert oracle_order(m, ORIGIN) == 8
        assert point_order(m, ORIGIN) == 8

    def test_exceeds_cap(self):
        # non-torsion point: order exceeds any small cap
        m = WeierstrassModel(0, 0, 1, -1, 0)
        P = AffinePoint(Fraction(0), Fraction(0))
        assert point_order(m, P) is None

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

    def test_rational_model_matches_integral_model(self):
        # The cubic is solved on integral_model(m); every point maps back
        # to an order-2 point of m, and the images are the integral ones.
        iso = Isomorphism(Fraction(2, 3), Fraction(1, 2), -1, Fraction(3, 4))
        base = WeierstrassModel(0, 0, 0, -1, 0)
        m = transform(base, iso)
        pts = full_two_torsion(m)
        assert pts[0] is INFINITY and len(pts) == 4
        assert {map_point(P, iso) for P in full_two_torsion(base)[1:]} == set(pts[1:])
        for P in pts[1:]:
            assert point_order(m, P) == 2
        assert [P.x for P in pts[1:]] == sorted(P.x for P in pts[1:])


def reference_two_torsion(m):
    """Fraction reference: the candidates of the rational root theorem for
    the 2-division cubic of m with denominators cleared, each point checked
    with is_on_curve."""
    inv = compute_invariants(m)
    if inv.delta == 0:
        raise SingularModelError("singular")
    coeffs = [Fraction(c) for c in (4, inv.b2, 2 * inv.b4, inv.b6)]
    D = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * D) for c in coeffs]
    while ints[-1] == 0:  # x = 0 is a root; divide it out
        ints.pop()
    xs = {Fraction(0)} if len(ints) < 4 else set()
    lead, last = abs(ints[0]), abs(ints[-1])
    for q in (q for q in range(1, lead + 1) if lead % q == 0):
        for p in (p for p in range(1, last + 1) if last % p == 0):
            for x in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * x ** (3 - i) for i, c in enumerate(coeffs)) == 0:
                    xs.add(x)
    points = [INFINITY]
    for x in sorted(xs):
        y = -(m.a1 * x + m.a3) / 2
        pt = AffinePoint(x, int(y) if y.denominator == 1 else y)
        assert is_on_curve(m, pt)
        points.append(pt)
    return points


def _monic_cubic_integer_roots(c2: int, c1: int, c0: int) -> list[int]:
    """Integer roots of X^3 + c2 X^2 + c1 X + c0, by exact bisection on the
    monotonic pieces between the critical points."""

    def ev(x: int) -> int:
        return ((x + c2) * x + c1) * x + c0

    bound = 1 + max(abs(c2), abs(c1), abs(c0))  # Cauchy bound
    cuts = {-bound, bound}
    disc = 4 * c2 * c2 - 12 * c1  # of the derivative 3X^2 + 2 c2 X + c1
    if disc >= 0:
        s = math.isqrt(disc)
        for num in (-2 * c2 - s, -2 * c2 + s):
            x = num // 6
            cuts.update((max(-bound, min(bound, x)), max(-bound, min(bound, x + 1))))
    grid = sorted(cuts)
    roots = {x for x in grid if ev(x) == 0}
    for lo, hi in zip(grid, grid[1:]):
        flo, fhi = ev(lo), ev(hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = ev(mid)
            if fm == 0:
                roots.add(mid)
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
    return sorted(roots)


def _cubic_from_roots(r, s, t):
    """(c2, c1, c0) of (X - r)(X - s)(X - t)."""
    return -(r + s + t), r * s + s * t + r * t, -r * s * t


def _random_cubic(rng):
    """A monic integer cubic: random coefficients, or built from integer
    roots (three distinct, a double, a triple, one at 0, one next to the
    Cauchy bound), or a root times a random quadratic."""
    span = rng.choice([3, 50, 10**4, 10**8])
    r, s, t = (rng.randint(-span, span) for _ in range(3))
    kind = rng.randrange(7)
    if kind == 0:
        return rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span)
    if kind == 1:
        return _cubic_from_roots(r, s, t)
    if kind == 2:
        return _cubic_from_roots(r, r, t)
    if kind == 3:
        return _cubic_from_roots(r, r, r)
    if kind == 4:
        return _cubic_from_roots(r, s, 0)
    if kind == 5:
        # X^3 - r X^2 - e^2 X + r e^2: the root r is 1 + |c2| - 1 = bound - 1
        e = rng.randint(0, 2)
        return _cubic_from_roots(r, e, -e)
    p, q = rng.randint(-span, span), rng.randint(-span, span)
    return p - r, q - r * p, -r * q


class TestCubicIntegerRoots:
    """The first root found by bisection, then the deflated quadratic,
    against the bisection over every monotonic piece that it replaced."""

    def test_matches_bisection_reference(self):
        rng = random.Random(24)
        seen = {"triple": 0, "c0 = 0": 0, "edge": 0}
        for _ in range(100_000):
            c2, c1, c0 = _random_cubic(rng)
            roots = weierstrass._monic_cubic_integer_roots(c2, c1, c0)
            assert roots == _monic_cubic_integer_roots(c2, c1, c0), (c2, c1, c0)
            bound = 1 + max(abs(c2), abs(c1), abs(c0))
            seen["triple"] += c2 * c2 == 3 * c1 and len(roots) == 1
            seen["c0 = 0"] += c0 == 0
            seen["edge"] += any(abs(x) == bound - 1 > 0 for x in roots)
        assert min(seen.values()) > 1000, seen

    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            ((0, 0, 0), [0]),
            ((-3, 3, -1), [1]),
            ((0, -1, 0), [-1, 0, 1]),
            ((-1, -1, 1), [-1, 1]),
            ((-7, -1, 7), [-1, 1, 7]),
            ((7, -1, -7), [-7, -1, 1]),
            ((0, 0, 2), []),
            ((1, 1, 1), [-1]),
        ],
    )
    def test_known_roots(self, coeffs, roots):
        assert weierstrass._monic_cubic_integer_roots(*coeffs) == roots
        assert _monic_cubic_integer_roots(*coeffs) == roots

    @pytest.mark.parametrize("name", ["C2xC2", "C2xC4", "C2xC6", "C2xC8"])
    def test_two_torsion_of_box_8_unchanged(self, name, monkeypatch):
        models = []
        for params in iter_param_tuples(name, 8):
            try:
                models.append(build_model(validate_params(name, *params)))
            except ValidationError:
                continue
        points = [full_two_torsion(m) for m in models]
        assert all(len(p) == 4 for p in points)
        monkeypatch.setattr(
            weierstrass, "_monic_cubic_integer_roots", _monic_cubic_integer_roots
        )
        assert [full_two_torsion(m) for m in models] == points
        assert len(models) > 50


def rational(rng, span, den):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))


class TestTwoTorsionReference:
    """full_two_torsion (integer roots, integer certificate) against the
    Fraction reference, value and type, singular models included."""

    def _check(self, m):
        try:
            expected = reference_two_torsion(m)
        except SingularModelError:
            with pytest.raises(SingularModelError):
                full_two_torsion(m)
            return None
        got = full_two_torsion(m)
        assert got == expected, m
        assert [type(P.y) for P in got[1:]] == [type(P.y) for P in expected[1:]], m
        return len(got)

    def test_singular_models(self):
        for m in (
            WeierstrassModel(0, 0, 0, 0, 0),  # cusp at the origin
            WeierstrassModel(0, 1, 0, 0, 0),  # node at the origin
            WeierstrassModel(0, -3, 0, 3, -1),  # cusp at x = 1
            # node at x = -1/4
            WeierstrassModel(0, Fraction(1, 2), 0, Fraction(1, 16), 0),
            WeierstrassModel(0, 0, 2, 0, -1),  # (y + 1)^2 = x^3
        ):
            with pytest.raises(SingularModelError):
                full_two_torsion(m)

    def test_random_models(self):
        rng = random.Random(2024)
        sizes = set()
        for _ in range(400):
            if rng.random() < 0.5:
                # (x - r1)(x - r2)(x - r3), repeated roots allowed, moved by a
                # random isomorphism so that a1, a3 and denominators appear
                r1, r2, r3 = (rational(rng, 6, 3) for _ in range(3))
                base = WeierstrassModel(
                    0, -(r1 + r2 + r3), 0, r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
                )
                u = Fraction(rng.randrange(1, 4), rng.randrange(1, 4))
                iso = Isomorphism(u, *(rational(rng, 4, 2) for _ in range(3)))
                m = transform(base, iso)
            else:
                m = WeierstrassModel(*(rng.randrange(-9, 10) for _ in range(5)))
            sizes.add(self._check(m))
        assert sizes == {None, 1, 2, 4}

    def test_integral_models_by_gcd(self):
        # full_two_torsion clears the leading 4 by X = 4x alone.  The gcd g
        # of the cubic's coefficients (4, b2, 2 b4, b6) is 1 or 4 on an
        # integral model, never 2: an odd a1 makes b2 odd, an odd a3 makes
        # b6 odd, and even a1 and a3 make all four divisible by 4.
        rng = random.Random(4242)
        gcds = {}
        for _ in range(600):
            m = WeierstrassModel(*(rng.randrange(-12, 13) for _ in range(5)))
            inv = compute_invariants(m)
            g = math.gcd(4, inv.b2, 2 * inv.b4, inv.b6)
            gcds.setdefault(g, set()).add(self._check(m))
        assert set(gcds) == {1, 4}
        assert all({1, 2} <= sizes for sizes in gcds.values()), gcds

    def test_random_rational_coefficients(self):
        rng = random.Random(4243)
        sizes = set()
        for _ in range(300):
            coeffs = [rational(rng, 9, 4) for _ in range(5)]
            m = WeierstrassModel(*(int(c) if c.denominator == 1 else c for c in coeffs))
            sizes.add(self._check(m))
        assert {1, 2} <= sizes


def reference_integral_model(m):
    """The reference for integral_model: the scaling a'_i = L^i a_i
    written out per coefficient, not through transform."""
    if m.is_integral():
        return m, 1
    coeffs = m.coefficients()
    L = math.lcm(*(c.denominator for c in coeffs))
    scaled = (
        c.numerator * (L**i // c.denominator) for c, i in zip(coeffs, (1, 2, 3, 4, 6))
    )
    return WeierstrassModel(*scaled), L


class TestIntegralModel:
    def test_integral_input_unchanged(self):
        assert integral_model(CURVE_11A1) == (CURVE_11A1, 1)

    def test_scales_by_powers_of_L(self):
        m = WeierstrassModel(Fraction(1, 2), 0, 0, Fraction(3, 4), 5)
        im, L = integral_model(m)
        assert L == 4
        assert im == WeierstrassModel(2, 0, 0, 3 * 4**3, 5 * 4**6)
        assert im.is_integral()
        assert transform(m, Isomorphism(Fraction(1, L))) == im

    def test_random_rational_models(self):
        rng = random.Random(12)
        for _ in range(200):
            coeffs = [
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(5)
            ]
            m = WeierstrassModel(*(int(c) if c.denominator == 1 else c for c in coeffs))
            im, L = integral_model(m)
            assert im.is_integral()
            assert L == math.lcm(*(c.denominator for c in coeffs))
            assert transform(m, Isomorphism(Fraction(1, L))) == im

    def test_matches_reference_scaling(self):
        rng = random.Random(13)
        models = [
            WeierstrassModel(Fraction(3), 0, 0, 1, 0),  # L = 1
            WeierstrassModel(*(Fraction(c) for c in (1, -1, 1, -10, -20))),
        ]
        for _ in range(300):
            coeffs = [rational(rng, 9, rng.choice([1, 6])) for _ in range(5)]
            # Fraction objects with denominator 1 are kept as they are
            models.append(WeierstrassModel(*coeffs))
        seen_L = set()
        for m in models:
            im, L = integral_model(m)
            ref, ref_L = reference_integral_model(m)
            assert (im, L) == (ref, ref_L), m
            assert [type(c) for c in im.coefficients()] == [int] * 5, m
            seen_L.add(L)
        assert 1 in seen_L and len(seen_L) > 5


def fraction_order(m, P, cap=16):
    """The reference: the order by the textbook law oracle_add."""
    return oracle_order(m, P, cap)


def map_point(P, iso):
    """The image of P under x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""
    u, r, s, t = (Fraction(c) for c in (iso.u, iso.r, iso.s, iso.t))
    x = (P.x - r) / u**2
    return AffinePoint(x, (P.y - u * u * s * x - t) / u**3)


class TestIntegerPointOrder:
    """point_order runs in integer projective coordinates; the textbook
    Fraction group law oracle_add is its reference."""

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
        five = AffinePoint(Fraction(5), Fraction(5))
        for m, point in ((C5_11, ORIGIN), (WeierstrassModel(0, 0, 1, -1, 0), ORIGIN),
                         (CURVE_11A1, five)):
            assert is_on_curve(m, point)
            a, _, P = _integral_projective(m, point)
            acc, ref = P, point
            for _ in range(10):
                acc, ref = _projective_add(a, acc, P), oracle_add(m, ref, point)
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

    def test_unit_divisor_normalizes(self):
        # an integral model with Fraction coefficients comes back with ints
        assert _exact_div(Fraction(6, 2), 1) == 3 and type(_exact_div(Fraction(6, 2), 1)) is int
        assert _exact_div(Fraction(3, 2), Fraction(1)) == Fraction(3, 2)


class TestTwoTorsionCheck:
    def test_off_curve_root_raises(self, monkeypatch):
        # X = 20 is x = 20/4 = 5, no root of either 2-division cubic, so its
        # point is off the integral model.
        monkeypatch.setattr(weierstrass, "_monic_cubic_integer_roots", lambda *c: [20])
        with pytest.raises(CertificateError, match="not on"):
            full_two_torsion(WeierstrassModel(0, 0, 0, -1, 0))
        with pytest.raises(CertificateError, match="not on"):
            full_two_torsion(WeierstrassModel(0, Fraction(7, 4), 0, Fraction(-1, 2), 0))


def _box_models(name, bound):
    """The distinct family models of the valid tuples in the box."""
    models = set()
    for params in iter_param_tuples(name, bound):
        try:
            models.add(build_model(validate_params(name, *params)))
        except ValidationError:
            continue
    return models


class TestTwoTorsionCount:
    """The sweep counts rational 2-torsion with _two_torsion_count, which
    builds no points; it must give len(full_two_torsion(m)) and raise what
    full_two_torsion raises."""

    @pytest.mark.parametrize("name", ["C2xC2", "C2xC4", "C2xC6", "C2xC8"])
    def test_matches_full_two_torsion_on_box_8(self, name):
        models = _box_models(name, 8)
        assert len(models) > 80
        for m in models:
            assert _two_torsion_count(m) == len(full_two_torsion(m)) == 4, m

    def test_matches_full_two_torsion_on_rational_models(self):
        rng = random.Random(30)
        models = sorted(_box_models("C2", 3) | _box_models("C2xC4", 3), key=str)
        models.append(WeierstrassModel(0, 0, 1, -1, 0))  # only the identity
        rational = 0
        for m in models:
            iso = Isomorphism(Fraction(rng.randrange(1, 7), rng.randrange(1, 7)),
                              Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
            scaled = transform(m, iso)
            rational += not scaled.is_integral()
            assert _two_torsion_count(scaled) == len(full_two_torsion(scaled)), scaled
            assert _two_torsion_count(scaled) == _two_torsion_count(m)
        assert rational > len(models) // 2

    @pytest.mark.parametrize(
        "m",
        [
            WeierstrassModel(0, 0, 0, 0, 0),  # cusp
            WeierstrassModel(0, 1, 0, 0, 0),  # node
            WeierstrassModel(0, Fraction(1, 4), 0, 0, 0),
            WeierstrassModel(1, 0, 0, 0, 0),  # y^2 + xy = x^3, a node at (0, 0)
        ],
    )
    def test_singular_model_raises_the_same_error(self, m):
        assert compute_invariants(m).delta == 0
        with pytest.raises(SingularModelError) as full:
            full_two_torsion(m)
        with pytest.raises(SingularModelError) as count:
            _two_torsion_count(m)
        assert str(count.value) == str(full.value)

    @pytest.mark.parametrize("name", ["C2xC2", "C2xC4", "C2xC6", "C2xC8", "C2"])
    def test_candidate_moved_off_the_curve_raises(self, name, monkeypatch):
        # Each integer root of the monic 2-division cubic moved by one: its
        # candidate point is off the curve, and the count must not skip the
        # certificate that rejects it.
        real = weierstrass._monic_cubic_integer_roots
        monkeypatch.setattr(
            weierstrass, "_monic_cubic_integer_roots", lambda *c: [r + 1 for r in real(*c)]
        )
        for m in sorted(_box_models(name, 3), key=str):
            with pytest.raises(CertificateError, match="not on") as full:
                full_two_torsion(m)
            with pytest.raises(CertificateError, match="not on") as count:
                _two_torsion_count(m)
            assert str(count.value) == str(full.value)
