"""Weierstrass models over Q: invariants, coordinate changes, group law.

Model: y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6.  Coefficients are
exact rationals (plain ints stay ints, so integral models never touch
Fraction on the hot paths).  The invariant and transformation formulas are
plain polynomial expressions, so they also accept Poly coefficients.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from szpirolab.intarith import ValidationError

__all__ = [
    "AffinePoint",
    "CertificateError",
    "INFINITY",
    "Isomorphism",
    "ModelInvariants",
    "SingularModelError",
    "WeierstrassModel",
    "add_points",
    "compute_invariants",
    "full_two_torsion",
    "integral_model",
    "j_invariant",
    "point_order",
    "transform",
]


class SingularModelError(ValueError):
    """Operation requires a nonsingular model (discriminant != 0)."""


class CertificateError(ArithmeticError):
    """An exact identity that a computed result rests on failed to hold.

    Raised explicitly (never by assert), so the check survives python -O.
    """


def _norm(x):
    """Collapse integral Fractions back to int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


class WeierstrassModel(NamedTuple):
    a1: object
    a2: object
    a3: object
    a4: object
    a6: object

    def coefficients(self):
        return tuple(self)

    def is_integral(self) -> bool:
        return (
            isinstance(self.a1, int)
            and isinstance(self.a2, int)
            and isinstance(self.a3, int)
            and isinstance(self.a4, int)
            and isinstance(self.a6, int)
        )

    def __str__(self):
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


class ModelInvariants(NamedTuple):
    b2: object
    b4: object
    b6: object
    b8: object
    c4: object
    c6: object
    delta: object


def compute_invariants(m: WeierstrassModel) -> ModelInvariants:
    """b-, c-invariants and discriminant; c4^3 - c6^2 = 1728*delta exactly."""
    a1, a2, a3, a4, a6 = m.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if c4**3 - c6**2 != 1728 * delta:
        raise CertificateError(f"c4^3 - c6^2 != 1728*delta for {m}")
    if b2 * b6 - b4 * b4 != 4 * b8:
        raise CertificateError(f"b2*b6 - b4^2 != 4*b8 for {m}")
    return ModelInvariants(b2, b4, b6, b8, c4, c6, delta)


def j_invariant(m: WeierstrassModel) -> Fraction:
    inv = compute_invariants(m)
    if inv.delta == 0:
        raise SingularModelError("j-invariant undefined: singular model")
    return Fraction(inv.c4**3) / Fraction(inv.delta)


class Isomorphism(namedtuple("Isomorphism", "u r s t")):
    """Change of variables x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""

    __slots__ = ()

    def __new__(cls, u, r=0, s=0, t=0):
        if u == 0:
            raise ValidationError("isomorphism scale u must be nonzero")
        return super().__new__(cls, u, r, s, t)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the u check
        return cls(*iterable)


def _exact_div(value, den_power):
    """value / den_power; int by int stays in integers unless it leaves a
    remainder, and then (or for rational input) the result is a Fraction
    normalized back to int when integral."""
    if den_power == 1:
        return _norm(value)
    if isinstance(value, int) and isinstance(den_power, int):
        q, rem = divmod(value, den_power)
        return Fraction(value, den_power) if rem else q
    return _norm(Fraction(value) / Fraction(den_power))


def _translate(a: tuple, r=0, s=0, t=0) -> tuple:
    """The coefficient tuple after x = x' + r, y = y' + s x' + t (u = 1);
    Cremona, Algorithms for Modular Elliptic Curves, 3.2."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def transform(m: WeierstrassModel, iso: Isomorphism) -> WeierstrassModel:
    """Apply the substitution; c4' = u^-4 c4, c6' = u^-6 c6, delta' = u^-12 delta."""
    u = iso.u
    na1, na2, na3, na4, na6 = _translate(m.coefficients(), iso.r, iso.s, iso.t)
    return WeierstrassModel(
        _exact_div(na1, u),
        _exact_div(na2, u * u),
        _exact_div(na3, u**3),
        _exact_div(na4, u**4),
        _exact_div(na6, u**6),
    )


def integral_model(m: WeierstrassModel) -> tuple[WeierstrassModel, int]:
    """(model, L): an integral model isomorphic to m and its scale.

    With L the common denominator of the coefficients, the substitution
    x = x'/L^2, y = y'/L^3 (u = 1/L) gives a'_i = L^i a_i; an integral m
    comes back unchanged with L = 1.
    """
    if m.is_integral():
        return m, 1
    L = math.lcm(*(c.denominator for c in m.coefficients()))
    return transform(m, Isomorphism(Fraction(1, L))), L


# ---------------------------------------------------------------------------
# Rational points and the group law


class AffinePoint(NamedTuple):
    x: Fraction
    y: Fraction

    def __str__(self):
        return f"({self.x}, {self.y})"


# The point at infinity (group identity).
INFINITY = None


def add_points(m: WeierstrassModel, p, q):
    """p + q, by the integer projective law on the integral model of m."""
    a, L, P, Q = _integral_projective(m, p, q)
    for point, R in ((p, P), (q, Q)):
        if not _projective_on_curve(a, R):
            raise ValidationError(f"point {point} is not on the curve")
    return _affine(_projective_add(a, P, Q), L)


# Integer projective arithmetic: (X:Y:Z) stands for (X/Z, Y/Z), Z = 0 is
# the identity, and every sum is reduced by gcd(X, Y, Z) with Z > 0.

_PROJECTIVE_IDENTITY = (0, 1, 0)


def _integral_projective(m: WeierstrassModel, *points):
    """(a, L, P1, P2, ...): the coefficients a and scale L of integral_model(m)
    and each point as an integer projective point on it, (x, y) mapping to
    (L^2 x, L^3 y)."""
    im, L = integral_model(m)
    projective = [
        _PROJECTIVE_IDENTITY if pt is INFINITY else _projective_normal(
            pt.x.numerator * L * L * pt.y.denominator,
            pt.y.numerator * L**3 * pt.x.denominator,
            pt.x.denominator * pt.y.denominator,
        )
        for pt in points
    ]
    return (im.coefficients(), L, *projective)


def _affine(P, L: int):
    """The point of m for the projective point P on its integral model of
    scale L: the inverse of the map in _integral_projective."""
    X, Y, Z = P
    if Z == 0:
        return INFINITY
    return AffinePoint(Fraction(X, Z * L * L), _norm(Fraction(Y, Z * L**3)))


def _projective_normal(X: int, Y: int, Z: int):
    """(X:Y:Z), Z != 0, divided by gcd(X, Y, Z) with the sign that makes Z > 0."""
    g = math.gcd(X, Y, Z)
    if Z < 0:
        g = -g
    return X // g, Y // g, Z // g


def _projective_on_curve(a, P) -> bool:
    a1, a2, a3, a4, a6 = a
    X, Y, Z = P
    lhs = Y * (Y + a1 * X + a3 * Z) * Z
    return lhs == X**3 + (a2 * X * X + (a4 * X + a6 * Z) * Z) * Z


def _projective_add(a, P, Q):
    """Chord-and-tangent addition of integer projective points on the
    integral model a = (a1, a2, a3, a4, a6)."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if Z1 == 0:
        return Q
    if Z2 == 0:
        return P
    a1, a2, a3, a4, _ = a
    # The slope is lambda = N / D.
    D = X2 * Z1 - X1 * Z2
    if D == 0:
        if Y1 * Z2 + (Y2 + a1 * X2 + a3 * Z2) * Z1 == 0:
            return _PROJECTIVE_IDENTITY
        N = 3 * X1 * X1 + (2 * a2 * X1 + a4 * Z1 - a1 * Y1) * Z1
        D = (2 * Y1 + a1 * X1 + a3 * Z1) * Z1
    else:
        N = Y2 * Z1 - Y1 * Z2
    Z12 = Z1 * Z2
    D2 = D * D
    # x3 = X3n / (D^2 Z1 Z2); y3 = -(lambda + a1) x3 - (y1 - lambda x1) - a3.
    X3n = (N * N + a1 * N * D - a2 * D2) * Z12 - (X1 * Z2 + X2 * Z1) * D2
    Y3 = -(N + a1 * D) * X3n + D2 * Z2 * (N * X1 - D * Y1) - a3 * D2 * D * Z12
    return _projective_normal(X3n * D, Y3, D2 * D * Z12)


# point_order looks no further than this: it leaves slack above the largest
# rational torsion order (12) while keeping runaway loops impossible.
_ORDER_CAP = 16


def point_order(m: WeierstrassModel, point, *, nonsingular: bool = False) -> int | None:
    """Exact order of a point if <= _ORDER_CAP, else None.

    The multiples are computed in integer projective coordinates on an
    integral model isomorphic to m, so a rational model or point enters
    only through its common denominators.  nonsingular=True is for a
    caller that has already shown delta != 0, and skips recomputing the
    discriminant.
    """
    if not nonsingular and compute_invariants(m).delta == 0:
        raise SingularModelError("point order undefined on a singular model")
    a, _, P = _integral_projective(m, point)
    if not _projective_on_curve(a, P):
        raise ValidationError(f"point {point} is not on the curve")
    acc = P  # invariant: acc == k * P at the top of iteration k
    for k in range(1, _ORDER_CAP + 1):
        if acc[2] == 0:
            return k
        acc = _projective_add(a, acc, P)
    return None


def _monic_cubic_integer_roots(c2: int, c1: int, c0: int) -> list[int]:
    """Integer roots of X^3 + c2 X^2 + c1 X + c0.

    One root r is found by exact bisection on the monotonic pieces between
    the critical points (0 when c0 == 0); the others are the integer roots
    of the deflated quadratic X^2 + (c2 + r) X + (c1 + r (c2 + r)).
    """
    r = 0 if c0 == 0 else _first_cubic_integer_root(c2, c1, c0)
    if r is None:
        return []
    roots = {r}
    p = c2 + r
    disc = p * p - 4 * (c1 + r * p)
    if disc >= 0:
        s = math.isqrt(disc)
        if s * s == disc:  # then s and p have one parity
            roots.update(((-p - s) // 2, (-p + s) // 2))
    return sorted(roots)


def _first_cubic_integer_root(c2: int, c1: int, c0: int) -> int | None:
    """An integer root of X^3 + c2 X^2 + c1 X + c0, or None if there is
    none: the cuts (the Cauchy bound and the integers next to the critical
    points) are tested first, then each piece between two cuts, on which
    the cubic is monotonic, is bisected."""

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
    values = [ev(x) for x in grid]
    for x, fx in zip(grid, values):
        if fx == 0:
            return x
    for lo, hi, flo, fhi in zip(grid, grid[1:], values, values[1:]):
        if (flo > 0) == (fhi > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = ev(mid)
            if fm == 0:
                return mid
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
    return None


def full_two_torsion(m: WeierstrassModel) -> list:
    """All rational points of order dividing 2, the identity included.

    The x-coordinates of 2-torsion are the rational roots of the 2-division
    polynomial 4x^3 + b2 x^2 + 2 b4 x + b6, solved on the integral model:
    with X = 4x it becomes the monic X^3 + b2 X^2 + 8 b4 X + 16 b6, so each
    root is x0/c with x0 an integer root and c = 4.  Each point is
    certified in integer projective coordinates and mapped back by L^2 and
    L^3.
    """
    L, points = _two_torsion_projective(m)
    return [INFINITY, *(_affine(P, L) for P in points)]


def _two_torsion_count(m: WeierstrassModel) -> int:
    """len(full_two_torsion(m)), with the same checks and errors, from the
    certified projective points alone."""
    return 1 + len(_two_torsion_projective(m)[1])


def _two_torsion_projective(m: WeierstrassModel) -> tuple[int, list]:
    """(L, points): the scale of integral_model(m) and the points of order 2
    on it, each certified on the curve in integer projective coordinates
    (see full_two_torsion)."""
    im, L = integral_model(m)
    a = a1, a2, a3, a4, a6 = im.coefficients()
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    c = 4
    roots = _monic_cubic_integer_roots(b2, 8 * b4, 16 * b6)
    # The cubic has discriminant 16*delta, and a repeated root of a rational
    # cubic is rational, so delta = 0 iff some root found is also a root of
    # the derivative 12x^2 + 2 b2 x + 2 b4.
    if any(6 * x0 * x0 + b2 * x0 * c + b4 * c * c == 0 for x0 in roots):
        raise SingularModelError("two-torsion undefined on a singular model")
    points = []
    for x0 in roots:
        # (x0/c, -(a1 x0/c + a3)/2) on the integral model
        X, Y, Z = 2 * x0, -(a1 * x0 + a3 * c), 2 * c
        if not _projective_on_curve(a, (X, Y, Z)):
            raise CertificateError(f"2-torsion candidate ({X}:{Y}:{Z}) is not on {im}")
        points.append((X, Y, Z))
    return L, points
