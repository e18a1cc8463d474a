"""The polynomial kernel: +, -, *, ** and Horner evaluation agree with
sympy on int and Fraction coefficients, and powers make the fewest
polynomial products that binary powering needs."""

import random
from fractions import Fraction

import pytest

from szpirolab.intarith import ValidationError
from szpirolab.poly import Poly, X, evaluate

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")


def to_sympy(p: Poly):
    return sympy.Poly(
        sum((sympy.Rational(c.numerator, c.denominator) * x**i
             for i, c in enumerate(map(Fraction, p.coeffs))), sympy.Integer(0)),
        x, domain="QQ",
    )


def from_sympy(sp) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs()))


def random_poly(rng: random.Random, kind) -> Poly:
    n = rng.randint(0, 6)
    if kind is int:
        return Poly(rng.randint(-50, 50) for _ in range(n))
    return Poly(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n))


def polys(seed: int):
    """Pairs of random int and Fraction polynomials, the zero polynomial,
    the constant 1 and X included."""
    rng = random.Random(seed)
    fixed = [Poly([]), Poly([1]), X, Poly([0, 0, Fraction(-3, 4)])]
    out = [(p, q) for p in fixed for q in fixed]
    for _ in range(40):
        out.append((random_poly(rng, rng.choice((int, Fraction))),
                    random_poly(rng, rng.choice((int, Fraction)))))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_ring_operations_match_sympy(seed):
    for p, q in polys(seed):
        sp, sq = to_sympy(p), to_sympy(q)
        assert p + q == from_sympy(sp + sq)
        assert p - q == from_sympy(sp - sq)
        assert p * q == from_sympy(sp * sq)
        assert -p == from_sympy(-sp)
        # scalars on either side
        assert 3 + p == p + 3 == from_sympy(sp + 3)
        assert 2 - p == from_sympy(2 - sp)
        assert Fraction(1, 3) * p == p * Fraction(1, 3) == from_sympy(sp * sympy.Rational(1, 3))


@pytest.mark.parametrize("seed", [0, 1])
def test_powers_match_sympy(seed):
    for p, _ in polys(seed):
        sp = to_sympy(p)
        for k in range(10):
            power = p**k
            assert power == from_sympy(sp**k), (p, k)
            if all(type(c) is int for c in p.coeffs):
                # int coefficients stay int: _phi_polys reads them as such
                assert all(type(c) is int for c in power.coeffs)


@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_matches_sympy(seed):
    rng = random.Random(seed)
    for p, _ in polys(seed):
        sp = to_sympy(p)
        for at in (0, 1, -2, Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
            want = sp.eval(sympy.Rational(Fraction(at).numerator, Fraction(at).denominator))
            assert p(at) == evaluate(p.coeffs, at) == Fraction(int(want.p), int(want.q))


def test_zero_power_is_one_and_negative_power_raises():
    assert Poly([])**0 == Poly([1]) == X**0
    assert Poly([])**3 == Poly([])
    with pytest.raises(ValidationError, match="^negative polynomial power$"):
        X**-1


def test_power_makes_the_fewest_products(monkeypatch):
    # right-to-left binary powering from the base: k.bit_length() - 1
    # squarings and popcount(k) - 1 other products, none past the top bit
    calls = []
    real = Poly.__mul__

    def counted(self, other):
        if isinstance(other, Poly):
            calls.append((self.degree, other.degree))
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    base = Poly([2, -1, Fraction(1, 3)])
    for k in range(40):
        calls.clear()
        base**k
        want = k.bit_length() + bin(k).count("1") - 2 if k >= 2 else 0
        assert len(calls) == want, (k, calls)
        # no product forms a power of degree above 2k
        assert all(a + b <= 2 * k for a, b in calls), (k, calls)
