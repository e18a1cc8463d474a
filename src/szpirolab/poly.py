"""Dense univariate polynomials over exact rationals.

Just enough arithmetic (+, -, *, **, evaluation) to push a polynomial
indeterminate through the same formulas used for numeric invariants, so
degrees and leading coefficients come out exactly.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Poly", "X", "evaluate"]

Scalar = (int, Fraction)


def evaluate(coeffs, x):
    """The polynomial with coefficients coeffs (low to high) at x, by Horner."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Poly:
    """Coefficients stored low to high with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, Scalar):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Poly([other]))

    def __rsub__(self, other):
        return Poly([other]) - self

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        return evaluate(self.coeffs, x)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


X = Poly([0, 1])
