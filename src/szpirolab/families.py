"""The fifteen parameterized torsion families over Q.

Holds the family models (one per torsion structure containing a point of
the given order), their validity conditions, the conductor-bound
polynomials delta for each admissible minimal-scaling value u, and the
empirical recovery of u by comparing the model discriminant against the
computed minimal discriminant.

alpha/beta/gamma for a family instance are *defined* as the c4, c6, delta
of the family model, so no transcription of external invariant tables is
involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from szpirolab.intarith import factorize, is_cubefree, is_squarefree
from szpirolab.reduction import MinimalModelResult, minimal_model
from szpirolab.weierstrass import WeierstrassModel, compute_invariants

__all__ = [
    "FAMILIES",
    "FamilyId",
    "FamilyInstance",
    "PaperContractViolation",
    "ValidationError",
    "build_model",
    "decompose_a",
    "delta_eval",
    "model_coefficients",
    "delta_base",
    "recover_uT",
    "validate_params",
]


class ValidationError(ValueError):
    """A family parameter condition failed; the message names the condition."""


class PaperContractViolation(AssertionError):
    """A quantity landed outside its published contract (reportable finding)."""


# ---------------------------------------------------------------------------
# Family models.  All have a6 = 0; only C2 and C2xC2 have a4 != 0.
# The builders are plain polynomial expressions, so they accept ints,
# Fractions, or Poly indeterminates alike.


def _m_C2(a, b, d):
    return (0, 2 * a, 0, a * a - b * b * d, 0)


def _m_C3_0(a):
    return (0, 0, a, 0, 0)


def _m_C3(a, b):
    return (a, 0, a * a * b, 0, 0)


def _m_C4(a, b):
    return (a, -a * b, -a * a * b, 0, 0)


def _m_C5(a, b):
    return (a - b, -a * b, -a * a * b, 0, 0)


def _m_C6(a, b):
    return (a - b, -a * b - b * b, -a * a * b - a * b * b, 0, 0)


def _m_C7(a, b):
    a2 = a * a * b * b - a * b**3
    return (a * a + a * b - b * b, a2, a * a * a2, 0, 0)


def _m_C8(a, b):
    a2 = -a * a * b * b + 3 * a * b**3 - 2 * b**4
    return (-a * a + 4 * a * b - 2 * b * b, a2, a * b * a2, 0, 0)


def _m_C9(a, b):
    a2 = a**4 * b * b - 2 * a**3 * b**3 + 2 * a * a * b**4 - a * b**5
    return (a**3 + a * b * b - b**3, a2, a**3 * a2, 0, 0)


def _m_C10(a, b):
    a2 = -(a**3) * b**3 + 3 * a * a * b**4 - 2 * a * b**5
    return (
        a**3 - 2 * a * a * b - 2 * a * b * b + 2 * b**3,
        a2,
        (a**3 - 3 * a * a * b + a * b * b) * a2,
        0,
        0,
    )


def _m_C12(a, b):
    a2 = (
        b
        * (a - 2 * b)
        * (a - b) ** 2
        * (a * a - 3 * a * b + 3 * b * b)
        * (a * a - 2 * a * b + 2 * b * b)
    )
    return (
        -(a**4) + 2 * a**3 * b + 2 * a * a * b * b - 8 * a * b**3 + 6 * b**4,
        a2,
        a * (b - a) ** 3 * a2,
        0,
        0,
    )


def _m_C2xC2(a, b, d):
    return (0, a * d + b * d, 0, a * b * d * d, 0)


def _m_C2xC4(a, b):
    return (a, -a * b - 4 * b * b, -a * a * b - 4 * a * b * b, 0, 0)


def _m_C2xC6(a, b):
    return (
        -19 * a * a + 2 * a * b + b * b,
        -10 * a**4 + 22 * a**3 * b - 14 * a * a * b * b + 2 * a * b**3,
        90 * a**6
        - 198 * a**5 * b
        + 116 * a**4 * b * b
        + 4 * a**3 * b**3
        - 14 * a * a * b**4
        + 2 * a * b**5,
        0,
        0,
    )


def _m_C2xC8(a, b):
    a2 = -4 * a * b * b * (a + 2 * b) * (a + 4 * b) ** 2 * (a * a + 4 * a * b + 8 * b * b)
    return (
        -(a**4) - 8 * a**3 * b - 24 * a * a * b * b + 64 * b**4,
        a2,
        -2 * b * (a + 4 * b) * (a * a - 8 * b * b) * a2,
        0,
        0,
    )


# ---------------------------------------------------------------------------
# Base conductor-bound polynomials delta_T.  Argument orders:
#   C2, C2xC2: (a, b, d);  C3: (c, d, e, b);  C4: (c, d, b);  else (a, b).


def _d_C2(a, b, d):
    return b * b * d * (b * b * d - a * a)


def _d_C3(c, d, e, b):
    return 3 * b * d * d * e**4 * (c**3 * d * d * e - 27 * b)


def _d_C4(c, d, b):
    return b * c * d**3 * (16 * b + c * c * d)


def _d_C5(a, b):
    return a * b * (a * a + 11 * a * b - b * b)


def _d_C6(a, b):
    return a * b * (a + b) * (a + 9 * b)


def _d_C7(a, b):
    return a * b * (a - b) * (a**3 + 5 * a * a * b - 8 * a * b * b + b**3)


def _d_C8(a, b):
    return a * b * (a - 2 * b) * (a - b) * (a * a - 8 * a * b + 8 * b * b)


def _d_C9(a, b):
    return (
        a
        * b
        * (a - b)
        * (a * a - a * b + b * b)
        * (a**3 + 3 * a * a * b - 6 * a * b * b + b**3)
    )


def _d_C10(a, b):
    return (
        a
        * b
        * (a - 2 * b)
        * (a - b)
        * (a * a + 2 * a * b - 4 * b * b)
        * (a * a - 3 * a * b + b * b)
    )


def _d_C12(a, b):
    return (
        a
        * b
        * (a - 2 * b)
        * (a - b)
        * (a * a - 6 * a * b + 6 * b * b)
        * (a * a - 2 * a * b + 2 * b * b)
        * (a * a - 3 * a * b + 3 * b * b)
    )


def _d_C2xC2(a, b, d):
    return a * b * d**3 * (a - b)


def _d_C2xC4(a, b):
    return a * b * (a + 4 * b) * (a + 8 * b)


def _d_C2xC6(a, b):
    return a * (a - b) * (3 * a - b) * (5 * a - b) * (9 * a - b) * (3 * a + b)


def _d_C2xC8(a, b):
    return (
        a
        * b
        * (a + 2 * b)
        * (a + 4 * b)
        * (a * a - 8 * b * b)
        * (a * a + 8 * a * b + 8 * b * b)
        * (a * a + 4 * a * b + 8 * b * b)
    )


@dataclass(frozen=True)
class FamilyId:
    """Static data for one torsion family."""

    name: str
    arity: int  # count of raw parameters
    m: int | None  # homogeneity weight (None for C3_0)
    l: Fraction  # sharp lower bound on the Szpiro ratio
    point_order: int  # exact order of (0,0) on the family model
    has_full_two_torsion: bool
    allowed_u: tuple  # ints, or symbolic "c2d" / ("c", "2c")
    delta_scales: dict  # u key -> exact rational multiplier for delta_T

    def __str__(self):
        return self.name


def _fam(name, arity, m, l, order, full2, allowed_u, scales):
    return FamilyId(
        name, arity, m, Fraction(l), order, full2, allowed_u, scales
    )


FAMILIES: dict[str, FamilyId] = {
    f.name: f
    for f in (
        _fam("C2", 3, 6, Fraction(3, 2), 2, False, (1, 2, 4),
             {1: Fraction(256), 2: Fraction(4), 4: Fraction(1, 64)}),
        _fam("C3", 2, 12, 2, 3, False, ("c2d",), {"c2d": Fraction(1)}),
        _fam("C3_0", 1, None, 2, 3, False, (1,), {1: Fraction(1)}),
        _fam("C4", 2, 12, Fraction(12, 5), 4, False, ("c", "2c"),
             {"c": Fraction(2), "2c": Fraction(1, 16)}),
        _fam("C5", 2, 12, 3, 5, False, (1,), {1: Fraction(1)}),
        _fam("C6", 2, 12, 3, 6, False, (1, 2), {1: Fraction(1), 2: Fraction(1, 8)}),
        _fam("C7", 2, 24, 4, 7, False, (1,), {1: Fraction(1)}),
        _fam("C8", 2, 24, 4, 8, False, (1, 2), {1: Fraction(1), 2: Fraction(1, 8)}),
        _fam("C9", 2, 36, Fraction(9, 2), 9, False, (1,), {1: Fraction(1)}),
        _fam("C10", 2, 36, Fraction(9, 2), 10, False, (1, 2),
             {1: Fraction(1), 2: Fraction(1, 4)}),
        _fam("C12", 2, 48, Fraction(24, 5), 12, False, (1, 2),
             {1: Fraction(1), 2: Fraction(1, 8)}),
        _fam("C2xC2", 3, 6, 2, 2, True, (1, 2), {1: Fraction(64), 2: Fraction(1)}),
        _fam("C2xC4", 2, 12, 3, 4, True, (1, 2, 4),
             {1: Fraction(8), 2: Fraction(1, 2), 4: Fraction(1, 32)}),
        _fam("C2xC6", 2, 24, 4, 6, True, (1, 4, 16),
             {1: Fraction(1), 4: Fraction(1, 8), 16: Fraction(1, 512)}),
        _fam("C2xC8", 2, 48, Fraction(24, 5), 8, True, (1, 16, 64),
             {1: Fraction(2), 16: Fraction(1, 128), 64: Fraction(1, 4096)}),
    )
}

_MODEL_BUILDERS = {
    "C2": _m_C2,
    "C3": _m_C3,
    "C3_0": _m_C3_0,
    "C4": _m_C4,
    "C5": _m_C5,
    "C6": _m_C6,
    "C7": _m_C7,
    "C8": _m_C8,
    "C9": _m_C9,
    "C10": _m_C10,
    "C12": _m_C12,
    "C2xC2": _m_C2xC2,
    "C2xC4": _m_C2xC4,
    "C2xC6": _m_C2xC6,
    "C2xC8": _m_C2xC8,
}

_DELTA_BUILDERS = {
    "C2": _d_C2,
    "C3": _d_C3,
    "C4": _d_C4,
    "C5": _d_C5,
    "C6": _d_C6,
    "C7": _d_C7,
    "C8": _d_C8,
    "C9": _d_C9,
    "C10": _d_C10,
    "C12": _d_C12,
    "C2xC2": _d_C2xC2,
    "C2xC4": _d_C2xC4,
    "C2xC6": _d_C2xC6,
    "C2xC8": _d_C2xC8,
}


def family(name: str) -> FamilyId:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown family {name!r}; valid: {', '.join(FAMILIES)}"
        ) from None


def model_coefficients(name: str, args) -> tuple:
    """Raw family-model coefficients (a1, a2, a3, a4, a6) at the given
    *model* arguments: (a, b [, d]), unvalidated, any exact ring."""
    return _MODEL_BUILDERS[name](*args)


def delta_base(name: str, args) -> object:
    """The base conductor-bound polynomial at full delta arguments."""
    return _DELTA_BUILDERS[name](*args)


def decompose_a(name: str, a: int):
    """Split a > 0 per prime: a = c^3 d^2 e (gcd(d,e)=1, de squarefree) for
    C3, a = c^2 d (d squarefree) for C4.  The split is unique."""
    if name not in ("C3", "C4"):
        raise ValueError("decomposition applies to C3 and C4 only")
    if a <= 0:
        raise ValueError("decomposition requires a > 0")
    c = d = e = 1
    for p, k in factorize(a):
        if name == "C4":
            c *= p ** (k // 2)
            if k % 2:
                d *= p
        else:
            r = k % 3
            if r == 0:
                c *= p ** (k // 3)
            elif r == 1:
                c *= p ** ((k - 1) // 3)
                e *= p
            else:
                c *= p ** ((k - 2) // 3)
                d *= p
    return (c, d) if name == "C4" else (c, d, e)


@dataclass(frozen=True)
class FamilyInstance:
    """A validated parameter tuple for one family."""

    family: FamilyId
    params: tuple[int, ...]
    decomposition: tuple[int, ...] | None = None

    @property
    def delta_args(self) -> tuple[int, ...]:
        name = self.family.name
        if name == "C3":
            c, d, e = self.decomposition
            return (c, d, e, self.params[1])
        if name == "C4":
            c, d = self.decomposition
            return (c, d, self.params[1])
        return self.params

    def __str__(self):
        return f"{self.family.name}{self.params}"


def validate_params(name: str, *params: int) -> FamilyInstance:
    """Check the family's parameter conditions and normalize the instance.

    Violations raise ValidationError naming the failed condition.
    """
    fam = family(name)
    if len(params) != fam.arity:
        raise ValidationError(
            f"{name} takes {fam.arity} parameter(s), got {len(params)}"
        )
    if not all(isinstance(p, int) for p in params):
        raise ValidationError(f"{name} parameters must be integers")
    decomposition = None

    if name == "C3_0":
        (a,) = params
        if a <= 0:
            raise ValidationError("a must be positive")
        if not is_cubefree(a):
            raise ValidationError("a must be cubefree")
    elif name == "C2":
        a, b, d = params
        if b == 0:
            raise ValidationError("b must be nonzero")
        if d == 1:
            raise ValidationError("d must not equal 1")
        if d == 0 or not is_squarefree(d):
            raise ValidationError("d must be squarefree")
        g = math.gcd(a, b)
        if not is_squarefree(g):
            raise ValidationError("gcd(a, b) must be squarefree")
    elif name == "C2xC2":
        a, b, d = params
        if math.gcd(a, b) != 1:
            raise ValidationError("a and b must be coprime")
        if d == 0 or not is_squarefree(d):
            raise ValidationError("d must be squarefree")
        if a % 2 != 0:
            raise ValidationError("a must be even")
    else:
        a, b = params
        if a <= 0:
            raise ValidationError("a must be positive")
        if math.gcd(a, b) != 1:
            raise ValidationError("a and b must be coprime")
        if name in ("C3", "C4"):
            decomposition = decompose_a(name, a)

    instance = FamilyInstance(fam, tuple(params), decomposition)
    if compute_invariants(build_model(instance)).delta == 0:
        raise ValidationError("parameters give a singular curve (discriminant zero)")
    return instance


def build_model(instance: FamilyInstance) -> WeierstrassModel:
    return WeierstrassModel(*model_coefficients(instance.family.name, instance.params))


def _u_key(instance: FamilyInstance, u: int):
    """Map a concrete scaling u to its slot in the family's allowed set,
    or None if u is not admissible."""
    name = instance.family.name
    if name == "C3":
        c, d, _ = instance.decomposition
        return "c2d" if u == c * c * d else None
    if name == "C4":
        c, _ = instance.decomposition
        if u == c:
            return "c"
        if u == 2 * c:
            return "2c"
        return None
    return u if u in instance.family.allowed_u else None


def recover_uT(instance: FamilyInstance, mm: MinimalModelResult | None = None) -> int:
    """The u with gamma = u^12 * delta_min, checked against the allowed set.

    A u outside the published set would contradict the minimal-discriminant
    classification, so it raises PaperContractViolation rather than being
    silently accepted.
    """
    if mm is None:
        mm = minimal_model(build_model(instance))
    u = mm.scaling_u
    if _u_key(instance, u) is None:
        raise PaperContractViolation(
            f"recovered u = {u} for {instance} lies outside the allowed set "
            f"{instance.family.allowed_u}"
        )
    return u


def delta_eval(instance: FamilyInstance, u: int) -> int:
    """Exact value of delta_{T,u} at the instance parameters.

    The scaled polynomial must be an integer; non-integrality would break
    the published table and raises PaperContractViolation.
    """
    key = _u_key(instance, u)
    if key is None:
        raise ValueError(
            f"u = {u} is not admissible for {instance.family.name}"
        )
    base = delta_base(instance.family.name, instance.delta_args)
    scaled = instance.family.delta_scales[key] * base
    if scaled.denominator != 1:
        raise PaperContractViolation(
            f"delta_({instance.family.name},{u}) at {instance} is not integral: {scaled}"
        )
    return int(scaled)
