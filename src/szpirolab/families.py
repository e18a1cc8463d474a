"""The fifteen parameterized torsion families over Q.

Holds the family models (one per torsion structure containing a point of
the given order), their parameter rules, the conductor-bound polynomials
delta for each admissible minimal-scaling value u, and the empirical
recovery of u by comparing the model discriminant against the computed
minimal discriminant.

alpha/beta/gamma for a family instance are *defined* as the c4, c6, delta
of the family model, so no transcription of external invariant tables is
involved anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from szpirolab.intarith import ValidationError, factorize, is_cubefree, is_squarefree
from szpirolab.reduction import MinimalModelResult, minimal_model
from szpirolab.weierstrass import WeierstrassModel

__all__ = [
    "FAMILIES",
    "FamilyId",
    "FamilyInstance",
    "PaperContractViolation",
    "ValidationError",
    "build_model",
    "delta_eval",
    "recover_uT",
    "u_value",
    "validate_params",
]


class PaperContractViolation(Exception):
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
#   C2, C2xC2: (a, b, d);  C3: (c, d, e, b);  C4: (c, d, b);  C3_0: (a,);
#   else (a, b).


def _d_C2(a, b, d):
    return b * b * d * (b * b * d - a * a)


def _d_C3_0(a):
    return 27 * a * a


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


# ---------------------------------------------------------------------------
# Parameter rules, checked in order: (position, predicate, message).  The
# predicate gets params[position], or the whole tuple for position None.

_A_POSITIVE = (0, lambda a: a > 0, "a must be positive")
_COPRIME = (None, lambda a, b, *_: math.gcd(a, b) == 1, "a and b must be coprime")
_D_SQUAREFREE = (2, lambda d: d != 0 and is_squarefree(d), "d must be squarefree")
_AB_RULES = (_A_POSITIVE, _COPRIME)
_C3_0_RULES = (_A_POSITIVE, (0, is_cubefree, "a must be cubefree"))
_C2_RULES = (
    (1, lambda b: b != 0, "b must be nonzero"),
    (2, lambda d: d != 1, "d must not equal 1"),
    _D_SQUAREFREE,
    (None, lambda a, b, d: is_squarefree(math.gcd(a, b)), "gcd(a, b) must be squarefree"),
)
_C2xC2_RULES = (_COPRIME, _D_SQUAREFREE, (0, lambda a: a % 2 == 0, "a must be even"))


class FamilyId(NamedTuple):
    """Static data for one torsion family."""

    name: str
    arity: int  # count of raw parameters
    m: int | None  # homogeneity weight (None for C3_0)
    l: Fraction  # sharp lower bound on the Szpiro ratio
    point_order: int  # exact order of (0,0) on the family model
    has_full_two_torsion: bool
    # admissible u key -> exact rational multiplier for delta_T; the keys
    # are ints, or symbolic ones that u_value resolves
    delta_scales: dict
    model: Callable  # model arguments -> (a1, a2, a3, a4, a6)
    delta: Callable  # delta arguments -> delta_T
    # k of the power split of a that delta_T is written in (see decompose)
    split: int | None = None
    # what validate_params checks and iter_param_tuples enumerates
    rules: tuple = _AB_RULES
    # exponent of each parameter in the phi variable x (phi families
    # only): x = b/a
    x_exps: tuple = (-1, 1)

    def __hash__(self):
        # delta_scales is a dict; the name alone identifies a family
        return hash(self.name)

    def __reduce__(self):
        # The rules are lambdas; a pickled record is looked up by name.
        return family, (self.name,)

    def decompose(self, a: int):
        """Split a > 0 per prime: a = c^3 d^2 e (gcd(d,e)=1, de squarefree)
        for split 3 (C3), a = c^2 d (d squarefree) for split 2 (C4).  The
        split is unique; None for a family without one."""
        k = self.split
        if k is None:
            return None
        if a <= 0:
            raise ValidationError("decomposition requires a > 0")
        c = 1
        parts = [1] * k  # parts[r]: the primes whose exponent is r mod k
        for p, e in factorize(a):
            c *= p ** (e // k)
            parts[e % k] *= p
        return (c, *parts[:0:-1])


def _fam(name, arity, m, l, *rest, **kw):
    return FamilyId(name, arity, m, Fraction(l), *rest, **kw)


FAMILIES: dict[str, FamilyId] = {
    f.name: f
    for f in (
        _fam("C2", 3, 6, Fraction(3, 2), 2, False,
             {1: Fraction(256), 2: Fraction(4), 4: Fraction(1, 64)}, _m_C2, _d_C2,
             rules=_C2_RULES, x_exps=(-2, 2, 1)),
        _fam("C3", 2, 12, 2, 3, False, {"c2d": Fraction(1)}, _m_C3, _d_C3, 3),
        _fam("C3_0", 1, None, 2, 3, False, {1: Fraction(1)}, _m_C3_0, _d_C3_0,
             rules=_C3_0_RULES),
        _fam("C4", 2, 12, Fraction(12, 5), 4, False,
             {"c": Fraction(2), "2c": Fraction(1, 16)}, _m_C4, _d_C4, 2),
        _fam("C5", 2, 12, 3, 5, False, {1: Fraction(1)}, _m_C5, _d_C5),
        _fam("C6", 2, 12, 3, 6, False, {1: Fraction(1), 2: Fraction(1, 8)},
             _m_C6, _d_C6),
        _fam("C7", 2, 24, 4, 7, False, {1: Fraction(1)}, _m_C7, _d_C7),
        _fam("C8", 2, 24, 4, 8, False, {1: Fraction(1), 2: Fraction(1, 8)},
             _m_C8, _d_C8),
        _fam("C9", 2, 36, Fraction(9, 2), 9, False, {1: Fraction(1)}, _m_C9, _d_C9),
        _fam("C10", 2, 36, Fraction(9, 2), 10, False,
             {1: Fraction(1), 2: Fraction(1, 4)}, _m_C10, _d_C10),
        _fam("C12", 2, 48, Fraction(24, 5), 12, False,
             {1: Fraction(1), 2: Fraction(1, 8)}, _m_C12, _d_C12),
        _fam("C2xC2", 3, 6, 2, 2, True, {1: Fraction(64), 2: Fraction(1)},
             _m_C2xC2, _d_C2xC2, rules=_C2xC2_RULES, x_exps=(-1, 1, 0)),
        _fam("C2xC4", 2, 12, 3, 4, True,
             {1: Fraction(8), 2: Fraction(1, 2), 4: Fraction(1, 32)},
             _m_C2xC4, _d_C2xC4),
        _fam("C2xC6", 2, 24, 4, 6, True,
             {1: Fraction(1), 4: Fraction(1, 8), 16: Fraction(1, 512)},
             _m_C2xC6, _d_C2xC6),
        _fam("C2xC8", 2, 48, Fraction(24, 5), 8, True,
             {1: Fraction(2), 16: Fraction(1, 128), 64: Fraction(1, 4096)},
             _m_C2xC8, _d_C2xC8),
    )
}


def family(name: str) -> FamilyId:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown family {name!r}; valid: {', '.join(FAMILIES)}"
        ) from None


class FamilyInstance(NamedTuple):
    """A validated parameter tuple for one family.

    bounds also builds unvalidated pattern instances, whose one free
    parameter is the polynomial indeterminate X.
    """

    family: FamilyId
    params: tuple[int, ...]
    decomposition: tuple[int, ...] | None = None

    @property
    def delta_args(self) -> tuple[int, ...]:
        if self.decomposition is None:
            return self.params
        return (*self.decomposition, self.params[1])

    def __str__(self):
        return f"{self.family.name}{self.params}"


def validate_params(name: str, *params: int) -> FamilyInstance:
    """Check the family's parameter rules in order and normalize the instance.

    The first rule that fails raises ValidationError with its message.
    """
    fam = family(name)
    if len(params) != fam.arity:
        raise ValidationError(
            f"{name} takes {fam.arity} parameter(s), got {len(params)}"
        )
    if not all(type(p) is int for p in params):
        raise ValidationError(f"{name} parameters must be integers")
    for pos, ok, message in fam.rules:
        if not (ok(*params) if pos is None else ok(params[pos])):
            raise ValidationError(message)
    return _admit(fam, params)


def _admit(fam: FamilyId, params: tuple) -> FamilyInstance:
    """The instance of int params that pass every rule of fam; a singular
    curve raises ValidationError.  The sweep calls it on what
    iter_param_tuples enumerates, which has already passed the rules."""
    instance = FamilyInstance(fam, params, fam.decompose(params[0]))
    # Once the rules hold, delta_T vanishes exactly where the family
    # discriminant does (for C3 the discriminant has one more factor, c >= 1
    # of a = c^3 d^2 e).
    if fam.delta(*instance.delta_args) == 0:
        raise ValidationError("parameters give a singular curve (discriminant zero)")
    return instance


def build_model(instance: FamilyInstance) -> WeierstrassModel:
    return WeierstrassModel(*instance.family.model(*instance.params))


def u_value(key, decomposition) -> int:
    """The scaling u a delta_scales key stands for: an int key is u itself;
    "c2d" is c^2 d (C3, a = c^3 d^2 e), "c" and "2c" are c and 2c (C4,
    a = c^2 d), read from the instance's decomposition."""
    if isinstance(key, int):
        return key
    c, d = decomposition[:2]
    return {"c2d": c * c * d, "c": c, "2c": 2 * c}[key]


def _u_key(instance: FamilyInstance, u: int):
    """Map a concrete scaling u to its key in the family's delta_scales,
    or None if u is not admissible."""
    for key in instance.family.delta_scales:
        if u_value(key, instance.decomposition) == u:
            return key
    return None


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
            f"{tuple(instance.family.delta_scales)}"
        )
    return u


def delta_eval(instance: FamilyInstance, u: int) -> int:
    """Exact value of delta_{T,u} at the instance parameters.

    The scaled polynomial must be an integer; non-integrality would break
    the published table and raises PaperContractViolation.
    """
    fam = instance.family
    key = _u_key(instance, u)
    if key is None:
        raise ValidationError(f"u = {u} is not admissible for {fam.name}")
    scale = fam.delta_scales[key]
    num = scale.numerator * fam.delta(*instance.delta_args)
    value, rem = divmod(num, scale.denominator)
    if rem:
        raise PaperContractViolation(
            f"delta_({fam.name},{u}) at {instance} is not integral: "
            f"{Fraction(num, scale.denominator)}"
        )
    return value
