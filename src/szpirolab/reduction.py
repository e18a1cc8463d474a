"""Global minimal models, Tate's algorithm, conductors, semistability.

Minimalization follows Laska-Kraus-Connell: strip fourth/sixth powers from
(c4, c6) prime by prime, then back off at 2 and 3 until the Kraus
integrality conditions admit an integral model, and rebuild the reduced
model from the minimal pair.  Tate's algorithm runs per prime with the
standard translations; the conductor exponent comes out of Ogg's formula
f_p = v_p(delta_min) - (components - 1).

analyze() is the one pass per curve that callers share: the minimal
model, the factorization of delta_min, the local data at every bad prime,
the conductor and the naive height.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from szpirolab.intarith import (
    Factorization,
    ValidationError,
    _valuation,
    factorize,
    p_adic_valuation,
)
from szpirolab.weierstrass import (
    CertificateError,
    Isomorphism,
    ModelInvariants,
    SingularModelError,
    WeierstrassModel,
    _translate,
    compute_invariants,
    transform,
)

__all__ = [
    "CurveAnalysis",
    "LocalReductionData",
    "MinimalModelResult",
    "analyze",
    "conductor",
    "height_of_minimal",
    "minimal_model",
    "sigma_m",
    "tate_local",
]


class MinimalModelResult(NamedTuple):
    minimal: WeierstrassModel
    scaling_u: int
    iso: Isomorphism
    invariants: ModelInvariants  # of the minimal model

    @property
    def delta_min(self) -> int:
        return self.invariants.delta


class LocalReductionData(NamedTuple):
    p: int
    vp_delta: int
    fp: int
    kodaira: str
    semistable: bool


def _kraus_ok_at_2(c4: int, c6: int) -> bool:
    # An integral model with invariants (c4, c6) exists 2-adically iff
    # c6 = -1 mod 4, or v2(c4) >= 4 with c6 = 0 or 8 mod 32.
    if c6 % 4 == 3:
        return True
    if c4 % 16 == 0 and c6 % 32 in (0, 8):
        return True
    return False


def _kraus_ok_at_3(c6: int) -> bool:
    # 3-adic condition: v3(c6) != 2.
    return c6 == 0 or _valuation(c6, 3) != 2


def _model_from_c4c6(c4: int, c6: int) -> tuple[WeierstrassModel, ModelInvariants]:
    """Connell's recipe: reduced integral model with the given invariants,
    returned with its invariants.  Callers have checked Kraus' conditions,
    so a remainder means an identity failed and raises CertificateError."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4, r1 = divmod(b2 * b2 - c4, 24)
    b6, r2 = divmod(-b2**3 + 36 * b2 * b4 - c6, 216)
    a1, a3 = b2 % 2, b6 % 2
    a2, r3 = divmod(b2 - a1, 4)
    a4, r4 = divmod(b4 - a1 * a3, 2)
    a6, r5 = divmod(b6 - a3, 4)
    if r1 or r2 or r3 or r4 or r5:
        raise CertificateError(f"no integral model with c4={c4}, c6={c6}")
    m = WeierstrassModel(a1, a2, a3, a4, a6)
    inv = compute_invariants(m)
    if (inv.c4, inv.c6) != (c4, c6):
        raise CertificateError(
            f"model {m} has (c4, c6) = ({inv.c4}, {inv.c6}), not ({c4}, {c6})"
        )
    return m, inv


def _integral_div(value: int, divisor: int) -> int:
    q, rem = divmod(value, divisor)
    if rem:
        raise CertificateError(f"{value} / {divisor} is not integral")
    return q


def _isomorphism_to(
    m: WeierstrassModel, minimal: WeierstrassModel, u: int
) -> Isomorphism:
    """The (u, r, s, t) mapping m onto minimal, solved from a1, a2, a3.

    It is integral (Silverman, AEC VII.1.3): a remainder raises.
    """
    a1, a2, a3 = m.a1, m.a2, m.a3
    s = _integral_div(u * minimal.a1 - a1, 2)
    r = _integral_div(u * u * minimal.a2 - a2 + s * a1 + s * s, 3)
    t = _integral_div(u**3 * minimal.a3 - a3 - r * a1, 2)
    return Isomorphism(u, r, s, t)


def minimal_model(m: WeierstrassModel) -> MinimalModelResult:
    """Global minimal model of an integral model, with the witnessing data.

    Returns the minimal model, the positive integer u with
    delta_input = u^12 * delta_min, and the isomorphism mapping the input
    model onto the minimal one.
    """
    if not m.is_integral():
        raise ValidationError("minimal_model requires integral coefficients")
    inv = compute_invariants(m)
    c4, c6, delta = inv.c4, inv.c6, inv.delta
    if delta == 0:
        raise SingularModelError("singular model has no minimal model")

    # Primes that can be scaled out divide every nonzero invariant; c4 and
    # c6 are not both zero, so the gcd is nonzero.
    u = 1
    for p, _ in factorize(math.gcd(c4, c6)):
        k = _valuation(delta, p) // 12
        if c4 != 0:
            k = min(k, _valuation(c4, p) // 4)
        if c6 != 0:
            k = min(k, _valuation(c6, p) // 6)
        if p == 2:
            while k > 0 and not _kraus_ok_at_2(c4 // 2 ** (4 * k), c6 // 2 ** (6 * k)):
                k -= 1
        elif p == 3:
            while k > 0 and not _kraus_ok_at_3(c6 // 3 ** (6 * k)):
                k -= 1
        u *= p**k

    minimal, minv = _model_from_c4c6(c4 // u**4, c6 // u**6)
    if delta != u**12 * minv.delta:
        raise CertificateError(
            f"delta = {delta} is not u^12 * delta_min = {u}^12 * {minv.delta}"
        )
    iso = _isomorphism_to(m, minimal, u)
    if transform(m, iso) != minimal:
        raise CertificateError(f"{iso} does not map {m} onto {minimal}")
    return MinimalModelResult(minimal, u, iso, minv)


def _centered(x: int, modulus: int) -> int:
    r = x % modulus
    if 2 * r > modulus:
        r -= modulus
    return r


def _certify_step(ok: bool, p: int, work: tuple, claim: str) -> None:
    """A translation in Tate's algorithm must reach the divisibility the
    next step reads; raised explicitly so the check survives python -O."""
    if not ok:
        raise CertificateError(
            f"Tate's algorithm at p = {p}: {WeierstrassModel(*work)} fails {claim}"
        )


def _cubic_has_distinct_roots(a: int, b: int, c: int, p: int) -> bool:
    # Discriminant of the monic cubic T^3 + aT^2 + bT + c.
    disc = 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
    return disc % p != 0


def _double_root(a: int, b: int, c: int, p: int) -> int:
    """The root of a*T^2 + b*T + c over F_p, a a unit, when it is a double
    root (p | b^2 - 4ac), as a centered residue."""
    return _centered(c % 2 if p == 2 else -b * pow(2 * a, -1, p) % p, p)


def _local_data(coeffs, p: int, n: int, inv: ModelInvariants) -> LocalReductionData:
    """Local data at p of the integral model coeffs, minimal at p, with
    invariants inv and n = v_p(delta).

    With n = 0 or p not dividing c4 the type is I_n, with exponent 0 or 1;
    otherwise the additive steps run.  The translations run on the integer
    coefficient tuple, and each step computes only the b-invariant it reads
    (Cremona, Algorithms for Modular Elliptic Curves, 3.2).
    """
    if n == 0 or inv.c4 % p != 0:
        return LocalReductionData(p, n, min(n, 1), f"I{n}", True)

    # Additive reduction.  Move the singular point of the reduction to (0,0).
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        r = a4 % 2
        t = (r * (1 + a2 + a4) + a6) % 2
    elif p == 3:
        r = (-inv.b6) % 3
        t = (a1 * r + a3) % 3
    else:
        r = _centered(-inv.b2 * pow(12, -1, p) % p, p)
        t = _centered(-(a1 * r + a3) * pow(2, -1, p) % p, p)
    work = _translate(coeffs, r=r, t=t)
    a1, a2, a3, a4, a6 = work
    _certify_step(
        a3 % p == 0 and a4 % p == 0 and a6 % p == 0,
        p, work, "p | a3, a4, a6",
    )

    def val(x, bound):
        # v_p(x) capped at bound, with v_p(0) treated as the cap.
        v = 0
        while v < bound and x % p == 0:
            x //= p
            v += 1
        return v

    if val(a6, 2) < 2:
        return LocalReductionData(p, n, n, "II", False)
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    if val(b8, 3) < 3:
        return LocalReductionData(p, n, n - 1, "III", False)
    if val(a3 * a3 + 4 * a6, 3) < 3:  # b6
        return LocalReductionData(p, n, n - 2, "IV", False)

    # Normalize so that p | a1, a2; p^2 | a3, a4; p^3 | a6.
    if p == 2:
        s = a2 % 2
        t = 2 * ((a6 // 4) % 2)
    else:
        s = _centered(-a1 * pow(2, -1, p) % p, p)
        t = _centered(-a3 * pow(2, -1, p * p) % (p * p), p * p)
    work = _translate(work, s=s, t=t)
    a1, a2, a3, a4, a6 = work
    _certify_step(a1 % p == 0 and a2 % p == 0, p, work, "p | a1, a2")
    _certify_step(
        a3 % p**2 == 0 and a4 % p**2 == 0 and a6 % p**3 == 0,
        p, work, "p^2 | a3, a4 and p^3 | a6",
    )

    # Distinguish I0*, I_m*, and the deeper types via the cubic
    # P(T) = T^3 + a2/p T^2 + a4/p^2 T + a6/p^3 over F_p.
    A, B, C = a2 // p, a4 // p**2, a6 // p**3
    if _cubic_has_distinct_roots(A, B, C, p):
        return LocalReductionData(p, n, n - 4, "I0*", False)

    if (3 * B - A * A) % p != 0:
        # Double root; translate it to T = 0 and run the I_m* ladder.
        if p == 2:
            root = B % 2
        else:
            root = (A * B - 9 * C) * pow(2 * (3 * B - A * A) % p, -1, p) % p
        work = _translate(work, r=p * _centered(root, p))
        a1, a2, a3, a4, a6 = work
        _certify_step(a2 % p != 0 or a2 // p % p != 0, p, work, "v_p(a2) <= 1")
        ix, iy = 3, 3
        mx, my = p * p, p * p
        while True:
            a3t = a3 // my
            a6t = a6 // (mx * my)
            if (a3t * a3t + 4 * a6t) % p != 0:
                break
            work = _translate(work, t=my * _double_root(1, a3t, -a6t, p))
            a1, a2, a3, a4, a6 = work
            iy += 1
            my *= p
            a2t = a2 // p
            a4t = a4 // (p * mx)
            a6t = a6 // (mx * my)
            if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                break
            work = _translate(work, r=mx * _double_root(a2t, a4t, a6t, p))
            a1, a2, a3, a4, a6 = work
            ix += 1
            mx *= p
        m_star = ix + iy - 5
        return LocalReductionData(p, n, n - 4 - m_star, f"I{m_star}*", False)

    # Triple root; translate it to T = 0.
    if p == 3:
        root = (-C) % 3
    else:
        root = -A * pow(3, -1, p) % p
    work = _translate(work, r=p * _centered(root, p))
    a1, a2, a3, a4, a6 = work
    _certify_step(
        a2 % p**2 == 0 and a4 % p**3 == 0 and a6 % p**4 == 0,
        p, work, "p^2 | a2, p^3 | a4 and p^4 | a6",
    )

    # Quadratic Y^2 + (a3/p^2) Y - a6/p^4 over F_p.
    a3t = a3 // p**2
    a6t = a6 // p**4
    if (a3t * a3t + 4 * a6t) % p != 0:
        return LocalReductionData(p, n, n - 6, "IV*", False)
    work = _translate(work, t=p * p * _double_root(1, a3t, -a6t, p))
    a1, a2, a3, a4, a6 = work
    _certify_step(a3 % p**3 == 0 and a6 % p**5 == 0, p, work, "p^3 | a3 and p^5 | a6")

    if a4 % p**4 != 0:
        return LocalReductionData(p, n, n - 7, "III*", False)
    if a6 % p**6 != 0:
        return LocalReductionData(p, n, n - 8, "II*", False)
    raise ValidationError(
        f"model {WeierstrassModel(*coeffs)} is not minimal at {p}"
    )


def tate_local(m: WeierstrassModel, p: int) -> LocalReductionData:
    """Tate's algorithm at p for a model minimal at p.

    Produces the Kodaira type and conductor exponent.  A model that turns
    out to be non-minimal at p (the algorithm's final rescaling step)
    raises ValidationError: exponents mean something only for minimal models.
    """
    if not m.is_integral():
        raise ValidationError("tate_local requires an integral model")
    inv = compute_invariants(m)
    if inv.delta == 0:
        raise SingularModelError("Tate's algorithm requires delta != 0")
    n = p_adic_valuation(inv.delta, p) if inv.delta % p == 0 else 0
    return _local_data(m.coefficients(), p, n, inv)


def height_of_minimal(mm: MinimalModelResult) -> int:
    """The naive height max(|c4^3|, c6^2) of the minimal model."""
    inv = mm.invariants
    return max(abs(inv.c4**3), inv.c6**2)


def sigma_m(height: int, conductor: int) -> float:
    """The modified Szpiro ratio log(height) / log(conductor), as a float.

    The logs of exact integers are accurate to machine precision; exact
    decisions against a rational bound go through
    bounds.verify_height_bound instead.
    """
    return math.log(height) / math.log(conductor)


class CurveAnalysis(NamedTuple):
    """Everything the checks need about one curve, computed once."""

    mm: MinimalModelResult
    factorization: Factorization  # of delta_min
    local: tuple[LocalReductionData, ...]  # one per prime of delta_min
    conductor: int
    height: int  # max(|c4^3|, c6^2) of the minimal model


def analyze(m: WeierstrassModel) -> CurveAnalysis:
    """Minimal model, bad primes, local data, conductor and height of m.

    Tate's algorithm runs at each prime of delta_min on the minimal model,
    handed the valuation from this factorization and the invariants
    minimal_model certified.  No elliptic curve over Q has conductor 1, so
    computing it raises CertificateError.
    """
    mm = minimal_model(m)
    fac = factorize(mm.delta_min)
    coeffs = mm.minimal.coefficients()
    local = tuple(_local_data(coeffs, p, e, mm.invariants) for p, e in fac)
    N = math.prod(d.p**d.fp for d in local)
    if N == 1:
        raise CertificateError(f"conductor 1 computed for {m}")
    return CurveAnalysis(mm, fac, local, N, height_of_minimal(mm))


def conductor(m: WeierstrassModel) -> int:
    """The conductor: product of p^fp over primes dividing delta_min."""
    return analyze(m).conductor

