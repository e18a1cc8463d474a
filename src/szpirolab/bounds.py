"""Heights, Szpiro ratios, and the inequality machinery behind the bounds.

Every verification path is exact: the fractional exponent l = p/q is
cleared by raising both sides to the q-th power and comparing integers or
rationals, so no check ever depends on floating-point rounding.  Floats
appear only in reported ratio values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from szpirolab.families import (
    FAMILIES,
    FamilyId,
    FamilyInstance,
    delta_base,
    model_coefficients,
)
from szpirolab.poly import Poly, X
from szpirolab.reduction import analyze
from szpirolab.weierstrass import (
    CertificateError,
    SingularModelError,
    WeierstrassModel,
    compute_invariants,
)

__all__ = [
    "PhiScanResult",
    "PhiSpec",
    "PhiValue",
    "SzpiroExponent",
    "all_phi_specs",
    "exceeds",
    "homogeneity_check",
    "leading_dominance",
    "phi_eval",
    "phi_scan",
    "phi_spec",
    "szpiro_exponent",
    "szpiro_ratio",
    "verify_height_bound",
]


@dataclass(frozen=True)
class SzpiroExponent:
    """The sharp ratio bound l = p/q in lowest terms."""

    p: int
    q: int

    @classmethod
    def from_fraction(cls, l: Fraction) -> "SzpiroExponent":
        return cls(l.numerator, l.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def szpiro_exponent(name: str) -> SzpiroExponent:
    """The lower-bound exponent for a torsion structure ("C1" for trivial)."""
    if name == "C1":
        return SzpiroExponent(1, 1)
    return SzpiroExponent.from_fraction(FAMILIES[name].l)


def _analyze_for_ratio(model: WeierstrassModel):
    if compute_invariants(model).delta == 0:
        raise SingularModelError("Szpiro ratio undefined for singular model")
    ca = analyze(model)
    if ca.conductor <= 1:
        raise ValueError("conductor 1 cannot occur over Q; ratio undefined")
    return ca


def szpiro_ratio(model: WeierstrassModel) -> float:
    """log(naive height) / log(conductor), as a float.

    The logs of exact integers are accurate to machine precision; for exact
    decisions against a rational threshold use exceeds() instead.
    """
    ca = _analyze_for_ratio(model)
    return math.log(ca.height) / math.log(ca.conductor)


def exceeds(model: WeierstrassModel, bound: SzpiroExponent) -> bool:
    """Exact test of szpiro_ratio(model) > p/q, as height^q > N^p."""
    ca = _analyze_for_ratio(model)
    return ca.height**bound.q > ca.conductor**bound.p


# ---------------------------------------------------------------------------
# Substitution patterns: how one rational argument x stands in for a whole
# parameter tuple, matching the single-variable reductions used by the
# homogeneity identities.


def _pattern_args(name: str, x):
    if name == "C2":
        return (1, 1, x)
    if name == "C3":
        return (1, 1, 1, x)
    if name == "C4":
        return (1, 1, x)
    if name == "C2xC2":
        return (1, x, 1)
    return (1, x)


def _full_to_model_args(name: str, full):
    if name == "C3":
        c, d, e, b = full
        return (c**3 * d * d * e, b)
    if name == "C4":
        c, d, b = full
        return (c * c * d, b)
    return full


def _alpha_beta_at(name: str, full):
    """c4 and c6 of the family model at full (delta-order) arguments."""
    margs = _full_to_model_args(name, full)
    inv = compute_invariants(WeierstrassModel(*model_coefficients(name, margs)))
    return inv.c4, inv.c6


# ---------------------------------------------------------------------------
# The nonnegative gap functions phi_{T,u}.


@dataclass(frozen=True)
class PhiSpec:
    """One (family, u) branch of the height-vs-bound gap function."""

    family: FamilyId
    u_key: object  # int, or "c"/"2c" for C4, "c2d" for C3
    prefactor: Fraction
    exponent: SzpiroExponent

    @property
    def label(self) -> str:
        return f"phi[{self.family.name}, u={self.u_key}]"


def phi_spec(name: str, u_key) -> PhiSpec:
    fam = FAMILIES[name]
    if name == "C3_0":
        raise ValueError("C3_0 has no phi branch; its bound is checked directly")
    if u_key not in fam.delta_scales:
        raise ValueError(f"u = {u_key} is not admissible for {name}")
    if name == "C3":
        pre = Fraction(1)  # at (1,1,1,x) the scaling c^2 d is 1
    elif name == "C4":
        pre = Fraction(1) if u_key == "c" else Fraction(1, 2**12)
    else:
        pre = Fraction(1, int(u_key) ** 12)
    return PhiSpec(fam, u_key, pre, szpiro_exponent(name))


def all_phi_specs() -> list[PhiSpec]:
    """Every (T, u) branch, both C4 branches included."""
    out = []
    for name, fam in FAMILIES.items():
        if name == "C3_0":
            continue
        for key in fam.delta_scales:
            out.append(phi_spec(name, key))
    return out


@dataclass(frozen=True)
class PhiValue:
    x: Fraction
    sign: int  # exact sign of phi at x
    approx: float
    exact: Fraction | None  # rational value when l is an integer


def _safe_float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_power(base: Fraction, p: int, q: int) -> float:
    if base == 0:
        return 0.0
    try:
        logv = math.log(base.numerator) - math.log(base.denominator)
    except ValueError:
        return math.inf
    try:
        return math.exp(logv * p / q)
    except OverflowError:
        return math.inf


def _integral(poly, what: str, name: str) -> Poly:
    """poly (or a constant) as a Poly with int coefficients; a non-integral
    coefficient raises instead of being truncated."""
    coeffs = poly.coeffs if isinstance(poly, Poly) else (poly,)
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise CertificateError(
                f"{what} of {name} along its phi pattern has the non-integral "
                f"coefficient {c}"
            )
        out.append(c.numerator)
    return Poly(out)


@lru_cache(maxsize=1024)
def _phi_polys(name: str, den: int) -> tuple[Poly, Poly, Poly]:
    """alpha(X), beta(X) and delta_base(X) of a family along its pattern,
    homogenized at den: coefficient i is multiplied by den^(deg - i), so
    evaluating the result at k gives den^deg * poly(k/den) in integers.

    The polynomials are derived once per family by pushing X through the
    model and invariant formulas; compute_invariants then checks
    c4^3 - c6^2 = 1728*delta as an identity of polynomials, which implies
    it at every x.
    """
    if den != 1:
        return tuple(
            Poly([c * den ** (poly.degree - i) for i, c in enumerate(poly.coeffs)])
            for poly in _phi_polys(name, 1)
        )
    full = _pattern_args(name, X)
    alpha, beta = _alpha_beta_at(name, full)
    return (
        _integral(alpha, "alpha", name),
        _integral(beta, "beta", name),
        _integral(delta_base(name, full), "delta_base", name),
    )


def phi_eval(spec: PhiSpec, x) -> PhiValue:
    """Exact sign (and float size) of phi at the rational x.

    phi(x) = prefactor * max(|alpha(x)|^3, beta(x)^2) - |delta_u(x)|^l,
    decided by comparing q-th powers.  With x = k/den in lowest terms,
    big = prefactor * M / den^E and |delta_u| = |scale * D| / den^deg(delta)
    for the integers M and D of the homogenized polynomials, so the
    comparison is one between integers.
    """
    x = Fraction(x)
    k, den = x.numerator, x.denominator
    alpha, beta, dbase = _phi_polys(spec.family.name, den)
    da, db = alpha.degree, beta.degree
    e = max(3 * da, 2 * db)
    m = max(abs(alpha(k)) ** 3 * den ** (e - 3 * da), beta(k) ** 2 * den ** (e - 2 * db))
    pre = spec.prefactor
    scale = spec.family.delta_scales[spec.u_key]
    big_num, big_den = pre.numerator * m, pre.denominator * den**e
    del_num = abs(scale.numerator * dbase(k))
    del_den = scale.denominator * den**dbase.degree
    p, q = spec.exponent.p, spec.exponent.q
    lhs = big_num**q * del_den**p
    rhs = del_num**p * big_den**q
    sign = (lhs > rhs) - (lhs < rhs)
    exact = Fraction(lhs - rhs, big_den * del_den**p) if q == 1 else None
    approx = _safe_float(Fraction(big_num, big_den)) - _float_power(
        Fraction(del_num, del_den), p, q
    )
    return PhiValue(x, sign, approx, exact)


@dataclass(frozen=True)
class PhiScanResult:
    spec: PhiSpec
    denominator: int
    x_range: Fraction
    points: int
    violations: tuple[Fraction, ...]  # x with phi(x) < 0 (expected empty)
    zeros: tuple[Fraction, ...]  # x with phi(x) == 0
    min_approx: float
    argmin: Fraction
    min_exact: Fraction | None


def _scan_chunk(spec: PhiSpec, denominator: int, k_lo: int, k_hi: int):
    violations = []
    zeros = []
    best = (math.inf, None, None)
    for k in range(k_lo, k_hi):
        x = Fraction(k, denominator)
        val = phi_eval(spec, x)
        if val.sign < 0:
            violations.append(x)
        elif val.sign == 0:
            zeros.append(x)
        key = val.exact if val.exact is not None else val.approx
        if best[1] is None or key < best[0]:
            best = (key, x, val.exact)
    return violations, zeros, best


def phi_scan(
    spec: PhiSpec,
    denominator: int = 64,
    x_range=20,
    jobs: int = 1,
) -> PhiScanResult:
    """Exact-sign evaluation of phi on the grid {k/denominator : |x| <= range}.

    The grid is split into index chunks when jobs > 1 and the chunk results
    are merged in index order, so the outcome never depends on scheduling.
    """
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    x_range = Fraction(x_range)
    if x_range < 0:
        raise ValueError("x_range must be >= 0")
    k_max = int(x_range * denominator)
    k_lo, k_hi = -k_max, k_max + 1
    total = k_hi - k_lo
    if jobs > 1 and total > 256:
        from concurrent.futures import ProcessPoolExecutor

        bounds_list = []
        step = -(-total // jobs)
        start = k_lo
        while start < k_hi:
            bounds_list.append((start, min(start + step, k_hi)))
            start += step
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(
                pool.map(
                    _scan_chunk_star,
                    [(spec, denominator, lo, hi) for lo, hi in bounds_list],
                )
            )
    else:
        parts = [_scan_chunk(spec, denominator, k_lo, k_hi)]

    violations: list[Fraction] = []
    zeros: list[Fraction] = []
    best = (math.inf, None, None)
    for viol, zer, chunk_best in parts:
        violations.extend(viol)
        zeros.extend(zer)
        if chunk_best[1] is not None and (best[1] is None or chunk_best[0] < best[0]):
            best = chunk_best
    return PhiScanResult(
        spec,
        denominator,
        x_range,
        total,
        tuple(violations),
        tuple(zeros),
        best[0] if best[2] is None else _safe_float(best[2]),
        best[1],
        best[2],
    )


def _scan_chunk_star(args):
    return _scan_chunk(*args)


# ---------------------------------------------------------------------------
# Homogeneity identities: the invariants and the bound polynomial scale by
# fixed powers of the leading parameters under (params) -> (1, ..., x).


def _homogeneity_data(instance: FamilyInstance):
    """(x, alpha scale, beta scale, delta scale) for the instance."""
    name = instance.family.name
    m = instance.family.m
    l = instance.family.l
    if name == "C2":
        a, b, d = instance.params
        x = Fraction(b * b * d, a * a)
        base = Fraction(a)
        dbase = Fraction(a)
    elif name == "C2xC2":
        a, b, d = instance.params
        x = Fraction(b, a)
        base = Fraction(a * d)
        dbase = Fraction(a * d)
    elif name == "C3":
        c, d, e, b = instance.delta_args
        a = c**3 * d * d * e
        x = Fraction(b, a)
        base = Fraction(a)
        dbase = Fraction(c * d * e)
    elif name == "C4":
        c, d, b = instance.delta_args
        a = c * c * d
        x = Fraction(b, a)
        base = Fraction(a)
        dbase = Fraction(c * d)
    else:
        a, b = instance.params
        x = Fraction(b, a)
        base = Fraction(a)
        dbase = Fraction(a)
    m_over_l = Fraction(m) / l
    if m_over_l.denominator != 1:
        raise CertificateError(
            f"{name}: weight m = {m} is not an integer multiple of l = {l}, "
            "so delta has no integral homogeneity scale"
        )
    return x, base ** (m // 3), base ** (m // 2), dbase ** int(m_over_l)


def homogeneity_check(instance: FamilyInstance) -> bool:
    """Verify all three scaling identities exactly in rational arithmetic."""
    name = instance.family.name
    if name == "C3_0":
        raise ValueError("C3_0 carries no homogeneity identities")
    if instance.params[0] == 0:
        raise ValueError("leading parameter must be nonzero")
    x, s_alpha, s_beta, s_delta = _homogeneity_data(instance)
    full_sub = _pattern_args(name, x)
    alpha_sub, beta_sub = _alpha_beta_at(name, full_sub)
    delta_sub = Fraction(delta_base(name, full_sub))

    alpha, beta = _alpha_beta_at(name, instance.delta_args)
    delta_val = Fraction(delta_base(name, instance.delta_args))
    return (
        Fraction(alpha) == s_alpha * alpha_sub
        and Fraction(beta) == s_beta * beta_sub
        and delta_val == s_delta * delta_sub
    )


def verify_height_bound(delta: int, height: int, exp: SzpiroExponent) -> bool:
    """Exact check |delta_{T,u}|^l < u^-12 max(|alpha^3|, beta^2), l = p/q.

    The minimal model is the family model scaled by u, so the right-hand
    side is the minimal model's height; the check is |delta|^p < height^q.
    For C3_0, delta is 27 a^2.
    """
    return abs(delta) ** exp.p < height**exp.q


# ---------------------------------------------------------------------------
# Tail coverage for the phi grid scans: beyond the scanned window the
# comparison is settled by degrees and leading coefficients.


@dataclass(frozen=True)
class DominanceReport:
    spec: PhiSpec
    max_side_degree: int
    bound_side_degree: Fraction  # l * deg(delta)
    max_side_leading: Fraction  # prefactor included
    bound_side_leading: Fraction  # |leading of delta_u|
    dominant: bool


def leading_dominance(spec: PhiSpec) -> DominanceReport:
    """Compare degrees and leading coefficients of the two sides of phi.

    The max side dominates the tail iff its x-degree beats l*deg(delta), or
    the degrees tie and its leading constant wins the exact q-th-power
    comparison.  Grid range plus this check is the documented
    nonnegativity verification scheme.
    """
    alpha, beta, dbase = _phi_polys(spec.family.name, 1)
    deg_max = max(3 * alpha.degree, 2 * beta.degree)
    leads = []
    if 3 * alpha.degree == deg_max:
        leads.append(abs(Fraction(alpha.leading)) ** 3)
    if 2 * beta.degree == deg_max:
        leads.append(Fraction(beta.leading) ** 2)
    lead_max = spec.prefactor * max(leads)

    p, q = spec.exponent.p, spec.exponent.q
    deg_bound = Fraction(p, q) * dbase.degree
    lead_bound = abs(spec.family.delta_scales[spec.u_key] * Fraction(dbase.leading))
    if deg_max > deg_bound:
        dominant = True
    elif deg_max < deg_bound:
        dominant = False
    else:
        dominant = lead_max**q > lead_bound**p
    return DominanceReport(spec, deg_max, deg_bound, lead_max, lead_bound, dominant)
