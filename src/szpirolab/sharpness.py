"""Sharpness families: one curve sequence per torsion structure whose
Szpiro ratio descends to the sharp bound along squarefree conductor values.

The height and conductor-radical polynomials are stored as literal factored
integer data and then cross-validated against the minimal-model pipeline,
so a transcription slip and an implementation slip cannot mask each other.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from szpirolab.bounds import verify_height_bound
from szpirolab.families import FAMILIES, ValidationError
from szpirolab.intarith import FactorBudgetError, is_squarefree, radical
from szpirolab.poly import evaluate
from szpirolab.reduction import analyze, height_of_minimal, minimal_model, sigma_m
from szpirolab.weierstrass import WeierstrassModel

__all__ = [
    "SHARP_FAMILIES",
    "SharpFamilySpec",
    "SharpnessRecord",
    "ConsistencyReport",
    "build_FT",
    "check_scan_args",
    "convergence_scan",
    "degree_limit_check",
    "fit_intercept",
    "verify_sharp_consistency",
]


class SharpFamilySpec(NamedTuple):
    """Static data for one sharpness sequence F_T(n)."""

    name: str
    model: Callable  # model arguments -> (a1, a2, a3, a4, a6)
    l: Fraction  # the sharp ratio bound the sequence approaches
    args: tuple  # the model arguments as coefficient tuples in n
    rescaling: tuple  # coefficients in n of w, the minimal-model rescaling, up to sign
    height_factors: tuple  # ((coeffs, exponent), ...): H = prod |P(n)|^e
    f_factors: tuple  # (coeffs, ...): f = prod P(n), signed

    def w(self, n: int) -> int:
        return abs(evaluate(self.rescaling, n))

    def height_value(self, n: int) -> int:
        """H_T(n), the stored published height.  verify_sharp_consistency
        refutes it for C2xC8 at odd n, where it is too large by 2^24 (the
        true rescaling there is 256, not the stored w = 64)."""
        return math.prod(abs(evaluate(c, n)) ** e for c, e in self.height_factors)

    def f_value(self, n: int) -> int:
        return math.prod(self.f_factor_values(n))

    def f_factor_values(self, n: int) -> list[int]:
        return [evaluate(coeffs, n) for coeffs in self.f_factors]

    @property
    def height_degree(self) -> int:
        return sum((len(c) - 1) * e for c, e in self.height_factors)

    @property
    def f_degree(self) -> int:
        return sum(len(c) - 1 for c in self.f_factors)


def _m_C1(a):
    return (0, 0, 1, a, 0)


def _row(name: str, args, rescaling, height_factors, f_factors) -> SharpFamilySpec:
    """The sequence of a torsion family, with the family's model and bound."""
    fam = FAMILIES[name]
    return SharpFamilySpec(
        name, fam.model, fam.l, args, rescaling, height_factors, f_factors
    )


SHARP_FAMILIES: dict[str, SharpFamilySpec] = {
    s.name: s
    for s in (
        SharpFamilySpec(
            "C1", _m_C1, Fraction(1), ((1, 3),), (1,),
            (((48, 144), 3),),
            ((7, 12), (13, 60, 144)),
        ),
        _row(
            "C2", ((-1,), (8,), (0, 1)), (2,),
            (((1, 192), 3),),
            ((0, 1), (-1, 64)),
        ),
        _row(
            "C3", ((1,), (0, 1)), (1,),
            (((1, -36, 216), 2),),
            ((0, 1), (-1, 27)),
        ),
        _row(
            "C4", ((0, 0, 256), (-1, 0, 4)), (0, 32),
            (((1, 0, -264, 0, 5136), 3),),
            ((0, 1), (-1, 2), (1, 2), (-1, 0, 20)),
        ),
        _row(
            "C5", ((1, 2), (0, 1)), (1,),
            (((1, 26, 206, 526, 421), 2), ((1, 4, 5), 2)),
            ((0, 1), (1, 2), (1, 15, 25)),
        ),
        _row(
            "C6", ((1, 3), (0, 1)), (1,),
            (((1, 18, 84, 120), 3), ((1, 6), 3)),
            ((0, 1), (1, 12), (1, 3), (1, 4)),
        ),
        _row(
            "C7", ((1, 3), (0, 1)), (1,),
            (
                (
                    (1, 42, 777, 8414, 59682, 293286, 1027173, 2590434,
                     4680102, 5920782, 4989285, 2519622, 577801),
                    2,
                ),
            ),
            ((0, 1), (1, 2), (1, 3), (1, 14, 49, 49)),
        ),
        _row(
            "C8", ((1, 4), (0, 1)), (1,),
            (
                ((-1, -16, -96, -224, 184, 2272, 5424, 5984, 2696), 2),
                ((-1, -8, -16, 16, 56), 2),
            ),
            ((0, 1), (1, 4), (1, 2), (1, 3), (-1, 0, 8)),
        ),
        _row(
            "C9", ((1, 2), (0, 1)), (1,),
            (
                (
                    (1, 36, 594, 5994, 41607, 211626, 819423, 2474496,
                     5916807, 11299356, 17291556, 21173562, 20613420,
                     15760494, 9272961, 4061502, 1250883, 242514, 22329),
                    2,
                ),
            ),
            ((0, 1), (1, 1), (1, 2), (1, 3, 3), (1, 9, 18, 9)),
        ),
        _row(
            "C10", ((1, 4), (0, 1)), (1,),
            (
                (
                    (1, 40, 720, 7720, 54960, 273840, 979520, 2534880,
                     4710480, 6129200, 5299680, 2733440, 635920),
                    3,
                ),
            ),
            ((0, 1), (1, 2), (1, 4), (1, 3), (1, 10, 20), (1, 5, 5)),
        ),
        _row(
            "C12", ((1, 6), (0, 1)), (1,),
            (
                (
                    (1, 54, 1332, 19836, 198498, 1405032, 7205496, 26936592,
                     72709428, 137824296, 173452752, 129338064, 42787896),
                    3,
                ),
                ((1, 18, 120, 348, 366), 3),
            ),
            ((0, 1), (1, 6), (1, 4), (1, 5), (1, 6, 6), (1, 10, 26), (1, 9, 21)),
        ),
        _row(
            "C2xC2", ((0, 16), (1, 4), (1,)), (2,),
            (((1, -8, 208), 3),),
            ((0, 1), (1, 4), (-1, 12)),
        ),
        _row(
            "C2xC4", ((1, 2), (0, 1)), (1,),
            (((1, 24, 200, 672, 976), 3),),
            ((0, 1), (1, 2), (1, 10), (1, 6)),
        ),
        _row(
            "C2xC6", ((3, 8), (-1,)), (16,),
            (
                ((1333, 21078, 138720, 486360, 958080, 1005408, 439104), 3),
                ((13, 66, 84), 3),
            ),
            ((1, 3), (5, 12), (7, 18), (1, 2), (2, 5), (3, 8)),
        ),
        _row(
            "C2xC8", ((0, 4), (1, 1)), (64,),
            (
                (
                    (1, 32, 472, 4256, 26220, 116768, 387560, 973088,
                     1853894, 2658400, 2812328, 2129632, 1140780, 511840,
                     301720, 180064, 51361),
                    3,
                ),
            ),
            ((0, 1), (1, 1), (1, 2), (1, 3), (-1, -2, 1), (1, 6, 7), (1, 4, 5)),
        ),
    )
}


def sharp_family(T: str) -> SharpFamilySpec:
    try:
        return SHARP_FAMILIES[T]
    except KeyError:
        raise ValidationError(
            f"unknown sharpness family {T!r}; valid: {', '.join(SHARP_FAMILIES)}"
        ) from None


def build_FT(T: str, n: int) -> WeierstrassModel:
    """The n-th member of the sharpness sequence for T.

    disc(F_T(n)) and f(n) have the same radical as polynomials in n, so the
    model is singular exactly where f(n) = 0.
    """
    spec = sharp_family(T)
    if spec.f_value(n) == 0:
        raise ValidationError(f"F_{T}({n}) is degenerate (discriminant zero)")
    return WeierstrassModel(*spec.model(*(evaluate(c, n) for c in spec.args)))


def degree_limit_check(T: str) -> bool:
    """deg H / deg f must equal the sharp exponent l exactly."""
    spec = sharp_family(T)
    return Fraction(spec.height_degree, spec.f_degree) == spec.l


class ConsistencyReport(NamedTuple):
    T: str
    n: int
    w: int
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def verify_sharp_consistency(T: str, n: int) -> ConsistencyReport:
    """Cross-validate the stored table data against the exact pipeline.

    Checks, for |n| > 1: the model-to-minimal discriminant ratio is w^12;
    the minimal naive height equals H(n); rad(delta_min) = rad(f(n));
    the curve is semistable everywhere; and N = |f(n)| when f(n) is
    squarefree.  Each failure becomes a named finding.
    """
    if abs(n) <= 1:
        raise ValidationError("consistency checks require |n| > 1")
    spec = sharp_family(T)
    findings: list[str] = []
    ca = analyze(build_FT(T, n))

    # minimal_model certifies delta = u^12 * delta_min, so the ratio is u^12.
    w_expected = spec.w(n)
    ratio = ca.mm.scaling_u**12
    if ratio != w_expected**12:
        findings.append(
            f"discriminant ratio {ratio} is not w^12 = {w_expected}^12 for F_{T}({n})"
        )

    H_expected = spec.height_value(n)
    height = ca.height
    if height != H_expected:
        findings.append(
            f"naive height {height} != table value {H_expected} for F_{T}({n})"
        )

    values = spec.f_factor_values(n)
    f = math.prod(values)
    rad_min, rad_f = math.prod(p for p, _ in ca.factorization), radical(f)
    if rad_min != rad_f:
        findings.append(
            f"rad(delta_min) != rad(f(n)) for F_{T}({n}): {rad_min} vs {rad_f}"
        )

    bad = [d.p for d in ca.local if not d.semistable]
    if bad:
        findings.append(f"F_{T}({n}) has additive reduction at {bad}")

    if _f_is_squarefree(values) and ca.conductor != abs(f):
        findings.append(
            f"conductor {ca.conductor} != |f(n)| = {abs(f)} "
            f"for squarefree f, F_{T}({n})"
        )

    return ConsistencyReport(T, n, w_expected, tuple(findings))


def _f_is_squarefree(values: list[int]) -> bool:
    """Squarefree test of f(n) through its factor values at n.

    The product is squarefree iff the factor values are pairwise coprime
    and each is individually squarefree; testing the small pieces avoids
    ever factoring the full product.  is_squarefree decides a value by one
    gcd with the product of the primes up to 10^4 when a square of such a
    prime divides it or the rest is below 10^12, and factors it otherwise;
    so only a value whose rest is 10^12 or more can raise FactorBudgetError.
    The values are tested in order: an earlier value that is not squarefree
    returns False before a later one is factored.
    """
    if any(v == 0 for v in values):
        return False
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if math.gcd(values[i], values[j]) != 1:
                return False
    return all(abs(v) == 1 or is_squarefree(v) for v in values)


class SharpnessRecord(NamedTuple):
    T: str
    n: int
    model: WeierstrassModel
    height: int
    f_value: int  # squarefree, so the conductor is |f_value|
    sigma_m: float

    def as_dict(self) -> dict:
        return {
            "T": self.T,
            "n": self.n,
            "model": [str(a) for a in self.model.coefficients()],
            "height": str(self.height),
            "f": str(self.f_value),
            "squarefree": True,
            "conductor": str(abs(self.f_value)),
            "sigma_m": self.sigma_m,
        }


def fit_intercept(points: list[tuple[float, float]]) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line through (x, y) points."""
    n = len(points)
    if n < 2:
        raise ValidationError("need at least two points to fit")
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValidationError("degenerate abscissae")
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return intercept, slope


class ConvergenceScan(NamedTuple):
    T: str
    records: tuple[SharpnessRecord, ...]
    intercept: float | None
    slope: float | None
    strictly_above: bool  # sigma_m > l for every record, checked exactly
    budget_skipped: tuple[int, ...]  # n whose factoring exceeded the budget
    warning: str | None

    @property
    def sieve_hits(self) -> int:
        return len(self.records)


def _sample_values(n_min: int, n_max: int, samples: int | None) -> range | list[int]:
    if samples is None or samples >= n_max - n_min + 1:
        return range(n_min, n_max + 1)
    # Log-spaced, deduplicated, deterministic.
    lo, hi = math.log(n_min), math.log(n_max)
    out = sorted(
        {round(math.exp(lo + (hi - lo) * i / (samples - 1))) for i in range(samples)}
    )
    return [n for n in out if n_min <= n <= n_max]


def check_scan_args(n_min: int, n_max: int, samples: int | None) -> None:
    """The convergence_scan rules on the range and samples; a front end
    calls it before it writes anything."""
    if n_max < 10:
        raise ValidationError("n_max must be >= 10")
    if n_min < 2:
        raise ValidationError("n_min must be >= 2")
    if n_min > n_max:
        raise ValidationError("n_min must be <= n_max")
    if samples is not None and samples < 2:
        raise ValidationError("samples must be >= 2")


def convergence_scan(
    T: str,
    n_max: int,
    n_min: int = 2,
    samples: int | None = None,
) -> ConvergenceScan:
    """Ratio records along the squarefree set, plus the 1/log fit.

    The height comes from the actual minimal model (not the stored table,
    which is cross-checked separately) and the conductor is |f(n)|, valid
    on the squarefree set where the curve is semistable.  sigma_m is fitted
    against 1/log|f(n)|; the intercept estimates the limiting ratio, since
    the convergence itself is logarithmic and never lands.  With samples
    set, candidate n are log-spaced across [n_min, n_max]; membership and
    all comparisons stay exact.  An unknown T and the arguments
    check_scan_args rejects raise ValidationError.
    """
    check_scan_args(n_min, n_max, samples)
    spec = sharp_family(T)
    l = spec.l
    records: list[SharpnessRecord] = []
    strictly_above = True
    budget_skipped: list[int] = []
    for n in _sample_values(n_min, n_max, samples):
        values = spec.f_factor_values(n)
        try:
            if not _f_is_squarefree(values):
                continue
            model = build_FT(T, n)
            H = height_of_minimal(minimal_model(model))
        except FactorBudgetError:
            budget_skipped.append(n)
            continue
        f = math.prod(values)
        if not verify_height_bound(f, H, l):
            strictly_above = False
        records.append(SharpnessRecord(T, n, model, H, f, sigma_m(H, abs(f))))
    warning = None
    intercept = slope = None
    if len(records) < 10:
        warning = f"only {len(records)} sieve hits in range; fit skipped"
    else:
        pts = [(1.0 / math.log(abs(r.f_value)), r.sigma_m) for r in records]
        intercept, slope = fit_intercept(pts)
    return ConvergenceScan(
        T,
        tuple(records),
        intercept,
        slope,
        strictly_above,
        tuple(budget_skipped),
        warning,
    )
