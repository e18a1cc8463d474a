"""Heights, Szpiro ratios, and the inequality machinery behind the bounds.

Every verification path is exact: the fractional exponent l = p/q is
cleared by raising both sides to the q-th power and comparing integers or
rationals, so no check ever depends on floating-point rounding.  Floats
appear only in reported ratio values.
"""

from __future__ import annotations

import math
import os
import pickle
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple, NoReturn

from szpirolab.families import (
    FAMILIES,
    FamilyId,
    FamilyInstance,
    ValidationError,
    build_model,
    family,
    u_value,
)
from szpirolab.poly import Poly, X, evaluate
from szpirolab.reduction import analyze, sigma_m
from szpirolab.weierstrass import (
    CertificateError,
    WeierstrassModel,
    compute_invariants,
)

__all__ = [
    "PHI_FAMILIES",
    "PhiScanResult",
    "PhiSpec",
    "PhiValue",
    "WorkerError",
    "all_phi_specs",
    "exceeds",
    "homogeneity_check",
    "leading_dominance",
    "phi_eval",
    "phi_scan",
    "phi_scans",
    "phi_spec",
    "szpiro_ratio",
    "verify_height_bound",
]


def szpiro_ratio(model: WeierstrassModel) -> float:
    """sigma_m of the curve: log(naive height) / log(conductor), as a
    float; for exact decisions against a rational threshold use exceeds()."""
    ca = analyze(model)  # a singular model raises SingularModelError here
    return sigma_m(ca.height, ca.conductor)


def exceeds(model: WeierstrassModel, bound: Fraction) -> bool:
    """Exact test of szpiro_ratio(model) > p/q, as height^q > N^p."""
    ca = analyze(model)
    return verify_height_bound(ca.conductor, ca.height, bound)


# ---------------------------------------------------------------------------
# Substitution patterns: how one variable x stands in for a whole parameter
# tuple, matching the single-variable reductions used by the homogeneity
# identities.  The library pushes only the indeterminate X through them.


def _pattern(fam: FamilyId, x) -> FamilyInstance:
    """x at the parameter of exponent 1 in FamilyId.x_exps and 1 elsewhere; a
    family with a power split gets the all-ones decomposition of a = 1."""
    params = tuple(x if e == 1 else 1 for e in fam.x_exps)
    return FamilyInstance(fam, params, fam.decompose(1))


def _forms_at(instance: FamilyInstance):
    """(alpha, beta, delta_T): c4 and c6 of the family model, and the
    base conductor-bound polynomial, at the instance."""
    inv = compute_invariants(build_model(instance))
    return inv.c4, inv.c6, instance.family.delta(*instance.delta_args)


# ---------------------------------------------------------------------------
# The nonnegative gap functions phi_{T,u}.

# The families with a homogeneity weight: each has one phi branch per u.
PHI_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.m is not None)


class PhiSpec(NamedTuple):
    """One (family, u) branch of the height-vs-bound gap function."""

    family: FamilyId
    u_key: object  # a key of family.delta_scales
    prefactor: Fraction

    @property
    def label(self) -> str:
        return f"phi[{self.family.name}, u={self.u_key}]"


def phi_spec(name: str, u_key) -> PhiSpec:
    fam = family(name)  # an unknown name raises ValidationError
    if name not in PHI_FAMILIES:
        raise ValidationError(f"{name} has no phi branch; its bound is checked directly")
    if u_key not in fam.delta_scales:
        raise ValidationError(f"u = {u_key} is not admissible for {name}")
    pre = Fraction(1, u_value(u_key, fam.decompose(1)) ** 12)
    return PhiSpec(fam, u_key, pre)


def all_phi_specs() -> list[PhiSpec]:
    """Every (T, u) branch, both C4 branches included."""
    return [
        phi_spec(name, key) for name in PHI_FAMILIES for key in FAMILIES[name].delta_scales
    ]


class PhiValue(NamedTuple):
    x: Fraction
    sign: int  # exact sign of phi at x
    approx: float
    exact: Fraction | None  # rational value when l is an integer


def _integral(poly: Poly, what: str, name: str) -> Poly:
    """poly as a Poly with int coefficients; a non-integral coefficient
    raises instead of being truncated."""
    out = []
    for c in poly.coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise CertificateError(
                f"{what} of {name} along its phi pattern has the non-integral "
                f"coefficient {c}"
            )
        out.append(c.numerator)
    return Poly(out)


@lru_cache(maxsize=None)
def _phi_polys(name: str) -> tuple[Poly, Poly, Poly]:
    """alpha(X), beta(X) and delta_T(X) of a family along its pattern, with
    int coefficients.

    The polynomials are derived once per family by pushing X through the
    model and invariant formulas; compute_invariants then checks
    c4^3 - c6^2 = 1728*delta as an identity of polynomials, which implies
    it at every x.
    """
    alpha, beta, dbase = _forms_at(_pattern(FAMILIES[name], X))
    return (
        _integral(alpha, "alpha", name),
        _integral(beta, "beta", name),
        _integral(dbase, "delta_T", name),
    )


def _to_float(num: int, den: int) -> float:
    """num/den for den > 0, correctly rounded (as float(Fraction(num, den))
    is); a value beyond the float range gives +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _stepped(coeffs, k: int):
    """The values of the polynomial with coefficients coeffs (low to high)
    at k, k + 1, k + 2, ..., without end, by forward differences.

    With n = max(deg, 0), the table [P(k), dP(k), ..., d^n P(k)] comes from
    n + 1 Horner evaluations; d^n P is constant, and each lower difference
    is the running sum of the one above it, started at its value at k.  So
    each step costs n integer additions."""
    values = [evaluate(coeffs, k + i) for i in range(max(len(coeffs), 1))]
    table = []
    while values:
        table.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    steps = repeat(table.pop())
    for start in reversed(table):
        steps = accumulate(steps, initial=start)
    return steps


class _PhiKernel:
    """phi of one branch on the grid {k/den : k an integer}, in integers.

    Coefficient i of alpha, beta and delta_T is multiplied by den^(deg - i)
    once, so that at x = k/den, with e = max(3 deg alpha, 2 deg beta),
    big = prefactor * max(|alpha|^3, beta^2) = big_num / big_den and
    |delta_u| = del_num / del_den, where big_den and del_den are the same at
    every k.  With l = p/q, phi has the sign of the integer
    gap = big_num^q * del_den^p - del_num^p * big_den^q, and when q == 1,
    phi = gap / (big_den * del_den^p).  When q > 1 only the sign of gap
    is needed, and sign() decides it.
    """

    __slots__ = (
        "den", "alpha", "beta", "dbase", "pad_a", "pad_b", "pre_num", "scale_num",
        "p", "q", "big_den", "del_den", "big_den_q", "del_den_p",
    )

    def __init__(self, spec: PhiSpec, den: int):
        polys = _phi_polys(spec.family.name)
        self.den = den
        self.alpha, self.beta, self.dbase = (
            tuple(c * den ** (poly.degree - i) for i, c in enumerate(poly.coeffs))
            for poly in polys
        )
        da, db, dd = (poly.degree for poly in polys)
        e = max(3 * da, 2 * db)
        self.pad_a, self.pad_b = den ** (e - 3 * da), den ** (e - 2 * db)
        scale = spec.family.delta_scales[spec.u_key]
        self.pre_num, self.scale_num = spec.prefactor.numerator, scale.numerator
        self.p, self.q = spec.family.l.numerator, spec.family.l.denominator
        self.big_den = spec.prefactor.denominator * den**e
        self.del_den = scale.denominator * den**dd
        self.big_den_q = self.big_den**self.q
        self.del_den_p = self.del_den**self.p

    def terms(self, k: int) -> tuple[int, int]:
        """(big_num, del_num) at x = k/den."""
        return self.combine(
            evaluate(self.alpha, k), evaluate(self.beta, k), evaluate(self.dbase, k)
        )

    def combine(self, a: int, b: int, d: int) -> tuple[int, int]:
        """(big_num, del_num) from the homogenized alpha, beta and delta_T."""
        m = max(abs(a) ** 3 * self.pad_a, b * b * self.pad_b)
        return self.pre_num * m, abs(self.scale_num * d)

    def gap(self, big_num: int, del_num: int) -> int:
        return big_num**self.q * self.del_den_p - del_num**self.p * self.big_den_q

    def sign(self, big_num: int, del_num: int) -> int:
        """The sign of gap(big_num, del_num), from bit lengths where they
        settle it.

        With x = big_num, y = del_num, D = del_den^p and B = big_den^q,
        gap = x^q D - y^p B, and 2^(len(v) - 1) <= v < 2^len(v) for v >= 1.
        So x^q D < 2^(q len(x) + len(D)) and y^p B >= 2^(p (len(y) - 1) +
        len(B) - 1), and q len(x) + len(D) <= p (len(y) - 1) + len(B) - 1
        proves gap < 0; the mirror inequality p len(y) + len(B) <=
        q (len(x) - 1) + len(D) - 1 proves gap > 0.  In any other case, and
        when x or y is 0, the exact gap decides.
        """
        if big_num and del_num:
            p, q = self.p, self.q
            lx, ly = big_num.bit_length(), del_num.bit_length()
            ld, lb = self.del_den_p.bit_length(), self.big_den_q.bit_length()
            if q * lx + ld <= p * (ly - 1) + lb - 1:
                return -1
            if p * ly + lb <= q * (lx - 1) + ld - 1:
                return 1
        gap = self.gap(big_num, del_num)
        return (gap > 0) - (gap < 0)

    def approx(self, big_num: int, del_num: int) -> float:
        """big - |delta_u|^l in floats.  The power comes from the logs of
        del_num/del_den in lowest terms, so it depends on x alone and not
        on den.  When both terms are beyond the float range, it is +-inf
        (or 0.0) by the exact sign."""
        big = _to_float(big_num, self.big_den)
        if not del_num:
            return big
        g = math.gcd(del_num, self.del_den)
        logv = math.log(del_num // g) - math.log(self.del_den // g)
        try:
            return big - math.exp(logv * self.p / self.q)
        except OverflowError:
            if big < math.inf:
                return -math.inf
            sign = self.sign(big_num, del_num)
            return sign * math.inf if sign else 0.0

    def value(self, k: int) -> PhiValue:
        big_num, del_num = self.terms(k)
        gap = self.gap(big_num, del_num)
        exact = Fraction(gap, self.big_den * self.del_den_p) if self.q == 1 else None
        sign = (gap > 0) - (gap < 0)
        return PhiValue(Fraction(k, self.den), sign, self.approx(big_num, del_num), exact)


def phi_eval(spec: PhiSpec, x) -> PhiValue:
    """Exact sign (and float size) of phi at the rational x.

    phi(x) = prefactor * max(|alpha(x)|^3, beta(x)^2) - |delta_u(x)|^l,
    decided by comparing q-th powers of integers: a one-point grid of
    the kernel phi_scan runs, built at the denominator of x.
    """
    x = Fraction(x)
    return _PhiKernel(spec, x.denominator).value(x.numerator)


# A phi grid goes to the pool only from this many points per branch.
# Serial vs pooled wall time with fan_out's forked workers (the pool
# forced), on a 2-core x86 VM where two CPU-bound processes overlapped (a
# two-process burn took 0.40 to 0.71 of its serial time), the medians of
# 7 fresh-interpreter pairs in each of two rounds: phi --T all (28
# branches) at 1,281 points 0.10-0.19 vs 0.07-0.11 s, 2,561 points
# 0.19-0.38 vs 0.13-0.19 s, 5,121 points 0.44-0.75 vs 0.28-0.40 s; one
# branch (C2xC4, u = 2) at 4,097 points 7-8 vs 8-9 ms, and one (C12,
# u = 1) at 40,961 points 0.25 vs 0.17-0.19 s.  All 28 branches pay from
# 1,281 points, and one branch does not at 4,097: the work is points
# times branches.  The threshold stays until a change of its own moves it.
_PHI_POOL_MIN = 4096


# A pooled call has at most this many parts, so that the tokens of parts
# 1 onward, one byte each, go into an empty pipe in one write of at most
# 255 bytes, below the 512 bytes of PIPE_BUF that POSIX guarantees, and
# that write never blocks.
_MAX_PARTS = 256


class WorkerError(RuntimeError):
    """A worker process of fan_out ended without returning its parts, or
    raised an error that cannot be carried back to the caller."""


def _claimed(fn, shared, parts, tokens: int):
    """(index, fn(*shared, part)) for each part this process claims, by
    reading one token, the index as a byte, at a time from the pipe tokens
    until it is empty."""
    while token := os.read(tokens, 1):
        (i,) = token
        yield i, fn(*shared, parts[i])


def _carried(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a WorkerError that
    names its class and text."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return WorkerError(f"a worker part raised {type(exc).__name__}: {exc}")
    return exc


def _work(fn, shared, parts, tokens: int, out: int, unused) -> NoReturn:
    """The body of a forked worker: closes the descriptors in unused,
    computes the parts it claims, and writes ([(index, result), ...], None),
    or ([], error) if a part raised, pickled once, to the pipe out.  It
    leaves with os._exit, whatever happens, so it never returns into the
    caller's code."""
    status = 1
    try:
        for fd in unused:
            os.close(fd)
        try:
            payload = pickle.dumps((list(_claimed(fn, shared, parts, tokens)), None))
        except BaseException as exc:
            payload = pickle.dumps(([], _carried(exc)))
        with open(out, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def fan_out(fn, items, jobs: int, chunks: int, *shared) -> list:
    """[fn(*shared, part) for each of up to `chunks` consecutive parts of
    items], computed by up to `jobs` processes, the caller included, and
    returned in part order.

    jobs == 1, or no items, makes one in-process call on all of items.
    Otherwise items is cut into at most min(chunks, _MAX_PARTS) parts, and
    the caller forks min(jobs, parts) - 1 workers, which inherit the parts,
    so nothing is pickled on the way in.  The index of every part but the
    first goes into one pipe as a one-byte token before the fork.  The
    caller computes part 0, and then every process claims its next part by
    reading a token, so no process waits at the end for more than the one
    part that another still computes.  Each worker sends its results back
    pickled, once, through a pipe of its own.  The caller's error, else
    the first worker's, is raised after every worker is reaped; on the
    caller's error the unclaimed tokens are drained, so the workers stop
    after their current part.  Where os.fork does not exist, the caller
    computes every part.  Callers decide from their input size whether
    workers pay and pass jobs = 1 if not.
    """
    if jobs == 1 or not items:
        return [fn(*shared, items)]
    step = -(-len(items) // min(chunks, _MAX_PARTS))
    parts = [items[i : i + step] for i in range(0, len(items), step)]
    if not hasattr(os, "fork"):
        return [fn(*shared, part) for part in parts]
    results = [None] * len(parts)
    tokens, feed = os.pipe()
    os.write(feed, bytes(range(1, len(parts))))
    os.close(feed)
    workers = []  # (pid, the read end of its result pipe)
    try:
        for _ in range(min(jobs, len(parts)) - 1):
            back, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(back)
                os.close(out)
                raise
            if pid == 0:
                _work(fn, shared, parts, tokens, out, [back, *(p.fileno() for _, p in workers)])
            os.close(out)
            workers.append((pid, open(back, "rb")))
        results[0] = fn(*shared, parts[0])
        for i, result in _claimed(fn, shared, parts, tokens):
            results[i] = result
        payloads = [pipe.read() for _, pipe in workers]
    finally:
        while os.read(tokens, _MAX_PARTS):
            pass
        os.close(tokens)
        for _, pipe in workers:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
    for payload, status in zip(payloads, statuses):
        if not payload:
            raise WorkerError(
                "a worker process ended with exit status "
                f"{os.waitstatus_to_exitcode(status)} before it returned its parts"
            )
        done, error = pickle.loads(payload)
        if error is not None:
            raise error
        for i, result in done:
            results[i] = result
    return results


class PhiScanResult(NamedTuple):
    points: int
    violations: tuple[Fraction, ...]  # x with phi(x) < 0 (expected empty)
    zeros: tuple[Fraction, ...]  # x with phi(x) == 0
    min_approx: float
    argmin: Fraction
    min_exact: Fraction | None


def _scan_chunk(kern: _PhiKernel, ks: range):
    """(violations, zeros, (key, k) of the first least key) over the grid
    indices ks, a step-1 range.

    alpha, beta and delta_T move from k to k + 1 by their forward
    differences, deg integer additions each, with no Horner evaluation.
    When l is an integer the key is the gap, since its denominator is the
    same at every k.  Otherwise the key is the float approx, and kern.sign
    decides the sign."""
    violations = []
    zeros = []
    best = None
    stepped = (_stepped(coeffs, ks.start) for coeffs in (kern.alpha, kern.beta, kern.dbase))
    for k, a, b, d in zip(ks, *stepped):
        big_num, del_num = kern.combine(a, b, d)
        if kern.q == 1:
            sign = key = kern.gap(big_num, del_num)
        else:
            sign = kern.sign(big_num, del_num)
            key = kern.approx(big_num, del_num)
        if sign < 0:
            violations.append(k)
        elif sign == 0:
            zeros.append(k)
        if best is None or key < best[0]:
            best = (key, k)
    return violations, zeros, best


def _scan_tasks(tasks):
    """_scan_chunk on each (kernel, grid indices) task."""
    return [_scan_chunk(kern, ks) for kern, ks in tasks]


def _scan_result(kern: _PhiKernel, points: int, chunks) -> PhiScanResult:
    """One branch's PhiScanResult from its chunks' results in index order."""
    _, k = min((chunk[2] for chunk in chunks), key=itemgetter(0))
    best = kern.value(k)
    exact = best.exact
    return PhiScanResult(
        points,
        tuple(Fraction(k, kern.den) for chunk in chunks for k in chunk[0]),
        tuple(Fraction(k, kern.den) for chunk in chunks for k in chunk[1]),
        best.approx if exact is None else _to_float(*exact.as_integer_ratio()),
        best.x,
        exact,
    )


def phi_scans(
    specs,
    denominator: int = 64,
    x_range=20,
    jobs: int = 1,
) -> list[PhiScanResult]:
    """Exact-sign evaluation of phi on the grid {k/denominator : |x| <= range},
    for each branch in specs.

    One _PhiKernel per branch, built at the grid's denominator, decides
    every point in integers and builds a PhiValue for the argmin alone.
    With jobs > 1, grids of at least _PHI_POOL_MIN points are split into
    index chunks, about 8 per process over all branches and at least one
    per branch, and every branch's chunks go to one fan_out call.  Chunks
    are merged in index order, so the outcome never depends on scheduling.
    """
    if denominator < 1:
        raise ValidationError("denominator must be >= 1")
    if jobs < 1:
        raise ValidationError("worker count must be >= 1")
    x_range = Fraction(x_range)
    if x_range < 0:
        raise ValidationError("x_range must be >= 0")
    k_max = int(x_range * denominator)
    ks = range(-k_max, k_max + 1)
    kerns = [_PhiKernel(spec, denominator) for spec in specs]
    workers = jobs if len(ks) >= _PHI_POOL_MIN else 1
    per_branch = 1 if workers == 1 else -(-8 * workers // max(len(kerns), 1))
    step = -(-len(ks) // per_branch)
    starts = range(0, len(ks), step)
    tasks = [(kern, ks[i : i + step]) for kern in kerns for i in starts]
    done = [r for part in fan_out(_scan_tasks, tasks, workers, len(tasks)) for r in part]
    n = len(starts)
    return [
        _scan_result(kern, len(ks), done[b * n : (b + 1) * n])
        for b, kern in enumerate(kerns)
    ]


def phi_scan(
    spec: PhiSpec,
    denominator: int = 64,
    x_range=20,
    jobs: int = 1,
) -> PhiScanResult:
    """phi_scans of the one branch spec."""
    return phi_scans([spec], denominator, x_range, jobs)[0]


# ---------------------------------------------------------------------------
# Homogeneity identities: the invariants and the bound polynomial scale by
# fixed powers of the leading parameters under (params) -> (1, ..., x).


def _homogeneity_data(instance: FamilyInstance):
    """(x, alpha scale, beta scale, delta scale) for the instance.  x and the
    base are products of parameter powers (FamilyId.x_exps, base_exps); the
    delta base is the decomposition's product if there is one, else the base."""
    fam, params = instance.family, instance.params
    x, base = (
        math.prod(Fraction(p) ** e for p, e in zip(params, exps))
        for exps in (fam.x_exps, fam.base_exps)
    )
    dbase = Fraction(math.prod(instance.decomposition or (base,)))
    m, l = fam.m, fam.l
    m_over_l = Fraction(m) / l
    if m_over_l.denominator != 1:
        raise CertificateError(
            f"{fam.name}: weight m = {m} is not an integer multiple of l = {l}, "
            "so delta has no integral homogeneity scale"
        )
    return x, base ** (m // 3), base ** (m // 2), dbase ** int(m_over_l)


def homogeneity_check(instance: FamilyInstance) -> bool:
    """Verify all three scaling identities exactly in rational arithmetic;
    the pattern side is _phi_polys at x, as in the phi grid scans."""
    if instance.family.name not in PHI_FAMILIES:
        raise ValidationError(f"{instance.family.name} carries no homogeneity identities")
    if instance.params[0] == 0:
        raise ValidationError("leading parameter must be nonzero")
    x, s_alpha, s_beta, s_delta = _homogeneity_data(instance)
    alpha_sub, beta_sub, delta_sub = (
        evaluate(poly.coeffs, x) for poly in _phi_polys(instance.family.name)
    )
    alpha, beta, delta_val = _forms_at(instance)
    return (
        Fraction(alpha) == s_alpha * alpha_sub
        and Fraction(beta) == s_beta * beta_sub
        and Fraction(delta_val) == s_delta * delta_sub
    )


def verify_height_bound(delta, height, exp: Fraction) -> bool:
    """Exact check |delta|^l < height, l = exp = p/q, as |delta|^p < height^q.

    Every exact x > |y|^l decision in the package is this call, on integers
    or Fractions: delta_{T,u} against the minimal model's height, which is
    u^-12 max(|alpha^3|, beta^2); the conductor against the height (the
    ratio bound sigma_m > l); |f(n)| against a sharpness record's height;
    and the leading coefficients of phi's two sides.
    """
    return abs(delta) ** exp.numerator < height**exp.denominator


# ---------------------------------------------------------------------------
# Tail coverage for the phi grid scans: beyond the scanned window the
# comparison is settled by degrees and leading coefficients.


class DominanceReport(NamedTuple):
    max_side_degree: int
    bound_side_degree: Fraction  # l * deg(delta)
    dominant: bool


def leading_dominance(spec: PhiSpec) -> DominanceReport:
    """Compare degrees and leading coefficients of the two sides of phi.

    The max side dominates the tail iff its x-degree beats l*deg(delta), or
    the degrees tie and its leading constant wins the exact q-th-power
    comparison.  Grid range plus this check is the documented
    nonnegativity verification scheme.
    """
    alpha, beta, dbase = _phi_polys(spec.family.name)
    deg_max = max(3 * alpha.degree, 2 * beta.degree)
    leads = []
    if 3 * alpha.degree == deg_max:
        leads.append(abs(Fraction(alpha.leading)) ** 3)
    if 2 * beta.degree == deg_max:
        leads.append(Fraction(beta.leading) ** 2)
    lead_max = spec.prefactor * max(leads)

    l = spec.family.l
    deg_bound = l * dbase.degree
    lead_bound = spec.family.delta_scales[spec.u_key] * Fraction(dbase.leading)
    if deg_max != deg_bound:
        dominant = deg_max > deg_bound
    else:
        dominant = verify_height_bound(lead_bound, lead_max, l)
    return DominanceReport(deg_max, deg_bound, dominant)
