"""Batch verification sweeps over family parameter spaces.

One pass per instance runs the whole pipeline (minimal model, conductor,
bound polynomial, height inequality, torsion certification) and returns
findings; a sweep aggregates them.  A sweep groups the tuples that give
the same family model (C2 (a, b, d) and (a, -b, d), C2xC2 (a, b, d) and
(-a, -b, -d)) and runs one analysis per distinct model, with the ratio
bound, sigma_m and the torsion data it decides; the checks that read the
instance run once per instance.  Results are tuple records
(typing.NamedTuple).  Instances are enumerated deterministically and
every finding is tagged with its input index, by which the chunks'
findings are merged, so output never depends on grouping or on worker
scheduling.
"""

from __future__ import annotations

import itertools
import math
import os
from operator import itemgetter
from typing import NamedTuple

from szpirolab.bounds import fan_out, verify_height_bound
from szpirolab.families import (
    FamilyInstance,
    PaperContractViolation,
    ValidationError,
    _admit,
    build_model,
    delta_eval,
    family,
    recover_uT,
)
from szpirolab.intarith import _valuation
from szpirolab.reduction import analyze, sigma_m
from szpirolab.weierstrass import (
    AffinePoint,
    WeierstrassModel,
    _two_torsion_count,
    point_order,
)

__all__ = [
    "ALL_CHECKS",
    "InstanceReport",
    "SweepSummary",
    "check_instance",
    "default_jobs",
    "iter_param_tuples",
    "run_sweep",
]

_ORIGIN = AffinePoint(0, 0)

_FP_CAPS = {2: 8, 3: 5}

ALL_CHECKS = ("bounds", "height", "torsion")


def default_jobs() -> int:
    env = os.environ.get("SZPIROLAB_JOBS")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return os.cpu_count() or 1


def _reject_unknown_checks(checks) -> None:
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValidationError(f"unknown checks: {sorted(unknown)}")


class InstanceReport(NamedTuple):
    u: int
    conductor: int
    delta_bound: int
    height: int
    sigma_m: float
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def check_instance(instance: FamilyInstance, checks=ALL_CHECKS) -> InstanceReport:
    """Run the selected published checks on one validated instance.

    Under every selection: a recovered u outside the admissible set, the
    conductor exponent caps (f_p >= 2 at additive primes, f_p at most 8 at
    2, 5 at 3 and 2 elsewhere), and the exact ratio inequality
    height^q > N^p, l = p/q.
    "bounds": adds the per-prime and global conductor bounds by
    delta_{T,u}, which is then reported as delta_bound (0 otherwise).
    "height": the strict inequality |delta_{T,u}|^l < max(|c4|^3, c6^2) of
    the minimal model.
    "torsion": the expected order of (0, 0), plus full rational 2-torsion
    where the torsion structure demands it.
    An unknown check name raises ValidationError.
    """
    _reject_unknown_checks(checks)
    model_data = _model_data(build_model(instance), instance.family, checks)
    return _instance_report(instance, checks, model_data)


def _model_data(model, fam, checks):
    """What the checks read of the family model alone, so instances with
    one model can share it: analyze(model), whether its height exceeds
    N^l for the family's l (the ratio bound), sigma_m and, under "torsion",
    the order of (0, 0) and the count of rational 2-torsion points (None
    where the family does not demand full 2-torsion)."""
    ca = analyze(model)
    ratio_ok = verify_height_bound(ca.conductor, ca.height, fam.l)
    sigma = sigma_m(ca.height, ca.conductor)
    if "torsion" not in checks:
        return ca, ratio_ok, sigma, None, None
    # analyze has already shown delta != 0
    order = point_order(model, _ORIGIN, nonsingular=True)
    two = _two_torsion_count(model) if fam.has_full_two_torsion else None
    return ca, ratio_ok, sigma, order, two


def _instance_report(instance, checks, model_data) -> InstanceReport:
    """check_instance on an instance whose family model gave model_data;
    every finding names the instance."""
    findings: list[str] = []
    fam = instance.family
    ca, ratio_ok, sigma, order, two = model_data
    mm, N, height = ca.mm, ca.conductor, ca.height

    # delta stays None where delta_{T,u} is not needed or has no value; in
    # the latter case a finding already reports the instance
    delta = None
    try:
        u = recover_uT(instance, mm)
    except PaperContractViolation as exc:
        findings.append(str(exc))
        u = mm.scaling_u
    else:
        if "bounds" in checks or "height" in checks:
            try:
                delta = abs(delta_eval(instance, u))
            except PaperContractViolation as exc:
                findings.append(f"{instance}: {exc}")
    bound = delta if "bounds" in checks and delta is not None else 0

    for d in ca.local:
        p, fp = d.p, d.fp
        if not d.semistable and fp <= 1:
            findings.append(f"{instance}: additive prime {p} got exponent {fp}")
        cap = _FP_CAPS.get(p, 2)
        if fp > cap:
            findings.append(f"{instance}: f_{p} = {fp} exceeds cap {cap}")
        if bound and bound % p ** fp != 0:
            vd = _valuation(bound, p)
            findings.append(f"{instance}: v_{p}(N) = {fp} > v_{p}(delta) = {vd}")

    if bound and N > bound:
        findings.append(f"{instance}: conductor {N} > bound {bound}")

    if not ratio_ok:
        p, q = fam.l.numerator, fam.l.denominator
        findings.append(f"{instance}: height^{q} <= N^{p} (ratio bound violated)")

    if (
        "height" in checks
        and delta is not None
        and not verify_height_bound(delta, height, fam.l)
    ):
        findings.append(f"{instance}: |delta|^l >= u^-12 max(|alpha^3|, beta^2)")

    if "torsion" in checks:
        if order != fam.point_order:
            findings.append(
                f"{instance}: (0,0) has order {order}, expected {fam.point_order}"
            )
        if two is not None and two != 4:
            findings.append(f"{instance}: full rational 2-torsion not found")

    return InstanceReport(u, N, bound, height, sigma, tuple(findings))


# ---------------------------------------------------------------------------
# Enumeration of the valid parameter space within a box.


def iter_param_tuples(name: str, bound: int):
    """The tuples in the box [-bound, bound]^arity that pass the family's
    rules, in a-major order: single-position rules filter each coordinate's
    range once, whole-tuple rules filter the product.  validate_params
    reads the same rules and rejects what is left only as singular, the
    one check the sweep still makes (families._admit).  An unknown family
    raises ValidationError."""
    fam = family(name)
    axes = [range(-bound, bound + 1)] * fam.arity
    whole = []
    for pos, ok, _ in fam.rules:
        if pos is None:
            whole.append(ok)
        else:
            axes[pos] = [v for v in axes[pos] if ok(v)]
    for params in itertools.product(*axes):
        if all(ok(*params) for ok in whole):
            yield params


class SweepSummary(NamedTuple):
    family: str
    bound: int
    checked: int
    findings: tuple[str, ...]
    max_sigma: float
    min_sigma: float

    @property
    def ok(self) -> bool:
        return not self.findings


# A sweep goes to the pool only from this many distinct family models.
# run_sweep at jobs=1 vs jobs=2 with the pool forced and fan_out's forked
# workers, on a 2-core x86 VM where two CPU-bound processes overlapped (a
# two-process burn took 0.40 to 0.71 of its serial time), the medians of
# 7 fresh-interpreter pairs in each of two rounds: C2xC2 at 372 models
# 0.031-0.051 vs 0.024-0.034 s, 630 models 0.056-0.085 vs 0.051-0.052 s,
# 1,008 models 0.087-0.095 vs 0.064 s, 2,442 models 0.23-0.24 vs
# 0.16-0.18 s; C2 at 364 models 0.022-0.023 vs 0.018-0.020 s, 675 models
# 0.045-0.074 vs 0.035-0.051 s, 1,386 models 0.14-0.15 vs 0.07-0.10 s.
# Pooling paid at every size measured, so the break-even is now below 364
# models; the threshold stays until a change of its own moves it.
_SWEEP_POOL_MIN = 512


def _check_chunk(fam, checks, groups):
    """Check the valid tuples of each group of the family fam (a FamilyId).
    A group is (coefficients, [(index, params), ...]): the tuples whose
    family model has those coefficients, so _model_data runs once per
    group, on its first valid instance.  index is the tuple's place in
    iter_param_tuples, which has already applied the family's rules, so
    only the singular check is left (families._admit).  Each finding is
    returned as (index, text), and run_sweep merges the findings of all
    chunks in index order."""
    checked = 0
    findings: list[tuple[int, str]] = []
    max_sigma, min_sigma = -math.inf, math.inf
    for coeffs, members in groups:
        model_data = None
        for index, params in members:
            try:
                inst = _admit(fam, params)
            except ValidationError:
                continue
            if model_data is None:
                model_data = _model_data(WeierstrassModel(*coeffs), fam, checks)
            rep = _instance_report(inst, checks, model_data)
            checked += 1
            findings.extend((index, f) for f in rep.findings)
            max_sigma = max(max_sigma, rep.sigma_m)
            min_sigma = min(min_sigma, rep.sigma_m)
    return checked, findings, max_sigma, min_sigma


def run_sweep(
    name: str,
    bound: int,
    jobs: int = 1,
    c30_bound: int | None = None,
    checks=ALL_CHECKS,
) -> SweepSummary:
    """Verify every valid instance in the box; returns aggregate findings.

    Tuples that give the same family model are checked as one group, and
    the model's analysis and torsion data are computed once per group.
    c30_bound overrides the box for the cubefree one-parameter family when
    sweeping "all" with a deeper range there.  An unknown family, a bound
    or worker count below 1 and an unknown check name raise
    ValidationError before any instance is checked.
    """
    if bound < 1 or (c30_bound is not None and c30_bound < 1):
        raise ValidationError("parameter bounds must be positive")
    if jobs < 1:
        raise ValidationError("worker count must be >= 1")
    _reject_unknown_checks(checks)
    fam = family(name)
    bound_used = c30_bound if fam.arity == 1 and c30_bound is not None else bound
    # model coefficients -> [(index, params)], in first-seen order
    groups: dict[tuple, list] = {}
    for index, params in enumerate(iter_param_tuples(name, bound_used)):
        groups.setdefault(fam.model(*params), []).append((index, params))
    # 8 parts per worker balance families whose per-model cost varies; a
    # group is never split across parts
    workers = jobs if len(groups) >= _SWEEP_POOL_MIN else 1
    parts = fan_out(_check_chunk, list(groups.items()), workers, 8 * jobs, fam, checks)
    checked = sum(p[0] for p in parts)
    tagged = itertools.chain.from_iterable(p[1] for p in parts)
    findings = tuple(f for _, f in sorted(tagged, key=itemgetter(0)))
    max_sigma = max(p[2] for p in parts)
    min_sigma = min(p[3] for p in parts)
    return SweepSummary(name, bound_used, checked, findings, max_sigma, min_sigma)
