"""Acceptance suite: every criterion at its stated tolerance.

Each criterion records one PASS/FAIL verdict line, echoed in the pytest
run summary.  Two published claims are false on one parameter class each:
the conductor bound of criterion 3 fails for C2xC6 when a is odd and b is
even, and the stored C2xC8 rescaling checked by criterion 6 is wrong at
odd n.  Their verdict lines say FAIL, because the report must show a false
claim as false.  The tests then assert the exact extent of each
refutation: the claim holds everywhere outside the class, fails on every
member of it, and a computation that does not read the finding text
confirms why.  The companion tests pin the size of each failure (see
README).
"""

import math
import os
import random
import re
import sys
import time

import pytest

from conftest import degree_limit_check, homogeneity_check, record_verdict
from szpirolab import bounds, families, reduction, sharpness, sweeps
from szpirolab.weierstrass import WeierstrassModel, compute_invariants

SWEEP_BOUND = 30
C30_BOUND = 100
JOBS = os.cpu_count() or 1

FAMILY_NAMES = list(families.FAMILIES)


def _record(criterion: str, ok: bool, detail: str) -> str:
    """Report one criterion's verdict in the run summary and on stderr."""
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_verdict(line)
    print(line, file=sys.__stderr__, flush=True)
    return line


def _verdict(criterion: str, ok: bool, detail: str):
    """Report the verdict on a claim that holds, and assert it."""
    line = _record(criterion, ok, detail)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_results():
    """One full verification pass over every valid instance in the box."""
    results = {}
    for name in FAMILY_NAMES:
        results[name] = sweeps.run_sweep(
            name, SWEEP_BOUND, jobs=JOBS, c30_bound=C30_BOUND
        )
    return results


def _findings(results, *needles, exclude=False):
    out = []
    for summary in results.values():
        for f in summary.findings:
            hit = any(n in f for n in needles)
            if hit != exclude:
                out.append(f)
    return out


class TestCriterion1:
    def test_invariant_kernel(self):
        t0 = time.perf_counter()
        known = [
            # (model, c4, c6, delta, N)
            (WeierstrassModel(0, -1, 1, -10, -20), 496, 20008, -161051, 11),
            (WeierstrassModel(0, 0, 1, 0, 0), 0, -216, -27, 27),
            (WeierstrassModel(0, 0, 0, 0, 1), 0, -864, -432, 36),
        ]
        for m, c4, c6, delta, N in known:
            inv = compute_invariants(m)
            assert (inv.c4, inv.c6, inv.delta) == (c4, c6, delta)
            mm = reduction.minimal_model(m)
            assert mm.scaling_u == 1 and mm.delta_min == delta
            assert reduction.conductor(m) == N
        elapsed = time.perf_counter() - t0
        _verdict(
            "1 (invariant kernel)",
            elapsed < 1.0,
            f"3 externally known curves exact in {elapsed:.3f}s",
        )


class TestCriterion2:
    def test_ratio_lower_bound_sweep(self, sweep_results):
        total = sum(s.checked for s in sweep_results.values())
        violations = _findings(sweep_results, "ratio bound violated")
        _verdict(
            "2 (exact ratio lower bounds, all valid instances, box 30)",
            total >= 10_000 and not violations,
            f"{total} curves, {len(violations)} violations of height^q > N^p",
        )


_OFF_TABLE_NEEDLES = (
    "divides the minimal discriminant", "outside the allowed set",
    "not integral",
)
_BOUND_NEEDLES = ("v_", "> bound") + _OFF_TABLE_NEEDLES
_C2XC6_PER_PRIME = re.compile(
    r"C2xC6\((-?\d+), (-?\d+)\): v_(\d+)\(N\) = (\d+) > v_\3\(delta\) = (\d+)"
)
_C2XC6_GLOBAL = re.compile(
    r"C2xC6\((-?\d+), (-?\d+)\): conductor (\d+) > bound (\d+)"
)


def _c2xc6_odd_even_class():
    """The valid C2xC6 instances of the box with a odd and b even, found
    from the parameters alone."""
    out = {}
    for a in range(1, SWEEP_BOUND + 1, 2):
        for b in range(-SWEEP_BOUND, SWEEP_BOUND + 1, 2):
            try:
                out[(a, b)] = families.validate_params("C2xC6", a, b)
            except families.ValidationError:
                continue
    return out


class TestCriterion3:
    def test_conductor_bound_sweep(self, sweep_results):
        violations = _findings(sweep_results, *_BOUND_NEEDLES)
        instances = {f.split(": ", 1)[0] for f in violations}
        _record(
            "3 (per-prime and global conductor bounds + u sets)",
            not violations,
            f"{len(violations)} violations on {len(instances)} instances "
            "(the published bound fails for the 6-torsion-with-full-2-torsion "
            "family exactly when a is odd and b is even; see companion test)",
        )

        # (i) no other family breaks a bound, and no u or delta is off-table
        for name, summary in sweep_results.items():
            if name != "C2xC6":
                assert _findings({name: summary}, *_BOUND_NEEDLES) == [], name
        assert _findings(sweep_results, *_OFF_TABLE_NEEDLES) == []

        per_prime: dict[tuple[int, int], list] = {}
        over: dict[tuple[int, int], tuple[int, int]] = {}
        for f in _findings({"C2xC6": sweep_results["C2xC6"]}, *_BOUND_NEEDLES):
            if m := _C2XC6_PER_PRIME.fullmatch(f):
                a, b, p, fp, vd = map(int, m.groups())
                per_prime.setdefault((a, b), []).append((p, fp, vd))
            else:
                m = _C2XC6_GLOBAL.fullmatch(f)
                assert m, f
                a, b, N, bound = map(int, m.groups())
                assert (a, b) not in over, f
                over[(a, b)] = (N, bound)

        # (ii) the per-prime bound fails exactly on the class, only at p = 2
        klass = _c2xc6_odd_even_class()
        assert klass
        assert set(per_prime) == set(klass)
        for params, failures in per_prime.items():
            assert failures == [(2, 1, 0)], (params, failures)

        expected_over = {}
        for params, inst in klass.items():
            model = families.build_model(inst)
            # (iii) the global bound fails where the recomputed N exceeds
            # |delta|, and never by more than the one factor of 2
            N = reduction.conductor(model)
            delta = abs(families.delta_eval(inst, 1))
            assert N <= 2 * delta, params
            if N > delta:
                expected_over[params] = (N, delta)
            # (iv) without Tate's algorithm: u = 1, c4 odd and 2 | delta_min
            # make the reduction at 2 multiplicative (f_2 = 1), while
            # delta_{C2xC6,1} is odd
            mm = reduction.minimal_model(model)
            assert mm.scaling_u == 1, params
            assert mm.invariants.c4 % 2 == 1, params
            assert mm.delta_min % 2 == 0, params
            assert families.FAMILIES["C2xC6"].delta(*inst.delta_args) % 2 == 1, params
        assert over == expected_over

    def test_defect_is_exactly_characterized(self, sweep_results):
        """Companion: the size of the criterion-3 refutation.  Where the
        published bound fails, it fails by one factor of 2: v_2(N) = 1
        against v_2(delta) = 0, and N <= 2 |delta|."""
        for name, summary in sweep_results.items():
            bound_findings = [
                f
                for f in summary.findings
                if any(
                    n in f
                    for n in (
                        "v_", "> bound", "divides the minimal discriminant",
                        "outside the allowed set", "not integral",
                    )
                )
            ]
            if name != "C2xC6":
                assert bound_findings == [], (name, bound_findings[:3])
        # every violating C2xC6 instance has a odd, b even, and only p = 2
        # misbehaves, with margin exactly one factor of 2
        bad_params = set()
        for f in sweep_results["C2xC6"].findings:
            if "v_" in f or "> bound" in f:
                inside = f[f.index("(") + 1 : f.index(")")]
                a, b = (int(x) for x in inside.split(","))
                bad_params.add((a, b))
                assert a % 2 == 1 and b % 2 == 0, f
                assert "v_2(N) = 1 > v_2(delta) = 0" in f or "conductor" in f
        assert bad_params, "expected the known violating class to be nonempty"
        for a, b in sorted(bad_params)[:20]:
            rep = sweeps.check_instance(
                families.validate_params("C2xC6", a, b), checks=("bounds",)
            )
            assert rep.conductor <= 2 * rep.delta_bound
        record_verdict(
            f"[acceptance] criterion 3 companion: PASS - the {len(bad_params)} "
            "violating instances are exactly the (a odd, b even) class, "
            "margin never above one factor of 2"
        )


class TestCriterion4:
    def test_homogeneity_identities(self):
        rng = random.Random(20250810)
        per_family = 100
        checked = 0
        for name, fam in families.FAMILIES.items():
            if name == "C3_0":
                continue
            done = 0
            while done < per_family:
                if fam.arity == 2:
                    params = (rng.randrange(1, 80), rng.randrange(-80, 80))
                else:
                    params = (
                        rng.randrange(-60, 60),
                        rng.randrange(-60, 60),
                        rng.randrange(-25, 25),
                    )
                try:
                    inst = families.validate_params(name, *params)
                except families.ValidationError:
                    continue
                if inst.params[0] == 0:
                    continue
                assert homogeneity_check(inst), inst
                done += 1
                checked += 1
        _verdict(
            "4 (scaling identities)",
            checked == per_family * 14,
            f"exact on {checked} random tuples (100 per family)",
        )


class TestCriterion5:
    def test_phi_grids_nonnegative(self):
        specs = bounds.all_phi_specs()
        assert len(specs) == 28
        bad = []
        for spec in specs:
            res = bounds.phi_scan(spec, denominator=64, x_range=20, jobs=JOBS)
            if res.violations or res.zeros:
                bad.append((spec.label, res.violations[:3], res.zeros[:3]))
            dom = bounds.leading_dominance(spec)
            assert dom.dominant, spec.label
        _verdict(
            "5 (gap functions nonnegative on documented grids)",
            not bad,
            f"28 branches x 2561 points, negatives/rational zeros: {bad or 0}, "
            "tails covered by exact leading-coefficient dominance",
        )

    def test_c2xc4_minima_refine_toward_irrational_zeros(self):
        zeros = [(-3 - math.sqrt(5)) / 8, (-3 + math.sqrt(5)) / 8,
                 (1 - math.sqrt(5)) / 8, (1 + math.sqrt(5)) / 8]
        for u in (2, 4):
            spec = bounds.phi_spec("C2xC4", u)
            coarse = bounds.phi_scan(spec, 64, 2)
            fine = bounds.phi_scan(spec, 1024, 2)
            assert coarse.violations == () and fine.violations == ()
            assert 0 < fine.min_exact < coarse.min_exact, u
            assert min(abs(float(fine.argmin) - z) for z in zeros) < 0.005
        record_verdict(
            "[acceptance] criterion 5 companion: PASS - refined grid minima "
            "shrink toward the irrational zeros and stay positive"
        )


def _sharp_kind(finding: str) -> str:
    """Which cross-check of verify_sharp_consistency a finding reports."""
    for needle, kind in (
        ("discriminant ratio ", "ratio"),
        ("naive height ", "height"),
        ("rad(delta_min) != rad(f(n))", "radical"),
        (" has additive reduction at ", "semistability"),
        ("conductor ", "conductor"),
    ):
        if needle in finding:
            return kind
    raise AssertionError(f"unclassified finding: {finding}")


def _poly_at(coeffs, n: int) -> int:
    return sum(c * n**i for i, c in enumerate(coeffs))


class TestCriterion6:
    def test_sharpness_cross_validation(self):
        reports = [
            sharpness.verify_sharp_consistency(T, signed)
            for T in sharpness.SHARP_FAMILIES
            for n in range(2, 51)
            for signed in (n, -n)
        ]
        mismatches = [f for rep in reports for f in rep.findings]
        refuted = [rep for rep in reports if rep.findings]
        _record(
            "6 (height/radical/semistability/conductor table cross-validation, "
            "2 <= |n| <= 50)",
            not mismatches,
            f"{len(mismatches)} mismatches on {len(refuted)} (T, n) pairs "
            "(the stored rescaling constant 64 for the 2x8-torsion sequence "
            "is wrong at odd n, where the true scaling is 256; see companion "
            "test)",
        )

        assert len(reports) == 1470
        spec = sharpness.SHARP_FAMILIES["C2xC8"]
        for rep in reports:
            odd_c2xc8 = rep.T == "C2xC8" and rep.n % 2 == 1
            # Only the ratio and height claims fail, and only on the class;
            # the radical, semistability and conductor checks hold on all
            # pairs, C2xC8 at odd n included.
            kinds = sorted(_sharp_kind(f) for f in rep.findings)
            assert kinds == (["height", "ratio"] if odd_c2xc8 else []), (
                rep.T, rep.n, rep.findings,
            )
            if rep.T == "C2xC8":
                # The class is where the parameters (4n, n + 1) share a
                # factor, so the model is not primitive in (a, b).
                g = math.gcd(_poly_at(spec.args[0], rep.n), _poly_at(spec.args[1], rep.n))
                assert g in ((2, 4) if odd_c2xc8 else (1,)), (rep.n, g)

    def test_defect_is_exactly_characterized(self):
        """Companion: the size of the criterion-6 refutation.  At odd n the
        C2xC8 discriminant ratio is 256^12, 4^12 times the stored 64^12,
        and the stored height is too large by exactly 2^24."""
        for T in sharpness.SHARP_FAMILIES:
            for n in range(2, 51):
                for signed in (n, -n):
                    rep = sharpness.verify_sharp_consistency(T, signed)
                    if T != "C2xC8" or signed % 2 == 0:
                        assert rep.ok, (T, signed, rep.findings)
                        continue
                    # odd n: exactly the ratio and height findings
                    assert len(rep.findings) == 2, (signed, rep.findings)
                    assert any("discriminant ratio" in f for f in rep.findings)
                    assert any("naive height" in f for f in rep.findings)
                    m = sharpness.build_FT(T, signed)
                    mm = reduction.minimal_model(m)
                    ratio = compute_invariants(m).delta // mm.delta_min
                    assert ratio == 256**12
                    H_table = sharpness.SHARP_FAMILIES[T].height_value(signed)
                    assert H_table == reduction.height_of_minimal(mm) * 2**24
        record_verdict(
            "[acceptance] criterion 6 companion: PASS - all 1470 pairs exact "
            "except the 2x8 sequence at odd n, each off by exactly 4^12 in "
            "the discriminant ratio and 2^24 in the height"
        )


class TestCriterion7:
    def test_degree_limits(self):
        for T in sharpness.SHARP_FAMILIES:
            assert degree_limit_check(T), T
        _verdict(
            "7a (degree ratio equals the sharp exponent)",
            True,
            "deg H / deg f = l exactly for all fifteen families",
        )

    def test_convergence_intercepts(self):
        rows = []
        within = 0
        all_strict = True
        for T in sharpness.SHARP_FAMILIES:
            scan = sharpness.convergence_scan(
                T, 10**6, n_min=10**3, samples=200
            )
            l = float(sharpness.SHARP_FAMILIES[T].l)
            assert scan.sieve_hits >= 10, (T, scan.warning)
            all_strict &= scan.strictly_above
            ok = abs(scan.intercept - l) <= 0.05
            within += ok
            rows.append(f"{T}:{scan.intercept:.3f}/{l}")
        _verdict(
            "7b (ratio descent along squarefree values, fit intercepts)",
            all_strict and within >= 13,
            f"strictly above the bound everywhere; {within}/15 intercepts "
            f"within 0.05 ({', '.join(rows)})",
        )


class TestCriterion8:
    def test_order_two_forces_ratio_above_three_halves(self, sweep_results):
        c2 = sweep_results["C2"]
        ratio_violations = [
            f for f in c2.findings if "ratio bound violated" in f
        ]
        order_violations = [f for f in c2.findings if "(0,0) has order" in f]
        _verdict(
            "8 (certified 2-torsion implies ratio > 3/2, exact)",
            c2.checked > 0 and not ratio_violations and not order_violations
            and c2.min_sigma > 1.5,
            f"{c2.checked} curves with certified order-2 point, "
            f"min ratio {c2.min_sigma:.4f}",
        )


class TestCriterion9:
    def test_torsion_certification(self, sweep_results):
        violations = _findings(
            sweep_results, "(0,0) has order", "full rational 2-torsion"
        )
        total = sum(s.checked for s in sweep_results.values())
        _verdict(
            "9 (torsion order certification on every swept instance)",
            not violations,
            f"(0,0) certified at the expected order on {total} instances; "
            f"{len(violations)} failures",
        )
