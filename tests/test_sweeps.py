"""Sweep engine: enumeration, per-instance reports, argument checks."""

import inspect
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from conftest import edit_analysis
from szpirolab.bounds import exceeds, szpiro_ratio
from szpirolab.cli import build_parser, main
from szpirolab import families, reduction, sweeps, weierstrass
from szpirolab.families import (
    FAMILIES,
    ValidationError,
    build_model,
    delta_eval,
    recover_uT,
    validate_params,
)
from szpirolab.intarith import Factorization, is_cubefree
from szpirolab.reduction import analyze
from szpirolab.sweeps import (
    ALL_CHECKS,
    check_instance,
    iter_param_tuples,
    run_sweep,
)
from szpirolab.weierstrass import CertificateError, SingularModelError, WeierstrassModel


def _first_instance(name):
    for params in iter_param_tuples(name, 3):
        try:
            return validate_params(name, *params)
        except ValidationError:
            continue


class TestEnumeration:
    def test_two_param_box(self):
        tuples = list(iter_param_tuples("C5", 3))
        assert (1, -3) in tuples and (3, 2) in tuples
        assert all(math.gcd(a, b) == 1 for a, b in tuples)
        assert all(1 <= a <= 3 and -3 <= b <= 3 for a, b in tuples)

    def test_c2_box_includes_negative_d(self):
        tuples = list(iter_param_tuples("C2", 2))
        assert (0, 1, -1) in tuples
        assert all(d not in (0, 1) for _, _, d in tuples)

    def test_c2xc2_box(self):
        tuples = list(iter_param_tuples("C2xC2", 3))
        assert all(a % 2 == 0 for a, _, _ in tuples)
        # a = 0 is coprime to b only for b = +-1, a singular curve that
        # validate_params rejects
        assert {(a, b) for a, b, _ in tuples if a == 0} == {(0, -1), (0, 1)}
        assert any(d == 1 for _, _, d in tuples)

    def test_c3_0_box(self):
        assert list(iter_param_tuples("C3_0", 4)) == [(1,), (2,), (3,), (4,)]

    def test_deterministic(self):
        assert list(iter_param_tuples("C6", 4)) == list(iter_param_tuples("C6", 4))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_prefilters_drop_no_valid_tuple(self, name):
        # The per-family prefilters and validate_params must never drift apart:
        # the whole cube and the enumeration keep the same instances, in order.
        def valid(tuples):
            kept = []
            for params in tuples:
                try:
                    kept.append(validate_params(name, *params))
                except ValidationError:
                    continue
            return kept

        arity = FAMILIES[name].arity
        for bound in range(1, 31 if name == "C3_0" else 5):
            cube = itertools.product(range(-bound, bound + 1), repeat=arity)
            assert valid(cube) == valid(iter_param_tuples(name, bound)), bound


class TestRulesCheckedOnce:
    """run_sweep admits enumerated tuples through families._admit, which
    checks only for a singular curve: iter_param_tuples has already applied
    every rule of the family."""

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_enumeration_passes_every_rule(self, name):
        fam = FAMILIES[name]
        count = 0
        for bound in range(1, 101 if name == "C3_0" else 9):
            for params in iter_param_tuples(name, bound):
                for pos, ok, message in fam.rules:
                    holds = ok(*params) if pos is None else ok(params[pos])
                    assert holds, (params, message)
                count += 1
        assert count > 0

    def test_sweep_matches_validate_params_sweep(self, monkeypatch):
        def summaries():
            return [run_sweep(name, 6, c30_bound=100) for name in FAMILIES]

        admitted = summaries()
        validated = []

        def through_validate_params(fam, params):
            validated.append(params)
            return validate_params(fam.name, *params)

        monkeypatch.setattr(sweeps, "_admit", through_validate_params)
        assert summaries() == admitted
        assert len(validated) == sum(
            len(list(iter_param_tuples(name, 100 if name == "C3_0" else 6)))
            for name in FAMILIES
        )


class TestCheckInstance:
    def test_clean_instance(self):
        rep = check_instance(validate_params("C5", 1, 1))
        assert rep.ok
        assert (rep.u, rep.conductor, rep.delta_bound, rep.height) == (
            1, 11, 11, 23104,
        )

    def test_checks_subset_skips_torsion(self):
        rep = check_instance(validate_params("C5", 1, 1), checks=("bounds",))
        assert rep.ok and rep.delta_bound == 11

    def test_known_defect_reported(self):
        rep = check_instance(validate_params("C2xC6", 1, 2))
        assert not rep.ok
        assert any("v_2(N)" in f for f in rep.findings)
        assert any("> bound" in f or "conductor" in f for f in rep.findings)

    @pytest.mark.parametrize(
        "call",
        [check_instance, lambda inst: szpiro_ratio(build_model(inst)),
         lambda inst: exceeds(build_model(inst), Fraction(3))],
        ids=["check_instance", "szpiro_ratio", "exceeds"],
    )
    def test_conductor_one_raises(self, call, monkeypatch):
        # No elliptic curve over Q has conductor 1, so a conductor bug that
        # computes it must raise, not pass as a clean instance.
        inst = validate_params("C5", 1, 1)
        monkeypatch.setattr(reduction, "factorize", lambda n: Factorization(()))
        with pytest.raises(CertificateError, match="conductor 1"):
            call(inst)

    def test_u_outside_set_reported_not_raised(self, monkeypatch):
        # With u = 1 barred, delta_{C5,u} has no branch for the recovered u;
        # the height check must step aside and leave the u-set finding.
        fam = FAMILIES["C5"]._replace(delta_scales={2: Fraction(1)})
        monkeypatch.setitem(FAMILIES, "C5", fam)
        inst = validate_params("C5", 1, 1)
        rep = check_instance(inst)
        assert rep.u == 1 and not rep.ok
        assert any("outside the allowed set" in f for f in rep.findings)
        assert rep.findings == check_instance(inst, checks=("bounds", "torsion")).findings

    @pytest.mark.parametrize(
        "checks",
        [ALL_CHECKS, ("bounds", "torsion"), ("height", "torsion"), ("torsion",)],
    )
    def test_off_table_u_reported_once(self, monkeypatch, checks):
        # A recovered u with no key has no delta_{T,u}: one finding, no bound.
        inst = validate_params("C5", 1, 1)
        monkeypatch.setattr(families, "_u_key", lambda instance, u: None)
        rep = check_instance(inst, checks=checks)
        assert len(rep.findings) == 1, rep.findings
        assert "outside the allowed set" in rep.findings[0]
        assert rep.delta_bound == 0

    def test_nonintegral_delta_reported_not_raised(self, monkeypatch):
        # With delta_{C5,1} scaled by 1/7 the bound polynomial is not
        # integral; the height check must step aside and leave the finding.
        fam = FAMILIES["C5"]._replace(delta_scales={1: Fraction(1, 7)})
        monkeypatch.setitem(FAMILIES, "C5", fam)
        inst = validate_params("C5", 1, 1)
        rep = check_instance(inst)
        assert rep.u == 1 and not rep.ok
        assert any("not integral" in f for f in rep.findings)
        assert rep.findings == check_instance(inst, checks=("bounds", "torsion")).findings
        assert check_instance(inst, checks=("height",)).findings == rep.findings


def _edit_local(**changes):
    """An analysis edit that changes the first prime's local data."""

    def edit(ca):
        first, *rest = ca.local
        return ca._replace(local=(first._replace(**changes), *rest))

    return edit


class TestFindingTexts:
    """Each finding of check_instance, fired by changing the one value it
    reads.  C5(1, 1) is clean: N = 11 (I1, f_11 = 1), delta_{C5,1} = 11,
    height 23104 and l = 3."""

    inst = validate_params("C5", 1, 1)

    def test_additive_prime_with_exponent_one(self, monkeypatch):
        edit_analysis(monkeypatch, sweeps, _edit_local(semistable=False))
        assert check_instance(self.inst).findings == (
            "C5(1, 1): additive prime 11 got exponent 1",
        )

    @pytest.mark.parametrize("fp, ok", [(2, True), (3, False)])
    def test_exponent_above_cap(self, fp, ok, monkeypatch):
        # the cap at 11 is 2; without "bounds" no bound by delta is read
        edit_analysis(monkeypatch, sweeps, _edit_local(fp=fp))
        rep = check_instance(self.inst, checks=("torsion",))
        assert rep.findings == (() if ok else ("C5(1, 1): f_11 = 3 exceeds cap 2",))

    @pytest.mark.parametrize("height, ok", [(1331, False), (1332, True)])
    def test_ratio_bound(self, height, ok, monkeypatch):
        # height > N^3 = 1331 is strict
        edit_analysis(
            monkeypatch, sweeps, lambda ca: ca._replace(height=height)
        )
        rep = check_instance(self.inst, checks=("bounds", "torsion"))
        assert rep.findings == (
            () if ok else ("C5(1, 1): height^1 <= N^3 (ratio bound violated)",)
        )

    @pytest.mark.parametrize("delta, ok", [(28, True), (29, False)])
    def test_height_bound(self, delta, ok, monkeypatch):
        # 28^3 = 21952 < 23104 < 29^3 = 24389
        monkeypatch.setattr(sweeps, "delta_eval", lambda instance, u: delta)
        rep = check_instance(self.inst, checks=("height",))
        assert rep.findings == (
            () if ok else ("C5(1, 1): |delta|^l >= u^-12 max(|alpha^3|, beta^2)",)
        )

    def test_full_two_torsion_not_found(self, monkeypatch):
        inst = _first_instance("C2xC4")
        assert check_instance(inst).ok
        monkeypatch.setattr(sweeps, "_two_torsion_count", lambda model: 0)
        assert check_instance(inst).findings == (
            f"{inst}: full rational 2-torsion not found",
        )


class TestRunSweep:
    def test_counts_and_order_stable_across_jobs(self, forked_workers):
        # box 22 gives 599 candidate tuples, enough for the pool
        assert len(list(iter_param_tuples("C2xC6", 22))) == 599
        one = run_sweep("C2xC6", 22, jobs=1)
        assert forked_workers == []
        two = run_sweep("C2xC6", 22, jobs=2)
        assert len(forked_workers) == 1
        assert one == two
        assert one.checked > 0 and len(one.findings) == 278

    @pytest.mark.parametrize(
        "name, bound, models, pooled",
        [
            ("C2xC2", 9, 444, False),
            ("C2xC2", 10, 630, True),
            ("C2", 5, 364, False),
            ("C2", 6, 675, True),
        ],
    )
    def test_pool_threshold_counts_models(
        self, name, bound, models, pooled, forked_workers
    ):
        # the pool pays by the analyses it shares out: distinct models, not
        # tuples (C2xC2 at box 9 has 888 tuples)
        fam = FAMILIES[name]
        groups = {fam.model(*params) for params in iter_param_tuples(name, bound)}
        assert len(groups) == models
        assert (models >= sweeps._SWEEP_POOL_MIN) == pooled
        run_sweep(name, bound, jobs=2)
        assert len(forked_workers) == pooled

    def test_c30_override(self):
        from szpirolab.intarith import is_cubefree

        s = run_sweep("C3_0", 5, c30_bound=20)
        assert s.bound == 20
        assert s.checked == sum(1 for a in range(1, 21) if is_cubefree(a))


def _c3_0_deleted_branch(instance, checks):
    """Test-only copy of the C3_0 branch check_instance used to have: u read
    off the minimal model, delta = 27 a^2 without delta_eval, and a finding
    when the family model is not already minimal.  Returns the u, the
    conductor bound and the findings it contributed."""
    u = analyze(build_model(instance)).mm.scaling_u
    a = instance.params[0]
    findings = []
    if u != 1:
        findings.append(f"{instance}: expected already-minimal model, got u={u}")
    return u, 27 * a * a if "bounds" in checks else 0, tuple(findings)


class TestC30GeneralPath:
    """C3_0 runs through recover_uT and delta_eval like every other family.
    a is cubefree, so v_p(27 a^4) <= 11 < 12 at every p and u = 1."""

    def test_matches_deleted_branch(self):
        checked = 0
        for a in range(1, 3001):
            if not is_cubefree(a):
                continue
            inst = validate_params("C3_0", a)
            assert recover_uT(inst) == 1, a
            assert delta_eval(inst, 1) == 27 * a * a, a
            rep = check_instance(inst)
            assert (rep.u, rep.delta_bound, rep.findings) == _c3_0_deleted_branch(
                inst, ALL_CHECKS
            ), a
            checked += 1
        assert checked == 2496

    def test_checks_subsets_match_deleted_branch(self):
        for checks in (("bounds",), ("height",), ("torsion",), ("height", "torsion")):
            for a in (1, 2, 12, 98):
                inst = validate_params("C3_0", a)
                rep = check_instance(inst, checks)
                assert (rep.u, rep.delta_bound, rep.findings) == _c3_0_deleted_branch(
                    inst, checks
                ), (a, checks)


class TestCheckNames:
    def test_typo_in_sweep_raises(self):
        # A misspelt "bounds" used to switch the conductor checks off, and
        # the C2xC6 refutation then read as a clean sweep.
        with pytest.raises(ValueError, match=r"unknown checks: \['bound'\]"):
            run_sweep("C2xC6", 6, checks=("bound",))
        assert len(run_sweep("C2xC6", 6).findings) == 25

    def test_typo_in_check_instance_raises(self):
        inst = validate_params("C2xC6", 1, 2)
        with pytest.raises(ValueError, match="unknown checks"):
            check_instance(inst, checks=("bound",))
        with pytest.raises(ValueError, match="unknown checks"):
            check_instance(inst, checks="bounds")

    def test_unknown_family_raises(self):
        # Every tuple used to fail validation, and the sweep read as clean.
        with pytest.raises(ValidationError, match="unknown family 'C2x6'"):
            run_sweep("C2x6", 5)


def _verify_cli(argv, capsys):
    code = main(["family", "verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepArguments:
    """The argument checks run_sweep and `family verify` share."""

    def test_defaults(self, capsys):
        assert inspect.signature(run_sweep).parameters["checks"].default == ALL_CHECKS
        args = build_parser().parse_args(["family", "verify"])
        assert tuple(args.checks.split(",")) == ALL_CHECKS and args.T == "all"
        _, out, _ = _verify_cli(["--max", "1", "--c30-max", "1", "--jobs", "1"], capsys)
        lines = [json.loads(line) for line in out.splitlines()]
        names = [line["family"] for line in lines if "bound" in line]
        assert "C5" in names and len(names) == 15
        assert names == list(FAMILIES)

    def test_single_family(self, capsys):
        summary = run_sweep("C7", 4, jobs=1)
        assert summary.family == "C7" and summary.ok
        code, out, _ = _verify_cli(["--T", "C7", "--max", "4", "--jobs", "1"], capsys)
        (line,) = out.splitlines()
        assert code == 0 and json.loads(line)["family"] == "C7"

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            run_sweep("C5", 0)
        with pytest.raises(ValueError, match="positive"):
            run_sweep("C5", 3, c30_bound=0)
        with pytest.raises(ValueError, match="worker"):
            run_sweep("C5", 3, jobs=0)
        with pytest.raises(ValueError, match="unknown checks"):
            run_sweep("C5", 3, checks=("bounds", "phi"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max", "0"], "parameter bounds must be positive"),
            (["--c30-max", "0"], "parameter bounds must be positive"),
            (["--T", "C5", "--c30-max", "0"], "parameter bounds must be positive"),
            (["--max", "0", "--jobs", "0"], "parameter bounds must be positive"),
            (["--jobs", "0"], "worker count must be >= 1"),
            (["--checks", "foo"], "unknown checks: ['foo']"),
            (["--checks", "bounds,phi"], "unknown checks: ['phi']"),
        ],
    )
    def test_cli_usage_error_before_output(self, argv, message, capsys):
        code, out, err = _verify_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _count_calls(monkeypatch, module, name):
    """Counts calls of module.name through every szpirolab module that
    binds it."""
    real = getattr(module, name)
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("szpirolab") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def minimal_model_calls(monkeypatch):
    from szpirolab import reduction

    return _count_calls(monkeypatch, reduction, "minimal_model")


@pytest.fixture
def compute_invariants_calls(monkeypatch):
    from szpirolab import weierstrass

    return _count_calls(monkeypatch, weierstrass, "compute_invariants")


class TestSingleMinimalModel:
    def test_one_build_per_check_instance(self, minimal_model_calls):
        for name in FAMILIES:
            inst = _first_instance(name)
            minimal_model_calls.clear()
            check_instance(inst)
            assert len(minimal_model_calls) == 1, name

    def test_one_build_per_exceeds(self, minimal_model_calls):
        exceeds(WeierstrassModel(0, -1, -1, 0, 0), Fraction(3, 1))
        assert len(minimal_model_calls) == 1


class TestOneSetOfInvariants:
    def test_at_most_two_per_instance(self, compute_invariants_calls):
        # One on the family model in minimal_model and one certifying the
        # model rebuilt from (c4, c6); validation builds no model at all.
        for name in FAMILIES:
            params = _first_instance(name).params
            compute_invariants_calls.clear()
            check_instance(validate_params(name, *params))
            assert len(compute_invariants_calls) <= 2, name

    def test_two_per_ratio(self, compute_invariants_calls):
        # minimal_model's own invariants decide singularity; no pre-check.
        curve = WeierstrassModel(0, -1, -1, 0, 0)
        assert exceeds(curve, Fraction(3, 1))
        assert len(compute_invariants_calls) == 2
        compute_invariants_calls.clear()
        szpiro_ratio(curve)
        assert len(compute_invariants_calls) == 2

    def test_singular_model_still_rejected(self):
        for call in (szpiro_ratio, lambda m: exceeds(m, Fraction(3, 1))):
            with pytest.raises(SingularModelError, match="singular model"):
                call(WeierstrassModel(0, 0, 0, 0, 0))


def _instance_loop(name, bound, checks=ALL_CHECKS):
    """Test-only oracle for run_sweep: check_instance on every valid tuple
    of iter_param_tuples, in order, with no grouping and no pool."""
    reports = []
    for params in iter_param_tuples(name, bound):
        try:
            inst = validate_params(name, *params)
        except ValidationError:
            continue
        reports.append(check_instance(inst, checks))
    sigmas = [rep.sigma_m for rep in reports]
    return (
        len(reports),
        [f for rep in reports for f in rep.findings],
        min(sigmas),
        max(sigmas),
    )


def _summary(s):
    return s.checked, list(s.findings), s.min_sigma, s.max_sigma


class TestOneAnalysisPerModel:
    """run_sweep analyzes each distinct family model once and merges the
    findings by input index: C2 (a, b, d) and (a, -b, d) give one model,
    and so do C2xC2 (a, b, d) and (-a, -b, -d)."""

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_matches_instance_loop(self, name):
        loop = _instance_loop(name, 6)
        assert _summary(run_sweep(name, 6, jobs=1)) == loop
        if name == "C2xC6":
            assert len(loop[1]) == 25

    @pytest.mark.parametrize(
        "name, bound", [("C2", 8), ("C2xC2", 10)], ids=["C2", "C2xC2"]
    )
    def test_pooled_matches_instance_loop(self, name, bound, forked_workers):
        summary = run_sweep(name, bound, jobs=2)
        assert len(forked_workers) == 1
        assert _summary(summary) == _instance_loop(name, bound)

    @pytest.mark.parametrize(
        "name, instances, models", [("C2", 2772, 1386), ("C2xC2", 720, 360)]
    )
    def test_one_analysis_per_distinct_model(
        self, name, instances, models, monkeypatch
    ):
        analyze_calls = _count_calls(monkeypatch, reduction, "analyze")
        order_calls = _count_calls(monkeypatch, weierstrass, "point_order")
        assert run_sweep(name, 8, jobs=1).checked == instances
        assert len(analyze_calls) == len(order_calls) == models

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_model_data_findings_name_each_instance(
        self, jobs, monkeypatch, forked_workers
    ):
        # A wrong order of (0, 0) is model data, shared by the twins
        # (a, b, d) and (-a, -b, -d), which lie in different blocks of a; the
        # finding it gives must still name each instance, in input order.
        monkeypatch.setattr(sweeps, "point_order", lambda *args, **kwargs: 3)
        valid = []
        for params in iter_param_tuples("C2xC2", 10):
            try:
                validate_params("C2xC2", *params)
            except ValidationError:
                continue
            valid.append(params)
        assert {(-a, -b, -d) for a, b, d in valid} == set(valid)
        summary = run_sweep("C2xC2", 10, jobs=jobs)
        assert len(forked_workers) == (jobs > 1)
        assert summary.findings == tuple(
            f"C2xC2{params}: (0,0) has order 3, expected 2" for params in valid
        )
        assert len(summary.findings) == 1232
