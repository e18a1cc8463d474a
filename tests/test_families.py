"""Torsion family construction, validation, bound polynomials, u recovery."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from szpirolab import bounds, families, intarith, reduction, sharpness, sweeps
from szpirolab.bounds import PhiSpec, phi_spec
from szpirolab.families import (
    FAMILIES,
    PaperContractViolation,
    ValidationError,
    build_model,
    delta_eval,
    recover_uT,
    u_value,
    validate_params,
)
from szpirolab.intarith import factorize, is_squarefree, p_adic_valuation
from szpirolab.poly import X
from szpirolab.reduction import analyze, minimal_model
from szpirolab.sweeps import check_instance, iter_param_tuples
from szpirolab.weierstrass import (
    AffinePoint,
    Isomorphism,
    WeierstrassModel,
    add_points,
    compute_invariants,
    point_order,
    transform,
)

ORIGIN = AffinePoint(Fraction(0), Fraction(0))
_OFF_CURVE = AffinePoint(Fraction(0), Fraction(1, 2))
_OFF_CURVE_2 = AffinePoint(Fraction(0), Fraction(3))


def random_instances(name, rng, count, span=40):
    fam = FAMILIES[name]
    out = []
    while len(out) < count:
        if name == "C3_0":
            params = (rng.randrange(1, 101),)
        elif fam.arity == 2:
            params = (rng.randrange(1, span), rng.randrange(-span, span))
        else:
            params = (
                rng.randrange(-span, span),
                rng.randrange(-span, span),
                rng.randrange(-15, 15),
            )
        try:
            out.append(validate_params(name, *params))
        except ValidationError:
            continue
    return out


class TestValidation:
    def test_valid_examples(self):
        assert validate_params("C5", 1, 1).params == (1, 1)
        assert validate_params("C2", 1, 2, 3).params == (1, 2, 3)

    def test_named_conditions(self):
        with pytest.raises(ValidationError, match="a must be even"):
            validate_params("C2xC2", 3, 2, 1)
        with pytest.raises(ValidationError, match="coprime"):
            validate_params("C5", 2, 4)
        with pytest.raises(ValidationError, match="a must be positive"):
            validate_params("C7", -1, 2)
        with pytest.raises(ValidationError, match="b must be nonzero"):
            validate_params("C2", 1, 0, 3)
        with pytest.raises(ValidationError, match="d must not equal 1"):
            validate_params("C2", 1, 2, 1)
        with pytest.raises(ValidationError, match="d must be squarefree"):
            validate_params("C2", 1, 2, 4)
        with pytest.raises(ValidationError, match="gcd.*squarefree"):
            validate_params("C2", 4, 8, 3)
        with pytest.raises(ValidationError, match="cubefree"):
            validate_params("C3_0", 8)
        with pytest.raises(ValidationError, match="singular"):
            validate_params("C9", 1, 1)
        with pytest.raises(ValidationError, match="unknown family"):
            validate_params("C11", 1, 1)
        with pytest.raises(ValidationError, match="parameter"):
            validate_params("C5", 1)
        with pytest.raises(ValidationError, match="parameters must be integers"):
            validate_params("C5", True, 1)

    def test_c2_negative_d_allowed(self):
        assert validate_params("C2", 1, 2, -1).params == (1, 2, -1)

    def test_c2xc2_d_one_allowed(self):
        assert validate_params("C2xC2", 2, 1, 1).params == (2, 1, 1)

    def test_instances_and_phi_specs_hash(self):
        # FamilyId holds a dict (delta_scales) and hashes on its name
        assert len({validate_params("C5", 1, 1), validate_params("C5", 1, 1)}) == 1
        assert hash(phi_spec("C4", "2c")) == hash(phi_spec("C4", "2c"))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_record_pickles_by_name(self, name):
        # The rules are lambdas; a worker process gets the registry's record.
        fam = FAMILIES[name]
        assert pickle.loads(pickle.dumps(fam)) is fam


def _c5(*params):
    return validate_params("C5", *params)


_C5_U7 = PhiSpec(FAMILIES["C5"], 7, Fraction(1))
_C3_0_SPEC = PhiSpec(FAMILIES["C3_0"], 1, Fraction(1))
_NO_BRANCH = "^C3_0 has no phi branch; its bound is checked directly$"

# (call, the message it must raise); each names one argument rule
REJECTED_ARGUMENTS = {
    "phi_scan den": (lambda: bounds.phi_scan(phi_spec("C5", 1), 0, 1),
                     "denominator must be >= 1"),
    "phi_scan jobs": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, 1, jobs=0),
                      "worker count must be >= 1"),
    "phi_scan jobs float": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, 1, jobs=2.0),
                            r"^worker count must be an integer, not 2\.0$"),
    "phi_scan jobs bool": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, 1, jobs=True),
                           "^worker count must be an integer, not True$"),
    "phi_scan x_range": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, -1),
                         "x_range must be >= 0"),
    "phi_scan x_range text": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, "abc"),
                              "^x_range must be a rational number, not 'abc'$"),
    "phi_scan x_range inf": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, float("inf")),
                             "^x_range must be a rational number, not inf$"),
    "phi_scan x_range nan": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, float("nan")),
                             "^x_range must be a rational number, not nan$"),
    "phi_scan x_range bool": (lambda: bounds.phi_scan(phi_spec("C5", 1), 8, True),
                              "^x_range must be a rational number, not True$"),
    "phi_eval x text": (lambda: bounds.phi_eval(phi_spec("C5", 1), "abc"),
                        "^x must be a rational number, not 'abc'$"),
    "phi_eval x inf": (lambda: bounds.phi_eval(phi_spec("C5", 1), float("-inf")),
                       "^x must be a rational number, not -inf$"),
    "phi_eval x nan": (lambda: bounds.phi_eval(phi_spec("C5", 1), float("nan")),
                       "^x must be a rational number, not nan$"),
    "phi_eval x bool": (lambda: bounds.phi_eval(phi_spec("C5", 1), False),
                        "^x must be a rational number, not False$"),
    "phi_spec u": (lambda: phi_spec("C5", 2), "u = 2 is not admissible for C5"),
    "phi_spec branch": (lambda: phi_spec("C3_0", 1), "C3_0 has no phi branch"),
    # hand-built specs meet the branch rule of phi_spec at every entry point
    "phi_eval u": (lambda: bounds.phi_eval(_C5_U7, 0), "^u = 7 is not admissible for C5$"),
    "phi_scan u": (lambda: bounds.phi_scan(_C5_U7, 8, 1), "^u = 7 is not admissible for C5$"),
    "leading_dominance u": (lambda: bounds.leading_dominance(_C5_U7),
                            "^u = 7 is not admissible for C5$"),
    "phi_eval branch": (lambda: bounds.phi_eval(_C3_0_SPEC, 0), _NO_BRANCH),
    "phi_scan branch": (lambda: bounds.phi_scan(_C3_0_SPEC, 8, 1), _NO_BRANCH),
    "leading_dominance branch": (lambda: bounds.leading_dominance(_C3_0_SPEC), _NO_BRANCH),
    "phi_spec family": (lambda: phi_spec("C11", 1), "unknown family 'C11'"),
    "convergence_scan n_max": (lambda: sharpness.convergence_scan("C2", 5),
                               "n_max must be >= 10"),
    "convergence_scan samples": (lambda: sharpness.convergence_scan("C2", 100, samples=1),
                                 "samples must be >= 2"),
    "convergence_scan n_min": (lambda: sharpness.convergence_scan("C2", 100, n_min=200),
                               "n_min must be <= n_max"),
    "convergence_scan n_max float": (lambda: sharpness.convergence_scan("C5", 100.5),
                                     r"^n_max must be an integer, not 100\.5$"),
    "convergence_scan n_min float": (lambda: sharpness.convergence_scan("C5", 100, n_min=2.0),
                                     r"^n_min must be an integer, not 2\.0$"),
    "convergence_scan samples float": (
        lambda: sharpness.convergence_scan("C5", 100, samples=5.0),
        r"^samples must be an integer, not 5\.0$"),
    "convergence_scan family": (lambda: sharpness.convergence_scan("C11", 100),
                                "unknown sharpness family 'C11'"),
    "build_FT family": (lambda: sharpness.build_FT("C11", 2),
                        "unknown sharpness family 'C11'"),
    "build_FT degenerate": (lambda: sharpness.build_FT("C2", 0), "degenerate"),
    "build_FT n float": (lambda: sharpness.build_FT("C2", 2.5),
                         r"^n must be an integer, not 2\.5$"),
    "verify_sharp_consistency family": (
        lambda: sharpness.verify_sharp_consistency("C11", 2),
        "unknown sharpness family 'C11'"),
    "verify_sharp_consistency n": (lambda: sharpness.verify_sharp_consistency("C2", 1),
                                   r"\|n\| > 1"),
    "verify_sharp_consistency n float": (
        lambda: sharpness.verify_sharp_consistency("C2", 2.5),
        r"^n must be an integer, not 2\.5$"),
    "fit_intercept points": (lambda: sharpness.fit_intercept([(1.0, 2.0)]),
                             "at least two points"),
    "run_sweep bound": (lambda: sweeps.run_sweep("C5", 0),
                        "parameter bounds must be positive"),
    "run_sweep c30_bound": (lambda: sweeps.run_sweep("C5", 3, c30_bound=0),
                            "parameter bounds must be positive"),
    "run_sweep jobs": (lambda: sweeps.run_sweep("C5", 3, jobs=0),
                       "worker count must be >= 1"),
    "run_sweep jobs float": (lambda: sweeps.run_sweep("C2", 8, jobs=2.0),
                             r"^worker count must be an integer, not 2\.0$"),
    "run_sweep jobs bool": (lambda: sweeps.run_sweep("C2", 8, jobs=True),
                            "^worker count must be an integer, not True$"),
    "run_sweep bound float": (lambda: sweeps.run_sweep("C5", 6.5),
                              r"^bound must be an integer, not 6\.5$"),
    "run_sweep c30_bound float": (lambda: sweeps.run_sweep("C3_0", 5, c30_bound=20.0),
                                  r"^c30_bound must be an integer, not 20\.0$"),
    "run_sweep checks": (lambda: sweeps.run_sweep("C5", 3, checks=("foo",)),
                         r"unknown checks: \['foo'\]"),
    "run_sweep family": (lambda: sweeps.run_sweep("C11", 3), "unknown family 'C11'"),
    "check_instance checks": (lambda: sweeps.check_instance(_c5(1, 1), ("foo",)),
                              r"unknown checks: \['foo'\]"),
    "iter_param_tuples family": (lambda: list(sweeps.iter_param_tuples("C11", 1)),
                                 "unknown family 'C11'"),
    "iter_param_tuples bound float": (lambda: list(sweeps.iter_param_tuples("C5", 2.5)),
                                      r"^bound must be an integer, not 2\.5$"),
    "delta_eval u": (lambda: delta_eval(_c5(1, 1), 2), "u = 2 is not admissible for C5"),
    "decompose a": (lambda: FAMILIES["C3"].decompose(-4), "requires a > 0"),
    "point_order point": (lambda: point_order(WeierstrassModel(0, -1, -1, 0, 0),
                                              AffinePoint(2, 1)), "not on the curve"),
    # Neither (0, 1/2) nor (0, 3) is on these curves; unchecked, their sum
    # is INFINITY on the first and a ZeroDivisionError on the second.
    "add_points on [0,-1,-1,2,0]": (
        lambda: add_points(WeierstrassModel(0, -1, -1, 2, 0), _OFF_CURVE, _OFF_CURVE_2),
        r"point \(0, 1/2\) is not on the curve"),
    "add_points on [0,-1,-1,0,0]": (
        lambda: add_points(WeierstrassModel(0, -1, -1, 0, 0), _OFF_CURVE, _OFF_CURVE_2),
        r"point \(0, 1/2\) is not on the curve"),
    "add_points q": (lambda: add_points(WeierstrassModel(0, -1, -1, 0, 0), ORIGIN, _OFF_CURVE_2),
                     r"point \(0, 3\) is not on the curve"),
    "Isomorphism u": (lambda: Isomorphism(0), "u must be nonzero"),
    "minimal_model model": (
        lambda: minimal_model(WeierstrassModel(Fraction(1, 2), 0, 0, 0, 1)),
        "requires integral coefficients"),
    "tate_local model": (
        lambda: reduction.tate_local(WeierstrassModel(Fraction(1, 2), 0, 0, 0, 1), 2),
        "requires an integral model"),
    "tate_local minimal": (  # 11a1 scaled up by u = 11
        lambda: reduction.tate_local(
            transform(WeierstrassModel(0, -1, 1, -10, -20), Isomorphism(Fraction(1, 11))), 11),
        "not minimal at 11"),
    "p_adic_valuation n": (lambda: p_adic_valuation(0, 2), "valuation undefined"),
    "p_adic_valuation p": (lambda: p_adic_valuation(12, 6), "must be prime"),
    "radical n": (lambda: intarith.radical(0), "radical undefined"),
    "is_squarefree n": (lambda: is_squarefree(0), "squarefree test undefined"),
    "is_cubefree n": (lambda: intarith.is_cubefree(0), "cubefree test undefined"),
    "Poly power": (lambda: X ** -1, "negative polynomial power"),
}


@pytest.mark.parametrize("case", REJECTED_ARGUMENTS)
def test_rejected_argument_raises_validation_error(case):
    # One exception type for rejected input, whatever the layer.
    call, message = REJECTED_ARGUMENTS[case]
    with pytest.raises(ValidationError, match=message) as exc:
        call()
    assert exc.type is ValidationError


def test_validation_error_is_defined_once():
    # families re-exports the class that the lowest module defines.
    assert families.ValidationError is intarith.ValidationError
    assert issubclass(ValidationError, ValueError)


class TestSingularity:
    """validate_params decides singularity from FamilyId.delta, so delta_T
    must vanish exactly where the family discriminant does."""

    def test_delta_base_has_the_discriminant_radical(self):
        sympy = pytest.importorskip("sympy")
        a, b, c, d, e = sympy.symbols("a b c d e")

        def radical(expr, gens):
            # The irreducible nonconstant factors, sign-normalized.
            out = set()
            for f, _ in sympy.factor_list(sympy.expand(expr), *gens)[1]:
                poly = sympy.Poly(f, *gens)
                if not poly.is_ground:
                    out.add(-poly if poly.LC() < 0 else poly)
            return out

        for name in FAMILIES:
            if name == "C3_0":
                continue
            forced_nonzero = set()
            if name == "C3":  # a = c^3 d^2 e with c, d, e >= 1
                gens, margs, dargs = (c, d, e, b), (c**3 * d**2 * e, b), (c, d, e, b)
                forced_nonzero = {sympy.Poly(c, *gens)}
            elif name == "C4":  # a = c^2 d
                gens, margs, dargs = (c, d, b), (c**2 * d, b), (c, d, b)
            elif FAMILIES[name].arity == 3:
                gens = margs = dargs = (a, b, d)
            else:
                gens = margs = dargs = (a, b)
            coeffs = [sympy.Poly(x, *gens) for x in FAMILIES[name].model(*margs)]
            disc = compute_invariants(WeierstrassModel(*coeffs)).delta.as_expr()
            rad_disc = radical(disc, gens)
            rad_base = radical(FAMILIES[name].delta(*dargs), gens)
            assert rad_base <= rad_disc, name
            assert rad_disc - rad_base == forced_nonzero, name

    def test_c3_0_discriminant(self):
        for a in (1, 2, 7, 60):
            model = build_model(validate_params("C3_0", a))
            assert compute_invariants(model).delta == -27 * a**4


class TestDecomposition:
    def test_spec_values(self):
        assert FAMILIES["C3"].decompose(24) == (2, 1, 3)
        assert FAMILIES["C3"].decompose(1) == (1, 1, 1)
        assert FAMILIES["C4"].decompose(256) == (16, 1)

    def test_exponent_splitting_oracle(self):
        # per prime: k = 3x + 2y + z with y, z in {0,1}, never both
        for k, (x, y, z) in [
            (1, (0, 0, 1)), (2, (0, 1, 0)), (3, (1, 0, 0)), (4, (1, 0, 1)),
            (5, (1, 1, 0)), (6, (2, 0, 0)), (7, (2, 0, 1)), (8, (2, 1, 0)),
        ]:
            c, d, e = FAMILIES["C3"].decompose(2**k)
            assert (c, d, e) == (2**x, 2**y, 2**z)

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(300):
            a = rng.randrange(1, 10**6)
            c, d, e = FAMILIES["C3"].decompose(a)
            assert c**3 * d * d * e == a
            assert is_squarefree(d * e) if d * e > 1 else True
            assert math.gcd(d, e) == 1
            c2, d2 = FAMILIES["C4"].decompose(a)
            assert c2 * c2 * d2 == a
            assert d2 == 1 or is_squarefree(d2)

    def test_preconditions(self):
        assert FAMILIES["C5"].decompose(6) is None
        with pytest.raises(ValueError):
            FAMILIES["C3"].decompose(-4)


class TestModels:
    def test_table_rows(self):
        assert build_model(validate_params("C5", 1, 1)) == WeierstrassModel(
            0, -1, -1, 0, 0
        )
        assert build_model(validate_params("C2", 1, 2, 3)) == WeierstrassModel(
            0, 2, 0, -11, 0
        )
        assert build_model(validate_params("C3_0", 1)) == WeierstrassModel(
            0, 0, 1, 0, 0
        )

    def test_invariant_examples(self):
        inv = compute_invariants(build_model(validate_params("C3", 1, 1)))
        assert inv.delta == -26 and (inv.c4, inv.c6) == (-23, -181)
        inv = compute_invariants(build_model(validate_params("C5", 1, 1)))
        assert (inv.c4, inv.c6, inv.delta) == (16, -152, -11)

    def test_invariant_identity_random(self):
        rng = random.Random(7)
        for name in FAMILIES:
            for inst in random_instances(name, rng, 8):
                inv = compute_invariants(build_model(inst))
                assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta

    def test_point_orders_random(self):
        rng = random.Random(8)
        for name, fam in FAMILIES.items():
            for inst in random_instances(name, rng, 5):
                assert point_order(build_model(inst), ORIGIN) == fam.point_order


class TestURecovery:
    def test_spec_values(self):
        assert recover_uT(validate_params("C5", 1, 1)) == 1
        # a = 24 decomposes as c=2, d=1, e=3, and u = c^2 d = 4
        assert recover_uT(validate_params("C3", 24, 1)) == 4

    def test_c2xc8_set(self):
        rng = random.Random(12)
        seen = set()
        for inst in random_instances("C2xC8", rng, 40):
            seen.add(recover_uT(inst))
        assert seen <= {1, 16, 64}

    def test_c4_set(self):
        rng = random.Random(13)
        for inst in random_instances("C4", rng, 25):
            c, _ = inst.decomposition
            assert recover_uT(inst) in (c, 2 * c)

    def test_all_families_in_allowed_set(self):
        rng = random.Random(14)
        for name, fam in FAMILIES.items():
            if name in ("C3", "C4", "C3_0"):
                continue
            for inst in random_instances(name, rng, 10):
                assert recover_uT(inst) in fam.delta_scales


class TestUKeys:
    def test_symbolic_values(self):
        # C3: a = 24 = 2^3 * 3, so c = 2, d = 1, e = 3; C4: a = 12 = 2^2 * 3
        assert u_value("c2d", validate_params("C3", 24, 5).decomposition) == 4
        assert u_value("c", (2, 3)) == 2
        assert u_value("2c", (2, 3)) == 4
        assert u_value(16, None) == 16

    def test_keys_round_trip_on_box(self):
        # Every key resolves to a u that maps back to that key, and no
        # other u is admissible, on every valid instance of the box.
        checked = 0
        for name, fam in FAMILIES.items():
            for params in iter_param_tuples(name, 8):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                admissible = set()
                for key in fam.delta_scales:
                    u = u_value(key, inst.decomposition)
                    assert families._u_key(inst, u) == key, (inst, key)
                    admissible.add(u)
                for u in range(-1, max(admissible) + 2):
                    if u not in admissible:
                        assert families._u_key(inst, u) is None, (inst, u)
                checked += 1
        assert checked > 3000


class TestDeltaEval:
    def test_spec_values(self):
        assert delta_eval(validate_params("C5", 1, 1), 1) == 11
        assert delta_eval(validate_params("C2", 1, 2, 3), 1) == 33792
        inst3 = validate_params("C3", 1, 1)
        assert delta_eval(inst3, recover_uT(inst3)) == -78

    def test_scaled_rows(self):
        # u = 2 for C2 divides the base by 64 relative to u = 1
        inst = validate_params("C2", 1, 2, 3)
        assert delta_eval(inst, 2) * 64 == delta_eval(inst, 1)
        # u = 4 is in the family's u set but not realized by this instance,
        # and the scaled polynomial stops being integral: flagged loudly.
        with pytest.raises(PaperContractViolation, match="not integral"):
            delta_eval(inst, 4)

    def test_disallowed_u(self):
        with pytest.raises(ValueError, match="not admissible"):
            delta_eval(validate_params("C5", 1, 1), 2)
        with pytest.raises(ValueError, match="not admissible"):
            delta_eval(validate_params("C3", 24, 1), 3)

    def test_integrality_over_recovered_u(self):
        rng = random.Random(15)
        for name in FAMILIES:
            if name == "C3_0":
                continue
            for inst in random_instances(name, rng, 8):
                u = recover_uT(inst)
                assert isinstance(delta_eval(inst, u), int)


    def test_integer_division_matches_fraction_product(self):
        # delta_eval divides in integers; the Fraction product it replaced
        # is the reference on every admissible u of every box-6 instance
        integral = non_integral = 0
        for name, fam in FAMILIES.items():
            for params in iter_param_tuples(name, 6):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                for key, scale in fam.delta_scales.items():
                    u = u_value(key, inst.decomposition)
                    scaled = scale * fam.delta(*inst.delta_args)
                    if scaled.denominator == 1:
                        assert delta_eval(inst, u) == int(scaled), (inst, u)
                        integral += 1
                        continue
                    text = f"delta_({name},{u}) at {inst} is not integral: {scaled}"
                    with pytest.raises(PaperContractViolation) as exc:
                        delta_eval(inst, u)
                    assert str(exc.value) == text
                    non_integral += 1
        assert integral > 3000 and non_integral > 100

    @pytest.mark.parametrize(
        "name, params, text",
        [
            ("C5", (1, 1), "delta_(C5,1) at C5(1, 1) is not integral: 11/7"),
            ("C6", (1, -2), "delta_(C6,1) at C6(1, -2) is not integral: -34/7"),
        ],
    )
    def test_non_integral_scale_keeps_its_text(self, name, params, text, monkeypatch):
        inst = validate_params(name, *params)
        monkeypatch.setitem(FAMILIES[name].delta_scales, 1, Fraction(1, 7))
        with pytest.raises(PaperContractViolation) as exc:
            delta_eval(inst, 1)
        assert str(exc.value) == text
        if name == "C5":
            assert f"{inst}: {text}" in check_instance(inst).findings


class TestConductorBound:
    """The conductor bound as check_instance decides it."""

    def test_c5_equality(self):
        inst = validate_params("C5", 1, 1)
        rep = check_instance(inst, checks=("bounds",))
        assert rep.ok and rep.conductor == 11 and rep.delta_bound == 11
        (local,) = analyze(build_model(inst)).local
        assert (local.p, local.fp) == (11, 1)
        assert p_adic_valuation(rep.delta_bound, 11) == 1

    def test_c3_0(self):
        rep = check_instance(validate_params("C3_0", 1), checks=("bounds",))
        assert rep.ok and rep.conductor == 27 and rep.delta_bound == 27

    def test_minimal_discriminant_primes_divide_delta(self):
        rng = random.Random(16)
        for name in FAMILIES:
            if name in ("C3_0", "C2xC6"):
                continue
            for inst in random_instances(name, rng, 6):
                u = recover_uT(inst)
                dv = delta_eval(inst, u)
                mm = minimal_model(build_model(inst))
                for p, _ in factorize(mm.delta_min):
                    assert dv % p == 0, (inst, p)

    def test_known_counterexample_reported_not_raised(self):
        # The published per-prime bound fails at p = 2 for this parameter
        # class; the checker must return findings rather than hide them.
        rep = check_instance(validate_params("C2xC6", 1, 2), checks=("bounds",))
        assert not rep.ok
        assert rep.conductor == 210 and rep.delta_bound == 105
        assert rep.findings == (
            "C2xC6(1, 2): v_2(N) = 1 > v_2(delta) = 0",
            "C2xC6(1, 2): conductor 210 > bound 105",
        )

    def test_c2xc6_odd_b_clean(self):
        rep = check_instance(validate_params("C2xC6", 1, 7), checks=("bounds",))
        assert rep.ok, rep.findings
