"""Heights, ratios, and the phi machinery."""

import math
import os
import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szpirolab import bounds
from szpirolab.bounds import (
    PHI_FAMILIES,
    PhiSpec,
    PhiValue,
    all_phi_specs,
    exceeds,
    homogeneity_check,
    leading_dominance,
    phi_eval,
    phi_scan,
    phi_scans,
    phi_spec,
    szpiro_ratio,
    verify_height_bound,
)
from szpirolab.families import (
    FAMILIES,
    ValidationError,
    build_model,
    delta_eval,
    recover_uT,
    validate_params,
)
from szpirolab.intarith import FactorBudgetError
from szpirolab.poly import Poly, X, evaluate
from szpirolab.reduction import analyze, height_of_minimal, minimal_model
from szpirolab.sharpness import SHARP_FAMILIES, build_FT
from szpirolab.sweeps import check_instance, iter_param_tuples
from szpirolab.weierstrass import (
    CertificateError,
    SingularModelError,
    WeierstrassModel,
    compute_invariants,
)

C5_11 = WeierstrassModel(0, -1, -1, 0, 0)
CURVE_11A1 = WeierstrassModel(0, -1, 1, -10, -20)


class TestExponentTable:
    def test_values(self):
        expected = {
            "C1": Fraction(1),
            "C2": Fraction(3, 2),
            "C3": Fraction(2),
            "C3_0": Fraction(2),
            "C2xC2": Fraction(2),
            "C4": Fraction(12, 5),
            "C5": Fraction(3),
            "C6": Fraction(3),
            "C2xC4": Fraction(3),
            "C7": Fraction(4),
            "C8": Fraction(4),
            "C2xC6": Fraction(4),
            "C9": Fraction(9, 2),
            "C10": Fraction(9, 2),
            "C12": Fraction(24, 5),
            "C2xC8": Fraction(24, 5),
        }
        for name, l in expected.items():
            # C1 has a sharpness sequence only; the others have both records
            exps = [t[name].l for t in (FAMILIES, SHARP_FAMILIES) if name in t]
            assert len(exps) == (1 if name in ("C1", "C3_0") else 2), name
            for exp in exps:
                assert exp == l
                assert math.gcd(exp.numerator, exp.denominator) == 1


class TestHeight:
    """max(|c4^3|, c6^2) of the global minimal model."""

    def test_c5(self):
        assert height_of_minimal(minimal_model(C5_11)) == max(16**3, 152**2) == 23104

    def test_c3_0(self):
        # c4 = 0 and c6 = -216 a^2, so the height is (216 a^2)^2
        mm = minimal_model(WeierstrassModel(0, 0, 1, 0, 0))
        assert height_of_minimal(mm) == 216**2 == 46656
        mm = minimal_model(build_model(validate_params("C3_0", 3)))
        assert height_of_minimal(mm) == (216 * 9) ** 2

    def test_sharp_c2_height(self):
        for n in (2, 5, -4):
            mm = minimal_model(build_FT("C2", n))
            assert height_of_minimal(mm) == abs(192 * n + 1) ** 3

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            minimal_model(WeierstrassModel(0, 0, 0, 0, 0))


class TestRatio:
    def test_c5(self):
        sigma = szpiro_ratio(C5_11)
        assert abs(sigma - math.log(23104) / math.log(11)) < 1e-12
        assert round(sigma, 4) == 4.1902

    def test_11a1(self):
        sigma = szpiro_ratio(CURVE_11A1)
        assert abs(sigma - 2 * math.log(20008) / math.log(11)) < 1e-12
        assert round(sigma, 4) == 8.2605

    def test_always_above_one(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            coeffs = [rng.randrange(-9, 10) for _ in range(5)]
            m = WeierstrassModel(*coeffs)
            try:
                assert szpiro_ratio(m) > 1
                assert exceeds(m, Fraction(1, 1))
            except SingularModelError:
                continue
            checked += 1


class TestExceeds:
    def test_c5_against_three(self):
        assert exceeds(C5_11, Fraction(3, 1))

    def test_c3_0_against_two(self):
        m = WeierstrassModel(0, 0, 1, 0, 0)
        assert height_of_minimal(minimal_model(m)) == 46656 > 27**2
        assert exceeds(m, Fraction(2, 1))

    def test_agrees_with_float_away_from_threshold(self):
        rng = random.Random(21)
        for name in ("C5", "C6", "C8"):
            done = 0
            while done < 10:
                a = rng.randrange(1, 25)
                b = rng.randrange(-25, 25)
                try:
                    inst = validate_params(name, a, b)
                except ValidationError:
                    continue
                m = build_model(inst)
                sigma = szpiro_ratio(m)
                for l in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(9, 2)):
                    if abs(sigma - float(l)) > 1e-9:
                        assert exceeds(
                            m, Fraction(l.numerator, l.denominator)
                        ) == (sigma > float(l))
                done += 1


class TestPhi:
    def test_branch_count(self):
        specs = all_phi_specs()
        assert len(specs) == 28
        by_family = {}
        for s in specs:
            by_family.setdefault(s.family.name, []).append(s.u_key)
        assert sorted(by_family["C4"]) == ["2c", "c"]
        assert sorted(by_family["C2"]) == [1, 2, 4]
        assert by_family["C3"] == ["c2d"]

    def test_phi_c5_at_zero(self):
        val = phi_eval(phi_spec("C5", 1), 0)
        assert val.sign == 1 and val.exact == 1

    def test_prefactors(self):
        assert phi_spec("C3", "c2d").prefactor == 1
        assert phi_spec("C4", "c").prefactor == 1
        assert phi_spec("C4", "2c").prefactor == Fraction(1, 2**12)
        assert phi_spec("C2", 4).prefactor == Fraction(1, 4**12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            phi_spec("C5", 2)
        with pytest.raises(ValueError):
            phi_spec("C3_0", 1)
        for name in ("C1", "C2x6"):
            with pytest.raises(ValidationError, match="unknown family"):
                phi_spec(name, 1)

    def test_small_grids_nonnegative(self):
        for spec in all_phi_specs():
            res = phi_scan(spec, denominator=8, x_range=3)
            assert res.violations == (), spec.label
            assert res.zeros == (), spec.label

    def test_scan_arguments_rejected(self):
        spec = phi_spec("C5", 1)
        with pytest.raises(ValueError, match="x_range"):
            phi_scan(spec, 16, -1)
        with pytest.raises(ValueError, match="x_range"):
            phi_scan(spec, 16, Fraction(-1, 32))
        with pytest.raises(ValueError, match="denominator"):
            phi_scan(spec, 0, 1)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="worker count must be >= 1"):
                phi_scan(spec, 16, 1, jobs=jobs)
        assert phi_scan(spec, 16, 0).points == 1

    def test_c2xc4_minimum_shrinks_with_refinement(self):
        spec = phi_spec("C2xC4", 2)
        coarse = phi_scan(spec, 64, 2)
        fine = phi_scan(spec, 1024, 2)
        assert coarse.violations == () and fine.violations == ()
        # exact rationals here because l = 3 is an integer
        assert 0 < fine.min_exact < coarse.min_exact
        assert abs(float(fine.argmin) - (1 - math.sqrt(5)) / 8) < 0.01 or abs(
            float(fine.argmin) - (1 + math.sqrt(5)) / 8
        ) < 0.01 or abs(float(fine.argmin) + (3 - math.sqrt(5)) / 8) < 0.01 or abs(
            float(fine.argmin) + (3 + math.sqrt(5)) / 8
        ) < 0.01

    def test_parallel_scan_matches_serial(self, forked_workers):
        spec = phi_spec("C6", 2)
        serial = phi_scan(spec, 256, 10, jobs=1)
        assert forked_workers == []
        parallel = phi_scan(spec, 256, 10, jobs=2)
        assert len(forked_workers) == 1
        assert serial.points == 5121
        assert serial == parallel
        # a criterion 5 sized grid stays in process: one pool start costs
        # more than it saves
        small = phi_scan(spec, 128, 10, jobs=2)
        assert len(forked_workers) == 1
        assert small.points == 2561
        assert small == phi_scan(spec, 128, 10, jobs=1)

    def test_tail_dominance_all_branches(self):
        for spec in all_phi_specs():
            rep = leading_dominance(spec)
            assert rep.dominant, spec.label
            # both sides cover the same tail degree or the max side wins on degree
            assert rep.max_side_degree >= rep.bound_side_degree


def _safe_float(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_power(base, p, q):
    """base^(p/q) for a Fraction base >= 0, from the logs of its numerator
    and denominator."""
    if base == 0:
        return 0.0
    logv = math.log(base.numerator) - math.log(base.denominator)
    try:
        return math.exp(logv * p / q)
    except OverflowError:
        return math.inf


def _fraction_phi_eval(spec, x):
    """Reference: phi at x from a Fraction model and its invariants, with no
    polynomial cache and no cleared denominators."""
    x = Fraction(x)
    alpha, beta, dbase = bounds._forms_at(bounds._pattern(spec.family, x))
    delta_u = spec.family.delta_scales[spec.u_key] * Fraction(dbase)
    big = spec.prefactor * max(abs(Fraction(alpha)) ** 3, Fraction(beta) ** 2)
    p, q = spec.family.l.numerator, spec.family.l.denominator
    lhs_pow = big**q
    rhs_pow = abs(delta_u) ** p
    sign = (lhs_pow > rhs_pow) - (lhs_pow < rhs_pow)
    exact = big - rhs_pow if q == 1 else None
    approx = _safe_float(big) - _float_power(abs(delta_u), p, q)
    return PhiValue(x, sign, approx, exact)


_ORACLE_POINTS = (
    0,
    -1,
    Fraction(-3, 2),
    Fraction(4, 16),
    Fraction(-6, 16),
    Fraction(12, 16),
    "10/16",
    3,
    Fraction(5, 7),
    Fraction(-22, 7),
    Fraction(1, 1024),
    Fraction(-1023, 1024),
    999_999,
    -(10**6),
    Fraction(10**6 + 1, 7),
    Fraction(-(10**6) + 3, 1024),
)


class TestIntegerPhiEval:
    """phi_eval in cleared-denominator integers against the Fraction model."""

    def _assert_same(self, spec, x):
        got, want = phi_eval(spec, x), _fraction_phi_eval(spec, x)
        assert got.x == want.x, (spec.label, x)
        assert got.sign == want.sign, (spec.label, x)
        assert got.exact == want.exact, (spec.label, x)
        assert repr(got.approx) == repr(want.approx), (spec.label, x)

    def test_matches_fraction_reference_on_every_branch(self):
        for spec in all_phi_specs():
            for x in _ORACLE_POINTS:
                self._assert_same(spec, x)

    def test_hand_built_spec(self):
        # prefactor, exponent and delta scale are read from the spec and its
        # family
        rescaled = FAMILIES["C5"]._replace(delta_scales={1: Fraction(3, 5)})
        branches = ((FAMILIES["C5"], 1), (rescaled, 1), (FAMILIES["C2"], 4), (FAMILIES["C4"], "2c"))
        exps = ((Fraction(3, 7), Fraction(7, 2)), (Fraction(-2), Fraction(2, 1)))
        for fam, key in branches:
            for pre, exp in exps:
                spec = PhiSpec(fam._replace(l=exp), key, pre)
                for x in (0, Fraction(-5, 3), Fraction(7, 16), 40):
                    self._assert_same(spec, x)

    def test_non_integral_coefficient_raises(self, monkeypatch):
        bounds._phi_polys.cache_clear()
        c5 = FAMILIES["C5"]
        halved = c5._replace(delta=lambda *a: Fraction(1, 2) * c5.delta(*a))
        monkeypatch.setitem(FAMILIES, "C5", halved)
        try:
            with pytest.raises(CertificateError, match="non-integral"):
                phi_eval(phi_spec("C5", 1), Fraction(1, 3))
            with pytest.raises(CertificateError, match="non-integral"):
                leading_dominance(phi_spec("C5", 1))
        finally:
            bounds._phi_polys.cache_clear()


def _phi_key(val):
    return val.approx if val.exact is None else val.exact


def _reference_scan(spec, den, x_range):
    """Test-only reference: phi_eval at every Fraction(k, den), and the
    first point with the least key (the exact value when l is an integer)
    is the argmin."""
    k_max = int(Fraction(x_range) * den)
    vals = [phi_eval(spec, Fraction(k, den)) for k in range(-k_max, k_max + 1)]
    best = min(vals, key=_phi_key)
    return bounds.PhiScanResult(
        len(vals),
        tuple(v.x for v in vals if v.sign < 0),
        tuple(v.x for v in vals if v.sign == 0),
        best.approx if best.exact is None else _safe_float(best.exact),
        best.x,
        best.exact,
    )


class TestPhiScanKernel:
    """phi_scan's one integer loop per grid against phi_eval point by point."""

    def _assert_same(self, spec, den, x_range):
        got, want = phi_scan(spec, den, x_range), _reference_scan(spec, den, x_range)
        assert got == want, (spec.label, den, x_range)
        assert repr(got.min_approx) == repr(want.min_approx), (spec.label, den, x_range)

    @pytest.mark.parametrize("den, x_range", [(64, 20), (7, 5), (1, 50), (3, 1)])
    def test_matches_point_by_point_scan_on_every_branch(self, den, x_range):
        for spec in all_phi_specs():
            self._assert_same(spec, den, x_range)

    def test_hand_built_spec_with_violations_and_zeros(self):
        # this prefactor makes phi[C5] vanish at x = +-1 and go negative at 3/2
        c5 = FAMILIES["C5"]
        spec = PhiSpec(c5, 1, Fraction(1331, 23104))
        res = phi_scan(spec, 2, 3)
        assert res.violations == (Fraction(3, 2),)
        assert res.zeros == (-1, 1)
        self._assert_same(spec, 2, 3)
        self._assert_same(spec, 16, 4)
        # the same prefactor with a fractional exponent: float argmin keys
        c5_7_2 = c5._replace(l=Fraction(7, 2))
        self._assert_same(PhiSpec(c5_7_2, 1, spec.prefactor), 16, 4)

    def test_flipped_sign_at_one_grid_point_is_reported(self, monkeypatch):
        spec = phi_spec("C5", 1)
        good = phi_scan(spec, 8, 3)
        assert good.violations == () and good.min_exact > 0
        real = bounds._PhiKernel.gap

        def flipped_at_zero(kern, big_num, del_num):
            gap = real(kern, big_num, del_num)
            return -gap if (big_num, del_num) == kern.terms(0) else gap

        monkeypatch.setattr(bounds._PhiKernel, "gap", flipped_at_zero)
        bad = phi_scan(spec, 8, 3)
        assert bad.violations == (0,)
        assert (bad.argmin, bad.min_exact) == (0, -1)
        assert bad != good

    @pytest.mark.parametrize("name", ["C2", "C12"])
    def test_flipped_sign_on_a_fractional_l_branch_is_reported(self, name, monkeypatch):
        # l = 3/2 and 24/5: the scan's signs come from _PhiKernel.sign.
        # phi[C12] is symmetric about x = 1/2, so x = 1 has the terms of
        # x = 0; the flip hits the first point with them, which the
        # ascending scan reaches at x = 0.
        spec = phi_spec(name, 1)
        assert spec.family.l.denominator > 1
        good = phi_scan(spec, 8, 3)
        assert good.violations == () and good.zeros == ()
        real = bounds._PhiKernel.sign
        flipped = []

        def flipped_at_zero(kern, big_num, del_num):
            sign = real(kern, big_num, del_num)
            if not flipped and (big_num, del_num) == kern.terms(0):
                flipped.append(sign)
                return -sign
            return sign

        monkeypatch.setattr(bounds._PhiKernel, "sign", flipped_at_zero)
        bad = phi_scan(spec, 8, 3)
        assert flipped == [1]
        assert bad.violations == (0,)
        assert bad.zeros == ()
        assert bad != good

    def test_float_key_beyond_the_float_range_has_the_exact_sign(self):
        # From x = 8,494,848 on, both float terms of phi[C12, u=1] overflow;
        # their difference was NaN, which no key compares below.
        spec = phi_spec("C12", 1)
        val = phi_eval(spec, 10**7)
        assert val.sign == 1 and val.approx == math.inf
        kern = bounds._PhiKernel(spec, 1)
        assert bounds._scan_chunk(kern, range(10**7, 10**7 + 4)) == ([], [], (math.inf, 10**7))
        # a larger exponent makes phi negative there: -inf, not NaN
        steep = PhiSpec(spec.family._replace(l=Fraction(29, 5)), 1, spec.prefactor)
        val = phi_eval(steep, 10**7)
        assert val.sign == -1 and val.approx == -math.inf

    def test_one_kernel_per_scan(self, monkeypatch, forked_workers):
        # the argmin's PhiValue comes from the kernel that scanned the grid
        built = []
        real = bounds._PhiKernel.__init__

        def counted(kern, spec, den):
            built.append(den)
            real(kern, spec, den)

        monkeypatch.setattr(bounds._PhiKernel, "__init__", counted)
        spec = phi_spec("C6", 2)
        phi_scan(spec, 64, 3)
        assert built == [64] and forked_workers == []
        assert phi_scan(spec, 256, 10, jobs=2).points == 5121
        assert len(forked_workers) == 1
        assert built == [64, 256]


def _reference_chunk(kern, ks):
    """Test-only reference for bounds._scan_chunk: kern.terms (Horner) and
    kern.gap at every k, with the key of _scan_chunk."""
    violations, zeros, best = [], [], None
    for k in ks:
        big_num, del_num = kern.terms(k)
        gap = kern.gap(big_num, del_num)
        if gap < 0:
            violations.append(k)
        elif gap == 0:
            zeros.append(k)
        key = gap if kern.q == 1 else kern.approx(big_num, del_num)
        if best is None or key < best[0]:
            best = (key, k)
    return violations, zeros, best


# chunks that start below 0, at 0 and above 0, one-point chunks, and
# chunks longer than every difference table (beta of C12 has degree 24)
_CHUNKS = (
    range(-30, 11), range(-7, -2), range(0, 40), range(0, 1), range(17, 57),
    range(-1, 0), range(5, 6), range(-160, -120), range(120, 161),
)


class TestSteppedScan:
    """_scan_chunk's forward differences against Horner at every point, in
    process, on chunks like those a pool receives."""

    @pytest.mark.parametrize("den", [1, 16])
    def test_chunks_match_point_by_point_loop_on_every_branch(self, den):
        for spec in all_phi_specs():
            kern = bounds._PhiKernel(spec, den)
            for ks in _CHUNKS:
                got = bounds._scan_chunk(kern, ks)
                assert got == _reference_chunk(kern, ks), (spec.label, den, ks)

    @pytest.mark.parametrize("den", [1, 16])
    def test_stepped_values_are_horner_values(self, den):
        for spec in all_phi_specs():
            kern = bounds._PhiKernel(spec, den)
            for coeffs in (kern.alpha, kern.beta, kern.dbase):
                for ks in _CHUNKS:
                    stepped = bounds._stepped(coeffs, ks.start)
                    got = [value for _, value in zip(ks, stepped)]
                    assert got == [evaluate(coeffs, k) for k in ks], (spec.label, ks)

    def test_constant_and_zero_polynomials(self):
        for coeffs in ((), (0,), (7,), (-3, 2)):
            stepped = bounds._stepped(coeffs, -4)
            assert [next(stepped) for _ in range(9)] == [
                evaluate(coeffs, k) for k in range(-4, 5)
            ]


# every l of the fifteen families, as (p, q)
_EXPONENTS = sorted({(fam.l.numerator, fam.l.denominator) for fam in FAMILIES.values()})


class _CountingKernel(bounds._PhiKernel):
    """A _PhiKernel that counts its exact gap evaluations."""

    __slots__ = ("exact_gaps",)

    def gap(self, big_num, del_num):
        self.exact_gaps += 1
        return super().gap(big_num, del_num)


def _sign_kernel(p, q, del_den_p, big_den_q):
    """A kernel shell holding only what sign and gap read."""
    kern = object.__new__(_CountingKernel)
    kern.p, kern.q, kern.del_den_p, kern.big_den_q = p, q, del_den_p, big_den_q
    kern.exact_gaps = 0
    return kern


def _exact_sign(x, y, p, q, D, B):
    gap = x**q * D - y**p * B
    return (gap > 0) - (gap < 0)


@st.composite
def _with_length(draw, length):
    """An integer of exactly `length` bits, its extremes included."""
    return draw(st.integers(min_value=1 << (length - 1), max_value=(1 << length) - 1))


@st.composite
def _at_length_boundary(draw, mirror):
    """(p, q, x, y, D, B) whose bit lengths sit exactly on the rule's
    boundary: q len(x) + len(D) = p (len(y) - 1) + len(B) - 1, or with
    mirror, p len(y) + len(B) = q (len(x) - 1) + len(D) - 1."""
    p, q = draw(st.sampled_from(_EXPONENTS))
    lengths = st.integers(min_value=1, max_value=80)
    lx, ly, shorter = draw(lengths), draw(lengths), draw(lengths)
    # len(D) - len(B) on the boundary
    c = p * ly - q * (lx - 1) + 1 if mirror else p * (ly - 1) - 1 - q * lx
    ld, lb = (shorter + c, shorter) if c >= 0 else (shorter, shorter - c)
    x, y, D, B = (draw(_with_length(n)) for n in (lx, ly, ld, lb))
    return p, q, x, y, D, B


class TestGapSign:
    """_PhiKernel.sign, the bit-length rule, against the exact sign of
    x^q D - y^p B."""

    @given(
        st.sampled_from(_EXPONENTS),
        st.integers(min_value=0, max_value=1 << 160),
        st.integers(min_value=0, max_value=1 << 160),
        st.integers(min_value=1, max_value=1 << 400),
        st.integers(min_value=1, max_value=1 << 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_sign(self, l, x, y, D, B):
        p, q = l
        assert _sign_kernel(p, q, D, B).sign(x, y) == _exact_sign(x, y, p, q, D, B)

    @given(_at_length_boundary(mirror=False))
    @settings(max_examples=300, deadline=None)
    def test_negative_boundary(self, case):
        # decided by bit lengths; one bit more of D is not enough
        p, q, x, y, D, B = case
        kern = _sign_kernel(p, q, D, B)
        assert kern.sign(x, y) == _exact_sign(x, y, p, q, D, B) == -1
        assert kern.exact_gaps == 0
        longer = _sign_kernel(p, q, D << 1, B)
        assert longer.sign(x, y) == _exact_sign(x, y, p, q, D << 1, B)
        assert longer.exact_gaps == 1

    @given(_at_length_boundary(mirror=True))
    @settings(max_examples=300, deadline=None)
    def test_positive_boundary(self, case):
        # decided by bit lengths; one bit more of B is not enough
        p, q, x, y, D, B = case
        kern = _sign_kernel(p, q, D, B)
        assert kern.sign(x, y) == _exact_sign(x, y, p, q, D, B) == 1
        assert kern.exact_gaps == 0
        longer = _sign_kernel(p, q, D, B << 1)
        assert longer.sign(x, y) == _exact_sign(x, y, p, q, D, B << 1)
        assert longer.exact_gaps == 1

    @given(
        st.sampled_from(_EXPONENTS),
        st.integers(min_value=0, max_value=1 << 160),
        st.integers(min_value=1, max_value=1 << 400),
        st.integers(min_value=1, max_value=1 << 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_terms_take_the_exact_gap(self, l, v, D, B):
        p, q = l
        for x, y in ((0, v), (v, 0), (0, 0)):
            kern = _sign_kernel(p, q, D, B)
            assert kern.sign(x, y) == _exact_sign(x, y, p, q, D, B)
            assert kern.exact_gaps == 1

    def test_census_of_the_fractional_l_branches(self):
        # den 16, range 10: the phi_grid benchmark grid
        specs = [s for s in all_phi_specs() if s.family.l.denominator > 1]
        assert len(specs) == 13
        points = exact = 0
        for spec in specs:
            kern = _CountingKernel(spec, 16)
            kern.exact_gaps = 0
            for k in range(-160, 161):
                big_num, del_num = kern.terms(k)
                gap = bounds._PhiKernel.gap(kern, big_num, del_num)
                assert kern.sign(big_num, del_num) == (gap > 0) - (gap < 0), (spec.label, k)
                points += 1
            exact += kern.exact_gaps
        assert points == 4173
        # bit lengths settle most points
        assert 0 < exact < points // 5


def _logged_part(log, part):
    """A fan_out part: appends its index and process id to log, and
    returns the index.  The sleep lets the workers claim parts while the
    caller works."""
    (index,) = part
    with open(log, "a") as out:
        out.write(f"{index} {os.getpid()}\n")
    time.sleep(0.01)
    return index


def _raising_part(caller, raise_in_caller, part):
    """Raises in every part run by the process caller (raise_in_caller)
    or by any other process (not raise_in_caller)."""
    time.sleep(0.01)
    if (os.getpid() == caller) == raise_in_caller:
        raise ArithmeticError(f"part {part[0]} in {'caller' if raise_in_caller else 'worker'}")
    return part[0]


def _in_workers(caller, fail, part):
    """fail(index) in every part that a process other than caller computes;
    the caller's parts return their index."""
    time.sleep(0.01)
    if os.getpid() != caller:
        fail(part[0])
    return part[0]


def _raise(error):
    raise error


class _Unpicklable(Exception):
    """An error that a worker cannot pickle: it holds a lambda."""

    def __init__(self, text):
        super().__init__(text)
        self.hook = lambda: None


def _no_child_left():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOut:
    """bounds.fan_out with jobs >= 2: jobs - 1 forked workers and the caller
    share the parts; every worker is reaped before the call returns."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a fan_out that hangs fails its test and not the whole run
        def expired(signum, frame):
            raise TimeoutError("fan_out did not return within 60 s")

        before = signal.signal(signal.SIGALRM, expired)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_every_part_once_in_order(self, jobs, tmp_path, forked_workers):
        log = tmp_path / "parts.log"
        parts = 6 * jobs
        assert bounds.fan_out(_logged_part, list(range(parts)), jobs, parts, log) == list(
            range(parts)
        )
        runs = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(index) for index, _ in runs) == list(range(parts))
        # the caller computes at least one part, and the workers compute the rest
        pids = {int(pid) for _, pid in runs}
        assert os.getpid() in pids and pids <= {os.getpid(), *forked_workers}
        assert len(forked_workers) == jobs - 1
        _no_child_left()

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "worker"])
    def test_exception_in_a_part_propagates(self, jobs, in_caller, forked_workers):
        with pytest.raises(ArithmeticError, match="caller" if in_caller else "worker"):
            bounds.fan_out(
                _raising_part, list(range(8)), jobs, 8, os.getpid(), in_caller
            )
        assert len(forked_workers) == jobs - 1
        _no_child_left()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_that_dies_is_reported(self, jobs, forked_workers):
        with pytest.raises(bounds.WorkerError, match="exit status 3"):
            bounds.fan_out(
                _in_workers, list(range(8)), jobs, 8, os.getpid(), lambda i: os._exit(3)
            )
        assert len(forked_workers) == jobs - 1
        _no_child_left()

    def test_unpicklable_worker_error_is_reported(self, forked_workers):
        with pytest.raises(bounds.WorkerError, match="_Unpicklable: part [1-7] in worker"):
            bounds.fan_out(
                _in_workers, list(range(8)), 2, 8, os.getpid(),
                lambda i: _raise(_Unpicklable(f"part {i} in worker")),
            )
        assert len(forked_workers) == 1
        _no_child_left()

    def test_budget_error_in_a_worker_keeps_its_fields(self, forked_workers):
        with pytest.raises(FactorBudgetError) as exc:
            bounds.fan_out(
                _in_workers, list(range(8)), 2, 8, os.getpid(),
                lambda i: _raise(FactorBudgetError(i, ((2, 1),), 91)),
            )
        assert 1 <= exc.value.n < 8
        assert (exc.value.partial, exc.value.cofactor) == (((2, 1),), 91)
        _no_child_left()

    @pytest.mark.parametrize("items, forks", [(10, 9), (100_000, bounds._MAX_PARTS - 1)])
    def test_at_most_one_worker_per_part_but_the_callers(self, items, forks, monkeypatch):
        # A recording fork that starts no process: every part is left to
        # the caller, and each recorded worker reads as one that returned
        # nothing.
        forked = []
        monkeypatch.setattr(os, "fork", lambda: forked.append(None) or -len(forked))
        monkeypatch.setattr(os, "waitpid", lambda pid, options: (pid, 0))
        with pytest.raises(bounds.WorkerError, match="exit status 0"):
            bounds.fan_out(len, list(range(items)), 5000, 8 * 5000)
        assert len(forked) == forks

    def test_without_fork_the_caller_computes_every_part(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert bounds.fan_out(sum, list(range(10)), 2, 4) == [3, 12, 21, 9]

    def test_one_process_makes_one_call(self, forked_workers):
        calls = []
        assert bounds.fan_out(calls.append, [1, 2, 3], 1, 8) == [None]
        assert calls == [[1, 2, 3]] and forked_workers == []

    def test_phi_scans_all_branches_in_one_pool(self, forked_workers):
        specs = all_phi_specs()
        serial = [phi_scan(spec, 256, 8, jobs=1) for spec in specs]
        assert forked_workers == [] and serial[0].points == 4097
        assert phi_scans(specs, 256, 8, jobs=2) == serial
        assert len(forked_workers) == 1
        assert phi_scans(specs[:3], 256, 8, jobs=3) == serial[:3]
        assert len(forked_workers) == 3
        assert phi_scans([], 256, 8, jobs=2) == []


def _table_forms(name, x):
    """Test-only reference: alpha, beta and delta_T along the pattern
    from explicit per-family argument tables (delta order, then the model
    arguments a = c^3 d^2 e for C3 and a = c^2 d for C4)."""
    full = {"C2": (1, 1, x), "C3": (1, 1, 1, x), "C4": (1, 1, x), "C2xC2": (1, x, 1)}
    full = full.get(name, (1, x))
    if name == "C3":
        c, d, e, b = full
        margs = (c**3 * d * d * e, b)
    elif name == "C4":
        c, d, b = full
        margs = (c * c * d, b)
    else:
        margs = full
    inv = compute_invariants(WeierstrassModel(*FAMILIES[name].model(*margs)))
    return inv.c4, inv.c6, FAMILIES[name].delta(*full)


class TestPattern:
    def test_forms_match_argument_tables(self):
        names = [name for name in FAMILIES if name != "C3_0"]
        assert len(names) == 14
        for name in names:
            for x in (X, 0, Fraction(-3, 2), 7):
                got = bounds._forms_at(bounds._pattern(FAMILIES[name], x))
                assert got == _table_forms(name, x), (name, x)

    def test_library_builds_patterns_only_with_the_indeterminate(self, monkeypatch):
        # the grid scan, the argmin, tail dominance and the homogeneity
        # identities all read the one polynomial set of _phi_polys
        args = []
        real = bounds._pattern

        def recorded(fam, x):
            args.append(x)
            return real(fam, x)

        monkeypatch.setattr(bounds, "_pattern", recorded)
        bounds._phi_polys.cache_clear()
        try:
            for spec in all_phi_specs():
                phi_scan(spec, 4, 2)
                name = spec.family.name
                for params in iter_param_tuples(name, 3):
                    try:
                        inst = validate_params(name, *params)
                    except ValidationError:  # singular
                        continue
                    assert homogeneity_check(inst), (spec.label, params)
                    break
        finally:
            bounds._phi_polys.cache_clear()
        assert len(args) == 14
        assert all(isinstance(x, Poly) for x in args), args


def _name_branch_homogeneity_data(instance):
    """Test-only reference: the former name-branch reduction of an instance
    to (x, alpha scale, beta scale, delta scale)."""
    name = instance.family.name
    m = instance.family.m
    l = instance.family.l
    if name == "C2":
        a, b, d = instance.params
        x = Fraction(b * b * d, a * a)
        base = dbase = Fraction(a)
    elif name == "C2xC2":
        a, b, d = instance.params
        x = Fraction(b, a)
        base = dbase = Fraction(a * d)
    else:
        a, b = instance.params
        x = Fraction(b, a)
        base = Fraction(a)
        dbase = Fraction(math.prod(instance.decomposition or (a,)))
    m_over_l = Fraction(m) / l
    if m_over_l.denominator != 1:
        raise CertificateError(
            f"{name}: weight m = {m} is not an integer multiple of l = {l}, "
            "so delta has no integral homogeneity scale"
        )
    return x, base ** (m // 3), base ** (m // 2), dbase ** int(m_over_l)


class TestHomogeneity:
    def test_matches_name_branch_reference_on_box_6(self):
        checked = 0
        for name in PHI_FAMILIES:
            for params in iter_param_tuples(name, 6):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                if params[0] == 0:  # C2 only: no a > 0 rule
                    continue
                got = bounds._homogeneity_data(inst)
                assert got == _name_branch_homogeneity_data(inst), inst
                assert homogeneity_check(inst), inst
                checked += 1
        assert len(PHI_FAMILIES) == 14
        assert checked == 2117

    @pytest.mark.parametrize("x", [Fraction(3), Fraction(-5, 7)])
    @pytest.mark.parametrize("name", PHI_FAMILIES)
    def test_pattern_round_trip(self, name, x):
        pattern = bounds._pattern(FAMILIES[name], x)
        assert bounds._homogeneity_data(pattern) == (x, 1, 1, 1)

    @pytest.mark.parametrize("name", PHI_FAMILIES)
    def test_exponents_have_one_entry_per_parameter(self, name):
        fam = FAMILIES[name]
        assert len(fam.x_exps) == len(fam.base_exps) == fam.arity
        assert list(fam.x_exps).count(1) == 1

    def test_spec_examples(self):
        assert homogeneity_check(validate_params("C5", 2, 3))
        assert homogeneity_check(validate_params("C2", 3, 2, 5))
        # a = 24 with decomposition (2,1,3), b = 5: the (cde) scaling branch
        inst = validate_params("C3", 24, 5)
        assert inst.decomposition == (2, 1, 3)
        assert homogeneity_check(inst)

    def test_alpha_scaling_explicitly(self):
        # alpha(2,3) = 2^4 alpha(1, 3/2) for the weight-12 family with 5-torsion
        from szpirolab.bounds import _forms_at, _pattern

        a24, _, _ = _forms_at(validate_params("C5", 2, 3))
        a_sub, _, _ = _forms_at(_pattern(FAMILIES["C5"], Fraction(3, 2)))
        assert Fraction(a24) == 16 * a_sub

    def test_c3_0_has_none(self):
        with pytest.raises(ValueError):
            homogeneity_check(validate_params("C3_0", 1))

    def test_reads_the_phi_polynomials(self, monkeypatch):
        inst = validate_params("C5", 2, 3)
        assert homogeneity_check(inst)
        real = bounds._phi_polys

        def doubled_alpha(name):
            alpha, beta, dbase = real(name)
            return 2 * alpha, beta, dbase

        monkeypatch.setattr(bounds, "_phi_polys", doubled_alpha)
        assert not homogeneity_check(inst)

    def test_non_integral_scale_raises(self):
        # explicit, so the check holds under python -O as well
        inst = validate_params("C5", 2, 3)
        bad = inst._replace(family=inst.family._replace(m=13))
        with pytest.raises(CertificateError, match="integer multiple"):
            homogeneity_check(bad)

    def test_zero_leading_parameter_rejected(self):
        inst = validate_params("C2", 0, 1, 2)
        with pytest.raises(ValueError, match="nonzero"):
            homogeneity_check(inst)


_HEIGHT_FINDING = "|delta|^l >= u^-12 max(|alpha^3|, beta^2)"


def _height_holds(inst) -> bool:
    """check_instance's height verdict, which must equal verify_height_bound
    on the bound and the height its report holds."""
    rep = check_instance(inst, checks=("bounds", "height"))
    exp = FAMILIES[inst.family.name].l
    direct = verify_height_bound(rep.delta_bound, rep.height, exp)
    assert direct == (not any(_HEIGHT_FINDING in f for f in rep.findings))
    return direct


def _family_model_height_holds(inst) -> bool:
    """Test-only reference: the published inequality from the family
    model's own invariants, |delta_{T,u}|^l < u^-12 max(|alpha|^3, beta^2),
    with delta and u recomputed; for C3_0, (27 a^2)^2 < (216 a^2)^2."""
    name = inst.family.name
    if name == "C3_0":
        a = inst.params[0]
        return (27 * a * a) ** 2 < (216 * a * a) ** 2
    u = recover_uT(inst)
    dv = delta_eval(inst, u)
    inv = compute_invariants(build_model(inst))
    big = max(abs(inv.c4) ** 3, inv.c6**2)
    exp = FAMILIES[name].l
    return abs(dv) ** exp.numerator * u ** (12 * exp.denominator) < big**exp.denominator


class TestHeightBound:
    def test_samples(self):
        assert _height_holds(validate_params("C5", 1, 1))
        assert _height_holds(validate_params("C2", 1, 2, 3))
        assert _height_holds(validate_params("C3", 24, 1))
        assert _height_holds(validate_params("C3_0", 7))

    def test_c2xc6_defect_class_still_holds(self):
        # The conductor bound breaks for this class; the height bound does not.
        assert _height_holds(validate_params("C2xC6", 1, 2))

    def test_strict_inequality(self):
        exp = Fraction(3, 2)
        assert verify_height_bound(-3, 6, exp)  # 27 < 36
        assert not verify_height_bound(6, 14, exp)  # 216 >= 196
        assert not verify_height_bound(-4, 4, Fraction(1, 1))

    def test_matches_family_model_formula(self):
        # The minimal model is the family model scaled by u, so the family
        # model's height is u^12 times the minimal one, and the two ways of
        # deciding the bound agree on every instance of the box.
        checked = 0
        for name in FAMILIES:
            for params in iter_param_tuples(name, 60 if name == "C3_0" else 6):
                try:
                    inst = validate_params(name, *params)
                except ValidationError:
                    continue
                model = build_model(inst)
                inv = compute_invariants(model)
                ca = analyze(model)
                assert max(abs(inv.c4) ** 3, inv.c6**2) == (
                    ca.mm.scaling_u**12 * ca.height
                ), inst
                assert _height_holds(inst) == _family_model_height_holds(inst), inst
                checked += 1
        assert checked > 1000
