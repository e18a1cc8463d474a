"""Exact integer arithmetic: valuations, radicals, squarefree, factoring."""

import importlib.util
import math
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szpirolab import intarith, sharpness
from szpirolab.intarith import (
    FactorBudgetError,
    ValidationError,
    factorize,
    is_cubefree,
    is_probable_prime,
    is_squarefree,
    p_adic_valuation,
    radical,
    small_primes,
)
from szpirolab.intarith import _strong_lucas, _valuation


# ---------------------------------------------------------------------------
# Independent oracles (deliberately naive; never share code with the library)


def oracle_valuation(n: int, p: int) -> int:
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def oracle_trial_factor(n: int) -> list[tuple[int, int]]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def oracle_radical(n: int) -> int:
    r = 1
    for p, _ in oracle_trial_factor(n):
        r *= p
    return r


def oracle_squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class TestValuation:
    def test_spec_values(self):
        assert p_adic_valuation(12, 2) == 2
        assert p_adic_valuation(7, 5) == 0
        # -161051 = -11^5, cross-checked against repeated division
        assert oracle_valuation(-161051, 11) == 5
        assert p_adic_valuation(-161051, 11) == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="valuation undefined"):
            p_adic_valuation(0, 2)

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            p_adic_valuation(12, 6)

    @given(
        st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0),
        st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0),
        st.sampled_from([2, 3, 5, 7, 11, 97]),
    )
    @settings(max_examples=200, deadline=None)
    def test_additive_in_products(self, m, n, p):
        assert p_adic_valuation(m * n, p) == p_adic_valuation(
            m, p
        ) + p_adic_valuation(n, p)

    def test_unchecked_valuation_agrees(self):
        # _valuation is p_adic_valuation without the prime and zero checks,
        # for callers whose p comes from factorize (or is 2 or 3)
        rng = random.Random(9299)
        primes = small_primes(200) + (1_000_003, 2**61 - 1)
        for _ in range(3000):
            p = rng.choice(primes)
            n = rng.choice((-1, 1)) * rng.randrange(1, 10**40) * p ** rng.randrange(0, 30)
            assert _valuation(n, p) == p_adic_valuation(n, p) == oracle_valuation(n, p), (n, p)


class TestRadical:
    def test_spec_values(self):
        assert radical(72) == 6
        assert radical(1) == 1
        # 33792 = 2^10 * 3 * 11, by trial factorization
        assert oracle_radical(33792) == 66
        assert radical(33792) == 66

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            radical(0)

    @given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
    @settings(max_examples=200, deadline=None)
    def test_divides_and_squarefree(self, n):
        r = radical(n)
        assert abs(n) % r == 0
        assert is_squarefree(r)

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=200, deadline=None)
    def test_squarefree_iff_radical_is_abs(self, n):
        assert is_squarefree(n) == (radical(n) == n)


class TestSquarefree:
    def test_spec_values(self):
        assert is_squarefree(8) is False
        assert is_squarefree(1) is True
        # 1365 = 3 * 5 * 7 * 13 by trial division
        assert oracle_squarefree(1365)
        assert is_squarefree(1365) is True

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(0)

    def test_against_oracle(self):
        rng = random.Random(20240)
        for _ in range(400):
            n = rng.randrange(2, 10**6)
            assert is_squarefree(n) == oracle_squarefree(n), n

    def test_cubefree(self):
        assert is_cubefree(4)
        assert not is_cubefree(8)
        assert is_cubefree(12)
        assert not is_cubefree(-27)


def _cube_rule_cases(sympy):
    """Values whose squarefree decision the cube rule makes, and values just
    past it, all built from sympy's primes (test-only)."""
    p, q, r = (sympy.nextprime(10**4 + k) for k in (0, 30, 100))  # 10007 ...
    below, above = sympy.prevprime(10**6), sympy.nextprime(10**6)
    edge = sympy.nextprime(10**12 // p)  # p * edge just above 10^12
    cases = [p * p, p * q, p * q * r, p * p * q, below**2, above**2]
    cases += [p * sympy.prevprime(10**12 // p), p * edge, 10**12 - 11, 10**12 + 39]
    semiprimes = [p * q, 10007 * 1000003, 99991 * 999983, below * above]
    cases += [s * t * t * c for s in semiprimes for t in (2, 3, 7, 97, 9973) for c in (1, 5)]
    cases += [s * t for s in semiprimes for t in (6, 30, 9973)]
    return cases + [-n for n in cases]


class TestCubeRule:
    """A cofactor below _TRIAL_BOUND**3 is 1, p, p^2 or pq: isqrt decides it."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in _cube_rule_cases(sympy):
            expected = all(e == 1 for e in sympy.factorint(abs(n)).values())
            assert is_squarefree(n) == expected, n
            assert intarith._is_squarefree_uncached(abs(n)) == expected, n

    def test_both_sides_of_the_bound(self):
        sympy = pytest.importorskip("sympy")
        cofactors = [intarith._trial(abs(n))[1] for n in _cube_rule_cases(sympy)]
        assert any(10**8 < m < 10**12 for m in cofactors)
        assert any(m > 10**12 for m in cofactors)

    def test_matches_full_factorization(self):
        # Products of factors below 10^7 (so rho splits them at once), with
        # random squares of primes past trial division: n in [10^8, 10^30].
        rng = random.Random(2020)
        sides = {True: 0, False: 0}
        for _ in range(600):
            n = rng.randrange(2, 10**4) ** rng.choice((1, 1, 2))
            n *= intarith.small_primes(10**5)[rng.randrange(1229, 9592)] ** rng.choice((0, 1, 2))
            for _ in range(rng.randrange(1, 5)):
                n *= rng.randrange(10**4, 10**7)
            if not 10**8 <= n <= 10**30:
                continue
            sides[intarith._trial(n)[1] < intarith._TRIAL_BOUND**3] += 1
            assert is_squarefree(n) == all(e == 1 for _, e in intarith._factorize_uncached(n)), n
        assert min(sides.values()) > 100, sides

    def test_small_cofactors_never_reach_hard_factoring(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        cases = _cube_rule_cases(sympy)
        expected = {n: all(e == 1 for _, e in intarith._factorize_uncached(abs(n))) for n in cases}

        def refuse(n, out, stuck):
            raise AssertionError(f"cofactor {n} reached _factor_hard")

        monkeypatch.setattr(intarith, "_factor_hard", refuse)
        monkeypatch.setattr(intarith, "_factorize_default", intarith._factorize_uncached)
        bound = intarith._TRIAL_BOUND**3
        small = [n for n in cases if intarith._trial(abs(n))[1] < bound]
        assert len(small) > len(cases) // 2
        for n in small:
            assert intarith._is_squarefree_uncached(abs(n)) == expected[n], n
        for n in cases:
            small, m = intarith._trial(abs(n))
            if m >= bound and all(e == 1 for e in small.values()):
                with pytest.raises(AssertionError, match=f"cofactor {m} reached"):
                    intarith._is_squarefree_uncached(abs(n))

    def test_small_prime_square_decides_before_factoring(self, monkeypatch):
        # A square of a trial prime settles it; the hard cofactor is not split.
        monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 0)
        hard = PINNED[0] * PINNED[1]
        assert intarith._is_squarefree_uncached(49 * hard) is False
        with pytest.raises(FactorBudgetError) as exc:
            intarith._is_squarefree_uncached(7 * 11 * hard)
        assert exc.value.n == 7 * 11 * hard
        assert exc.value.partial == ((7, 1), (11, 1))
        assert exc.value.cofactor == hard


def parent_is_squarefree(n: int) -> bool:
    """The squarefree procedure before the gcd screen, kept as its oracle:
    trial division, the exponent check, the cube rule, then factorize."""
    small, m = intarith._trial(n)
    if any(e > 1 for e in small.values()):
        return False
    if m < intarith._TRIAL_BOUND**3:
        return m == 1 or math.isqrt(m) ** 2 != m
    return all(e == 1 for _, e in factorize(n))


def _screen_cases():
    """Trial-prime squares times hard cofactors, and distinct trial primes
    times cofactors without trial primes on both sides of 10^12."""
    rng = random.Random(414)
    trial = intarith._TRIAL_PRIMES
    past = intarith.small_primes(10**6)[len(trial):]  # primes in (10^4, 10^6)
    hard = [math.prod(PINNED)] + [p * q for p, q in HARD_SEMIPRIMES + SMALL_COFACTORS]
    cases = []
    for p in (2, 3, 9973):
        cases += [p * p * h for h in hard[:2]] + [p * h for h in hard[:2]]
    for _ in range(120):
        p = rng.choice(trial)
        others = math.prod(rng.sample(trial, rng.randrange(0, 4)))
        cases.append(p * p * others * rng.choice(hard))
    for _ in range(240):
        small = math.prod(rng.sample(trial, rng.randrange(1, 5)))
        a, b = rng.choice(past), rng.choice(past)
        cofactor = rng.choice((1, a, a * a, a * b, a * b * rng.choice(past), a * a * b))
        cases.append(small * cofactor)
    return cases


def _perfbench_workloads():
    """The benchmark's workloads module, perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _full_size_sharp_tail_factor_values():
    """The factor values of f_T(n) that the full-size sharp_tail benchmark
    workload hands to _f_is_squarefree: every sampled n and consistency n
    of each sharpness family."""
    size = _perfbench_workloads().SIZES["sharp_tail"]
    consistency = [s * n for n in range(2, size["consistency"] + 1) for s in (1, -1)]
    for fam in sharpness.SHARP_FAMILIES.values():
        for n in list(sharpness._sample_values(2, size["n_max"], size["samples"])) + consistency:
            yield fam.f_factor_values(n)


class TestSquarefreeScreen:
    """The gcd with the product of the trial primes decides a value before
    trial division whenever a trial-prime square or the cube rule does."""

    def test_against_the_parent_procedure(self):
        cases = _screen_cases()
        not_squarefree = [n for n in cases if not parent_is_squarefree(n)]
        assert 100 < len(not_squarefree) < len(cases)
        cofactors = [intarith._trial(n)[1] for n in cases]
        assert sum(10**8 < m < 10**12 for m in cofactors) > 20
        assert sum(m > 10**12 for m in cofactors) > 20
        for n in cases:
            assert intarith._is_squarefree_uncached(n) == parent_is_squarefree(n), n

    def test_full_size_sharp_tail_values(self, monkeypatch):
        # The values the workload's squarefree tests reach, in its order,
        # each answered by the oracle.
        values = []
        monkeypatch.setattr(
            intarith, "_is_squarefree_default", lambda n: values.append(n) or parent_is_squarefree(n)
        )
        for factor_values in _full_size_sharp_tail_factor_values():
            sharpness._f_is_squarefree(factor_values)
        monkeypatch.undo()
        assert len(set(values)) > 2000
        for n in values:
            assert intarith._is_squarefree_uncached(n) == parent_is_squarefree(n), n

    def test_screen_decides_without_trial_division(self, monkeypatch):
        cases = _screen_cases()
        expected = {n: parent_is_squarefree(n) for n in cases}
        bound = intarith._TRIAL_BOUND**3
        # The values that a trial-prime square or the cube rule decides.
        decided = {
            n for n in cases
            if any(e > 1 for e in intarith._trial(n)[0].values()) or intarith._trial(n)[1] < bound
        }
        assert 100 < len(decided) < len(cases)
        calls, trial = [], intarith._trial

        def counted(n):
            calls.append(n)
            return trial(n)

        monkeypatch.setattr(intarith, "_trial", counted)
        monkeypatch.setattr(intarith, "_factorize_default", intarith._factorize_uncached)
        for n in cases:
            calls.clear()
            assert intarith._is_squarefree_uncached(n) == expected[n], n
            assert calls == ([] if n in decided else [n]), n


class TestTrialDivision:
    def test_no_primes_below_two(self):
        assert small_primes(1) == small_primes(0) == () and small_primes(2) == (2,)

    def test_blocks_cover_the_trial_primes(self):
        blocks = intarith._TRIAL_BLOCKS
        assert [p for block, _ in blocks for p in block] == list(small_primes(10_000))
        assert all(len(block) == intarith._TRIAL_BLOCK for block, _ in blocks[:-1])
        assert all(product == math.prod(block) for block, product in blocks)

    def test_against_oracle(self):
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randrange(1, 10**6) * rng.choice((1, 9973, 9973**2, 10007, 10007 * 10009))
            small, m = intarith._trial(n)
            assert m * math.prod(p**e for p, e in small.items()) == n
            assert all(p <= 10_000 and e >= 1 for p, e in small.items())
            full = dict(oracle_trial_factor(n))
            assert all(full[p] == e for p, e in small.items()), n
            if m < 10**8:
                assert m == 1 or is_probable_prime(m), n
            else:
                assert oracle_trial_factor(m)[0][0] > 10_000, n


class TestFactorize:
    def test_spec_values(self):
        assert oracle_trial_factor(92928) == [(2, 8), (3, 1), (11, 2)]
        assert factorize(92928) == ((2, 8), (3, 1), (11, 2))
        assert factorize(-26) == ((2, 1), (13, 1))
        assert factorize(1) == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_round_trip_random(self):
        # 1000 random n in [2, 10^12]: multiplying back reproduces |n|.
        rng = random.Random(917)
        for _ in range(1000):
            n = rng.randrange(2, 10**12)
            f = factorize(n)
            assert math.prod(p**e for p, e in f) == n
            assert all(is_probable_prime(p) for p, _ in f)
            primes = [p for p, _ in f]
            assert primes == sorted(set(primes))

    def test_large_semiprime(self):
        p, q = 10**9 + 7, 10**9 + 9
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_prime_power(self):
        assert factorize(43**5) == ((43, 5),)
        assert factorize((10**9 + 7) ** 2) == ((10**9 + 7, 2),)

    def test_perfect_power_cofactor(self):
        # Cofactors past trial division go through the perfect-power root.
        assert factorize(10007**12) == ((10007, 12),)
        assert factorize((10007 * 10009) ** 6) == ((10007, 6), (10009, 6))

    @given(
        st.sampled_from([10007, 65537, 10**9 + 7, 2**61 - 1, 10**17 + 3]),
        st.integers(min_value=2, max_value=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_perfect_power_round_trip(self, p, k):
        assert factorize(p**k) == ((p, k),)

    def test_iroot_floor_edges(self):
        with pytest.raises(ValidationError, match="negative"):
            intarith._iroot_floor(-8, 3)
        assert intarith._iroot_floor(12345, 1) == 12345
        # the float fifth root of 854^5 - 1 rounds up to 854
        assert int((854**5 - 1) ** 0.2) == 854
        assert intarith._iroot_floor(854**5 - 1, 5) == 853

    @pytest.mark.parametrize("k", range(2, 14))
    def test_perfect_power_tries_prime_exponents_only(self, monkeypatch, k):
        def every_exponent(n):
            for j in range(2, n.bit_length() + 1):
                r = intarith._iroot_floor(n, j)
                if r < 2:
                    break
                if r**j == n:
                    return r, j
            return None

        tried = []
        real = intarith._iroot_floor
        monkeypatch.setattr(
            intarith, "_iroot_floor", lambda n, j: tried.append(j) or real(n, j)
        )
        for p in (10007, 65537, 10**9 + 7, 2**61 - 1):
            for n in (p**k, p**k + 1, p**k - 1, p**k * 10009):
                assert intarith._perfect_power(n) == every_exponent(n), (p, k, n)
            root, j = intarith._perfect_power(p**k)
            assert j == min(d for d in range(2, k + 1) if k % d == 0)
            assert root**j == p**k
        tried.clear()
        intarith._perfect_power(10007 * 10009 * 10037)
        assert tried and all(is_probable_prime(j) for j in tried)

    def test_budget_error_carries_partial(self, monkeypatch):
        # One attempt leaves a semiprime of two 57-bit primes unsplit.
        monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 1)
        hard = (10**17 + 3) * (10**17 + 13)  # both prime
        n = 12 * hard
        with pytest.raises(FactorBudgetError) as exc:
            intarith._factorize_uncached(n)
        assert exc.value.cofactor == hard
        assert exc.value.partial == ((2, 2), (3, 1))


# 90 bits with a 40-bit least factor: the slowest input of the sharp_tail
# benchmark workload while the hard cofactors were split by rho alone.
PINNED = (667654460339, 1467333083296009)

# Semiprimes p * q with a least factor of 32, 40 and 44 bits: p and q are
# the primes after random b-bit and (b + 12)-bit numbers from random.Random(16).
HARD_SEMIPRIMES = (
    (3700212151, 17250603956387),
    (3371263451, 12783613470839),
    (4066300103, 15998778318569),
    (725222994647, 3417581545599251),
    (696806297147, 2297413321698707),
    (881742171671, 3760792828511393),
    (11294332540633, 53568644384383111),
    (14253287522099, 56870877537350693),
    (16820038330093, 54295832388733877),
)

# Cofactors past trial division whose least factor has 14 to 24 bits.
SMALL_COFACTORS = (
    (10007, 10009),
    (1000003, 1000033),
    (1048583, 1099511627791),
    (16777259, 4294967311),
    (10723, 24967),
)

# Products whose rho sequence with c = 1 meets both primes in the same step,
# so the gcd is n itself; every ECM curve of the budget finds both at once too.
RHO_COLLISIONS = ((10723, 24967), (12301, 30089), (13537, 17443))


def oracle_brent_rho(n, c, max_iter):
    """Brent-cycle rho with one reduction of q per step: the walk, batch
    checkpoints and constant changes of intarith._brent_rho."""
    iterations = 0
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += min(128, r - k)
            iterations += 2 * r
            r *= 2
            if g == 1 and iterations > max_iter:
                return n
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n or iterations > max_iter:
            return g
        c += 1


def _split(p, q):
    return intarith._factorize_uncached(p * q) == ((p, 1), (q, 1))


class TestFactoringMethods:
    """Rho's short pass and the ECM curves behind it, each on its own."""

    def test_pinned_hard_input(self):
        assert _split(*PINNED)

    @pytest.mark.parametrize(
        "p, q",
        HARD_SEMIPRIMES,
        ids=[f"p{p.bit_length()}bit_{i % 3}" for i, (p, _) in enumerate(HARD_SEMIPRIMES)],
    )
    def test_hard_semiprime(self, p, q):
        assert _split(p, q)

    def test_ecm_alone_splits_the_pinned_input(self, monkeypatch):
        monkeypatch.setattr(intarith, "_brent_rho", lambda n, c, max_iter: n)
        monkeypatch.setattr(intarith, "_pm1", lambda n, b1: n)
        assert _split(*PINNED)

    def test_rho_alone_splits_small_cofactors(self, monkeypatch):
        monkeypatch.setattr(intarith, "_ecm", lambda n, sigma, b1, b2: n)
        monkeypatch.setattr(intarith, "_pm1", lambda n, b1: n)
        for p, q in SMALL_COFACTORS:
            assert _split(p, q), (p, q)

    @pytest.mark.parametrize("p, q", RHO_COLLISIONS)
    def test_rho_collision_goes_on_with_next_constant(self, p, q):
        assert intarith._brent_rho(p * q, 1, 1 << 14) in (p, q)
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert is_squarefree(p * q) and radical(p * q) == p * q

    def test_stage_2_finds_what_stage_1_misses(self):
        # sigma = 8 at b1 = 500: stage 1 alone misses p, stage 2 to 50,000 finds it.
        p, q = PINNED
        assert intarith._ecm(p * q, 8, 500, 500) == 1
        assert intarith._ecm(p * q, 8, 500, 50_000) == p

    def test_rho_walk_matches_one_reduction_per_step(self):
        # Reducing q once per two steps keeps the walk and the batch gcd
        # checkpoints, so rho returns what the one-step loop returned.
        rng = random.Random(185)
        past = intarith.small_primes(1 << 20)[1229:]
        products = [p * q for p, q in SMALL_COFACTORS + RHO_COLLISIONS + HARD_SEMIPRIMES[:3]]
        products += [rng.choice(past) * rng.choice(past) for _ in range(40)]
        for n in products:
            assert intarith._brent_rho(n, 1, 1 << 14) == oracle_brent_rho(n, 1, 1 << 14), n

    @pytest.mark.parametrize("b1", intarith._ECM_B1)
    def test_stage_2_covers_every_prime(self, b1):
        b2 = 100 * b1
        D, babies, giants = intarith._stage2_plan(b1, b2)
        assert all(j % 2 == 1 and 2 * j < D and math.gcd(j, D) == 1 for j in babies)
        reached = set(babies)  # a baby index shows in the product of the z's
        reached.update(m * D + s * j for m in giants for j in babies for s in (1, -1))
        missed = [q for q in small_primes(b2) if q > b1 and q not in reached]
        assert missed == []

    def test_curve_setup_can_find_a_factor(self):
        # sigma = 3 gives the setup denominator 16 * 4^3 * 12, which 3 divides
        assert intarith._ecm(3 * 1000003, 3, 500, 500) == 3

    def test_zero_attempts_split_nothing(self, monkeypatch):
        monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 0)
        with pytest.raises(FactorBudgetError) as exc:
            intarith._factorize_uncached(10007 * 10009)
        assert exc.value.cofactor == 10007 * 10009


# Primes p whose p - 1 is 5,000-powersmooth: 2 * 661 * 863 * 1699 * 2503
# and 2 * 523 * 4013 * 4133 * 4517.
PM1_SMOOTH = (4851728380943, 78363953836079)
# A safe prime: (q - 1) / 2 is prime, so the order of 2 mod q is not
# 5,000-smooth.
SAFE_PRIME = 754418222639987


def _recorded(monkeypatch, name):
    """Wraps intarith.<name> so each call's arguments are appended to the
    returned list."""
    calls, real = [], getattr(intarith, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(intarith, name, wrapper)
    return calls


class TestPm1:
    """Stage 1 of Pollard's p-1, between the rho pass and the ECM curves."""

    def test_premises(self):
        for p in PM1_SMOOTH:
            assert is_probable_prime(p)
            assert all(r**e <= intarith._PM1_B1 for r, e in factorize(p - 1)), p
        r = (SAFE_PRIME - 1) // 2
        assert is_probable_prime(SAFE_PRIME) and is_probable_prime(r) and r > intarith._PM1_B1
        for n in (PM1_SMOOTH[0] * SAFE_PRIME, math.prod(PM1_SMOOTH)):
            assert intarith._brent_rho(n, 1, 1 << 14) == n  # rho's pass misses both

    def test_splits_the_prime_with_smooth_p_minus_1(self, monkeypatch):
        p, q = PM1_SMOOTH[0], SAFE_PRIME
        assert intarith._pm1(p * q, intarith._PM1_B1) == p
        ecm = _recorded(monkeypatch, "_ecm")
        assert _split(p, q) and ecm == []

    def test_both_smooth_gives_n_and_ecm_goes_on(self, monkeypatch):
        p, q = PM1_SMOOTH
        assert intarith._pm1(p * q, intarith._PM1_B1) == p * q
        pm1, ecm = _recorded(monkeypatch, "_pm1"), _recorded(monkeypatch, "_ecm")
        assert _split(p, q)
        assert pm1 == [(p * q, intarith._PM1_B1)]
        assert ecm and ecm[0] == (p * q, 6, 500, 50_000)

    def test_runs_only_where_rho_misses(self, monkeypatch):
        pm1 = _recorded(monkeypatch, "_pm1")
        for p, q in SMALL_COFACTORS:
            assert _split(p, q), (p, q)
        assert pm1 == []

    def test_not_run_at_zero_attempts(self, monkeypatch):
        monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 0)
        pm1 = _recorded(monkeypatch, "_pm1")
        n = PM1_SMOOTH[0] * SAFE_PRIME
        with pytest.raises(FactorBudgetError) as exc:
            intarith._factorize_uncached(n)
        assert exc.value.cofactor == n and pm1 == []


def parent_factor_hard(n: int, out: dict[int, int]) -> None:
    """_factor_hard before the p-1 step, kept as its oracle: the rho pass,
    then one ECM curve per attempt.  A cofactor that resists the budget
    fails the test."""
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    power = intarith._perfect_power(n)
    if power is not None:
        root, k = power
        sub: dict[int, int] = {}
        parent_factor_hard(root, sub)
        for p, e in sub.items():
            out[p] = out.get(p, 0) + e * k
        return
    for attempt in range(1, intarith._RHO_ATTEMPTS + 1):
        d = intarith._brent_rho(n, 1, 1 << 14) if attempt == 1 else n
        if d == n:
            b1s = intarith._ECM_B1
            b1 = b1s[(attempt - 1) * len(b1s) // intarith._RHO_ATTEMPTS]
            d = intarith._ecm(n, attempt + 5, b1, 100 * b1)
        if 1 < d < n:
            break
    else:
        raise AssertionError(f"{n} resisted the parent's budget")
    parent_factor_hard(d, out)
    parent_factor_hard(n // d, out)


# The cofactors of the full-size sharp_tail workload that rho's short pass
# does not split (58 to 90 bits, least prime 28 to 40 bits), and the three
# of them that p-1 splits, by their least prime.
RHO_RESISTANT = (
    (158851873, 997652611),
    (317097019, 24266415937),
    (5177599729, 36649730374937),
    (2194402741, 8844209365312019),
    (11466170953, 4433785495156487),
    PINNED,
)
PM1_SPLITS = (317097019, 5177599729, 11466170953)


def _full_size_sharp_tail_hard_cofactors(monkeypatch) -> set[int]:
    """The distinct cofactors that factorize hands to _factor_hard in one
    run of the full-size sharp_tail workload from cold caches."""
    workloads = _perfbench_workloads()
    for cached, uncached in (("_factorize_default", intarith._factorize_uncached),
                             ("_is_squarefree_default", intarith._is_squarefree_uncached)):
        monkeypatch.setattr(intarith, cached, lru_cache(maxsize=None)(uncached))
    cofactors, nested, hard = set(), [], intarith._factor_hard

    def outermost(n, out, stuck):
        if not nested:
            cofactors.add(n)
        nested.append(n)
        try:
            hard(n, out, stuck)
        finally:
            nested.pop()

    monkeypatch.setattr(intarith, "_factor_hard", outermost)
    units, _ = workloads.run_workload(workloads.make_inputs("sharp_tail", 1), 1)
    assert all("sha256" in entry for entry in units.values())
    monkeypatch.undo()
    return cofactors


class TestHardCofactorOracle:
    """factorize against the attempt loop it had before p-1."""

    def test_full_size_sharp_tail_cofactors(self, monkeypatch):
        cofactors = _full_size_sharp_tail_hard_cofactors(monkeypatch)
        assert len(cofactors) == 258
        for n in cofactors:
            expected: dict[int, int] = {}
            parent_factor_hard(n, expected)
            assert factorize(n) == tuple(sorted(expected.items())), n
        # Every cofactor on which rho's pass misses a split is pinned.
        missed = set()

        def walk(n):
            if is_probable_prime(n):
                return
            power = intarith._perfect_power(n)
            if power is not None:
                return walk(power[0])
            d = intarith._brent_rho(n, 1, 1 << 14)
            if d == n:
                missed.add(n)
            else:
                walk(d)
                walk(n // d)

        for n in cofactors:
            walk(n)
        assert missed == {p * q for p, q in RHO_RESISTANT}

    @pytest.mark.parametrize(
        "p, q", RHO_RESISTANT, ids=[f"{(p * q).bit_length()}bit" for p, q in RHO_RESISTANT]
    )
    def test_rho_resistant_cofactors(self, p, q, monkeypatch):
        sympy = pytest.importorskip("sympy")
        n = p * q
        assert sympy.factorint(n) == {p: 1, q: 1}
        assert intarith._brent_rho(n, 1, 1 << 14) == n
        assert intarith._pm1(n, intarith._PM1_B1) == (p if p in PM1_SPLITS else 1)
        # p-1's split ends the first attempt; its 1 falls through to ECM.
        ecm = _recorded(monkeypatch, "_ecm")
        assert intarith._factorize_uncached(n) == ((p, 1), (q, 1))
        assert ecm[:1] == ([] if p in PM1_SPLITS else [(n, 6, 500, 50_000)])


class TestSympyOracle:
    """factorize and is_probable_prime against sympy (a test-only dependency)."""

    def test_factorize_random(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1987)
        for _ in range(300):
            n = rng.randrange(2, 1 << rng.randrange(2, 72))
            n *= rng.randrange(1, 1 << 20) ** rng.randrange(1, 4)
            assert dict(factorize(n)) == sympy.factorint(n), n

    def test_factorize_hard_cofactors(self):
        sympy = pytest.importorskip("sympy")
        assert dict(factorize(math.prod(PINNED))) == sympy.factorint(math.prod(PINNED))
        # factorint needs seconds on each of these; its answer is unique, so
        # a product of sympy-certified primes is the same check.
        for p, q in HARD_SEMIPRIMES + SMALL_COFACTORS:
            pairs = factorize(3 * p * q * q)
            assert math.prod(r**e for r, e in pairs) == 3 * p * q * q
            assert all(sympy.isprime(r) for r, _ in pairs), (p, q)
            assert pairs == ((3, 1), (p, 1), (q, 2))

    def test_is_probable_prime(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1980)
        values = [rng.randrange(2, 1 << rng.randrange(2, 100)) | 1 for _ in range(3000)]
        values += [p for pair in HARD_SEMIPRIMES + SMALL_COFACTORS for p in pair]
        values += [math.prod(PINNED), 3825123056546413051, 318665857834031151167461]
        for n in values:
            assert is_probable_prime(n) == sympy.isprime(n), n


# OEIS A014233: the least odd composite that is a strong probable prime to
# each of the first k prime bases, k = 1 .. 13.
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def oracle_strong_probable_prime(n: int, bases) -> bool:
    """n odd > 2 passes the strong test to every base in bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**i, n) != n - 1 for i in range(s)):
            return False
    return True


class TestWitnessPrefixes:
    """is_probable_prime runs the shortest proven prefix of its witnesses;
    each least pseudoprime of a prefix must reach a longer one."""

    @pytest.mark.parametrize("k", range(1, 14))
    def test_least_pseudoprime_of_each_prefix(self, k):
        n = A014233[k - 1]
        assert oracle_strong_probable_prime(n, PRIME_BASES[:k])
        # k = 13 ends the proven range: all 13 witnesses pass this
        # composite, and the strong Lucas test rejects it.
        assert not is_probable_prime(n)

    def test_agrees_with_sympy_near_each_bound(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(14233)
        for bound in sorted(set(A014233)):
            for _ in range(300):
                n = (bound + rng.randrange(-2000, 2001)) | 1
                assert is_probable_prime(n) == sympy.isprime(n), n


# OEIS A217255: the least strong Lucas pseudoprimes (Selfridge's parameters).
A217255 = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139,
)


class TestStrongLucas:
    """From the end of the proven Miller-Rabin range on, is_probable_prime
    adds a strong Lucas test with Selfridge's parameters (Baillie-PSW)."""

    def test_matches_sympy_strong_lucas(self):
        primetest = pytest.importorskip("sympy.ntheory.primetest")
        rng = random.Random(1980)
        small = range(43, 30_000, 2)
        large = [rng.randrange(A014233[-1], 10**40) | 1 for _ in range(300)]
        for n in [*small, *large]:
            if math.gcd(n, math.prod(PRIME_BASES)) == 1:
                assert _strong_lucas(n) == primetest.is_strong_lucas_prp(n), n

    def test_lucas_pseudoprimes_pass_it_and_not_miller_rabin(self):
        for n in A217255:
            assert _strong_lucas(n) and not is_probable_prime(n), n

    def test_rejects_squares(self):
        for p in (43, 1_000_003, 1_824_261_409_463):
            assert not _strong_lucas(p * p)

    def test_agrees_with_sympy_above_the_proven_range(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3317)
        lo = A014233[-1]
        values = [rng.randrange(lo, 10**40) | 1 for _ in range(3000)]
        primes = [sympy.nextprime(rng.randrange(lo, 10**40)) for _ in range(100)]
        halves = [sympy.nextprime(rng.randrange(10**12, 10**15)) for _ in range(100)]
        values += primes
        values += [p * q for p, q in zip(halves, halves[1:]) if p * q >= lo]
        values += [p * p for p in halves if p * p >= lo]
        values += [lo - 2, lo, lo + 2]
        assert sum(sympy.isprime(n) for n in values) > 150
        for n in values:
            assert is_probable_prime(n) == sympy.isprime(n), n

    def test_not_run_below_the_proven_range(self, monkeypatch):
        sympy = pytest.importorskip("sympy")

        def never(n):
            pytest.fail(f"strong Lucas test run on {n}")

        monkeypatch.setattr(intarith, "_strong_lucas", never)
        rng = random.Random(4233)
        for _ in range(2000):
            n = rng.randrange(2, A014233[-1]) | 1
            assert is_probable_prime(n) == sympy.isprime(n), n
        for n in (A014233[-1] - 2, *A014233[:-1]):
            assert is_probable_prime(n) == sympy.isprime(n), n


class TestPrimality:
    def test_small(self):
        known = set(small_primes(200))
        for n in range(200):
            assert is_probable_prime(n) == (n in known)

    def test_carmichael(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(n)

    def test_large(self):
        assert is_probable_prime(2**89 - 1)
        assert not is_probable_prime(2**87 - 1)
