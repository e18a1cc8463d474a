"""Exact integer arithmetic: valuations, radicals, squarefree, factoring."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szpirolab import intarith
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
        # Starve rho so a semiprime of two large primes resists the budget.
        monkeypatch.setattr(intarith, "_RHO_MAX_ITER", 4)
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
        assert _split(*PINNED)

    def test_rho_alone_splits_small_cofactors(self, monkeypatch):
        monkeypatch.setattr(intarith, "_ecm", lambda n, sigma, b1, b2: n)
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

    def test_curve_setup_can_find_a_factor(self):
        # sigma = 3 gives the setup denominator 16 * 4^3 * 12, which 3 divides
        assert intarith._ecm(3 * 1000003, 3, 500, 500) == 3

    def test_zero_attempts_split_nothing(self, monkeypatch):
        monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 0)
        with pytest.raises(FactorBudgetError) as exc:
            intarith._factorize_uncached(10007 * 10009)
        assert exc.value.cofactor == 10007 * 10009

    def test_iteration_cap_also_caps_ecm(self, monkeypatch):
        monkeypatch.setattr(intarith, "_RHO_MAX_ITER", 4)
        p, q = PINNED
        with pytest.raises(FactorBudgetError) as exc:
            intarith._factorize_uncached(p * q)
        assert exc.value.cofactor == p * q


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
