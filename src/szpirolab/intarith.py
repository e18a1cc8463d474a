"""Exact integer support: valuations, radicals, squarefree tests, factoring.

Everything here is deterministic.  Factoring is trial division by the
primes up to the fixed bound _TRIAL_BOUND, in blocks of _TRIAL_BLOCK
primes (one gcd with the block's product skips a block that divides
nothing).  A cofactor past it gets up to _RHO_ATTEMPTS attempts: the first
starts with a short Brent-cycle Pollard rho pass (which moves to the next
constant when it meets every prime in one step, and reduces its product
of differences once every two steps) and then stage 1 of Pollard's p-1
method to _PM1_B1 (one pow of 2 by ECM's prime-power product), and each
runs one elliptic-curve (ECM) curve with fixed parameters until a factor
is found; ECM's stage 2 takes giant steps of _ECM_D.  Miller-Rabin runs
the shortest prefix of its witnesses that is proven for n, and past the
proven range a strong Lucas test as well (Baillie-PSW).  So repeated runs
(and parallel workers) always agree.

The squarefree test decides what one gcd with the product of the trial
primes proves, without trial division: a square of a prime up to
_TRIAL_BOUND, or a cofactor free of those primes below _TRIAL_BOUND**3,
which is 1, p, p^2 or pq.  Only a larger cofactor is factored.  Both
factorizations and squarefree decisions are cached.

The module imports nothing from the package, so ValidationError, the one
type for rejected input, lives here.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

__all__ = [
    "Factorization",
    "FactorBudgetError",
    "ValidationError",
    "factorize",
    "is_cubefree",
    "is_probable_prime",
    "is_squarefree",
    "p_adic_valuation",
    "radical",
    "small_primes",
]

# Deterministic Miller-Rabin witness set; proven sufficient for all
# n < 3_317_044_064_679_887_385_961_981 (~3.3e24).  From that bound on the
# same witnesses and a strong Lucas test give a Baillie-PSW answer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# OEIS A014233: _MR_PSEUDOPRIMES[k - 1] is the least odd composite that
# passes the first k witnesses, so those k decide every n below it
# (Jaeschke 1993, Zhang-Tang 2003, Sorenson-Webster 2015).
_MR_PSEUDOPRIMES = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

_TRIAL_BOUND = 10_000
_TRIAL_BLOCK = 32
# The factoring budget of one cofactor: its attempts (a rho pass and p-1,
# then one ECM curve each).
_RHO_ATTEMPTS = 24
# Pollard p-1's stage-1 bound: one pow with an exponent of about 7,200 bits.
_PM1_B1 = 5_000
# ECM stage-1 bounds, each used for one third of the attempts.
_ECM_B1 = (500, 2_000, 11_000)
# ECM's stage-2 giant step: 72 baby points from 157 odd multiples balance
# the pair products at b2 = 100 * 500 (2310 walks 577 to keep 240).
_ECM_D = 630


class ValidationError(ValueError):
    """Rejected input; the message names the rule."""


def _require_int(name: str, value) -> None:
    """Rejects a count or bound that is not an int; a bool is not one."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, not {value!r}")


class FactorBudgetError(ArithmeticError):
    """A cofactor resisted the factoring budget.

    Carries the partial factorization and the unfactored cofactor so
    callers can report partial results instead of silently failing.
    """

    def __init__(self, n: int, partial: Factorization, cofactor: int):
        super().__init__(
            f"factoring budget exceeded for {n}: unfactored cofactor {cofactor}"
        )
        self.n = n
        self.partial = partial
        self.cofactor = cofactor

    def __reduce__(self):
        # rebuilt from its fields, so a worker process can send it back
        return type(self), (self.n, self.partial, self.cofactor)


# The prime factorization of |n|: its (p, e) pairs, primes increasing.
Factorization = tuple[tuple[int, int], ...]


@lru_cache(maxsize=8)
def small_primes(limit: int) -> tuple[int, ...]:
    """Primes <= limit by a plain byte sieve."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the fixed witness set, deterministic below ~3.3e24;
    from there on also a strong Lucas test (so Baillie-PSW).

    n is tested with the shortest prefix of the witnesses that is proven
    for it (by _MR_PSEUDOPRIMES), and with all of them past the table.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: bisect.bisect_right(_MR_PSEUDOPRIMES, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PSEUDOPRIMES[-1] or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with no prime
    factor up to 41, with Selfridge's parameters: the first D of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4 (Baillie-Wagstaff
    1980).  With n + 1 = d 2^s, a prime n has U_d = 0 or V_(d 2^r) = 0 for
    some 0 <= r < s."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would be found
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) <= |D| < n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n from k = 1 along the bits of d: doubling is
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k; with P = 1 the step to k + 1 is
    # U = (U_k + V_k) / 2, V = (D U_k + V_k) / 2, halved mod the odd n.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def p_adic_valuation(n: int, p: int) -> int:
    """Largest k with p^k | n, for n != 0 and p prime."""
    if n == 0:
        raise ValidationError("valuation undefined: n = 0")
    if p < 2 or not is_probable_prime(p):
        raise ValidationError(f"valuation base must be prime, got {p}")
    return _valuation(n, p)


def _valuation(n: int, p: int) -> int:
    """p_adic_valuation(n, p) without its checks, for a caller whose n is
    nonzero and whose p is prime (from factorize, or 2 or 3)."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _iroot_floor(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer arithmetic."""
    if n < 0:
        raise ValidationError("root of negative")
    if n < 2 or k == 1:
        return n
    if n.bit_length() <= 52:
        r = int(n ** (1.0 / k))
    else:
        r = 1 << -(-n.bit_length() // k)
        while True:
            nr = ((k - 1) * r + n // r ** (k - 1)) // k
            if nr >= r:
                break
            r = nr
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (root, k) with root**k == n and k >= 2 least, or None.

    The least such k is prime (r**(ab) is also (r**b)**a), so only prime
    k are tried.
    """
    for k in small_primes(max(_TRIAL_BOUND, n.bit_length())):
        r = _iroot_floor(n, k)
        if r < 2:
            break
        if r**k == n:
            return r, k
    return None


def _brent_rho(n: int, c: int, max_iter: int) -> int:
    """Brent-cycle rho on odd composite n, iterating y -> y^2 + c; returns
    a factor, or n once max_iter iterations are spent.  When the cycles
    mod every prime of n close in the same step, it goes on with c + 1."""
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
                batch = min(128, r - k)
                # Two steps per reduction of q; the sign of a difference
                # only flips q mod n, which leaves gcd(q, n) alone.
                for _ in range(batch >> 1):
                    y1 = (y * y + c) % n
                    y = (y1 * y1 + c) % n
                    q = q * (x - y1) * (x - y) % n
                if batch & 1:
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            iterations += 2 * r
            r *= 2
            if g == 1 and iterations > max_iter:
                return n
        if g == n:
            # Batched gcd overshot; replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n or iterations > max_iter:
            return g
        c += 1


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int, n: int):
    """(X:Z) of P + Q on a Montgomery curve, given (xd:zd) = P - Q."""
    u = (xp - zp) * (xq + zq) % n
    v = (xp + zp) * (xq - zq) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _xdbl(x: int, z: int, n: int, a24: int):
    """(X:Z) of 2P on the Montgomery curve with a24 = (A + 2) / 4 mod n."""
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    return s * d % n, (s - d) * (d + a24 * (s - d)) % n


def _ladder(k: int, x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    """(X:Z) of k*P for P = (x:z) and k >= 1, by the x-only Montgomery
    ladder on B y^2 = x^3 + A x^2 + x."""
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, n, a24)
    for bit in bin(k)[3:]:  # (x0:z0), (x1:z1) = mP, (m+1)P
        if bit == "1":
            x0, z0 = _xadd(x1, z1, x0, z0, x, z, n)
            x1, z1 = _xdbl(x1, z1, n, a24)
        else:
            x1, z1 = _xadd(x1, z1, x0, z0, x, z, n)
            x0, z0 = _xdbl(x0, z0, n, a24)
    return x0, z0


@lru_cache(maxsize=None)
def _stage1_multiplier(b1: int) -> int:
    """Product of the largest power <= b1 of every prime <= b1."""
    k = 1
    for p in small_primes(b1):
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    return k


def _stage2_plan(b1: int, b2: int) -> tuple[int, list[int], range]:
    """(D, babies, giants) of ECM stage 2 on the primes in (b1, b2].

    D is the giant step, babies the odd j < D/2 prime to D, and giants the
    m from max(1, b1 // D) while m*D - D/2 <= b2.  With b1 at least the
    largest prime of D, every prime in (b1, b2] is then a baby index or
    some m*D +- j.
    """
    D = _ECM_D
    babies = [j for j in range(1, D // 2, 2) if math.gcd(j, D) == 1]
    return D, babies, range(max(1, b1 // D), (b2 + D // 2) // D + 1)


def _pm1(n: int, b1: int) -> int:
    """Stage 1 of Pollard's p-1 method on odd composite n: gcd(2^k - 1, n)
    for k the product of the prime powers up to b1 (Pollard 1974).  A
    prime p of n divides it when the order of 2 mod p divides k, so when
    p - 1 is b1-powersmooth; 1 or n is no split."""
    return math.gcd(pow(2, _stage1_multiplier(b1), n) - 1, n)


def _ecm(n: int, sigma: int, b1: int, b2: int) -> int:
    """One ECM curve on odd composite n; returns a divisor, proper on success.

    Lenstra's method on the Montgomery curve of Suyama's parametrization
    by sigma (Montgomery 1987): stage 1 multiplies the starting point by
    every prime power up to b1, stage 2 looks for one more prime q in
    (b1, b2] by baby steps j and giant steps m*D, q = m*D +- j.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x, z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x * v % n  # a24 = (v - u)^3 (3u + v) / (16 u^3 v)
    g = math.gcd(den, n)
    if g != 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    x, z = _ladder(_stage1_multiplier(b1), x, z, n, a24)
    g = math.gcd(z, n)
    if g != 1 or b2 <= b1:
        return g
    # Stage 2.  x(mD Q) = x(jQ) mod p exactly when (mD +- j) Q = O mod p,
    # so one product over the baby indices j and the giant indices m
    # catches every q in (b1, b2] (see _stage2_plan).  All points are made
    # affine by one shared inversion; a point that is already O mod p shows
    # as a factor of that product.
    D, babies, giants = _stage2_plan(b1, b2)
    x2, z2 = _xdbl(x, z, n, a24)
    odd = []  # jQ for the odd j up to the last baby index
    xp, zp, xj, zj = x, z, x, z  # (j - 2)Q, jQ; x(-Q) = x(Q)
    for _ in range(0, babies[-1], 2):
        odd.append((xj, zj))
        xp, zp, xj, zj = xj, zj, *_xadd(xj, zj, x2, z2, xp, zp, n)
    xs = [odd[j // 2][0] for j in babies]
    zs = [odd[j // 2][1] for j in babies]
    xg, zg = _ladder(D, x, z, n, a24)
    xp, zp = _ladder(giants.start, xg, zg, n, a24)
    xj, zj = _ladder(giants.start + 1, xg, zg, n, a24)
    for _ in giants:
        xs.append(xp)
        zs.append(zp)
        xp, zp, xj, zj = xj, zj, *_xadd(xj, zj, xg, zg, xp, zp, n)
    prefix = [1]
    for zj in zs:
        prefix.append(prefix[-1] * zj % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return g
    inv = pow(prefix[-1], -1, n)
    for i in range(len(zs) - 1, -1, -1):
        xs[i] = xs[i] * prefix[i] % n * inv % n
        inv = inv * zs[i] % n
    nb, acc = len(babies), 1
    baby_xs = xs[:nb]
    for xm in xs[nb:]:
        for xj in baby_xs:
            acc = acc * (xm - xj) % n
    return math.gcd(acc, n)


def _factor_hard(n: int, out: dict[int, int], stuck: list[int]) -> None:
    """Factor n > 1 (composite candidate with no small factors) into out."""
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    power = _perfect_power(n)
    if power is not None:
        root, k = power
        sub: dict[int, int] = {}
        _factor_hard(root, sub, stuck)
        for p, e in sub.items():
            out[p] = out.get(p, 0) + e * k
        return
    # Attempt 1 starts with a short rho pass, which splits most cofactors
    # whose least prime has up to about 28 bits, and then p-1's stage 1;
    # every attempt that has no factor yet runs one ECM curve, with
    # sigma = attempt + 5.
    for attempt in range(1, _RHO_ATTEMPTS + 1):
        d = n
        if attempt == 1:
            d = _brent_rho(n, 1, 1 << 14)
            if d == n:
                d = _pm1(n, _PM1_B1)
        if not 1 < d < n:
            b1 = _ECM_B1[(attempt - 1) * len(_ECM_B1) // _RHO_ATTEMPTS]
            d = _ecm(n, attempt + 5, b1, 100 * b1)
        if 1 < d < n:
            break
    else:
        stuck.append(n)
        return
    _factor_hard(d, out, stuck)
    _factor_hard(n // d, out, stuck)


_TRIAL_PRIMES = small_primes(_TRIAL_BOUND)
# (primes, their product) for each block of _TRIAL_BLOCK trial primes.
_TRIAL_BLOCKS = tuple(
    (_TRIAL_PRIMES[i : i + _TRIAL_BLOCK], math.prod(_TRIAL_PRIMES[i : i + _TRIAL_BLOCK]))
    for i in range(0, len(_TRIAL_PRIMES), _TRIAL_BLOCK)
)

_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def _trial(n: int) -> tuple[dict[int, int], int]:
    """({p: e}, cofactor) of n >= 1 after trial division up to _TRIAL_BOUND.

    A block whose product is prime to the cofactor is skipped, and division
    stops at the first block whose least prime p has p*p > cofactor.  So a
    cofactor below _TRIAL_BOUND**2 is 1 or prime, and a larger one has no
    prime up to _TRIAL_BOUND.
    """
    out: dict[int, int] = {}
    m = n
    for block, product in _TRIAL_BLOCKS:
        if block[0] * block[0] > m:
            break
        g = math.gcd(m, product)
        if g == 1:
            continue
        for p in block:
            if g % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out[p] = e
    return out, m


def _factorize_uncached(n: int) -> Factorization:
    out, m = _trial(n)
    if m > 1:
        if m <= _TRIAL_BOUND * _TRIAL_BOUND:
            out[m] = 1  # survived trial division below sqrt: prime
        else:
            stuck: list[int] = []
            _factor_hard(m, out, stuck)
            if stuck:
                raise FactorBudgetError(n, tuple(sorted(out.items())), stuck[0])
    return tuple(sorted(out.items()))


_factorize_default = lru_cache(maxsize=200_000)(_factorize_uncached)


def factorize(n: int) -> Factorization:
    """Complete factorization of |n|, n != 0.

    Raises FactorBudgetError (with partial data) if a cofactor survives
    trial division, the perfect-power check, rho, p-1 and the ECM curves.
    """
    if n == 0:
        # A bare ValueError until perfbench/test_perfbench.py, which counts
        # this error under that class name, moves to ValidationError.
        raise ValueError("cannot factor 0")
    return _factorize_default(abs(n))


def radical(n: int) -> int:
    """Product of the distinct primes dividing |n|; radical(+-1) = 1."""
    if n == 0:
        raise ValidationError("radical undefined: n = 0")
    return math.prod(p for p, _ in factorize(n))


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n != 0)."""
    if n == 0:
        raise ValidationError("squarefree test undefined: n = 0")
    n = abs(n)
    if n % 4 == 0 or n % 9 == 0 or n % 25 == 0:
        return False
    return _is_squarefree_default(n)


def _is_squarefree_uncached(n: int) -> bool:
    # g is the product of the trial primes that divide n; n is squarefree
    # at them iff none divides n // g, which then has no trial prime.
    g = math.gcd(n, _TRIAL_PRODUCT)
    m = n // g
    if math.gcd(m, g) > 1:
        return False
    if m < _TRIAL_BOUND**3:
        # m has no prime up to _TRIAL_BOUND, so it is 1, p, p^2 or pq.
        return m == 1 or math.isqrt(m) ** 2 != m
    # factorize(n), not factorize(m): a budget error then names n and its
    # small primes, as a full factorization would.
    return all(e == 1 for _, e in factorize(n))


_is_squarefree_default = lru_cache(maxsize=200_000)(_is_squarefree_uncached)


def is_cubefree(n: int) -> bool:
    """True iff no prime cube divides n (n != 0)."""
    if n == 0:
        raise ValidationError("cubefree test undefined: n = 0")
    return all(e < 3 for _, e in factorize(abs(n)))
