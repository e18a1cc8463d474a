"""Exact integer support: valuations, radicals, squarefree tests, factoring.

Everything here is deterministic.  Factoring is trial division up to a
configurable bound followed by Brent-cycle Pollard rho with a fixed
parameter schedule, so repeated runs (and parallel workers) always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Factorization",
    "FactorBudgetError",
    "factorize",
    "is_cubefree",
    "is_probable_prime",
    "is_squarefree",
    "p_adic_valuation",
    "radical",
    "small_primes",
]

# Deterministic Miller-Rabin witness set; proven sufficient for all
# n < 3_317_044_064_679_887_385_961_981 (~3.3e24).  Above that bound the
# same witnesses give a strong probable-prime answer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

DEFAULT_TRIAL_BOUND = 10_000
_RHO_ATTEMPTS = 24
_RHO_MAX_ITER = 1 << 22


class FactorBudgetError(ArithmeticError):
    """A cofactor resisted the factoring budget.

    Carries the partial factorization and the unfactored cofactor so
    callers can report partial results instead of silently failing.
    """

    def __init__(self, n: int, partial: "Factorization", cofactor: int):
        super().__init__(
            f"factoring budget exceeded for {n}: unfactored cofactor {cofactor}"
        )
        self.n = n
        self.partial = partial
        self.cofactor = cofactor


@dataclass(frozen=True)
class Factorization:
    """Ordered prime factorization of |n|: strictly increasing primes."""

    pairs: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def radical(self) -> int:
        out = 1
        for p, _ in self.pairs:
            out *= p
        return out

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)


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
    """Miller-Rabin with the fixed witness set (deterministic below ~3.3e24)."""
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
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_adic_valuation(n: int, p: int) -> int:
    """Largest k with p^k | n, for n != 0 and p prime."""
    if n == 0:
        raise ValueError("valuation undefined: n = 0")
    if p < 2 or not is_probable_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def _iroot_floor(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer arithmetic."""
    if n < 0:
        raise ValueError("root of negative")
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
    """Return (root, k) with root**k == n and k >= 2, or None."""
    for k in range(2, n.bit_length() + 1):
        r = _iroot_floor(n, k)
        if r < 2:
            break
        if r**k == n:
            return r, k
    return None


def _brent_rho(n: int, c: int) -> int:
    """One Brent-cycle rho attempt on odd composite n; returns a factor or n."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    iterations = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            batch = min(128, r - k)
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += batch
        iterations += 2 * r
        r *= 2
        if g == 1 and iterations > _RHO_MAX_ITER:
            return n
    if g == n:
        # Batched gcd overshot; replay one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _factor_hard(n: int, out: dict[int, int], stuck: list[int]) -> None:
    """Factor n (composite candidate with no small factors) into out."""
    if n == 1:
        return
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
    d = n
    for c in range(1, _RHO_ATTEMPTS + 1):
        d = _brent_rho(n, c)
        if 1 < d < n:
            break
    else:
        stuck.append(n)
        return
    _factor_hard(d, out, stuck)
    _factor_hard(n // d, out, stuck)


def _factorize_uncached(n: int, trial_bound: int) -> Factorization:
    m = n
    out: dict[int, int] = {}
    for p in small_primes(trial_bound):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
    if m > 1:
        if m <= trial_bound * trial_bound:
            out[m] = out.get(m, 0) + 1  # survived trial division below sqrt: prime
        else:
            stuck: list[int] = []
            _factor_hard(m, out, stuck)
            if stuck:
                partial = Factorization(tuple(sorted(out.items())))
                raise FactorBudgetError(n, partial, stuck[0])
    return Factorization(tuple(sorted(out.items())))


@lru_cache(maxsize=200_000)
def _factorize_default(n: int) -> Factorization:
    return _factorize_uncached(n, DEFAULT_TRIAL_BOUND)


def factorize(n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> Factorization:
    """Complete factorization of |n|, n != 0.

    Raises FactorBudgetError (with partial data) if a cofactor survives
    trial division, deterministic rho, and the perfect-power check.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if n == 1:
        return Factorization(())
    if trial_bound == DEFAULT_TRIAL_BOUND:
        return _factorize_default(n)
    return _factorize_uncached(n, trial_bound)


def radical(n: int) -> int:
    """Product of the distinct primes dividing |n|; radical(+-1) = 1."""
    if n == 0:
        raise ValueError("radical undefined: n = 0")
    return factorize(n).radical()


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n != 0)."""
    if n == 0:
        raise ValueError("squarefree test undefined: n = 0")
    n = abs(n)
    if n % 4 == 0 or n % 9 == 0 or n % 25 == 0:
        return False
    return factorize(n).is_squarefree()


def is_cubefree(n: int) -> bool:
    """True iff no prime cube divides n (n != 0)."""
    if n == 0:
        raise ValueError("cubefree test undefined: n = 0")
    return all(e < 3 for _, e in factorize(abs(n)))
