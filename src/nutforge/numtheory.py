"""Small exact number-theory helpers: factorization, totient, primality.

Everything here works on plain Python integers and is deterministic.  The
totient is always derived from an explicit prime factorization, never by
counting residues.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as an ascending list of (prime, exponent)."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    return list(_factorization(n))


@lru_cache(maxsize=8192)
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """``factorize(n)`` as a tuple, memoized: trial division finds the least
    prime p of n, and the cofactor of p^e recurses.  ``divides_cyclotomic``
    factors b and each b/p below it for every divisor a spectral walk asks
    about, once per candidate; the divisors share their cofactors, so a
    large prime factor is trial-divided once, not once per divisor.  The
    cache holds every divisor of any order up to 10^12 (at most 6720)."""
    if n == 1:
        return ()
    p = 2 if n % 2 == 0 else next((q for q in range(3, isqrt(n) + 1, 2) if n % q == 0), n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return ((p, e), *_factorization(n))


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending."""
    return [p for p, _ in factorize(n)]


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1, computed from the factorization."""
    result = 1
    for p, e in factorize(n):
        result *= (p - 1) * p ** (e - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1 in ascending order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# Deterministic Miller-Rabin: the first thirteen primes as bases decide
# primality for every n < 3.317 * 10^24 (Sorenson & Webster 2015); the first
# four suffice below 3,215,031,751, the least strong pseudoprime to all of
# them (Jaeschke 1993), which covers the lemma suites' evaluation primes and
# every kernel prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_SMALL_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Primality test, deterministic for n < 3_317_044_064_679_887_385_961_981."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is only deterministic below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:4] if n < _MR_SMALL_LIMIT else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
