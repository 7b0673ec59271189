"""Tests for the deterministic primality test and the factorization against
independent ground truth."""

import math
import random
import sys

from nutforge import numtheory
from nutforge.graphs import DihedralSpec
from nutforge.numtheory import factorize, is_prime
from nutforge.verify import nut_check_spectral

SMALL_BASE_LIMIT = 3_215_031_751  # least strong pseudoprime to bases 2, 3, 5, 7


def _sieve(limit):
    """Primality flags for 0 <= n < limit by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags


def _trial_division_prime(n, primes):
    """Primality of n by trial division, given every prime up to sqrt(n)."""
    return n > 1 and all(n % p for p in primes if p * p <= n)


def _strong_probable_prime(n, a):
    """One Miller-Rabin round: n passes the strong test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_matches_sieve_below_200000():
    flags = _sieve(200_000)
    assert [n for n in range(200_000) if is_prime(n) != bool(flags[n])] == []


def test_strong_pseudoprimes_at_base_set_boundaries():
    # Each n is the least strong pseudoprime to the listed bases, so a base
    # set one prime shorter would call it prime.
    cases = (
        (2047, (23, 89), (2,)),
        (1_373_653, (829, 1657), (2, 3)),
        (25_326_001, (2251, 11251), (2, 3, 5)),
        (SMALL_BASE_LIMIT, (151, 751, 28351), (2, 3, 5, 7)),
        (3_825_123_056_546_413_051, (149491, 747451, 34233211),
         (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    )
    for n, factors, bases in cases:
        assert math.prod(factors) == n and min(factors) > 1
        assert all(_strong_probable_prime(n, a) for a in bases), n
        assert not is_prime(n), n


def test_primes_around_the_small_base_limit():
    flags = _sieve(math.isqrt(SMALL_BASE_LIMIT + 400) + 1)
    primes = [p for p in range(len(flags)) if flags[p]]
    window = range(SMALL_BASE_LIMIT - 400, SMALL_BASE_LIMIT + 400)
    expected = [n for n in window if _trial_division_prime(n, primes)]
    assert [n for n in window if is_prime(n)] == expected
    assert min(expected) < SMALL_BASE_LIMIT < max(expected)


def _factor_by_sieve(n, primes):
    """The (prime, exponent) pairs of n by dividing out every prime up to
    sqrt(n) in turn."""
    out = []
    for p in primes:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
    return out + [(n, 1)] * (n > 1)


def test_factorize_matches_sieve():
    flags = _sieve(10**5)
    primes = [p for p in range(10**5) if flags[p]]
    rng = random.Random(31)
    numbers = [*range(1, 20_000), *(rng.randrange(1, 10**10) for _ in range(500)),
               2**40, 3**25, 4 * 99_999_999_977, 2 * 3 * 5 * 99_999_999_977]
    for n in numbers:
        assert factorize(n) == _factor_by_sieve(n, primes), n
    # the memo hands out copies: a caller's edit does not reach the next call
    factorize(360).append((7, 1))
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


def test_spectral_walk_trial_divides_a_large_prime_once():
    # The walk factors each of the 16 divisors of m = 2 * 3 * 5 * p, once
    # per block invariant it tests and once for phi(b); half of them hold
    # the prime p, whose trial division runs about sqrt(p) / 2 steps.
    # Counting the lines numtheory executes: trial division from scratch
    # for each call took 26,172 lines, a shared cofactor about 800.
    p = 1_000_003
    assert is_prime(p)
    m = 2 * 3 * 5 * p
    lines = 0

    def trace(frame, event, arg):
        if frame.f_code.co_filename != numtheory.__file__:
            return None

        def count(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return count
        return count

    sys.settrace(trace)
    try:
        report = nut_check_spectral(DihedralSpec(m, {1, m - 1}, {0, 1, 4, 6}))
    finally:
        sys.settrace(None)
    assert report.total_nullity == 1
    assert lines < 4 * math.isqrt(p)
