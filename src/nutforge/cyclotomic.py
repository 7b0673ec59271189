"""Cyclotomic divisibility and feasible-index enumeration.

``divides_cyclotomic`` decides whether the b-th cyclotomic polynomial Phi_b
divides an integer polynomial p without building Phi_b.  It folds p modulo
x^b - 1 (Phi_b divides x^b - 1), takes a prime q = 1 (mod b) above the
l1-norm L of the folded coefficients and an element zeta of order b modulo
q, and evaluates the folded p at the phi(b) primitive roots zeta^k, gcd(k, b)
= 1.  One nonzero value proves that Phi_b does not divide p.  If every value
is zero, Phi_b divides p: q splits completely in Q(zeta_b), so q divides
p(zeta_b) there, and q^phi(b) divides its norm; every conjugate of p(zeta_b)
has absolute value at most L < q, so the norm, and with it p(zeta_b), is 0.
"""

from __future__ import annotations

from math import gcd

from ._modeval import eval_at, evaluation_prime, root_of_order
from .exact import Polynomial


def divides_cyclotomic(p: Polynomial, b: int) -> bool:
    """True iff the b-th cyclotomic polynomial divides p exactly.

    Equivalently: p has a primitive b-th root of unity among its roots.  The
    verdict is exact (module docstring); a divisible p costs phi(b)
    evaluations, a non-divisible one usually a single evaluation.
    """
    if b < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {b}")
    folded = p.cyclic_reduce(b).terms
    coeffs, exponents = list(folded.values()), list(folded)
    q = evaluation_prime(b, above=sum(map(abs, coeffs)))
    zeta = root_of_order(q, b)
    return not any(eval_at(coeffs, exponents, b, q, pow(zeta, k, q))
                   for k in range(1, b + 1) if gcd(k, b) == 1)


def enumerate_feasible_indices(allowed_primes, sum_bound: int, rad_ratio_bound: int,
                               min_b: int, forbid_four: bool) -> list[int]:
    """All b >= min_b whose prime factors lie in allowed_primes, subject to
    sum(p - 2) over distinct primes <= sum_bound, b/rad(b) < rad_ratio_bound,
    and (optionally) 4 not dividing b.  Ascending, finite, deterministic.

    Enumeration walks products of admissible prime powers recursively; for
    each prime the admissible exponent range is capped by the ratio bound
    (p^(e-1) alone must stay below it), so the search space is finite and
    every admissible index below the implied ceiling is visited exactly once.
    """
    if sum_bound < 0 or rad_ratio_bound < 0:
        raise ValueError("bounds must be non-negative")
    primes = sorted(set(allowed_primes))
    found: list[int] = []

    def extend(i: int, value: int, psum: int, ratio: int) -> None:
        if value >= min_b:
            found.append(value)
        for j in range(i, len(primes)):
            p = primes[j]
            new_sum = psum + (p - 2)
            if new_sum > sum_bound:
                continue
            v = value * p
            r = ratio
            e = 1
            while r < rad_ratio_bound:
                if not (forbid_four and p == 2 and e >= 2):
                    extend(j + 1, v, new_sum, r)
                e += 1
                v *= p
                r *= p

    extend(0, 1, 0, 1)
    return sorted(found)
