"""Cyclotomic divisibility.

``divides_cyclotomic`` decides whether the b-th cyclotomic polynomial Phi_b
divides an integer polynomial sum_e c_e x^e, given as an exponent ->
coefficient mapping, that is whether s = sum_e c_e zeta_b^e vanishes for a
primitive b-th root of unity zeta_b.  Since zeta_b^b = 1 the exponents may
be any integers, negative ones included: the sum is decided by regrouping
exponents over the primes of b, taken with multiplicity, and each regrouping
reduces the exponents it passes down.  Let p be the smallest prime of b and
b' = b/p, so that zeta_b^p is a primitive b'-th root of unity.

* If p divides b', then [Q(zeta_b) : Q(zeta_b')] = p and zeta_b is a root of
  x^p - zeta_b^p, so 1, zeta_b, ..., zeta_b^(p-1) is a basis of Q(zeta_b)
  over Q(zeta_b').  Every integer e is p*(e // p) + (e mod p), so s =
  sum_r zeta_b^r A_r with A_r = sum_{e = r (mod p)} c_e zeta_b'^(e // p mod
  b'), and s vanishes iff every class A_r vanishes at level b'.
* If p does not divide b', then zeta_b = omega * eta with omega a primitive
  p-th and eta a primitive b'-th root of unity, and zeta_b^e =
  omega^(e mod p) eta^(e mod b').  [Q(zeta_b) : Q(zeta_b')] = p - 1, so
  Phi_p stays irreducible over Q(zeta_b') and the only relation among 1,
  omega, ..., omega^(p-1) is that they sum to zero.  With A_r = sum_{e = r
  (mod p)} c_e eta^(e mod b'), s = sum_r omega^r A_r vanishes iff all A_r
  are equal: every class must vanish at level b' if one of them is empty,
  and otherwise every class minus one chosen class must.
* At b = 1 the value is the sum of the coefficients.

Only nonempty classes are formed and each step at most doubles the term
count, so a verdict costs O(terms * 2^omega(b)) integer additions, whatever
the size of phi(b); no cyclotomic polynomial is built and no root of unity
is approximated.
"""

from __future__ import annotations

from .numtheory import factorize


def divides_cyclotomic(terms: dict[int, int], b: int) -> bool:
    """True iff the b-th cyclotomic polynomial divides sum c x^e over the
    exponent -> coefficient mapping ``terms``.

    Equivalently: the polynomial has a primitive b-th root of unity among
    its roots.  Exponents are read modulo b, so any integers will do.  The
    verdict is exact (module docstring).
    """
    if b < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {b}")
    return _vanishes(terms, b)


def fold(terms, m: int) -> dict[int, int]:
    """The exponent -> coefficient map of sum c x^e over the (e, c) pairs
    ``terms``, reduced modulo x^m - 1: exponents modulo m, equal ones
    merged, zero coefficients dropped."""
    out: dict[int, int] = {}
    for e, c in terms:
        out[e % m] = out.get(e % m, 0) + c
    return {e: c for e, c in out.items() if c}


def _vanishes(terms: dict, b: int) -> bool:
    """Whether sum c * zeta^e over the exponent -> coefficient map ``terms``
    (any integer exponents) is zero at a primitive b-th root of unity zeta.
    The classes passed down to b' = b/p, p the least prime of b, hold
    exponents in [0, b'), so equal residues merge at the first level."""
    if b == 1:
        return not sum(terms.values())
    if not any(terms.values()):
        return True
    p, power = factorize(b)[0]
    b //= p
    split = power > 1  # p divides b: the classes are independent
    classes: dict[int, dict] = {}  # only the nonempty ones, so no O(p) work
    for e, c in terms.items():
        cls, k = classes.setdefault(e % p, {}), e // p % b if split else e % b
        cls[k] = cls.get(k, 0) + c
    if split or len(classes) < p:
        return all(_vanishes(cls, b) for cls in classes.values())
    ref = min(classes.values(), key=len)
    for cls in classes.values():
        if cls is not ref:
            for k, c in ref.items():
                cls[k] = cls.get(k, 0) - c
            if not _vanishes(cls, b):
                return False
    return True
