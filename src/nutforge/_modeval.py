"""Modular evaluation of sparse polynomials at roots of unity.

If q is a prime congruent to 1 modulo b and zeta has multiplicative order
exactly b modulo q, every polynomial divisible by the b-th cyclotomic
polynomial evaluates to 0 at zeta modulo q.  A nonzero evaluation therefore
certifies non-divisibility outright.  Each index b has one screening prime,
``evaluation_prime(b)``; ``cyclotomic.divides_cyclotomic`` decides every zero
hit exactly.

For a family with exponents slope * t + offset, the member at t evaluates at
zeta to G(zeta^t), where G(w) = sum_s A_s w^(s mod b) and A_s sums
coeff * zeta^(offset mod b) over the terms of slope s.  As t runs over [0, b),
zeta^t runs once over the b-th roots of unity, so the zero parameters are the
roots of H = gcd(G, w^b - 1) in F_q[w]: root counting costs about log b
products of polynomials of degree below the largest slope, not b evaluations.

Polynomials over F_q are coefficient lists, lowest degree first, without
trailing zeros.
"""

from __future__ import annotations

from .numtheory import is_prime, prime_factors


def evaluation_prime(b: int, above: int = 50) -> int:
    """Smallest odd prime q = k*b + 1 greater than `above`."""
    k = above // b + 1
    while True:
        q = k * b + 1
        if q % 2 == 1 and is_prime(q):
            return q
        k += 1


def root_of_order(q: int, b: int) -> int:
    """Deterministic element of multiplicative order exactly b modulo the
    prime q (requires b dividing q - 1)."""
    if (q - 1) % b != 0:
        raise ValueError("order must divide q - 1")
    if b == 1:
        return 1
    ps = prime_factors(b)
    e = (q - 1) // b
    for a in range(2, q):
        z = pow(a, e, q)
        if z == 1:
            continue
        if all(pow(z, b // p, q) != 1 for p in ps):
            return z
    raise ValueError(f"no element of order {b} modulo {q}")


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a: list[int], m: list[int], q: int) -> list[int]:
    """a modulo the nonzero m."""
    a, dm, inv = [c % q for c in a], len(m) - 1, pow(m[-1], -1, q)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv % q
        for j in range(dm):
            a[i - dm + j] = (a[i - dm + j] - c * m[j]) % q
    return _trim(a[:dm])


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """A greatest common divisor of a and b (a nonzero)."""
    while b:
        a, b = b, _rem(a, b, q)
    return a


def _minus(p: list[int], c: int, q: int) -> list[int]:
    return _trim([((p[0] if p else 0) - c) % q, *p[1:]])


def _power_of_w(e: int, m: list[int], q: int) -> list[int]:
    """w^e modulo m, by repeated squaring."""
    result, base = [1], [0, 1]
    while e:
        if e & 1:
            result = _mulmod(result, base, m, q)
        e >>= 1
        if e:
            base = _mulmod(base, base, m, q)
    return result


def _mulmod(a: list[int], b: list[int], m: list[int], q: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _rem(prod, m, q)


def _root_exponents(h: list[int], zeta: int, b: int, q: int) -> list[int]:
    """Ascending t in [0, b) with h(zeta^t) = 0, where zeta has order b and
    h, of degree >= 1, divides w^b - 1.

    For the smallest prime p dividing b, w^(b/p) maps the root zeta^t to
    zeta^(j*b/p) with j = t mod p, so gcd(h, w^(b/p) - zeta^(j*b/p)) holds
    the roots with t = j (mod p).  Substituting w = zeta^j * u turns them into
    the roots u = (zeta^p)^((t - j)/p) of an order-b/p problem.
    """
    if b == 1:
        return [0]
    p = prime_factors(b)[0]
    image = _power_of_w(b // p, h, q)
    step = pow(zeta, b // p, q)
    found: list[int] = []
    left = len(h) - 1
    for j in range(p):
        part = _gcd(h, _minus(image, pow(step, j, q), q), q)
        if len(part) > 1:
            shift = pow(zeta, j, q)
            moved = [c * pow(shift, k, q) % q for k, c in enumerate(part)]
            sub = _root_exponents(moved, pow(zeta, p, q), b // p, q)
            found += [j + p * t for t in sub]
            left -= len(part) - 1
            if not left:
                break
    return sorted(found)


def eval_at(coeffs, exponents, b: int, q: int, zeta: int) -> int:
    """Single evaluation sum_i coeffs[i] * zeta^(exponents[i] mod b) mod q."""
    acc = 0
    for c, e in zip(coeffs, exponents):
        acc = (acc + c * pow(zeta, e % b, q)) % q
    return acc


def sweep_zero_parameters(coeffs, slopes, offsets, b: int) -> list[int]:
    """Parameters t in [0, b) whose family member evaluates to zero at the
    order-b root of ``evaluation_prime(b)``, found by root counting (module
    docstring).

    Every t not returned is certified non-divisible by the b-th cyclotomic
    polynomial; returned parameters need the exact check.
    """
    q = evaluation_prime(b)
    zeta = root_of_order(q, b)
    g = [0] * (max((s % b for s in slopes), default=0) + 1)
    for c, s, o in zip(coeffs, slopes, offsets):
        g[s % b] = (g[s % b] + c * pow(zeta, o % b, q)) % q
    g = _trim(g)
    if not g:
        return list(range(b))
    if len(g) == 1:
        return []
    h = _gcd(g, _minus(_power_of_w(b, g, q), 1, q), q)
    return _root_exponents(h, zeta, b, q) if len(h) > 1 else []
