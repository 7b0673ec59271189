"""Modular evaluation of sparse polynomials at roots of unity.

If q is a prime congruent to 1 modulo b and zeta has multiplicative order
exactly b modulo q, every polynomial divisible by the b-th cyclotomic
polynomial evaluates to 0 at zeta modulo q.  A nonzero evaluation therefore
certifies non-divisibility outright.  Each index b has one screening prime,
``evaluation_prime(b)``, at least 64 b + 1 so that chance zeros are rare;
``cyclotomic.divides_cyclotomic`` decides every zero hit exactly.

For a family with exponents slope * t + offset, the member at t evaluates at
zeta to G(zeta^t), where G(w) = sum_s A_s w^(s mod b) and A_s sums
coeff * zeta^(offset mod b) over the terms of slope s (``slope_sums``); a
few sums replace the whole term list at every t.  To find all zero
parameters at once, let k be the gcd of the s mod b with A_s nonzero:
G(w) = H(w^k), so G(zeta^t) = H((zeta^k)^t), and zeta^k has order
b' = b / gcd(b, k).  As t runs over [0, b'), (zeta^k)^t runs once over the
b'-th roots of unity, so the zero parameters below b' are the roots of
gcd(H, w^b' - 1) in F_q[w], and the others repeat them with period b'.  Root
counting costs about log b squarings of polynomials of degree below deg H,
not b evaluations.  ``_power_of_w`` packs each such polynomial into one
integer, one slot of 2 bits(q) + bits(deg H) + 2 bits per coefficient, so a
squaring is one integer product; the slots never carry, since each stays
below 2 deg(H) q^2 before it is reduced modulo q.  ``slope_sums`` builds
zeta^offset over the offsets' range by one multiplication each.

Polynomials over F_q are coefficient lists, lowest degree first, without
trailing zeros.
"""

from __future__ import annotations

import math

from .numtheory import is_prime, prime_factors


def evaluation_prime(b: int) -> int:
    """Smallest odd prime q = k*b + 1 with k >= 64.

    A member is zero at the order-b root for about b/q of the b parameters
    by chance, so q of at least 64 b leaves about one false suspect in 64
    indices; a larger k costs more in the prime and root searches than the
    exact tests it saves."""
    k = 64
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
        for p in ps:
            if pow(z, b // p, q) == 1:
                break
        else:
            return z
    raise ValueError(f"no element of order {b} modulo {q}")


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a: list[int], m: list[int], q: int) -> list[int]:
    """a modulo the nonzero m."""
    a, dm, inv = list(a), len(m) - 1, pow(m[-1], -1, q)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv % q
        if c:
            for j in range(dm):
                a[i - dm + j] -= c * m[j]
    return _trim([c % q for c in a[:dm]])


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """A greatest common divisor of a and b (a nonzero)."""
    while b:
        a, b = b, _rem(a, b, q)
    return a


def _minus(p: list[int], c: int, q: int) -> list[int]:
    return _trim([((p[0] if p else 0) - c) % q, *p[1:]])


def _power_of_w(e: int, m: list[int], q: int) -> list[int]:
    """w^e modulo m, of degree dm >= 1, linear m included, by squaring left
    to right on Kronecker-packed residues: a polynomial of degree below 2 dm
    is one integer with one ``width``-bit slot per coefficient, lowest
    degree in the lowest slot.
    Each bit of e squares the packed power so far (one integer product) and,
    if set, shifts it up one slot.  Every high slot dm + i, read modulo q,
    then adds its multiple of the packed table entry w^(dm+i) mod m, and the
    dm low slots are reduced modulo q.

    No slot carries into the next.  With every coefficient below q, a slot
    of the square sums at most dm products below q^2, and the at most dm
    table multiples add below q^2 each, so a low slot stays below
    2 dm q^2 < 2^width with width = 2 bits(q) + bits(dm) + 2."""
    dm, inv = len(m) - 1, pow(m[-1], -1, q)
    width = 2 * q.bit_length() + dm.bit_length() + 2
    mask, shifts = (1 << width) - 1, range(0, dm * width, width)
    top_shift, low = dm * width, (1 << dm * width) - 1
    w_dm = power = [-c * inv % q for c in m[:-1]]
    table = []
    for _ in range(dm):
        table.append(sum(c << s for c, s in zip(power, shifts)))
        top = power[-1]
        power = [(x + top * y) % q for x, y in zip([0, *power[:-1]], w_dm)]
    packed = 1
    for bit in bin(e)[2:]:
        packed *= packed
        if bit == "1":
            packed <<= width
        high, full = packed >> top_shift, packed & low
        for entry in table:
            if not high:
                break
            full += (high & mask) % q * entry
            high >>= width
        packed = 0
        for s in reversed(shifts):
            packed = packed << width | (full >> s & mask) % q
    return _trim([packed >> s & mask for s in shifts])


def _root_exponents(h: list[int], zeta: int, b: int, q: int) -> list[int]:
    """Ascending t in [0, b) with h(zeta^t) = 0, where zeta has order b and
    h, of degree >= 1, divides w^b - 1.

    For the smallest prime p dividing b, read from the memoized
    factorization of b, w^(b/p) maps the root zeta^t to zeta^(j*b/p) with
    j = t mod p, so gcd(h, w^(b/p) - zeta^(j*b/p)) holds the roots with
    t = j (mod p).  Substituting w = zeta^j * u turns them into the roots
    u = (zeta^p)^((t - j)/p) of an order-b/p problem.
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


def slope_sums(coeffs, slopes, offsets, b: int) -> tuple[int, int, dict[int, int]]:
    """The screen of index b: its prime q = ``evaluation_prime(b)``, the
    order-b root zeta = ``root_of_order(q, b)``, and the nonzero A_s mod q,
    keyed by s = slope mod b: the sum of coeff * zeta^(offset mod b) over
    the terms whose slope is s mod b.  The member at t evaluates at zeta to
    sum_s A_s zeta^(s*t mod b)."""
    q = evaluation_prime(b)
    zeta = root_of_order(q, b)
    low = min(offsets)
    powers = [pow(zeta, low % b, q)]
    for _ in range(max(offsets) - low):
        powers.append(powers[-1] * zeta % q)
    sums: dict[int, int] = {}
    for c, s, o in zip(coeffs, slopes, offsets):
        sums[s % b] = sums.get(s % b, 0) + c * powers[o - low]
    return q, zeta, {s: a % q for s, a in sums.items() if a % q}


def sweep_zero_parameters(coeffs, slopes, offsets, b: int) -> list[int]:
    """Parameters t in [0, b) whose family member evaluates to zero at the
    order-b root of ``evaluation_prime(b)``, found by root counting (module
    docstring).

    With k the gcd of the exponents s mod b of G, G(w) = H(w^k), so
    G(zeta^t) = H((zeta^k)^t).  zeta^k has order b' = b / gcd(b, k): the
    roots t' < b' of H over the b'-th roots of unity lift to the zero
    parameters t' + j*b', j < b/b'.  A constant G (k = 0) has no zero
    unless it is 0.

    Every t not returned is certified non-divisible by the b-th cyclotomic
    polynomial; returned parameters need the exact check.
    """
    q, zeta, sums = slope_sums(coeffs, slopes, offsets, b)
    if not sums:
        return list(range(b))
    k = math.gcd(*sums)
    if not k:
        return []
    h = [0] * (max(sums) // k + 1)
    for s, a in sums.items():
        h[s // k] = a
    period = b // math.gcd(b, k)
    h = _gcd(h, _minus(_power_of_w(period, h, q), 1, q), q)
    if len(h) == 1:
        return []
    roots = _root_exponents(h, pow(zeta, k, q), period, q)
    return [t + j * period for j in range(b // period) for t in roots]
