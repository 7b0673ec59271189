"""Exact sparse polynomials and exact integer matrix algebra.

Polynomials are stored sparsely as an exponent -> coefficient mapping with no
zero coefficients.  Coefficients are arbitrary-precision integers.

The degree of the zero polynomial is the sentinel ``NEG_INF``, which compares
less than every integer.

Matrices are dense with arbitrary-precision integer entries.  The kernel is
certified from two sides.  Forward elimination modulo a prime p, on rows
packed into single integers, fixes the pivot columns; for each free column f
the kernel vector that is 1 at f and 0 at the other free columns is solved
modulo p, lifted by rational reconstruction to integer numerators over a
common denominator, and the numerators are checked exactly against every
row.  The rank over Q is at least the rank modulo p, so the nullity is at
most the number of free columns; each checked vector is nonzero at its own
free column and zero at the others, so they are independent and the nullity
is at least that number.  The two bounds meet, so nullity and
basis are exact.  When a lift or a check fails, the next prime of a fixed
descending sequence is tried, and residues from primes with the same rank and
pivot columns are combined by the Chinese remainder theorem; identical inputs
therefore give bit-identical results.
"""

from __future__ import annotations

import struct
from functools import cache
from itertools import count
from math import gcd, isqrt
from operator import mul

from .numtheory import is_prime

NEG_INF = float("-inf")


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items() if isinstance(terms, dict) else terms:
                if e < 0 or e != int(e):
                    raise ValueError(f"exponent must be a non-negative integer, got {e}")
                if c:
                    prev = clean.get(e)
                    c = prev + c if prev is not None else c
                    if c:
                        clean[int(e)] = c
                    else:
                        del clean[e]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self):
        return max(self.terms) if self.terms else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial({0: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial({0: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def cyclic_reduce(self, m: int) -> "Polynomial":
        """Reduce modulo x^m - 1: replace each exponent e by e mod m."""
        if m < 1:
            raise ValueError("cyclic modulus must be >= 1")
        out: dict = {}
        for e, c in self.terms.items():
            r = e % m
            out[r] = out.get(r, 0) + c
        return Polynomial(out)

    def __repr__(self):
        if not self.terms:
            return "Polynomial('0')"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "x" if e == 1 else f"x^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign}{body}")
        return f"Polynomial('{''.join(parts)}')"


class IntMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(tuple(map(int, row)) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows in matrix")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


@cache
def _kernel_prime(i: int) -> int:
    """The i-th prime below 2**25, counting down from the largest.

    Found on first use.  Primes below 2**25 keep a slot of ``_echelon_mod``
    within one 64-bit word for matrices of fewer than 8192 rows.
    """
    start = _kernel_prime(i - 1) - 1 if i else (1 << 25) - 1
    for q in range(start, 1, -1):
        if is_prime(q):
            return q
    raise ArithmeticError("no kernel prime left")


def _echelon_mod(data, rows: int, cols: int, p: int) -> list[tuple[int, list[int]]]:
    """Row echelon form of the matrix modulo p: (column, row) per pivot, each
    row given from its pivot column on, reduced and scaled to lead with 1.

    Each row is one integer with a fixed-width slot per column, the current
    column in the lowest slot.  Eliminating a column adds head * (-pivot row)
    with every slot of the added row in [0, p), so slots only grow and never
    borrow.  A slot starts below p and gains less than p**2 per pivot, at
    most ``rows`` times, so a slot of 2*bits(p) + bits(rows) + 1 bits (rounded
    up to whole 64-bit words) never carries into the next.  Only pivot rows
    are unpacked and reduced.
    """
    words = (2 * p.bit_length() + rows.bit_length() + 64) // 64
    shift = 64 * words
    mask = (1 << shift) - 1

    def pack(residues):
        w = [0] * (words * len(residues))
        w[::words] = residues
        return int.from_bytes(struct.pack(f"<{len(w)}Q", *w), "little")

    live = [pack([x % p for x in row]) for row in data]
    pivots = []
    for c in range(cols):
        for i, y in enumerate(live):
            if (y & mask) % p:
                break
        else:
            live = [y >> shift for y in live]
            continue
        n = words * (cols - c)
        w = struct.unpack(f"<{n}Q", live.pop(i).to_bytes(8 * n, "little"))
        slots = w[::words]
        for t in range(1, words):
            slots = [s + (x << 64 * t) for s, x in zip(slots, w[t::words])]
        inv = pow(slots[0] % p, -1, p)
        row = [s * inv % p for s in slots]
        pivots.append((c, row))
        neg = pack([-r % p for r in row[1:]])
        live = [(y >> shift) + h * neg if (h := (y & mask) % p) else y >> shift
                for y in live]
    return pivots


def _solve_mod(pivots, free_col: int, cols: int, p: int) -> list[int]:
    """Kernel vector modulo p that is 1 at ``free_col`` and 0 at the other
    free columns, by back-substitution through the pivot rows."""
    v = [0] * cols
    v[free_col] = 1
    for c, row in reversed(pivots):
        if c < free_col:
            v[c] = -sum(map(mul, row, v[c:])) % p
    return v


def _rational(a: int, m: int, num_bound: int, den_bound: int):
    """The fraction n/d with |n| <= num_bound, 0 < d <= den_bound and
    n = a*d (mod m), as (n, d), or None; unique when 2*num_bound*den_bound < m."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if not 0 < t1 <= den_bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(residues, modulus: int):
    """Lift a vector modulo ``modulus`` to the rationals and return their
    numerators over the common denominator (a scalar multiple of the lift),
    or None.

    Numerators and denominator are bounded by sqrt(modulus / 2), which finds
    any vector whose exact entries share such a bound.  Each entry is first
    scaled by the denominator found so far, so only entries that bring a new
    factor to it need a reconstruction.
    """
    bound = isqrt((modulus - 1) // 2)
    den = 1
    nums = []
    for r in residues:
        a = r * den % modulus
        if a > modulus - a:
            a -= modulus
        if abs(a) > bound:
            lifted = _rational(a % modulus, modulus, bound, bound // den)
            if lifted is None:
                return None
            a, q = lifted
            den *= q
            nums = [x * q for x in nums]
        nums.append(a)
    return nums


def matrix_kernel(matrix: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact right nullspace of an integer matrix, as a basis of primitive
    integer vectors: one per free column, zero at the other free columns,
    with coprime entries and a positive first nonzero entry.  The nullity is
    the length of the basis.

    Elimination modulo a prime fixes the rank and the free columns; the basis
    vector of each free column (1 there, 0 at the other free columns) is
    solved modulo the prime, lifted to the rationals, cleared of its
    denominator and checked exactly against every row of the matrix.  The
    certificate is two-sided: the rank over Q is at least the rank modulo p,
    so the nullity is at most the number of free columns, and the checked
    vectors are independent (each is nonzero only at its own free column
    among the free columns), so it is at least that number.

    A failed lift or check moves to the next prime of a fixed descending
    sequence.  Residues of primes that give the same rank and pivot columns
    are combined by the Chinese remainder theorem; a prime giving a higher
    rank, or the same rank with lexicographically smaller pivot columns,
    restarts the combination, and one giving less is skipped.  Only finitely
    many primes give less than the rank and pivot columns over Q, and the
    lift is exact once the modulus exceeds twice the square of the Hadamard
    bound, so the loop ends; the prime sequence is fixed, so the returned
    basis is deterministic.
    """
    rows, cols, data = matrix.rows, matrix.cols, matrix.data
    best = None
    for i in count():
        p = _kernel_prime(i)
        pivots = _echelon_mod(data, rows, cols, p)
        pivot_cols = [c for c, _ in pivots]
        # smaller is nearer the rank and pivot columns over Q, which no prime beats
        key = (-len(pivots), pivot_cols)
        if best is not None and key > best:
            continue
        free_cols = sorted(set(range(cols)).difference(pivot_cols))
        vectors = [_solve_mod(pivots, f, cols, p) for f in free_cols]
        if key == best:
            u = pow(modulus, -1, p)
            residues = [[a + modulus * ((b - a) * u % p) for a, b in zip(old, new)]
                        for old, new in zip(residues, vectors)]
            modulus *= p
        else:
            best, residues, modulus = key, vectors, p
        basis = []
        for v in residues:
            nums = _reconstruct(v, modulus)
            if nums is None or any(sum(map(mul, row, nums)) for row in data):
                break
            g = gcd(*nums) if next(filter(None, nums)) > 0 else -gcd(*nums)
            basis.append(tuple(x // g for x in nums))
        else:
            return tuple(basis)
