"""Exact integer matrices and their certified kernel.

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
