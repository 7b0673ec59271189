"""The certified kernel of a graph matrix.

The package has one row format, ``BitMatrix``: the 0/1 rows of a graph as
integer bitmasks plus a multiple of the identity.  The kernel reads a matrix
only through ``rows``, ``cols`` and two methods: ``packed``, each row reduced
modulo a prime and packed into one integer with one 64-bit word per column,
and ``annihilates``, the exact check A v = 0.  Kernel primes lie below
2**21, so one word holds a slot without a carry for every matrix of fewer
than 2**21 rows (``_echelon_mod``), and the kernel refuses taller ones.

The kernel is certified from two sides.  Forward elimination modulo a prime
p on the packed rows fixes the pivot columns; for each free column f the
kernel vector that is 1 at f and 0 at the other free columns is solved
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
from dataclasses import dataclass
from functools import cache
from itertools import compress, count
from math import gcd, isqrt
from operator import mul

from .numtheory import is_prime

_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class BitMatrix:
    """The square matrix A + shift * I of a graph, A given by its rows as
    bitmasks (bit j of row i is entry (i, j), no bit on the diagonal)."""

    bit_rows: tuple[int, ...]
    shift: int = 0

    @property
    def rows(self) -> int:
        return len(self.bit_rows)

    cols = rows  # square

    def packed(self, p: int) -> list[int]:
        """Each row modulo p, packed into one 64-bit word per column.

        Read as hexadecimal, a row's binary string with 15 zero digits after
        each bit but the last has bit j in the lowest digit of slot j; the
        diagonal slot k then gets shift mod p.
        """
        d = self.shift % p
        return [int(("0" * 15).join(format(r, "b")), 16) + (d << 64 * k)
                for k, r in enumerate(self.bit_rows)]

    def annihilates(self, v) -> bool:
        """Whether every row has a zero dot product with v."""
        n, s = len(self.bit_rows), self.shift
        for k, r in enumerate(self.bit_rows):
            bits = format(r, f"0{n}b")[::-1].encode().translate(_BIT_VALUES)  # byte j: column j
            if sum(compress(v, bits)) + s * v[k]:
                return False
        return True


#: The kernel takes fewer rows than this: with primes below 2**21,
#: 2 * bits(p) + bits(rows) <= 63 keeps a slot in one word (``_echelon_mod``).
_MAX_ROWS = 1 << 21


@cache
def _kernel_prime(i: int) -> int:
    """The i-th prime below 2**21, counting down from the largest; found on
    first use."""
    start = _kernel_prime(i - 1) - 1 if i else (1 << 21) - 1
    for q in range(start, 1, -1):
        if is_prime(q):
            return q
    raise ArithmeticError("no kernel prime left")


def _pack(residues) -> int:
    """Residues in [0, 2**64) packed into one integer, one 64-bit word per
    slot, the first residue in the lowest slot."""
    return int.from_bytes(struct.pack(f"<{len(residues)}Q", *residues), "little")


#: Columns eliminated between two shifts of the live rows.
_BLOCK = 8


def _echelon_mod(live: list[int], cols: int, p: int) -> list[tuple[int, list[int]]]:
    """Row echelon form modulo p of the rows packed by ``packed(p)``:
    (column, row) per pivot, each row given from its pivot column on,
    reduced and scaled to lead with 1.

    Columns are eliminated in blocks of ``_BLOCK``.  Column c sits in slot
    j = c mod ``_BLOCK`` of the live rows, and its heads are read there with
    a mask; the live rows are shifted right by a whole block once per block,
    not once per column.  Eliminating column c adds head * (-pivot row),
    packed from slot j + 1 on, with every slot of the added row in [0, p),
    so slots only grow and never borrow.  A slot starts below p and gains
    less than p**2 per pivot, at most ``rows`` times, so it stays below
    p + rows * p**2 < 2**(2*bits(p) + bits(rows)); with p below 2**21 and
    fewer than 2**21 rows that is below 2**63, so a 64-bit slot never
    carries into the next.  The dead slots below j, left in place until the
    block shift, keep that bound: a slot gets no addition after its own
    column.  Only pivot rows are unpacked and reduced.
    """
    pivots = []
    for c in range(cols):
        j = c % _BLOCK
        if c and not j:
            live = [y >> 64 * _BLOCK for y in live]
        at = 64 * j
        head = 0xFFFF_FFFF_FFFF_FFFF << at
        for i, y in enumerate(live):
            if ((y & head) >> at) % p:
                break
        else:
            continue
        n = cols - c
        slots = struct.unpack(f"<{n}Q", (live.pop(i) >> at).to_bytes(8 * n, "little"))
        inv = pow(slots[0] % p, -1, p)
        row = [s * inv % p for s in slots]
        pivots.append((c, row))
        neg = _pack([-r % p for r in row[1:]]) << at + 64
        live = [y + h * neg if (h := ((y & head) >> at) % p) else y for y in live]
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


def matrix_kernel(matrix: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact right nullspace of an integer matrix, as a basis of primitive
    integer vectors: one per free column, zero at the other free columns,
    with coprime entries and a positive first nonzero entry.  The nullity is
    the length of the basis.

    The matrix is read only through ``rows``, ``cols``, ``packed`` and
    ``annihilates``.  In the package it is always a graph's ``BitMatrix``;
    any other matrix with those four members and fewer than 2**21 rows
    takes the same path.  A matrix of 2**21 rows or more raises ValueError,
    since one 64-bit slot per column no longer bounds the elimination.
    Elimination modulo a prime below 2**21, on the packed rows in blocks of
    columns (``_echelon_mod`` states why the slots, the dead ones left until
    each block shift included, never carry), fixes the rank and the free
    columns; the basis vector of each free column (1 there, 0 at the other
    free columns) is solved modulo the prime, lifted to the rationals,
    cleared of its denominator and checked exactly against every row of the
    matrix.  The certificate is two-sided: the rank over Q is at least the
    rank modulo p, so the nullity is at most the number of free columns,
    and the checked vectors are independent (each is nonzero only at its
    own free column among the free columns), so it is at least that number.

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
    rows, cols = matrix.rows, matrix.cols
    if rows >= _MAX_ROWS:
        raise ValueError(f"matrix of {rows} rows: the kernel takes fewer than {_MAX_ROWS}")
    best = None
    for i in count():
        p = _kernel_prime(i)
        pivots = _echelon_mod(matrix.packed(p), cols, p)
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
            if nums is None or not matrix.annihilates(nums):
                break
            g = gcd(*nums) if next(filter(None, nums)) > 0 else -gcd(*nums)
            basis.append(tuple(x // g for x in nums))
        else:
            return tuple(basis)
