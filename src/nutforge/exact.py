"""The certified kernel of a graph matrix.

The package has one row format, ``BitMatrix``: the 0/1 rows of a graph as
integer bitmasks plus a multiple of the identity.  The kernel reads a matrix
only through ``rows``, ``cols`` and three methods: ``packed``, each row
reduced modulo a prime and packed into one integer with one word per column,
``annihilates``, the exact check A v = 0, and ``hadamard_square``, which
bounds every minor.

One rule, ``_layout``, sizes the slots from the row count: fewer than 256
rows get one 32-bit word per column and kernel primes below 2**12, taller
matrices a 64-bit word and primes below 2**21, so that
2 * bits(p) + bits(rows) fits the word and a slot never carries
(``_echelon_mod`` gives the argument); the kernel refuses 2**21 rows or
more.  Half-width words halve the digits of every packed row below 256
rows, and with them the cost of each whole-row operation.

The elimination works on whole rows, never slot by slot.  Every kernel prime
has the form p = 2**k - c, so a pivot row is reduced in place by folds of
every slot at once (``_folder``), and each live row gets a multiple of the
pivot row's tail.  A row that is zero in every column of the next block
sits that block out (``_echelon_mod``): it is neither searched nor updated
there, which spares the rows away from the band of a banded witness.  Pivot
rows stay packed with their lead inverses and are unpacked only by the back
substitution, once each, when there is a free column at all.

The kernel is certified from two sides (``matrix_kernel``): the rank modulo
a prime bounds the nullity from above, and basis vectors lifted to the
integers and checked exactly against every row bound it from below.  A
failed lift or check moves to the next prime of a fixed sequence, so
identical inputs give bit-identical results.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache
from itertools import compress, count, filterfalse
from math import gcd, isqrt, prod
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

    def packed(self, p: int, word: int) -> list[int]:
        """Each row modulo p, packed into one ``word``-bit word per column.

        A row's bytes (``_column_bytes``) go to the first byte of every word
        of one reused buffer, which read as a little-endian integer has bit
        j in the lowest bit of slot j; the diagonal slot k then gets
        shift mod p.
        """
        n, d, step = len(self.bit_rows), self.shift % p, word // 8
        buf = bytearray(step * n)
        out = []
        for k, r in enumerate(self.bit_rows):
            buf[::step] = _column_bytes(r, n)
            out.append(int.from_bytes(buf, "little") + (d << word * k))
        return out

    def annihilates(self, v) -> bool:
        """Whether every row has a zero dot product with v."""
        n, s = len(self.bit_rows), self.shift
        return not any(sum(compress(v, _column_bytes(r, n))) + s * v[k]
                       for k, r in enumerate(self.bit_rows))

    def hadamard_square(self) -> int:
        """The product of max(1, squared norm) over rows: no minor squared exceeds it."""
        return prod(max(1, r.bit_count() + self.shift ** 2) for r in self.bit_rows)


def _column_bytes(row: int, n: int) -> bytes:
    """The bitmask of an n-column row as n bytes, byte j the bit of column j."""
    return format(row, f"0{n}b")[::-1].encode().translate(_BIT_VALUES)


#: The kernel takes fewer rows than this: with primes below 2**21,
#: 2 * bits(p) + bits(rows) <= 63 keeps a slot in a 64-bit word.
_MAX_ROWS = 1 << 21


def _layout(rows: int) -> tuple[int, int]:
    """(word, bits) for a matrix of ``rows`` rows: one ``word``-bit word per
    column and kernel primes below 2**bits, so that 2 * bits + bits(rows)
    <= word, the bound ``_echelon_mod`` needs: 2 * 12 + 8 = 32 below 256
    rows, and 2 * 21 + 21 = 63 below ``_MAX_ROWS``."""
    return (32, 12) if rows < 256 else (64, 21)


@cache
def _kernel_prime(i: int, bits: int) -> int:
    """The i-th prime below 2**bits, counting down from the largest; found
    on first use.

    The sequence ends at 3, since p = 2 is not 2**k - c with c < 2**(k - 1)
    (``_folder``).  Below 2**12 it has 563 primes, whose product exceeds
    2**5800; a 0/1 matrix of fewer than 256 rows needs less than 2**3100 of
    it: twice the square of its Hadamard bound 255**127.5 < 2**1020, to
    lift, times the primes that give it a wrong rank or pivot columns, each
    dividing a nonzero minor, so of product below 2**1020, times the last
    prime's overshoot below 2**12.
    """
    start = _kernel_prime(i - 1, bits) - 1 if i else (1 << bits) - 1
    for q in range(start, 2, -1):
        if is_prime(q):
            return q
    raise ArithmeticError("no kernel prime left")


def _repeat(value: int, slots: int, word: int) -> int:
    """``value`` in each of ``slots`` ``word``-bit slots."""
    return int.from_bytes(value.to_bytes(word // 8, "little") * slots, "little")


def _folder(p: int, slots: int, word: int):
    """The fold of rows of up to ``slots`` ``word``-bit slots modulo
    p = 2**k - c, where k = bits(p) and so c < 2**(k - 1).

    One fold replaces each slot x by (x mod 2**k) + c * (x >> k), which is
    congruent to x modulo p, since 2**k = c (mod p), and below
    2**k + c * 2**(word - k) <= 2**word: it runs on the whole row in a few
    integer operations and never carries.  A slot of 2**(k + 1) or more
    loses a positive multiple of p per fold, and one below 2**(k + 1) folds
    to at most 2**k - 1 + c = 2**(k + 1) - p - 1; the returned function
    folds until every slot is below 2**(k + 1) and then once more, so every
    slot of its result is at most 2**(k + 1) - p - 1.  Both layouts
    (``_layout``) fold the same way, with masks of their own word size.
    """
    k = p.bit_length()
    c = (1 << k) - p
    low = _repeat((1 << k) - 1, slots, word)
    high = _repeat((1 << word - k) - 1, slots, word)
    above = _repeat((1 << word) - (1 << k + 1), slots, word)

    def fold(row: int) -> int:
        while row & above:
            row = (row & low) + c * (row >> k & high)
        return (row & low) + c * (row >> k & high)

    return fold


#: Columns eliminated between two shifts of the live rows.
_BLOCK = 16


def _echelon_mod(live: list[int], cols: int, p: int, word: int) -> list[tuple[int, int, int]]:
    """Row echelon form modulo p of the rows packed by ``packed(p, word)``:
    (column, lead inverse, tail) per pivot, where the tail is the pivot row
    past its pivot column, still packed, with every slot congruent modulo p
    to the row's entry and at most 2**(k + 1) - p - 1 (``_folder``), and the
    lead inverse is the inverse modulo p of the pivot entry.

    Columns are eliminated in blocks of ``_BLOCK``.  Column c sits in slot
    j = c mod ``_BLOCK`` of the live rows, and its heads are read there with
    a mask; the live rows are shifted right by a whole block once per block,
    not once per column.  Right after the shift, the rows whose slots of the
    whole block are zero are set aside as idle and rejoin, behind the live
    ones, at the next block start: their heads stay zero through the block,
    so they are never searched for a pivot and get no addition, and the
    bound below holds for them as it stands.  The pivot row leaves the live
    rows and is folded whole, never split into slots.  Eliminating column c
    then adds to each live row with a head h, nonzero modulo p, the multiple
    h * (p - lead inverse) mod p of the tail, placed from slot j + 1 on, so
    slots only grow and never borrow.  A slot starts below p and gains less
    than p * (2**(k + 1) - p - 1) < 2**(2*k) per pivot, at most ``rows``
    times, so it stays below p + rows * 2**(2*k) < 2**(2*k + bits(rows)).
    ``_layout`` keeps that within the word: primes below 2**12 in 32-bit
    words below 256 rows, primes below 2**21 in 64-bit words below 2**21
    rows, so a slot never carries into the next.  The dead slots below j,
    left in place until the block shift, keep that bound: a slot gets no
    addition after its own column.
    """
    fold = _folder(p, cols, word)
    mask = (1 << word) - 1
    busy = ((1 << word * _BLOCK) - 1).__and__
    pivots, idle = [], []
    for c in range(cols):
        j = c % _BLOCK
        if not j:
            if c:
                live = [y >> word * _BLOCK for y in live + idle]
            live, idle = list(filter(busy, live)), list(filterfalse(busy, live))
        at = word * j
        head = mask << at
        for i, y in enumerate(live):
            if ((y & head) >> at) % p:
                break
        else:
            continue
        row = fold(live.pop(i) >> at)
        inv, tail = pow(row & mask, -1, p), row >> word
        pivots.append((c, inv, tail))
        placed, neg = tail << at + word, p - inv
        live = [y + m * placed if (m := ((y & head) >> at) * neg % p) else y for y in live]
    return pivots


def _solve_mod(pivots, free_cols, cols: int, p: int, word: int) -> list[list[int]]:
    """Per free column, the kernel vector modulo p that is 1 there and 0 at
    the other free columns, by back-substitution through the pivot rows.
    Each tail is unpacked once, and only when there is a free column."""
    if not free_cols:
        return []
    code = "I" if word == 32 else "Q"
    rows = []
    for c, inv, tail in reversed(pivots):
        n = cols - c - 1
        rows.append((c, inv, struct.unpack(f"<{n}{code}", tail.to_bytes(word // 8 * n, "little"))))
    vectors = []
    for f in free_cols:
        v = [0] * cols
        v[f] = 1
        for c, inv, tail in rows:
            if c < f:
                v[c] = -inv * sum(map(mul, tail, v[c + 1:])) % p
        vectors.append(v)
    return vectors


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

    The matrix is read only through ``rows``, ``cols``, ``packed``,
    ``annihilates`` and ``hadamard_square``.  In the package it is always a
    graph's ``BitMatrix``; any other matrix with those five members and
    fewer than 2**21 rows takes the same path.  A matrix of 2**21 rows or
    more raises ValueError, since one 64-bit slot per column no longer
    bounds the elimination.
    Elimination modulo a prime, on rows packed in the slots of ``_layout``
    (``_echelon_mod``: the slots never carry), fixes the rank and the free
    columns.  The basis vector of each free column (1 there, 0 at the other
    free columns) is solved modulo the prime from the pivot rows, each
    unpacked once, lifted to the rationals, cleared of its denominator and
    checked exactly against every row of the matrix.  The certificate is
    two-sided: the rank over Q is at least the rank modulo p, so the nullity
    is at most the number of free columns, and the checked vectors are
    independent (each is nonzero only at its own free column among the free
    columns), so it is at least that number.

    A failed lift or check moves to the next prime of a fixed descending
    sequence.  Residues of primes that give the same rank and pivot columns
    are combined by the Chinese remainder theorem; a prime giving a higher
    rank, or the same rank with lexicographically smaller pivot columns,
    restarts the combination, and one giving less is skipped.  The prime
    sequence is fixed, so the returned basis is deterministic.  One rule
    stops the loop in both layouts.  Every minor is at most H in absolute
    value, H**2 the ``hadamard_square``.  Under the rank and pivot columns
    over Q, each basis entry is a quotient of two minors (Cramer's rule), so
    the lift is exact once the modulus exceeds 2 * H**2.  The primes of a
    wrong key all divide one nonzero minor, a full-rank one on the pivot
    columns over Q, so their product stays at most H.  A correct elimination
    therefore never raises the ArithmeticError that a modulus past 2 * H**2
    with a failed lift or check gives.  The primes below 2**12 suffice for
    every 0/1 matrix of fewer than 256 rows (``_kernel_prime``); one whose
    lift needs more raises ArithmeticError too.
    """
    rows, cols = matrix.rows, matrix.cols
    if rows >= _MAX_ROWS:
        raise ValueError(f"matrix of {rows} rows: the kernel takes fewer than {_MAX_ROWS}")
    word, bits = _layout(rows)
    limit = 2 * matrix.hadamard_square()
    best = None
    for i in count():
        p = _kernel_prime(i, bits)
        pivots = _echelon_mod(matrix.packed(p, word), cols, p, word)
        pivot_cols = [pivot[0] for pivot in pivots]
        # smaller is nearer the rank and pivot columns over Q, which no prime beats
        key = (-len(pivots), pivot_cols)
        if best is not None and key > best:
            continue
        free_cols = sorted(set(range(cols)).difference(pivot_cols))
        vectors = _solve_mod(pivots, free_cols, cols, p, word)
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
        if modulus > limit:
            raise ArithmeticError("no kernel within twice the squared Hadamard bound")
