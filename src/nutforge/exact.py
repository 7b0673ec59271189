"""Exact integer matrices and their certified kernel.

A matrix comes in one of two row formats: ``IntMatrix``, dense with
arbitrary-precision integer entries, and ``BitMatrix``, the 0/1 rows of a
graph as integer bitmasks plus a multiple of the identity.  The kernel reads
a matrix only through two methods that both formats implement: ``packed``,
each row reduced modulo a prime and packed into one integer with a
fixed-width slot per column, and ``annihilates``, the exact check A v = 0.

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
therefore give bit-identical results, whichever row format holds them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache
from itertools import compress, count
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

    def packed(self, p: int, words: int) -> list[int]:
        """Each row modulo p, packed into slots of ``words`` 64-bit words."""
        return [_pack([x % p for x in row], words) for row in self.data]

    def annihilates(self, v) -> bool:
        """Whether every row has a zero dot product with v."""
        return not any(sum(map(mul, row, v)) for row in self.data)


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

    def _byte_rows(self):
        """Each row as bytes of 0 and 1, byte j for column j."""
        n = len(self.bit_rows)
        for r in self.bit_rows:
            yield format(r, f"0{n}b")[::-1].encode().translate(_BIT_VALUES)

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The entries, row by row."""
        data = []
        for k, bits in enumerate(self._byte_rows()):
            row = list(bits)
            row[k] = self.shift
            data.append(tuple(row))
        return tuple(data)

    def packed(self, p: int, words: int) -> list[int]:
        """Each row modulo p, packed into slots of ``words`` 64-bit words.

        Read as hexadecimal, a row's binary string with 16 * words - 1 zero
        digits after each bit but the last has bit j in the lowest digit of
        slot j; the diagonal slot k then gets shift mod p.
        """
        gap = "0" * (16 * words - 1)
        width = 64 * words
        d = self.shift % p
        return [int(gap.join(format(r, "b")), 16) + (d << width * k)
                for k, r in enumerate(self.bit_rows)]

    def annihilates(self, v) -> bool:
        """Whether every row has a zero dot product with v."""
        s = self.shift
        return not any(sum(compress(v, bits)) + s * v[k]
                       for k, bits in enumerate(self._byte_rows()))


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


def _pack(residues, words: int) -> int:
    """Residues in [0, 2**64) packed into one integer, ``words`` 64-bit words
    per slot, the first residue in the lowest slot."""
    w = [0] * (words * len(residues))
    w[::words] = residues
    return int.from_bytes(struct.pack(f"<{len(w)}Q", *w), "little")


#: Columns eliminated between two shifts of the live rows.
_BLOCK = 8


def _echelon_mod(live: list[int], cols: int, p: int,
                 words: int) -> list[tuple[int, list[int]]]:
    """Row echelon form modulo p of the rows packed by ``packed(p, words)``:
    (column, row) per pivot, each row given from its pivot column on,
    reduced and scaled to lead with 1.

    Columns are eliminated in blocks of ``_BLOCK``.  Column c sits in slot
    j = c mod ``_BLOCK`` of the live rows, and its heads are read there with
    a mask; the live rows are shifted right by a whole block once per block,
    not once per column.  Eliminating column c adds head * (-pivot row),
    packed from slot j + 1 on, with every slot of the added row in [0, p),
    so slots only grow and never borrow.  A slot starts below p and gains
    less than p**2 per pivot, at most ``rows`` times, so it stays below
    p + rows * p**2, and a slot of 2*bits(p) + bits(rows) + 1 bits (rounded
    up to whole 64-bit words) never carries into the next.  The dead slots
    below j, left in place until the block shift, keep that bound: a slot
    gets no addition after its own column.  Only pivot rows are unpacked and
    reduced.
    """
    width = 64 * words
    mask = (1 << width) - 1
    pivots = []
    for c in range(cols):
        j = c % _BLOCK
        if c and not j:
            live = [y >> _BLOCK * width for y in live]
        at = j * width
        head = mask << at
        for i, y in enumerate(live):
            if ((y & head) >> at) % p:
                break
        else:
            continue
        n = words * (cols - c)
        w = struct.unpack(f"<{n}Q", (live.pop(i) >> at).to_bytes(8 * n, "little"))
        slots = w[::words]
        for t in range(1, words):
            slots = [s + (x << 64 * t) for s, x in zip(slots, w[t::words])]
        inv = pow(slots[0] % p, -1, p)
        row = [s * inv % p for s in slots]
        pivots.append((c, row))
        neg = _pack([-r % p for r in row[1:]], words) << at + width
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


def matrix_kernel(matrix: IntMatrix | BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact right nullspace of an integer matrix, as a basis of primitive
    integer vectors: one per free column, zero at the other free columns,
    with coprime entries and a positive first nonzero entry.  The nullity is
    the length of the basis.

    The matrix is read only through ``packed`` and ``annihilates``, so an
    ``IntMatrix`` and the ``BitMatrix`` with the same entries take the same
    path and give the same basis.  Elimination modulo a prime, on the packed
    rows in blocks of columns (``_echelon_mod`` states why the slots, the
    dead ones left until each block shift included, never carry), fixes the
    rank and the free columns; the basis
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
    rows, cols = matrix.rows, matrix.cols
    best = None
    for i in count():
        p = _kernel_prime(i)
        words = (2 * p.bit_length() + rows.bit_length() + 64) // 64  # see _echelon_mod
        pivots = _echelon_mod(matrix.packed(p, words), cols, p, words)
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
