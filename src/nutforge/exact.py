"""Exact sparse polynomials and exact integer matrix algebra.

Polynomials are stored sparsely as an exponent -> coefficient mapping with no
zero coefficients.  Coefficients are arbitrary-precision integers throughout
the package; division by a non-monic divisor may introduce exact
``fractions.Fraction`` coefficients, which are normalized back to ``int``
whenever they are integral.

The degree of the zero polynomial is the sentinel ``NEG_INF``, which compares
less than every integer.

Matrices are dense with arbitrary-precision integer entries.  The kernel is
computed by fraction-free (Bareiss) forward elimination followed by a rational
back-substitution, with the pivot always taken as the first nonzero entry in
column order so that identical inputs give bit-identical results.
"""

from __future__ import annotations

from fractions import Fraction

NEG_INF = float("-inf")


def _normalize_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Polynomial:
    """Immutable sparse polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items() if isinstance(terms, dict) else terms:
                if e < 0 or e != int(e):
                    raise ValueError(f"exponent must be a non-negative integer, got {e}")
                c = _normalize_coeff(c)
                if c:
                    prev = clean.get(e)
                    c = _normalize_coeff(prev + c) if prev is not None else c
                    if c:
                        clean[int(e)] = c
                    else:
                        del clean[e]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({0: 1})

    @classmethod
    def x(cls) -> "Polynomial":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient=1) -> "Polynomial":
        return cls({exponent: coefficient})

    @classmethod
    def from_coefficients(cls, coeffs) -> "Polynomial":
        """Build from a dense ascending coefficient list [c0, c1, ...]."""
        return cls({e: c for e, c in enumerate(coeffs)})

    @property
    def degree(self):
        return max(self.terms) if self.terms else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def coefficient(self, exponent: int):
        return self.terms.get(exponent, 0)

    @property
    def leading_coefficient(self):
        return self.terms[max(self.terms)] if self.terms else 0

    def items(self):
        """Terms as (exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self.terms.items())

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
        if isinstance(other, (int, Fraction)):
            other = Polynomial({0: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = _normalize_coeff(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial({0: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, value):
        """Evaluate at an exact value (int or Fraction)."""
        total = 0
        for e, c in self.terms.items():
            total += c * value**e
        return _normalize_coeff(total)

    def scale_exponents(self, k: int) -> "Polynomial":
        """Substitute x -> x^k, i.e. multiply every exponent by k >= 1."""
        if k < 1:
            raise ValueError("exponent scale must be >= 1")
        return Polynomial({e * k: c for e, c in self.terms.items()})

    def cyclic_reduce(self, m: int) -> "Polynomial":
        """Reduce modulo x^m - 1: replace each exponent e by e mod m."""
        if m < 1:
            raise ValueError("cyclic modulus must be >= 1")
        out: dict = {}
        for e, c in self.terms.items():
            r = e % m
            out[r] = out.get(r, 0) + c
        return Polynomial(out)

    def divrem(self, den: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact division with remainder: self = q * den + r, deg r < deg den.

        Raises ZeroDivisionError for a zero divisor.  When den is monic with
        integer coefficients the result has integer coefficients; otherwise
        coefficients are exact Fractions.
        """
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        dd = den.degree
        if self.degree < dd:
            return Polynomial.zero(), self
        nd = self.degree
        num = [0] * (nd + 1)
        for e, c in self.terms.items():
            num[e] = c
        dvs = [0] * (dd + 1)
        for e, c in den.terms.items():
            dvs[e] = c
        lead = dvs[dd]
        monic_int = lead == 1 and den.is_integral
        quo = [0] * (nd - dd + 1)
        for i in range(nd, dd - 1, -1):
            c = num[i]
            if not c:
                continue
            q = c if monic_int else _normalize_coeff(Fraction(c) / lead)
            quo[i - dd] = q
            num[i] = 0
            for j in range(dd):
                if dvs[j]:
                    num[i - dd + j] = _normalize_coeff(num[i - dd + j] - q * dvs[j])
        return (Polynomial({e: c for e, c in enumerate(quo) if c}),
                Polynomial({e: c for e, c in enumerate(num[:dd]) if c}))

    def __divmod__(self, other):
        return self.divrem(other)

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
        rows = tuple(tuple(int(x) for x in row) for row in data)
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def shifted(self, shift: int) -> "IntMatrix":
        """Return self + shift * I (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("diagonal shift needs a square matrix")
        return IntMatrix([
            [self.data[i][j] + (shift if i == j else 0) for j in range(self.cols)]
            for i in range(self.rows)
        ])

    def mul_vector(self, v):
        """Matrix-vector product with exact arithmetic (v of length cols)."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.data)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


class KernelResult:
    """Exact right-nullspace: nullity plus a rational basis.

    Each basis vector is a tuple of Fractions annihilated by the source
    matrix; the basis length equals the nullity.
    """

    __slots__ = ("nullity", "basis")

    def __init__(self, nullity: int, basis):
        object.__setattr__(self, "nullity", nullity)
        object.__setattr__(self, "basis", tuple(tuple(v) for v in basis))

    def __setattr__(self, name, value):
        raise AttributeError("KernelResult is immutable")

    def __repr__(self):
        return f"KernelResult(nullity={self.nullity}, basis={self.basis!r})"


def matrix_kernel(matrix: IntMatrix) -> KernelResult:
    """Exact right nullspace of an integer matrix.

    Forward elimination is fraction-free (one-step Bareiss), which keeps every
    intermediate entry an exact minor of the input and bounds coefficient
    growth; back-substitution for the basis vectors uses exact rationals.
    Pivoting is fixed (first nonzero entry in column order) so the returned
    basis is deterministic.
    """
    rows, cols = matrix.rows, matrix.cols
    m = [list(r) for r in matrix.data]
    prev_pivot = 1
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            head = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, cols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev_pivot
            row_i[c] = 0
        prev_pivot = pivot
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    rank = len(pivot_cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row_idx in range(rank - 1, -1, -1):
            pc = pivot_cols[row_idx]
            if pc > f:
                continue
            row = m[row_idx]
            s = sum((Fraction(row[j]) * v[j] for j in range(pc + 1, cols) if row[j]),
                    Fraction(0))
            v[pc] = -s / row[pc]
        basis.append(tuple(v))
    return KernelResult(cols - rank, basis)


def integer_kernel_vector(vector) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    The result has coprime entries and a positive first nonzero entry, which
    makes certificates printable and comparable.
    """
    from math import gcd, lcm

    fracs = [Fraction(x) for x in vector]
    denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)
