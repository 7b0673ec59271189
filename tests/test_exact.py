"""Tests for the exact polynomial and matrix layer."""

import random
from fractions import Fraction

import pytest

from nutforge.exact import (
    NEG_INF,
    IntMatrix,
    Polynomial,
    integer_kernel_vector,
    matrix_kernel,
)

X = Polynomial.x()
ONE = Polynomial.one()
ZERO = Polynomial.zero()


def P(*coeffs):
    """Dense ascending-coefficient constructor shorthand."""
    return Polynomial.from_coefficients(coeffs)


def random_poly(rng, max_deg=8, max_coeff=6):
    return Polynomial({e: rng.randint(-max_coeff, max_coeff)
                       for e in range(rng.randint(0, max_deg) + 1)})


class TestPolynomialBasics:
    def test_zero_normalization(self):
        assert Polynomial({3: 0, 1: 2}) == Polynomial({1: 2})
        assert Polynomial({2: Fraction(4, 2)}) == Polynomial({2: 2})
        assert Polynomial({2: 1, 3: 0}).terms == {2: 1}

    def test_degree_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert ZERO.degree < -(10**9)
        assert (X**5).degree == 5

    def test_equality_is_term_equality(self):
        assert P(1, 2, 3) == Polynomial({0: 1, 1: 2, 2: 3})
        assert P(0, 1) != P(0, 0, 1)

    def test_evaluation(self):
        p = P(-1, 0, 1)  # x^2 - 1
        assert p(3) == 8
        assert p(Fraction(1, 2)) == Fraction(-3, 4)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.terms = {}


class TestMul:
    def test_difference_of_squares(self):
        assert (X - 1) * (X + 1) == P(-1, 0, 1)

    def test_absorbing_zero(self):
        assert ZERO * (X**5 + 3) == ZERO

    def test_geometric_series_identity(self):
        assert P(1, 1, 1) * (X - 1) == P(-1, 0, 0, 1)

    def test_degree_additivity(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b = random_poly(rng), random_poly(rng)
            if a.is_zero or b.is_zero:
                assert (a * b).is_zero
            else:
                assert (a * b).degree == a.degree + b.degree


class TestDivRem:
    def test_exact_cubic(self):
        q, r = P(-1, 0, 0, 1).divrem(X - 1)
        assert q == P(1, 1, 1)
        assert r == ZERO

    def test_fifth_root_cofactor(self):
        q, r = P(-1, 0, 0, 0, 0, 1).divrem(P(1, 1, 1, 1, 1))
        assert q == X - 1
        assert r == ZERO

    def test_nontrivial_remainder(self):
        q, r = P(1, 0, 1).divrem(X + 1)
        assert q == X - 1
        assert r == P(2)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            X.divrem(ZERO)

    def test_monic_integer_divisor_stays_integral(self):
        rng = random.Random(11)
        for _ in range(80):
            num = random_poly(rng, max_deg=12)
            den = random_poly(rng, max_deg=5) + X**6  # force monic degree 6
            q, r = num.divrem(den)
            assert q.is_integral and r.is_integral

    def test_mul_then_div_roundtrip(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng)
            if b.is_zero:
                continue
            q, r = (a * b).divrem(b)
            assert q == a
            assert r == ZERO

    def test_rational_division_identity(self):
        rng = random.Random(17)
        for _ in range(200):
            num = random_poly(rng)
            den = random_poly(rng)
            if den.is_zero:
                continue
            q, r = num.divrem(den)
            assert q * den + r == num
            assert r.is_zero or r.degree < den.degree


class TestCyclicReduce:
    def test_exponent_fold(self):
        assert (X**7).cyclic_reduce(5) == X**2

    def test_collapse_to_constant(self):
        assert (X**5 + X**3 + 1).cyclic_reduce(1) == P(3)

    def test_square_fold(self):
        # (x + x^3)^2 = x^2 + 2x^4 + x^6; exponents mod 4 give 2x^2 + 2.
        assert ((X + X**3) ** 2).cyclic_reduce(4) == P(2, 0, 2)

    def test_congruent_modulo_cycle(self):
        rng = random.Random(19)
        for _ in range(100):
            p = random_poly(rng, max_deg=20)
            m = rng.randint(1, 9)
            cycle = Polynomial({m: 1, 0: -1})
            diff = p - p.cyclic_reduce(m)
            assert diff.divrem(cycle)[1] == ZERO


def rational_rref_nullity(data):
    """Independent oracle: nullity via plain exact rational elimination."""
    m = [[Fraction(x) for x in row] for row in data]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return cols - rank


class TestMatrixKernel:
    def test_rank_one_symmetric(self):
        res = matrix_kernel(IntMatrix([[-2, 2], [2, -2]]))
        assert res.nullity == 1
        v = res.basis[0]
        assert v[0] == v[1] != 0

    def test_identity_trivial_kernel(self):
        assert matrix_kernel(IntMatrix.identity(3)).nullity == 0

    def test_zero_matrix_full_kernel(self):
        res = matrix_kernel(IntMatrix.zeros(2, 2))
        assert res.nullity == 2
        assert len(res.basis) == 2

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 7)
            k = rng.randint(1, 7)
            data = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
            mat = IntMatrix(data)
            res = matrix_kernel(mat)
            assert res.nullity == len(res.basis)
            assert res.nullity == rational_rref_nullity(data)
            for v in res.basis:
                assert all(x == 0 for x in mat.mul_vector(v))

    def test_determinism(self):
        data = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        r1 = matrix_kernel(IntMatrix(data))
        r2 = matrix_kernel(IntMatrix(data))
        assert r1.basis == r2.basis

    def test_integer_kernel_vector_normalization(self):
        v = integer_kernel_vector((Fraction(-1, 2), Fraction(-1, 2)))
        assert v == (1, 1)
        v = integer_kernel_vector((Fraction(2, 3), Fraction(4, 3)))
        assert v == (1, 2)
