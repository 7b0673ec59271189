"""Tests for the exact matrix layer, with the dict polynomial arithmetic
of the test oracles and the cyclic fold behind the block invariants."""

import random
import struct
from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm, prod

import pytest

from nutforge import exact
from nutforge.constructions import direct_family_spec
from nutforge.exact import (
    _MAX_ROWS,
    BitMatrix,
    _echelon_mod,
    _folder,
    _kernel_prime,
    _layout,
    _solve_mod,
    matrix_kernel,
)
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    build,
    build_bicirculant,
    build_circulant,
)
from nutforge.cyclotomic import fold
from nutforge.numtheory import is_prime
from oracles import (
    IntMatrix,
    add,
    divrem,
    echelon_by_slots,
    entries,
    product,
    solve_by_slots,
)
from test_acceptance import _all_dihedral_specs, _inversion_closed_subset

X = {1: 1}
ONE = {0: 1}
ZERO = {}


def P(*coeffs):
    """Dense ascending-coefficient constructor shorthand."""
    return add(dict(enumerate(coeffs)))


def xp(k):
    """The monomial x^k."""
    return {k: 1}


def random_poly(rng, max_deg=8, max_coeff=6):
    return add({e: rng.randint(-max_coeff, max_coeff)
                for e in range(rng.randint(0, max_deg) + 1)})


class TestPolynomialBasics:
    def test_zero_normalization(self):
        assert fold([(3, 0), (1, 2)], 10) == {1: 2}
        assert fold([(2, 3), (2, -3), (1, 4)], 10) == {1: 4}
        assert add({2: 1, 3: 0}) == {2: 1}


class TestMul:
    def test_difference_of_squares(self):
        assert product(add(X, {0: -1}), add(X, ONE)) == P(-1, 0, 1)

    def test_absorbing_zero(self):
        assert product(ZERO, add(xp(5), {0: 3})) == ZERO

    def test_geometric_series_identity(self):
        assert product(P(1, 1, 1), add(X, {0: -1})) == P(-1, 0, 0, 1)

    def test_degree_additivity(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b = random_poly(rng), random_poly(rng)
            if not a or not b:
                assert not product(a, b)
            else:
                assert max(product(a, b)) == max(a) + max(b)


class TestDivRem:
    def test_exact_cubic(self):
        q, r = divrem(P(-1, 0, 0, 1), P(-1, 1))
        assert q == P(1, 1, 1)
        assert r == ZERO

    def test_fifth_root_cofactor(self):
        q, r = divrem(P(-1, 0, 0, 0, 0, 1), P(1, 1, 1, 1, 1))
        assert q == P(-1, 1)
        assert r == ZERO

    def test_nontrivial_remainder(self):
        q, r = divrem(P(1, 0, 1), P(1, 1))
        assert q == P(-1, 1)
        assert r == P(2)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divrem(X, ZERO)

    def test_monic_integer_divisor_stays_integral(self):
        rng = random.Random(11)
        for _ in range(80):
            num = random_poly(rng, max_deg=12)
            den = add(random_poly(rng, max_deg=5), xp(6))  # force monic degree 6
            q, r = divrem(num, den)
            assert all(isinstance(c, int) for c in (*q.values(), *r.values()))
            assert add(product(q, den), r) == num

    def test_mul_then_div_roundtrip(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_poly(rng)
            b = add(random_poly(rng), xp(9))  # any monic divisor
            q, r = divrem(product(a, b), b)
            assert q == a
            assert r == ZERO

    def test_division_identity_and_monic_guard(self):
        rng = random.Random(17)
        for _ in range(200):
            num = random_poly(rng)
            den = random_poly(rng)
            if not den:
                continue
            if den[max(den)] != 1:
                with pytest.raises(ValueError):
                    divrem(num, den)
                continue
            q, r = divrem(num, den)
            assert add(product(q, den), r) == num
            assert not r or max(r) < max(den)


class TestCyclicReduce:
    def test_exponent_fold(self):
        assert fold(xp(7).items(), 5) == xp(2)
        assert fold(xp(-3).items(), 5) == xp(2)

    def test_collapse_to_constant(self):
        assert fold(add(xp(5), xp(3), ONE).items(), 1) == P(3)

    def test_square_fold(self):
        # (x + x^3)^2 = x^2 + 2x^4 + x^6; exponents mod 4 give 2x^2 + 2.
        assert fold(product(add(X, xp(3)), add(X, xp(3))).items(), 4) == P(2, 0, 2)

    def test_congruent_modulo_cycle(self):
        rng = random.Random(19)
        for _ in range(100):
            p = random_poly(rng, max_deg=20)
            m = rng.randint(1, 9)
            cycle = {m: 1, 0: -1}
            diff = add(p, {e: -c for e, c in fold(p.items(), m).items()})
            assert divrem(diff, cycle)[1] == ZERO


def rational_rref_nullity(data):
    """Independent oracle: nullity via plain exact rational elimination."""
    return len(data[0]) - len(rref(data)) if data else 0


def rref(vectors):
    """Nonzero rows of the reduced row echelon form, in exact rationals."""
    m = [[Fraction(x) for x in row] for row in vectors]
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
    return m[:rank]


def bareiss_kernel(data):
    """Test-only oracle: the fraction-free (Bareiss) kernel the package used
    before its modular kernel, as (nullity, basis)."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    m = [list(r) for r in data]
    prev_pivot = 1
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
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
    basis = []
    for f in (c for c in range(cols) if c not in pivot_cols):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row_idx in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[row_idx]
            if pc > f:
                continue
            row = m[row_idx]
            s = sum((Fraction(row[j]) * v[j] for j in range(pc + 1, cols) if row[j]),
                    Fraction(0))
            v[pc] = -s / row[pc]
        basis.append(tuple(v))
    return cols - len(pivot_cols), basis


def primitive(vector):
    """The rational vector scaled to coprime integers with a positive first
    nonzero entry."""
    den = lcm(*(Fraction(x).denominator for x in vector))
    ints = [int(x * den) for x in vector]
    g = gcd(*ints)
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple(x // g for x in ints)


def assert_matches_bareiss(data):
    """Same nullity as the Bareiss oracle, the same primitive integer kernel
    vector at nullity one and the same span above it; every basis vector is
    primitive, annihilated, and nonzero at a column where the others are 0.
    Returns the basis."""
    basis = matrix_kernel(IntMatrix(data))
    nullity, oracle = bareiss_kernel(data)
    assert len(basis) == nullity
    if nullity == 1:
        assert basis[0] == primitive(oracle[0])
    elif nullity > 1 and basis != tuple(map(primitive, oracle)):
        assert rref(basis) == rref(oracle)
    for v in basis:
        assert all(type(x) is int for x in v) and primitive(v) == v
        assert not any(sum(a * b for a, b in zip(row, v)) for row in data)
        assert any(x and all(u[j] == 0 for u in basis if u is not v)
                   for j, x in enumerate(v))
    return basis


def assert_echelon_matches_rref(data):
    """One elimination modulo the first kernel prime of the matrix's layout
    finds the pivot columns of the exact reduced row echelon form, so a slot
    error fails here at once instead of sending the kernel on through the
    prime sequence; then the kernel matches the Bareiss oracle."""
    word, bits = _layout(len(data))
    p = _kernel_prime(0, bits)
    pivots = _echelon_mod(IntMatrix(data).packed(p, word), len(data[0]), p, word)
    assert [c for c, _, _ in pivots] == [next(j for j, x in enumerate(row) if x)
                                      for row in rref(data)]
    assert_matches_bareiss(data)


class TestMatrixKernel:
    def test_rank_one_symmetric(self):
        assert matrix_kernel(IntMatrix([[-2, 2], [2, -2]])) == ((1, 1),)

    def test_identity_trivial_kernel(self):
        assert matrix_kernel(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == ()

    def test_zero_matrix_full_kernel(self):
        assert matrix_kernel(IntMatrix([[0, 0], [0, 0]])) == ((1, 0), (0, 1))

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 7)
            k = rng.randint(1, 7)
            data = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
            mat = IntMatrix(data)
            basis = matrix_kernel(mat)
            assert len(basis) == rational_rref_nullity(data)
            for v in basis:
                assert not any(sum(a * x for a, x in zip(row, v)) for row in data)
            assert_matches_bareiss(data)

    def test_determinism(self):
        data = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert matrix_kernel(IntMatrix(data)) == matrix_kernel(IntMatrix(data))

    def test_primitive_normalization(self):
        # coprime entries, first nonzero entry positive, zero at the other
        # free columns
        assert matrix_kernel(IntMatrix([[-2, 1]])) == ((1, 2),)
        assert matrix_kernel(IntMatrix([[2, 1]])) == ((1, -2),)
        assert matrix_kernel(IntMatrix([[6, 4, 0]])) == ((2, -3, 0), (0, 0, 1))
        assert matrix_kernel(IntMatrix([[0, 3, 6]])) == ((1, 0, 0), (0, 2, -1))


def _circulant_jump_sets():
    for n in range(5, 21):
        pool = range(1, n // 2 + 1)
        for k in range(len(pool) + 1):
            for jumps in combinations(pool, k):
                yield CirculantSpec(n, jumps)


def _criterion_4_graphs():
    """The graphs of the dihedral and bicirculant specs of acceptance criterion 4."""
    for m in range(3, 9):
        for spec in _all_dihedral_specs(m):
            yield build_bicirculant(spec)
    rng = random.Random(20250810)
    for _ in range(500):
        m = rng.randint(3, 16)
        yield build_bicirculant(BicirculantSpec(
            m, _inversion_closed_subset(rng, m),
            frozenset(b for b in range(m) if rng.random() < 0.3),
            _inversion_closed_subset(rng, m)))


class TestMatchesBareiss:
    """Differential gate: the modular kernel against the Bareiss oracle (the
    120 random matrices of ``test_kernel_vectors_annihilated`` also run it)."""

    @pytest.mark.parametrize("data", [
        [], [[]], [[], []], [[0]], [[0, 0, 0]], [[0], [0], [0]],
        [[0] * 4 for _ in range(3)], [[1]], [[1, 0], [0, 1]],
        [[int(i == j) for j in range(6)] for i in range(6)],
    ])
    def test_zero_empty_and_identity(self, data):
        assert_matches_bareiss(data)

    def test_slots_near_the_prime(self):
        # entries congruent to -1 and -2 make every slot grow by nearly p**2
        # per pivot, the case the slot width is sized for
        rng = random.Random(29)
        for rows, cols in ((30, 30), (40, 25), (25, 40)):
            p = _kernel_prime(0, _layout(rows)[1])
            data = [[rng.choice((p - 1, p - 2, -1, 0, 1)) for _ in range(cols)]
                    for _ in range(rows)]
            for r in range(0, rows - 1, 3):  # plant dependent rows
                data[r + 1] = [a + 2 * b for a, b in zip(data[r], data[r + 1])]
                data[r] = list(data[r + 1])
            assert_matches_bareiss(data)

    def test_tall_thin_matrix(self):
        # many more rows than columns
        rng = random.Random(31)
        data = [[rng.randint(-3, 3), rng.randint(-3, 3), 0, 0] for _ in range(8192)]
        data[5][2] = data[7][2] = 1
        data[6][2] = 2
        assert_matches_bareiss(data)
        assert_matches_bareiss([row[:2] + [0] for row in data])

    def test_circulants(self):
        # the bit rows of the graph give the basis of its integer entries
        for spec in _circulant_jump_sets():
            g = build_circulant(spec)
            for shift in (0, 1):
                a = BitMatrix(g.adjacency_rows(), shift)
                assert matrix_kernel(a) == assert_matches_bareiss(entries(a))

    def test_criterion_4_dihedral_and_bicirculant_specs(self):
        for g in _criterion_4_graphs():
            for shift in (0, 1):
                a = BitMatrix(g.adjacency_rows(), shift)
                assert matrix_kernel(a) == assert_matches_bareiss(entries(a))

    @pytest.mark.parametrize("cols", [7, 8, 9, 16, 17, 24])
    def test_widths_at_block_edges(self, cols):
        # the elimination shifts the live rows once per block of 8 columns
        rng = random.Random(cols)
        for rows in (cols - 3, cols, cols + 2):
            data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            assert_echelon_matches_rref(data)
            data[-1] = [a - b for a, b in zip(data[0], data[1])]  # rank one less
            assert_echelon_matches_rref(data)

    @pytest.mark.parametrize("zero_cols", [(7,), (8,), (15,), (16,), (7, 8, 15, 16)])
    def test_pivotless_zero_columns_at_block_edges(self, zero_cols):
        # a column without a pivot still moves the head to the next slot
        rng = random.Random(sum(zero_cols))
        for rows, cols in ((20, 20), (14, 24), (24, 17)):
            data = [[0 if c in zero_cols else rng.randint(-3, 3) for c in range(cols)]
                    for _ in range(rows)]
            assert_echelon_matches_rref(data)

    @pytest.mark.parametrize("edge", [7, 8, 15, 16])
    def test_rank_drop_at_block_edge(self, edge):
        # column ``edge`` is a combination of earlier columns: no pivot, though
        # its slots can hold nonzero multiples of p after earlier eliminations
        rng = random.Random(edge)
        for rows, cols in ((20, 20), (24, 18)):
            data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for row in data:
                row[edge] = 2 * row[0] - row[edge - 1] + 3 * row[edge // 2]
            assert_echelon_matches_rref(data)


#: (word, bits) of the two slot layouts, the first below 256 rows.
LAYOUTS = ((32, 12), (64, 21))


class TestSlotBound:
    """One word per slot holds every matrix the kernel takes, in either
    layout."""

    def test_slot_never_carries(self):
        # a slot stays below p + rows * p**2 < 2**(2*bits(p) + bits(rows))
        assert [_layout(rows) for rows in (0, 255, 256, _MAX_ROWS - 1)] == [
            LAYOUTS[0], LAYOUTS[0], LAYOUTS[1], LAYOUTS[1]]
        for largest, (word, bits) in zip((255, _MAX_ROWS - 1), LAYOUTS):
            assert 2 * _kernel_prime(0, bits).bit_length() + largest.bit_length() <= word
        assert 2 * _kernel_prime(0, 21).bit_length() + (_MAX_ROWS - 1).bit_length() <= 63

    def test_small_primes_cannot_run_out(self):
        # the lift of a 0/1 matrix below 256 rows needs a modulus above
        # 2 * H**2, H = 255**127.5 its Hadamard bound, and the primes that
        # give a wrong rank or pivot columns divide a nonzero minor, so
        # their product is at most H; the last prime overshoots by < 2**12
        primes = list(map(_kernel_prime, range(563), [12] * 563))
        with pytest.raises(ArithmeticError, match="no kernel prime left"):
            _kernel_prime(563, 12)
        assert primes[0] == 4093 and primes[-1] == 3
        assert all(map(is_prime, primes)) and primes == sorted(set(primes), reverse=True)
        assert all((1 << q.bit_length()) - q < 1 << q.bit_length() - 1 for q in primes)
        hadamard = isqrt(255 ** 255) + 1
        assert hadamard < 1 << 1020
        product = prod(primes)
        assert product > 1 << 5800
        assert 2 * hadamard ** 2 * hadamard * (1 << 12) < product

    def test_taller_matrices_are_refused(self):
        class Tall:  # reports its size and holds no rows
            rows = cols = _MAX_ROWS

        with pytest.raises(ValueError, match="fewer than"):
            matrix_kernel(Tall())


def _first_prime_with_c(least_c: int, bits: int) -> int:
    """The first kernel prime p below 2**bits with 2**bits(p) - p >= least_c."""
    return next(p for p in (_kernel_prime(i, bits) for i in count())
                if (1 << p.bit_length()) - p >= least_c)


class TestFoldBound:
    """A folded pivot row keeps each slot small enough that a multiple of it
    below p adds less than 2**(2*bits(p)) to a slot, in either layout."""

    @pytest.mark.parametrize("p, word", [
        pytest.param(p, word, id=str(p))
        for word, bits in LAYOUTS
        for p in (_kernel_prime(0, bits), _first_prime_with_c(1 << 10, bits))])
    def test_worst_case_slots(self, p, word):
        k, slots = p.bit_length(), 40
        bound = (1 << k + 1) - p - 1
        assert p * bound < 1 << 2 * k
        code = "I" if word == 32 else "Q"
        fold, rng = _folder(p, slots, word), random.Random(p)
        for before in ([(1 << word) - 1] * slots, [rng.randrange(1 << word) for _ in range(slots)]):
            row = fold(int.from_bytes(struct.pack(f"<{slots}{code}", *before), "little"))
            after = struct.unpack(f"<{slots}{code}", row.to_bytes(word // 8 * slots, "little"))
            assert all(x <= bound for x in after)
            assert [x % p for x in after] == [x % p for x in before]


def assert_matches_slot_elimination(matrix, monkeypatch):
    """The folded elimination and back substitution give the pivot columns
    and kernel vectors of the slot-by-slot ones at the first prime, so an
    error fails here at once instead of sending the kernel on through the
    prime sequence; then ``matrix_kernel`` returns the same basis through
    either."""
    (word, bits), cols = _layout(matrix.rows), matrix.cols
    p = _kernel_prime(0, bits)
    new = _echelon_mod(matrix.packed(p, word), cols, p, word)
    old = echelon_by_slots(matrix.packed(p, word), cols, p, word)
    assert [c for c, _, _ in new] == [c for c, _ in old]
    free = sorted(set(range(cols)).difference(c for c, _ in old))
    assert _solve_mod(new, free, cols, p, word) == solve_by_slots(old, free, cols, p, word)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_echelon_mod", echelon_by_slots)
        patch.setattr(exact, "_solve_mod", solve_by_slots)
        by_slots = matrix_kernel(matrix)
    assert matrix_kernel(matrix) == by_slots


def _family_and_random_graphs():
    """Dihedral degree-(8t+6) and (8t+10) family graphs and random
    bicirculants, m from 20 to 100."""
    for m in range(20, 101, 16):
        for d in (6, 10, 14, 18, 22):
            yield build(direct_family_spec(d, m))
    rng = random.Random(22)
    for m in range(20, 101, 8):
        yield build_bicirculant(BicirculantSpec(
            m, _inversion_closed_subset(rng, m),
            frozenset(b for b in range(m) if rng.random() < 0.3),
            _inversion_closed_subset(rng, m)))


def _random_symmetric_bits(rng, n: int) -> tuple[int, ...]:
    """Bit rows of a random symmetric 0/1 matrix of order n, zero diagonal."""
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.4:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


class TestMatchesSlotElimination:
    """Differential gate: the kernel through the folded elimination returns
    the basis that the slot-by-slot elimination it replaced returns."""

    def test_family_and_random_bicirculant_graphs(self, monkeypatch):
        for g in _family_and_random_graphs():
            for shift in (0, 1):
                a = BitMatrix(g.adjacency_rows(), shift)
                assert_matches_slot_elimination(a, monkeypatch)

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 31, 32, 33])
    def test_random_symmetric_at_block_edges(self, n, monkeypatch):
        rng = random.Random(n)
        for _ in range(6):
            bits = _random_symmetric_bits(rng, n)
            for a in (BitMatrix(bits), BitMatrix(bits, 1),
                      IntMatrix([[rng.randint(0, 1) if i == j else r >> j & 1 for j in range(n)]
                                 for i, r in enumerate(bits)])):
                assert_matches_slot_elimination(a, monkeypatch)

    def test_several_primes_cases(self, monkeypatch):
        for word, bits in LAYOUTS:
            p = _kernel_prime(0, bits)
            q = _kernel_prime(0, bits) * _kernel_prime(1, bits) * _kernel_prime(2, bits)
            for data in ([[p]], [[p, 0], [0, 0]], [[p, 1]], [[2**40, -1]],
                         [[2**60 + 1, -(3**40)], [0, 0]], [[q, 0], [0, q]],
                         [[q, 1, 0], [0, q, q], [q, 1 + q, q]], [[2**40, -1, 3], [5, 0, 2**33]]):
                assert_matches_slot_elimination(IntMatrix(in_layout(data, word)), monkeypatch)


def in_layout(data, word: int):
    """data as it is for the 32-bit layout; for the 64-bit one, block
    diagonal beside a 256 x 256 identity block, which gives it 256 rows or
    more and adds no kernel vector."""
    if word == 32:
        return data
    cols = len(data[0])
    return ([row + [0] * 256 for row in data]
            + [[0] * cols + [int(i == j) for j in range(256)] for i in range(256)])


def kernel_in_layout(data, word: int):
    """``matrix_kernel`` of data in the ``word``-bit layout, each basis
    vector cut back to data's columns."""
    matrix = IntMatrix(in_layout(data, word))
    assert _layout(matrix.rows)[0] == word
    basis, cols = matrix_kernel(matrix), len(data[0])
    assert not any(any(v[cols:]) for v in basis)
    return tuple(v[:cols] for v in basis)


class TestSeveralPrimes:
    """Inputs on which the first prime alone cannot certify the kernel, in
    both slot layouts."""

    def test_unlucky_first_prime(self):
        for word, bits in LAYOUTS:
            p = _kernel_prime(0, bits)
            assert kernel_in_layout([[p]], word) == ()
            assert kernel_in_layout([[p, 0], [0, 0]], word) == ((0, 1),)
            # the first prime picks the wrong pivot column; the second restarts
            assert kernel_in_layout([[p, 1]], word) == ((1, -p),)

    def test_entries_past_one_prime_bound(self):
        for word, _ in LAYOUTS:
            assert kernel_in_layout([[2**40, -1]], word) == ((1, 2**40),)
            res = kernel_in_layout([[2**60 + 1, -(3**40)], [0, 0]], word)
            assert res == ((3**40, 2**60 + 1),)

    def test_product_of_primes(self):
        # zero modulo each of the first three primes, whose combined residues
        # fail the check, until the fourth restarts at full rank
        for word, bits in LAYOUTS:
            q = _kernel_prime(0, bits) * _kernel_prime(1, bits) * _kernel_prime(2, bits)
            assert kernel_in_layout([[q, 0], [0, q]], word) == ()
            data = [[q, 1, 0], [0, q, q], [q, 1 + q, q]]
            assert kernel_in_layout(data, word) == assert_matches_bareiss(data)

    def test_determinism(self):
        data = [[2**40, -1, 3], [5, 0, 2**33]]
        for word, _ in LAYOUTS:
            assert kernel_in_layout(data, word) == kernel_in_layout(data, word)


class TestBothSidesOfTheSwitch:
    """Differential gates on both sides of the layout switch at 256 rows:
    the kernel against the Bareiss oracle, and the folded elimination
    against the slot-by-slot one, at 1-17 rows (32-bit words) and at 254
    and 255 rows (32-bit words) against 256 and 257 (64-bit words)."""

    @pytest.mark.parametrize("rows", range(1, 18))
    def test_small_matrices(self, rows, monkeypatch):
        rng = random.Random(rows)
        for cols in (max(1, rows - 3), rows, rows + 2):
            data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            if rows > 1:
                data[-1] = [a - 2 * b for a, b in zip(data[0], data[1])]  # rank one less
            assert_matches_bareiss(data)
            assert_matches_slot_elimination(IntMatrix(data), monkeypatch)
        bits = _random_symmetric_bits(rng, rows)
        for shift in (0, 1):
            a = BitMatrix(bits, shift)
            assert matrix_kernel(a) == assert_matches_bareiss(entries(a))
            assert_matches_slot_elimination(a, monkeypatch)

    @pytest.mark.parametrize("rows", [254, 255, 256, 257])
    def test_matrices_at_the_switch(self, rows, monkeypatch):
        # C(1, 2) has nullity 1 at order 254 and 256, and A + I nullity 4 at 255
        g = build_circulant(CirculantSpec(rows, (1, 2)))
        for shift in (0, 1):
            a = BitMatrix(g.adjacency_rows(), shift)
            assert matrix_kernel(a) == assert_matches_bareiss(entries(a))
            assert_matches_slot_elimination(a, monkeypatch)
        rng = random.Random(rows)
        data = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(24)] for _ in range(rows)]
        for row in data:  # tall and sparse, with a dependent column
            row[5] = row[0] - 2 * row[3]
        assert_matches_bareiss(data)
        assert_matches_slot_elimination(IntMatrix(data), monkeypatch)
        assert_matches_slot_elimination(BitMatrix(_random_symmetric_bits(rng, rows), 1),
                                        monkeypatch)
