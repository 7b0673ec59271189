"""Tests for cyclotomic polynomial generation, divisibility, and index pruning."""

import random

import pytest

from nutforge.cyclotomic import (
    CycIndex,
    cyclotomic,
    divides_cyclotomic,
    enumerate_feasible_indices,
    prime_power_cancellation_applies,
    radical_scaling_identity_holds,
    residue_split,
)
from nutforge.exact import Polynomial
from nutforge.numtheory import divisors, euler_phi, radical

X = Polynomial.x()


def P(*coeffs):
    return Polynomial.from_coefficients(coeffs)


class TestCyclotomic:
    def test_first_two(self):
        assert cyclotomic(1) == X - 1
        assert cyclotomic(2) == X + 1

    def test_index_twelve(self):
        # Derived by dividing x^12 - 1 by the five proper-divisor polynomials;
        # also equals the sixth polynomial with x -> x^2.
        assert cyclotomic(12) == P(1, 0, -1, 0, 1)
        assert cyclotomic(12) == cyclotomic(6).scale_exponents(2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_over_divisors(self):
        for n in range(1, 61):
            prod = Polynomial.one()
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod == Polynomial({n: 1, 0: -1})

    def test_degree_is_totient(self):
        for n in range(1, 121):
            assert cyclotomic(n).degree == euler_phi(n)

    def test_prime_square_substitution(self):
        # For p^2 | n the n-th polynomial is the (n/p)-th with x -> x^p.
        for n in range(2, 101):
            for p, e in CycIndex.of(n).prime_factorization:
                if e >= 2:
                    assert cyclotomic(n) == cyclotomic(n // p).scale_exponents(p)

    def test_cache_safe_under_concurrent_access(self):
        # Concurrent first computations must all observe fully built
        # polynomials and agree with the serial results.
        import importlib
        import threading

        cyc = importlib.import_module("nutforge.cyclotomic")

        with cyc._PHI_LOCK:
            saved = dict(cyc._PHI_CACHE)
            cyc._PHI_CACHE.clear()
        try:
            results: dict[int, Polynomial] = {}
            errors = []

            def worker(n):
                try:
                    results[n] = cyclotomic(n)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(n,))
                       for n in (60, 60, 72, 72, 90, 96, 105, 105)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors
            for n, poly in results.items():
                assert poly.degree == euler_phi(n)
        finally:
            with cyc._PHI_LOCK:
                cyc._PHI_CACHE.update(saved)


class TestDividesCyclotomic:
    def test_cycle_polynomial(self):
        assert divides_cyclotomic(Polynomial({5: 1, 0: -1}), 5)

    def test_family_member_not_divisible_at_two(self):
        # Family Q at t = 0 is x^7 - x^5 + x^4 - x^3; its value at -1 is 2.
        q0 = Polynomial({7: 1, 5: -1, 4: 1, 3: -1})
        assert q0(-1) == 2
        assert not divides_cyclotomic(q0, 2)

    def test_fifth_cyclotomic_divides_itself(self):
        assert divides_cyclotomic(P(1, 1, 1, 1, 1), 5)

    def test_zero_divisible_by_everything(self):
        assert divides_cyclotomic(Polynomial.zero(), 7)

    def test_matches_plain_division(self):
        # Dual route: the compressed test must agree with direct division.
        rng = random.Random(31)
        for _ in range(150):
            b = rng.randint(1, 36)
            p = Polynomial({rng.randint(0, 40): rng.randint(-3, 3)
                            for _ in range(rng.randint(1, 6))})
            if rng.random() < 0.5:
                p = p * cyclotomic(b)
            direct = p.divrem(cyclotomic(b))[1].is_zero if not p.is_zero else True
            assert divides_cyclotomic(p, b) == direct

    def test_planted_multiples(self):
        rng = random.Random(37)
        for b in (4, 8, 9, 12, 18, 27, 36, 50):
            h = Polynomial({rng.randint(0, 25): rng.randint(1, 4) for _ in range(4)})
            assert divides_cyclotomic(h * cyclotomic(b), b)

    def test_invariant_with_cyclic_reduce(self):
        rng = random.Random(41)
        for _ in range(120):
            b = rng.randint(1, 24)
            p = Polynomial({rng.randint(0, 60): rng.randint(-4, 4)
                            for _ in range(rng.randint(1, 8))})
            assert divides_cyclotomic(p, b) == divides_cyclotomic(p.cyclic_reduce(b), b)


class TestRadicalHelpers:
    def test_radical_values(self):
        assert radical(12) == 6
        assert radical(1) == 1
        assert radical(8) == 2

    def test_scaling_identity(self):
        assert radical_scaling_identity_holds(12)
        assert radical_scaling_identity_holds(30)  # square-free: identity map
        assert radical_scaling_identity_holds(16)  # x^8 + 1 from x + 1

    def test_scaling_identity_range(self):
        for n in range(1, 101):
            assert radical_scaling_identity_holds(n)


class TestResidueSplit:
    def test_parity_partition(self):
        p = Polynomial({5: 1, 3: 1, 2: 1, 0: 1})
        even, odd = residue_split(p, 2)
        assert even == Polynomial({2: 1, 0: 1})
        assert odd == Polynomial({5: 1, 3: 1})

    def test_trivial_modulus(self):
        p = Polynomial({9: 2, 1: -1})
        assert residue_split(p, 1) == [p]

    def test_three_way(self):
        p = Polynomial({5: 1, 3: 1, 0: 1})
        parts = residue_split(p, 3)
        assert parts[0] == Polynomial({3: 1, 0: 1})
        assert parts[1] == Polynomial.zero()
        assert parts[2] == Polynomial({5: 1})

    def test_parts_sum_to_whole(self):
        rng = random.Random(43)
        for _ in range(80):
            p = Polynomial({rng.randint(0, 30): rng.randint(-5, 5)
                            for _ in range(rng.randint(0, 10))})
            beta = rng.randint(1, 7)
            total = Polynomial.zero()
            for part in residue_split(p, beta):
                total = total + part
            assert total == p

    def test_split_preserves_divisibility(self):
        # If the b-th cyclotomic polynomial divides p and all its exponents
        # are multiples of beta, each residue part stays divisible.
        rng = random.Random(47)
        for b in (8, 9, 16, 18, 25, 27):
            beta = b // radical(b)
            h = Polynomial({rng.randint(0, 12): rng.randint(-3, 3) for _ in range(5)})
            p = h * cyclotomic(b)
            if p.is_zero:
                continue
            assert divides_cyclotomic(p, b)
            for part in residue_split(p, beta):
                assert divides_cyclotomic(part, b)


class TestFeasibleIndices:
    def test_cancellation_predicate(self):
        assert prime_power_cancellation_applies(10, [11])
        assert not prime_power_cancellation_applies(10, [3])
        assert prime_power_cancellation_applies(2, [3, 5])
        with pytest.raises(ValueError):
            prime_power_cancellation_applies(4, [3, 3])

    def test_documented_membership(self):
        idx = enumerate_feasible_indices([2, 3, 5, 7], 8, 6, 2, False)
        assert 35 in idx
        assert 210 not in idx
        assert 32 not in idx

    def test_constraints_hold_for_every_index(self):
        allowed = [2, 3, 5, 7]
        idx = enumerate_feasible_indices(allowed, 8, 6, 2, False)
        for b in idx:
            ci = CycIndex.of(b)
            ps = [p for p, _ in ci.prime_factorization]
            assert set(ps) <= set(allowed)
            assert sum(p - 2 for p in ps) <= 8
            assert ci.ratio < 6
            assert b >= 2

    def test_forbid_four(self):
        idx = enumerate_feasible_indices([2, 3], 18, 11, 3, True)
        assert all(b % 4 != 0 for b in idx)
        assert 6 in idx and 18 in idx

    def test_ascending_and_deterministic(self):
        a = enumerate_feasible_indices([2, 3, 5, 7], 8, 6, 2, False)
        b = enumerate_feasible_indices([2, 3, 5, 7], 8, 6, 2, False)
        assert a == b == sorted(a)
        assert len(set(a)) == len(a)
