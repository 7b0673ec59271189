"""Tests for cyclotomic polynomial generation, divisibility, and index pruning."""

import math
import random

import pytest

from nutforge import cyclotomic as cyclotomic_module
from nutforge.cyclotomic import divides_cyclotomic
from nutforge.lemmas import enumerate_feasible_indices
from nutforge.numtheory import divisors, euler_phi, factorize, prime_factors
from oracles import (
    add,
    cyclotomic,
    divides_cyclotomic_by_evaluation,
    divides_cyclotomic_fold_first,
    divrem,
    prime_power_cancellation_applies,
    product,
    scale_exponents,
)


def P(*coeffs):
    """Dense ascending coefficients as an exponent -> coefficient dict."""
    return add(dict(enumerate(coeffs)))


class TestCyclotomic:
    def test_first_two(self):
        assert cyclotomic(1) == P(-1, 1)
        assert cyclotomic(2) == P(1, 1)

    def test_index_twelve(self):
        # Derived by dividing x^12 - 1 by the five proper-divisor polynomials;
        # also equals the sixth polynomial with x -> x^2.
        assert cyclotomic(12) == P(1, 0, -1, 0, 1)
        assert cyclotomic(12) == scale_exponents(cyclotomic(6), 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_over_divisors(self):
        for n in range(1, 61):
            assert product(*map(cyclotomic, divisors(n))) == {n: 1, 0: -1}

    def test_degree_is_totient(self):
        for n in range(1, 121):
            assert max(cyclotomic(n)) == euler_phi(n)

    def test_prime_square_substitution(self):
        # For p^2 | n the n-th polynomial is the (n/p)-th with x -> x^p.
        for n in range(2, 101):
            for p, e in factorize(n):
                if e >= 2:
                    assert cyclotomic(n) == scale_exponents(cyclotomic(n // p), p)

    def test_cache_safe_under_concurrent_access(self):
        # Concurrent first computations from an empty cache must all observe
        # fully built polynomials and agree with the serial results.
        import threading

        serial = {n: cyclotomic(n) for n in (60, 72, 90, 96, 105)}
        cyclotomic.cache_clear()
        results: dict[int, list[dict]] = {n: [] for n in serial}
        errors = []

        def worker(n):
            try:
                results[n].append(cyclotomic(n))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in (60, 60, 72, 72, 90, 96, 105, 105)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        for n, polys in results.items():
            assert polys and all(poly == serial[n] for poly in polys)


class TestDividesCyclotomic:
    def test_cycle_polynomial(self):
        assert divides_cyclotomic({5: 1, 0: -1}, 5)

    def test_family_member_not_divisible_at_two(self):
        # Family Q at t = 0 is x^7 - x^5 + x^4 - x^3; its value at -1 is 2.
        q0 = {7: 1, 5: -1, 4: 1, 3: -1}
        assert sum(c * (-1) ** e for e, c in q0.items()) == 2
        assert not divides_cyclotomic(q0, 2)

    def test_fifth_cyclotomic_divides_itself(self):
        assert divides_cyclotomic(P(1, 1, 1, 1, 1), 5)

    def test_zero_divisible_by_everything(self):
        assert divides_cyclotomic({}, 7)
        assert divides_cyclotomic({0: 0, 3: 0}, 7)

    def test_matches_plain_division(self):
        # Dual route: the evaluation rule must agree with division by the
        # built cyclotomic polynomial, on random and on planted multiples.
        rng = random.Random(31)
        divisible = 0
        for i in range(1200):
            b = rng.randint(1, 200)
            p = {rng.randint(0, 3 * b): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 8))}
            if i % 3 == 0:
                p = product(p, cyclotomic(b))
            direct = not divrem(p, cyclotomic(b))[1]
            divisible += direct
            assert divides_cyclotomic(p, b) == direct, (b, p)
        assert divisible >= 400

    def test_planted_multiples(self):
        rng = random.Random(37)
        for b in (4, 8, 9, 12, 18, 27, 36, 50):
            h = {rng.randint(0, 25): rng.randint(1, 4) for _ in range(4)}
            assert divides_cyclotomic(product(h, cyclotomic(b)), b)

    def test_coefficients_beyond_64_bits(self):
        big = 2**70 + 3
        for b in (5, 12, 30):
            p = product({0: big, 7: -big}, cyclotomic(b))
            assert divides_cyclotomic(p, b)
            assert not divides_cyclotomic(add(p, {3: big}), b)

    def test_invariant_with_cyclic_reduce(self):
        # Exponents are read modulo b: folding them into [0, b), or moving
        # them by any multiple of b, negative exponents included, keeps the
        # verdict.
        rng = random.Random(41)
        for _ in range(120):
            b = rng.randint(1, 24)
            p = {rng.randint(0, 60): rng.randint(-4, 4)
                 for _ in range(rng.randint(1, 8))}
            verdict = divides_cyclotomic(p, b)
            folded = add(*({e % b: c} for e, c in p.items()))
            moved = add(*({e + b * rng.randint(-5, 1): c} for e, c in p.items()))
            assert divides_cyclotomic(folded, b) == verdict
            assert divides_cyclotomic(moved, b) == verdict
            assert verdict == (not divrem(p, cyclotomic(b))[1])


class TestRegroupingGate:
    """Differential gate: regrouping exponents against the modular rule it
    replaced and against division by the built cyclotomic polynomial."""

    def test_three_rules_agree(self):
        rng = random.Random(12)
        divisible = 0
        for i in range(5400):
            b = rng.randint(1, 150)
            p = {rng.randint(0, 3 * b): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 8))}
            kind = i % 3
            if kind == 0:  # a multiple of Phi_b, perturbed one time in three
                p = product(p, cyclotomic(b))
                if rng.random() < 1 / 3:
                    p = add(p, {rng.randint(0, 2 * b): rng.choice((-1, 1))})
            elif kind == 1:  # a multiple of x^b - 1 added
                p = add(p, product({rng.randint(0, b): rng.randint(-3, 3)}, {b: 1, 0: -1}))
                if rng.random() < 1 / 2:
                    p = product(p, cyclotomic(b))
            exact = not divrem(p, cyclotomic(b))[1]
            divisible += exact
            assert divides_cyclotomic(p, b) == exact, (b, p)
            assert divides_cyclotomic_by_evaluation(p, b) == exact, (b, p)
        assert divisible >= 2000

    def test_sparse_large_indices(self):
        # No built Phi_b: b up to 10^4; half the cases are planted multiples
        # of Phi_q(x^(b/q)), which Phi_b divides, for the smallest prime q of b.
        rng = random.Random(13)
        divisible = 0
        for i in range(60):
            b = rng.randint(2, 10**4)
            p = {rng.randint(0, 2 * b): rng.randint(-2, 2)
                 for _ in range(rng.randint(1, 4))}
            q = factorize(b)[0][0]
            if i % 2 and q <= 5:
                p = product(p, {k * (b // q): 1 for k in range(q)})
            verdict = divides_cyclotomic(p, b)
            divisible += verdict
            assert verdict == divides_cyclotomic_by_evaluation(p, b), (b, p)
        assert divisible >= 15

    @pytest.mark.parametrize("b", [2000006, 2**20, 2 * 3 * 5 * 7 * 11 * 13 * 17])
    def test_large_indices(self, b):
        # (x^b - 1) / (x^(b/q) - 1) is a multiple of Phi_b, x^(b/q) - 1 is not
        for q, _ in factorize(b):
            step = b // q
            assert not divides_cyclotomic({step: 1, 0: -1}, b)
            if q < 100:
                assert divides_cyclotomic({k * step: 1 for k in range(q)}, b)


def unreduced_inputs(seed: int, count: int):
    """``count`` seeded (p, b) pairs with 1 <= b <= 200, one in four b a
    prime power (1 included), and p given with exponents that need reducing:
    negative ones, ones of at least b, several sharing a residue, and zero
    coefficients.  One in three p is a multiple of Phi_b before each of its
    exponents moves by a multiple of b, which keeps the verdict: half of
    those of Phi_b itself, half of Phi_q(x^(b/q)) for the least prime q of
    b, with its q terms.  At b = 1 the multiples are the polynomials whose
    coefficients sum to zero."""
    rng = random.Random(seed)
    prime_powers = [q for q in range(1, 201) if len(factorize(q)) <= 1]
    for i in range(count):
        b = rng.choice(prime_powers) if i % 4 == 0 else rng.randint(1, 200)
        residues = [rng.randrange(b) for _ in range(rng.randint(1, 4))]
        p = {}
        for _ in range(rng.randint(1, 8)):
            e = rng.choice(residues) + b * rng.randint(-3, 3)
            p[e] = rng.randint(-4, 4)
        if i % 6 == 0 or b == 1 and i % 3 == 0:
            p = product(p, cyclotomic(b))
        elif i % 6 == 3:
            step = b // factorize(b)[0][0]
            p = product(p, {k * step: 1 for k in range(b // step)})
        moved = {}
        for e, c in p.items():
            e += b * rng.randint(-3, 3)
            moved[e] = moved.get(e, 0) + c
        yield moved, b


class TestOnePassRegrouping:
    """Differential gate: the regrouping that reduces exponents as it goes
    against the fold-then-regroup rule it replaced
    (``oracles.divides_cyclotomic_fold_first``) and against evaluation at
    the primitive roots modulo a prime."""

    def test_three_rules_agree_on_unreduced_inputs(self):
        seen = {"divisible": 0, "b = 1, zero sum, several terms": 0, "negative": 0,
                "at least b": 0, "shared residue": 0, "zero coefficient": 0}
        bs = set()
        for p, b in unreduced_inputs(53, 10_000):
            verdict = divides_cyclotomic(p, b)
            assert verdict == divides_cyclotomic_fold_first(p, b), (b, p)
            assert verdict == divides_cyclotomic_by_evaluation(p, b), (b, p)
            bs.add(b)
            residues = [e % b for e in p]
            seen["divisible"] += verdict
            seen["b = 1, zero sum, several terms"] += (b == 1 and len(p) > 1
                                                       and not sum(p.values()) and any(p.values()))
            seen["negative"] += min(p, default=0) < 0
            seen["at least b"] += max(p, default=0) >= b
            seen["shared residue"] += len(set(residues)) < len(residues)
            seen["zero coefficient"] += 0 in p.values()
        assert bs == set(range(1, 201))
        assert seen["divisible"] >= 3000 and min(seen.values()) >= 10, seen

    def test_classes_passed_down_are_reduced(self, monkeypatch):
        # Below the top level every exponent lies in [0, b), so equal
        # residues merge once and a class of zeros is pruned at once.
        vanishes, unreduced = cyclotomic_module._vanishes, []

        def recorded(terms, b):
            unreduced.extend((b, e) for e in terms if not 0 <= e < b)
            return vanishes(terms, b)
        monkeypatch.setattr(cyclotomic_module, "_vanishes", recorded)
        for p, b in unreduced_inputs(59, 2000):
            unreduced.clear()
            verdict = vanishes(p, b)
            assert verdict == divides_cyclotomic_fold_first(p, b), (b, p)
            assert not unreduced, (b, p, unreduced[:5])


class TestRadicalHelpers:
    @staticmethod
    def scaling_identity_holds(n):
        # The n-th cyclotomic polynomial is the rad(n)-th one with every
        # exponent multiplied by n/rad(n); both sides are built independently.
        rad = math.prod(prime_factors(n))
        return cyclotomic(n) == scale_exponents(cyclotomic(rad), n // rad)

    def test_scaling_identity(self):
        assert self.scaling_identity_holds(12)
        assert self.scaling_identity_holds(30)  # square-free: identity map
        assert self.scaling_identity_holds(16)  # x^8 + 1 from x + 1

    def test_scaling_identity_range(self):
        for n in range(1, 101):
            assert self.scaling_identity_holds(n)


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
            ps = [p for p, _ in factorize(b)]
            assert set(ps) <= set(allowed)
            assert sum(p - 2 for p in ps) <= 8
            assert b // math.prod(prime_factors(b)) < 6
            assert b >= 2

    def test_forbid_four(self):
        idx = enumerate_feasible_indices([2, 3], 18, 11, 3, True)
        assert all(b % 4 != 0 for b in idx)
        assert 6 in idx and 18 in idx

    def test_matches_brute_force_filter(self):
        # Factorize every b up to the largest product the ratio bound allows
        # and keep those meeting the constraints.
        rng = random.Random(19)
        for _ in range(200):
            allowed = sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 4)))
            sum_bound, ratio_bound = rng.randint(0, 12), rng.randint(0, 10)
            min_b, forbid_four = rng.randint(1, 4), rng.random() < 0.5
            ceiling = 1
            for p in allowed:
                e = 1
                while p ** e < ratio_bound:
                    e += 1
                ceiling *= p ** e
            if ceiling > 20_000:
                continue
            expected = []
            for b in range(min_b, ceiling + 1):
                ps = [p for p, _ in factorize(b)]
                if (set(ps) <= set(allowed) and sum(p - 2 for p in ps) <= sum_bound
                        and b // math.prod(ps) < ratio_bound
                        and not (forbid_four and b % 4 == 0)):
                    expected.append(b)
            got = enumerate_feasible_indices(allowed, sum_bound, ratio_bound, min_b,
                                             forbid_four)
            assert got == expected, (allowed, sum_bound, ratio_bound, min_b, forbid_four)

    def test_ascending_and_deterministic(self):
        a = enumerate_feasible_indices([2, 3, 5, 7], 8, 6, 2, False)
        b = enumerate_feasible_indices([2, 3, 5, 7], 8, 6, 2, False)
        assert a == b == sorted(a)
        assert len(set(a)) == len(a)
