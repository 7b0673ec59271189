"""Tests for the polynomial-family verification suites."""

import dataclasses
import math
import random

import pytest

from nutforge import lemmas
from nutforge._modeval import evaluation_prime, root_of_order, sweep_zero_parameters
from nutforge.cyclotomic import divides_cyclotomic
from nutforge.lemmas import (
    FAMILIES,
    FAMILY_TAGS,
    CaseConstraints,
    PolynomialFamily,
    _failing_parameters,
    candidate_divisor_indices,
    enumerate_feasible_indices,
    verify_family_bounded,
    verify_finite_case_analysis,
    verify_unique_remainder,
)
from nutforge.numtheory import euler_phi, is_prime, prime_factors
from oracles import add, eval_at, phi_table, prime_power_cancellation_applies


def _has_unique_residue(fam, t, beta):
    """Reference check: count the residues of every exponent at one t."""
    residues = [(a * t + c) % beta for _, a, c in fam.terms]
    counts = {}
    for r in residues:
        counts[r] = counts.get(r, 0) + 1
    return any(v == 1 for v in counts.values())


def _brute_failing_parameters(fam, beta):
    return [t for t in range(beta) if not _has_unique_residue(fam, t, beta)]


class TestBuildFamily:
    def test_q_at_zero_merges_collisions(self):
        # Substituting t = 0 collides exponents 4, 3, 2 and 0; the merged
        # polynomial is x^7 - x^5 + x^4 - x^3.
        assert FAMILIES["Q"].member(0) == {7: 1, 5: -1, 4: 1, 3: -1}

    def test_q_at_one(self):
        assert FAMILIES["Q"].member(1) == {11: 1, 9: -1, 8: -1, 6: 2, 5: 1, 4: -1, 0: -1}

    def test_r_at_two_shape(self):
        p = FAMILIES["R"].member(2)
        assert max(p) == 8 * 2 + 15 == 31
        assert p[31] == 1
        assert all(p.values())

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown family tag 'Z'"):
            verify_family_bounded("Z", 0)
        with pytest.raises(ValueError):
            FAMILIES["Q"].member(-1)

    def test_term_counts(self):
        assert len(FAMILIES["Q"].terms) == 10
        assert len(FAMILIES["R"].terms) == 20
        assert len(FAMILIES["S"].terms) == 19
        assert len(FAMILIES["T"].terms) == 38


class TestRootAtOne:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_one_is_always_a_root(self, tag):
        # the value at x = 1 is the coefficient sum
        for t in range(0, 26):
            assert sum(FAMILIES[tag].member(t).values()) == 0


class TestCandidateIndices:
    def test_complete_up_to_degree(self):
        cands = candidate_divisor_indices(10, 2)
        for b in range(2, 300):
            assert (b in cands) == (euler_phi(b) <= 10)

    def test_matches_the_totient_sieve(self):
        # Differential gate against the scan it replaced: every b >= min_b up
        # to max(D^2, 6) with phi(b) <= D, phi sieved once up to 600^2.
        phi = phi_table(600 * 600)
        small = [b for b in range(1, len(phi)) if phi[b] <= 600]
        for min_b in (1, 2, 3):
            for max_degree in range(601):
                limit = max(max_degree * max_degree, 6)
                expected = [b for b in small
                            if min_b <= b <= limit and phi[b] <= max_degree]
                assert candidate_divisor_indices(max_degree, min_b) == expected, \
                    (max_degree, min_b)

    def test_min_b_respected(self):
        assert 1 not in candidate_divisor_indices(5, 2)
        assert 1 in candidate_divisor_indices(5, 1)


class TestBoundedVerification:
    def test_q_small_range(self):
        rep = verify_family_bounded("Q", 5)
        assert rep.ok
        assert len(rep.indices_checked) == 6

    def test_t_family_small_range(self):
        rep = verify_family_bounded("T", 2)
        assert rep.ok

    def test_r_with_min_b_one_finds_root_at_one(self, monkeypatch):
        # 1 is a root of every member, so index 1 must appear as a violation
        # when the lower bound is relaxed; this confirms the b >= 3
        # restriction in the family's claim is necessary.
        monkeypatch.setitem(FAMILIES, "R", dataclasses.replace(FAMILIES["R"], min_b=1))
        rep = verify_family_bounded("R", 0)
        assert not rep.ok
        assert (0, 1) in rep.violations

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_candidate_counts_match_candidate_indices(self, tag):
        low = FAMILIES[tag].min_b
        rep = verify_family_bounded(tag, 20)
        assert rep.ok
        assert [t for t, _ in rep.indices_checked] == list(range(21))
        for t, detail in rep.indices_checked:
            deg = max(FAMILIES[tag].member(t))
            count = len(candidate_divisor_indices(deg, low))
            assert detail == f"{count} candidate indices, degree {deg}"

    def test_report_lines(self):
        rep = verify_family_bounded("Q", 1)
        lines = rep.text_lines()
        assert lines[0].startswith("Q bounded-nondivisibility")
        assert "result: ok" in lines[-1]
        assert rep.summary()["ok"] is True


class TestUniqueRemainder:
    def test_q_at_six_holds(self):
        rep = verify_unique_remainder("Q", (6, 6))
        assert rep.ok

    def test_q_fails_below_threshold(self):
        # At beta = 5 no exponent of the t = 0 member has a unique residue;
        # below the threshold this is a note, not a violation.
        rep = verify_unique_remainder("Q", (5, 5))
        assert rep.ok
        assert rep.notes and "beta=5" in rep.notes[0]
        assert "t in [0" in rep.notes[0]

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_thresholds_hold_to_sixty(self, tag):
        fam = FAMILIES[tag]
        rep = verify_unique_remainder(tag, (fam.unique_remainder_threshold, 60))
        assert rep.ok
        assert not rep.notes

    def test_residue_multiset_documented_example(self):
        # Q at t = 0, beta = 6: exponents 7,5,4,4,3,2,0,3,2,0 leave residues
        # {1,5,4,4,3,2,0,3,2,0}; residue 1 occurs once.
        assert 0 not in _failing_parameters(FAMILIES["Q"], 6)
        assert 0 in _failing_parameters(FAMILIES["Q"], 5)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            verify_unique_remainder("Q", (0, 5))


class TestCollisionCongruences:
    """The congruence solver against the per-parameter residue count."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_matches_residue_count_on_families(self, tag):
        fam = FAMILIES[tag]
        below = 0
        for beta in range(1, 301):
            fails = _failing_parameters(fam, beta)
            assert fails == _brute_failing_parameters(fam, beta), beta
            below += bool(fails)
            if beta >= fam.unique_remainder_threshold:
                assert not fails, beta
        # the moduli below the threshold that fail, 39 over the four families
        assert below == {"Q": 5, "R": 10, "S": 7, "T": 17}[tag]

    def test_matches_residue_count_on_random_families(self):
        rng = random.Random(6)
        case = CaseConstraints(1, False)
        outcomes = set()
        for _ in range(2000):
            beta = 1 if rng.random() < 0.1 else rng.randint(2, 40)
            # few slopes, some congruent modulo beta, so terms collide often
            slopes = [rng.randint(0, 4) + beta * rng.randint(0, 2)
                      for _ in range(rng.randint(1, 3))]
            terms = []
            for _ in range(rng.randint(1, 12)):
                if terms and rng.random() < 0.15:
                    terms.append(rng.choice(terms))  # a duplicate (slope, offset)
                else:
                    terms.append((rng.choice((-1, 1)), rng.choice(slopes),
                                  rng.randint(0, 2 * beta + 3)))
            fam = PolynomialFamily("X", 1, 1, tuple(terms), case)
            fails = _failing_parameters(fam, beta)
            assert fails == _brute_failing_parameters(fam, beta), (terms, beta)
            outcomes.add((beta == 1, len(fails) == 0, len(fails) == beta))
        # every kind of outcome occurs: none, some and all t failing, and beta = 1
        assert outcomes >= {(True, True, False), (True, False, True),
                            (False, True, False), (False, False, False),
                            (False, False, True)}


class TestFiniteCaseAnalysis:
    def test_q_full_analysis(self):
        rep = verify_finite_case_analysis("Q")
        assert rep.ok
        indices = [b for b, _ in rep.indices_checked]
        assert indices == sorted(indices)
        assert 35 in indices and 2 in indices

    def test_q_determinism(self):
        a = verify_finite_case_analysis("Q")
        b = verify_finite_case_analysis("Q")
        assert [i for i, _ in a.indices_checked] == [i for i, _ in b.indices_checked]
        assert a.violations == b.violations == ()

    def test_cyclic_reduction_equivalence_on_family_instances(self):
        # The divisibility test commutes with cyclic reduction on family
        # members: exercised here explicitly for a spread of (t, b).
        for tag in ("Q", "S"):
            for t in (0, 1, 4):
                p = FAMILIES[tag].member(t)
                for b in (2, 3, 5, 8, 12):
                    folded = add(*({e % b: c} for e, c in p.items()))
                    assert divides_cyclotomic(p, b) == divides_cyclotomic(folded, b)


_PRIMES_19 = (2, 3, 5, 7, 11, 13, 17, 19)
_PRIMES_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class TestCaseConstraints:
    def test_derived_bounds_match_the_published_constraints(self):
        published = {"Q": ((2, 3, 5, 7), 8), "R": (_PRIMES_19, 18),
                     "S": (_PRIMES_19, 17), "T": (_PRIMES_37, 36)}
        for tag, expected in published.items():
            assert FAMILIES[tag].case_bounds() == expected

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_bounds_are_where_the_lacunary_reduction_stops(self, tag):
        fam = FAMILIES[tag]
        allowed, sum_bound = fam.case_bounds()
        small = [p for p in range(2, 60) if is_prime(p)]
        for k in (1, 2):
            for i, p in enumerate(small):
                group = [p, *small[i + 1:i + k]]
                assert prime_power_cancellation_applies(len(fam.terms), group) == \
                    (sum(q - 2 for q in group) > sum_bound)
        assert allowed == tuple(p for p in small
                                if not prime_power_cancellation_applies(len(fam.terms), [p]))


class TestRatioBoundGap:
    """T's case analysis stops at b/rad(b) < 13, but unique remainders hold
    for T only from modulus 20, so the indices with b/rad(b) in [13, 20)
    fall in neither suite; the other families bound at their threshold."""

    def test_other_families_bound_at_the_threshold(self):
        for tag in ("Q", "R", "S"):
            fam = FAMILIES[tag]
            assert fam.case.rad_ratio_bound == fam.unique_remainder_threshold

    def test_t_remainders_fail_inside_the_gap(self):
        # An even ratio b/rad(b) needs 4 | b, which T's analysis excludes,
        # so 13, 15, 17 and 19 are the ratios left uncovered.
        fam = FAMILIES["T"]
        assert (fam.case.rad_ratio_bound, fam.unique_remainder_threshold) == (13, 20)
        assert [beta for beta in range(13, 20) if _failing_parameters(fam, beta)] == \
            [13, 14, 15, 17, 19]

    def test_t_gap_indices_are_refuted(self):
        # Every feasible index with 13 <= b/rad(b) < 20 (4 never divides b,
        # so the ratio is odd), swept for zeros at every parameter residue
        # and each zero refuted by the exact rule.
        fam = FAMILIES["T"]
        primes, sum_bound = fam.case_bounds()
        below = {bound: enumerate_feasible_indices(primes, sum_bound, bound, fam.min_b, True)
                 for bound in (13, 20)}
        gap = sorted(set(below[20]) - set(below[13]))
        assert (len(gap), gap[0], gap[-1]) == (244, 169, 833910)
        ratios = [b // math.prod(prime_factors(b)) for b in gap]
        assert {r: ratios.count(r) for r in set(ratios)} == {13: 74, 15: 54, 17: 62, 19: 54}
        coeffs, slopes, offsets = zip(*fam.terms)
        suspects = [(b, t) for b in gap
                    for t in sweep_zero_parameters(coeffs, slopes, offsets, b)]
        assert len(suspects) == 57
        assert not any(divides_cyclotomic(fam.member(t), b) for b, t in suspects)


def _record_exact_calls(monkeypatch):
    """Route the suites' divides_cyclotomic through a recorder of verdicts."""
    verdicts = []

    def recording(p, b):
        verdicts.append(divides_cyclotomic(p, b))
        return verdicts[-1]

    monkeypatch.setattr(lemmas, "divides_cyclotomic", recording)
    return verdicts


class TestExactRuleOnEveryZero:
    """Each zero of the one screening prime goes to the exact rule, which
    refutes it."""

    @pytest.mark.parametrize("tag, hits", [("Q", 14), ("R", 20), ("S", 15), ("T", 32)])
    def test_bounded_suite(self, monkeypatch, tag, hits):
        verdicts = _record_exact_calls(monkeypatch)
        assert verify_family_bounded(tag, 20).ok
        assert len(verdicts) == hits and not any(verdicts)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_bounded_suite_checks_exactly_the_pointwise_zeros(self, monkeypatch, tag):
        # The pairs (t, b) handed to the exact rule, in order, are those
        # where the pointwise evaluation over every term is zero.
        fam = FAMILIES[tag]
        handed = []
        monkeypatch.setattr(lemmas, "divides_cyclotomic",
                            lambda p, b: handed.append((p, b)) or divides_cyclotomic(p, b))
        assert verify_family_bounded(tag, 20).ok
        coeffs = [c for c, _, _ in fam.terms]
        zeros = []
        for t in range(21):
            member = fam.member(t)
            exponents = [a * t + c for _, a, c in fam.terms]
            for b in candidate_divisor_indices(max(member), fam.min_b):
                q = evaluation_prime(b)
                if not eval_at(coeffs, exponents, b, q, root_of_order(q, b)):
                    zeros.append((member, b))
        assert handed == zeros

    @pytest.mark.parametrize("tag, indices, hits",
                             [("Q", 39, 15), ("R", 146, 84), ("S", 164, 77), ("T", 770, 295)])
    def test_case_analysis(self, monkeypatch, tag, indices, hits):
        verdicts = _record_exact_calls(monkeypatch)
        rep = verify_finite_case_analysis(tag)
        assert rep.ok and len(rep.indices_checked) == indices
        assert len(verdicts) == hits and not any(verdicts)
