"""Tests for the modular root-of-unity screening, including the differential
gate against the per-residue sweep that root counting replaced."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nutforge import _modeval as me
from nutforge.cyclotomic import divides_cyclotomic
from nutforge.lemmas import (
    FAMILIES,
    PolynomialFamily,
    candidate_divisor_indices,
    enumerate_feasible_indices,
)
from nutforge.numtheory import _MR_SMALL_LIMIT
from oracles import (
    add,
    cyclotomic,
    eval_at,
    prime_above,
    product,
    root_of_order_by_all,
    small_evaluation_prime,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _primes_above(b, count):
    """The evaluation prime of index b and the next `count` - 1 odd primes
    q = 1 (mod b), each found above the previous one."""
    primes = [me.evaluation_prime(b)]
    while len(primes) < count:
        primes.append(prime_above(b, primes[-1]))
    return primes


def test_evaluation_prime_properties():
    # the least odd prime q = k*b + 1 with k >= 64
    for b in (1, 2, 6, 35, 36, 128, 9973, 482790):
        q = me.evaluation_prime(b)
        assert (q - 1) % b == 0 and (q - 1) // b >= 64 and q % 2 == 1 and me.is_prime(q)
        assert not any(me.is_prime(r) for r in range(q - b, 64 * b, -b) if r % 2)
    assert [me.evaluation_prime(b) for b in (1, 2, 3)] == [67, 131, 193]


def _screened_indices():
    """Every index the lemma suites screen: the bounded suites' candidates
    at t <= 20, the four case analyses, and T's 244 indices with
    13 <= b/rad(b) < 20 (``test_lemmas.py::TestRatioBoundGap``)."""
    indices = set()
    for fam in FAMILIES.values():
        degree = max(a * 20 + c for _, a, c in fam.terms)
        primes, sum_bound = fam.case_bounds()
        ratio_bound = max(fam.rad_ratio_bound, fam.unique_remainder_threshold)
        indices.update(candidate_divisor_indices(degree, fam.min_b),
                       enumerate_feasible_indices(primes, sum_bound, ratio_bound,
                                                  fam.min_b, fam.forbid_four))
    return sorted(indices)


def test_screening_primes_fit_the_oracle_and_the_four_base_test():
    # The numpy sweep below multiplies two residues in uint64, and is_prime
    # decides below _MR_SMALL_LIMIT with four bases: every screening prime
    # the suites and the gap test use stays below both.
    indices = _screened_indices()
    assert (len(indices), indices[-1]) == (1250, 833910)
    primes = [me.evaluation_prime(b) for b in indices]
    assert max(primes) == 57539791 and max(primes).bit_length() == 26
    assert max(primes) < min(2**32, _MR_SMALL_LIMIT)


def test_root_has_exact_order():
    for b in (2, 6, 12, 35, 100):
        q = me.evaluation_prime(b)
        z = me.root_of_order(q, b)
        assert pow(z, b, q) == 1
        for d in range(1, b):
            if b % d == 0:
                assert pow(z, d, q) != 1


def test_root_search_matches_the_all_search():
    # The loop that breaks at the first failing prime returns the element
    # the search by all() over every prime returned, at every screened index.
    for b in _screened_indices():
        q = me.evaluation_prime(b)
        assert me.root_of_order(q, b) == root_of_order_by_all(q, b), b


def test_cyclotomic_vanishes_at_root():
    # The b-th cyclotomic polynomial must evaluate to 0 at an order-b element.
    for b in (3, 8, 12, 20, 36):
        q = me.evaluation_prime(b)
        z = me.root_of_order(q, b)
        phi = cyclotomic(b)
        coeffs, exps = list(phi.values()), list(phi)
        assert eval_at(coeffs, exps, b, q, z) == 0


def test_slope_sums_evaluate_the_member():
    # The screen is the index's evaluation prime and its order-b root, and
    # the slope sums give the member's value at that root for every t.
    rng = random.Random(47)
    for i in range(300):
        if i < 100:
            fam = FAMILIES[rng.choice("QRST")]
        else:
            terms = tuple((rng.choice((-2, -1, 1, 2)), rng.randint(0, 9), rng.randint(0, 30))
                          for _ in range(rng.randint(1, 8)))
            fam = PolynomialFamily(1, 1, terms, 1, False)
        coeffs, slopes, offsets = zip(*fam.terms)
        b = rng.randint(1, 400)
        q, z, sums = me.slope_sums(coeffs, slopes, offsets, b)
        assert q == me.evaluation_prime(b) and z == me.root_of_order(q, b)
        assert all(0 <= s < b and 0 < a < q for s, a in sums.items())
        for t in [rng.randint(0, 3 * b) for _ in range(3)]:
            p = fam.member(t)
            assert sum(a * pow(z, s * t % b, q) for s, a in sums.items()) % q == \
                eval_at(list(p.values()), list(p), b, q, z), (b, t)


def _witness(p, b, moduli):
    """Whether p is nonzero at the order-b root of one of the first `moduli`
    evaluation primes of b."""
    coeffs, exps = list(p.values()), list(p)
    return any(eval_at(coeffs, exps, b, q, me.root_of_order(q, b))
               for q in _primes_above(b, moduli))


def test_nonzero_witness_is_sound():
    rng = random.Random(53)
    for _ in range(200):
        b = rng.randint(2, 30)
        p = add({rng.randint(0, 50): rng.randint(-3, 3)
                 for _ in range(rng.randint(1, 6))})
        if rng.random() < 0.4:
            p = product(p, cyclotomic(b))
        if not p:
            continue
        if _witness(p, b, moduli=2):
            assert not divides_cyclotomic(p, b)


def test_planted_multiple_never_gets_witness():
    rng = random.Random(59)
    for b in (4, 9, 12, 25, 36):
        h = {rng.randint(0, 20): rng.randint(1, 3) for _ in range(4)}
        assert not _witness(product(h, cyclotomic(b)), b, moduli=3)


def _sweep_numpy(starts, ratios, b, q):
    """The array sweep that root counting replaced, kept as a test oracle:
    per term, build the geometric progression start * ratio^t (mod q) by
    index doubling, then accumulate."""
    qq = np.uint64(q)
    total = np.zeros(b, dtype=np.uint64)
    for start, ratio in zip(starts, ratios):
        g = np.empty(b, dtype=np.uint64)
        g[0] = start
        length = 1
        rpow = ratio % q  # ratio^length mod q, maintained while doubling
        while length < b:
            step = min(length, b - length)
            g[length:length + step] = g[:step] * np.uint64(rpow) % qq
            length += step
            if length < b:
                rpow = rpow * rpow % q
        total = (total + g) % qq
    return total.astype(np.int64)


def _sweep_suspects(coeffs, slopes, offsets, b):
    """First-modulus zero parameters by evaluating every residue t."""
    q = me.evaluation_prime(b)
    z = me.root_of_order(q, b)
    starts = [c % q * pow(z, o % b, q) % q for c, o in zip(coeffs, offsets)]
    ratios = [pow(z, s % b, q) for s in slopes]
    return np.nonzero(_sweep_numpy(starts, ratios, b, q) == 0)[0].tolist()


def _case_suspects(fam):
    """The zeros of the family's case analysis, each index's checked against
    the numpy sweep."""
    coeffs, slopes, offsets = zip(*fam.terms)
    primes, sum_bound = fam.case_bounds()
    total = 0
    for b in enumerate_feasible_indices(primes, sum_bound, fam.rad_ratio_bound,
                                        fam.min_b, fam.forbid_four):
        suspects = me.sweep_zero_parameters(coeffs, slopes, offsets, b)
        assert suspects == _sweep_suspects(coeffs, slopes, offsets, b), b
        total += len(suspects)
    return total


@pytest.mark.parametrize("tag, small_prime_zeros", [("Q", 15), ("R", 84), ("S", 77), ("T", 295)])
def test_suspects_match_sweep_on_case_analysis(monkeypatch, tag, small_prime_zeros):
    # At the screening primes few parameters are zero, so the sweep is also
    # checked at the least prime q = 1 (mod b) above 50, where q near b
    # leaves about one zero per index for the root descent to find.
    assert _case_suspects(FAMILIES[tag]) == {"Q": 1, "R": 3, "S": 3, "T": 9}[tag]
    monkeypatch.setattr(me, "evaluation_prime", small_evaluation_prime)
    assert _case_suspects(FAMILIES[tag]) == small_prime_zeros


def _random_family(rng, b, kind, factor=1):
    k = rng.randint(1, 10)
    coeffs = [rng.randint(-3, 3) for _ in range(k)]
    offsets = [rng.randint(-5, 40) for _ in range(k)]
    if kind == "constant":  # every slope a multiple of b: G is a constant
        slopes = [b * rng.randint(0, 3) for _ in range(k)]
    elif kind == "scaled":  # every slope a multiple of factor: G(w) = H(w^factor)
        slopes = [factor * (rng.randint(0, 4) + b * rng.choice((0, 0, 1)))
                  for _ in range(k)]
    else:  # the families' slopes, some of them raised past b
        slopes = [rng.choice((0, 1, 2, 4, 6, 8)) + b * rng.choice((0, 0, 1, 3))
                  for _ in range(k)]
    if kind == "zero":  # each term cancelled by its copy shifted by b: G = 0
        coeffs += [-c for c in coeffs]
        slopes += slopes
        offsets += [o + b for o in offsets]
    return coeffs, slopes, offsets


def _scaled_index(rng, factor):
    """An index b coprime to factor, sharing a prime with it, or dividing it."""
    relation = rng.choice(("coprime", "shared", "divisor"))
    if relation == "divisor":
        return rng.choice([d for d in range(1, factor + 1) if factor % d == 0])
    while True:
        b = rng.choice((rng.randint(1, 60), rng.randint(61, 3000)))
        if (math.gcd(b, factor) == 1) == (relation == "coprime"):
            return b


def test_suspects_match_sweep_on_random_families():
    rng = random.Random(71)
    kinds = {"plain": 0, "constant": 0, "zero": 0, "scaled": 0}
    for i in range(3000):
        kind = ("plain", "plain", "constant", "zero", "scaled")[i % 5]
        factor = rng.choice((2, 3, 4, 6))
        b = (_scaled_index(rng, factor) if kind == "scaled"
             else rng.choice((1, 2, rng.randint(1, 60), rng.randint(61, 3000))))
        coeffs, slopes, offsets = _random_family(rng, b, kind, factor)
        suspects = me.sweep_zero_parameters(coeffs, slopes, offsets, b)
        assert suspects == _sweep_suspects(coeffs, slopes, offsets, b), (
            b, coeffs, slopes, offsets)
        if kind == "zero":
            assert suspects == list(range(b))
        kinds[kind] += bool(suspects)
    assert all(kinds.values())  # each kind produced suspects somewhere


def test_power_of_w_matches_reduction_of_the_monomial():
    rng = random.Random(73)
    fam = FAMILIES["T"]
    primes, sum_bound = fam.case_bounds()
    t_primes = [me.evaluation_prime(b) for b in enumerate_feasible_indices(
        primes, sum_bound, fam.rad_ratio_bound, fam.min_b, fam.forbid_four)]
    assert max(t_primes).bit_length() == 26
    # small primes, then the primes of T's case analysis up to 2^26
    for i in range(700):
        q = me.evaluation_prime(rng.randint(1, 500)) if i < 400 else rng.choice(t_primes)
        m = [rng.randrange(q) for _ in range(rng.randint(1, 8))] + [rng.randrange(1, q)]
        if rng.random() < 0.1:
            m[0] = 0  # w divides m: high powers of w reduce to multiples of w
        e = rng.choice((0, 1, rng.randint(0, 64), rng.randint(0, 3000)))
        assert me._power_of_w(e, m, q) == me._rem([0] * e + [1], m, q), (e, m, q)
    # the slot bound's worst case: the largest 26-bit prime and every
    # coefficient q - 1, so every power keeps coefficients near q
    q = 67108859
    assert me.is_prime(q) and q.bit_length() == 26 and not any(
        me.is_prime(r) for r in range(q + 1, 1 << 26))
    for dm in range(2, 9):
        m = [q - 1] * (dm + 1)
        for e in (dm, 2 * dm - 1, 255, rng.randint(0, 3000), 4095):
            assert me._power_of_w(e, m, q) == me._rem([0] * e + [1], m, q), (e, m, q)
    # linear moduli take the packed ladder too; the reference is the constant
    # w = -m0 / m1 modulo m raised to e, and m0 = 0 makes w itself 0 modulo m.
    # The descent's exponents b // p reach 241,395 on T, so e runs to 2^19.
    for i in range(400):
        q = me.evaluation_prime(rng.randint(1, 500)) if i < 200 else rng.choice(t_primes)
        m0, m1 = rng.choice((0, rng.randrange(q))), rng.randrange(1, q)
        for e in (0, 1, 2, rng.randint(0, 64), rng.randint(0, 3000),
                  rng.randint(0, 1 << 19), (1 << 19) - 1, 1 << 19):
            expected = me._trim([pow(-m0 * pow(m1, -1, q) % q, e, q)])
            assert me._power_of_w(e, [m0, m1], q) == expected, (e, m0, m1, q)
            if e <= 3000:
                assert expected == me._rem([0] * e + [1], [m0, m1], q), (e, m0, m1, q)


def test_suspects_match_pointwise_evaluation():
    rng = random.Random(61)
    for _ in range(100):
        b = rng.randint(1, 200)
        coeffs, slopes, offsets = _random_family(rng, b, "plain")
        q = me.evaluation_prime(b)
        z = me.root_of_order(q, b)
        expected = [t for t in range(b)
                    if eval_at(coeffs, [s * t + o for s, o in zip(slopes, offsets)],
                                  b, q, z) == 0]
        assert me.sweep_zero_parameters(coeffs, slopes, offsets, b) == expected


def test_lemmas_run_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None; "
            "from nutforge.cli import main; "
            "sys.exit(main(['lemmas', '--family', 'Q', '--full-case-analysis']))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert result.returncode == 0, result.stderr


def test_sweep_zero_parameters_finds_planted_zero():
    # Member at parameter t evaluates to zeta^t - 1: zero exactly at t = 0.
    b = 24
    zeros = me.sweep_zero_parameters([1, -1], [1, 0], [b, 0], b)
    assert zeros == [0]
