"""Tests for the two nut-certification routes and their agreement."""

import random
from math import isqrt

import pytest

import nutforge.verify as verify
from nutforge.constructions import catalog_witness
from nutforge.cyclotomic import divides_cyclotomic, fold
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    build_bicirculant,
    build_circulant,
)
from nutforge.numtheory import divisors, euler_phi, is_prime
from nutforge.verify import (
    DivisorVerdict,
    _cyclic_span,
    block_invariants,
    divisor_walk,
    nut_check_direct,
    nut_check_spectral,
)
import oracles
from oracles import (
    _miller_rabin,
    block_invariants_by_pairs,
    catalog_witness_by_shift,
    complement,
    cyclotomic,
    divisor_walk_at_every_divisor,
    nonvanishing_witnesses,
    one_minus_x_times,
    product,
    small_cayley_specs,
    telescoped_by_pairs,
)


def random_bicirculant_spec(rng, max_m=16):
    m = rng.randint(3, max_m)
    def inv_closed():
        s = set()
        for a in range(1, m // 2 + 1):
            if rng.random() < 0.35:
                s.add(a)
                s.add((m - a) % m)
        s.discard(0)
        return s
    s1 = {b for b in range(m) if rng.random() < 0.3}
    return BicirculantSpec(m, inv_closed(), s1, inv_closed())


class TestCertificateInvariant:
    def test_is_nut_is_derived(self):
        # nullity one, a zero-free kernel vector and at least two vertices
        from nutforge.verify import NutCertificate

        assert NutCertificate(1, (1, -1)).is_nut
        assert not NutCertificate(2, None).is_nut
        assert not NutCertificate(1, (1, 0, -1)).is_nut
        assert not NutCertificate(1, (1,)).is_nut


class TestDirect:
    def test_four_regular_order_eight_is_nut(self):
        cert = nut_check_direct(build_circulant(CirculantSpec(8, {1, 2})))
        assert cert.is_nut
        assert cert.nullity == 1
        assert all(x != 0 for x in cert.kernel_vector)

    def test_path_has_zero_kernel_entry(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        cert = nut_check_direct(path)
        assert cert.nullity == 1
        assert not cert.is_nut
        # kernel of P_3 is spanned by (1, 0, -1)
        assert cert.kernel_vector == (1, 0, -1)

    def test_single_vertex_is_not_nut(self):
        # nullity one with the zero-free kernel vector (1,), but a nut graph
        # is nontrivial
        cert = nut_check_direct(Graph(1, [0]))
        assert cert.nullity == 1 and cert.kernel_vector == (1,)
        assert cert.is_nut is False

    def test_square_has_nullity_two(self):
        cert = nut_check_direct(build_circulant(CirculantSpec(4, {1})))
        assert cert.nullity == 2
        assert not cert.is_nut
        assert cert.kernel_vector is None


class TestShiftedNullity:
    def test_prism_shift_one(self):
        prism = build_bicirculant(DihedralSpec(6, {1, 5}, {0}))
        assert nut_check_direct(prism, 1).nullity == 1

    def test_empty_graph_shift_one(self):
        g = Graph.from_edges(5, [])
        assert nut_check_direct(g, 1).nullity == 0

    def test_shift_zero_matches_direct(self):
        rng = random.Random(83)
        for _ in range(20):
            spec = random_bicirculant_spec(rng, max_m=8)
            g = build_bicirculant(spec)
            assert nut_check_direct(g, 0).nullity == nut_check_direct(g).nullity

    def test_complement_link(self):
        # For a regular non-complete graph, nullity of the complement equals
        # the multiplicity of -1 in the base graph.
        prism = build_bicirculant(DihedralSpec(6, {1, 5}, {0}))
        assert nut_check_direct(complement(prism)).nullity == nut_check_direct(prism, 1).nullity


class TestDetPolynomial:
    """Each telescoped invariant of ``block_invariants`` is the pair-list
    invariant of ``oracles.block_invariants_by_pairs`` times (1 - x)^2 (the
    determinant) or 1 - x (the trace, the entry), folded modulo x^m - 1."""

    def test_matching_block(self):
        spec = DihedralSpec(3, frozenset(), {0})
        assert block_invariants_by_pairs(spec, 0) == (3, ({0: -1}, {}))
        # -(1 - x)^2 = -1 + 2x - x^2
        assert block_invariants(spec, 0) == telescoped_by_pairs(spec, 0) == (
            3, ({0: -1, 1: 2, 2: -1}, {}))

    def test_disjoint_squares(self):
        spec = BicirculantSpec(4, {1, 3}, frozenset(), {1, 3})
        assert block_invariants_by_pairs(spec, 0)[1][0] == {2: 2, 0: 2}
        assert block_invariants(spec, 0) == telescoped_by_pairs(spec, 0)

    def test_six_regular_family_divisors(self):
        from nutforge.cyclotomic import divides_cyclotomic

        spec = DihedralSpec(8, {1, 7}, {0, 1, 4, 6})
        assert block_invariants(spec, 0) == telescoped_by_pairs(spec, 0)
        by_pairs = block_invariants_by_pairs(spec, 0)[1][0]
        d = block_invariants(spec, 0)[1][0]
        assert divides_cyclotomic(by_pairs, 2) and divides_cyclotomic(d, 2)
        for b in (1, 4, 8):
            assert not divides_cyclotomic(by_pairs, b)
        # 1 - x vanishes only at b = 1, where the set sizes decide
        for b in (4, 8):
            assert not divides_cyclotomic(d, b)
        assert verify._values_at_one(spec, 0)[0] == sum(by_pairs.values()) != 0

    def test_value_at_one_is_block_determinant(self):
        rng = random.Random(89)
        for shift in (0, 1):
            for _ in range(40):
                spec = random_bicirculant_spec(rng, max_m=12)
                d = block_invariants_by_pairs(spec, shift)[1][0]
                expected = ((shift + len(spec.s0)) * (shift + len(spec.s2))
                            - len(spec.s1) ** 2)
                assert sum(d.values()) == expected  # the value at x = 1
                assert verify._values_at_one(spec, shift)[0] == expected
                assert block_invariants(spec, shift) == telescoped_by_pairs(spec, shift)

    def test_trace_value_at_one(self):
        spec = BicirculantSpec(6, {1, 5}, {0, 3}, {2, 4})
        assert sum(block_invariants_by_pairs(spec, 1)[1][1].values()) == 2 + 2 + 2
        assert verify._values_at_one(spec, 1)[1] == 2 + 2 + 2
        assert block_invariants(spec, 1) == telescoped_by_pairs(spec, 1)

    def test_maps_are_folded_and_free_of_zeros(self):
        rng = random.Random(97)
        for _ in range(60):
            spec = random_bicirculant_spec(rng)
            for shift in (0, 1):
                m, invariants = block_invariants(spec, shift)
                for terms in invariants:
                    assert all(0 <= e < m and c for e, c in terms.items())


def _root_of_unity(m):
    """A prime q = 1 (mod m) above 10^6 and an element of order m modulo q,
    by trial division and brute force."""
    q = 10**6 // m * m + 1
    while q <= 10**6 or any(q % k == 0 for k in range(2, isqrt(q) + 1)):
        q += m
    primes = [p for p in range(2, m + 1)
              if m % p == 0 and all(p % k for k in range(2, p))]
    for g in range(2, q):
        z = pow(g, (q - 1) // m, q)
        if all(pow(z, m // p, q) != 1 for p in primes):
            return q, z
    raise AssertionError(f"no element of order {m} modulo {q}")


def _row_value(row, lo, m, w, q):
    """sum of w^j over the bits lo + j, 0 <= j < m, set in an adjacency row:
    the value at w of one circulant block, read off its first row."""
    return sum(pow(w, j, q) for j in range(m) if row >> (lo + j) & 1) % q


class TestBlockInvariantsDifferential:
    """The folded invariants of ``block_invariants`` against the blocks
    evaluated straight from the built graph at every m-th root of unity
    modulo a prime q = 1 (mod m): the entry of a circulant; the determinant
    and trace of the 2x2 block [[p0, p1~], [p1, p2]] of a bicirculant, each
    p read from the first row of its circulant block."""

    @staticmethod
    def _specs(rng):
        for i in range(210):
            kind = i % 3
            if kind == 0:
                n = rng.randint(3, 30)
                yield CirculantSpec(n, {j for j in range(1, n // 2 + 1) if rng.random() < 0.4})
            elif kind == 1:
                yield random_bicirculant_spec(rng, max_m=20)
            else:
                m = rng.randint(3, 20)
                rot = {a for a in range(1, m // 2 + 1) if rng.random() < 0.4}
                yield DihedralSpec(m, rot | {m - a for a in rot},
                                   {b for b in range(m) if rng.random() < 0.3})

    def test_matches_blocks_at_roots_mod_q(self):
        # Each telescoped invariant is (1 - w)^k times the block's value at
        # w, k = 2 for the determinant and 1 for the entry and the trace;
        # at w = 1 the walk reads the block values from the set sizes.
        rng = random.Random(101)
        singular = 0
        for spec in self._specs(rng):
            if isinstance(spec, CirculantSpec):
                g = build_circulant(spec)
            elif isinstance(spec, DihedralSpec):
                g = build_bicirculant(spec)
            else:
                g = build_bicirculant(spec)
            rows = g.adjacency_rows()
            for shift in (0, 1):
                m, invariants = block_invariants(spec, shift)
                assert (m, invariants) == telescoped_by_pairs(spec, shift)
                powers = (1,) if isinstance(spec, CirculantSpec) else (2, 1)
                q, z = _root_of_unity(m)
                for k in range(m):
                    w = pow(z, k, q)
                    got = [sum(c * pow(w, e, q) for e, c in terms.items()) % q
                           for terms in invariants]
                    if isinstance(spec, CirculantSpec):
                        expected = [(_row_value(rows[0], 0, m, w, q) + shift) % q]
                    else:
                        a = _row_value(rows[0], 0, m, w, q) + shift
                        b = _row_value(rows[0], m, m, w, q)
                        c = _row_value(rows[m], 0, m, w, q)
                        d = _row_value(rows[m], m, m, w, q) + shift
                        expected = [(a * d - b * c) % q, (a + d) % q]
                    assert got == [(1 - w) ** j * v % q for j, v in zip(powers, expected)], (
                        spec, shift, k)
                    singular += not expected[0]
                    if k == 0:
                        # w = 1: the values are below q in absolute value
                        zeros = next((i for i, v in enumerate(expected) if v), len(expected))
                        assert next(divisor_walk(spec, shift)) == DivisorVerdict(1, zeros), (
                            spec, shift)
        assert singular >= 50


class TestSpectral:
    def test_six_regular_order_sixteen(self):
        spec = DihedralSpec(8, {1, 7}, {0, 1, 4, 6})
        rep = nut_check_spectral(spec, 0)
        assert rep.singular_divisors == (2,)
        assert rep.total_nullity == 1

    def test_complement_base_shift_one(self):
        spec = DihedralSpec(10, {2, 8}, {0, 8, 9})
        rep = nut_check_spectral(spec, 1)
        assert rep.singular_divisors == (1,)
        assert rep.total_nullity == 1
        verdict = rep.divisor_verdicts[0]
        assert verdict.b == 1 and verdict.multiplicity == 1

    def test_two_disjoint_squares_not_nut(self):
        spec = BicirculantSpec(4, {1, 3}, frozenset(), {1, 3})
        rep = nut_check_spectral(spec, 0)
        assert 4 in rep.singular_divisors
        assert rep.total_nullity == 4

    def test_circulant_cycles(self):
        # C_n has eigenvalue 0 iff 4 | n and eigenvalue -1 iff 3 | n, each
        # twice (at a conjugate pair of roots of unity).
        for n in range(3, 25):
            spec = CirculantSpec(n, {1})
            assert nut_check_spectral(spec, 0).total_nullity == (2 if n % 4 == 0 else 0)
            assert nut_check_spectral(spec, 1).total_nullity == (2 if n % 3 == 0 else 0)

    def test_circulant_singular_blocks_are_simple(self):
        rep = nut_check_spectral(CirculantSpec(8, {1}), 0)
        assert rep.m == 8 and rep.singular_divisors == (4,)
        assert rep.divisor_verdicts[2].multiplicity == 1

    def test_dihedral_spec_reads_as_its_bicirculant(self):
        spec = DihedralSpec(8, {1, 7}, {0, 1, 4, 6})
        explicit = BicirculantSpec(8, {1, 7}, {0, 1, 4, 6}, {1, 7})
        for shift in (0, 1):
            assert nut_check_spectral(spec, shift) == nut_check_spectral(explicit, shift)

    def test_rejects_other_shifts(self):
        spec = BicirculantSpec(4, {1, 3}, frozenset(), {1, 3})
        with pytest.raises(ValueError):
            nut_check_spectral(spec, 2)

    def test_empty_graph_full_nullity(self):
        spec = BicirculantSpec(5, frozenset(), frozenset(), frozenset())
        rep = nut_check_spectral(spec, 0)
        assert rep.total_nullity == 10

    def test_total_nullity_aggregates_divisor_verdicts(self):
        from nutforge.numtheory import euler_phi

        rng = random.Random(127)
        for _ in range(60):
            spec = random_bicirculant_spec(rng, max_m=12)
            rep = nut_check_spectral(spec, rng.randint(0, 1))
            expected = sum(euler_phi(v.b) * (1 if v.multiplicity == 1 else 2)
                           for v in rep.divisor_verdicts if v.multiplicity)
            assert rep.total_nullity == expected


class TestSpectralDirectAgreement:
    def test_random_specs_both_shifts(self):
        rng = random.Random(97)
        for _ in range(150):
            spec = random_bicirculant_spec(rng, max_m=12)
            g = build_bicirculant(spec)
            assert nut_check_spectral(spec, 0).total_nullity == nut_check_direct(g).nullity
            assert nut_check_spectral(spec, 1).total_nullity == nut_check_direct(g, 1).nullity

    def test_conjugate_pair_parity(self):
        from nutforge.numtheory import euler_phi

        rng = random.Random(101)
        for _ in range(60):
            spec = random_bicirculant_spec(rng, max_m=10)
            rep = nut_check_spectral(spec, 0)
            for v in rep.divisor_verdicts:
                if v.multiplicity and v.b >= 3:
                    assert euler_phi(v.b) % 2 == 0

    def test_nullity_one_alone_is_not_the_nut_property(self):
        # For a non-vertex-transitive bicirculant, nullity one does not imply
        # a zero-free kernel vector: the nut verdict must come from the
        # direct method.
        spec = BicirculantSpec(4, frozenset(), {0, 1}, {1, 3})
        rep = nut_check_spectral(spec, 0)
        assert rep.total_nullity == 1
        cert = nut_check_direct(build_bicirculant(spec))
        assert cert.nullity == 1
        assert 0 in cert.kernel_vector
        assert not cert.is_nut

    def test_vertex_transitive_nut_equivalence(self):
        # For dihedral specs nullity one is equivalent to the nut property.
        rng = random.Random(103)
        checked_nuts = 0
        for _ in range(80):
            m = rng.randint(3, 8)
            s = random_bicirculant_spec(rng, max_m=m)
            spec = DihedralSpec(s.m, s.s0, s.s1)
            g = build_bicirculant(spec)
            rep = nut_check_spectral(spec, 0)
            cert = nut_check_direct(g)
            assert (rep.total_nullity == 1) == cert.is_nut
            checked_nuts += cert.is_nut
        assert checked_nuts > 0


def catalog_pairs():
    """Catalog (n, d) pairs up to order 10^12: fixed ones, and seeded direct
    and complement family pairs.  Their specs come from
    ``oracles.catalog_witness_by_shift``: a complement rule's base, walked
    at shift one, since the complement's own spec holds about d elements."""
    pairs = [(10**6, 14), (10**9, 14), (10**9, 30), (10**9 + 4, 18), (10**12, 14),
             (10**9, 10**9 - 6), (10**9, 10**9 - 4), (10**9 + 4, 10**9)]
    rng = random.Random(29)
    for _ in range(4):
        d = rng.randrange(6, 200, 4)
        pairs.append((4 * rng.randrange(d, 25 * 10**10), d))
        d = rng.randrange(26, 10**11, 8)  # d = 2 (mod 8): gaps 6, 10, 14
        pairs.append((d + rng.choice((6, 10, 14)), d))
    return pairs


class TestNonvanishingWitnesses:
    """An independent check of every divisor's verdict, at any order: a prime
    q = 1 (mod b) and an element of order b mod q at which the block
    determinant is nonzero prove the blocks at b nonsingular
    (``oracles.nonvanishing_witnesses``).  No graph is built."""

    def test_miller_rabin(self):
        assert [q for q in range(10**5) if _miller_rabin(q)] == [
            q for q in range(10**5) if is_prime(q)]
        # Carmichael numbers and strong pseudoprimes to the first bases
        for q in (561, 1105, 1729, 2465, 6601, 8911, 3215031751, 3825123056546413051):
            assert not _miller_rabin(q), q
        assert _miller_rabin(2**61 - 1) and _miller_rabin(10**12 + 39)

    @staticmethod
    def assert_witnessed(n, d):
        # Only the divisors where the witness is a nut graph's character,
        # b = 1 or 2, are singular; every other divisor gets a witness, and
        # each verdict agrees with divisor_walk's.
        spec, shift, recipe = catalog_witness_by_shift(n, d)
        witness = nonvanishing_witnesses(spec, shift)
        singular = []
        for verdict in divisor_walk(spec, shift):
            found = witness(verdict.b, 20)
            assert (found is None) == (verdict.multiplicity > 0), (recipe, verdict)
            if found is None:
                singular.append(verdict.b)
            else:
                q, w = found
                assert (q - 1) % verdict.b == 0 and _miller_rabin(q)
                assert pow(w, verdict.b, q) == 1
        assert len(singular) == 1 and singular[0] <= 2, recipe

    def test_catalog_witnesses_up_to_order_10_12(self):
        for n, d in catalog_pairs():
            self.assert_witnessed(n, d)

    @pytest.mark.parametrize("n, d", [(8000, 3998), (10**9, 4006)])
    def test_large_degree_catalog_witnesses(self, n, d):
        self.assert_witnessed(n, d)

    def test_small_cayley_specs(self):
        # A singular divisor never gets a witness; every other divisor gets
        # one among the first 20 primes.
        for spec in small_cayley_specs():
            for shift in (0, 1):
                witness = nonvanishing_witnesses(spec, shift)
                for verdict in divisor_walk(spec, shift):
                    if verdict.multiplicity:
                        assert witness(verdict.b, 5) is None, (spec, shift, verdict)
                    else:
                        assert witness(verdict.b, 20) is not None, (spec, shift, verdict)


class TestLargeDegreeWitnesses:
    """Catalog witnesses of large degree, whose connection sets are a few
    long cyclic runs: the telescoped invariants stay small, so the walk
    decides them at once."""

    @pytest.mark.parametrize("n, d", [(8000, 3998), (10**9, 4006), (963761198400, 798)])
    def test_nullity_one_at_b_2(self, n, d):
        report = nut_check_spectral(catalog_witness(n, d)[0])
        assert (report.total_nullity, report.singular_divisors) == (1, (2,))

    def test_term_count_grows_with_runs_not_set_size(self):
        # |S| is about 4000 here, so a pair-list determinant has thousands
        # of terms; the runs give at most a few dozen.
        spec, _ = catalog_witness(10**9, 4006)
        det, trace = block_invariants(spec, 0)[1]
        assert len(det) <= 40 and len(trace) <= 8


def sparse_inverse_closed(rng, m, width):
    """A random subset of the jumps 1..width, closed under j -> m - j."""
    return {c for j in range(1, width + 1) if rng.random() < 0.5 for c in (j, m - j)}


def random_walk_spec(rng):
    """A random circulant, dihedral or bicirculant spec.  Half of them take
    an order with many divisors and draw every set from a short window of
    exponents, so that the invariants' spans leave divisors to skip."""
    if rng.random() < 0.5:
        m = rng.randint(3, 40)
        width = m // 2
    else:
        m = rng.choice((120, 180, 240, 360, 720, 840))
        width = rng.randint(1, 6)
    start = rng.randrange(m)
    reflections = {(start + i) % m for i in range(width) if rng.random() < 0.5}
    kind = rng.randrange(3)
    if kind == 0:
        return CirculantSpec(m, {j for j in range(1, width + 1) if rng.random() < 0.5})
    if kind == 1:
        return DihedralSpec(m, sparse_inverse_closed(rng, m, width), reflections)
    return BicirculantSpec(m, sparse_inverse_closed(rng, m, width), reflections,
                           sparse_inverse_closed(rng, m, width))


def recorded_divisors(monkeypatch, module=verify):
    """Route the module's divides_cyclotomic through a recorder of the
    indices b it is asked about."""
    asked = []
    monkeypatch.setattr(module, "divides_cyclotomic",
                        lambda terms, b: asked.append(b) or divides_cyclotomic(terms, b))
    return asked


class TestReachRule:
    """``divisor_walk`` decides every divisor b with phi(b) above an
    invariant's cyclic span without asking ``divides_cyclotomic``: the walk
    that asks at every divisor (``oracles.divisor_walk_at_every_divisor``)
    must give the same verdicts."""

    @staticmethod
    def walks_agree(spec, shift):
        verdicts = tuple(divisor_walk(spec, shift))
        assert verdicts == tuple(divisor_walk_at_every_divisor(spec, shift)), (spec, shift)
        assert [v.b for v in verdicts] == divisors(verdicts[-1].b)
        return verdicts

    def test_random_specs_at_both_shifts(self, monkeypatch):
        asked = recorded_divisors(monkeypatch)
        asked_by_every_divisor = recorded_divisors(monkeypatch, oracles)
        rng = random.Random(131)
        for _ in range(300):
            spec = random_walk_spec(rng)
            for shift in (0, 1):
                self.walks_agree(spec, shift)
        # The sparse half of the specs skips most of its divisors.
        assert 0 < len(asked) < 0.7 * len(asked_by_every_divisor)

    def test_empty_invariants_skip_nothing(self, monkeypatch):
        asked = recorded_divisors(monkeypatch)
        for m in (3, 12, 60, 210):
            verdicts = self.walks_agree(BicirculantSpec(m, [], [], []), 0)
            assert sum(v.nullity for v in verdicts) == 2 * m
            assert all(v.multiplicity == 2 for v in verdicts)
        # b = 1 is read off the set sizes and never asks divides_cyclotomic.
        assert len(asked) == 2 * sum(len(divisors(m)) - 1 for m in (3, 12, 60, 210))

    def test_single_term_invariants(self):
        # A monomial vanishes at no root of unity: x^k on Z_2k, det -1 of a
        # perfect matching at shift 0, and at shift 1 an empty det above
        # the trace 2.  Telescoped to spans 2 and 1, the determinant
        # reaches only b = 2 and the entry and the trace no divisor.
        for k in (2, 6, 30, 180):
            assert not any(v.multiplicity for v in self.walks_agree(CirculantSpec(2 * k, {k}), 0))
        for m, j in ((4, 1), (60, 7), (360, 0)):
            spec = BicirculantSpec(m, [], [j], [])
            assert block_invariants_by_pairs(spec, 0)[1] == ({0: -1}, {})
            assert block_invariants(spec, 0) == telescoped_by_pairs(spec, 0)
            assert not any(v.multiplicity for v in self.walks_agree(spec, 0))
            assert block_invariants_by_pairs(spec, 1)[1] == ({}, {0: 2})
            assert block_invariants(spec, 1) == telescoped_by_pairs(spec, 1)
            verdicts = self.walks_agree(spec, 1)
            assert all(v.multiplicity == 1 for v in verdicts)
            assert sum(v.nullity for v in verdicts) == m

    def test_catalog_witnesses_up_to_order_10_12(self):
        for n, d in catalog_pairs():
            self.walks_agree(*catalog_witness_by_shift(n, d)[:2])

    def test_large_order_asks_few_divisors(self, monkeypatch):
        # 5,760 divisors; the determinant reaches only the few hundred with
        # phi(b) within its span, and the trace is asked only at b = 2.
        spec, _ = catalog_witness(963761198400, 202)
        m, invariants = block_invariants(spec, 0)
        assert len(divisors(m)) == 5760
        asked = recorded_divisors(monkeypatch)
        report = nut_check_spectral(spec)
        assert report.total_nullity == 1 and report.singular_divisors == (2,)
        assert 0 < len(asked) <= 300
        span = _cyclic_span(invariants[0], m)
        assert all(euler_phi(b) <= span for b in asked)


def random_folded_map(rng, m):
    """A random exponent -> coefficient map folded modulo x^m - 1: a few
    terms in a window of random width, or a rotated multiple of a
    cyclotomic polynomial Phi_b with b | m."""
    r = rng.randrange(m)
    if rng.random() < 0.5:
        width = rng.randint(1, m)
        pairs = [(r + rng.randrange(width), rng.choice((-2, -1, 1, 2)))
                 for _ in range(rng.randint(1, 6))]
    else:
        factor = {rng.randrange(3): rng.choice((-1, 1)) for _ in range(rng.randint(1, 2))}
        pairs = ((e + r, c) for e, c in product(cyclotomic(rng.choice(divisors(m))),
                                                 factor).items())
    return fold(pairs, m)


class TestCyclicSpan:
    def test_span_is_the_least_rotated_degree(self):
        rng = random.Random(137)
        for _ in range(500):
            m = rng.randint(1, 60)
            terms = random_folded_map(rng, m)
            if terms:
                least = min(max(fold(((e + r, c) for e, c in terms.items()), m))
                            for r in range(m))
                assert _cyclic_span(terms, m) == least, (terms, m)

    def test_skipped_divisors_are_rejected(self):
        # phi(b) above the span: Phi_b cannot divide the map.  Both kinds of
        # pair occur, and some maps are divisible within their reach.
        rng = random.Random(139)
        skipped = divisible = 0
        for _ in range(500):
            m = rng.randint(1, 60)
            terms = random_folded_map(rng, m)
            if not terms:
                continue
            span = _cyclic_span(terms, m)
            for b in divisors(m):
                if euler_phi(b) > span:
                    skipped += 1
                    assert not divides_cyclotomic(terms, b), (terms, m, b)
                else:
                    divisible += divides_cyclotomic(terms, b)
        assert skipped > 100 and divisible > 100

    def test_maps_vanishing_at_one_reach_one_less(self):
        # A map times 1 - x, as every telescoped invariant is: x - 1 and any
        # Phi_b with b >= 2 dividing it both divide its rotation of degree
        # span, so phi(b) >= span rules b out, and phi(b) = span - 1 occurs.
        rng = random.Random(149)
        skipped = tight = 0
        for _ in range(500):
            m = rng.randint(2, 60)
            terms = one_minus_x_times(random_folded_map(rng, m), 1, m)
            if not terms:
                continue
            assert sum(terms.values()) == 0
            span = _cyclic_span(terms, m)
            for b in divisors(m)[1:]:
                if euler_phi(b) >= span:
                    skipped += 1
                    assert not divides_cyclotomic(terms, b), (terms, m, b)
                elif euler_phi(b) == span - 1:
                    tight += divides_cyclotomic(terms, b)
        assert skipped > 100 and tight > 20
