"""Tests for the two nut-certification routes and their agreement."""

import random

import pytest

from nutforge.exact import Polynomial
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    build_bicirculant,
    build_circulant,
    build_dihedral,
)
from nutforge.verify import (
    det_polynomial,
    nullity_shifted,
    nut_check_direct,
    nut_check_spectral,
    trace_polynomial,
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
        prism = build_dihedral(DihedralSpec(6, {1, 5}, {0}))
        assert nullity_shifted(prism, 1) == 1

    def test_empty_graph_shift_one(self):
        g = Graph.from_edges(5, [])
        assert nullity_shifted(g, 1) == 0

    def test_shift_zero_matches_direct(self):
        rng = random.Random(83)
        for _ in range(20):
            spec = random_bicirculant_spec(rng, max_m=8)
            g = build_bicirculant(spec)
            assert nullity_shifted(g, 0) == nut_check_direct(g).nullity

    def test_complement_link(self):
        # For a regular non-complete graph, nullity of the complement equals
        # the multiplicity of -1 in the base graph.
        from nutforge.graphs import complement

        prism = build_dihedral(DihedralSpec(6, {1, 5}, {0}))
        assert nut_check_direct(complement(prism)).nullity == nullity_shifted(prism, 1)


class TestDetPolynomial:
    def test_matching_block(self):
        spec = DihedralSpec(3, frozenset(), {0}).as_bicirculant()
        assert det_polynomial(spec, 0) == Polynomial({0: -1})

    def test_disjoint_squares(self):
        spec = BicirculantSpec(4, {1, 3}, frozenset(), {1, 3})
        assert det_polynomial(spec, 0) == Polynomial({2: 2, 0: 2})

    def test_six_regular_family_divisors(self):
        from nutforge.cyclotomic import divides_cyclotomic

        spec = DihedralSpec(8, {1, 7}, {0, 1, 4, 6}).as_bicirculant()
        d = det_polynomial(spec, 0)
        assert divides_cyclotomic(d, 2)
        for b in (1, 4, 8):
            assert not divides_cyclotomic(d, b)

    def test_value_at_one_is_block_determinant(self):
        rng = random.Random(89)
        for shift in (0, 1):
            for _ in range(40):
                spec = random_bicirculant_spec(rng, max_m=12)
                d = det_polynomial(spec, shift)
                expected = ((shift + len(spec.s0)) * (shift + len(spec.s2))
                            - len(spec.s1) ** 2)
                assert sum(d.terms.values()) == expected  # the value at x = 1

    def test_trace_value_at_one(self):
        spec = BicirculantSpec(6, {1, 5}, {0, 3}, {2, 4})
        assert sum(trace_polynomial(spec, 1).terms.values()) == 2 + 2 + 2


class TestSpectral:
    def test_six_regular_order_sixteen(self):
        spec = DihedralSpec(8, {1, 7}, {0, 1, 4, 6}).as_bicirculant()
        rep = nut_check_spectral(spec, 0)
        assert rep.singular_divisors == (2,)
        assert rep.total_nullity == 1
        assert rep.simple_zero

    def test_complement_base_shift_one(self):
        spec = DihedralSpec(10, {2, 8}, {0, 8, 9}).as_bicirculant()
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
        assert not rep.simple_zero

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
        for shift in (0, 1):
            assert (nut_check_spectral(spec, shift)
                    == nut_check_spectral(spec.as_bicirculant(), shift))

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
            assert nut_check_spectral(spec, 1).total_nullity == nullity_shifted(g, 1)

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
            g = build_dihedral(spec)
            rep = nut_check_spectral(spec.as_bicirculant(), 0)
            cert = nut_check_direct(g)
            assert rep.simple_zero == cert.is_nut
            checked_nuts += cert.is_nut
        assert checked_nuts > 0
