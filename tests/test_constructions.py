"""Tests for feasibility, the construction catalog, searches, and the census."""

import json
import math
import re
import random
from functools import cache
from itertools import combinations, zip_longest

import pytest

import nutforge.constructions as constructions
import nutforge.verify as verify
from nutforge.constructions import (
    InfeasiblePairError,
    SearchExhaustedError,
    Witness,
    canonical_form,
    catalog_witness,
    census,
    circulant_search,
    complement_family_spec,
    construct,
    direct_family_spec,
    feasible_vt,
)
from nutforge.cyclotomic import divides_cyclotomic
from nutforge.graphs import (
    CirculantSpec,
    DihedralSpec,
    Graph,
    build,
    build_bicirculant,
    build_circulant,
    complement,
    to_graph6,
)
from nutforge.lemmas import FAMILIES, candidate_divisor_indices
from nutforge.numtheory import divisors
from nutforge.verify import (
    NutCertificate,
    block_invariants,
    nut_check_direct,
    nut_check_spectral,
)
from oracles import (
    add,
    block_invariants_by_pairs,
    cyclotomic,
    divrem,
    phi_table,
    product,
    candidate_specs,
    candidate_specs_before_tuples,
    census_by_every_walk,
    circulant_search_by_islice,
    dihedral_candidates_by_orbits,
    is_regular,
    kernel_character_by_rows,
    moebius_ladder,
    one_minus_x_times,
    prism,
    relabel,
    screen,
    screen_by_full_nullity,
    orbit_minimal_spec,
    sign_classes_split_evenly,
    small_cayley_specs,
)
from test_golden import CENSUS_CASES


def oracle_feasible(n, d):
    """Independent restatement of the existence conditions."""
    if d % 2 or d < 4 or n % 2 or n < d + 4:
        return False
    if d % 4 == 2 and (n % 4 or n < d + 6):
        return False
    return True


class TestFeasibility:
    def test_documented_pairs(self):
        assert feasible_vt(8, 4).exists
        assert not feasible_vt(14, 6).exists
        assert feasible_vt(12, 6).exists
        assert not feasible_vt(9, 4).exists

    def test_cases(self):
        assert feasible_vt(10, 3).case == "odd-or-small"
        assert feasible_vt(10, 0).case == "odd-or-small"
        assert feasible_vt(8, 4).case == "d-div-4"
        assert feasible_vt(12, 6).case == "d-2-mod-4"

    def test_degenerate_inputs(self):
        v = feasible_vt(1, 0)
        assert not v.exists and v.case == "odd-or-small"

    def test_matches_oracle_on_grid(self):
        for d in range(0, 21):
            for n in range(1, 41):
                assert feasible_vt(n, d).exists == oracle_feasible(n, d), (n, d)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            feasible_vt(0, 4)
        with pytest.raises(ValueError):
            feasible_vt(8, -2)


def forge_divisor_walk(monkeypatch, nullity):
    """Route the gate's divisor walk through a forgery of the given nullity,
    all of it at b = 1; returns the (spec, shift) pairs it is asked about."""
    walked = []

    def forged(spec, shift):
        walked.append((spec, shift))
        yield verify.DivisorVerdict(1, nullity)

    monkeypatch.setattr(constructions, "divisor_walk", forged)
    return walked


def witness_parity_violated(n, d):
    """The order/degree check every witness passed before ``_certify`` took
    the law from ``feasible_vt``, copied verbatim."""
    return bool(n % 2 or d % 2 or (n % 4 and d % 4) or d < 4 or n < d + 4)


class TestOneExistenceLaw:
    def test_old_parity_check_matches_feasible_vt(self):
        disagreements = [(n, d) for n in range(1, 401) for d in range(0, 401)
                         if witness_parity_violated(n, d) == feasible_vt(n, d).exists]
        assert disagreements == []

    def test_default_budget_never_binds_up_to_order_24(self):
        counts = [sum(1 for _ in constructions._candidates("circulant", n, d))
                  for n in range(3, 25) for d in range(0, n)]
        assert max(counts) == 462 < constructions.DEFAULT_SEARCH_BUDGET

    def test_certify_gates(self, monkeypatch):
        certify = constructions._certify
        # Nullity not one: the octahedron C_6(1, 2) = K_{2,2,2} has nullity 3
        # and the alternating character annihilates it.
        octahedron = CirculantSpec(6, {1, 2})
        assert nut_check_direct(build_circulant(octahedron)).nullity == 3
        assert constructions._kernel_character(octahedron, 0) == (-1, 1)
        assert certify(octahedron, 0, "octahedron", 6, 4) is None
        # Shape: a nut graph of order 8 and degree 4, asked for degree 6.
        spec = CirculantSpec(8, {1, 2})
        with pytest.raises(RuntimeError, match="wrong shape"):
            certify(spec, 0, "circulant(n=8, jumps=[1, 2])", 8, 6)
        w = certify(spec, 0, "circulant", 8, 4)
        assert w.recipe == "circulant"
        assert w.certificate == nut_check_direct(build_circulant(spec))
        # Shift 1 passes: the Moebius ladder's complement at (16, 12).
        ladder, shift, recipe = catalog_witness(16, 12)
        assert shift == 1
        w = certify(ladder, shift, recipe, 16, 12)
        assert w.certificate == nut_check_direct(complement(build_circulant(ladder)))
        # The remaining gates read a walk forged to claim a nullity.
        walked = forge_divisor_walk(monkeypatch, 1)
        # No +-1 character: the 8-cycle, whose rows sum to 2 against the
        # trivial character and to -2 against the alternating one, is
        # refused before the walk.  At shift 1 no nontrivial character has
        # eps(S) = -1, and the trivial one has eigenvalue 5.
        cycle = CirculantSpec(8, {1})
        assert certify(cycle, 0, "8-cycle", 8, 2) is None
        assert certify(cycle, 1, "complement(8-cycle)", 8, 5) is None
        assert walked == []
        # Existence law: given a walk of nullity 1, only the law rejects the
        # octahedron's order 6 at degree 4.
        with pytest.raises(RuntimeError, match="existence law"):
            certify(octahedron, 0, "octahedron", 6, 4)
        assert walked == [(octahedron, 0)]
        # Nullity not one, from the walk alone: the nut graph C_8(1, 2) at a
        # claimed nullity 2.
        forge_divisor_walk(monkeypatch, 2)
        assert certify(spec, 0, "circulant", 8, 4) is None

    def test_construct_names_a_failing_recipe(self, monkeypatch):
        forge_divisor_walk(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=re.escape(catalog_witness(12, 6)[2])):
            construct(12, 6)

    def test_certify_matches_full_nullity_and_row_character(self):
        # The gate, character first and stopping past nullity one, returns a
        # witness exactly when the full spectral nullity is one and a +-1
        # character annihilates the rows; each witness is the direct kernel's.
        witnesses = 0
        for spec in small_cayley_specs():
            for shift in (0, 1):
                degree = spec.order - 1 - spec.degree if shift else spec.degree
                w = constructions._certify(spec, shift, "spec", spec.order, degree)
                nut = (nut_check_spectral(spec, shift).total_nullity == 1
                       and kernel_character_by_rows(spec, shift) is not None)
                assert (w is not None) == nut, (spec, shift)
                if w is not None:
                    witnesses += 1
                    assert w.certificate == nut_check_direct(w.graph), (spec, shift)
        assert witnesses == 160

    def test_character_rule_matches_the_row_check(self):
        # The connection-set rule eps(S) = 0, or eps(G) - 1 - eps(S) = 0 at
        # shift 1, against the adjacency rows of the built graph.
        pairs = [(spec, shift) for spec in small_cayley_specs() for shift in (0, 1)]
        assert len(pairs) == 2184
        disagreements = [(spec, shift) for spec, shift in pairs
                         if constructions._kernel_character(spec, shift)
                         != kernel_character_by_rows(spec, shift)]
        assert disagreements == []
        found = {constructions._kernel_character(*pair) for pair in pairs}
        assert found == {None, (1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_every_character_certifies_as_the_direct_kernel(self):
        # Z_n: j -> (-1)^j, with n/2 odd or even.  D_m: the three nontrivial
        # characters (a, b), read off as the entries at r and at s.  The
        # trivial character never certifies: the all-ones vector has
        # eigenvalue d.
        seen = set()
        for family, n, d in (("circulant", 10, 4), ("circulant", 12, 4),
                             ("dihedral", 10, 4), ("dihedral", 12, 8)):
            for w in census(family, n, d, dedup=False):
                assert w.certificate == nut_check_direct(w.graph), w.recipe
                v = w.certificate.kernel_vector
                seen.add((family, v[1], v[n // 2]))
        assert seen == {("circulant", -1, -1), ("circulant", -1, 1),
                        ("dihedral", 1, -1), ("dihedral", -1, -1), ("dihedral", -1, 1)}

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown census family"):
            census("cubic", 8, 4)


class TestExistenceLawProof:
    """The computed facts of the necessity proof in ``feasible_vt``'s
    docstring: the nullities of the cocktail-party graphs (step 5), of the
    cycles (step 4) and of the complete graphs (step 5), the sign classes
    of step 3 on every witness of the benchmark's censuses, and the law's
    "no" on the Petersen graph and its complement, vertex-transitive graphs
    that are not Cayley graphs."""

    def test_cocktail_party_nullity(self):
        for k in range(3, 41):
            # C_2k(1, ..., k - 1) is K_2k minus the perfect matching of jump k.
            spec = CirculantSpec(2 * k, range(1, k))
            report = nut_check_spectral(spec)
            assert report.total_nullity == k
            assert report.singular_divisors == tuple(b for b in divisors(2 * k) if k % b)
            # x^k + 1 + p_S sums x^c over c in [0, 2k), (x^2k - 1) / (x - 1), so
            # p_S(w) = -1 - w^k at each primitive b-th root w, b | 2k, b > 1.
            everything = add({k: 1, 0: 1}, {c: 1 for c in spec.connection})
            assert everything == {c: 1 for c in range(2 * k)}
            assert all(divides_cyclotomic(everything, b) for b in divisors(2 * k)[1:]), k

    def test_cycle_nullity(self):
        for k in range(3, 61):
            assert nut_check_spectral(CirculantSpec(k, {1})).total_nullity == (
                2 if k % 4 == 0 else 0), k

    def test_complete_graph_nullity(self):
        assert nut_check_direct(Graph.from_edges(2, [(0, 1)])).nullity == 0
        for n in range(3, 41):
            assert nut_check_spectral(CirculantSpec(n, range(1, n // 2 + 1))).total_nullity == 0, n

    def test_petersen_graph_and_complement(self):
        # Orders (10, 3) and (10, 6) break the law (odd d; 4 does not
        # divide 10), and neither graph is singular: the eigenvalues are
        # 3, 1, -2 and 6, -2, 1.
        g = petersen()
        for graph, d in ((g, 3), (complement(g), 6)):
            assert set(graph.degrees()) == {d}
            assert not feasible_vt(10, d).exists
            assert nut_check_direct(graph).nullity == 0

    def test_census_witnesses_split_into_sign_classes(self):
        for family, n, d, dedup in CENSUS_CASES:
            witnesses = census(family, n, d, dedup)
            assert witnesses, (family, n, d, dedup)
            for w in witnesses:
                assert sign_classes_split_evenly(w), w.recipe


class TestFamilySpecs:
    def test_degree_6_mod_8_instances(self):
        s = direct_family_spec(6, 8)
        assert s.rotations == frozenset({1, 7})
        assert s.reflections == frozenset({0, 1, 4, 6})
        s = direct_family_spec(6, 10)
        assert s.rotations == frozenset({1, 9})
        assert s.reflections == frozenset({0, 1, 4, 6})
        s = direct_family_spec(14, 12)
        assert s.rotations == frozenset({1, 2, 3, 9, 10, 11})
        assert s.reflections == frozenset({0, 1, 4, 6, 8, 9, 10, 11})

    def test_degree_2_mod_8_instances(self):
        s = direct_family_spec(10, 14)
        assert s.rotations == frozenset({1, 13})
        assert s.reflections == frozenset({0, 1, 2, 5, 7, 9, 10, 13})
        s = direct_family_spec(10, 16)
        assert s.rotations == frozenset({1, 15})
        assert s.reflections == frozenset({0, 1, 2, 5, 7, 9, 10, 13})
        s = direct_family_spec(18, 18)
        assert s.rotations == frozenset({1, 2, 3, 15, 16, 17})
        assert s.reflections == frozenset({0, 1, 2, 5, 7, 9, 10, 13, 14, 15, 16, 17})

    def test_complement_family_instances(self):
        s = complement_family_spec(14, 6)
        assert (s.m, s.rotations, s.reflections) == (10, frozenset({2, 8}),
                                                     frozenset({0, 8, 9}))
        assert complement_family_spec(18, 6).m == 12
        assert complement_family_spec(18, 6).rotations == frozenset({2, 10})
        assert complement_family_spec(22, 6).rotations == frozenset({2, 12})
        s = complement_family_spec(22, 10)
        assert (s.m, s.rotations) == (16, frozenset({2, 4, 12, 14}))
        assert s.reflections == frozenset({0, 2, 6, 7, 15})
        assert complement_family_spec(26, 10).rotations == frozenset({2, 4, 14, 16})
        s = complement_family_spec(26, 14)
        assert (s.m, s.rotations) == (20, frozenset({2, 4, 7, 13, 16, 18}))
        assert s.reflections == frozenset({0, 2, 6, 7, 14, 17, 19})

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            direct_family_spec(6, 7)  # odd m
        with pytest.raises(ValueError):
            direct_family_spec(14, 10)  # below 4t + 8
        with pytest.raises(ValueError):
            direct_family_spec(10, 12)
        with pytest.raises(ValueError):
            direct_family_spec(2, 16)  # d = 8t + 10 needs t >= 0
        with pytest.raises(ValueError):
            direct_family_spec(12, 32)  # d = 0 (mod 4)
        with pytest.raises(ValueError):
            complement_family_spec(10, 6)
        with pytest.raises(ValueError):
            complement_family_spec(18, 10)
        with pytest.raises(ValueError):
            complement_family_spec(22, 14)
        with pytest.raises(ValueError):
            complement_family_spec(24, 14)  # d = 0 (mod 4)
        with pytest.raises(ValueError, match="no complement family of gap 8"):
            complement_family_spec(30, 8)

    def test_family_degrees(self):
        for t, m in ((0, 8), (1, 12), (2, 20)):
            g = build_bicirculant(direct_family_spec(8 * t + 6, m))
            assert is_regular(g) == 8 * t + 6
        for t, m in ((0, 14), (1, 18), (2, 24)):
            g = build_bicirculant(direct_family_spec(8 * t + 10, m))
            assert is_regular(g) == 8 * t + 10


def built(spec, shift):
    """The graph a (spec, shift, recipe) triple names."""
    g = build(spec)
    return complement(g) if shift else g


class TestCatalogCoverage:
    """The catalog's reach, read from the specs alone: no graph is built."""

    def test_every_catalog_pair_has_a_rule(self):
        # The catalog answers every feasible pair with d = 2 (mod 4) or
        # n = d + 4; the search only the rest.
        checked = 0
        missing = []
        for d in range(4, 403, 2):
            for n in range(d + 4, d + 1200, 2):
                if (d % 4 == 2 or n == d + 4) and feasible_vt(n, d).exists:
                    checked += 1
                    if catalog_witness(n, d) is None:
                        missing.append((n, d))
        assert missing == []
        assert checked == 100 * 299 + 100

    def test_a_rule_at_every_order_up_to_degree_800(self):
        # Proves that catalog_witness has a rule at every feasible order for
        # d = 2 (mod 4), 6 <= d <= 800, and at n = d + 4 for 4 | d <= 800;
        # it does not prove that a rule gives a nut graph.  Past the direct
        # family's least order n0 = 2 * (4t + least m) the family's
        # condition m >= 4t + least m holds for every larger m, and no
        # sporadic entry of such a degree lies at or above n0, so a rule at
        # every feasible order below n0 and the family chosen at n0 cover
        # every order.
        misses = []
        checked = 0
        for d in range(6, 801, 4):
            t = (d - 6) // 8
            n0 = 2 * (4 * t + constructions._DIRECT_FAMILIES[d % 8][0])
            for n in range(d + 6, n0, 4):
                checked += 1
                if catalog_witness(n, d) is None:
                    misses.append((n, d))
            checked += 1
            found = catalog_witness(n0, d)
            if found is None or found[:2] != (direct_family_spec(d, n0 // 2), 0):
                misses.append((n0, d))
            assert all(n < n0 for n, e in constructions._SPORADIC_DIHEDRAL if e == d)
        for d in range(4, 801, 4):
            checked += 1
            if catalog_witness(d + 4, d) is None:
                misses.append((d + 4, d))
        assert misses == []
        assert checked == 596 + 200

    def test_catalog_specs_certify_up_to_order_a_billion(self):
        # Small d at large orders (direct families), then order d + 4 and
        # the complement families' gaps at large d, where every spec stays
        # small.
        rng = random.Random(16)
        pairs = []
        for _ in range(10):
            d = rng.randrange(6, 64, 4)
            pairs.append((4 * rng.randrange(d // 4 + 2, 250_000_001), d))
            d = rng.randrange(8, 10**9 - 3, 4)
            pairs.append((d + 4, d))
            d = rng.randrange(26, 10**9 - 13, 8)  # d = 2 (mod 8): gaps 6, 10, 14
            pairs.append((d + rng.choice((6, 10, 14)), d))
            d = rng.randrange(14, 10**9 - 5, 8)  # d = 6 (mod 8): gap 6
            pairs.append((d + 6, d))
        for n, d in pairs:
            assert feasible_vt(n, d).exists, (n, d)
            spec, shift, recipe = catalog_witness(n, d)
            assert spec.order == n, recipe
            assert nut_check_spectral(spec, shift).total_nullity == 1, recipe
            assert constructions._kernel_character(spec, shift) is not None, recipe


def shifted_invariants(exponents, reflections):
    """The shift-1 block determinant (1 + R)^2 - F F~ and trace 2 (1 + R) of
    the dihedral base with rotations +-e for e in ``exponents`` and the
    ``reflections``, as Laurent polynomials in x: R sums x^e + x^-e and F
    sums x^r, and no exponent is reduced modulo m."""
    diagonal = add({0: 1}, *({e: 1, -e: 1} for e in exponents))
    cross = product({r: 1 for r in reflections}, {-r: -1 for r in reflections})
    return add(product(diagonal, diagonal), cross), add(diagonal, diagonal)


def span(p):
    return max(p) - min(p)


def cyclotomic_divides(p, b):
    """Whether Phi_b divides the nonzero Laurent polynomial p, by division."""
    low = min(p)
    return not divrem({e - low: c for e, c in p.items()}, cyclotomic(b))[1]


def cyclotomic_factors(p):
    """Every b with Phi_b dividing the nonzero Laurent polynomial p: Phi_b
    has degree phi(b), so only the b with phi(b) <= span(p) can, and
    phi(b) >= sqrt(b / 2) bounds them by 2 span(p)^2."""
    phi = phi_table(2 * span(p) ** 2)
    return [b for b in range(1, len(phi)) if phi[b] <= span(p) and cyclotomic_divides(p, b)]


def affine_product(*factors):
    """The product of sums of terms c x^(alpha t + beta), each given as its
    map (alpha, beta) -> c (1 for none)."""
    out = {(0, 0): 1}
    for p in factors:
        step: dict = {}
        for (a1, b1), c1 in out.items():
            for (a2, b2), c2 in p.items():
                step[a1 + a2, b1 + b2] = step.get((a1 + a2, b1 + b2), 0) + c1 * c2
        out = {k: c for k, c in step.items() if c}
    return out


def direct_family_identity(tag, d0, e, fixed, start):
    """Both sides of (1 - x) L(t) = x^(4t + e) (1 - x)^2 D(t) as maps
    (alpha, beta) -> c, for the lemma family L = ``tag`` and the direct
    family d = 8t + d0 with fixed reflections ``fixed`` and a run from
    ``start``.

    D(t) = p0^2 - p1 p1~ is the Laurent block determinant of the family's
    spec: rotations +-1..+-(2t + 1), reflections ``fixed`` and the run of
    d - (4t + 2) - len(fixed) = 4t + r0 reflections from ``start``.  Each
    factor of (1 - x)^2 D = [(1 - x) p0]^2 + x [(1 - x) p1] [(1 - x^-1) p1~]
    telescopes, since (1 - x) (x^a + ... + x^(b-1)) = x^a - x^b, and
    (1 - x^-1) p1~ is (1 - x) p1 at 1/x, its pairs negated.
    """
    r0 = d0 - 2 - len(fixed)
    rotations = {(-2, -1): 1, (0, 0): -1, (0, 1): 1, (2, 2): -1}
    reflections = add(*({(0, r): 1, (0, r + 1): -1} for r in fixed),
                      {(0, start): 1, (4, start + r0): -1})
    mirrored = {(-a, -b): c for (a, b), c in reflections.items()}
    det = add(affine_product(rotations, rotations),
              affine_product({(0, 1): 1}, reflections, mirrored))
    lemma = add(*({(a, b): c, (a, b + 1): -c} for c, a, b in FAMILIES[tag].terms))
    return lemma, affine_product({(4, e): 1}, det)


class TestRecipeProofs:
    """Each complement recipe gives a nut graph at every order it serves,
    and each direct family's determinant is a lemma family's member.

    A complement witness is the complement of a dihedral base on D_m, whose
    nullity is the base's multiplicity of eigenvalue -1: the sum, over the
    divisors b of m, of phi(b) times the number of shift-1 block invariants
    (the determinant, then the trace) that Phi_b divides (``verify``).  The
    base's rotations are +-e for fixed exponents e and its reflections are
    fixed, so once m passes 2 max(e) and the largest reflection its
    exponents stop wrapping, and its pair-list invariants
    (``oracles.block_invariants_by_pairs``) are the Laurent polynomials D
    and T of ``shifted_invariants`` reduced modulo x^m - 1; the telescoped
    ones of ``block_invariants`` are (1 - x)^2 D and (1 - x) T, reduced.
    When b | m, Phi_b divides x^m - 1, so the folded block is singular at b
    exactly when Phi_b divides D.  D does not depend on m, so its finitely
    many cyclotomic factors, each with phi(b) <= span(D), decide every
    order at once.

    A direct family's witness is its own spec, unshifted, and its Laurent
    determinant D(t) does not depend on m once m is at least the family's
    least m.  Times x^e (1 - x) it is R(t) or T(t) of ``lemmas``, whose
    suites show that no Phi_b with b >= 3 divides them.
    """

    @pytest.mark.parametrize("tag, d0, e", [("R", 6, 7), ("T", 10, 13)])
    def test_direct_family_determinant_for_every_t(self, tag, d0, e):
        # R(t) = x^(4t+7) (1 - x) D(t) and T(t) = x^(4t+13) (1 - x) D'(t),
        # D and D' the determinants of the degree 8t+6 and 8t+10 families.
        # Times (1 - x), both sides are sums of terms c x^(alpha t + beta),
        # so they agree for every t >= 0 once their merged maps agree.
        least, fixed, start = constructions._DIRECT_FAMILIES[d0 % 8]
        lemma, scaled = direct_family_identity(tag, d0, e, fixed, start)
        assert lemma == scaled
        # D is the specs' determinant, rotation exponents centred in
        # (-m/2, m/2] and reflections as stored, at the least m and past it.
        for t in range(8):
            for m in (4 * t + least, 4 * t + least + 6):
                spec = direct_family_spec(8 * t + d0, m)
                p0 = {r if 2 * r <= m else r - m: 1 for r in spec.rotations}
                det = add(product(p0, p0), product({r: 1 for r in spec.reflections},
                                                   {-r: -1 for r in spec.reflections}))
                assert block_invariants_by_pairs(spec, 0)[1][0] == add(
                    *({k % m: c} for k, c in det.items()))
                assert product({4 * t + e: 1, 4 * t + e + 1: -1}, det) == \
                    FAMILIES[tag].member(t), (t, m)
                # telescoped: (1 - x)^2 D = x^-(4t+e) (1 - x) L(t)
                assert block_invariants(spec, 0)[1][0] == one_minus_x_times(
                    {k - 4 * t - e: c for k, c in FAMILIES[tag].member(t).items()}, 1, m)

    @pytest.mark.parametrize("tag, d0, e", [("R", 6, 7), ("T", 10, 13)])
    def test_direct_family_identity_fails_on_a_moved_reflection(self, tag, d0, e):
        # The gate above reads the fixed reflections, so moving any one of
        # them to a free exponent below the run breaks the identity.
        _, fixed, start = constructions._DIRECT_FAMILIES[d0 % 8]
        for i, r in enumerate(fixed):
            for moved in set(range(start)) - set(fixed):
                mutated = tuple(sorted({*fixed[:i], moved, *fixed[i + 1:]}))
                lemma, scaled = direct_family_identity(tag, d0, e, mutated, start)
                assert lemma != scaled, (r, moved)

    @pytest.mark.parametrize("d0", [6, 10])
    def test_direct_family_nullity_one_for_every_t(self, d0):
        # At b >= 3 every block is nonsingular: x^e (1 - x) D(t) is R(t) or
        # T(t) (the identity above), which no Phi_b with b >= 3 divides by
        # the lemma suites (for T together with TestRatioBoundGap).  At
        # b = 1 and, as m is even, b = 2 the eigenvalues are p0(x) +- p1(x)
        # at x = 1 and x = -1, each affine in t, stored as (slope, constant):
        # the band of 2t + 1 exponents per side sums to 2t + 1, or to -1 at
        # x = -1, and the run of 4t + r0 reflections from ``start`` sums to
        # its length, or at x = -1, its 4t cancelling, to r0 mod 2 signed
        # by the start's parity.
        least, fixed, start = constructions._DIRECT_FAMILIES[d0 % 8]
        r0 = d0 - 2 - len(fixed)
        p0 = {1: (4, 2), -1: (0, -2)}
        p1 = {1: (4, r0 + len(fixed)),
              -1: (0, (-1) ** start * (r0 % 2) + sum((-1) ** r for r in fixed))}
        eigen = {b: [(p0[x][0] + sign * p1[x][0], p0[x][1] + sign * p1[x][1]) for sign in (1, -1)]
                 for b, x in ((1, 1), (2, -1))}
        assert eigen == {6: {1: [(8, 6), (0, -2)], 2: [(0, 0), (0, -4)]},
                         10: {1: [(8, 10), (0, -6)], 2: [(0, -4), (0, 0)]}}[d0]
        # a t + c with a >= 0 and c >= 0 is zero at some t >= 0 only when
        # a = c = 0, and a constant c < 0 never is: one zero, at b = 2
        assert all(a >= 0 and (c >= 0 or a == 0) for pair in eigen.values() for a, c in pair)
        assert [b for b, pair in eigen.items() for a, c in pair if (a, c) == (0, 0)] == [2]
        # the affine values are the specs' own
        for t in range(12):
            for m in (4 * t + least, 4 * t + least + 2, 4 * t + least + 10):
                spec = direct_family_spec(8 * t + d0, m)
                for b, x in ((1, 1), (2, -1)):
                    rot = sum(x ** r for r in spec.rotations)
                    ref = sum(x ** r for r in spec.reflections)
                    assert [rot + ref, rot - ref] == [a * t + c for a, c in eigen[b]], (t, m, b)
        # and the spectral check agrees at sampled large (t, m)
        rng = random.Random(d0)
        for t in (0, 1, *(rng.randint(2, 200) for _ in range(4))):
            m = 4 * t + least + 2 * rng.randint(0, 10**5)
            report = nut_check_spectral(direct_family_spec(8 * t + d0, m), 0)
            assert (report.total_nullity, report.singular_divisors) == (1, (2,)), (t, m)

    @pytest.mark.parametrize("gap", sorted(constructions._COMPLEMENT_FAMILIES))
    def test_complement_family_for_every_order(self, gap):
        # D has Phi_1 as its only cyclotomic factor and T(1) != 0, so every
        # m gets the nullity phi(1) * 1 = 1 from b = 1 alone.  The least m
        # of the family, (least degree + gap) / 2, is past the wrapping.
        least, exponents, reflections = constructions._COMPLEMENT_FAMILIES[gap]
        det, trace = shifted_invariants(exponents, reflections)
        assert span(det) == {6: 18, 10: 30, 14: 38}[gap]
        assert cyclotomic_factors(det) == [1]
        assert not cyclotomic_divides(trace, 1)
        m_least = (least + gap) // 2
        assert m_least > max(2 * max(exponents), max(reflections))
        rng = random.Random(gap)
        for d in [least, least + 4, *(rng.randrange(least, 10**9, 4) for _ in range(6))]:
            spec = complement_family_spec(d, gap)
            assert spec.m >= m_least
            folded = add(*({e % spec.m: c} for e, c in det.items()))
            assert block_invariants_by_pairs(spec, 1)[1][0] == folded
            assert block_invariants(spec, 1)[1][0] == one_minus_x_times(det, 2, spec.m)
            report = nut_check_spectral(spec, 1)
            assert (report.total_nullity, report.singular_divisors) == (1, (1,)), d

    def test_prism_at_every_order(self):
        # The prism's base dihedral({+-1}, {0}) has D = Phi_2^2 Phi_4 / x^2
        # and T = 2 Phi_3 / x, nonzero at b = 1, 2 and 4.  So its nullity is
        # 1 when 2 | m plus phi(4) = 2 when 4 | m, and 8 | d makes
        # m = (d + 4) / 2 = 2 (mod 4): nullity one.  The exponents stop
        # wrapping at m = 3; the least prism order, d = 8, has m = 6.
        det, trace = shifted_invariants((1,), (0,))
        assert cyclotomic_factors(det) == [2, 4]
        assert not any(cyclotomic_divides(trace, b) for b in (1, 2, 4))
        rng = random.Random(8)
        for d in [8, 16, 24, *(8 * rng.randrange(4, 10**8) for _ in range(6))]:
            spec, shift, recipe = catalog_witness(d + 4, d)
            m = spec.m
            assert (spec, shift) == (DihedralSpec(m, {1, m - 1}, {0}), 1), recipe
            report = nut_check_spectral(spec, 1)
            assert (report.total_nullity, report.singular_divisors) == (1, (2,)), d


def passes_circulant_rule(jumps):
    """The finite check of ``TestProvenCirculantRule`` on x^(max S) p_S:
    Phi_2 divides it and no Phi_b with b >= 3 and phi(b) <= 2 max S does."""
    p = add(*({s: 1, -s: 1} for s in jumps))
    return cyclotomic_divides(p, 2) and not any(
        cyclotomic_divides(p, b) for b in candidate_divisor_indices(2 * max(jumps), 3))


def proven_jump_sets(d):
    """Every candidate jump set of the fixed search for 4 | d >= 8, in search
    order; S_d is the first that passes the finite check."""
    if d == 8:
        return [{3, 4, 5, 8}]
    top = d // 2 + (1 if d % 8 == 4 else 2)
    full = set(range(1, top + 1))
    if d % 8 == 4:
        return [full - {o} for o in range(1, top + 1, 2)]
    return [full - {o, e} for o in range(1, top + 1, 2) for e in range(2, top + 1, 2)]


@cache
def proven_jump_set(d):
    return next(s for s in proven_jump_sets(d) if passes_circulant_rule(s))


class TestProvenCirculantRule:
    """Circulant nut graphs for 4 | d at every even order past the jumps.

    Let p_S = sum over s in S of (x^s + x^-s).  For even n > 2 max S the jump
    n/2 is not in S, so C_n(S) has degree 2 |S| and eigenvalues p_S(w) over
    the n-th roots of unity w; its block at b | n is singular exactly when
    Phi_b divides p_S.  The block at b = 1 is p_S(1) = 2 |S| > 0.  So C_n(S)
    is a nut graph for every even n > 2 max S exactly when
    - S has as many odd jumps as even ones, so Phi_2 divides p_S and the
      kernel is the full vector ((-1)^i), and
    - no Phi_b with b >= 3 divides p_S; only phi(b) <= 2 max S can, the
      degree of x^(max S) p_S.
    The second condition is a finite check, independent of n.  After
    Damnjanovic & Stevanovic, "On circulant nut graphs", LAA 2022, and
    Damnjanovic, "Complete resolution of the circulant nut graph
    order-degree existence problem", Ars Math. Contemp. 2024.
    """

    DEGREES = range(8, 201, 4)

    def test_finite_check_for_every_degree_to_200(self):
        removed = {}
        for d in self.DEGREES:
            jumps = proven_jump_set(d)
            assert len(jumps) == d // 2, d
            removed[d] = set(range(1, max(jumps) + 1)) - jumps
        assert {d: removed[d] for d in range(12, 37, 4)} == {
            12: {3}, 16: {1, 8}, 20: {5}, 24: {1, 12}, 28: {7}, 32: {3, 4}, 36: {3}}

    def test_spectral_agreement_past_the_jumps(self):
        for d in self.DEGREES:
            jumps = proven_jump_set(d)
            for n in range(2 * max(jumps) + 2, 2 * max(jumps) + 59, 2):
                report = nut_check_spectral(CirculantSpec(n, jumps))
                assert (report.total_nullity, report.singular_divisors) == (1, (2,)), (d, n)
            if d <= 40:  # and the direct kernel at the least order
                spec = CirculantSpec(2 * max(jumps) + 2, jumps)
                assert nut_check_direct(build_circulant(spec)).is_nut, d

    def test_a_failing_set_is_singular_at_its_index(self):
        # the converse: every set the search rejects below d = 40 has a
        # factor Phi_b, b >= 3, and C_n(S) is singular at b once b | n
        for d in range(12, 40, 4):
            for jumps in proven_jump_sets(d):
                if passes_circulant_rule(jumps):
                    break
                p = add(*({s: 1, -s: 1} for s in jumps))
                b = next(b for b in candidate_divisor_indices(2 * max(jumps), 3)
                         if cyclotomic_divides(p, b))
                step = math.lcm(2, b)
                n = step * (2 * max(jumps) // step + 1)
                assert b in nut_check_spectral(CirculantSpec(n, jumps)).singular_divisors

    def test_degree_four(self):
        # S = {a, a + 1} with a = (p - 1) / 2 gives x^(a+1) p_S =
        # (x + 1)(x^p + 1), singular only at b = 2 and b = 2p; with p the
        # least odd prime not dividing n, 2p does not divide n.  No single S
        # serves every n: C_n(1, 2) is singular at Phi_6 whenever 6 | n.
        odd_primes = [p for p in range(3, 50) if all(p % r for r in range(2, p))]
        for p in odd_primes:
            a = (p - 1) // 2
            p_s = {a: 1, -a: 1, a + 1: 1, -a - 1: 1}
            assert product({a + 1: 1}, p_s) == product({0: 1, 1: 1}, {0: 1, p: 1}), p
        for n in range(8, 401, 2):
            p = next(p for p in odd_primes if n % p)
            report = nut_check_spectral(CirculantSpec(n, {(p - 1) // 2, (p + 1) // 2}))
            assert (report.total_nullity, report.singular_divisors) == (1, (2,)), n
        assert not passes_circulant_rule({1, 2})
        assert 6 in nut_check_spectral(CirculantSpec(12, {1, 2})).singular_divisors


class TestSporadic:
    def test_twelve_six(self):
        spec, shift, recipe = catalog_witness(12, 6)
        g = built(spec, shift)
        assert g.order == 12 and is_regular(g) == 6
        assert "dihedral(m=6" in recipe

    def test_moebius_slot(self):
        spec, shift, recipe = catalog_witness(16, 12)
        g = built(spec, shift)
        assert g == complement(moebius_ladder(16))
        assert is_regular(g) == 12
        assert recipe == "complement(circulant(n=16, jumps=[1, 8]))  # Moebius ladder"

    def test_lcf_slot(self):
        # (20, 16) once took an LCF complement ahead of the prism rule.
        spec, shift, recipe = catalog_witness(20, 16)
        g = built(spec, shift)
        assert g == complement(prism(10))
        assert recipe == ("complement(dihedral(m=10, rotations=[1, 9], reflections=[0]))"
                          "  # prism")
        assert constructions._certify(spec, shift, recipe, 20, 16).certificate.is_nut

    def test_every_catalog_recipe_names_a_cayley_graph(self):
        # Every recipe of the catalog and the dihedral families names a
        # circulant, a dihedral Cayley graph or the complement of one, and
        # rebuilding that spec gives the returned graph.
        pattern = re.compile(
            r"(complement\()?(?:circulant\(n=(\d+), jumps=(\[[\d, ]*\])\)"
            r"|dihedral\(m=(\d+), rotations=(\[[\d, ]*\]), reflections=(\[[\d, ]*\])\))")
        checked = 0
        for d in range(0, 41):
            for n in range(1, 121):
                if not feasible_vt(n, d).exists:
                    continue
                found = catalog_witness(n, d)
                if found is None:
                    continue
                spec, shift, recipe = found
                g = built(spec, shift)
                assert "lcf" not in recipe.lower(), (n, d, recipe)
                match = pattern.search(recipe)
                assert match, (n, d, recipe)
                wrapped, cn, jumps, m, rot, refl = match.groups()
                if cn:
                    base = build_circulant(CirculantSpec(int(cn), json.loads(jumps)))
                else:
                    base = build_bicirculant(DihedralSpec(int(m), json.loads(rot),
                                                          json.loads(refl)))
                assert (complement(base) if wrapped else base) == g, (n, d, recipe)
                checked += 1
        assert checked > 200

    def test_prism_slot(self):
        spec, shift, recipe = catalog_witness(12, 8)
        g = built(spec, shift)
        assert g == complement(prism(6))
        assert "prism" in recipe

    def test_absent(self):
        # (16, 6), outside the sporadic table, falls to the degree-(8t+6)
        # family.  The search's pairs and the infeasible ones, out-of-range
        # ones included, give None; every rule that fits names a graph of
        # the pair's order and degree.
        assert catalog_witness(14, 8) is None
        assert catalog_witness(24, 8) is None
        assert catalog_witness(16, 6)[2].startswith("degree-(8t+6) family")
        for d in range(-2, 41):
            for n in range(-4, 121):
                found = catalog_witness(n, d)
                if found is None:
                    assert n < 1 or d < 0 or d % 4 == 0 or not feasible_vt(n, d).exists, (n, d)
                else:
                    g = built(*found[:2])
                    assert (g.order, is_regular(g)) == (n, d), (n, d)


class TestConstruct:
    def test_direct_family_pair(self):
        w = construct(16, 6)
        assert w.graph.order == 16
        assert is_regular(w.graph) == 6
        assert w.certificate.is_nut
        assert "degree-(8t+6)" in w.recipe

    def test_complement_family_pair(self):
        w = construct(20, 14)
        assert (w.graph.order, is_regular(w.graph)) == (20, 14)
        assert "complement" in w.recipe

    def test_prism_complement_pair(self):
        w = construct(12, 8)
        assert w.graph == complement(prism(6))
        assert w.certificate.is_nut

    def test_infeasible_raises(self):
        with pytest.raises(InfeasiblePairError):
            construct(14, 6)
        with pytest.raises(InfeasiblePairError):
            construct(9, 4)

    def test_search_pairs(self):
        w = construct(14, 8)  # circulant regime
        assert (w.graph.order, is_regular(w.graph)) == (14, 8)
        w = construct(16, 8)  # sporadic: circulants do not cover this pair
        assert "sporadic" in w.recipe

    def test_spectral_agreement_of_family_witnesses(self):
        # Direct families: the only singular block divisor is 2 (shift 0);
        # complement families: the base graph is singular only at 1 (shift 1).
        # Spanned over the whole order range of the acceptance sweep.
        for t in range(0, 4):
            for m in range(4 * t + 8, 4 * t + 40, 2):
                rep = nut_check_spectral(direct_family_spec(8 * t + 6, m), 0)
                assert rep.singular_divisors == (2,) and rep.total_nullity == 1
        for t in range(0, 3):
            for m in range(4 * t + 14, 4 * t + 44, 2):
                rep = nut_check_spectral(direct_family_spec(8 * t + 10, m), 0)
                assert rep.singular_divisors == (2,) and rep.total_nullity == 1
        for gap, d_min in ((6, 14), (10, 22), (14, 26)):
            for d in range(d_min, 47, 4):
                rep = nut_check_spectral(complement_family_spec(d, gap), 1)
                assert rep.singular_divisors == (1,) and rep.total_nullity == 1


class TestSearch:
    def test_finds_first_lexicographic(self):
        w = circulant_search(8, 4)
        assert w is not None
        assert "jumps=[1, 2]" in w.recipe

    def test_absent_for_non_multiple_of_four(self):
        assert circulant_search(12, 6) is None

    def test_order_ten(self):
        w = circulant_search(10, 4)
        assert w is not None and "jumps=[1, 2]" in w.recipe

    def test_budget_respected(self, monkeypatch):
        monkeypatch.setattr(constructions, "DEFAULT_SEARCH_BUDGET", 0)
        with pytest.raises(SearchExhaustedError, match="exceeds the budget of 0"):
            circulant_search(8, 4)

    def test_construct_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(constructions, "DEFAULT_SEARCH_BUDGET", 0)
        with pytest.raises(SearchExhaustedError):
            construct(14, 8)

    def test_budget_counts_screened_out_candidates(self, monkeypatch):
        # [1, 2, 6, 7] is the 22nd jump set enumerated at (24, 8); the 21
        # before it never reach the direct kernel but still count.
        monkeypatch.setattr(constructions, "DEFAULT_SEARCH_BUDGET", 21)
        with pytest.raises(SearchExhaustedError, match="budget of 21"):
            circulant_search(24, 8)
        monkeypatch.setattr(constructions, "DEFAULT_SEARCH_BUDGET", 22)
        w = circulant_search(24, 8)
        assert w.recipe == "circulant(n=24, jumps=[1, 2, 6, 7])"

    def test_matches_the_search_before_the_witness_stream(self):
        # The old search took the first DEFAULT_SEARCH_BUDGET jump sets and
        # screened them; the capped stream must give the same witness, or
        # none, at every pair, feasible or not.
        hits = 0
        for n in range(3, 25):
            for d in range(n):
                new = circulant_search(n, d)
                old = circulant_search_by_islice(n, d, constructions.DEFAULT_SEARCH_BUDGET)
                assert (new is None) == (old is None), (n, d)
                if new is not None:
                    assert (new.recipe, new.graph, new.certificate) == \
                        (old.recipe, old.graph, old.certificate), (n, d)
                    hits += 1
        assert hits > 0

    def test_screen_kernel_disagreement_raises(self, monkeypatch):
        # A walk forged to claim nullity one for every candidate.  The
        # 8-cycle, of nullity 2, is still refused by its missing +-1
        # character, before any walk.  C_12(1, 2, 3, 4), the first jump set
        # at (12, 8), has the alternating character and nullity 3, so it
        # passes the forged screen and the direct kernel refuses it.
        walked = forge_divisor_walk(monkeypatch, 1)
        cycle = CirculantSpec(8, {1})
        assert screen(cycle) is None
        assert walked == []
        with pytest.raises(RuntimeError, match="direct kernel disagrees"):
            circulant_search(12, 8)
        assert walked == [(CirculantSpec(12, {1, 2, 3, 4}), 0)]

    def test_direct_kernel_disagreement_raises(self, monkeypatch):
        def wrong_vector(g):
            return NutCertificate(1, (1,) * g.order)

        monkeypatch.setattr(constructions, "nut_check_direct", wrong_vector)
        with pytest.raises(RuntimeError, match="direct kernel disagrees"):
            circulant_search(8, 4)


# -- the search before the spectral screen, kept as a test-only oracle ----------

def _kernel_witnesses(specs):
    """Witness for every spec the direct kernel certifies, one kernel per
    candidate: how the searches and the census ran before the screen."""
    for spec in specs:
        g = build(spec)
        cert = nut_check_direct(g)
        if cert.is_nut:
            yield Witness(g, spec.describe(), cert)


def _kernel_construct(n, d):
    return (next(_kernel_witnesses(candidate_specs("circulant", n, d)), None)
            or next(_kernel_witnesses(candidate_specs("dihedral", n, d)), None))


class TestDihedralCandidates:
    def test_stream_matches_orbit_generator(self):
        # Rotation sets drawn as jump sets of Z_m give the same stream, in the
        # same order, as unions of the rotation orbits {a, m - a}; odd orders
        # and orders below 6, where m < 3 makes no DihedralSpec, give none.
        for n in range(1, 27):
            for d in range(n + 1):
                new = ((spec.rotations, spec.reflections)
                       for spec in candidate_specs("dihedral", n, d))
                old = dihedral_candidates_by_orbits(n, d) if n >= 6 else ()
                assert all(a == b for a, b in zip_longest(new, old)), (n, d)


class TestIndexTupleStream:
    def test_specs_and_minima_match_the_spec_stream(self):
        # The index tuples, built by _spec, give the specs of the stream the
        # search and the census read before, in the same order, and the
        # tuple orbit filter keeps the same minima as the filter on specs.
        for family in ("circulant", "dihedral"):
            for n in range(1, 21):
                for d in range(n + 1):
                    sets = list(constructions._candidates(family, n, d))
                    specs = [constructions._spec(family, n, s) for s in sets]
                    assert specs == list(candidate_specs_before_tuples(family, n, d))
                    assert ([constructions._orbit_minimal(family, n, s) for s in sets]
                            == [orbit_minimal_spec(spec) for spec in specs]), (family, n, d)


class TestScreenMatchesKernelSearch:
    def test_construct_search_pairs(self):
        # Every search pair of the construct benchmark workload.
        pairs = [(n, d) for d in range(4, 41, 4) for n in range(d + 6, 41, 2)
                 if (n, d) not in ((16, 8), (20, 16))]
        assert len(pairs) == 71
        for n, d in pairs:
            assert catalog_witness(n, d) is None
            assert construct(n, d) == _kernel_construct(n, d), (n, d)

    @pytest.mark.parametrize("family,n,d", [("dihedral", 14, 8), ("circulant", 24, 8)])
    def test_census_no_dedup(self, family, n, d):
        oracle = list(_kernel_witnesses(candidate_specs(family, n, d)))
        assert oracle and census(family, n, d, dedup=False) == oracle


# -- the branch-and-bound labeling before refinement, kept as a test-only oracle --

def brute_canonical_form(g):
    """Lexicographically minimal sequence of column codes over all vertex
    orderings, found by exhaustive branch-and-bound.

    The code of position k is the adjacency bit pattern of the k-th placed
    vertex against positions 0..k-1 (earlier position = higher bit).  A
    partial ordering is abandoned as soon as its code sequence exceeds the
    best complete sequence found.
    """
    n = g.order
    rows = g.adjacency_rows()
    best = None
    perm = []
    cols = []
    used = 0

    def rec(k):
        nonlocal best, used
        if k == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        cand = []
        for v in range(n):
            if used >> v & 1:
                continue
            code = 0
            rv = rows[v]
            for u in perm:
                code = code << 1 | (rv >> u & 1)
            cand.append((code, v))
        cand.sort()
        for code, v in cand:
            if best is not None:
                tight = all(cols[i] == best[i] for i in range(k))
                if tight and code > best[k]:
                    break  # codes ascend: every later candidate is worse
            perm.append(v)
            cols.append(code)
            used |= 1 << v
            rec(k + 1)
            perm.pop()
            cols.pop()
            used &= ~(1 << v)

    rec(0)
    return (n, *best)


# The dedup censuses of the census benchmark workload, with their class counts.
DEDUP_CENSUS_CASES = (
    ("dihedral", 14, 8, 3),
    ("circulant", 18, 8, 6),
    ("circulant", 8, 4, 1),
    ("circulant", 10, 4, 1),
    ("circulant", 12, 4, 2),
    ("dihedral", 8, 4, 1),
    ("dihedral", 10, 4, 1),
    ("dihedral", 12, 6, 1),
    ("dihedral", 12, 8, 1),
)


@pytest.fixture(scope="module")
def census_witnesses():
    """Every --no-dedup witness of each dedup census case, in candidate order."""
    return {(family, n, d): [w.graph for w in census(family, n, d, dedup=False)]
            for family, n, d, _ in DEDUP_CENSUS_CASES}


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def swap_edges(g, rng, rounds):
    """g after random double-edge swaps, each of which keeps every degree."""
    edges = set(g.edges())
    for _ in range(rounds if len(edges) > 1 else 0):
        (u, v), (x, y) = rng.sample(sorted(edges), 2)
        swapped = {(min(u, y), max(u, y)), (min(v, x), max(v, x))}
        if len({u, v, x, y}) == 4 and not swapped & edges:
            edges = edges - {(u, v), (x, y)} | swapped
    return Graph.from_edges(g.order, edges)


class TestCanonicalMatchesBruteForce:
    def test_census_witnesses(self, census_witnesses):
        graphs = [g for ws in census_witnesses.values() for g in ws]
        assert len(graphs) == 152
        brute = {g: brute_canonical_form(g) for g in graphs}
        forms = [canonical_form(g) for g in graphs]
        keys = [brute[g] for g in graphs]
        assert len(set(forms)) == len(set(keys)) == len(set(zip(forms, keys)))
        # The census keeps the first witness of each class in candidate order.
        for family, n, d, classes in DEDUP_CENSUS_CASES:
            firsts = {}
            for g in census_witnesses[family, n, d]:
                firsts.setdefault(brute[g], g)
            kept = [w.graph for w in census(family, n, d)]
            assert len(kept) == classes, (family, n, d)
            assert kept == list(firsts.values()), (family, n, d)

    def test_random_pairs_sharing_degree_sequence(self):
        # Pairs of three kinds: a relabelled copy, a copy after random
        # degree-preserving edge swaps, and two 4-regular circulants of one
        # order (isomorphic or not depending on the jump sets).
        rng = random.Random(113)
        pairs = []
        for _ in range(60):
            n = rng.randint(2, 12)
            p = rng.choice((0.3, 0.5))
            a = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append((a, relabel(a, perm)))
            b = swap_edges(a, rng, 3 * a.edge_count())
            assert sorted(a.degrees()) == sorted(b.degrees())
            pairs.append((a, b))
        for _ in range(60):
            n = rng.randint(7, 12)
            pool = range(1, (n + 1) // 2)
            pairs.append(tuple(build_circulant(CirculantSpec(n, set(rng.sample(pool, 2))))
                               for _ in range(2)))
        outcomes = set()
        for a, b in pairs:
            same = brute_canonical_form(a) == brute_canonical_form(b)
            assert (canonical_form(a) == canonical_form(b)) == same
            outcomes.add(same)
        assert outcomes == {True, False}

    def test_counts_graphs_on_up_to_five_vertices(self):
        # Unlabelled graphs on 1..5 vertices: OEIS A000088.
        counts = []
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            counts.append(len({canonical_form(Graph.from_edges(
                n, [e for k, e in enumerate(pairs) if mask >> k & 1]))
                for mask in range(1 << len(pairs))}))
        assert counts == [1, 2, 4, 11, 34]


class TestCanonicalAndCensus:
    def test_relabel_invariance(self, census_witnesses):
        rng = random.Random(107)
        graphs = [build_circulant(CirculantSpec(8, {1, 2})), petersen(),
                  census_witnesses["dihedral", 14, 8][0],
                  census_witnesses["circulant", 18, 8][-1]]
        graphs += [w.graph for w in census("circulant", 32, 8)]
        for n in range(1, 7):
            graphs += [Graph.from_edges(n, combinations(range(n), 2)), Graph(n, [0] * n)]
        # A 4-cycle and two triangles.
        graphs.append(Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 6), (6, 8),
                                            (4, 8), (5, 7), (7, 9), (5, 9)]))
        for g in graphs:
            for _ in range(10):
                perm = list(range(g.order))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_distinguishes_nonisomorphic(self):
        a = build_circulant(CirculantSpec(8, {1, 2}))
        b = build_circulant(CirculantSpec(8, {1, 3}))
        assert canonical_form(a) != canonical_form(b)

    def test_matches_exhaustive_minimum_on_small_graphs(self):
        # Independent oracle: minimize the column-code sequence over every
        # permutation explicitly.
        from itertools import permutations

        def brute_minimum(g):
            n = g.order
            rows = g.adjacency_rows()
            best = None
            for perm in permutations(range(n)):
                cols = []
                for k in range(n):
                    code = 0
                    for u in perm[:k]:
                        code = code << 1 | rows[u] >> perm[k] & 1
                    cols.append(code)
                if best is None or cols < best:
                    best = cols
            return (n, *best)

        rng = random.Random(109)
        for _ in range(25):
            n = rng.randint(1, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            assert brute_canonical_form(g) == brute_minimum(g)

    def test_census_unique_classes(self):
        assert len(census("circulant", 8, 4)) == 1
        assert len(census("circulant", 10, 4)) == 1

    def test_census_no_dedup_counts_specs(self):
        with_dup = census("circulant", 8, 4, dedup=False)
        assert len(with_dup) >= 1
        assert all(w.certificate.is_nut for w in with_dup)

    def test_census_dihedral_twelve_six(self):
        classes = census("dihedral", 12, 6)
        assert len(classes) == 1

    def test_census_dihedral_contains_prism_complement(self):
        classes = census("dihedral", 12, 8)
        target = canonical_form(complement(prism(6)))
        assert len(classes) >= 1
        assert any(canonical_form(w.graph) == target for w in classes)

    def test_census_representatives_recertify(self):
        for w in census("dihedral", 12, 6) + census("circulant", 10, 4):
            fresh = nut_check_direct(w.graph)
            assert fresh.is_nut and fresh.nullity == 1

    def test_ten_regular_pair_isomorphic(self):
        # The 10-regular order-16 dihedral graph and the complement of the
        # order-16 dihedral graph on {r^4, rs, r^5 s, r^6 s, r^7 s} are two
        # descriptions of one graph; compare complements (sparser, faster).
        a = build_bicirculant(DihedralSpec(8, {1, 2, 3, 5, 6, 7}, {0, 2, 3, 4}))
        b = complement(build_bicirculant(DihedralSpec(8, {4}, {1, 5, 6, 7})))
        assert nut_check_direct(a).is_nut and nut_check_direct(b).is_nut
        assert canonical_form(complement(a)) == canonical_form(complement(b))


@pytest.fixture(scope="module")
def labeled_witnesses():
    """The witness graphs of the benchmark's census requests and of the
    dedup censuses dihedral 32 8, circulant 32 8 and circulant 40 8: every
    witness of a --no-dedup request, and of a dedup census the witnesses
    among the orbit minima, which it labels."""
    cases = list(CENSUS_CASES) + [("dihedral", 32, 8, True), ("circulant", 32, 8, True),
                                  ("circulant", 40, 8, True)]
    return {(family, n, d, dedup): [w.graph for w in constructions._witnesses(
                family, n, d, None, "minima" if dedup else "shared")]
            for family, n, d, dedup in cases}


class TestSeededLabeling:
    def test_translations_are_automorphisms(self, labeled_witnesses):
        # The translation by 1 of Z_n, and by r and by s of D_m: each maps
        # the rows of every witness onto the rows of its image vertices.
        checked = 0
        for (family, n, _, _), graphs in labeled_witnesses.items():
            maps = constructions._translations(n)
            generators = maps[:1] if family == "circulant" else maps[1:]
            assert len(generators) == (1 if family == "circulant" else 2)
            for g in graphs:
                rows = g.adjacency_rows()
                for p in generators:
                    permuted = [sum(1 << p[v] for v in g.neighbors(u)) for u in range(n)]
                    assert [rows[p[u]] for u in range(n)] == permuted, (family, n)
                    checked += 1
        assert checked == 1262

    def test_seeded_forms_equal_unseeded(self, monkeypatch, labeled_witnesses):
        # The forms with the translations as known automorphisms equal those
        # without them, which the search finds with more refinements.
        graphs = [g for ws in labeled_witnesses.values() for g in ws]
        refinements = []
        refine = constructions._refine
        monkeypatch.setattr(constructions, "_refine",
                            lambda *args: refinements.append(1) or refine(*args))
        seeded = [canonical_form(g) for g in graphs]
        seeded_refinements = len(refinements)
        monkeypatch.setattr(constructions, "_translations", lambda n: ())
        refinements.clear()
        assert [canonical_form(g) for g in graphs] == seeded
        assert seeded_refinements < len(refinements)

    def test_non_automorphisms_are_not_seeded(self, monkeypatch, labeled_witnesses):
        # After one double-edge swap, some translation of each witness is no
        # longer an automorphism; the forms still equal the unseeded ones.
        rng = random.Random(127)
        graphs = [swap_edges(g, rng, 1) for ws in labeled_witnesses.values() for g in ws[:4]]
        seeded = [canonical_form(g) for g in graphs]
        monkeypatch.setattr(constructions, "_translations", lambda n: ())
        assert [canonical_form(g) for g in graphs] == seeded


# -- census over automorphism orbits ---------------------------------------------

def order_key(spec):
    """Position of a spec in the candidate stream: the sorted jumps, or the
    number of rotation orbits, their representatives and the reflections."""
    if isinstance(spec, CirculantSpec):
        return tuple(sorted(spec.jumps))
    reps = sorted({min(a, spec.m - a) for a in spec.rotations})
    return (len(reps), tuple(reps), tuple(sorted(spec.reflections)))


def automorphic_images(spec):
    """The spec under every automorphism of Z_n (multipliers) or of D_m
    (r -> r^a, s -> r^c s)."""
    if isinstance(spec, CirculantSpec):
        n = spec.n
        return [CirculantSpec(n, {min(a * j % n, n - a * j % n) for j in spec.jumps})
                for a in range(1, n) if math.gcd(a, n) == 1]
    m = spec.m
    return [DihedralSpec(m, {a * r % m for r in spec.rotations},
                         {(a * b + c) % m for b in spec.reflections})
            for a in range(1, m) if math.gcd(a, m) == 1 for c in range(m)]


class TestOrbitPruning:
    @pytest.mark.parametrize("family,n", [("circulant", n) for n in range(3, 17)]
                             + [("dihedral", n) for n in range(6, 17, 2)])
    def test_candidate_order_and_closure(self, family, n):
        for d in range(n):
            specs = list(candidate_specs(family, n, d))
            keys = [order_key(spec) for spec in specs]
            assert all(a < b for a, b in zip(keys, keys[1:])), (family, n, d)
            stream = set(specs)
            minima = []
            for spec, key in zip(specs, keys):
                images = automorphic_images(spec)
                assert stream.issuperset(images), spec
                if key == min(map(order_key, images)):
                    minima.append(spec)
            assert list(candidate_specs(family, n, d, minima=True)) == minima, (family, n, d)

    def test_odd_degree_circulants_covered(self):
        for n, d in ((10, 3), (12, 5)):
            specs = list(candidate_specs("circulant", n, d))
            assert specs and all(n // 2 in spec.jumps for spec in specs)
            assert 1 < len(list(candidate_specs("circulant", n, d, minima=True))) < len(specs)

    @pytest.mark.parametrize("family,n,d,classes", [
        ("dihedral", 16, 6, 3), ("dihedral", 18, 8, 11), ("dihedral", 20, 6, 14),
        ("circulant", 20, 8, 4), ("circulant", 28, 8, 20), ("circulant", 32, 8, 9),
        ("circulant", 40, 8, 40), ("dihedral", 14, 8, 3)])
    def test_dedup_census_matches_full_enumeration(self, family, n, d, classes):
        firsts = {}
        for w in census_by_every_walk(family, n, d):
            firsts.setdefault(canonical_form(w.graph), w)
        expected = [(to_graph6(w.graph), w.recipe) for w in firsts.values()]
        kept = census(family, n, d)
        assert [(to_graph6(w.graph), w.recipe) for w in kept] == expected
        assert len(kept) == classes

    @pytest.mark.parametrize("family,n,d,representatives,classes", [
        ("circulant", 32, 8, 12, 9), ("dihedral", 20, 6, 18, 14)])
    def test_labeling_merges_orbits(self, family, n, d, representatives, classes):
        # Isomorphic Cayley graphs whose connection sets no automorphism maps
        # onto each other: the orbits alone would overcount the classes.
        minima = candidate_specs(family, n, d, minima=True)
        assert sum(1 for w in map(screen, minima) if w) == representatives
        assert len(census(family, n, d)) == classes

    def test_budget_counts_pruned_candidates(self):
        assert len(list(candidate_specs("dihedral", 14, 8))) == 147
        assert len(list(candidate_specs("dihedral", 14, 8, minima=True))) < 146
        with pytest.raises(SearchExhaustedError, match="budget of 146"):
            census("dihedral", 14, 8, budget=146)
        assert len(census("dihedral", 14, 8, budget=147)) == 3

    def test_specs_built_for_orbit_minima_only(self, monkeypatch):
        # dihedral 14 8 enumerates 147 connection sets, of which 6 are
        # orbit minima: a deduplicated census builds a spec for those 6.
        built = []
        spec = constructions._spec
        monkeypatch.setattr(constructions, "_spec",
                            lambda *args: built.append(spec(*args)) or built[-1])
        assert len(census("dihedral", 14, 8)) == 3
        assert len(built) == 6
        assert built == list(candidate_specs("dihedral", 14, 8, minima=True))


def recorded_walks(monkeypatch):
    """Route ``_certify``'s divisor walk through a recorder of the specs
    walked."""
    walked = []
    real = constructions.divisor_walk
    monkeypatch.setattr(constructions, "divisor_walk",
                        lambda spec, shift: walked.append(spec) or real(spec, shift))
    return walked


def recorded_divisors(monkeypatch):
    """Route the divisor walk's divides_cyclotomic through a recorder of
    the indices b it is asked about."""
    asked = []
    real = verify.divides_cyclotomic
    monkeypatch.setattr(verify, "divides_cyclotomic",
                        lambda terms, b: asked.append(b) or real(terms, b))
    return asked


class TestScreen:
    #: The (family, n, d) of the benchmark's census requests; every one lies
    #: within the orders the differential test below screens in full.
    BENCHMARK_CENSUS = (("dihedral", 14, 8), ("circulant", 18, 8), ("circulant", 24, 8),
                        ("circulant", 8, 4), ("circulant", 10, 4), ("circulant", 12, 4),
                        ("dihedral", 8, 4), ("dihedral", 10, 4), ("dihedral", 12, 6),
                        ("dihedral", 12, 8))

    def test_matches_the_full_nullity_screen(self):
        # Every candidate of circulant orders 3..24 and dihedral orders
        # 6..16, at every degree: the character test and the early stop
        # give the witness, or None, of the full spectral nullity.
        orders = {"circulant": range(3, 25), "dihedral": range(6, 17, 2)}
        assert all(n in orders[family] for family, n, _ in self.BENCHMARK_CENSUS)
        screened = witnesses = 0
        for family, family_orders in orders.items():
            for n in family_orders:
                for d in range(n):
                    for spec in candidate_specs(family, n, d):
                        w = screen(spec)
                        assert w == screen_by_full_nullity(spec), spec
                        screened += 1
                        witnesses += w is not None
        assert (screened, witnesses) == (18122, 1062)

    def test_no_dedup_census_matches_every_walk(self):
        # One walk per automorphism orbit gives the witnesses of walking
        # every connection set, on the grid above and two larger censuses.
        cases = [(family, n, d) for family, family_orders in
                 (("circulant", range(3, 25)), ("dihedral", range(6, 17, 2)))
                 for n in family_orders for d in range(n)]
        cases += [("dihedral", 20, 6), ("circulant", 30, 8)]
        witnesses = 0
        for family, n, d in cases:
            expected = census_by_every_walk(family, n, d)
            assert census(family, n, d, dedup=False) == expected, (family, n, d)
            witnesses += len(expected)
        assert witnesses == 1062 + 600 + 176

    @pytest.mark.parametrize("family,n,d,walks,every_walk", [
        ("dihedral", 14, 8, 4, 105), ("circulant", 24, 8, 51, 150)])
    def test_one_walk_per_orbit(self, monkeypatch, family, n, d, walks, every_walk):
        # The two --no-dedup censuses of the benchmark.
        walked = recorded_walks(monkeypatch)
        census_by_every_walk(family, n, d)
        assert len(walked) == every_walk
        walked.clear()
        census(family, n, d, dedup=False)
        assert len(walked) == walks

    def test_search_never_reaches_the_orbit_images(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("orbit images built")

        monkeypatch.setattr(constructions, "_orbit", refuse)
        assert catalog_witness(40, 8) is None
        assert construct(40, 8).graph.order == 40
        assert circulant_search(2000, 8) is not None
        with pytest.raises(AssertionError, match="orbit images built"):
            census("circulant", 24, 8, dedup=False)

    def test_no_character_means_no_cyclotomic_work(self, monkeypatch):
        # An odd cyclic order leaves only a = 1: eps(S) = |S| on Z_n, and
        # |R| +- |F| on D_m, which vanishes only when |R| = |F|.
        asked = recorded_divisors(monkeypatch)
        specs = [spec for n in (9, 15, 21) for d in range(1, n)
                 for spec in candidate_specs("circulant", n, d)]
        specs += [spec for n in (10, 14, 18) for d in range(1, n)
                  for spec in candidate_specs("dihedral", n, d)
                  if len(spec.rotations) != len(spec.reflections)]
        assert len(specs) > 1000
        assert not any(map(screen, specs))
        assert asked == []

    # b = 1 is read off the set sizes and never asks divides_cyclotomic, so
    # the asked divisors start at b = 2.
    @pytest.mark.parametrize("spec,walked", [
        # singular at b = 2, 4, 6 and 12: nullity 1 + 2, past one at b = 4
        (CirculantSpec(12, {1, 2, 4, 5}), [2, 3, 4]),
        # singular at b = 2, 3 and 6: nullity 1 + 2, past one at b = 3
        (DihedralSpec(6, {1, 5}, {0, 1, 2, 4}), [2, 3]),
    ])
    def test_walk_stops_past_nullity_one(self, monkeypatch, spec, walked):
        report = nut_check_spectral(spec)
        assert constructions._kernel_character(spec, 0) is not None
        assert report.total_nullity > 1
        assert report.singular_divisors[1] == walked[-1]
        asked = recorded_divisors(monkeypatch)
        assert screen(spec) is None
        assert sorted(set(asked)) == walked


class TestWitnessInvariant:
    def test_witness_requires_nut_certificate(self):
        g = build_circulant(CirculantSpec(4, {1}))
        cert = nut_check_direct(g)
        with pytest.raises(ValueError):
            Witness(g, "square", cert)
