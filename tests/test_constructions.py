"""Tests for feasibility, the construction catalog, searches, and the census."""

import json
import math
import re
import random
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
from nutforge.verify import NutCertificate, nut_check_direct, nut_check_spectral
from oracles import (
    dihedral_candidates_by_orbits,
    is_regular,
    kernel_character_by_rows,
    moebius_ladder,
    prism,
    relabel,
    screen_by_full_nullity,
    small_cayley_specs,
)


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

    def test_budget_respected(self):
        assert circulant_search(8, 4, budget=0) is None

    def test_construct_budget_exhaustion(self):
        with pytest.raises(SearchExhaustedError):
            construct(14, 8, budget=0)

    def test_budget_counts_screened_out_candidates(self):
        # [1, 2, 6, 7] is the 22nd jump set enumerated at (24, 8); the 21
        # before it never reach the direct kernel but still count.
        assert circulant_search(24, 8, budget=21) is None
        w = circulant_search(24, 8, budget=22)
        assert w.recipe == "circulant(n=24, jumps=[1, 2, 6, 7])"

    def test_screen_kernel_disagreement_raises(self, monkeypatch):
        # A walk forged to claim nullity one for every candidate.  The
        # 8-cycle, of nullity 2, is still refused by its missing +-1
        # character, before any walk.  C_12(1, 2, 3, 4), the first jump set
        # at (12, 8), has the alternating character and nullity 3, so it
        # passes the forged screen and the direct kernel refuses it.
        walked = forge_divisor_walk(monkeypatch, 1)
        cycle = CirculantSpec(8, {1})
        assert constructions._screen(cycle) is None
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


def _circulant_specs(n, d):
    return (CirculantSpec(n, jumps) for jumps in constructions._circulant_candidates(n, d))


def _dihedral_specs(n, d):
    return (DihedralSpec(n // 2, rot, refl)
            for rot, refl in constructions._dihedral_candidates(n, d))


def _kernel_construct(n, d):
    return (next(_kernel_witnesses(_circulant_specs(n, d)), None)
            or next(_kernel_witnesses(_dihedral_specs(n, d)), None))


class TestDihedralCandidates:
    def test_stream_matches_orbit_generator(self):
        # Rotation sets drawn as jump sets of Z_m give the same stream, in the
        # same order, as unions of the rotation orbits {a, m - a}; odd orders
        # and orders below 6, where m < 3 makes no DihedralSpec, give none.
        for n in range(1, 27):
            for d in range(n + 1):
                new = constructions._dihedral_candidates(n, d)
                old = dihedral_candidates_by_orbits(n, d) if n >= 6 else ()
                assert all(a == b for a, b in zip_longest(new, old)), (n, d)


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
        specs = _circulant_specs if family == "circulant" else _dihedral_specs
        oracle = list(_kernel_witnesses(specs(n, d)))
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

    def test_census_jobs_deterministic(self):
        a = census("circulant", 10, 4, jobs=1)
        b = census("circulant", 10, 4, jobs=2)
        assert [w.recipe for w in a] == [w.recipe for w in b]

    def test_ten_regular_pair_isomorphic(self):
        # The 10-regular order-16 dihedral graph and the complement of the
        # order-16 dihedral graph on {r^4, rs, r^5 s, r^6 s, r^7 s} are two
        # descriptions of one graph; compare complements (sparser, faster).
        a = build_bicirculant(DihedralSpec(8, {1, 2, 3, 5, 6, 7}, {0, 2, 3, 4}))
        b = complement(build_bicirculant(DihedralSpec(8, {4}, {1, 5, 6, 7})))
        assert nut_check_direct(a).is_nut and nut_check_direct(b).is_nut
        assert canonical_form(complement(a)) == canonical_form(complement(b))


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
            specs = list(constructions._candidates(family, n, d))
            keys = [order_key(spec) for spec in specs]
            assert all(a < b for a, b in zip(keys, keys[1:])), (family, n, d)
            stream = set(specs)
            for spec, key in zip(specs, keys):
                images = automorphic_images(spec)
                assert stream.issuperset(images), spec
                minimal = key == min(map(order_key, images))
                assert constructions._orbit_minimal(spec) == minimal, spec

    def test_odd_degree_circulants_covered(self):
        for n, d in ((10, 3), (12, 5)):
            specs = list(constructions._candidates("circulant", n, d))
            assert specs and all(n // 2 in spec.jumps for spec in specs)
            assert 1 < sum(map(constructions._orbit_minimal, specs)) < len(specs)

    @pytest.mark.parametrize("family,n,d,jobs", [
        ("dihedral", 16, 6, 1), ("dihedral", 18, 8, 1), ("dihedral", 20, 6, 1),
        ("circulant", 20, 8, 1), ("circulant", 28, 8, 1), ("circulant", 32, 8, 1),
        ("circulant", 40, 8, 1), ("dihedral", 14, 8, 2)])
    def test_dedup_census_matches_full_enumeration(self, family, n, d, jobs):
        firsts = {}
        for w in census(family, n, d, dedup=False):
            firsts.setdefault(canonical_form(w.graph), w)
        expected = [(to_graph6(w.graph), w.recipe) for w in firsts.values()]
        kept = census(family, n, d, jobs=jobs)
        assert [(to_graph6(w.graph), w.recipe) for w in kept] == expected

    @pytest.mark.parametrize("family,n,d,representatives,classes", [
        ("circulant", 32, 8, 12, 9), ("dihedral", 20, 6, 18, 14)])
    def test_labeling_merges_orbits(self, family, n, d, representatives, classes):
        # Isomorphic Cayley graphs whose connection sets no automorphism maps
        # onto each other: the orbits alone would overcount the classes.
        minima = filter(constructions._orbit_minimal, constructions._candidates(family, n, d))
        assert sum(1 for w in map(constructions._screen, minima) if w) == representatives
        assert len(census(family, n, d)) == classes

    def test_budget_counts_pruned_candidates(self):
        specs = list(constructions._candidates("dihedral", 14, 8))
        assert len(specs) == 147
        assert sum(map(constructions._orbit_minimal, specs)) < 146
        with pytest.raises(SearchExhaustedError, match="budget of 146"):
            census("dihedral", 14, 8, budget=146)
        assert len(census("dihedral", 14, 8, budget=147)) == 3


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
                    for spec in constructions._candidates(family, n, d):
                        w = constructions._screen(spec)
                        assert w == screen_by_full_nullity(spec), spec
                        screened += 1
                        witnesses += w is not None
        assert (screened, witnesses) == (18122, 1062)

    def test_no_character_means_no_cyclotomic_work(self, monkeypatch):
        # An odd cyclic order leaves only a = 1: eps(S) = |S| on Z_n, and
        # |R| +- |F| on D_m, which vanishes only when |R| = |F|.
        asked = recorded_divisors(monkeypatch)
        specs = [spec for n in (9, 15, 21) for d in range(1, n)
                 for spec in constructions._candidates("circulant", n, d)]
        specs += [spec for n in (10, 14, 18) for d in range(1, n)
                  for spec in constructions._candidates("dihedral", n, d)
                  if len(spec.rotations) != len(spec.reflections)]
        assert len(specs) > 1000
        assert not any(map(constructions._screen, specs))
        assert asked == []

    @pytest.mark.parametrize("spec,walked", [
        # singular at b = 2, 4, 6 and 12: nullity 1 + 2, past one at b = 4
        (CirculantSpec(12, {1, 2, 4, 5}), [1, 2, 3, 4]),
        # singular at b = 2, 3 and 6: nullity 1 + 2, past one at b = 3
        (DihedralSpec(6, {1, 5}, {0, 1, 2, 4}), [1, 2, 3]),
    ])
    def test_walk_stops_past_nullity_one(self, monkeypatch, spec, walked):
        report = nut_check_spectral(spec)
        assert constructions._kernel_character(spec, 0) is not None
        assert report.total_nullity > 1
        assert report.singular_divisors[1] == walked[-1]
        asked = recorded_divisors(monkeypatch)
        assert constructions._screen(spec) is None
        assert sorted(set(asked)) == walked


class TestWitnessInvariant:
    def test_witness_requires_nut_certificate(self):
        g = build_circulant(CirculantSpec(4, {1}))
        cert = nut_check_direct(g)
        with pytest.raises(ValueError):
            Witness(g, "square", cert)
