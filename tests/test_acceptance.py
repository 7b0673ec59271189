"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact; every assertion is an integer or boolean identity.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they print.
"""

import math
import random
from itertools import combinations, permutations
from itertools import product as cartesian_product
from typing import NamedTuple

from nutforge.constructions import (
    catalog_witness,
    census,
    circulant_search,
    construct,
    feasible_vt,
)
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    build_bicirculant,
    build_circulant,
)
from nutforge.lemmas import (
    FAMILIES,
    FAMILY_TAGS,
    verify_family_bounded,
    verify_finite_case_analysis,
    verify_unique_remainder,
)
from nutforge.numtheory import divisors, euler_phi, factorize, prime_factors
from nutforge.verify import nut_check_direct, nut_check_spectral
from oracles import (
    build_lcf,
    candidate_specs,
    census_by_every_walk,
    complement,
    cyclotomic,
    is_regular,
    prism,
    product,
    scale_exponents,
    screen,
    sign_classes_split_evenly,
)


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({description}): {status}")
    assert not failures, f"criterion {number} failed: {failures[:10]}"


def test_criterion_1_feasibility_grid():
    import time

    start = time.perf_counter()
    failures = []
    for d in range(0, 41):
        for n in range(1, 121):
            expected = (d % 2 == 0 and d >= 4 and n % 2 == 0 and n >= d + 4
                        and not (d % 4 == 2 and (n % 4 or n < d + 6)))
            if feasible_vt(n, d).exists != expected:
                failures.append((n, d))
    # documented spot checks against the published census pattern
    for n, d, expected in ((8, 4, True), (14, 6, False), (12, 6, True),
                           (9, 4, False), (10, 4, True), (16, 10, True),
                           (18, 10, False)):
        if feasible_vt(n, d).exists != expected:
            failures.append(("spot", n, d))
    if time.perf_counter() - start >= 1.0:
        failures.append("grid exceeded the one-second budget")
    _report(1, "feasibility grid d<=40 n<=120", failures)


def test_criterion_2_constructive_sweep():
    failures = []
    for d in range(6, 31, 4):
        for n in range(d + 6, d + 47, 4):
            if not feasible_vt(n, d).exists:
                failures.append(("infeasible?", n, d))
                continue
            w = construct(n, d)
            cert = w.certificate
            ok = (cert.is_nut and cert.nullity == 1
                  and all(x != 0 for x in cert.kernel_vector)
                  and w.graph.order == n and is_regular(w.graph) == d)
            if not ok:
                failures.append((n, d))
    _report(2, "constructive sweep d=2 (mod 4), 6<=d<=30, d+6<=n<=d+46", failures)


def test_criterion_3_degree_divisible_by_four():
    failures = []
    for d in range(8, 41, 8):
        g = complement(prism((d + 4) // 2))
        cert = nut_check_direct(g)
        if not (cert.is_nut and g.order == d + 4 and is_regular(g) == d):
            failures.append(("prism", d))
    for d in (4, 12):
        for n in range(d + 4, 25, 2):
            w = circulant_search(n, d)
            if w is None or not w.certificate.is_nut or is_regular(w.graph) != d:
                failures.append(("circulant", n, d))
    _report(3, "prism complements 8|d<=40 and circulant search d in {4,12}", failures)


def _inversion_closed_subset(rng, m):
    s = set()
    for a in range(1, m // 2 + 1):
        if rng.random() < 0.35:
            s.add(a)
            s.add((m - a) % m)
    s.discard(0)
    return frozenset(s)


def _all_dihedral_specs(m):
    orbits = [(a, m - a) for a in range(1, (m + 1) // 2)]
    if m % 2 == 0:
        orbits.append((m // 2,))
    from itertools import combinations

    for k in range(len(orbits) + 1):
        for combo in combinations(range(len(orbits)), k):
            rot = frozenset(x for i in combo for x in orbits[i])
            for refl_mask in range(1 << m):
                refl = frozenset(b for b in range(m) if refl_mask >> b & 1)
                yield DihedralSpec(m, rot, refl)


def test_criterion_4_spectral_direct_equivalence():
    failures = []
    for m in range(3, 9):
        for spec in _all_dihedral_specs(m):
            g = build_bicirculant(spec)
            if nut_check_spectral(spec, 0).total_nullity != nut_check_direct(g).nullity:
                failures.append(("dihedral", spec, 0))
            if nut_check_spectral(spec, 1).total_nullity != nut_check_direct(g, 1).nullity:
                failures.append(("dihedral", spec, 1))
    rng = random.Random(20250810)
    for _ in range(500):
        m = rng.randint(3, 16)
        spec = BicirculantSpec(m, _inversion_closed_subset(rng, m),
                               frozenset(b for b in range(m) if rng.random() < 0.3),
                               _inversion_closed_subset(rng, m))
        g = build_bicirculant(spec)
        if nut_check_spectral(spec, 0).total_nullity != nut_check_direct(g).nullity:
            failures.append(("random", spec, 0))
        if nut_check_spectral(spec, 1).total_nullity != nut_check_direct(g, 1).nullity:
            failures.append(("random", spec, 1))
    _report(4, "spectral-direct equivalence, exhaustive m<=8 plus 500 random m<=16",
            failures)


def test_criterion_4_circulant_spectral_direct_equivalence():
    failures = []
    for n in range(5, 21):
        pool = range(1, n // 2 + 1)  # includes the jump n/2 for even n
        for k in range(len(pool) + 1):
            for jumps in combinations(pool, k):
                spec = CirculantSpec(n, jumps)
                g = build_circulant(spec)
                if nut_check_spectral(spec, 0).total_nullity != nut_check_direct(g).nullity:
                    failures.append((spec, 0))
                if nut_check_spectral(spec, 1).total_nullity != nut_check_direct(g, 1).nullity:
                    failures.append((spec, 1))
    _report(4, "circulant spectral-direct equivalence, every jump set, 5<=n<=20",
            failures)


def test_criterion_5_named_fixtures():
    failures = []

    def expect_nut(g, n, d, label):
        cert = nut_check_direct(g)
        if not (cert.is_nut and g.order == n and is_regular(g) == d):
            failures.append(label)

    expect_nut(build_circulant(CirculantSpec(8, {1, 2})), 8, 4, "4-regular order 8")
    expect_nut(build_circulant(CirculantSpec(10, {1, 2})), 10, 4, "4-regular order 10")
    expect_nut(build_bicirculant(DihedralSpec(6, {1, 3, 5}, {0, 2, 3})), 12, 6,
               "6-regular order 12")
    prism = build_bicirculant(DihedralSpec(6, {1, 5}, {0}))
    expect_nut(complement(prism), 12, 8, "8-regular order 12 (prism complement)")
    expect_nut(build_bicirculant(DihedralSpec(8, {1, 2, 3, 5, 6, 7}, {0, 2})), 16, 8,
               "8-regular order 16")
    for order in (16, 24, 32):
        g = complement(build_circulant(CirculantSpec(order, {1, order // 2})))
        expect_nut(g, order, order - 4, f"Moebius complement order {order}")
    expect_nut(complement(build_lcf(20, [5, -5])), 20, 16, "LCF complement")
    bic = build_bicirculant(BicirculantSpec(18, {1, 17}, {0, 2},
                                            {1, 2, 3, 15, 16, 17}))
    cert = nut_check_direct(bic)
    if not (cert.is_nut and cert.nullity == 1 and bic.order == 36
            and sorted(set(bic.degrees())) == [4, 8]):
        failures.append("order-36 bicirculant with degrees 4 and 8")
    _report(5, "named graph fixtures certify as stated", failures)


def test_criterion_6_lemma_suites():
    failures = []
    for tag in FAMILY_TAGS:
        rep = verify_family_bounded(tag, 20)
        if not rep.ok:
            failures.append(("bounded", tag, rep.violations[:3]))
    for tag in FAMILY_TAGS:
        rep = verify_finite_case_analysis(tag)
        if not rep.ok:
            failures.append(("case-analysis", tag, rep.violations[:3]))
    for tag in FAMILY_TAGS:
        threshold = FAMILIES[tag].unique_remainder_threshold
        rep = verify_unique_remainder(tag, (threshold, 300))
        if not rep.ok or rep.notes:
            failures.append(("unique-remainder", tag))
    # the Q threshold is sharp: beta = 5 fails at t = 0
    below = verify_unique_remainder("Q", (5, 5))
    if not below.notes or "t in [0" not in below.notes[0]:
        failures.append(("unique-remainder-sharpness", "Q"))
    _report(6, "family non-divisibility, case analyses, unique remainders", failures)


def test_criterion_7_cyclotomic_identities():
    failures = []
    for n in range(1, 201):
        if product(*map(cyclotomic, divisors(n))) != {n: 1, 0: -1}:
            failures.append(("product", n))
        if max(cyclotomic(n)) != euler_phi(n):
            failures.append(("degree", n))
        for p, e in factorize(n):
            if e >= 2 and cyclotomic(n) != scale_exponents(cyclotomic(n // p), p):
                failures.append(("prime-square", n, p))
        rad = math.prod(prime_factors(n))
        if cyclotomic(n) != scale_exponents(cyclotomic(rad), n // rad):
            failures.append(("radical-scaling", n))
    _report(7, "cyclotomic identities for n <= 200", failures)


def test_criterion_8_census_uniqueness():
    failures = []
    for n in (8, 10):
        classes = list(census("circulant", n, 4))
        if len(classes) != 1:
            failures.append((n, 4, len(classes)))
    _report(8, "census uniqueness at (circulant, 8, 4) and (circulant, 10, 4)",
            failures)


def test_criterion_9_tables_out_of_scope():
    # The published order/degree count tables require an external census of
    # all vertex-transitive graphs up to order 46 and are deliberately not
    # reproduced; criteria 1-8 and 10-14 stand in as the property-based gate.  This
    # placeholder documents the exclusion so the suite states it explicitly.
    _report(9, "full count tables excluded by design", [])


def test_criterion_10_degree_divisible_by_four_grid():
    failures = []
    pairs = [(n, d) for d in range(4, 41, 4) for n in range(d + 6, 121, 2)]
    for n, d in pairs:
        w = construct(n, d)
        if not (w.certificate.is_nut and w.graph.order == n
                and is_regular(w.graph) == d):
            failures.append((n, d))
        if nut_check_direct(w.graph) != w.certificate:
            failures.append(("direct kernel", n, d))
        # outside the catalog every witness comes from the circulant search
        if catalog_witness(n, d) is None and not w.recipe.startswith("circulant("):
            failures.append(("recipe", n, d, w.recipe))
    _report(10, f"certified witness for all {len(pairs)} pairs 4|d<=40, d+6<=n<=120, "
                "searched ones circulant, certificate equal to the direct kernel's",
            failures)


def test_criterion_11_degree_two_mod_four_grid():
    failures = []
    pairs = [(n, d) for d in range(6, 41, 4) for n in range(d + 6, 121, 4)]
    for n, d in pairs:
        if not feasible_vt(n, d).exists:
            failures.append(("infeasible?", n, d))
            continue
        w = construct(n, d)
        cert = w.certificate
        if not (cert.is_nut and cert.nullity == 1
                and all(x != 0 for x in cert.kernel_vector)
                and w.graph.order == n and is_regular(w.graph) == d):
            failures.append((n, d))
        if nut_check_direct(w.graph) != cert:
            failures.append(("direct kernel", n, d))
    _report(11, f"certified witness for all {len(pairs)} pairs d=2 (mod 4), 6<=d<=40, "
                "4|n, d+6<=n<=120, certificate equal to the direct kernel's", failures)


def test_criterion_12_census_certificates_match_direct_kernel():
    # The two --no-dedup censuses of the benchmark, each set walked on its
    # own (the census gives the same witnesses, TestScreen): every
    # witness's character certificate is the vector the exact kernel
    # returns.
    failures = []
    counts = []
    for family, n, d in (("dihedral", 14, 8), ("circulant", 24, 8)):
        witnesses = census_by_every_walk(family, n, d)
        counts.append(len(witnesses))
        for w in witnesses:
            if nut_check_direct(w.graph) != w.certificate:
                failures.append(w.recipe)
    if counts != [84, 12]:
        failures.append(("witness counts", counts))
    _report(12, "no-dedup census certificates at (dihedral, 14, 8) and "
                "(circulant, 24, 8) equal the direct kernel's", failures)


def test_criterion_13_cayley_existence_matches_feasibility():
    """For every n <= 28 and 0 <= d < n, a nut graph exists among the Cayley
    graphs on Z_n and D_{n/2} exactly when ``feasible_vt(n, d).exists``.

    The gate covers Cayley graphs on cyclic and dihedral groups only, not
    other groups of order n nor vertex-transitive graphs that are not
    Cayley graphs.  Automorphisms of the group keep the graph up to
    isomorphism, so the orbit minima stand for every connection set.  A
    feasible pair stops at its first witness; an infeasible one screens all
    its minima, and ``_certify``, which raises on a nut graph whose (n, d)
    breaks the existence law, must never raise there.  Each witness found
    also shows the consequences of the law's proof: the + class of its
    kernel vector has n/2 vertices and induces a (d/2)-regular graph.
    """
    failures = []
    for n in range(1, 29):
        for d in range(n):
            minima = (spec for family in ("circulant", "dihedral")
                      for spec in candidate_specs(family, n, d, minima=True))
            try:
                witness = next(filter(None, map(screen, minima)), None)
            except RuntimeError as err:
                failures.append((n, d, str(err)))
                continue
            if (witness is not None) != feasible_vt(n, d).exists:
                failures.append((n, d, witness is not None))
            elif witness and not sign_classes_split_evenly(witness):
                failures.append((n, d, witness.recipe, "sign classes"))
    _report(13, "a Cayley nut graph on Z_n or D_(n/2) exists exactly at the "
                "feasible pairs with n <= 28", failures)


# -- the groups of order <= 12 that are neither cyclic nor dihedral --------------

def _group_table(elements: list, mul) -> list[list[int]]:
    """The multiplication table of ``elements`` under ``mul`` as rows of
    indices, the identity first; checked to be a group."""
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    n = len(table)
    assert table[0] == list(range(n)) and [row[0] for row in table] == list(range(n))
    assert all(0 in row for row in table)
    assert all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))
    return table


def _abelian(*orders: int) -> list[list[int]]:
    """Z_(k1) x Z_(k2) x ..., added componentwise."""
    return _group_table(list(cartesian_product(*map(range, orders))),
                        lambda x, y: tuple((a + b) % k for a, b, k in zip(x, y, orders)))


def _metacyclic(q: int, dicyclic: bool) -> list[list[int]]:
    """D_q, or the dicyclic group Dic_q of order 4q (Q_8 at q = 2): the
    words a^k x^e with x a x^-1 = a^-1, where x^2 = 1 and a^q = 1 on D_q,
    and x^2 = a^q with a^2q = 1 on Dic_q."""
    cyclic = 2 * q if dicyclic else q

    def mul(u, v):
        (k, e), (l, f) = u, v
        k = k - l if e else k + l
        if e and f:
            return ((k + q) % cyclic, 0) if dicyclic else (k % cyclic, 0)
        return k % cyclic, e ^ f

    return _group_table([(k, e) for e in (0, 1) for k in range(cyclic)], mul)


def _alternating_4() -> list[list[int]]:
    """A_4: the even permutations of four points, composed."""
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0]
    return _group_table(even, lambda p, r: tuple(p[r[i]] for i in range(4)))


def _order_counts(table: list[list[int]]) -> tuple:
    """The number of elements of each order, an isomorphism invariant."""
    counts: dict[int, int] = {}
    for x in range(len(table)):
        k, y = 1, x
        while y:
            k, y = k + 1, table[y][x]
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


#: The groups of order <= 12 that are neither cyclic nor dihedral.
OTHER_SMALL_GROUPS = {
    "Z2^2": _abelian(2, 2), "Z2^3": _abelian(2, 2, 2), "Z2xZ4": _abelian(2, 4),
    "Q8": _metacyclic(2, True), "Z3^2": _abelian(3, 3), "Z2xZ6": _abelian(2, 6),
    "A4": _alternating_4(), "Dic3": _metacyclic(3, True),
}


class GroupWitness(NamedTuple):
    """A nut graph on a group of ``OTHER_SMALL_GROUPS``, with the fields of
    a ``Witness`` that ``sign_classes_split_evenly`` reads; a ``Witness``
    holds a spec on Z_n or D_m, which these graphs have not."""

    graph: Graph
    recipe: str
    certificate: object


def test_criterion_14_small_groups_beyond_cyclic_and_dihedral():
    """No Cayley graph on a group of order <= 12 other than Z_n and D_m is a
    nut graph at a pair that ``feasible_vt`` rejects.

    With Z_n and D_m (m >= 3), the groups of ``OTHER_SMALL_GROUPS`` are
    pairwise non-isomorphic, by their counts of elements of each order, and
    as many at each order as there are groups: 1, 1, 1, 2, 1, 2, 1, 5, 2,
    2, 1, 5 for orders 1 to 12.  Orders 13 to 15 have only cyclic and
    dihedral groups, so with criterion 13 every Cayley graph of order <= 15
    is covered.  Every inverse-closed connection set of each group, at most
    2^7 and 520 in all, is decided by the direct kernel, and every nut graph
    found must also split into sign classes as the law's proof says.  There
    are 18, six each on Z_2 x Z_6 at (12, 4) and (12, 8) and on Dic_3 at
    (12, 4).
    """
    failures = []
    for order, groups in enumerate((1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5), 1):
        tables = [_abelian(order)] + ([_metacyclic(order // 2, False)]
                                      if order % 2 == 0 and order >= 6 else [])
        tables += [t for t in OTHER_SMALL_GROUPS.values() if len(t) == order]
        if len({_order_counts(t) for t in tables}) != len(tables) or len(tables) != groups:
            failures.append((order, [_order_counts(t) for t in tables]))
    sets = nuts = 0
    for name, table in OTHER_SMALL_GROUPS.items():
        n = len(table)
        inverse = [row.index(0) for row in table]
        classes = sorted({frozenset((x, inverse[x])) for x in range(1, n)}, key=min)
        for k in range(len(classes) + 1):
            for chosen in combinations(classes, k):
                connection = frozenset().union(*chosen)
                g = Graph(n, tuple(sum(1 << table[x][s] for s in connection)
                                   for x in range(n)))
                sets += 1
                cert = nut_check_direct(g)
                if not cert.is_nut:
                    continue
                nuts += 1
                w = GroupWitness(g, f"Cay({name}, {sorted(connection)})", cert)
                if not feasible_vt(n, len(connection)).exists:
                    failures.append((w.recipe, "breaks the existence law"))
                elif not sign_classes_split_evenly(w):
                    failures.append((w.recipe, "sign classes"))
    if (sets, nuts) != (520, 18):
        failures.append(("sets and nut graphs", sets, nuts))
    _report(14, "no Cayley nut graph on another group of order <= 12 lies at a "
                "pair the existence law rejects", failures)
