"""Feasibility decision and certified witness construction.

A d-regular vertex-transitive (equivalently Cayley) nut graph of order n
exists iff

* d is even with d >= 4 and n is even with n >= d + 4, and
* additionally 4 | n and n >= d + 6 when d = 2 (mod 4).

``construct`` returns a certified witness for every feasible pair: the
first rule of ``catalog_witness`` that fits, each rule a parameterized
circulant or dihedral-group construction, tried in order:

* a finite table of sporadic dihedral Cayley graphs for a few small pairs,
* the Moebius-ladder and prism complements for order d + 4,
* two direct families, one table, covering degrees 6 (mod 8) and 2 (mod 8)
  once the order is large enough relative to the degree,
* three complement families, one table of base graphs, covering the
  remaining orders d + 6, d + 10 and d + 14 for large enough degree.

A deterministic bounded search over circulant connection sets covers the
degrees divisible by four beyond order d + 4.

``census`` lists the nut graphs of a family at (n, d), one witness per
isomorphism class: candidates come in a fixed order, and a witness is kept
unless an earlier one has the same ``canonical_form``, an exact labeling by
colour refinement and individualization, pruned by the automorphisms the
search meets.  Cay(G, S) and Cay(G, a(S)) are isomorphic for every
automorphism a of G, so the census screens only the connection sets that
are the minimum of their orbit (``_orbit_minimal``); the first candidate of
a class is the minimum of its own orbit, so the kept witnesses are the
same.  Labeling still runs on every survivor: isomorphic Cayley graphs need
not have connection sets in one orbit (circulant 32 8 has 12 orbit minima
in 9 classes).

Every witness, whichever construction produced it, passes one gate,
``_certify``, which reads every fact from the witness's spec and shift.
The witnesses are Cayley graphs, so a spectral nullity of one already
makes them nut graphs, with a +-1 character eps of the group as the kernel
vector.  The gate first asks for such a character, eps(S) = 0, without
which the nullity cannot be one, before any polynomial work; the
cyclotomic nullity of ``verify`` then screens the rest one divisor at a
time, until it passes one, and only the specs that end at exactly one are
built.  A nut graph must then have the requested order and degree and obey
the existence law of ``feasible_vt``.  Search and census candidates come
from one stream, ``_candidates``, and reach the gate through ``_screen``.
No witness runs an O(n^3) kernel, except that a search hit is also checked
against the direct kernel.  The outputs are certificates, not citations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from math import gcd

from .graphs import (
    CirculantSpec,
    DihedralSpec,
    Graph,
    build,
    complement,
)
from .verify import NutCertificate, divisor_walk, nut_check_direct

#: Candidate cap of a search given no explicit budget.  No order up to 24
#: has more than 462 jump sets, so there the search is exhaustive.
DEFAULT_SEARCH_BUDGET = 200_000

class InfeasiblePairError(ValueError):
    """Requested (order, degree) pair admits no vertex-transitive nut graph."""


class SearchExhaustedError(RuntimeError):
    """Bounded search ended without a certified witness."""


@dataclass(frozen=True)
class FeasibilityVerdict:
    exists: bool
    case: str  # "odd-or-small" | "d-div-4" | "d-2-mod-4"
    reason: str


@dataclass(frozen=True)
class Witness:
    """A concrete graph together with its construction recipe and exact
    nut certificate."""

    graph: Graph
    recipe: str
    certificate: NutCertificate

    def __post_init__(self):
        if not self.certificate.is_nut:
            raise ValueError("witness certificate must certify the nut property")


def feasible_vt(n: int, d: int) -> FeasibilityVerdict:
    """Decide whether a d-regular vertex-transitive nut graph of order n exists."""
    if n < 1 or d < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    if d % 2 == 1 or d < 4:
        return FeasibilityVerdict(
            False, "odd-or-small",
            f"degree {d} is odd or below 4; no nut graph is regular of such degree "
            "in the vertex-transitive setting")
    if d % 4 == 0:
        if n % 2 == 0 and n >= d + 4:
            return FeasibilityVerdict(True, "d-div-4",
                                      f"degree {d} divisible by 4: every even order "
                                      f">= {d + 4} is attainable")
        return FeasibilityVerdict(False, "d-div-4",
                                  f"degree {d} divisible by 4 needs an even order "
                                  f">= {d + 4}, got {n}")
    if n % 4 == 0 and n >= d + 6:
        return FeasibilityVerdict(True, "d-2-mod-4",
                                  f"degree {d} = 2 (mod 4): every order divisible "
                                  f"by 4 and >= {d + 6} is attainable")
    return FeasibilityVerdict(False, "d-2-mod-4",
                              f"degree {d} = 2 (mod 4) needs 4 | n and n >= {d + 6}, "
                              f"got {n}")


# -- parameterized dihedral families -------------------------------------------

def _rotation_band(t: int, m: int) -> set[int]:
    """Inverse-closed rotation set {+-1, ..., +-(2t + 1)} modulo m."""
    rot = set()
    for j in range(1, 2 * t + 2):
        rot.add(j)
        rot.add(m - j)
    return rot


#: Direct families, d = 2 (mod 4) with d >= 6 and t = (d - 6) // 8, so that
#: d = 8t + 6 or d = 8t + 10: d mod 8 -> (least m minus 4t, fixed
#: reflections, start of the reflection run) of the Cayley graph on D_m with
#: rotations +-1..+-(2t + 1); the run fills the degree up to d.
_DIRECT_FAMILIES: dict[int, tuple[int, tuple[int, ...], int]] = {
    6: (8, (0, 1, 4, 6), 8),
    2: (14, (0, 1, 2, 5, 7, 9, 10), 13),
}


def direct_family_spec(d: int, m: int) -> DihedralSpec:
    """Degree-d dihedral connection set on 2m vertices, for d = 2 (mod 4)
    with d >= 6 and even m at least the family's least m (4t + 8 for
    d = 8t + 6, 4t + 14 for d = 8t + 10): rotation band +-1..+-(2t + 1),
    the fixed reflections of ``_DIRECT_FAMILIES`` and a run of consecutive
    reflections from the row's start."""
    if d % 8 not in _DIRECT_FAMILIES or d < 6:
        raise ValueError(f"need d >= 6 with d = 2 (mod 4), got {d}")
    least, fixed, start = _DIRECT_FAMILIES[d % 8]
    t = (d - 6) // 8
    if m % 2 or m < 4 * t + least:
        raise ValueError(f"need even m >= {4 * t + least}, got {m}")
    run = d - (4 * t + 2) - len(fixed)
    return DihedralSpec(m, _rotation_band(t, m), {*fixed, *range(start, start + run)})


#: Order-(d + gap) complement families, d = 2 (mod 4): gap -> (least degree,
#: rotation exponents, reflections) of the base graph on D_m, m = (d + gap) / 2,
#: whose rotations are +- each exponent.
_COMPLEMENT_FAMILIES: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {
    6: (14, (2,), (0, 8, 9)),
    10: (22, (2, 4), (0, 2, 6, 7, 15)),
    14: (26, (2, 4, 7), (0, 2, 6, 7, 14, 17, 19)),
}


def complement_family_spec(d: int, gap: int) -> DihedralSpec:
    """Base graph whose complement is d-regular of order d + gap, for a gap
    of ``_COMPLEMENT_FAMILIES`` (6, 10 or 14) and d = 2 (mod 4) at least the
    gap's least degree (14, 22 or 26)."""
    if gap not in _COMPLEMENT_FAMILIES:
        raise ValueError(f"no complement family of gap {gap}; "
                         f"expected one of {tuple(_COMPLEMENT_FAMILIES)}")
    d_min, exponents, refl = _COMPLEMENT_FAMILIES[gap]
    if d < d_min or d % 4 != 2:
        raise ValueError(f"need d >= {d_min} with d = 2 (mod 4), got {d}")
    m = (d + gap) // 2
    return DihedralSpec(m, {r % m for e in exponents for r in (e, -e)}, refl)


# -- the witness catalog --------------------------------------------------------

_SPORADIC_DIHEDRAL: dict[tuple[int, int], tuple[int, frozenset, frozenset]] = {
    (12, 6): (6, frozenset({1, 3, 5}), frozenset({0, 2, 3})),
    (16, 8): (8, frozenset({1, 2, 3, 5, 6, 7}), frozenset({0, 2})),
    (16, 10): (8, frozenset({1, 2, 3, 5, 6, 7}), frozenset({0, 2, 3, 4})),
    (20, 10): (10, frozenset({1, 2, 3, 7, 8, 9}), frozenset({0, 2, 3, 4})),
    (24, 10): (12, frozenset({1, 2, 3, 9, 10, 11}), frozenset({0, 2, 3, 4})),
    (28, 18): (14, frozenset({1, 2, 3, 4, 5, 9, 10, 11, 12, 13}),
               frozenset({0, 2, 3, 4, 5, 6, 7, 8})),
    (32, 18): (16, frozenset({1, 2, 3, 4, 5, 11, 12, 13, 14, 15}),
               frozenset({0, 2, 3, 4, 5, 6, 7, 8})),
}


def catalog_witness(n: int, d: int):
    """(spec, shift, recipe) of the first catalog rule that fits (n, d), or
    None when none does.  Shift 1 means the witness is the complement of the
    spec's graph, so every recipe names a circulant, a dihedral Cayley graph
    or the complement of one.  The rules, in order:

    1. the sporadic table;
    2. order d + 4: the Moebius ladder's complement when d = 4 (mod 8), the
       prism's when 8 | d;
    3. d = 2 (mod 4) with 4 | n: the direct family of the degree, 8t + 6 or
       8t + 10, once the order is large enough;
    4. d = 2 (mod 4): the complement family of the gap n - d.
    """
    entry = _SPORADIC_DIHEDRAL.get((n, d))
    if entry is not None:
        spec = DihedralSpec(*entry)
        return spec, 0, f"sporadic {spec.describe()}"
    if n == d + 4 and d % 8 == 4:
        spec = CirculantSpec(n, {1, n // 2})
        return spec, 1, f"complement({spec.describe()})  # Moebius ladder"
    if n == d + 4 and d % 8 == 0 and d >= 8:
        m = n // 2
        spec = DihedralSpec(m, {1, m - 1}, {0})
        return spec, 1, f"complement({spec.describe()})  # prism"
    if d % 4 != 2 or d < 6 or n % 4:
        return None
    m = n // 2
    t = (d - 6) // 8  # d = 8t + 6 or d = 8t + 10
    if m >= 4 * t + _DIRECT_FAMILIES[d % 8][0]:
        spec = direct_family_spec(d, m)
        return spec, 0, f"degree-(8t+{d - 8 * t}) family, t={t}: {spec.describe()}"
    gap = n - d
    if gap in _COMPLEMENT_FAMILIES and d >= _COMPLEMENT_FAMILIES[gap][0]:
        spec = complement_family_spec(d, gap)
        return spec, 1, f"order-(d+{gap}) complement family: complement({spec.describe()})"
    return None


def _kernel_character(spec: CirculantSpec | DihedralSpec, shift: int):
    """The first +-1 character (a, b) of Z_n or D_m that is a kernel vector
    of the spec's graph, complemented when shift is 1, or None: the rule of
    ``_certify``, read from the connection set alone."""
    if isinstance(spec, CirculantSpec):
        cyclic, signs = spec.n, (1,)
        rotations, reflections = spec.connection, ()
    else:
        cyclic, signs = spec.m, (1, -1)
        rotations, reflections = spec.rotations, spec.reflections
    for a in (1, -1) if cyclic % 2 == 0 else (1,):
        for b in signs:
            value = sum(a ** j for j in rotations) + b * sum(a ** j for j in reflections)
            if shift:
                value = (spec.order if a == b == 1 else 0) - 1 - value
            if value == 0:
                return a, b
    return None


def _certify(spec: CirculantSpec | DihedralSpec, shift: int, recipe: str, n: int,
             d: int) -> Witness | None:
    """The witness built from spec, complemented when shift is 1, or None
    when its spectral nullity is not exactly one: the one nut gate of every
    catalog, search and census witness.  A nut graph that is not d-regular
    of order n, or whose (n, d) breaks ``feasible_vt``, is a construction
    error.  Every check reads the spec and the shift alone; the graph is
    built only for the witness.

    The witness is a Cayley graph Cay(G, S) of G = Z_n or D_m, and every
    left translation is an automorphism, so it maps a kernel vector spanning
    a one-dimensional kernel to +-itself: v(g) = eps(g) v(e) for a
    homomorphism eps: G -> {+-1}.  It takes r^j to a^j and r^-j s (and
    r^j s) to b a^j, with a, b = +-1, b = 1 on Z_n and a = -1 only for an
    even cyclic order.  As (A eps)(g) = sum over s in S of eps(gs) =
    eps(S) eps(g), eps is a kernel vector iff eps(S) = 0.  The complement
    J - I - A has J eps = eps(G) 1, with eps(G) = |G| for the trivial
    character and 0 otherwise, so there the condition is
    eps(G) - 1 - eps(S) = 0, exact also for a complete complement.  So a
    spec without such a character (``_kernel_character``) has a nullity
    other than one, and is rejected before any cyclotomic work.  In the
    terms of ``divisor_walk``, which adds phi(b) times the multiplicity of
    each divisor b: a nullity of one comes from a single singular block at
    a divisor with phi(b) = 1, b = 1 or b = 2, the zeta = +-1 blocks.  On
    Z_n that block is the number eps(S) for the character eps(r^j) =
    zeta^j; on D_m it is [[p0, p1], [p1, p0]] at zeta, real since
    zeta = 1/zeta, with eigenvalues p0 +- p1, the values eps(S) of the two
    characters with a = zeta (each plus one at shift 1).

    The walk resolves A + I of the spec's graph at shift 1, whose -1
    multiplicity is the complement's nullity once the complement is
    d-regular with d >= 1 (a complete spec graph has -1 multiplicity
    |G| - 1).  With a character, eps is a kernel vector of the walked
    matrix, so the nullity is at least one, and the gate stops at the first
    divisor that takes the running total above one; a spec that passes has
    walked every divisor at nullity exactly one.  The order is |G| and the
    degree |S|, or |G| - 1 - |S| at shift 1.  A kernel vector without zero
    entries in a kernel of dimension one makes a nut graph, and eps, with
    eps(e) = 1, is the primitive kernel vector with a positive first entry
    that an exact kernel computation returns.
    """
    character = _kernel_character(spec, shift)
    if character is None:
        return None
    nullity = 0
    for verdict in divisor_walk(spec, shift):
        nullity += verdict.nullity
        if nullity > 1:
            return None
    degree = spec.order - 1 - spec.degree if shift else spec.degree
    if (spec.order, degree) != (n, d):
        raise RuntimeError(f"construction has wrong shape for ({n}, {d}): {recipe}")
    if not feasible_vt(n, d).exists:
        raise RuntimeError(f"witness parameters ({n}, {d}) break the existence law: {recipe}")
    g = build(spec)
    a, b = character  # vertex m + j of D_m is r^-j s, and b = 1 on Z_n
    vector = tuple(a ** v * (b if 2 * v >= n else 1) for v in range(n))
    return Witness(complement(g) if shift else g, recipe, NutCertificate(1, vector))


def _screen(spec: CirculantSpec | DihedralSpec) -> Witness | None:
    """``_certify`` for a search or census candidate (top level, so a pool can
    pickle it)."""
    return _certify(spec, 0, spec.describe(), spec.order, spec.degree)


def construct(n: int, d: int, budget: int | None = None) -> Witness:
    """A certified d-regular nut-graph witness of order n.

    Dispatch: the first rule of ``catalog_witness`` that fits, else the
    circulant search, which covers the remaining degrees divisible by 4.
    Every witness passes ``_certify``.  Raises InfeasiblePairError on
    infeasible input and SearchExhaustedError when the search ends empty;
    never returns an unverified graph.
    """
    verdict = feasible_vt(n, d)
    if not verdict.exists:
        raise InfeasiblePairError(verdict.reason)
    found = catalog_witness(n, d)
    if found is not None:
        w = _certify(*found, n, d)
        if w is None:
            raise RuntimeError(f"{found[2]} at ({n}, {d}) is not a nut graph")
        return w
    w = circulant_search(n, d, budget)
    if w is None:
        raise SearchExhaustedError(f"no witness found within bounds for ({n}, {d})")
    return w


# -- bounded searches -----------------------------------------------------------

def _circulant_candidates(n: int, d: int):
    """Jump sets giving degree d at order n >= 3 (a ``CirculantSpec``'s least
    order), ascending lexicographically; none below it."""
    if n < 3 or d < 0 or d > n - 1 or (d % 2 and n % 2):
        return
    if d % 2:  # even n: the jump n/2 gives the odd degree
        for combo in combinations(range(1, n // 2), d // 2):
            yield frozenset(combo) | {n // 2}
    else:
        for combo in combinations(range(1, (n + 1) // 2), d // 2):
            yield frozenset(combo)


def circulant_search(n: int, d: int, budget: int | None = None) -> Witness | None:
    """First screened circulant nut witness at (n, d), or None.

    Jump sets come in lexicographic order from ``_candidates``; the budget
    (DEFAULT_SEARCH_BUDGET when None) caps the candidates enumerated,
    screened-out ones included.  The hit is also run through the direct
    kernel, which must return its certificate: no lemma backs a searched
    witness for every order, so the search keeps an independent check.
    """
    if n < 3:
        raise ValueError("circulant order must be >= 3")
    cap = DEFAULT_SEARCH_BUDGET if budget is None else budget
    w = next(filter(None, map(_screen, islice(_candidates("circulant", n, d), cap))), None)
    if w is not None and nut_check_direct(w.graph) != w.certificate:
        raise RuntimeError(f"the direct kernel disagrees with the certificate of {w.recipe}")
    return w


def _dihedral_candidates(n: int, d: int):
    """Dihedral (rotation set, reflection set) pairs giving degree d at order
    n = 2m: rotation sets {+-j mod m} over jump sets of Z_m by size, then
    lexicographically, each with its reflection sets in lexicographic order;
    none for odd n or m < 3 (a ``DihedralSpec``'s least m)."""
    if n % 2 or n < 6:
        return
    m = n // 2
    for k in range(m // 2 + 1):
        for jumps in combinations(range(1, m // 2 + 1), k):
            rot = frozenset(c for j in jumps for c in (j, m - j))
            refl_size = d - len(rot)
            if refl_size < 0 or refl_size > m:
                continue
            for refl in combinations(range(m), refl_size):
                yield rot, frozenset(refl)


def _candidates(family: str, n: int, d: int):
    """Connection-set specs of the family with order n and degree d, in the
    deterministic order of the search and the census."""
    if family == "circulant":
        return (CirculantSpec(n, jumps) for jumps in _circulant_candidates(n, d))
    if family == "dihedral":
        return (DihedralSpec(n // 2, rot, refl) for rot, refl in _dihedral_candidates(n, d))
    raise ValueError(f"unknown census family: {family}")


@cache
def _units(n: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, n) if gcd(a, n) == 1)


def _orbit_minimal(spec: CirculantSpec | DihedralSpec) -> bool:
    """True when no image of the spec under the automorphisms of its group
    comes before it in the order of ``_candidates``; False at the first
    image that does.

    That order is the sorted jump tuple on Z_n, and on D_m the number of
    jumps min(a, m - a) of the rotation set, then the sorted jumps, then
    the sorted reflections.  Aut(Z_n) is the phi(n) multipliers a,
    which take a jump j to min(aj, n - aj) mod n.  Aut(D_m), m >= 3, is the
    m phi(m) affine maps, which take a rotation R to aR and a reflection J
    to aJ + c (mod m).  The maps keep the degree and the number of rotation
    jumps, so every image is a candidate of the same stream.
    """
    if isinstance(spec, CirculantSpec):
        n = spec.n
        jumps = sorted(spec.jumps)
        return not any(sorted(min(a * j % n, -a * j % n) for j in jumps) < jumps
                       for a in _units(n))
    m = spec.m
    reps = sorted(a for a in spec.rotations if 2 * a <= m)
    refl = sorted(spec.reflections)
    if refl and refl[0]:
        return False  # the translation by -refl[0] puts 0 among the reflections
    for a in _units(m):
        image = sorted(min(a * r % m, -a * r % m) for r in reps)
        if image < reps:
            return False
        if image == reps:
            # Only an image holding the reflection 0 can sort before refl, and
            # it comes from a translation c = -x for some x in a * refl.
            scaled = [a * b % m for b in refl]
            if any(sorted((b - x) % m for b in scaled) < refl for x in scaled):
                return False
    return True


# -- canonical labeling and census ----------------------------------------------

def _refine(rows, cells, active):
    """Equitable refinement of the ordered partition ``cells``.

    ``cells`` is a list of vertex lists and ``active`` the set of positions
    of the cells still to split by.  Each round takes the splitter at the
    lowest active position and splits every cell by the number of neighbours
    its vertices have in the splitter, putting the fragments in place of the
    cell in ascending order of that count; every fragment becomes active.
    Only positions and counts steer the rounds, so relabelling the graph
    relabels the result the same way.
    """
    n = len(rows)
    while active and len(cells) < n:
        s = min(active)
        active.discard(s)
        mask = 0
        for v in cells[s]:
            mask |= 1 << v
        refined = []
        refined_active = set()
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                parts: dict[int, list[int]] = {}
                for v in cell:
                    parts.setdefault((rows[v] & mask).bit_count(), []).append(v)
                if len(parts) > 1:
                    for count in sorted(parts):
                        refined_active.add(len(refined))
                        refined.append(parts[count])
                    continue
            if i in active:
                refined_active.add(len(refined))
            refined.append(cell)
        cells, active = refined, refined_active
    return cells


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Isomorphism-invariant key ``(n, *certificate)``, after McKay and
    Piperno's individualization-refinement.

    The search tree starts from the equitable refinement of the unit
    partition.  At each node the first smallest non-singleton cell is the
    target; each of its vertices in turn is individualized (split off in
    front of its cell) and the partition refined again.  At a discrete
    partition, a leaf, the certificate is the tuple of adjacency rows
    relabelled by that vertex ordering (row k holds the new labels of the
    neighbours of the k-th vertex as bits), and the form is the minimum
    certificate over all leaves.  The tree depends only on the graph, not on
    its labels, so isomorphic graphs get equal forms; equal certificates
    are the same relabelled graph, so the form is a complete invariant.

    A leaf whose certificate equals the best one so far maps the best leaf's
    ordering onto its own: that map is an automorphism, and the search jumps
    back to where the two paths part, since the subtree it leaves is the
    image of one already explored.  A node skips every target vertex in the
    orbit of one it explored, under the automorphisms found so far that fix
    the node's individualized vertices; skipped subtrees repeat explored
    certificates, so the minimum stays exact.
    """
    n = g.order
    rows = g.adjacency_rows()
    neighbours = [g.neighbors(v) for v in range(n)]
    best_cert: tuple[int, ...] | None = None
    best_order: list[int] = []
    best_path: list[int] = []
    automorphisms: list[list[int]] = []

    def search(cells: list[list[int]], path: list[int]) -> int | None:
        """Explore a node; return the depth to jump back to, or None."""
        nonlocal best_cert, best_order, best_path
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = i
        if target is None:
            order = [cell[0] for cell in cells]
            bit = [0] * n
            for k, v in enumerate(order):
                bit[v] = 1 << k
            cert = tuple(sum(bit[u] for u in neighbours[v]) for v in order)
            if best_cert is None or cert < best_cert:
                best_cert, best_order, best_path = cert, order, path
                return None
            if cert != best_cert:
                return None
            gamma = [0] * n
            for u, v in zip(best_order, order):
                gamma[u] = v
            automorphisms.append(gamma)
            depth = 0
            while best_path[depth] == path[depth]:
                depth += 1
            return depth
        depth = len(path)
        cell = cells[target]
        orbit = list(range(n))  # union-find parents

        def root(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        absorbed = 0
        explored: list[int] = []
        for w in cell:
            for gamma in automorphisms[absorbed:]:
                if all(gamma[v] == v for v in path):
                    for u in cell:
                        orbit[root(u)] = root(gamma[u])
            absorbed = len(automorphisms)
            if any(root(w) == root(x) for x in explored):
                continue
            explored.append(w)
            child = cells[:target] + [[w], [u for u in cell if u != w]] + cells[target + 1:]
            jump = search(_refine(rows, child, {target}), path + [w])
            if jump is not None and jump < depth:
                return jump
        return None

    search(_refine(rows, [list(range(n))], {0}), [])
    return (n, *best_cert)


def _budgeted(tasks, budget: int, family: str, n: int, d: int):
    count = 0
    for task in tasks:
        count += 1
        if count > budget:
            raise SearchExhaustedError(
                f"census candidate count for ({family}, {n}, {d}) exceeds the "
                f"budget of {budget}")
        yield task


def census(family: str, n: int, d: int, dedup: bool = True,
           jobs: int = 1, budget: int | None = None) -> list[Witness]:
    """All nut graphs of the family at (n, d), one witness per isomorphism
    class (or one per connection set with dedup disabled).

    Candidates come from ``_candidates`` and pass through ``_screen``, as in
    the search.  With dedup only the minima of the automorphism orbits
    (``_orbit_minimal``) are screened: each class's first candidate is one,
    so the output is that of screening every candidate.  ``canonical_form``
    still labels every screened witness, since orbits alone do not decide
    isomorphism.  With jobs > 1 the screening is distributed over
    min(jobs, cpu count) worker processes and merged back in candidate order,
    so the output is independent of scheduling.  A budget caps the number of
    candidate connection sets enumerated, orbit non-minima included;
    exceeding it raises SearchExhaustedError rather than returning a
    silently truncated census.
    """
    tasks = _candidates(family, n, d)
    if budget is not None:
        tasks = _budgeted(tasks, budget, family, n, d)
    if dedup:
        tasks = filter(_orbit_minimal, tasks)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool

        pool = Pool(workers)
        results = pool.imap(_screen, tasks, chunksize=16)
    else:
        pool = None
        results = map(_screen, tasks)
    witnesses = []
    seen: set[tuple[int, ...]] = set()
    try:
        for w in filter(None, results):
            if dedup:
                key = canonical_form(w.graph)
                if key in seen:
                    continue
                seen.add(key)
            witnesses.append(w)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return witnesses
