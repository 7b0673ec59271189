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

A complement rule hands over the complement's own Cayley spec
(``_complement``), and its recipe names the base.  A deterministic bounded
search over circulant connection sets covers the degrees divisible by four
beyond order d + 4.

``census`` lists the nut graphs of a family at (n, d), one witness per
isomorphism class, in one serial pass: candidates come in a fixed order,
and a witness is kept unless an earlier one has the same
``canonical_form``, an exact labeling by colour refinement and
individualization, pruned by the automorphisms the search meets and,
from the start, by the translations of the group, which are automorphisms
of every Cayley graph on it.  Cay(G, S) and Cay(G, a(S)) are isomorphic
for every automorphism a of G, so both census modes keep one record of
orbit images: the minimum of each orbit comes first in the stream, is
certified with its own divisor walk, and records its verdict under each of
its images (``_orbit``), which a later set pops.  With dedup the images are
skipped, so a spec is built for the minima alone; the first candidate of a
class is the minimum of its own orbit, so the kept witnesses are the same.
Labeling still runs on every survivor: isomorphic Cayley graphs need not
have connection sets in one orbit (circulant 32 8 has 12 orbit minima in 9
classes).  Without dedup every set of an orbit whose minimum passed is
certified with the minimum's walk, since isomorphic graphs have one
nullity.

Every witness, whichever construction produced it, passes one gate,
``_certify``, which reads every fact from the witness's spec.  The
witnesses are Cayley graphs, so a spectral nullity of one already makes
them nut graphs, with a +-1 character eps of the group as the kernel
vector.  The gate first asks for such a character, eps(S) = 0, without
which the nullity cannot be one, before any polynomial work; the
cyclotomic nullity of ``verify`` then screens the rest one divisor at a
time, until it passes one, and only the specs that end at exactly one are
described.  A nut graph must then have the requested order and degree and
obey the existence law of ``feasible_vt``.  A witness keeps its spec and
builds no graph: ``graphs.to_graph6`` writes the spec itself, and the graph
is built only when read, by census labeling, the search hit's direct-kernel
check and the adjacency-list and DOT outputs.  The search and the census
read one capped stream, ``_witnesses``: the index tuples of
``_candidates``, the orbit record for the census, ``_spec`` for each tuple
that goes on, and the gate; the search uses no orbit.  No witness runs an
O(n^3) kernel, except that a search hit is also checked against the direct
kernel.  The outputs are certificates, not citations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import gcd

from .graphs import CirculantSpec, DihedralSpec, Graph, build
from .verify import NutCertificate, divisor_walk, nut_check_direct

#: Candidate cap of the circulant search.  No order up to 24 has more than
#: 462 jump sets, so there the search is exhaustive.
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
    """A Cayley spec together with its construction recipe and exact nut
    certificate; ``graph`` builds the spec's graph each time it is read."""

    spec: CirculantSpec | DihedralSpec
    recipe: str
    certificate: NutCertificate

    def __post_init__(self):
        if not self.certificate.is_nut:
            raise ValueError("witness certificate must certify the nut property")

    @property
    def graph(self) -> Graph:
        return build(self.spec)


def feasible_vt(n: int, d: int) -> FeasibilityVerdict:
    """Decide whether a d-regular vertex-transitive nut graph of order n exists.

    The law: d is even and >= 4; n is even and >= d + 4 when 4 | d, and
    4 | n with n >= d + 6 when d = 2 (mod 4).  Its necessity holds for every
    vertex-transitive nut graph G of order n >= 2, degree d, adjacency A:
    1. The kernel is one-dimensional, so each automorphism maps a kernel
       vector v to +-v, and transitivity makes v = c * sigma with sigma
       +-1; sigma is not constant, or A sigma = d sigma = 0 forces d = 0,
       and an edgeless graph on n >= 2 vertices has nullity n.
    2. An automorphism taking a + vertex to a - vertex maps sigma to -sigma:
       the sign classes are swapped, each has n/2 vertices, and n is even.
    3. A sigma = 0 gives each vertex d/2 neighbours of each sign, so d is
       even and the + class induces a (d/2)-regular graph on n/2 vertices;
       if d/2 is odd, the handshake lemma makes n/2 even, so 4 | n.
    4. At d = 2, G is a union of equal cycles C_k, each of nullity 0 or 2
       (2 exactly when 4 | k), so d >= 4.
    5. n = d + 1 is K_n, of nullity 0; n = d + 2 is the cocktail-party graph
       C_n(1, ..., n/2 - 1), of nullity n/2 >= 3; n = d + 3 is odd.
    6. So 4 | d needs an even n >= d + 4, and for d = 2 (mod 4), 4 | n rules
       out d + 4, which is 2 (mod 4), so n >= d + 6.
    ``tests/test_constructions.py::TestExistenceLawProof`` gates steps 3 to
    5.  Sufficiency is the paper's theorem: ``construct`` certifies a
    witness at every pair the law accepts.
    """
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

#: Direct families, d = 2 (mod 4) with d >= 6 and t = (d - 6) // 8, so that
#: d = 8t + 6 or d = 8t + 10: d mod 8 -> (least m minus 4t, fixed
#: reflections, start of the reflection run) of the Cayley graph on D_m with
#: rotations +-1..+-(2t + 1); the run fills the degree up to d.  For every t
#: the block determinants times x^e (1 - x) are the lemma families R and T
#: (proved in ``tests/test_constructions.py::TestRecipeProofs``).
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
    rotations = {r % m for j in range(1, 2 * t + 2) for r in (j, -j)}
    return DihedralSpec(m, rotations, {*fixed, *range(start, start + run)})


#: Order-(d + gap) complement families, d = 2 (mod 4): gap -> (least degree,
#: rotation exponents, reflections) of the base graph on D_m, m = (d + gap) / 2,
#: whose rotations are +- each exponent.  That each complement is a nut graph
#: at every order is proved in ``tests/test_constructions.py::TestRecipeProofs``.
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


def _complement(spec: CirculantSpec | DihedralSpec) -> CirculantSpec | DihedralSpec:
    """The spec of the complement of the spec's graph.  The complement of
    Cay(G, S) is Cay(G, G - S - {e}): on Z_n the jumps [1, n/2] not in S, on
    D_m the rotations 1..m-1 and the reflections 0..m-1 not in S."""
    if isinstance(spec, CirculantSpec):
        return CirculantSpec(spec.n, set(range(1, spec.n // 2 + 1)) - spec.jumps)
    m = spec.m
    return DihedralSpec(m, set(range(1, m)) - spec.rotations, set(range(m)) - spec.reflections)


def catalog_witness(n: int, d: int):
    """(spec, recipe) of the first catalog rule that fits (n, d), or None
    when none does.  The spec is the witness's own Cayley spec: a complement
    rule passes its base through ``_complement``, and its recipe names the
    base, so every recipe names a circulant, a dihedral Cayley graph or the
    complement of one.  The rules, in order:

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
        return spec, f"sporadic {spec.describe()}"
    if n == d + 4 and d % 8 == 4:
        base = CirculantSpec(n, {1, n // 2})
        return _complement(base), f"complement({base.describe()})  # Moebius ladder"
    if n == d + 4 and d % 8 == 0 and d >= 8:
        m = n // 2
        base = DihedralSpec(m, {1, m - 1}, {0})
        return _complement(base), f"complement({base.describe()})  # prism"
    if d % 4 != 2 or d < 6 or n % 4:
        return None
    m = n // 2
    t = (d - 6) // 8  # d = 8t + 6 or d = 8t + 10
    if m >= 4 * t + _DIRECT_FAMILIES[d % 8][0]:
        spec = direct_family_spec(d, m)
        return spec, f"degree-(8t+{d - 8 * t}) family, t={t}: {spec.describe()}"
    gap = n - d
    if gap in _COMPLEMENT_FAMILIES and d >= _COMPLEMENT_FAMILIES[gap][0]:
        base = complement_family_spec(d, gap)
        return _complement(base), (f"order-(d+{gap}) complement family: "
                                   f"complement({base.describe()})")
    return None


def _kernel_character(spec: CirculantSpec | DihedralSpec):
    """The first +-1 character (a, b) of Z_n or D_m that is a kernel vector
    of the spec's graph, or None: the rule of ``_certify``, read from the
    connection set alone."""
    if isinstance(spec, CirculantSpec):
        cyclic, signs = spec.n, (1,)
        rotations, reflections = spec.connection, ()
    else:
        cyclic, signs = spec.m, (1, -1)
        rotations, reflections = spec.rotations, spec.reflections
    sums = [(1, len(rotations), len(reflections))]
    if cyclic % 2 == 0:  # a = -1 sends each odd exponent j to a^j = -1
        sums.append((-1, len(rotations) - 2 * sum(j & 1 for j in rotations),
                     len(reflections) - 2 * sum(j & 1 for j in reflections)))
    for a, rotation_sum, reflection_sum in sums:
        for b in signs:
            if rotation_sum + b * reflection_sum == 0:
                return a, b
    return None


def _certify(spec: CirculantSpec | DihedralSpec, recipe: str | None, n: int, d: int,
             nullity_one: bool = False) -> Witness | None:
    """The witness of spec, or None when its spectral nullity is not
    exactly one: the one nut gate of every catalog, search and census
    witness.  A nut graph that is not d-regular of order n, or whose (n, d)
    breaks ``feasible_vt``, is a construction error.  Every check reads the
    spec alone, and no graph is built; a recipe of None is replaced by
    ``spec.describe()`` only for a spec that passes the walk.

    The witness is a Cayley graph Cay(G, S) of G = Z_n or D_m, and every
    left translation is an automorphism, so it maps a kernel vector spanning
    a one-dimensional kernel to +-itself: v(g) = eps(g) v(e) for a
    homomorphism eps: G -> {+-1}.  It takes r^j to a^j and r^-j s (and
    r^j s) to b a^j, with a, b = +-1, b = 1 on Z_n and a = -1 only for an
    even cyclic order.  As (A eps)(g) = sum over s in S of eps(gs) =
    eps(S) eps(g), eps is a kernel vector iff eps(S) = 0.  So a spec without
    such a character (``_kernel_character``) has a nullity other than one,
    and is rejected before any cyclotomic work.  In the terms of
    ``divisor_walk``, which adds phi(b) times the multiplicity of each
    divisor b: a nullity of one comes from a single singular block at a
    divisor with phi(b) = 1, b = 1 or b = 2, the zeta = +-1 blocks.  On Z_n
    that block is the number eps(S) for the character eps(r^j) = zeta^j; on
    D_m it is [[p0, p1], [p1, p0]] at zeta, real since zeta = 1/zeta, with
    eigenvalues p0 +- p1, the values eps(S) of the two characters with
    a = zeta.

    With a character, eps is a kernel vector, so the nullity is at least
    one, and the gate stops at the first divisor that takes the running
    total above one; a spec that passes has walked every divisor at nullity
    exactly one.  The order is |G| and the degree |S|.  A kernel vector
    without zero entries in a kernel of dimension one makes a nut graph, and
    eps, with eps(e) = 1, is the primitive kernel vector with a positive
    first entry that an exact kernel computation returns.

    ``nullity_one`` says that an isomorphic spec, whose spectrum is the
    same, has already walked to nullity one; the walk is skipped, and every
    other check still reads this spec.
    """
    character = _kernel_character(spec)
    if character is None:
        return None
    if not nullity_one:
        nullity = 0
        for verdict in divisor_walk(spec):
            nullity += verdict.nullity
            if nullity > 1:
                return None
    if recipe is None:
        recipe = spec.describe()
    if (spec.order, spec.degree) != (n, d):
        raise RuntimeError(f"construction has wrong shape for ({n}, {d}): {recipe}")
    if not feasible_vt(n, d).exists:
        raise RuntimeError(f"witness parameters ({n}, {d}) break the existence law: {recipe}")
    a, b = character  # vertex m + j of D_m is r^-j s, and b = 1 on Z_n
    vector = tuple(a ** v * (b if 2 * v >= n else 1) for v in range(n))
    return Witness(spec, recipe, NutCertificate(1, vector))


def construct(n: int, d: int) -> Witness:
    """A certified d-regular nut-graph witness of order n.

    Dispatch: the first rule of ``catalog_witness`` that fits, else the
    circulant search, which covers the remaining degrees divisible by 4.
    Every witness passes ``_certify``.  Raises InfeasiblePairError on
    infeasible input and SearchExhaustedError when the search passes its cap
    or ends empty; never returns an unverified graph.
    """
    verdict = feasible_vt(n, d)
    if not verdict.exists:
        raise InfeasiblePairError(verdict.reason)
    found = catalog_witness(n, d)
    if found is not None:
        w = _certify(*found, n, d)
        if w is None:
            raise RuntimeError(f"{found[1]} at ({n}, {d}) is not a nut graph")
        return w
    w = circulant_search(n, d)
    if w is None:
        raise SearchExhaustedError(f"no circulant witness for ({n}, {d})")
    return w


# -- candidate connection sets and the search ----------------------------------

def _candidates(family: str, n: int, d: int):
    """Connection sets of the family at order n and degree d, as sorted index
    tuples, in the order of the search and the census: on Z_n the jumps in
    [1, n/2], lexicographically (an odd degree, at even n, takes the jump
    n/2 last); on D_m, n = 2m, the pair (rotation jumps j <= m/2,
    reflections), the jumps by number, then lexicographically, each with its
    reflection sets in lexicographic order.  None below a spec's least
    order, n = 3 on Z_n and m = 3 on D_m.
    """
    if family == "circulant":
        if n < 3 or d < 0 or (d % 2 and n % 2):
            return
        tail = (n // 2,) if d % 2 else ()  # even n: the jump n/2 gives the odd degree
        yield from (jumps + tail for jumps in combinations(range(1, (n + 1) // 2), d // 2))
    elif family == "dihedral":
        m = n // 2
        if n % 2 or m < 3:
            return
        for k in range(m // 2 + 1):
            for jumps in combinations(range(1, m // 2 + 1), k):
                size = d - len({*jumps, *(m - j for j in jumps)})
                if 0 <= size <= m:
                    for refl in combinations(range(m), size):
                        yield jumps, refl
    else:
        raise ValueError(f"unknown census family: {family}")


def _spec(family: str, n: int, sets) -> CirculantSpec | DihedralSpec:
    """The spec of a connection set of ``_candidates``: on D_m the rotation
    set {+-j mod m} of the jumps, with the reflections."""
    if family == "circulant":
        return CirculantSpec(n, sets)
    m = n // 2
    jumps, refl = sets
    return DihedralSpec(m, {c for j in jumps for c in (j, m - j)}, refl)


@cache
def _units(n: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, n) if gcd(a, n) == 1)


def _orbit(family: str, n: int, sets) -> set:
    """The images of ``sets``, a connection set of ``_candidates``, under
    the automorphisms of its group, as index tuples of the same stream,
    ``sets`` among them.

    Aut(Z_n) is the phi(n) multipliers a, which take a jump j to
    min(aj, n - aj) mod n.  Aut(D_m), m >= 3, is the m phi(m) affine maps
    r -> r^a, s -> r^c s, which take a rotation R to aR, so a jump j to
    min(aj, m - aj) mod m, and a reflection J to aJ + c (mod m).  A unit a
    permutes the pairs {j, -j} and fixes n/2 (or m/2), so the maps keep the
    degree and the number of jumps: every image is a candidate of the same
    stream.  The stream lists its sets in the order of their index tuples
    (on D_m, by the number of jumps first), so the least image of an orbit,
    its minimum, comes first in it and every other image after it.
    """
    if family == "circulant":
        return {tuple(sorted(min(a * j % n, -a * j % n) for j in sets)) for a in _units(n)}
    m = n // 2
    jumps, refl = sets
    orbit = set()
    for a in _units(m):
        image = tuple(sorted(min(a * j % m, -a * j % m) for j in jumps))
        scaled = [a * b % m for b in refl]
        orbit.update((image, tuple(sorted((b + c) % m for b in scaled))) for c in range(m))
    return orbit


def _witnesses(family: str, n: int, d: int, budget: int | None, dedup: bool | None):
    """The certified witnesses among the connection sets of ``_candidates``,
    in stream order.  ``_spec`` builds the spec of each set that goes on,
    and ``_certify`` gates it, describing it only if it passes.

    ``dedup`` is the census's own; the search passes None and reaches no
    orbit code.  For the census, Cay(G, S) and Cay(G, a(S)) are isomorphic
    for every automorphism a of G, so they have one spectrum and one
    nullity, and a +-1 character vanishes on S iff one vanishes on a(S):
    the sets of an orbit pass or fail the gate together.  The first set of
    an orbit in stream order is its minimum (``_orbit``).  It is certified
    with a walk of its own, and whether it passed is recorded under each of
    its other images.  A later set pops the verdict recorded for it.  With
    dedup it is skipped, as its minimum's witness stands for its class.
    Without dedup it is skipped if the minimum failed, and otherwise
    certified with no walk of its own; its character, shape and existence
    checks still run.  A set with no verdict walks for itself, so an image
    left out costs a walk, and with dedup a labeling, never a verdict.  The
    record holds only the images still to come.

    The budget, when given, caps the sets enumerated, orbit non-minima and
    rejected sets included: the set past it raises SearchExhaustedError, so
    neither the search nor the census is ever silently cut short.
    """
    verdicts: dict[tuple, bool] = {}  # image still to come -> its minimum passed
    for count, sets in enumerate(_candidates(family, n, d), 1):
        if budget is not None and count > budget:
            raise SearchExhaustedError(f"candidate count for ({family}, {n}, {d}) "
                                       f"exceeds the budget of {budget}")
        verdict = verdicts.pop(sets, None)
        if verdict is not None and (dedup or not verdict):
            continue
        w = _certify(_spec(family, n, sets), None, n, d, verdict is not None)
        if verdict is None and dedup is not None:
            verdicts.update(dict.fromkeys(_orbit(family, n, sets) - {sets}, w is not None))
        if w is not None:
            yield w


def circulant_search(n: int, d: int) -> Witness | None:
    """First certified circulant nut witness at (n, d), or None when every
    jump set is rejected.

    Jump sets come in lexicographic order from ``_witnesses``, capped at
    DEFAULT_SEARCH_BUDGET enumerated sets; past the cap it raises
    SearchExhaustedError.  The hit is also run through the direct kernel,
    which must return its certificate: no lemma backs a searched witness for
    every order, so the search keeps an independent check.
    """
    if n < 3:
        raise ValueError("circulant order must be >= 3")
    w = next(_witnesses("circulant", n, d, DEFAULT_SEARCH_BUDGET, None), None)
    if w is not None and nut_check_direct(w.graph) != w.certificate:
        raise RuntimeError(f"the direct kernel disagrees with the certificate of {w.recipe}")
    return w


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


@cache
def _translations(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the translations of Z_n and, at even n = 2m, of D_m,
    as maps of the vertices of ``build``; each is an automorphism of every
    Cayley graph on its group.  On Z_n, i -> i + 1.  On D_m, where vertex
    i is r^i and m + i is r^-i s, the translations by r, i -> i + 1 and
    m + i -> m + i + 1, and by s, i -> m - i and m + i -> -i, all mod m."""
    maps = [tuple((i + 1) % n for i in range(n))]
    if n % 2 == 0:
        m = n // 2
        maps.append(tuple((i + 1) % m for i in range(m))
                    + tuple(m + (i + 1) % m for i in range(m)))
        maps.append(tuple(m + (-i % m) for i in range(m)) + tuple(-i % m for i in range(m)))
    return tuple(maps)


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

    The list of automorphisms starts with the maps of ``_translations``
    that take every edge of g to an edge; a vertex bijection that does so
    is an automorphism.  They are automorphisms of every circulant and
    dihedral Cayley graph ``build`` returns, so of every census witness,
    and spare the search rediscovering them leaf by leaf.  Pruning by
    them skips only subtrees that repeat explored certificates, as pruning
    by found automorphisms does, so the form is unchanged.
    """
    n = g.order
    rows = g.adjacency_rows()
    neighbours = [g.neighbors(v) for v in range(n)]
    best_cert: tuple[int, ...] | None = None
    best_order: list[int] = []
    best_path: list[int] = []
    automorphisms = [p for p in _translations(n)
                     if all(rows[p[u]] >> p[v] & 1 for u in range(n) for v in neighbours[u])]

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


def census(family: str, n: int, d: int, dedup: bool = True, budget: int | None = None):
    """Yield every nut graph of the family at (n, d), one witness per
    isomorphism class (or one per connection set with dedup disabled), in
    one pass; nothing runs until the first witness is asked for.

    The witnesses come from ``_witnesses``, the stream of the search, and
    use the automorphisms a of the group G: Cay(G, S) and Cay(G, a(S)) are
    isomorphic.  One record of orbit images serves both modes: the minimum
    of each orbit, first in the stream, is certified with its own divisor
    walk, and its verdict covers its images (``_orbit``).  With dedup only
    the minima are certified: each class's first candidate is one, so the
    output is that of certifying every candidate.  ``canonical_form`` still
    labels every witness, since orbits alone do not decide isomorphism, and
    starts from the translations of G, which it finds to be automorphisms
    of every witness.  Without dedup every set whose minimum passed is
    certified, with the minimum's walk.  A budget caps the number of
    connection sets enumerated, orbit non-minima included; exceeding it
    raises SearchExhaustedError, after the witnesses before it have been
    yielded, so a caller that must not act on a truncated census holds
    them until the stream ends.
    """
    seen: set[tuple[int, ...]] = set()
    for w in _witnesses(family, n, d, budget, dedup):
        if dedup:
            key = canonical_form(w.graph)
            if key in seen:
                continue
            seen.add(key)
        yield w
