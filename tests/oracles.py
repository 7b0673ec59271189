"""Independent reference implementations used only by the tests.

None of these is on a path the package's commands run: they are the plain,
slow constructions that the package's own algorithms are checked against.
"""

import struct
from functools import cache
from itertools import combinations, count, islice
from math import gcd, prod
from operator import mul

from nutforge._modeval import root_of_order
from nutforge.constructions import _candidates, _certify, _orbit_minimal, _spec
from nutforge.cyclotomic import divides_cyclotomic
from nutforge.exact import _BLOCK, _folder
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    _g6_order_bytes,
    build,
    complement,
)
from nutforge.numtheory import divisors, factorize, is_prime, prime_factors
from nutforge.verify import DivisorVerdict, nut_check_direct, nut_check_spectral

# Polynomials are exponent -> coefficient dicts; every function below returns
# one without zero coefficients, so {} is the zero polynomial, equality is
# dict equality and max(p) is the degree of a nonzero p.


def add(*terms: dict) -> dict:
    """The sum of the polynomials."""
    out: dict = {}
    for p in terms:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def product(*factors: dict) -> dict:
    """The product of the polynomials (1 for none)."""
    out = {0: 1}
    for p in factors:
        step: dict = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                step[e1 + e2] = step.get(e1 + e2, 0) + c1 * c2
        out = {e: c for e, c in step.items() if c}
    return out


def divrem(num: dict, den: dict) -> tuple[dict, dict]:
    """Division with remainder by a monic divisor: num = q * den + r with
    deg r < deg den, all coefficients integers.

    Raises ZeroDivisionError for a zero divisor and ValueError for a divisor
    whose leading coefficient is not 1.
    """
    num, den = add(num), add(den)
    if not den:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    dd = max(den)
    if den[dd] != 1:
        raise ValueError("divrem needs a monic divisor")
    if not num or max(num) < dd:
        return {}, num
    nd = max(num)
    rem = [0] * (nd + 1)
    for e, c in num.items():
        rem[e] = c
    quo = [0] * (nd - dd + 1)
    for i in range(nd, dd - 1, -1):
        q = rem[i]
        if not q:
            continue
        quo[i - dd] = q
        for e, c in den.items():
            rem[i - dd + e] -= q * c
    return add(dict(enumerate(quo))), add(dict(enumerate(rem[:dd])))


def scale_exponents(p: dict, k: int) -> dict:
    """p with x -> x^k substituted."""
    return {e * k: c for e, c in p.items() if c}


@cache
def cyclotomic(n: int) -> dict:
    """The n-th cyclotomic polynomial: x^n - 1 divided by the cyclotomic
    polynomials of the proper divisors of n, every division exact.  The
    result is cached and shared: do not change it in place."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    poly = {n: 1, 0: -1}
    for d in divisors(n)[:-1]:
        poly, rem = divrem(poly, cyclotomic(d))
        if rem:
            raise AssertionError(f"inexact cyclotomic division at {n}/{d}")
    return poly


def eval_at(coeffs, exponents, b: int, q: int, zeta: int) -> int:
    """The pointwise evaluation sum_i coeffs[i] * zeta^(exponents[i] mod b)
    mod q."""
    acc = 0
    for c, e in zip(coeffs, exponents):
        acc = (acc + c * pow(zeta, e % b, q)) % q
    return acc


def divides_cyclotomic_by_evaluation(p: dict, b: int) -> bool:
    """The modular rule that regrouping exponents replaced: whether Phi_b
    divides p, decided at the phi(b) primitive roots modulo a prime.

    p is folded modulo x^b - 1, and q = 1 (mod b) is the least odd prime
    above the l1-norm L of the folded coefficients.  One nonzero value proves that
    Phi_b does not divide p.  If every value is zero, q splits completely in
    Q(zeta_b), so q divides p(zeta_b) there and q^phi(b) divides its norm;
    every conjugate of p(zeta_b) has absolute value at most L < q, so the
    norm, and with it p(zeta_b), is 0.  The primitive roots are the powers
    zeta^k with k prime to b, and zeta^(k e) is read from one table of the
    b powers of zeta at k e mod b.
    """
    folded = add(*({e % b: c} for e, c in p.items()))
    q = prime_above(b, sum(map(abs, folded.values())))
    zeta = root_of_order(q, b)
    powers = [1]
    for _ in range(b - 1):
        powers.append(powers[-1] * zeta % q)
    return not any(sum(c * powers[k * e % b] for e, c in folded.items()) % q
                   for k in range(1, b + 1) if gcd(k, b) == 1)


def divides_cyclotomic_fold_first(p: dict, b: int) -> bool:
    """``cyclotomic.divides_cyclotomic`` before its regrouping reduced the
    exponents: p is folded modulo x^b - 1 first, and the regrouping then
    walks the primes of b, with multiplicity, on exponents in [0, b)."""
    primes = tuple(q for q, k in factorize(b) for _ in range(k))
    return _vanishes_folded(add(*({e % b: c} for e, c in p.items())), b, primes)


def _vanishes_folded(terms: dict, b: int, primes: tuple[int, ...]) -> bool:
    if not any(terms.values()):
        return True
    if b == 1:
        return False
    p, rest = primes[0], primes[1:]
    b //= p
    split = bool(rest) and rest[0] == p
    classes: dict[int, dict] = {}
    for e, c in terms.items():
        cls, k = classes.setdefault(e % p, {}), e // p if split else e % b
        cls[k] = cls.get(k, 0) + c
    if split or len(classes) < p:
        return all(_vanishes_folded(cls, b, rest) for cls in classes.values())
    ref = min(classes.values(), key=len)
    for cls in classes.values():
        if cls is not ref:
            for k, c in ref.items():
                cls[k] = cls.get(k, 0) - c
            if not _vanishes_folded(cls, b, rest):
                return False
    return True


def root_of_order_by_all(q: int, b: int) -> int:
    """``_modeval.root_of_order`` before its prime loop broke at the first
    failing prime: every try runs ``all`` over a fresh generator."""
    if (q - 1) % b != 0:
        raise ValueError("order must divide q - 1")
    if b == 1:
        return 1
    ps = prime_factors(b)
    e = (q - 1) // b
    for a in range(2, q):
        z = pow(a, e, q)
        if z == 1:
            continue
        if all(pow(z, b // p, q) != 1 for p in ps):
            return z
    raise ValueError(f"no element of order {b} modulo {q}")


def prime_above(b: int, above: int) -> int:
    """The least odd prime q = 1 (mod b) greater than ``above``."""
    q = (above // b + 1) * b + 1
    while q % 2 == 0 or not is_prime(q):
        q += b
    return q


def small_evaluation_prime(b: int) -> int:
    """The screening prime that q >= 64 b + 1 replaced: the least odd prime
    q = 1 (mod b) above 50.  With q near b, about one parameter per index
    is zero at the order-b root by chance, so the lemma suites hand
    hundreds of zeros to the exact rule under it."""
    return prime_above(b, 50)


def failing_parameters_per_offset(fam, beta: int) -> list[int]:
    """The collision solver that rotated masks replaced: the t in [0, beta)
    at which no exponent of ``fam`` has a unique remainder modulo beta.

    Term i shares with an offset c of a slope class a at the t with
    (a_i - a) t = c - c_i (mod beta).  For each term and class the solution
    residues t0 below the period beta/g, g = gcd(a_i - a, beta), are taken
    offset by offset, then repeated over [0, beta) by one product with the
    mask of the multiples of the period.
    """
    full = (1 << beta) - 1
    classes: dict[int, list[int]] = {}
    for _, a, c in fam.terms:
        classes.setdefault(a, []).append(c % beta)
    failing = full
    for _, ai, ci in fam.terms:
        ci %= beta
        shared = 0
        for a, offsets in classes.items():
            delta = (ai - a) % beta
            if not delta:
                if offsets.count(ci) > (a == ai):
                    shared = full
                    break
                continue
            g = gcd(delta, beta)
            period = beta // g
            inv = pow(delta // g, -1, period)
            bits = 0
            for c in offsets:
                r = c - ci
                if not r % g:
                    bits |= 1 << r // g * inv % period
            shared |= full // ((1 << period) - 1) * bits
        failing &= shared
    return [t for t in range(beta) if failing >> t & 1]


def prime_power_cancellation_applies(term_count: int, primes) -> bool:
    """Whether the lacunary-divisibility reduction licenses cancelling the full
    power of one of the given primes from a cyclotomic index.

    For a polynomial with N nonzero terms divisible by the n-th cyclotomic
    polynomial, distinct primes p_1..p_k with sum(p_j - 2) > N - 2 guarantee
    that for some j the (n / p_j^{e_j})-th cyclotomic polynomial divides it as
    well, where p_j^{e_j} is the full power of p_j in n.
    """
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    return sum(p - 2 for p in primes) > term_count - 2


def phi_table(limit: int) -> list[int]:
    """Euler's phi of 0..limit by sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def is_regular(g: Graph):
    """The common vertex degree, or None if degrees differ."""
    degs = set(g.degrees())
    return degs.pop() if len(degs) == 1 else None


def sign_classes_split_evenly(w) -> bool:
    """The consequences of the existence law's proof (``feasible_vt``) for a
    witness: the + class of its kernel vector has n/2 of its n vertices and
    induces a (d/2)-regular graph, d the witness's degree."""
    rows = w.graph.adjacency_rows()
    plus = [i for i, x in enumerate(w.certificate.kernel_vector) if x > 0]
    mask = sum(1 << i for i in plus)
    d = rows[0].bit_count()
    return 2 * len(plus) == len(rows) and all(2 * (rows[i] & mask).bit_count() == d
                                              for i in plus)


def kernel_character_by_rows(spec: CirculantSpec | DihedralSpec, shift: int):
    """The row check that the connection-set rule replaced: the first +-1
    character (a, b) of Z_n or D_m, in the order a = 1, -1 and then b = 1,
    -1, that annihilates every adjacency row of the built graph
    (complemented when shift is 1), or None.

    In the builders' vertex order vertex j is r^j and vertex m + j is
    r^-j s; the character is +1 on r^j when a^j = 1 and on r^-j s when
    b a^j = 1.  A row annihilates it when the vertex has as many neighbours
    where it is +1 as where it is -1.
    """
    cyclic, signs = (spec.n, (1,)) if isinstance(spec, CirculantSpec) else (spec.m, (1, -1))
    g = build(spec)
    if shift:
        g = complement(g)
    rows = g.adjacency_rows()
    for a in (1, -1) if cyclic % 2 == 0 else (1,):
        for b in signs:
            values = [a ** j for j in range(cyclic)]
            values += [b * x for x in values] if isinstance(spec, DihedralSpec) else []
            plus = sum(1 << v for v, x in enumerate(values) if x == 1)
            minus = sum(1 << v for v, x in enumerate(values) if x == -1)
            if all((r & plus).bit_count() == (r & minus).bit_count() for r in rows):
                return a, b
    return None


def _subsets(items):
    for k in range(len(items) + 1):
        yield from combinations(items, k)


def small_cayley_specs():
    """Every dihedral spec with 3 <= m <= 6, then every circulant jump set
    with 5 <= n <= 14, in a fixed order: 720 and 372 specs."""
    for m in range(3, 7):
        orbits = sorted({frozenset({a, m - a}) for a in range(1, m)}, key=min)
        for rot in _subsets(orbits):
            for refl in _subsets(range(m)):
                yield DihedralSpec(m, set().union(*rot), refl)
    for n in range(5, 15):
        for jumps in _subsets(range(1, n // 2 + 1)):
            yield CirculantSpec(n, jumps)


def dihedral_candidates_by_orbits(n: int, d: int):
    """The dihedral (rotation set, reflection set) stream of degree d at
    order n = 2m, built from the rotation orbits {a, m - a}: the generator
    the search and the census used before rotation sets came from jump sets."""
    if n % 2:
        return
    m = n // 2
    orbits = [(a, m - a) for a in range(1, (m + 1) // 2)]
    if m % 2 == 0:
        orbits.append((m // 2,))
    for k in range(len(orbits) + 1):
        for orbit_combo in combinations(range(len(orbits)), k):
            rot: set[int] = set()
            for i in orbit_combo:
                rot |= set(orbits[i])
            refl_size = d - len(rot)
            if refl_size < 0 or refl_size > m:
                continue
            for refl in combinations(range(m), refl_size):
                yield frozenset(rot), frozenset(refl)


def candidate_specs(family: str, n: int, d: int, minima: bool = False):
    """The specs of the search and census stream, built by ``_spec`` from
    the index tuples of ``_candidates``; with ``minima``, only those of the
    orbit minima, as the deduplicated census builds them."""
    return (_spec(family, n, sets) for sets in _candidates(family, n, d)
            if not minima or _orbit_minimal(family, n, sets))


def census_by_every_walk(family: str, n: int, d: int) -> list:
    """The census without dedup before the sets of an automorphism orbit
    shared one divisor walk: every connection set of ``_candidates``, in
    stream order, built by ``_spec`` and gated by ``_certify`` with a walk
    of its own."""
    return [w for w in (_certify(_spec(family, n, sets), 0, None, n, d)
                        for sets in _candidates(family, n, d)) if w is not None]


def candidate_specs_before_tuples(family: str, n: int, d: int):
    """The spec stream that the search and the census read before their
    candidates became index tuples: frozenset jump sets on Z_n, and on D_m
    rotation sets {+-j mod m} over jump sets by size, then
    lexicographically, each with its reflection sets in lexicographic
    order."""
    if family == "circulant":
        if n < 3 or d < 0 or d > n - 1 or (d % 2 and n % 2):
            return
        if d % 2:  # even n: the jump n/2 gives the odd degree
            for combo in combinations(range(1, n // 2), d // 2):
                yield CirculantSpec(n, frozenset(combo) | {n // 2})
        else:
            for combo in combinations(range(1, (n + 1) // 2), d // 2):
                yield CirculantSpec(n, frozenset(combo))
        return
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
                yield DihedralSpec(m, rot, frozenset(refl))


def orbit_minimal_spec(spec: CirculantSpec | DihedralSpec) -> bool:
    """The orbit filter before it read index tuples: the jumps re-sorted
    from the spec, and on D_m the jumps rebuilt from the rotation set."""
    if isinstance(spec, CirculantSpec):
        n = spec.n
        jumps = sorted(spec.jumps)
        return not any(sorted(min(a * j % n, -a * j % n) for j in jumps) < jumps
                       for a in range(1, n) if gcd(a, n) == 1)
    m = spec.m
    reps = sorted(a for a in spec.rotations if 2 * a <= m)
    refl = sorted(spec.reflections)
    if refl and refl[0]:
        return False
    for a in range(1, m):
        if gcd(a, m) != 1:
            continue
        image = sorted(min(a * r % m, -a * r % m) for r in reps)
        if image < reps:
            return False
        if image == reps:
            scaled = [a * b % m for b in refl]
            if any(sorted((b - x) % m for b in scaled) < refl for x in scaled):
                return False
    return True


def relabel(g: Graph, perm) -> Graph:
    """The graph whose vertex i is vertex perm[i] of g."""
    n = g.order
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    inverse = [0] * n
    for i, v in enumerate(perm):
        inverse[v] = i
    return Graph.from_edges(n, [(inverse[u], inverse[v]) for u, v in g.edges()])


def moebius_ladder(n: int) -> Graph:
    """The n-cycle with its n/2 diameters, from its edge list."""
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, i + n // 2) for i in range(n // 2)])


def prism(m: int) -> Graph:
    """Two m-cycles, on 0..m-1 and m..2m-1, joined by the spokes i, m + i."""
    return Graph.from_edges(2 * m, [(i, (i + 1) % m) for i in range(m)]
                            + [(m + i, m + (i + 1) % m) for i in range(m)]
                            + [(i, m + i) for i in range(m)])


def circulant_rows_by_jumps(m: int, connection) -> list[int]:
    """Bit rows of the m x m circulant with C[i][j] = 1 iff (j - i) mod m in
    the connection set, as the package built them before it rotated row 0:
    one bit per element of the connection set, for every row."""
    rows = []
    for i in range(m):
        r = 0
        for j in connection:
            r |= 1 << ((i + j) % m)
        rows.append(r)
    return rows


def build_by_jumps(spec: CirculantSpec | BicirculantSpec) -> Graph:
    """The graph of a circulant or bicirculant spec from per-jump rows,
    through the checking constructor: the bicirculant's blocks are
    [[C0, C1^T], [C1, C2]], with C1^T the circulant on the negated s1."""
    if isinstance(spec, CirculantSpec):
        return Graph(spec.n, circulant_rows_by_jumps(spec.n, spec.connection))
    m = spec.m
    c0 = circulant_rows_by_jumps(m, spec.s0)
    c2 = circulant_rows_by_jumps(m, spec.s2)
    c1 = circulant_rows_by_jumps(m, spec.s1)
    c1t = circulant_rows_by_jumps(m, {(m - b) % m for b in spec.s1})
    rows = [c0[i] | c1t[i] << m for i in range(m)]
    rows += [c1[i] | c2[i] << m for i in range(m)]
    return Graph(2 * m, rows)


def build_lcf(n: int, pattern) -> Graph:
    """Cubic Hamiltonian graph from exponential LCF notation: the cycle
    0..n-1 plus the chord i -> i + pattern[i mod len(pattern)] (mod n).

    The chord assignment must be a fixed-point-free involution that avoids
    the cycle edges, otherwise the result would not be simple and cubic.
    """
    if n < 3 or n % 2:
        raise ValueError("LCF order must be even and >= 4")
    pattern = list(pattern)
    if not pattern or n % len(pattern):
        raise ValueError("pattern length must divide the order")
    edges = [(i, (i + 1) % n) for i in range(n)]
    chord = {}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        if j == i:
            raise ValueError(f"chord at vertex {i} is a loop")
        if (j - i) % n in (1, n - 1):
            raise ValueError(f"chord at vertex {i} collides with a cycle edge")
        chord[i] = j
    for i, j in chord.items():
        if chord.get(j) != i:
            raise ValueError(f"chords do not pair up at vertices {i}, {j}")
        if i < j:
            edges.append((i, j))
    g = Graph.from_edges(n, edges)
    if any(d != 3 for d in g.degrees()):
        raise ValueError("LCF description is not cubic")
    return g


def _pack(residues, word: int) -> int:
    """Residues in [0, 2**word) packed into one integer, one ``word``-bit
    word per slot (32 or 64), the first residue in the lowest slot."""
    code = "I" if word == 32 else "Q"
    return int.from_bytes(struct.pack(f"<{len(residues)}{code}", *residues), "little")


#: Columns the slot-by-slot elimination eliminates between two shifts.
_SLOT_BLOCK = 8


def echelon_by_slots(live: list[int], cols: int, p: int,
                     word: int) -> list[tuple[int, list[int]]]:
    """The elimination the kernel ran before it folded pivot rows whole:
    row echelon form modulo p of rows packed in ``word``-bit slots as
    (column, row) per pivot, each row unpacked from its pivot column on,
    reduced and scaled to lead with 1, and packed again, negated, to be
    added to the live rows."""
    code, mask = "I" if word == 32 else "Q", (1 << word) - 1
    pivots = []
    for c in range(cols):
        j = c % _SLOT_BLOCK
        if c and not j:
            live = [y >> word * _SLOT_BLOCK for y in live]
        at = word * j
        head = mask << at
        for i, y in enumerate(live):
            if ((y & head) >> at) % p:
                break
        else:
            continue
        n = cols - c
        slots = struct.unpack(f"<{n}{code}", (live.pop(i) >> at).to_bytes(word // 8 * n, "little"))
        inv = pow(slots[0] % p, -1, p)
        row = [s * inv % p for s in slots]
        pivots.append((c, row))
        neg = _pack([-r % p for r in row[1:]], word) << at + word
        live = [y + h * neg if (h := ((y & head) >> at) % p) else y for y in live]
    return pivots


def solve_by_slots(pivots, free_cols, cols: int, p: int, word: int) -> list[list[int]]:
    """Back-substitution through the scaled rows of ``echelon_by_slots``:
    per free column, the kernel vector modulo p that is 1 there and 0 at the
    other free columns.  The rows are unpacked already, so ``word`` only
    matches the signature of the kernel's back substitution."""
    vectors = []
    for f in free_cols:
        v = [0] * cols
        v[f] = 1
        for c, row in reversed(pivots):
            if c < f:
                v[c] = -sum(map(mul, row, v[c:])) % p
        vectors.append(v)
    return vectors


def echelon_without_idle_rows(live: list[int], cols: int, p: int,
                              word: int) -> list[tuple[int, int, int]]:
    """The elimination the kernel ran before it set idle rows aside: the
    pivots of ``exact._echelon_mod``, (column, lead inverse, tail) each,
    with every row that is left searched for a head at every column."""
    fold = _folder(p, cols, word)
    mask = (1 << word) - 1
    pivots = []
    for c in range(cols):
        j = c % _BLOCK
        if c and not j:
            live = [y >> word * _BLOCK for y in live]
        at = word * j
        head = mask << at
        for i, y in enumerate(live):
            if ((y & head) >> at) % p:
                break
        else:
            continue
        row = fold(live.pop(i) >> at)
        inv, tail = pow(row & mask, -1, p), row >> word
        pivots.append((c, inv, tail))
        placed, neg = tail << at + word, p - inv
        live = [y + m * placed if (m := ((y & head) >> at) * neg % p) else y for y in live]
    return pivots


class IntMatrix:
    """Dense matrix with arbitrary-precision integer entries: the general
    integer input of ``matrix_kernel``, which the package itself only ever
    gives a graph's ``BitMatrix``."""

    def __init__(self, data):
        self.data = tuple(tuple(map(int, row)) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows in matrix")

    def packed(self, p: int, word: int) -> list[int]:
        """Each row modulo p, packed into one ``word``-bit word per column."""
        return [_pack([x % p for x in row], word) for row in self.data]

    def annihilates(self, v) -> bool:
        """Whether every row has a zero dot product with v."""
        return not any(sum(map(mul, row, v)) for row in self.data)

    def hadamard_square(self) -> int:
        """The product over rows of max(1, squared row norm), at least the
        square of every minor."""
        return prod(max(1, sum(x * x for x in row)) for row in self.data)


def entries(a) -> list[list[int]]:
    """The entries of the ``BitMatrix`` A + shift * I, row by row, read bit
    by bit."""
    n = a.rows
    return [[a.shift if i == j else r >> j & 1 for j in range(n)]
            for i, r in enumerate(a.bit_rows)]


def graph6_by_groups(g: Graph) -> str:
    """graph6 as the package wrote it before base64: the upper-triangle bits
    in column-major order, padded to a multiple of 6 and read one 6-bit
    group at a time."""
    bits = "".join(format(row & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j, row in enumerate(g.adjacency_rows()) if j)
    bits += "0" * (-len(bits) % 6)
    return _g6_order_bytes(g.order) + "".join(chr(63 + int(bits[k:k + 6], 2))
                                              for k in range(0, len(bits), 6))


def graph6_decode_by_groups(text: str) -> Graph:
    """graph6 as the package decoded it before base64: one 6-bit string
    per character, one '0'/'1' string per column, transposed with zip."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    vals = [ord(ch) - 63 for ch in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("invalid graph6 character")
    if vals[0] == 63:
        if len(vals) < 4:
            raise ValueError("truncated graph6 order")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n < 1:
        raise ValueError("graph6 order must be >= 1")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError("graph6 body length mismatch")
    bits = "".join(format(v, "06b") for v in body)
    if "1" in bits[need:]:
        raise ValueError("nonzero graph6 padding")
    lower = [bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n)]
    return Graph(n, [int(low[::-1], 2) | int("".join(up)[::-1], 2)
                     for low, up in zip(lower, zip(*lower))])


def screen(spec: CirculantSpec | DihedralSpec):
    """``_certify`` for a search or census candidate: its own order and
    degree, and its description as the recipe."""
    return _certify(spec, 0, spec.describe(), spec.order, spec.degree)


def circulant_search_by_islice(n: int, d: int, budget: int):
    """The circulant search before it read the capped witness stream: the
    first ``budget`` jump sets of ``_candidates``, cut short without an
    error, each screened, and the first hit checked against the direct
    kernel; None when no set within the cap passes."""
    if n < 3:
        raise ValueError("circulant order must be >= 3")
    jump_sets = islice(_candidates("circulant", n, d), budget)
    w = next(filter(None, (screen(_spec("circulant", n, s)) for s in jump_sets)), None)
    if w is not None and nut_check_direct(w.graph) != w.certificate:
        raise RuntimeError(f"the direct kernel disagrees with the certificate of {w.recipe}")
    return w


def screen_by_full_nullity(spec: CirculantSpec | DihedralSpec):
    """The search and census screen before the character test: the full
    spectral nullity over every divisor, exactly one, then ``_certify``."""
    if nut_check_spectral(spec).total_nullity != 1:
        return None
    return screen(spec)


def neighbors_by_shifts(g: Graph, v: int) -> list[int]:
    """``Graph.neighbors`` by one shift of the row per vertex, as it was
    before it walked the set bits."""
    row = g.adjacency_rows()[v]
    return [u for u in range(g.order) if row >> u & 1]


def edges_by_shifts(g: Graph) -> list[tuple[int, int]]:
    """``Graph.edges`` by one shift per vertex pair, as it was before it
    walked the set bits."""
    rows = g.adjacency_rows()
    return [(u, v) for u in range(g.order) for v in range(u + 1, g.order)
            if rows[u] >> v & 1]


def first_asymmetric_pair(order: int, rows):
    """The lexicographically first (i, j) with bit j of row i unlike bit i
    of row j, by checking every pair, or None."""
    for i in range(order):
        for j in range(order):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                return i, j
    return None


def _miller_rabin(q: int) -> bool:
    """Whether q is prime: Miller-Rabin to the first twelve prime bases,
    exact below 3.1 * 10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if q < 2 or any(q % a == 0 for a in bases):
        return q in bases
    odd, twos = q - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in bases:
        x = pow(a, odd, q)
        if x == 1:
            continue
        for _ in range(twos):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


def block_invariants_by_pairs(spec, shift: int) -> tuple[int, tuple[dict, ...]]:
    """``verify.block_invariants`` before it telescoped the cyclic runs:
    cyclic order m and the untelescoped invariants folded modulo x^m - 1,
    (shift + p_S,) for a circulant, and otherwise the determinant
    (shift + p0)(shift + p2) - p1 p1~ from all its O(|S|^2) exponent pairs
    and the trace p0 + p2 + 2 shift."""
    if isinstance(spec, CirculantSpec):
        n = spec.n
        return n, (add(*({c % n: 1} for c in spec.connection), {0: shift}),)
    m = spec.m
    diag0 = [(j, 1) for j in spec.s0] + [(0, shift)]
    diag2 = [(j, 1) for j in spec.s2] + [(0, shift)]
    det = [(e + k, c * v) for e, c in diag0 for k, v in diag2]
    det += [(j - k, -1) for j in spec.s1 for k in spec.s1]
    return m, tuple(add(*({e % m: c} for e, c in pairs)) for pairs in (det, diag0 + diag2))


def one_minus_x_times(terms: dict, k: int, m: int) -> dict:
    """(1 - x)^k times the polynomial ``terms``, folded modulo x^m - 1."""
    return add(*({e % m: c} for e, c in product(terms, *[{0: 1, 1: -1}] * k).items()))


def telescoped_by_pairs(spec, shift: int) -> tuple[int, tuple[dict, ...]]:
    """What ``verify.block_invariants`` must return: the invariants of
    ``block_invariants_by_pairs`` times (1 - x)^2 for the determinant and
    (1 - x) for the trace and the entry, folded modulo x^m - 1."""
    m, invariants = block_invariants_by_pairs(spec, shift)
    powers = (1,) if len(invariants) == 1 else (2, 1)
    return m, tuple(one_minus_x_times(terms, k, m) for terms, k in zip(invariants, powers))


def divisor_walk_at_every_divisor(spec, shift: int = 0):
    """``verify.divisor_walk`` before it skipped the divisors beyond an
    invariant's reach and read b = 1 off the set sizes:
    ``divides_cyclotomic`` at every divisor of the cyclic order, from the
    determinant down, on the invariants of ``block_invariants_by_pairs``."""
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    m, invariants = block_invariants_by_pairs(spec, shift)
    for b in divisors(m):
        mult = 0
        while mult < len(invariants) and divides_cyclotomic(invariants[mult], b):
            mult += 1
        yield DivisorVerdict(b, mult)


def nonvanishing_witnesses(spec, shift: int):
    """The check of a divisor b of the spec's cyclic order m: a function of
    (b, tries) that returns the first (q, omega) among the first ``tries``
    primes q = 1 (mod b) at which the block determinant of the shifted spec
    (the entry, for a circulant) is nonzero mod q, with omega the first
    power g^((q - 1) / b) of order exactly b, or None.

    A witness proves that Phi_b does not divide the determinant, so the
    blocks at the primitive b-th roots are nonsingular: omega is a root of
    Phi_b mod q (q does not divide b), so a multiple of Phi_b vanishes
    there.  Shares no code with the package: m is trial-divided here, once
    per spec, and primality is decided by ``_miller_rabin``.
    """
    circulant = isinstance(spec, CirculantSpec)
    primes, rest, p = [], spec.n if circulant else spec.m, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    primes += [rest] if rest > 1 else []

    def det(w: int, q: int) -> int:
        def at(s, x):
            return sum(pow(x, c, q) for c in s)
        if circulant:
            return (shift + at(spec.connection, w)) % q
        return ((shift + at(spec.s0, w)) * (shift + at(spec.s2, w))
                - at(spec.s1, w) * at(spec.s1, pow(w, -1, q))) % q

    def witness(b: int, tries: int):
        order_primes = [p for p in primes if b % p == 0]
        q = 1
        for _ in range(tries):
            q += b
            while not _miller_rabin(q):
                q += b
            for g in count(1):
                w = pow(g, (q - 1) // b, q)
                if all(pow(w, b // p, q) != 1 for p in order_primes):
                    break
            if det(w, q):
                return q, w
        return None
    return witness
