"""Independent reference implementations used only by the tests.

None of these is on a path the package's commands run: they are the plain,
slow constructions that the package's own algorithms are checked against.
"""

import struct
from functools import cache
from itertools import combinations
from math import gcd
from operator import mul

from nutforge._modeval import root_of_order
from nutforge.constructions import _certify
from nutforge.graphs import (
    CirculantSpec,
    DihedralSpec,
    Graph,
    _g6_order_bytes,
    build,
    complement,
)
from nutforge.numtheory import divisors, is_prime
from nutforge.verify import nut_check_spectral

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
    norm, and with it p(zeta_b), is 0.
    """
    folded = add(*({e % b: c} for e, c in p.items()))
    coeffs, exponents = list(folded.values()), list(folded)
    q = prime_above(b, sum(map(abs, coeffs)))
    zeta = root_of_order(q, b)
    return not any(eval_at(coeffs, exponents, b, q, pow(zeta, k, q))
                   for k in range(1, b + 1) if gcd(k, b) == 1)


def prime_above(b: int, above: int) -> int:
    """The least odd prime q = 1 (mod b) greater than ``above``."""
    q = (above // b + 1) * b + 1
    while q % 2 == 0 or not is_prime(q):
        q += b
    return q


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


def screen_by_full_nullity(spec: CirculantSpec | DihedralSpec):
    """The search and census screen before the character test: the full
    spectral nullity over every divisor, exactly one, then ``_certify``."""
    if nut_check_spectral(spec).total_nullity != 1:
        return None
    return _certify(spec, 0, spec.describe(), spec.order, spec.degree)


def first_asymmetric_pair(order: int, rows):
    """The lexicographically first (i, j) with bit j of row i unlike bit i
    of row j, by checking every pair, or None."""
    for i in range(order):
        for j in range(order):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                return i, j
    return None
