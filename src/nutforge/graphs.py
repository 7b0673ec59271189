"""Graph representation, structured builders, and serialization.

Graphs are simple and undirected, stored densely as per-vertex neighbor
bitmasks, one n-bit integer per vertex; catalog witnesses reach thousands
of vertices.  Two builders cover the shapes the constructions need:

* circulant graphs on Z_n with a jump set,
* bicirculants of order 2m, the 2x2 block matrix of m x m circulants given
  by three connection sets.

A Cayley graph of the dihedral group of order 2m is the bicirculant with
equal diagonal blocks, and ``DihedralSpec`` is that bicirculant: its
vertices are the m rotations r^0..r^{m-1} followed by the m reflections
s, r^{-1}s, ..., r^{-(m-1)}s, so both diagonal blocks are circulant on the
rotation exponents and the lower off-diagonal block is circulant on the
reflection exponents.

Serialization covers graph6 (bit-exact per the published format, including
the multi-byte order prefix for orders above 62), a zero-indexed adjacency
list, and DOT.  A spec's connection sets fix its adjacency matrix, so
``to_graph6`` writes a spec without building it: each column of the upper
triangle is a slice of the sets' indicator strings (``_indicator``), which
also give row 0 of each circulant block that ``build`` rotates.
"""

from __future__ import annotations

import base64
import operator
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from math import isqrt


_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    order: int
    _rows: tuple[int, ...]

    def __post_init__(self):
        order = self.order
        # index, not int: floats and strings are refused, not coerced
        rows = tuple(map(operator.index, self._rows))
        if order < 1:
            raise ValueError("graph order must be >= 1")
        if len(rows) != order:
            raise ValueError("row count does not match order")
        mask = (1 << order) - 1
        for i, r in enumerate(rows):
            if r & ~mask:
                raise ValueError("adjacency bits outside vertex range")
            if r >> i & 1:
                raise ValueError(f"loop at vertex {i}")
        # Character i * order + j of flat is bit j of row i, so the strided
        # slice flat[i::order] is column i.  Row i differs from column i
        # exactly when some pair (i, j) is asymmetric, so the first
        # differing row, at its first differing column, names the
        # lexicographically first pair.
        flat = "".join([format(r, f"0{order}b")[::-1] for r in rows])
        for i in range(order):
            row, col = flat[i * order:(i + 1) * order], flat[i::order]
            if row != col:
                j = next(k for k, (a, b) in enumerate(zip(row, col)) if a != b)
                raise ValueError(f"asymmetric adjacency at ({i}, {j})")
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def _of_rows(cls, rows: list[int]) -> "Graph":
        """The graph of rows in range, loop-free and symmetric by
        construction, as the builders and the parsers make them: the checks
        of ``Graph(order, rows)`` take n^2 time and memory."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", len(rows))
        object.__setattr__(g, "_rows", tuple(rows))
        return g

    @classmethod
    def from_edges(cls, order: int, edges) -> "Graph":
        if order < 1:
            raise ValueError("graph order must be >= 1")
        rows = [0] * order
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._of_rows(rows)

    def neighbors(self, v: int) -> list[int]:
        # one C-level pass over the row's binary digits, lowest first
        return list(compress(count(), bin(self._rows[v])[:1:-1].encode().translate(_BITS)))

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self._rows]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in self.neighbors(u) if v > u]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def adjacency_rows(self) -> tuple[int, ...]:
        return self._rows

    def __repr__(self):
        return f"Graph(order={self.order}, edges={self.edge_count()})"


@dataclass(frozen=True)
class CirculantSpec:
    """Circulant graph on Z_n: vertex i adjacent to i +- j for each jump j.

    Jumps live in [1, n // 2]; the jump n/2 (even n) contributes degree one,
    every other jump degree two.  ``connection``, the inverse-closed
    connection set {+-j mod n}, is built once with the spec; it is not a
    field, so equality, hash and repr read n and the jumps alone.
    """

    n: int
    jumps: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "jumps", frozenset(self.jumps))
        if self.n < 3:
            raise ValueError("circulant order must be >= 3")
        for j in self.jumps:
            if not 1 <= j <= self.n // 2:
                raise ValueError(f"jump {j} outside [1, {self.n // 2}]")
        object.__setattr__(self, "connection",
                           frozenset(c % self.n for j in self.jumps for c in (j, -j)))

    @property
    def order(self) -> int:
        return self.n

    @property
    def degree(self) -> int:
        # |connection|, counted from the jumps (class docstring)
        return 2 * len(self.jumps) - (self.n % 2 == 0 and self.n // 2 in self.jumps)

    def describe(self) -> str:
        return f"circulant(n={self.n}, jumps={sorted(self.jumps)})"


@dataclass(frozen=True)
class BicirculantSpec:
    """Order-2m graph with adjacency blocks [[C0, C1^T], [C1, C2]] where C0 and
    C2 are symmetric circulants with zero diagonal (connection sets s0, s2,
    inverse-closed) and C1 is the circulant with connection set s1."""

    m: int
    s0: frozenset = field(default_factory=frozenset)
    s1: frozenset = field(default_factory=frozenset)
    s2: frozenset = field(default_factory=frozenset)

    # The names of s0, s1 and s2 in error messages.
    _names = ("s0", "s1", "s2")

    def __post_init__(self):
        object.__setattr__(self, "s0", frozenset(self.s0))
        object.__setattr__(self, "s1", frozenset(self.s1))
        object.__setattr__(self, "s2", frozenset(self.s2))
        if self.m < 3:
            raise ValueError("parameter m must be >= 3")
        # A dihedral spec holds one rotation set as both s0 and s2.
        diagonal = (self.s0,) if self.s2 is self.s0 else (self.s0, self.s2)
        for name, s in zip(self._names[::2], diagonal):
            for a in s:
                if not 1 <= a <= self.m - 1:
                    raise ValueError(f"{name} entry {a} outside [1, {self.m - 1}]")
                if (self.m - a) % self.m not in s:
                    raise ValueError(f"{name} not closed under inversion")
        for b in self.s1:
            if not 0 <= b <= self.m - 1:
                raise ValueError(f"{self._names[1]} entry {b} outside [0, {self.m - 1}]")

    @property
    def order(self) -> int:
        return 2 * self.m

    def describe(self) -> str:
        return (f"bicirculant(m={self.m}, s0={sorted(self.s0)}, "
                f"s1={sorted(self.s1)}, s2={sorted(self.s2)})")


class DihedralSpec(BicirculantSpec):
    """Cayley graph of the dihedral group of order 2m: the bicirculant with
    s0 = s2 = ``rotations`` and s1 = ``reflections``.

    ``rotations`` holds exponents a with r^a in the connection set (closed
    under a -> m - a, since the connection set is inverse-closed);
    ``reflections`` holds exponents b with r^b s in the connection set
    (reflections are involutions, so no closure condition applies).
    """

    _names = ("rotations", "reflections", "rotations")

    def __init__(self, m: int, rotations=frozenset(), reflections=frozenset()):
        rotations = frozenset(rotations)  # one object as s0 and s2
        super().__init__(m, rotations, reflections, rotations)

    @property
    def rotations(self) -> frozenset:
        return self.s0

    @property
    def reflections(self) -> frozenset:
        return self.s1

    @property
    def degree(self) -> int:
        return len(self.s0) + len(self.s1)

    def describe(self) -> str:
        return (f"dihedral(m={self.m}, rotations={sorted(self.rotations)}, "
                f"reflections={sorted(self.reflections)})")


def _indicator(m: int, members) -> bytearray:
    """The m binary digits whose digit c is 1 exactly when c is a member:
    a connection set of Z_m as a string, built in O(m + |members|)."""
    digits = bytearray(b"0") * m
    for c in members:
        digits[c] = 49  # ord("1")
    return digits


def _circulant_rows(indicator: bytearray) -> list[int]:
    """Bit rows of the m x m circulant with C[i][j] = 1 iff (j - i) mod m is
    a member of the connection set whose ``_indicator`` is given: row i is
    row 0 rotated left by i within m bits, m bits of row 0 twice over
    shifted right by m - i."""
    m = len(indicator)
    row, mask = int(indicator[::-1], 2), (1 << m) - 1
    row |= row << m
    return [row >> i & mask for i in range(m, 0, -1)]


def build_circulant(spec: CirculantSpec) -> Graph:
    """Circulant graph: vertex i adjacent to i +- j (mod n) for each jump."""
    return Graph._of_rows(_circulant_rows(_indicator(spec.n, spec.connection)))


def build_bicirculant(spec: BicirculantSpec) -> Graph:
    """Bicirculant graph with blocks [[C0, C1^T], [C1, C2]]; C1^T is the
    circulant on the negated connection set, whose indicator has digit
    -c mod m where s1's has digit c."""
    m = spec.m
    s0, s1, s2 = (_indicator(m, s) for s in (spec.s0, spec.s1, spec.s2))
    c0, c1t, c1, c2 = map(_circulant_rows, (s0, s1[:1] + s1[:0:-1], s1, s2))
    return Graph._of_rows([a | b << m for a, b in [*zip(c0, c1t), *zip(c1, c2)]])


def build(spec: CirculantSpec | BicirculantSpec) -> Graph:
    """The graph of a circulant or bicirculant (dihedral included) spec."""
    return build_circulant(spec) if isinstance(spec, CirculantSpec) else build_bicirculant(spec)


# -- graph6 ------------------------------------------------------------------

GRAPH6_MAX_ORDER = 258047  # largest order the 4-byte prefix can carry


def _g6_order_bytes(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= GRAPH6_MAX_ORDER:
        return "~" + "".join(chr(63 + (n >> sh & 63)) for sh in (12, 6, 0))
    raise ValueError(f"graph6 order {n} exceeds the supported range")


#: The base64 alphabet, and the graph6 characters chr(63 + v) of its
#: digits v, both in digit order.
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_CHARACTERS = bytes(range(63, 127))
_G6_FROM_BASE64 = bytes.maketrans(_BASE64_DIGITS, _G6_CHARACTERS)
_G6_TO_BASE64 = bytes.maketrans(_G6_CHARACTERS, _BASE64_DIGITS)


#: The least number of upper-triangle bits encoded at a time (3 KB).
_G6_CHUNK = 24 * 1024


def _g6_columns(g: Graph | CirculantSpec | BicirculantSpec):
    """Column j of the upper triangle of g's adjacency matrix for j = 1..n-1,
    as binary digits: entries (0, j) to (j - 1, j), which are bits 0..j-1
    of row j.

    A spec's columns are slices of its connection sets' ``_indicator``
    digits.  Entry (i, j) of a circulant on Z_n is digit (i - j) mod n, so
    column j is digits n - j..n-1.  On a bicirculant of order 2m, column
    j < m is digits m - j..m-1 of s0.  Column m + j is entries (i - j) mod m
    of s1 for i = 0..m-1, digits m - j..2m-j-1 of s1's digits twice over,
    then digits m - j..m-1 of s2.
    """
    if isinstance(g, Graph):
        rows = g.adjacency_rows()
        return (format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1].encode()
                for j in range(1, g.order))
    if isinstance(g, CirculantSpec):
        n, digits = g.n, _indicator(g.n, g.connection)
        return (digits[n - j:] for j in range(1, n))
    m = g.m
    s0, s1, s2 = (_indicator(m, s) for s in (g.s0, g.s1, g.s2))
    s1 *= 2
    return chain((s0[m - j:] for j in range(1, m)),
                 (s1[m - j:2 * m - j] + s2[m - j:] for j in range(m)))


def to_graph6(g: Graph | CirculantSpec | BicirculantSpec) -> str:
    """Bit-exact graph6 of a graph, or of a spec's graph without building
    it: order prefix, then the upper-triangle bits in column-major order
    packed into 6-bit groups offset by 63.

    The columns (``_g6_columns``) hold (k(k-1) - j(j-1)) / 2 bits from
    column j to column k - 1, and are taken in runs of at least
    ``_G6_CHUNK`` bits, so no string of all the bits is ever built.  The
    whole 24-bit groups of a run are base64 digits of 6 bits each, which
    the alphabet is then mapped onto, and the bits past them carry over to
    the next run.  The last run is padded to a whole group, and its digits
    past the last bit are dropped.
    """
    n, j = g.order, 1
    out, bits = [_g6_order_bytes(n)], b""
    columns = _g6_columns(g)
    while True:
        stop = min(n, isqrt(j * (j - 1) + 2 * _G6_CHUNK) + 2)
        bits += b"".join(islice(columns, stop - j))
        if stop >= n:
            break
        whole = len(bits) - len(bits) % 24
        out.append(_g6_digits(int(bits[:whole], 2), whole))
        bits, j = bits[whole:], stop
    k = len(bits)
    pad = -k % 24
    out.append(_g6_digits(int(bits or b"0", 2) << pad, k + pad)[:-(-k // 6)])
    return "".join(out)


def _g6_digits(bits: int, k: int) -> str:
    """The k bits of ``bits``, k a multiple of 24, as graph6 characters."""
    return base64.b64encode(bits.to_bytes(k // 8, "big")).translate(_G6_FROM_BASE64).decode()


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (optional ``>>graph6<<`` header tolerated).

    The reverse of ``to_graph6``: the body characters are mapped onto the
    base64 alphabet and decoded into one integer, whose leading
    n(n - 1)/2 bits are the upper triangle in column-major order.  Column j
    is bits 0..j-1 of row j; padded to n characters, the columns make an
    n x n string whose strided slice from character v is the rest of row v.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode()
    if not s.isascii() or data.translate(None, _G6_CHARACTERS):
        raise ValueError("invalid graph6 character")
    if data[0] == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 order")
        if data[1] == 126:
            raise ValueError(f"graph6 orders above {GRAPH6_MAX_ORDER} (the 8-byte form) "
                             "are not supported")
        n = data[1] - 63 << 12 | data[2] - 63 << 6 | data[3] - 63
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise ValueError("graph6 order must be >= 1")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError("graph6 body length mismatch")
    pad = -len(body) % 4  # whole base64 quads, padded with the zero digit 'A'
    value = int.from_bytes(base64.b64decode(body.translate(_G6_TO_BASE64) + b"A" * pad), "big")
    spare = 6 * (len(body) + pad) - need
    if value & ((1 << spare) - 1):
        raise ValueError("nonzero graph6 padding")
    bits = format(value >> spare, f"0{need}b")
    flat = "".join([bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n)])
    # Each string goes once read.  Row v ORs its lower part with its upper
    # part, so the rows are symmetric by construction.
    del bits
    rows = [int(flat[v * n:(v + 1) * n][::-1], 2) | int(flat[v::n][::-1], 2) for v in range(n)]
    del flat
    return Graph._of_rows(rows)


# -- adjacency list and DOT ----------------------------------------------------

def to_adjacency_list(g: Graph) -> str:
    """Newline-delimited zero-indexed listing: ``u: v1 v2 ...``."""
    return "\n".join(f"{u}: {' '.join(map(str, g.neighbors(u)))}".rstrip()
                     for u in range(g.order))


def from_adjacency_list(text: str) -> Graph:
    """Parse the listing ``to_adjacency_list`` writes: one line ``u: v1 v2 ...``
    for every vertex u of 0..n-1, each edge listed at both of its ends.

    A vertex listed twice or not at all, a neighbour listed twice, and an
    edge listed at one end only, are errors rather than guesses.  So is an
    order past GRAPH6_MAX_ORDER, told from the count of listed vertices
    before any of them is read.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) > GRAPH6_MAX_ORDER:
        raise ValueError(f"order {len(lines)} is above {GRAPH6_MAX_ORDER}, the largest "
                         "graph6 order")
    entries: dict[int, set[int]] = {}
    for line in lines:
        head, _, tail = line.partition(":")
        u = int(head)
        if u in entries:
            raise ValueError(f"vertex {u} listed twice")
        nbrs = [int(x) for x in tail.split()]
        entries[u] = set(nbrs)
        if len(entries[u]) != len(nbrs):
            raise ValueError(f"vertex {u} lists a neighbour twice")
    if not entries:
        raise ValueError("empty adjacency list")
    n = len(entries)
    if set(entries) != set(range(n)):
        raise ValueError(f"the listed vertices are not 0..{n - 1}")
    edges = []
    for u, nbrs in entries.items():
        for v in nbrs:
            if u not in entries.get(v, ()):
                raise ValueError(f"edge ({u}, {v}) is not listed at vertex {v}")
            if u <= v:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines)


def serialize(g: Graph, fmt: str) -> str:
    """Render g in one of: graph6, adjacency-list, dot."""
    if fmt == "graph6":
        return to_graph6(g)
    if fmt == "adjacency-list":
        return to_adjacency_list(g)
    if fmt == "dot":
        return to_dot(g)
    raise ValueError(f"unknown graph format: {fmt}")


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse a graph from graph6 or adjacency-list text, dropping ``#``
    comment lines, such as the recipe ``construct`` writes, first.

    With ``auto`` a first line containing ``:`` reads as an adjacency list,
    and anything else as graph6.
    """
    text = "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))
    if fmt == "auto":
        first = text.lstrip().partition("\n")[0]
        fmt = "adjacency-list" if ":" in first else "graph6"
    if fmt == "graph6":
        return from_graph6(text)
    if fmt == "adjacency-list":
        return from_adjacency_list(text)
    raise ValueError(f"unknown graph input format: {fmt}")
