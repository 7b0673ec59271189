"""Tests for graph builders and serialization."""

import dataclasses
import pickle
import random
import tracemalloc

import pytest

from nutforge.exact import BitMatrix, _kernel_prime, matrix_kernel
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    build,
    build_bicirculant,
    build_circulant,
    from_adjacency_list,
    from_graph6,
    parse_graph,
    serialize,
    to_adjacency_list,
    to_dot,
    to_graph6,
)
from nutforge.constructions import (
    _complement,
    catalog_witness,
    construct,
    direct_family_spec,
)
from nutforge.verify import block_invariants, nut_check_spectral
from oracles import (
    IntMatrix,
    build_by_jumps,
    build_lcf,
    complement,
    edges_by_shifts,
    entries,
    first_asymmetric_pair,
    graph6_by_groups,
    graph6_decode_by_groups,
    is_regular,
    neighbors_by_shifts,
    relabel,
    small_cayley_specs,
)
from test_golden import grid_pairs


def cycle(n):
    return build_circulant(CirculantSpec(n, {1}))


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGraphCore:
    def test_rejects_asymmetry_and_loops(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])
        with pytest.raises(ValueError):
            Graph(2, [0b01, 0b10])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rows_must_be_integers(self):
        # Floats and strings are refused, not truncated or parsed: int()
        # would make (2.9, 1.2) and ('2', '1') the one-edge graph.
        for rows in ((2.9, 1.2), ("2", "1"), (2.0, 1)):
            with pytest.raises(TypeError):
                Graph(2, rows)
        np = pytest.importorskip("numpy")
        edge = Graph.from_edges(2, [(0, 1)])
        for rows in ((2, 1), (2, True), np.array([2, 1], dtype=np.int64), (np.uint8(2), 1)):
            g = Graph(2, rows)
            assert g == edge and all(type(r) is int for r in g.adjacency_rows())

    def test_asymmetry_names_first_pair(self):
        # One-sided entries 3 -> 1 and 4 -> 2: the message names (1, 3).
        with pytest.raises(ValueError, match=r"asymmetric adjacency at \(1, 3\)$"):
            Graph(5, [0, 0, 0, 0b00010, 0b00100])
        # One-sided entries 0 -> 4 and 2 -> 3: the message names (0, 4).
        with pytest.raises(ValueError, match=r"asymmetric adjacency at \(0, 4\)$"):
            Graph(5, [0b10000, 0, 0b01000, 0, 0])

    def test_asymmetry_matches_every_pair_search(self):
        # Random matrices with zero diagonal, from one-sided noise to one
        # flipped entry in a symmetric matrix: the message names the pair
        # the search over every pair finds first.
        rng = random.Random(139)
        for _ in range(300):
            n = rng.randint(2, 40)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < 0.4])
            rows = list(g.adjacency_rows())
            for _ in range(rng.choice((1, 2, n * n))):
                i, j = rng.sample(range(n), 2)
                rows[i] ^= 1 << j
            pair = first_asymmetric_pair(n, rows)
            if pair is None:
                assert Graph(n, rows).adjacency_rows() == tuple(rows)
                continue
            with pytest.raises(ValueError, match=rf"asymmetric adjacency at \({pair[0]}, {pair[1]}\)$"):
                Graph(n, rows)

    def test_value_semantics(self):
        # Equal rows make equal graphs with equal hashes, whichever
        # constructor made them; a pickle round trip keeps the graph;
        # no field can be assigned or added.
        g = cycle(5)
        same = Graph(5, list(g.adjacency_rows()))
        assert g == same and hash(g) == hash(same) and len({g, same}) == 1
        assert g != cycle(6) and g != complement(g) and g != g.adjacency_rows()
        for h in (g, Graph.from_edges(1, []), complete(3)):
            copy = pickle.loads(pickle.dumps(h))
            assert copy == h and copy.adjacency_rows() == h.adjacency_rows()
        with pytest.raises(AttributeError):
            g.order = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            g._rows = ()
        with pytest.raises((AttributeError, TypeError)):
            g.extra = 1
        assert (g.order, g.adjacency_rows()) == (5, same.adjacency_rows())
        assert repr(g) == "Graph(order=5, edges=5)"

    def test_neighbors_and_degrees(self):
        g = cycle(5)
        assert g.neighbors(0) == [1, 4]
        assert g.degrees() == [2] * 5
        assert g.edge_count() == 5

    def test_relabel_identity(self):
        g = cycle(5)
        assert relabel(g, [0, 1, 2, 3, 4]) == g

    def test_relabel_puts_perm_i_at_i(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        g = relabel(path, [2, 0, 3, 1])
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]


class TestUncheckedRows:
    """The builders and the parsers, and the reference ``oracles.complement``,
    skip the checks of ``Graph(order, rows)``: their rows are in range,
    loop-free and symmetric by construction."""

    @staticmethod
    def checked(g):
        fresh = Graph(g.order, g.adjacency_rows())
        assert fresh == g and all(type(r) is int for r in g.adjacency_rows())
        return fresh

    def test_outputs_pass_every_check(self):
        count = 0
        for spec in small_cayley_specs():
            g = build(spec)
            for h in (g, complement(g)):
                self.checked(h)
                assert self.checked(from_graph6(to_graph6(h))) == h
                assert self.checked(from_adjacency_list(to_adjacency_list(h))) == h
                assert self.checked(Graph.from_edges(h.order, h.edges())) == h
                count += 1
        assert count == 2 * (720 + 372)

    def test_from_edges_keeps_its_checks(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph.from_edges(3, [(0, 3)])

    def test_memory_at_order_8000(self):
        # no n^2-character string per graph: building the complement of a
        # circulant of order 8000 from its own spec peaks within three times
        # the bits of one adjacency matrix (the string check peaked near
        # eighteen times)
        n = 8000
        tracemalloc.start()
        try:
            g = build(_complement(CirculantSpec(n, (1, 2, 3, 5, 8, 13, 21))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.degrees() == [n - 15] * n
        assert peak <= 3 * n * n // 8


class TestSetBitWalks:
    def test_match_the_walks_over_every_position(self):
        rng = random.Random(157)
        for n in range(1, 65):
            for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                         if rng.random() < p])
                assert all(g.neighbors(v) == neighbors_by_shifts(g, v) for v in range(n))
                assert g.edges() == edges_by_shifts(g)


class TestAdjacencyMatrix:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_matches_bit_shifts_plus_shifted_identity(self, n):
        rng = random.Random(n)
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < 0.4])
        rows = g.adjacency_rows()
        for shift in (0, 1, 2):
            expected = [[(rows[i] >> j & 1) + (shift if i == j else 0) for j in range(n)]
                        for i in range(n)]
            a = BitMatrix(g.adjacency_rows(), shift)
            assert (a.rows, a.cols) == (n, n)
            assert entries(a) == expected
            # differential gate: the bit rows pack and certify as the integer rows
            dense = IntMatrix(expected)
            for word, bits in ((32, 12), (64, 21)):
                for p in (_kernel_prime(0, bits), 2):
                    assert a.packed(p, word) == dense.packed(p, word)
            if shift < 2:
                assert matrix_kernel(a) == matrix_kernel(dense)


class TestCirculant:
    def test_four_regular_order_eight(self):
        g = build_circulant(CirculantSpec(8, {1, 2}))
        assert g.order == 8
        assert is_regular(g) == 4
        assert {1, 2} <= set(g.neighbors(0)) and 3 not in g.neighbors(0)

    def test_square(self):
        g = build_circulant(CirculantSpec(4, {1}))
        assert is_regular(g) == 2
        assert g.edge_count() == 4

    def test_moebius_ladder(self):
        g = build_circulant(CirculantSpec(16, {1, 8}))
        assert is_regular(g) == 3
        assert 8 in g.neighbors(0)

    def test_half_jump_degree(self):
        assert CirculantSpec(8, {1, 4}).degree == 3

    def test_invalid_jump(self):
        with pytest.raises(ValueError):
            CirculantSpec(8, {5})


class TestDihedral:
    def test_six_regular_order_sixteen(self):
        g = build_bicirculant(DihedralSpec(8, {1, 7}, {0, 1, 4, 6}))
        assert g.order == 16
        assert is_regular(g) == 6

    def test_perfect_matching(self):
        g = build_bicirculant(DihedralSpec(3, frozenset(), {0}))
        assert g.order == 6
        assert is_regular(g) == 1
        assert g.edge_count() == 3

    def test_prism_structure(self):
        # Rotations {1, m-1} plus one reflection give two m-cycles joined by
        # a perfect matching.
        g = build_bicirculant(DihedralSpec(6, {1, 5}, {0}))
        assert is_regular(g) == 3
        inner = [(i, (i + 1) % 6) for i in range(6)]
        assert all(v in g.neighbors(u) for u, v in inner)
        assert all((u + 1) % 6 + 6 in g.neighbors(u + 6) for u in range(6))
        matching = sum(1 for u in range(6) for v in g.neighbors(u) if v >= 6)
        assert matching == 6

    def test_block_structure_matches_connection_sets(self):
        spec = DihedralSpec(7, {2, 5}, {1, 3})
        rows = build_bicirculant(spec).adjacency_rows()
        m = 7
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert rows[i] >> j & 1 == ((j - i) % m in spec.rotations)
                    assert rows[m + i] >> (m + j) & 1 == ((j - i) % m in spec.rotations)
                # lower-left block: reflection connection set
                assert rows[m + i] >> j & 1 == ((j - i) % m in spec.reflections)

    def test_rotation_closure_enforced(self):
        with pytest.raises(ValueError):
            DihedralSpec(8, {1}, {0})

    def test_degree_formula(self):
        rng = random.Random(71)
        for _ in range(40):
            m = rng.randint(3, 12)
            pairs = [(a, m - a) for a in range(1, (m + 1) // 2)]
            rot = set()
            for a, b in pairs:
                if rng.random() < 0.4:
                    rot |= {a, b}
            if m % 2 == 0 and rng.random() < 0.4:
                rot.add(m // 2)
            refl = {b for b in range(m) if rng.random() < 0.4}
            spec = DihedralSpec(m, rot, refl)
            g = build_bicirculant(spec)
            assert is_regular(g) == len(rot) + len(refl)


class TestBicirculant:
    def test_mixed_degree_order_36(self):
        spec = BicirculantSpec(18, {1, 17}, {0, 2}, {1, 2, 3, 15, 16, 17})
        g = build_bicirculant(spec)
        assert g.order == 36
        degs = g.degrees()
        assert set(degs[:18]) == {4}
        assert set(degs[18:]) == {8}

    def test_dihedral_agreement(self):
        spec = BicirculantSpec(6, {1, 5}, {0}, {1, 5})
        assert build_bicirculant(spec) == build_bicirculant(DihedralSpec(6, {1, 5}, {0}))

    def test_matching(self):
        g = build_bicirculant(BicirculantSpec(3, frozenset(), {0}, frozenset()))
        assert g.edge_count() == 3
        assert is_regular(g) == 1

    def test_inversion_closure_enforced(self):
        with pytest.raises(ValueError):
            BicirculantSpec(8, {3}, set(), set())


class TestSpecLayer:
    """Every small Cayley spec states its own order, degree and connection
    set, and a dihedral spec is the bicirculant with equal diagonal blocks."""

    def test_dihedral_spec_is_its_explicit_bicirculant(self):
        dihedral = [s for s in small_cayley_specs() if isinstance(s, DihedralSpec)]
        assert len(dihedral) == 720
        for spec in dihedral:
            m, rot, refl = spec.m, spec.rotations, spec.reflections
            explicit = BicirculantSpec(m, rot, refl, rot)
            assert isinstance(spec, BicirculantSpec)
            assert (spec.s0, spec.s1, spec.s2) == (rot, refl, rot)
            assert build_bicirculant(spec) == build_bicirculant(explicit)
            for shift in (0, 1):
                assert block_invariants(spec, shift) == block_invariants(explicit, shift)
                assert nut_check_spectral(spec, shift) == nut_check_spectral(explicit, shift)

    def test_order_and_degree_are_the_built_graphs(self):
        specs = list(small_cayley_specs())
        assert len(specs) == 1092
        for spec in specs:
            g = build(spec)
            assert (spec.order, spec.degree) == (g.order, is_regular(g)), spec

    def test_build_picks_the_builder_of_the_spec_kind(self):
        bicirculant = BicirculantSpec(6, {1, 5}, {0, 3}, {2, 4})
        assert build(bicirculant) == build_bicirculant(bicirculant)
        for spec in small_cayley_specs():
            own = build_circulant if isinstance(spec, CirculantSpec) else build_bicirculant
            assert build(spec) == own(spec), spec

    def test_circulant_connection_is_the_neighbourhood_of_zero(self):
        circulants = [s for s in small_cayley_specs() if isinstance(s, CirculantSpec)]
        assert len(circulants) == 372
        for spec in circulants:
            assert spec.connection == set(build_circulant(spec).neighbors(0)), spec


def _inverse_closed(rng, m: int, density: float) -> frozenset:
    """A random subset of 1..m-1 closed under a -> m - a."""
    return frozenset(c for a in range(1, m // 2 + 1) if rng.random() < density
                     for c in (a, m - a))


def _random_specs(rng, m: int, density: float):
    """A circulant, a dihedral and a bicirculant spec of parameter m, with
    each element of every connection set drawn with the given density; s1
    draws 0 like any other reflection."""
    reflections = frozenset(b for b in range(m) if rng.random() < density)
    yield CirculantSpec(m, frozenset(j for j in range(1, m // 2 + 1) if rng.random() < density))
    yield DihedralSpec(m, _inverse_closed(rng, m, density), reflections)
    yield BicirculantSpec(m, _inverse_closed(rng, m, density), reflections,
                          _inverse_closed(rng, m, density))


class TestBuildMatchesPerJumpBuilder:
    """Differential gate: the builders, which rotate each circulant block's
    first row, give the graph of the per-jump builder they replaced."""

    def test_seeded_random_specs(self):
        rng = random.Random(31)
        for m in (3, 4, 5, 7, 8, 16, 17, 31, 64, 65, 101):
            for density in (0.1, 0.5, 0.9, 1.0):
                for spec in _random_specs(rng, m, density):
                    assert build(spec) == build_by_jumps(spec), spec

    def test_edge_sets(self):
        # m = 3, empty and full sets, s1 = {0} alone, and the half jump
        for spec in (CirculantSpec(3), CirculantSpec(3, {1}), CirculantSpec(8, {4}),
                     DihedralSpec(3, {1, 2}, {0}), BicirculantSpec(3, (), {0}, ()),
                     BicirculantSpec(3, {1, 2}, {0, 1, 2}, {1, 2}),
                     BicirculantSpec(9, (), range(9), set(range(1, 9)))):
            assert build(spec) == build_by_jumps(spec), spec

    def test_large_family_witness(self):
        spec = direct_family_spec(998, 1000)
        g = build(spec)
        assert g == build_by_jumps(spec)
        assert (g.order, is_regular(g)) == (2000, 998)


class TestGraph6FromSpec:
    """Differential gate: graph6 written from a spec's connection sets is
    graph6 of the spec's built graph."""

    @staticmethod
    def agree(spec):
        assert to_graph6(spec) == to_graph6(build(spec)), spec

    def test_small_cayley_specs(self):
        for spec in small_cayley_specs():
            self.agree(spec)

    def test_complement_spec_sample(self):
        # every dihedral spec with m = 3..7 and circulant with n = 3..16
        specs = list(small_cayley_specs(range(3, 8), range(3, 17)))
        assert len(specs) == 2506
        for spec in specs:
            self.agree(spec)

    def test_construct_grid_witnesses(self):
        for n, d in grid_pairs():
            self.agree(construct(n, d).spec)

    def test_seeded_bicirculants_with_distinct_diagonal_blocks(self):
        rng = random.Random(41)
        count = 0
        while count < 300:
            m = rng.randrange(3, 90, 2)
            density = rng.random()
            spec = BicirculantSpec(m, _inverse_closed(rng, m, density),
                                   frozenset(b for b in range(m) if rng.random() < density),
                                   _inverse_closed(rng, m, density))
            if spec.s0 != spec.s2:
                self.agree(spec)
                count += 1

    @pytest.mark.parametrize("n,d", [(224, 10), (224, 218), (224, 220), (2000, 14),
                                     (2000, 1994), (8000, 7994)])
    def test_catalog_specs_past_one_chunk(self, n, d):
        # from order 224 on the columns are encoded in more than one run
        spec, _ = catalog_witness(n, d)
        self.agree(spec)


class TestLCF:
    def test_twenty_vertex_cubic(self):
        g = build_lcf(20, [5, -5])
        assert g.order == 20
        assert is_regular(g) == 3
        assert 5 in g.neighbors(0) and 16 in g.neighbors(1)

    def test_equals_circulant_with_half_jump(self):
        assert build_lcf(8, [4]) == build_circulant(CirculantSpec(8, {1, 4}))
        assert build_lcf(6, [3]) == build_circulant(CirculantSpec(6, {1, 3}))

    def test_rejects_bad_patterns(self):
        with pytest.raises(ValueError):
            build_lcf(10, [5, -5, 5])  # length does not divide order
        with pytest.raises(ValueError):
            build_lcf(8, [1])  # collides with cycle edges
        with pytest.raises(ValueError):
            build_lcf(12, [2])  # chords do not pair up


class TestComplement:
    """The reference complement of ``oracles``, which the complement specs
    of ``constructions._complement`` are checked against."""

    def test_complete_to_empty(self):
        g = complement(complete(4))
        assert g.edge_count() == 0

    def test_five_cycle_self_complementary(self):
        assert complement(cycle(5)) == build_circulant(CirculantSpec(5, {2}))

    def test_involution(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(1, 12)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            assert complement(complement(g)) == g

    def test_degree_map(self):
        g = build_bicirculant(DihedralSpec(6, {1, 5}, {0}))
        cg = complement(g)
        assert is_regular(cg) == 12 - 1 - 3


class TestIsRegular:
    def test_cycle(self):
        assert is_regular(cycle(5)) == 2

    def test_star_is_not(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert is_regular(star) is None


class TestGraph6:
    def test_documented_encodings(self):
        assert to_graph6(complete(2)) == "A_"
        assert to_graph6(Graph.from_edges(2, [])) == "A?"
        assert to_graph6(complete(3)) == "Bw"

    def test_roundtrip(self):
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randint(1, 20)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            g = Graph.from_edges(n, edges)
            assert from_graph6(to_graph6(g)) == g

    def test_large_order_prefix(self):
        g = Graph.from_edges(70, [(0, 69), (1, 2)])
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g

    def test_header_tolerated(self):
        assert from_graph6(">>graph6<<A_") == complete(2)

    def test_order_ceiling(self):
        from nutforge.graphs import _g6_order_bytes

        assert _g6_order_bytes(62) == chr(63 + 62)
        assert _g6_order_bytes(63).startswith("~")
        with pytest.raises(ValueError):
            _g6_order_bytes(258048)

    def test_matches_reference_codec(self):
        # Cross-check the encoder bit-for-bit against an independent
        # implementation when one is available.
        nx = pytest.importorskip("networkx")
        rng = random.Random(113)
        for _ in range(40):
            n = rng.randint(1, 80)  # spans both order-prefix encodings
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.25]
            g = Graph.from_edges(n, edges)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(edges)
            expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert to_graph6(g) == expected
            assert from_graph6(expected) == g

    def test_bad_input(self):
        with pytest.raises(ValueError):
            from_graph6("A")  # truncated body
        with pytest.raises(ValueError):
            from_graph6("")


# -- the per-bit graph6 codecs before whole-row packing, kept as test oracles --

def bitwise_to_graph6(g):
    from nutforge.graphs import _g6_order_bytes

    n = g.order
    rows = g.adjacency_rows()
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(rows[i] >> j & 1)
    out = [_g6_order_bytes(n)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = group << 1 | b
        group <<= max(0, 6 - len(bits[k:k + 6]))
        out.append(chr(63 + group))
    return "".join(out)


def bitwise_from_graph6(text):
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
    bits = []
    for v in body:
        bits.extend((v >> sh & 1) for sh in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    if any(bits[need:]):
        raise ValueError("nonzero graph6 padding")
    return Graph.from_edges(n, edges)


def decode_error(decode, text):
    try:
        decode(text)
    except ValueError as exc:
        return str(exc)
    return None


class TestGraph6MatchesBitwiseCodec:
    @pytest.mark.parametrize("n", [1, 2, 5, 62, 63, 64, 120, 200])
    def test_seeded_random_graphs(self, n):
        rng = random.Random(1000 + n)
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
            text = bitwise_to_graph6(g)
            assert to_graph6(g) == text
            assert from_graph6(text) == bitwise_from_graph6(text) == g

    def test_same_errors(self):
        # Bad characters, orders, lengths and padding, each with the message
        # the bitwise decoder gives.
        texts = ["", ">>graph6<<", "A", "A_?", "@", "~??", "~", "B\x7f", "A ", "Bx",
                 "A`", "D??", "D???", "~?@?" + "?" * 333, "~?@?" + "?" * 336]
        rng = random.Random(131)
        for _ in range(200):
            n = rng.randint(1, 12)
            good = to_graph6(Graph(n, [0] * n))
            cut = rng.randint(0, len(good))
            texts.append(good[:cut] + chr(rng.randint(60, 128)) + good[cut + 1:])
        errors = set()
        for text in texts:
            error = decode_error(bitwise_from_graph6, text)
            assert decode_error(from_graph6, text) == error, text
            if error is None:
                assert from_graph6(text) == bitwise_from_graph6(text)
            errors.add(error)
        assert errors >= {"empty graph6 string", "invalid graph6 character",
                          "truncated graph6 order", "graph6 order must be >= 1",
                          "graph6 body length mismatch", "nonzero graph6 padding", None}


class TestGraph6MatchesGroupEncoder:
    """The base64 encoder against the 6-bit group encoder it replaced."""

    def test_orders_to_70_and_1000(self):
        # bit lengths n(n-1)/2 that end on a whole base64 digit (0, 6, 12 or
        # 18 mod 24) and inside one; orders 62 and 63 switch the prefix; from
        # order 224 on the columns are encoded in more than one run
        assert {n * (n - 1) // 2 % 24 for n in range(1, 71)} >= {0, 6, 12, 18}
        rng = random.Random(137)
        for n in (*range(1, 71), 223, 224, 225, 1000):
            for p in (0.0, 0.3, 0.7, 1.0):
                g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                         if rng.random() < p])
                assert to_graph6(g) == graph6_by_groups(g), n

    def test_memory_at_order_8000(self):
        # no string of all 32 million upper-triangle bits: the traced peak
        # stays within three times the output line
        g = build_circulant(CirculantSpec(8000, (1, 2, 3, 5, 8, 13, 21)))
        tracemalloc.start()
        try:
            line = to_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(line) == 4 + -(-8000 * 7999 // 2 // 6)
        assert peak <= 3 * len(line)


class TestGraph6MatchesGroupDecoder:
    """The base64 decoder against the 6-bit group decoder it replaced."""

    def test_orders_to_70_and_1000(self):
        rng = random.Random(149)
        for n in (*range(1, 71), 223, 224, 225, 1000):
            for p in (0.0, 0.3, 0.7, 1.0):
                g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                         if rng.random() < p])
                text = to_graph6(g)
                assert from_graph6(text) == graph6_decode_by_groups(text) == g, n

    def test_same_errors(self):
        texts = ["", ">>graph6<<", "A", "A_?", "@", "~??", "~", "B\x7f", "Bx", "A`",
                 "D???", "~?@?" + "?" * 333, "\xe9", "A\u20ac"]
        rng = random.Random(151)
        for _ in range(200):
            n = rng.randint(1, 70)
            good = to_graph6(Graph(n, [0] * n))
            cut = rng.randint(0, len(good))
            texts.append(good[:cut] + chr(rng.randint(60, 128)) + good[cut + 1:])
        for text in texts:
            error = decode_error(graph6_decode_by_groups, text)
            assert decode_error(from_graph6, text) == error, text
            if error is None:
                assert from_graph6(text) == graph6_decode_by_groups(text)


class TestAdjacencyListAndDot:
    def test_roundtrip(self):
        g = build_circulant(CirculantSpec(8, {1, 2}))
        assert from_adjacency_list(to_adjacency_list(g)) == g

    def test_format(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert to_adjacency_list(g).splitlines() == ["0: 1", "1: 0", "2:"]

    @pytest.mark.parametrize("text", [
        "0: 1\n1: 0\n0: 1",  # vertex listed twice
        "0: 1 1\n1: 0",  # neighbour listed twice
        "0: 1\n1: 0\n3:",  # vertex 2 missing
        "0: 1 415\n1: 0",  # neighbour never listed
        "0: 1 2\n1: 0\n2:",  # edge listed at one end only
        "0: 0",  # loop
    ])
    def test_malformed_listing_rejected(self, text):
        with pytest.raises(ValueError):
            from_adjacency_list(text)

    def test_orders_past_graph6_refused_by_both_parsers(self):
        # The 4-byte graph6 prefix tops out at GRAPH6_MAX_ORDER and the
        # 8-byte form is refused; an adjacency list is refused by its count
        # of listed vertices.
        with pytest.raises(ValueError, match=r"^graph6 orders above 258047 \(the 8-byte form\)"):
            from_graph6("~~??@???")
        listing = "\n".join(f"{u}:" for u in range(258048))
        for parse in (from_adjacency_list, parse_graph):
            with pytest.raises(ValueError, match="^order 258048 is above 258047"):
                parse(listing)

    def test_dot_contains_edges(self):
        text = to_dot(complete(3))
        assert "0 -- 1;" in text and text.startswith("graph G {")

    def test_parse_auto_detection(self):
        g = build_circulant(CirculantSpec(8, {1, 2}))
        assert parse_graph(to_graph6(g)) == g
        assert parse_graph(to_adjacency_list(g)) == g

    def test_serialize_dispatch(self):
        g = complete(2)
        assert serialize(g, "graph6") == "A_"
        assert "0 -- 1;" in serialize(g, "dot")
        with pytest.raises(ValueError):
            serialize(g, "gml")
