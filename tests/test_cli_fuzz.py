"""Seeded fuzz test of ``verify``: mutated graph6, adjacency-list and JSON-spec
inputs must end in an exit code of the contract (0, 1 or 2), never in an
uncaught exception.

The mutations are byte-level (replace, insert, delete, duplicate, swap,
truncate), so they also produce inputs that are not valid UTF-8.  Every
mutant runs under each ``--input-format`` with every ``--method`` that reads
that format.  A well-formed adjacency list past graph6's largest order exits
2 as well, refused by the parser before it builds anything.
"""

import json
import random
import tracemalloc

import pytest

from nutforge import cli
from nutforge.cli import main
from nutforge.graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    build_bicirculant,
    build_circulant,
    to_adjacency_list,
    to_graph6,
)

SEED = 20251018
MUTANTS_PER_BASE = 20
RUNS = [("graph6", "direct"), ("adjacency-list", "direct"), ("auto", "direct"),
        ("auto", "spectral"), ("auto", "both")]
# Bytes that matter to the three parsers, plus a few arbitrary ones.
_INSERTABLE = b"0123456789{}[]:,\"- \n~?@_" + bytes([0, 127, 200, 255])


def _base_inputs() -> list[bytes]:
    graphs = [
        build_circulant(CirculantSpec(10, {1, 2})),  # nut
        build_bicirculant(DihedralSpec(8, {1, 7}, {0, 1, 4, 6})),  # nut
        build_bicirculant(BicirculantSpec(6, {1, 5}, {0, 3}, {2, 4})),
        Graph.from_edges(3, [(0, 1), (1, 2)]),  # nullity one, zero kernel entry
    ]
    specs = [
        {"m": 8, "rotations": [1, 7], "reflections": [0, 1, 4, 6]},
        {"m": 10, "rotations": [2, 8], "reflections": [0, 8, 9], "shift": 1},
        {"m": 6, "s0": [1, 5], "s1": [0, 3], "s2": [2, 4]},
        {"m": 4, "s0": [], "s1": [0, 1], "s2": [1, 3], "shift": 0},
        {"n": 16, "jumps": [1, 8], "shift": 1},  # the Moebius-ladder base
    ]
    texts = [to_graph6(g) for g in graphs]
    texts += [to_adjacency_list(g) for g in graphs]
    texts += [json.dumps(s) for s in specs]
    return [t.encode() for t in texts]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        pos = rng.randrange(len(out) + 1)
        if op == 0 and pos < len(out):
            out[pos] = rng.randrange(256)
        elif op == 1:
            out.insert(pos, rng.choice(_INSERTABLE))
        elif op == 2 and pos < len(out):
            del out[pos]
        elif op == 3:
            end = min(len(out), pos + rng.randint(1, 8))
            out[pos:pos] = out[pos:end]
        elif op == 4 and pos + 1 < len(out):
            out[pos], out[pos + 1] = out[pos + 1], out[pos]
        elif op == 5:
            del out[pos:]
    return bytes(out)


def _cases():
    rng = random.Random(SEED)
    cases = []
    for base_index, base in enumerate(_base_inputs()):
        for k in range(MUTANTS_PER_BASE):
            cases.append(pytest.param(_mutate(rng, base), id=f"{base_index}-{k}"))
    return cases


@pytest.mark.parametrize("data", _cases())
def test_verify_exit_code_contract(tmp_path, capsys, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    for fmt, method in RUNS:
        argv = ["verify", "--input", str(path), "--input-format", fmt, "--method", method]
        code = main(argv)  # an uncaught exception fails the test here
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (fmt, data)
        assert "Traceback" not in err, (fmt, data)


def test_verify_graph_past_the_order_limit(tmp_path, capsys, monkeypatch):
    # An adjacency list says its order only by the lines it has, so the
    # parser counts them and refuses a list past graph6's largest order
    # before it builds a neighbour set, an edge list or a graph.
    def no_kernel(g, shift):
        raise AssertionError(f"a graph of order {g.order} reached the kernel")

    monkeypatch.setattr(cli, "nut_check_direct", no_kernel)
    path = tmp_path / "input"
    path.write_text("".join(f"{u}:\n" for u in range(258048)))
    for fmt in ("adjacency-list", "auto"):
        tracemalloc.start()
        try:
            code = main(["verify", "--input", str(path), "--input-format", fmt,
                         "--method", "direct"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), fmt
        assert captured.err == ("error: cannot parse graph: order 258048 is above 258047, "
                                "the largest graph6 order\n"), fmt
        assert peak < 40 * 2**20, (fmt, peak)
