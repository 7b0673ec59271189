"""The four workloads: seeded request lists and the reference data their
checks compare against.

Each request is one command line for ``nutforge.cli.main``. The request sets
are fixed by rules written here, not by asking the program, so a later change
to the program cannot change what is measured. The seed fixes the request
order and generates the ``verify`` specs; nothing else depends on it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from checks import encode_graph6

WORKLOADS = ("lemmas", "construct", "census", "verify")
# The calibration work (speed.py) like each workload's time. The lemma sweep
# computes on arrays larger than the caches in T, and on smaller ones with
# more interpreter work between them in Q, R and S: array work alone tracks
# T but not the others, so lemmas uses the mix. The rest is interpreter-bound.
CALIBRATION = {"lemmas": "mixed", "construct": "interpreter", "census": "interpreter",
               "verify": "interpreter"}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: dict  # what the workload's check needs to know


# -- lemmas ------------------------------------------------------------------------

# Recorded at the commit that defined the benchmark: the unique-remainder
# threshold and the number of finite-case-analysis indices of each family.
_THRESHOLD = {"Q": 6, "R": 11, "S": 8, "T": 20}
_CASE_INDICES = {"Q": 39, "R": 146, "S": 164, "T": 770}
_T_MAX = 20
_BETA_MAX = 300


def lemmas_requests(rng: random.Random) -> list[Request]:
    reqs = []
    for fam in "QRST":
        reports = [("bounded-nondivisibility", _T_MAX + 1),
                   ("unique-remainder", _BETA_MAX - _THRESHOLD[fam] + 1),
                   ("finite-case-analysis", _CASE_INDICES[fam])]
        argv = ("lemmas", "--family", fam, "--t-max", str(_T_MAX), "--beta-max",
                str(_BETA_MAX), "--full-case-analysis", "--format", "jsonl")
        reqs.append(Request(argv, {"reports": reports}))
    rng.shuffle(reqs)
    return reqs


# -- construct ---------------------------------------------------------------------

_SEARCH_MAX_N = 40


def construct_pairs() -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Feasible (n, d) pairs with d <= 40 and n <= 120, split by how
    ``construct`` decided them when the benchmark was defined.

    Decided without search: every d = 2 (mod 4) pair (sporadic, direct family
    or complement family), every order-(d + 4) pair, (16, 8) and (20, 16).
    Every fourth of them in (d, n) order is kept, so orders still reach 120.
    The rest are circulant or dihedral searches, kept up to n = 40, which
    still includes the slow d in {8, 24} rows. The cuts keep a pass near
    three seconds, so that a run holds enough passes for its medians.
    """
    direct, search = [], []
    for d in range(4, 41, 2):
        for n in range(d + 4, 121, 2):
            if d % 4 == 2:
                if n % 4 == 0 and n >= d + 6:
                    direct.append((n, d))
            elif n == d + 4 or (n, d) in ((16, 8), (20, 16)):
                direct.append((n, d))
            elif n <= _SEARCH_MAX_N:
                search.append((n, d))
    return direct[::4], search


def construct_requests(rng: random.Random) -> list[Request]:
    direct, search = construct_pairs()
    reqs = [Request(("construct", str(n), str(d), "--format", "jsonl"), {"n": n, "d": d})
            for n, d in direct + search]
    rng.shuffle(reqs)
    return reqs


# -- census ------------------------------------------------------------------------

# (family, n, d, dedup, class or witness count recorded at the defining commit).
# The two dedup censuses of order 14 and 18 spend about 90% of their time in
# canonical labeling; dihedral 14 8 also runs with --no-dedup, which
# certifies the same candidates and never labels, as does circulant 24 8.
# The small dedup cases add many short requests.
CENSUS_CASES = (
    ("dihedral", 14, 8, True, 3),
    ("dihedral", 14, 8, False, 84),
    ("circulant", 18, 8, True, 6),
    ("circulant", 24, 8, False, 12),
    ("circulant", 8, 4, True, 1),
    ("circulant", 10, 4, True, 1),
    ("circulant", 12, 4, True, 2),
    ("dihedral", 8, 4, True, 1),
    ("dihedral", 10, 4, True, 1),
    ("dihedral", 12, 6, True, 1),
    ("dihedral", 12, 8, True, 1),
)


def census_requests(rng: random.Random) -> list[Request]:
    reqs = []
    for fam, n, d, dedup, count in CENSUS_CASES:
        argv = ("census", "--family", fam, str(n), str(d), "--jobs", "1")
        if not dedup:
            argv += ("--no-dedup",)
        reqs.append(Request(argv, {"n": n, "d": d, "count": count}))
    rng.shuffle(reqs)
    return reqs


# -- verify ------------------------------------------------------------------------

_VERIFY_PER_KIND = 25
_M_LOW, _M_HIGH = 20, 100


def _band(t: int, m: int) -> list[int]:
    return sorted({x for j in range(1, 2 * t + 2) for x in (j, m - j)})


def _family_spec(kind: str, m: int, i: int) -> dict:
    """Dihedral family witnesses of degree 8t + 6 (reflections {0, 1, 4, 6}
    and 8..4t + 7) and 8t + 10 (reflections {0, 1, 2, 5, 7, 9, 10} and
    13..4t + 13), both with the rotation band +-1..+-(2t + 1)."""
    if kind == "family6":
        t = min(i % 3, (m - 8) // 4)
        refl = [0, 1, 4, 6, *range(8, 4 * t + 8)]
    else:
        t = min(i % 3, (m - 14) // 4)
        refl = [0, 1, 2, 5, 7, 9, 10, *range(13, 4 * t + 14)]
    return {"m": m, "rotations": _band(t, m), "reflections": refl}


def _symmetric_set(m: int, orbits: int, rng: random.Random) -> list[int]:
    out = set()
    for a in rng.sample(range(1, m // 2 + 1), orbits):
        out |= {a, m - a}
    return sorted(out)


def _random_spec(kind: str, m: int, i: int, rng: random.Random) -> dict:
    """Random connection sets whose sizes depend on the slot i only."""
    if kind == "dihedral":
        return {"m": m, "rotations": _symmetric_set(m, 1 + i % 3, rng),
                "reflections": sorted(rng.sample(range(m), 2 + i % 5))}
    return {"m": m, "s0": _symmetric_set(m, 1 + i % 2, rng),
            "s1": sorted(rng.sample(range(m), 1 + i % 5)),
            "s2": _symmetric_set(m, 1 + i // 2 % 2, rng)}


def _circulant(m: int, conn) -> list[int]:
    return [sum(1 << ((i + j) % m) for j in set(conn)) for i in range(m)]


def spec_rows(spec: dict) -> list[int]:
    """Adjacency rows of the order-2m graph with blocks [[C0, C1^T], [C1, C2]]."""
    m = spec["m"]
    s0 = spec.get("s0", spec.get("rotations", []))
    s2 = spec.get("s2", spec.get("rotations", []))
    s1 = spec.get("s1", spec.get("reflections", []))
    c0, c1, c2 = _circulant(m, s0), _circulant(m, s1), _circulant(m, s2)
    c1t = _circulant(m, [(m - b) % m for b in s1])
    return [c0[i] | c1t[i] << m for i in range(m)] + [c1[i] | c2[i] << m for i in range(m)]


def verify_requests(rng: random.Random, input_dir: str) -> tuple[list[Request], dict[str, str]]:
    """Requests plus the input files they read (name -> content).

    Every kind gets the same spread of m and of connection-set sizes, and
    each grid slot a fixed m and input mode, so the seed changes which random
    specs are drawn and the request order, but not how the work is spread
    over orders, degrees and methods. The spread is cubic: most graphs are
    small and a few reach order 200, which keeps a pass near five seconds.
    In each kind a quarter of the requests use --shift 1 and a quarter pass
    the graph as graph6 to the direct method; the rest run --method both on
    the spec. The random kinds use odd m in every other slot below the top.
    """
    half_span = (_M_HIGH - _M_LOW) // 2
    grid = [_M_LOW + 2 * round(half_span * (i / (_VERIFY_PER_KIND - 1)) ** 3)
            for i in range(_VERIFY_PER_KIND)]
    reqs, files = [], {}
    for offset, kind in enumerate(("family6", "family2", "dihedral", "bicirculant")):
        for i, m in enumerate(grid if kind.startswith("family") else
                              [m + i % 2 if m < _M_HIGH else m for i, m in enumerate(grid)]):
            witness = kind.startswith("family")
            spec = _family_spec(kind, m, i) if witness else _random_spec(kind, m, i, rng)
            slot = (i + offset) % 4
            shift = 1 if slot == 2 else 0
            rows = spec_rows(spec)
            name = f"{kind}-{i}"
            if slot == 3:
                name += ".g6"
                files[name] = encode_graph6(rows)
                # The format is explicit: auto-detection reads a graph6 line of
                # order 60, which starts with '{', as a JSON spec.
                argv = ("verify", "--input-format", "graph6", "--input",
                        os.path.join(input_dir, name))
            else:
                name += ".json"
                files[name] = json.dumps(spec)
                argv = ("verify", "--method", "both", "--input", os.path.join(input_dir, name))
                if shift:
                    argv += ("--shift", "1")
            reqs.append(Request(argv, {"rows": rows, "shift": shift, "witness": witness,
                                       "input": "graph6" if slot == 3 else "spec"}))
    rng.shuffle(reqs)
    return reqs, files


def make_requests(workload: str, seed: int, input_dir: str) -> tuple[list[Request], dict[str, str]]:
    """The seeded request list of one workload and the input files it needs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return verify_requests(rng, input_dir)
    makers = {"lemmas": lemmas_requests, "construct": construct_requests,
              "census": census_requests}
    return makers[workload](rng), {}
