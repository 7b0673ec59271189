"""Golden output: the bytes ``construct``, ``census`` and ``lemmas`` print,
and the verdicts of ``nut_check_spectral``, pinned by SHA-256.

The construct digest covers ``construct N D --format jsonl`` for every
feasible pair with d <= 40 and n <= 120, in (d, n) order; the census digest
covers the eleven censuses of the benchmark's census workload, in the order
below; the spectral digest covers ``(total_nullity, ((b, multiplicity),
...))`` at shifts 0 and 1 for every dihedral spec with m <= 6 and every
circulant jump set with 5 <= n <= 14; the lemmas digest covers the text
output of ``lemmas --family all --t-max 20 --beta-max 300
--full-case-analysis`` with the wall times of its result lines removed.  A
change that keeps the output keeps the digests.  A change that alters the
output on purpose records the new digests in the same change and says why.
"""

import contextlib
import hashlib
import io
import json
import re

import pytest

from nutforge.cli import main
from nutforge.constructions import feasible_vt
from nutforge.verify import nut_check_spectral
from oracles import small_cayley_specs

CONSTRUCT_SHA256 = "9379aa5937a09125063d352a3fddf37ffc4f174f0269899178589b5c9552f2d9"
CENSUS_SHA256 = "55da40bcf50ca7066a87749f21fdbeb0638cffc896efb9a09faa2db66bcf087f"
SPECTRAL_SHA256 = "0d1cf0c88313cd8ce3331013b5e6276f5102d1d044ddefa2b5a6ffc8b97d02cb"
LEMMAS_SHA256 = "509a4444e591ec75ee4d28de6be6fbd1a94abcaf1d06b5928f80145d0e77acfe"

# (family, n, d, dedup): the census benchmark workload's requests.
CENSUS_CASES = (
    ("dihedral", 14, 8, True),
    ("dihedral", 14, 8, False),
    ("circulant", 18, 8, True),
    ("circulant", 24, 8, False),
    ("circulant", 8, 4, True),
    ("circulant", 10, 4, True),
    ("circulant", 12, 4, True),
    ("dihedral", 8, 4, True),
    ("dihedral", 10, 4, True),
    ("dihedral", 12, 6, True),
    ("dihedral", 12, 8, True),
)


def stdout_of(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in argv]) == 0, argv
    return buf.getvalue()


def test_construct_grid_output():
    pairs = [(n, d) for d in range(41) for n in range(1, 121) if feasible_vt(n, d).exists]
    assert len(pairs) == 696
    digest = hashlib.sha256()
    for n, d in pairs:
        digest.update(stdout_of("construct", n, d, "--format", "jsonl").encode())
    assert digest.hexdigest() == CONSTRUCT_SHA256


def test_census_workload_output():
    digest = hashlib.sha256()
    for family, n, d, dedup in CENSUS_CASES:
        flags = () if dedup else ("--no-dedup",)
        digest.update(stdout_of("census", "--family", family, n, d, "--jobs", 1,
                                *flags).encode())
    assert digest.hexdigest() == CENSUS_SHA256


def test_lemmas_output():
    out = stdout_of("lemmas", "--family", "all", "--t-max", 20, "--beta-max", 300,
                    "--full-case-analysis")
    # "  result: ok (770 indices, 0 violations, 0.29s)" loses ", 0.29s"
    timeless = re.sub(r", [0-9.]+s\)$", ")", out, flags=re.M)
    assert timeless.count("  result: ok (") == 12
    assert hashlib.sha256(timeless.encode()).hexdigest() == LEMMAS_SHA256


def test_spectral_verdicts():
    digest = hashlib.sha256()
    count = 0
    for spec in small_cayley_specs():
        for shift in (0, 1):
            rep = nut_check_spectral(spec, shift)
            verdict = (rep.total_nullity,
                       tuple((v.b, v.multiplicity) for v in rep.divisor_verdicts))
            digest.update(repr(verdict).encode())
            count += 1
    assert count == 2 * (720 + 372)
    assert digest.hexdigest() == SPECTRAL_SHA256


@pytest.mark.parametrize("n,d,recipe", [
    (12, 6, "sporadic dihedral(m=6, rotations=[1, 3, 5], reflections=[0, 2, 3])"),
    (16, 12, "complement(circulant(n=16, jumps=[1, 8]))  # Moebius ladder"),
    (12, 8, "complement(dihedral(m=6, rotations=[1, 5], reflections=[0]))  # prism"),
    (16, 6, "degree-(8t+6) family, t=0: "
            "dihedral(m=8, rotations=[1, 7], reflections=[0, 1, 4, 6])"),
    (28, 10, "degree-(8t+10) family, t=0: "
             "dihedral(m=14, rotations=[1, 13], reflections=[0, 1, 2, 5, 7, 9, 10, 13])"),
    (20, 14, "order-(d+6) complement family: "
             "complement(dihedral(m=10, rotations=[2, 8], reflections=[0, 8, 9]))"),
    (36, 26, "order-(d+10) complement family: complement(dihedral(m=18, "
             "rotations=[2, 4, 14, 16], reflections=[0, 2, 6, 7, 15]))"),
    (40, 26, "order-(d+14) complement family: complement(dihedral(m=20, "
             "rotations=[2, 4, 7, 13, 16, 18], reflections=[0, 2, 6, 7, 14, 17, 19]))"),
    (14, 8, "circulant(n=14, jumps=[1, 2, 3, 4])"),
])
def test_recipe_of_each_rule(n, d, recipe):
    # One pair per catalog rule, in catalog order, then one search pair.
    assert json.loads(stdout_of("construct", n, d, "--format", "jsonl"))["recipe"] == recipe
