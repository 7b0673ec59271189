"""nutforge: exact constructions and certification of regular nut graphs.

A nut graph is a nontrivial simple graph whose adjacency matrix has nullity
exactly one with a kernel vector free of zero entries.  This package decides
for which (order, degree) pairs a vertex-transitive / Cayley nut graph
exists, produces a certified witness graph for every feasible pair via
dihedral-group and circulant constructions, and re-verifies the cyclotomic
non-divisibility facts those constructions rest on.

All certification is exact: integer polynomials as exponent -> coefficient
maps, nullspaces certified from two sides and returned as primitive integer
vectors, and cyclotomic divisibility decided by regrouping exponents over
the primes of the index.  No floating point is involved anywhere in a
verdict.
"""

from .exact import matrix_kernel
from .cyclotomic import divides_cyclotomic
from .numtheory import divisors, euler_phi, factorize
from .graphs import (
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    Graph,
    build_bicirculant,
    build_circulant,
    from_graph6,
    parse_graph,
    serialize,
    to_graph6,
)
from .verify import (
    NutCertificate,
    SpectralReport,
    block_invariants,
    nut_check_direct,
    nut_check_spectral,
)
from .constructions import (
    FeasibilityVerdict,
    InfeasiblePairError,
    SearchExhaustedError,
    Witness,
    canonical_form,
    catalog_witness,
    census,
    circulant_search,
    complement_family_spec,
    construct,
    direct_family_spec,
    feasible_vt,
)
from .lemmas import (
    FAMILIES,
    FAMILY_TAGS,
    VerificationReport,
    candidate_divisor_indices,
    enumerate_feasible_indices,
    verify_family_bounded,
    verify_finite_case_analysis,
    verify_unique_remainder,
)

__version__ = "0.1.0"

__all__ = [
    "matrix_kernel",
    "divides_cyclotomic", "enumerate_feasible_indices",
    "divisors", "euler_phi", "factorize",
    "BicirculantSpec", "CirculantSpec", "DihedralSpec", "Graph",
    "build_bicirculant", "build_circulant",
    "from_graph6", "parse_graph", "serialize", "to_graph6",
    "NutCertificate", "SpectralReport", "block_invariants",
    "nut_check_direct", "nut_check_spectral",
    "FeasibilityVerdict", "InfeasiblePairError", "SearchExhaustedError",
    "Witness", "canonical_form", "catalog_witness", "census", "circulant_search",
    "complement_family_spec", "construct", "direct_family_spec", "feasible_vt",
    "FAMILIES", "FAMILY_TAGS", "VerificationReport",
    "candidate_divisor_indices", "verify_family_bounded",
    "verify_finite_case_analysis", "verify_unique_remainder",
]
